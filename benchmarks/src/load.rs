//! The closed-loop load generator: fixed-count rounds over one world.

use std::sync::Barrier;
use std::time::Instant;

use crate::alloc::total_allocs;
use crate::procfs::cpu_time_ns;
use crate::spec::KEYS_PER_CLIENT;

/// A system under load. Every client is a caller that waits for each reply
/// before sending its next request.
pub trait World: Sync {
    /// Per-client generator state (expected values, id counters).
    type Client: Send;

    /// One state per closed-loop client.
    fn new_clients(&self) -> Vec<Self::Client>;

    /// Run the client's op number `index` to its outcome. Returns whether
    /// the outcome is the one expected for that index.
    fn run_op(&self, client: &mut Self::Client, index: u64) -> bool;

    /// After the load: compare the state the world holds with what the
    /// clients' acknowledged ops imply. Returns what does not match.
    fn verify(&self, clients: &[Self::Client]) -> Vec<String>;
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// First op start to last op end, all clients.
    pub wall_ns: u64,
    /// Begin-to-outcome latency of every op whose outcome was as expected,
    /// ascending.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Allocations by every thread of the process during the round.
    pub allocs: u64,
    /// Process user + system time during the round.
    pub cpu_ns: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / (self.wall_ns as f64 / 1e9)
    }
}

fn drive<W: World>(
    world: &W,
    client: &mut W::Client,
    first: u64,
    ops: usize,
    latencies: &mut Vec<u64>,
) -> u64 {
    let mut failed = 0;
    for index in first..first + ops as u64 {
        let begun = Instant::now();
        let as_expected = world.run_op(client, index);
        let latency = begun.elapsed().as_nanos() as u64;
        if as_expected {
            latencies.push(latency);
        } else {
            failed += 1;
        }
    }
    failed
}

/// Run `ops` operations per client, numbered from `first`, and measure them.
pub fn run_round<W: World>(world: &W, clients: &mut [W::Client], first: u64, ops: usize) -> Round {
    let mut latencies: Vec<Vec<u64>> = clients.iter().map(|_| Vec::with_capacity(ops)).collect();
    let cpu_before = cpu_time_ns();
    let (wall_ns, failed, allocs) = if let [client] = clients {
        let allocs_before = total_allocs();
        let begun = Instant::now();
        let failed = drive(world, client, first, ops, &mut latencies[0]);
        (
            begun.elapsed().as_nanos() as u64,
            failed,
            total_allocs() - allocs_before,
        )
    } else {
        // Two barriers: after the first every client thread exists and is
        // idle, so the allocation counter is read with nothing in flight.
        let ready = Barrier::new(clients.len() + 1);
        let go = Barrier::new(clients.len() + 1);
        let epoch = Instant::now();
        let (allocs_before, spans) = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(latencies.iter_mut())
                .map(|(client, latencies)| {
                    let (ready, go) = (&ready, &go);
                    scope.spawn(move || {
                        ready.wait();
                        go.wait();
                        let begun = epoch.elapsed().as_nanos() as u64;
                        let failed = drive(world, client, first, ops, latencies);
                        (begun, epoch.elapsed().as_nanos() as u64, failed)
                    })
                })
                .collect();
            ready.wait();
            let allocs_before = total_allocs();
            go.wait();
            let spans: Vec<(u64, u64, u64)> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            (allocs_before, spans)
        });
        let allocs = total_allocs() - allocs_before;
        let begun = spans
            .iter()
            .map(|s| s.0)
            .min()
            .expect("at least one client");
        let ended = spans
            .iter()
            .map(|s| s.1)
            .max()
            .expect("at least one client");
        (ended - begun, spans.iter().map(|s| s.2).sum(), allocs)
    };
    let cpu_ns = cpu_time_ns() - cpu_before;
    let mut latencies_ns: Vec<u64> = latencies.into_iter().flatten().collect();
    latencies_ns.sort_unstable();
    Round {
        wall_ns,
        latencies_ns,
        attempted: (ops * clients.len()) as u64,
        failed,
        allocs,
        cpu_ns,
    }
}

/// Deterministic 64-bit mix of the workload seed and an op index
/// (splitmix64's finaliser): the generator's only source of randomness.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which of a client's keys op `index` touches.
pub fn key_index(seed: u64, index: u64) -> usize {
    (mix(seed, index) % KEYS_PER_CLIENT as u64) as usize
}

/// The key strings of one client.
pub fn key_table(client: usize) -> Vec<String> {
    (0..KEYS_PER_CLIENT)
        .map(|k| format!("c{client}/k{k:04}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting {
        clients: usize,
        seen: AtomicU64,
    }

    impl World for Counting {
        type Client = Vec<u64>;

        fn new_clients(&self) -> Vec<Vec<u64>> {
            vec![Vec::new(); self.clients]
        }

        fn run_op(&self, client: &mut Vec<u64>, index: u64) -> bool {
            client.push(index);
            self.seen.fetch_add(1, Ordering::Relaxed);
            index % 10 != 3
        }

        fn verify(&self, _clients: &[Vec<u64>]) -> Vec<String> {
            Vec::new()
        }
    }

    #[test]
    fn rounds_number_ops_consecutively_and_count_failures() {
        for clients in [1, 2] {
            let world = Counting {
                clients,
                seen: AtomicU64::new(0),
            };
            let mut states = world.new_clients();
            let round = run_round(&world, &mut states, 100, 20);
            assert_eq!(round.attempted, 20 * clients as u64);
            assert_eq!(
                round.failed,
                2 * clients as u64,
                "ops 103 and 113 of each client"
            );
            assert_eq!(
                round.latencies_ns.len() as u64,
                round.attempted - round.failed
            );
            assert!(round.latencies_ns.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(world.seen.load(Ordering::Relaxed), round.attempted);
            for state in &states {
                assert_eq!(*state, (100..120).collect::<Vec<u64>>());
            }
            assert!(round.wall_ns > 0 && round.ops_per_s() > 0.0);
        }
    }

    #[test]
    fn the_seed_alone_decides_the_keys() {
        let a: Vec<usize> = (0..64).map(|i| key_index(7, i)).collect();
        let b: Vec<usize> = (0..64).map(|i| key_index(7, i)).collect();
        let c: Vec<usize> = (0..64).map(|i| key_index(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&k| k < KEYS_PER_CLIENT));
        assert_eq!(key_table(1)[5], "c1/k0005");
    }
}
