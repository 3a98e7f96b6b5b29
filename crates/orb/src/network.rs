//! A deterministic, fault-injecting message "network".
//!
//! Every inter-node invocation consults this network, which can
//!
//! * charge a latency (advancing the shared [`SimClock`] instead of
//!   sleeping),
//! * **drop** the message (the caller observes a timeout),
//! * **duplicate** the message (the servant runs twice — this is what makes
//!   the paper's at-least-once Signal delivery observable and forces Actions
//!   to be idempotent, §3.4), and
//! * **partition** groups of nodes from one another.
//!
//! All randomness is drawn from a seeded PRNG, so a given
//! ([`NetworkConfig::seed`], workload) pair replays identically.
//!
//! On top of the probabilistic model sits a **scripted** one: a
//! [`FaultScript`] names individual messages by their sequence number
//! ("drop the 3rd remote message", "duplicate the 7th") so a simulation
//! harness can *enumerate* fault events, sweep over them, and shrink a
//! failing schedule to a minimal reproducer. Scripted events take
//! precedence over the probabilistic model for the messages they name.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::Telemetry;

use crate::clock::SimClock;

/// Tunable fault and latency model for the simulated network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Fixed one-way latency charged to every delivered message.
    pub base_latency: Duration,
    /// Maximum additional uniformly distributed latency.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is delivered twice.
    pub duplicate_probability: f64,
    /// Seed for the deterministic PRNG driving drops, duplicates and jitter.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            base_latency: Duration::from_micros(100),
            jitter: Duration::ZERO,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed: 0,
        }
    }
}

impl NetworkConfig {
    /// A perfectly reliable, zero-latency network (unit-test default).
    pub fn reliable() -> Self {
        NetworkConfig { base_latency: Duration::ZERO, ..Self::default() }
    }

    /// A lossy network dropping and duplicating messages with the given
    /// probabilities.
    pub fn lossy(drop_probability: f64, duplicate_probability: f64, seed: u64) -> Self {
        NetworkConfig { drop_probability, duplicate_probability, seed, ..Self::default() }
    }
}

/// A deterministic per-message fault plan.
///
/// Remote messages are numbered `0, 1, 2, …` in transmission order (local,
/// same-node calls are not counted — they bypass the fault model entirely).
/// A script names the sequence numbers to drop and to duplicate; everything
/// else falls through to the probabilistic [`NetworkConfig`] model.
///
/// Because the events are discrete and enumerable, a simulation harness can
/// generate schedules from a seed, replay them exactly, and *shrink* a
/// failing schedule by removing events one at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    drops: BTreeSet<u64>,
    duplicates: BTreeSet<u64>,
}

impl FaultScript {
    /// An empty script: every message follows the probabilistic model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the `nth` remote message (0-based).
    #[must_use]
    pub fn drop_nth(mut self, nth: u64) -> Self {
        self.drops.insert(nth);
        self
    }

    /// Deliver the `nth` remote message (0-based) twice.
    #[must_use]
    pub fn duplicate_nth(mut self, nth: u64) -> Self {
        self.duplicates.insert(nth);
        self
    }

    /// Whether the script names no messages at all.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.duplicates.is_empty()
    }

    /// Message numbers scheduled to be dropped.
    pub fn drops(&self) -> impl Iterator<Item = u64> + '_ {
        self.drops.iter().copied()
    }

    /// Message numbers scheduled to be duplicated.
    pub fn duplicates(&self) -> impl Iterator<Item = u64> + '_ {
        self.duplicates.iter().copied()
    }
}

/// What the network decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Message lost; the caller sees a timeout.
    Dropped,
    /// Message (and possibly a duplicate) delivered after `latency`.
    Delivered {
        /// Number of copies handed to the servant (1 or 2).
        copies: u32,
        /// One-way latency charged to the virtual clock.
        latency: Duration,
    },
    /// Source and destination are in different partitions.
    Partitioned,
}

/// Running message counters, readable at any time.
#[derive(Debug, Default)]
pub struct NetworkStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    partitioned: AtomicU64,
}

/// A point-in-time copy of [`NetworkStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkStatsSnapshot {
    /// Messages submitted for transmission.
    pub sent: u64,
    /// Messages delivered at least once.
    pub delivered: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages refused due to a partition.
    pub partitioned: u64,
}

/// A partition scheduled against the virtual clock: between `from`
/// (inclusive) and `until` (exclusive) the named groups cannot reach each
/// other; once the clock passes `until` the window heals itself without
/// anyone calling [`SimulatedNetwork::heal`].
///
/// Because activation is a pure function of [`SimClock::now`], scheduled
/// partitions are exactly as deterministic and replayable as scripted
/// message faults.
#[derive(Debug, Clone)]
pub struct PartitionWindow {
    /// Virtual time at which the partition takes effect (inclusive).
    pub from: Duration,
    /// Virtual time at which the partition heals (exclusive).
    pub until: Duration,
    /// node name → group id for the window; unmentioned nodes share the
    /// implicit group 0.
    groups: HashMap<String, u32>,
}

impl PartitionWindow {
    fn active_at(&self, now: Duration) -> bool {
        self.from <= now && now < self.until
    }

    fn severs(&self, from: &str, to: &str) -> bool {
        let ga = self.groups.get(from).copied().unwrap_or(0);
        let gb = self.groups.get(to).copied().unwrap_or(0);
        ga != gb
    }
}

/// The simulated network shared by all nodes of an [`crate::Orb`].
pub struct SimulatedNetwork {
    config: NetworkConfig,
    rng: Mutex<StdRng>,
    clock: SimClock,
    /// node name → partition group id; empty map means fully connected.
    groups: RwLock<HashMap<String, u32>>,
    /// Virtual-time partition windows; active iff the clock is inside one.
    windows: RwLock<Vec<PartitionWindow>>,
    stats: NetworkStats,
    /// Scripted per-message faults; consulted before the probabilistic model.
    script: RwLock<FaultScript>,
    /// Sequence number of the next remote (non-local) message.
    remote_seq: AtomicU64,
    /// Metrics sink for partition/heal events.
    telemetry: Option<Telemetry>,
    /// When the current manual partition began, for duration accounting.
    partition_started_at: Mutex<Option<Duration>>,
}

impl std::fmt::Debug for SimulatedNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedNetwork")
            .field("config", &self.config)
            .field("groups", &*self.groups.read())
            .field("windows", &*self.windows.read())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SimulatedNetwork {
    /// Build a network with the given fault model, sharing `clock`.
    pub fn new(config: NetworkConfig, clock: SimClock) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SimulatedNetwork {
            config,
            rng: Mutex::new(rng),
            clock,
            groups: RwLock::new(HashMap::new()),
            windows: RwLock::new(Vec::new()),
            stats: NetworkStats::default(),
            script: RwLock::new(FaultScript::new()),
            remote_seq: AtomicU64::new(0),
            telemetry: None,
            partition_started_at: Mutex::new(None),
        }
    }

    /// Feed partition events into `telemetry`: each bumps the
    /// `net_partitioned_total` counter and its duration (in virtual time)
    /// lands in the `net_partition_duration` histogram. The ORB builder
    /// passes its `Env`'s telemetry here.
    #[must_use]
    pub fn metered_by(mut self, telemetry: Option<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn record_partition_start(&self) {
        if let Some(t) = &self.telemetry {
            t.metrics().incr("net_partitioned_total");
        }
    }

    fn record_partition_duration(&self, duration: Duration) {
        if let Some(t) = &self.telemetry {
            t.metrics().observe("net_partition_duration", duration);
        }
    }

    /// Install a scripted fault plan. Replaces any previous script; the
    /// remote-message sequence counter keeps running (it is never reset, so
    /// message numbers are stable for the network's lifetime).
    pub fn install_script(&self, script: FaultScript) {
        *self.script.write() = script;
    }

    /// How many remote (fault-model-eligible) messages have been
    /// transmitted so far. Harnesses probe a fault-free run with this to
    /// learn the valid range of [`FaultScript`] message numbers.
    pub fn remote_messages(&self) -> u64 {
        self.remote_seq.load(Ordering::Relaxed)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Split the network into named groups. Nodes not mentioned in any group
    /// stay together in an implicit group 0 and remain mutually reachable.
    pub fn partition(&self, partition_groups: &[&[&str]]) {
        let mut groups = self.groups.write();
        groups.clear();
        for (i, members) in partition_groups.iter().enumerate() {
            for member in *members {
                groups.insert((*member).to_owned(), (i + 1) as u32);
            }
        }
        self.record_partition_start();
        *self.partition_started_at.lock() = Some(self.clock.now());
    }

    /// Remove all partitions; every node can reach every other again.
    pub fn heal(&self) {
        self.groups.write().clear();
        if let Some(started) = self.partition_started_at.lock().take() {
            self.record_partition_duration(self.clock.now().saturating_sub(started));
        }
    }

    /// Schedule a partition window against the virtual clock: the named
    /// groups become mutually unreachable while `from <= now < until`, then
    /// the window heals itself. The whole lifecycle is known up front, so
    /// the partition counter and duration histogram are fed immediately —
    /// virtual time makes the duration exact, not an estimate.
    pub fn schedule_partition(&self, from: Duration, until: Duration, groups: &[&[&str]]) {
        let mut map = HashMap::new();
        for (i, members) in groups.iter().enumerate() {
            for member in *members {
                map.insert((*member).to_owned(), (i + 1) as u32);
            }
        }
        self.windows.write().push(PartitionWindow { from, until, groups: map });
        self.record_partition_start();
        self.record_partition_duration(until.saturating_sub(from));
    }

    /// Whether a message from `from` can currently reach `to`: both the
    /// manual partition groups and any clock-active scheduled window must
    /// agree the pair is connected.
    pub fn reachable(&self, from: &str, to: &str) -> bool {
        {
            let groups = self.groups.read();
            let ga = groups.get(from).copied().unwrap_or(0);
            let gb = groups.get(to).copied().unwrap_or(0);
            if ga != gb {
                return false;
            }
        }
        let now = self.clock.now();
        !self
            .windows
            .read()
            .iter()
            .any(|w| w.active_at(now) && w.severs(from, to))
    }

    /// Decide the fate of one message from `from` to `to`, advancing the
    /// virtual clock by the charged latency when the message is delivered.
    pub fn transmit(&self, from: &str, to: &str) -> Delivery {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        if !self.reachable(from, to) {
            self.stats.partitioned.fetch_add(1, Ordering::Relaxed);
            return Delivery::Partitioned;
        }
        // Local (same-node) calls bypass the fault model entirely: they are
        // plain method invocations, as in a real ORB's collocation path.
        if from == to {
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            return Delivery::Delivered { copies: 1, latency: Duration::ZERO };
        }
        // Scripted faults name messages by remote sequence number and take
        // precedence over the probabilistic model. Under a zero-probability
        // config (the harness default) the PRNG is never consulted at all,
        // so removing one scripted event leaves every other message's fate
        // unchanged — the property schedule shrinking depends on.
        let seq = self.remote_seq.fetch_add(1, Ordering::Relaxed);
        {
            let script = self.script.read();
            if script.drops.contains(&seq) {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                return Delivery::Dropped;
            }
            if script.duplicates.contains(&seq) {
                let latency = self.config.base_latency;
                self.clock.advance(latency);
                self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                return Delivery::Delivered { copies: 2, latency };
            }
        }
        let (dropped, duplicated, jitter_nanos) = {
            let mut rng = self.rng.lock();
            let dropped =
                self.config.drop_probability > 0.0 && rng.gen::<f64>() < self.config.drop_probability;
            let duplicated = !dropped
                && self.config.duplicate_probability > 0.0
                && rng.gen::<f64>() < self.config.duplicate_probability;
            let jitter_nanos = if self.config.jitter.is_zero() {
                0
            } else {
                rng.gen_range(0..=self.config.jitter.as_nanos() as u64)
            };
            (dropped, duplicated, jitter_nanos)
        };
        if dropped {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return Delivery::Dropped;
        }
        let latency = self.config.base_latency + Duration::from_nanos(jitter_nanos);
        self.clock.advance(latency);
        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
        if duplicated {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            Delivery::Delivered { copies: 2, latency }
        } else {
            Delivery::Delivered { copies: 1, latency }
        }
    }

    /// A consistent snapshot of the message counters.
    pub fn stats(&self) -> NetworkStatsSnapshot {
        NetworkStatsSnapshot {
            sent: self.stats.sent.load(Ordering::Relaxed),
            delivered: self.stats.delivered.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            duplicated: self.stats.duplicated.load(Ordering::Relaxed),
            partitioned: self.stats.partitioned.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(config: NetworkConfig) -> SimulatedNetwork {
        SimulatedNetwork::new(config, SimClock::new())
    }

    #[test]
    fn reliable_network_always_delivers_once() {
        let n = net(NetworkConfig::reliable());
        for _ in 0..100 {
            match n.transmit("a", "b") {
                Delivery::Delivered { copies: 1, .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = n.stats();
        assert_eq!(s.sent, 100);
        assert_eq!(s.delivered, 100);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.duplicated, 0);
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let n = net(NetworkConfig::lossy(1.0, 0.0, 7));
        for _ in 0..50 {
            assert_eq!(n.transmit("a", "b"), Delivery::Dropped);
        }
        assert_eq!(n.stats().dropped, 50);
    }

    #[test]
    fn duplicate_probability_one_duplicates_everything() {
        let n = net(NetworkConfig::lossy(0.0, 1.0, 7));
        match n.transmit("a", "b") {
            Delivery::Delivered { copies: 2, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.stats().duplicated, 1);
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let observe = |seed| {
            let n = net(NetworkConfig::lossy(0.3, 0.3, seed));
            (0..64).map(|_| n.transmit("a", "b")).collect::<Vec<_>>()
        };
        assert_eq!(observe(42), observe(42));
        assert_ne!(observe(42), observe(43));
    }

    #[test]
    fn latency_advances_clock() {
        let clock = SimClock::new();
        let n = SimulatedNetwork::new(
            NetworkConfig { base_latency: Duration::from_millis(2), ..NetworkConfig::default() },
            clock.clone(),
        );
        n.transmit("a", "b");
        n.transmit("b", "a");
        assert_eq!(clock.now(), Duration::from_millis(4));
    }

    #[test]
    fn local_calls_bypass_faults_and_latency() {
        let clock = SimClock::new();
        let n = SimulatedNetwork::new(NetworkConfig::lossy(1.0, 0.0, 1), clock.clone());
        assert!(matches!(n.transmit("a", "a"), Delivery::Delivered { copies: 1, .. }));
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn partitions_isolate_and_heal() {
        let n = net(NetworkConfig::reliable());
        n.partition(&[&["a", "b"], &["c"]]);
        assert!(n.reachable("a", "b"));
        assert!(!n.reachable("a", "c"));
        assert!(!n.reachable("c", "b"));
        // Unmentioned nodes share the implicit group and reach each other,
        // but not the named groups.
        assert!(n.reachable("x", "y"));
        assert!(!n.reachable("x", "a"));
        assert_eq!(n.transmit("a", "c"), Delivery::Partitioned);
        n.heal();
        assert!(n.reachable("a", "c"));
        assert!(matches!(n.transmit("a", "c"), Delivery::Delivered { .. }));
    }

    #[test]
    fn jitter_draws_from_prng_and_advances_clock() {
        // Regression for the "dead config" suspicion: jitter must actually
        // consume the seeded PRNG (two seeds ⇒ different latency sequences)
        // and charge the virtual clock (latencies are observable), while
        // staying replayable (same seed ⇒ identical latency sequence).
        let observe = |seed: u64| {
            let clock = SimClock::new();
            let n = SimulatedNetwork::new(
                NetworkConfig {
                    base_latency: Duration::from_micros(10),
                    jitter: Duration::from_micros(500),
                    seed,
                    ..NetworkConfig::default()
                },
                clock.clone(),
            );
            (0..32)
                .map(|_| {
                    let before = clock.now();
                    n.transmit("a", "b");
                    clock.now() - before
                })
                .collect::<Vec<_>>()
        };
        let run_a = observe(1);
        let run_a_again = observe(1);
        let run_b = observe(2);
        assert_eq!(run_a, run_a_again, "same seed must replay identical jitter");
        assert_ne!(run_a, run_b, "different seeds must draw different jitter");
        // The clock was genuinely advanced past the base latency at least
        // once (jitter is uniform in [0, 500µs]; 32 draws all being zero
        // would mean the PRNG is not consulted).
        assert!(
            run_a.iter().any(|l| *l > Duration::from_micros(10)),
            "jitter never advanced the clock beyond base latency: dead config"
        );
        // And every charge stays within the configured bound.
        for l in &run_a {
            assert!(*l >= Duration::from_micros(10) && *l <= Duration::from_micros(510));
        }
    }

    #[test]
    fn scripted_drops_and_duplicates_hit_exact_messages() {
        let n = net(NetworkConfig::reliable());
        n.install_script(FaultScript::new().drop_nth(1).duplicate_nth(3));
        let fates: Vec<Delivery> = (0..5).map(|_| n.transmit("a", "b")).collect();
        assert!(matches!(fates[0], Delivery::Delivered { copies: 1, .. }));
        assert_eq!(fates[1], Delivery::Dropped);
        assert!(matches!(fates[2], Delivery::Delivered { copies: 1, .. }));
        assert!(matches!(fates[3], Delivery::Delivered { copies: 2, .. }));
        assert!(matches!(fates[4], Delivery::Delivered { copies: 1, .. }));
        assert_eq!(n.remote_messages(), 5);
    }

    #[test]
    fn local_messages_do_not_consume_script_numbers() {
        let n = net(NetworkConfig::reliable());
        n.install_script(FaultScript::new().drop_nth(0));
        assert!(matches!(n.transmit("a", "a"), Delivery::Delivered { .. }));
        assert_eq!(n.remote_messages(), 0, "collocated calls are unnumbered");
        assert_eq!(n.transmit("a", "b"), Delivery::Dropped);
    }

    #[test]
    fn script_overrides_probabilistic_model() {
        // A 100%-drop network still delivers (twice) the message a script
        // names as a duplicate: scripted events take precedence.
        let n = net(NetworkConfig::lossy(1.0, 0.0, 11));
        n.install_script(FaultScript::new().duplicate_nth(0));
        assert!(matches!(n.transmit("a", "b"), Delivery::Delivered { copies: 2, .. }));
        assert_eq!(n.transmit("a", "b"), Delivery::Dropped);
    }

    #[test]
    fn scheduled_windows_partition_and_self_heal_with_the_clock() {
        let clock = SimClock::new();
        let n = SimulatedNetwork::new(NetworkConfig::reliable(), clock.clone());
        n.schedule_partition(
            Duration::from_millis(5),
            Duration::from_millis(10),
            &[&["a"], &["b"]],
        );
        // Before the window opens: connected.
        assert!(n.reachable("a", "b"));
        clock.advance(Duration::from_millis(5));
        // Inside the window: severed, but bystanders are untouched.
        assert!(!n.reachable("a", "b"));
        assert!(n.reachable("x", "y"));
        assert_eq!(n.transmit("a", "b"), Delivery::Partitioned);
        // At `until` the window has healed itself — no heal() call needed.
        clock.advance(Duration::from_millis(5));
        assert!(n.reachable("a", "b"));
        assert!(matches!(n.transmit("a", "b"), Delivery::Delivered { .. }));
    }

    #[test]
    fn partition_events_feed_telemetry() {
        let clock = SimClock::new();
        let t = Telemetry::new();
        let n = SimulatedNetwork::new(NetworkConfig::reliable(), clock.clone())
            .metered_by(Some(t.clone()));
        // A scheduled window records its (a-priori exact) duration at once.
        n.schedule_partition(
            Duration::from_millis(1),
            Duration::from_millis(4),
            &[&["a"], &["b"]],
        );
        // A manual partition measures start→heal on the virtual clock.
        n.partition(&[&["a"], &["c"]]);
        clock.advance(Duration::from_millis(7));
        n.heal();
        assert_eq!(t.metrics().counter_value("net_partitioned_total"), 2);
        assert_eq!(t.metrics().histogram_count("net_partition_duration"), 2);
        let rendered = t.metrics().render_prometheus();
        assert!(rendered.contains("net_partitioned_total 2"));
        assert!(rendered.contains("net_partition_duration"));
    }

    #[test]
    fn jitter_bounded_by_config() {
        let clock = SimClock::new();
        let n = SimulatedNetwork::new(
            NetworkConfig {
                base_latency: Duration::from_micros(10),
                jitter: Duration::from_micros(5),
                seed: 3,
                ..NetworkConfig::default()
            },
            clock.clone(),
        );
        for i in 1..=100u32 {
            let before = clock.now();
            n.transmit("a", "b");
            let charged = clock.now() - before;
            assert!(charged >= Duration::from_micros(10), "message {i} too fast");
            assert!(charged <= Duration::from_micros(15), "message {i} too slow");
        }
    }
}
