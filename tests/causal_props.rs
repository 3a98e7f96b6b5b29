//! Property tests over the causal merge plane (DESIGN.md §16):
//!
//! 1. **Monotone merge** — for arbitrary interleavings of local events and
//!    cross-node messages over three Lamport-clocked nodes, the merged
//!    happens-before DAG verifies clean, every send is matched to exactly
//!    one receive, and every message edge's receive stamp strictly exceeds
//!    its send stamp.
//! 2. **Ticks never reused** — a node's Lamport stamps are strictly
//!    increasing in program order (so never reused), no matter how
//!    tick/observe calls interleave; the clock itself is strictly
//!    monotone even against adversarial remote stamps.
//! 3. **Permutation-invariant fingerprint** — [`telemetry::CausalMerge`]
//!    canonicalises its input, so feeding the same events in any order
//!    yields bit-identical fingerprints: merging node logs is a fold, not
//!    a sequence.

use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use telemetry::{CausalMerge, LamportClock, Record, RecordKind, RecordedEvent};

const NODES: [&str; 3] = ["alpha", "beta", "gamma"];

/// One scripted cluster step: a local event on a node, or a message from
/// one node to a distinct peer (send immediately followed by delivery).
#[derive(Debug, Clone)]
enum Op {
    Local(usize),
    Send(usize, usize),
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0usize..NODES.len()).prop_map(Op::Local),
        (0usize..NODES.len(), 1usize..NODES.len())
            .prop_map(|(from, hop)| Op::Send(from, (from + hop) % NODES.len())),
    ]
    .boxed()
}

/// Execute a script into per-node stamped logs, exactly the way the
/// recorder + Lamport interceptors stamp real runs: local events tick,
/// sends tick and put the stamp on the wire, receives observe it.
fn execute(ops: &[Op]) -> Vec<RecordedEvent> {
    let clocks: Vec<LamportClock> = NODES.iter().map(|_| LamportClock::new()).collect();
    let mut seqs = vec![0u64; NODES.len()];
    let mut events = Vec::new();
    let mut time = 0u64;
    let mut message = 0u64;
    let push = |events: &mut Vec<RecordedEvent>,
                    seqs: &mut Vec<u64>,
                    node: usize,
                    time: u64,
                    kind: RecordKind,
                    lamport: u64,
                    detail: String| {
        events.push(RecordedEvent {
            seq: seqs[node],
            at: Duration::from_micros(time),
            lamport,
            node: NODES[node].into(),
            record: Record::Text(kind, detail),
        });
        seqs[node] += 1;
    };
    for op in ops {
        time += 1;
        match op {
            Op::Local(node) => {
                let lamport = clocks[*node].tick();
                push(
                    &mut events,
                    &mut seqs,
                    *node,
                    time,
                    RecordKind::Trace,
                    lamport,
                    format!("local step at t{time}"),
                );
            }
            Op::Send(from, to) => {
                let lamport = clocks[*from].tick();
                let token = format!("m{message}@{lamport}");
                message += 1;
                let route = format!("{token} op {}->{}", NODES[*from], NODES[*to]);
                push(
                    &mut events,
                    &mut seqs,
                    *from,
                    time,
                    RecordKind::WireSend,
                    lamport,
                    route.clone(),
                );
                time += 1;
                let received = clocks[*to].observe(lamport);
                push(&mut events, &mut seqs, *to, time, RecordKind::WireRecv, received, route);
            }
        }
    }
    events
}

/// Deterministic Fisher-Yates over an LCG so permutations need no
/// `prop_shuffle` support from the vendored proptest.
fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: any two-or-three-node exchange merges into a clean DAG
    /// whose message edges are strictly Lamport-monotone.
    fn merge_of_arbitrary_exchanges_is_monotone(ops in vec(op_strategy(), 0..60)) {
        let events = execute(&ops);
        let sends = ops.iter().filter(|op| matches!(op, Op::Send(..))).count();
        let mut merge = CausalMerge::new();
        merge.add_events(events);
        let dag = merge.build();
        let violations = dag.verify();
        prop_assert!(violations.is_empty(), "clean exchange merged dirty: {violations:?}");
        prop_assert_eq!(dag.message_edges().len(), sends, "every send matches one receive");
        for &(send, recv) in dag.message_edges() {
            prop_assert!(
                dag.events()[recv].lamport > dag.events()[send].lamport,
                "receive stamp must strictly exceed send stamp"
            );
        }
    }

    /// Property 2a: per-node stamps are strictly increasing in program
    /// order — a tick is never reused, even across observes.
    fn stamps_are_never_reused_per_node(ops in vec(op_strategy(), 0..60)) {
        let events = execute(&ops);
        for node in NODES {
            let stamps: Vec<u64> = events
                .iter()
                .filter(|e| &*e.node == node)
                .map(|e| e.lamport)
                .collect();
            for pair in stamps.windows(2) {
                prop_assert!(
                    pair[1] > pair[0],
                    "{node} reused or regressed a stamp: {stamps:?}"
                );
            }
        }
    }

    /// Property 2b: the clock itself is strictly monotone under any
    /// interleaving of ticks and adversarial remote observations.
    fn clock_is_strictly_monotone(steps in vec((any::<bool>(), 0u64..1000), 1..80)) {
        let clock = LamportClock::new();
        let mut last = clock.current();
        for (is_tick, remote) in steps {
            let stamp = if is_tick { clock.tick() } else { clock.observe(remote) };
            prop_assert!(stamp > last, "stamp {stamp} did not advance past {last}");
            last = stamp;
        }
    }

    /// Property 3: the merge fingerprint is invariant under permutation of
    /// the input logs — merging is order-free.
    fn fingerprint_is_permutation_invariant(
        ops in vec(op_strategy(), 0..60),
        seed in any::<u64>(),
    ) {
        let events = execute(&ops);
        let mut shuffled = events.clone();
        permute(&mut shuffled, seed);
        let mut canonical = CausalMerge::new();
        canonical.add_events(events);
        let mut permuted = CausalMerge::new();
        permuted.add_events(shuffled);
        prop_assert_eq!(canonical.fingerprint(), permuted.fingerprint());
    }
}
