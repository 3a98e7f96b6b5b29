//! Property tests over the flight recorder's ring (DESIGN.md §15):
//!
//! 1. **Bounded, tail-exact wraparound** — for arbitrary capacities and
//!    event counts, the ring never holds more than `capacity` events, and
//!    the survivors are exactly the newest-`capacity` suffix of the full
//!    history with their original sequence numbers intact and strictly
//!    ascending. Eviction is oldest-first; it never reorders, duplicates
//!    or fabricates.
//! 2. **Wrapped dumps stay causally whole** — when the ring's capacity
//!    aligns with whole per-transaction 2PC journals, a wrapped recorder
//!    still retains only *complete* journals: the retained typed steps are
//!    exactly the history's tail, origins included, and every surviving
//!    transaction replays through the reference models without a
//!    violation. This is what lets the recorder be the protocols' one
//!    journal — ring eviction may lose history, but the window it keeps is
//!    a causally-contiguous suffix, never a gap-riddled one.
//! 3. **Deterministic fingerprints** — replaying the identical history
//!    into a fresh recorder reproduces the fingerprint bit-identically,
//!    and the dump header carries the eviction count.

use harness::model::{self, Step};
use proptest::prelude::*;
use telemetry::{FlightRecorder, Origin, ProtocolEvent as Event, RecordKind, VoteKind};

/// One complete, model-clean 2PC journal of transaction `tx` over
/// `participants` resources (the same names in every transaction): prepare
/// and vote for each, one forced decision, outcome and forget for each, one
/// completion. Fixed length `4 * participants + 2` so a ring capacity that
/// is a multiple of it aligns with transaction boundaries.
fn tx_journal(tx: usize, participants: usize, commit: bool) -> Vec<Step> {
    let name = |p: usize| format!("res{p}");
    let mut events = Vec::with_capacity(4 * participants + 2);
    for p in 0..participants {
        events.push(Event::PrepareSent { participant: name(p) });
        events.push(Event::VoteRecorded {
            participant: name(p),
            vote: if commit { VoteKind::Commit } else { VoteKind::Rollback },
        });
    }
    events.push(Event::DecisionForced { commit });
    for p in 0..participants {
        events.push(Event::OutcomeDelivered { participant: name(p), commit, ok: true });
        events.push(Event::Forgotten { participant: name(p) });
    }
    events.push(Event::TxCompleted { committed: commit });
    let origin = Origin::Transaction { top: tx as u64, branch: Vec::new() };
    events.into_iter().map(|event| (origin.clone(), event)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: the ring is bounded and the survivors are the exact
    /// newest-`capacity` suffix, seqs ascending and contiguous.
    fn wraparound_keeps_the_exact_tail(
        capacity in 1usize..48,
        total in 0usize..400,
    ) {
        let rec = FlightRecorder::new("node", capacity);
        for i in 0..total {
            rec.record(RecordKind::Trace, || format!("event-{i}"));
        }
        let retained = rec.events();

        prop_assert_eq!(rec.total_recorded(), total as u64);
        prop_assert_eq!(retained.len(), total.min(capacity));
        prop_assert!(rec.len() <= rec.capacity(), "ring exceeded its bound");

        // Survivors are the suffix `total - retained .. total`, in order,
        // with the sequence numbers they were assigned at record time.
        let first_kept = total - retained.len();
        for (offset, event) in retained.iter().enumerate() {
            let source = first_kept + offset;
            prop_assert_eq!(event.seq, source as u64);
            prop_assert_eq!(event.detail(), format!("event-{source}"));
        }
        for pair in retained.windows(2) {
            prop_assert!(pair[0].seq + 1 == pair[1].seq, "eviction tore a causal gap");
        }
    }

    /// Property 2: a capacity aligned to whole per-transaction journals
    /// means a wrapped dump holds only complete journals — each retained
    /// transaction replays through the reference models cleanly.
    fn wrapped_window_holds_only_complete_journals(
        participants in 1usize..4,
        window_txs in 1usize..4,
        extra_txs in 1usize..5,
        commit_bits in proptest::collection::vec(0u8..2, 8),
    ) {
        let journal_len = 4 * participants + 2;
        let capacity = journal_len * window_txs;
        let total_txs = window_txs + extra_txs;

        // Flat source history: `total_txs` back-to-back journals, mixing
        // commits and aborts, emitted as typed steps.
        let mut source = Vec::new();
        for tx in 0..total_txs {
            let commit = commit_bits[tx % commit_bits.len()] == 1;
            source.extend(tx_journal(tx, participants, commit));
        }
        let rec = FlightRecorder::new("coordinator", capacity);
        for step in &source {
            rec.record_step(|| step.clone());
        }

        let retained = rec.steps();
        prop_assert_eq!(retained.len(), capacity, "the history must wrap the ring");
        // The window starts on a transaction boundary by construction;
        // check the seq arithmetic agrees.
        let first_kept = rec.events()[0].seq as usize;
        prop_assert_eq!(first_kept % journal_len, 0, "window misaligned with journals");

        // What the ring kept is the history's tail as it was emitted —
        // typed, with its origins — and it replays, one machine per
        // surviving transaction, through every reference model.
        prop_assert_eq!(&retained[..], &source[first_kept..]);
        let violations = model::replay_all(&retained);
        prop_assert!(
            violations.is_empty(),
            "a wrapped-but-aligned window must replay cleanly: {violations:?}"
        );
    }

    /// Property 3: identical histories fingerprint identically, and the
    /// dump header reports exactly how much history eviction lost.
    fn rebuilt_history_reproduces_the_fingerprint(
        capacity in 1usize..32,
        total in 1usize..200,
    ) {
        let build = || {
            let rec = FlightRecorder::new("node", capacity);
            for i in 0..total {
                rec.record(RecordKind::Trace, || format!("event-{i}"));
            }
            rec
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.dump(), b.dump());
        let evicted = total.saturating_sub(capacity);
        if evicted > 0 {
            prop_assert!(
                a.dump().contains(&format!("{evicted} earlier events evicted")),
                "dump must account for the lost prefix: {}",
                a.dump()
            );
        }
    }
}
