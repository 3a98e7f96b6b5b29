//! Fault schedules: the *discrete, enumerable* unit of chaos.
//!
//! A schedule is everything one run is subjected to: a small list of
//! [`FaultEvent`]s — arm this failpoint, drop that remote message — rather
//! than probabilistic fault rates, plus the delivery **choices** a
//! sequenced component replays (index 0, registration order, past their
//! end). Discrete events make runs replayable (the same schedule produces
//! the same execution) and shrinkable (removing one event leaves every
//! other event's meaning unchanged, because scenarios run the network with
//! zero probabilistic fault rates and scripted faults never consult the
//! PRNG).

use std::fmt;

use orb::FaultScript;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_log::FailpointSet;

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Arm the named failpoint to fire on its `after`-th passage
    /// (0 = the very next hit). The crashed component stays dead until the
    /// scenario "restarts" it.
    ArmFailpoint {
        /// Site name, e.g. `ots.before_decision`.
        site: String,
        /// Passages allowed before the crash fires.
        after: u32,
    },
    /// Silently drop the `nth` remote message (0-based, counted across the
    /// whole run; local same-node calls do not consume numbers).
    DropMessage {
        /// Remote-message sequence number.
        nth: u64,
    },
    /// Deliver the `nth` remote message twice.
    DuplicateMessage {
        /// Remote-message sequence number.
        nth: u64,
    },
    /// Isolate `node` from every other node during the virtual-time window
    /// `[from_us, until_us)` (microseconds). The partition heals itself
    /// once the clock passes `until_us` — scenarios apply these through
    /// [`orb::SimulatedNetwork::schedule_partition`], so activation is a
    /// pure function of the virtual clock and the event stays replayable.
    Partition {
        /// The node cut off from the rest of the network.
        node: String,
        /// Window start, µs of virtual time (inclusive).
        from_us: u64,
        /// Window end, µs of virtual time (exclusive) — the heal instant.
        until_us: u64,
    },
    /// Crash the process owning the named failpoint site (armed exactly
    /// like [`FaultEvent::ArmFailpoint`]) and later re-run its restart /
    /// recovery path. Scenarios that support restarts rebuild the
    /// component from its surviving WAL and drive in-doubt resolution;
    /// the distinct arm lets schedules say "this crash is recovered from"
    /// rather than "this component stays dead".
    Restart {
        /// Site name, e.g. `ots.recovery.after_prepared`.
        site: String,
        /// Passages allowed before the crash fires.
        after: u32,
    },
}

impl fmt::Display for FaultEvent {
    /// Renders as a copy-pasteable Rust constructor expression, so a
    /// minimized schedule can be pasted straight into a regression test.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::ArmFailpoint { site, after } => write!(
                f,
                "FaultEvent::ArmFailpoint {{ site: {site:?}.into(), after: {after} }}"
            ),
            FaultEvent::DropMessage { nth } => {
                write!(f, "FaultEvent::DropMessage {{ nth: {nth} }}")
            }
            FaultEvent::DuplicateMessage { nth } => {
                write!(f, "FaultEvent::DuplicateMessage {{ nth: {nth} }}")
            }
            FaultEvent::Partition { node, from_us, until_us } => write!(
                f,
                "FaultEvent::Partition {{ node: {node:?}.into(), from_us: {from_us}, until_us: {until_us} }}"
            ),
            FaultEvent::Restart { site, after } => write!(
                f,
                "FaultEvent::Restart {{ site: {site:?}.into(), after: {after} }}"
            ),
        }
    }
}

/// What one scenario run is subjected to: an ordered list of fault events
/// and the delivery-choice prescription its sequenced components replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    choices: Vec<usize>,
}

impl FaultSchedule {
    /// The fault-free schedule (a probe run).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A schedule running exactly `events`, in registration delivery order.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultSchedule { events, choices: Vec::new() }
    }

    /// The same faults with delivery order prescribed: the n-th choice
    /// point a run hits takes `choices[n]`, and index 0 past their end.
    #[must_use]
    pub fn with_choices(self, choices: Vec<usize>) -> Self {
        FaultSchedule { choices, ..self }
    }

    /// The events, in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The delivery-choice prescription (what a scenario hands its
    /// [`crate::ChoiceDriver`]).
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is fault-free.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule with event `index` removed.
    #[must_use]
    pub fn without_event(&self, index: usize) -> Self {
        let mut smaller = self.clone();
        smaller.events.remove(index);
        smaller
    }

    /// Every one-step-smaller schedule, in the order [`crate::shrink`]
    /// tries them: each event dropped, the last choice dropped, each
    /// non-zero choice lowered by one. A failing schedule none of whose
    /// reductions fails is 1-minimal.
    pub fn reductions(&self) -> Vec<FaultSchedule> {
        let with_choices = |choices: Vec<usize>| self.clone().with_choices(choices);
        let dropped = (0..self.events.len()).map(|index| self.without_event(index));
        let truncated = self.choices.split_last().map(|(_, rest)| with_choices(rest.to_vec()));
        let lowered = (0..self.choices.len()).filter(|&i| self.choices[i] > 0).map(|i| {
            let mut choices = self.choices.clone();
            choices[i] -= 1;
            with_choices(choices)
        });
        dropped.chain(truncated).chain(lowered).collect()
    }

    /// Arm every [`FaultEvent::ArmFailpoint`] and [`FaultEvent::Restart`]
    /// event into `failpoints` (both crash a component; they differ in
    /// whether the scenario later re-runs its recovery path).
    pub fn arm_into(&self, failpoints: &FailpointSet) {
        for event in &self.events {
            match event {
                FaultEvent::ArmFailpoint { site, after }
                | FaultEvent::Restart { site, after } => {
                    failpoints.arm(site.clone(), *after);
                }
                _ => {}
            }
        }
    }

    /// Apply every [`FaultEvent::Partition`] event as a scheduled window on
    /// `network`: the node is severed from everyone else while the virtual
    /// clock is inside `[from_us, until_us)`, then the window self-heals.
    pub fn apply_partitions(&self, network: &orb::SimulatedNetwork) {
        for event in &self.events {
            if let FaultEvent::Partition { node, from_us, until_us } = event {
                network.schedule_partition(
                    std::time::Duration::from_micros(*from_us),
                    std::time::Duration::from_micros(*until_us),
                    &[&[node.as_str()]],
                );
            }
        }
    }

    /// How many *transient* faults this schedule injects: message drops.
    /// Duplicates are excluded — a redelivered message can violate
    /// effect-once accounting but can never prevent termination, so it does
    /// not count against a retry budget. Feeds
    /// [`crate::oracle::FaultBudget::transient`].
    pub fn transient_fault_count(&self) -> u32 {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::DropMessage { .. }))
            .count() as u32
    }

    /// How many *hard* faults this schedule injects: armed crash
    /// failpoints (stay-dead and restart flavours) and partitions. Any hard
    /// fault voids the bounded-fault liveness claim — a partitioned or
    /// crashed component can legitimately miss its retry budget. Feeds
    /// [`crate::oracle::FaultBudget::hard`].
    pub fn hard_fault_count(&self) -> u32 {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FaultEvent::ArmFailpoint { .. }
                        | FaultEvent::Restart { .. }
                        | FaultEvent::Partition { .. }
                )
            })
            .count() as u32
    }

    /// The message-level events as an [`orb::FaultScript`] for
    /// `SimulatedNetwork::install_script`.
    pub fn to_fault_script(&self) -> FaultScript {
        let mut script = FaultScript::new();
        for event in &self.events {
            match event {
                FaultEvent::DropMessage { nth } => script = script.drop_nth(*nth),
                FaultEvent::DuplicateMessage { nth } => script = script.duplicate_nth(*nth),
                FaultEvent::ArmFailpoint { .. }
                | FaultEvent::Partition { .. }
                | FaultEvent::Restart { .. } => {}
            }
        }
        script
    }
}

impl fmt::Display for FaultSchedule {
    /// Copy-pasteable: the constructor expression, with the choice vector
    /// appended only when one is prescribed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FaultSchedule::from_events(vec![")?;
        for event in &self.events {
            writeln!(f, "    {event},")?;
        }
        write!(f, "])")?;
        if !self.choices.is_empty() {
            write!(f, ".with_choices(vec!{:?})", self.choices)?;
        }
        Ok(())
    }
}

/// The space a seed is mapped into, and the part of every
/// [`crate::Observation`] that describes it: which failpoint sites exist
/// (discovered by a fault-free probe run via `FailpointSet::observed_sites`)
/// and how many remote messages the fault-free run sends.
#[derive(Debug, Clone, Default)]
pub struct ScheduleSpace {
    /// Arm-able failpoint sites.
    pub sites: Vec<String>,
    /// Remote messages sent by the fault-free run (message faults target
    /// sequence numbers up to twice this, so retries are reachable too).
    pub remote_messages: u64,
    /// Largest number of events in one generated schedule (the sweep's
    /// bound; a run reports 0).
    pub max_events: usize,
    /// Nodes eligible for [`FaultEvent::Partition`] windows. Empty for
    /// scenarios that do not expose their topology — the generator then
    /// never emits partition arms and old seeds replay unchanged.
    pub partition_nodes: Vec<String>,
    /// Sites eligible for [`FaultEvent::Restart`] (crash-then-recover)
    /// arms. Empty for scenarios without a restart path.
    pub restart_sites: Vec<String>,
}

/// Deterministically derive a schedule from `seed`. The same seed and space
/// always produce the same schedule.
pub fn generate(seed: u64, space: &ScheduleSpace) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let max = space.max_events.max(1) as u64;
    let count = rng.gen_range(1..=max);
    let mut events = Vec::with_capacity(count as usize);
    // Pick uniformly among the kinds the space offers.
    let offered = [
        !space.sites.is_empty(),
        space.remote_messages > 0,
        !space.partition_nodes.is_empty(),
        !space.restart_sites.is_empty(),
    ];
    let kinds: Vec<usize> = (0..offered.len()).filter(|&kind| offered[kind]).collect();
    if kinds.is_empty() {
        return FaultSchedule::empty();
    }
    let pick = |rng: &mut StdRng, from: &[String]| {
        from[rng.gen_range(0..from.len() as u64) as usize].clone()
    };
    for _ in 0..count {
        events.push(match kinds[rng.gen_range(0..kinds.len() as u64) as usize] {
            0 => {
                let site = pick(&mut rng, &space.sites);
                FaultEvent::ArmFailpoint { site, after: rng.gen_range(0..3u32) }
            }
            1 => {
                let nth = rng.gen_range(0..space.remote_messages * 2);
                if rng.gen_range(0..2u32) == 0 {
                    FaultEvent::DropMessage { nth }
                } else {
                    FaultEvent::DuplicateMessage { nth }
                }
            }
            2 => {
                let node = pick(&mut rng, &space.partition_nodes);
                let from_us = rng.gen_range(0..800u64);
                let until_us = from_us + rng.gen_range(100..1500u64);
                FaultEvent::Partition { node, from_us, until_us }
            }
            _ => {
                let site = pick(&mut rng, &space.restart_sites);
                FaultEvent::Restart { site, after: rng.gen_range(0..3u32) }
            }
        });
    }
    FaultSchedule::from_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ScheduleSpace {
        ScheduleSpace {
            sites: vec!["a.one".into(), "b.two".into()],
            remote_messages: 4,
            max_events: 4,
            ..ScheduleSpace::default()
        }
    }

    fn partitioned_space() -> ScheduleSpace {
        ScheduleSpace {
            partition_nodes: vec!["participant".into(), "coordinator".into()],
            restart_sites: vec!["ots.recovery.after_prepared".into()],
            ..space()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..50 {
            let a = generate(seed, &space());
            let b = generate(seed, &space());
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a.len() <= 4);
        }
        assert_ne!(generate(1, &space()), generate(2, &space()));
    }

    #[test]
    fn empty_space_yields_empty_schedule() {
        let s = generate(
            7,
            &ScheduleSpace { max_events: 4, ..ScheduleSpace::default() },
        );
        assert!(s.is_empty());
    }

    #[test]
    fn extended_space_reaches_partition_and_restart_arms() {
        let space = partitioned_space();
        let mut saw_partition = false;
        let mut saw_restart = false;
        for seed in 0..200 {
            let schedule = generate(seed, &space);
            assert_eq!(generate(seed, &space), schedule, "still deterministic");
            for event in schedule.events() {
                match event {
                    FaultEvent::Partition { from_us, until_us, .. } => {
                        saw_partition = true;
                        assert!(until_us > from_us, "window must be non-empty");
                    }
                    FaultEvent::Restart { .. } => saw_restart = true,
                    _ => {}
                }
            }
        }
        assert!(saw_partition, "generator never emitted a partition arm");
        assert!(saw_restart, "generator never emitted a restart arm");
    }

    #[test]
    fn a_space_without_topology_draws_no_partition_or_restart_arms() {
        // Only offered kinds are drawn (the sweep tests pin the exact
        // schedules through their fingerprints).
        for seed in 0..100 {
            let schedule = generate(seed, &space());
            assert!(schedule.events().iter().all(|e| matches!(
                e,
                FaultEvent::ArmFailpoint { .. }
                    | FaultEvent::DropMessage { .. }
                    | FaultEvent::DuplicateMessage { .. }
            )));
        }
    }

    #[test]
    fn restarts_arm_failpoints_and_partitions_apply_windows() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::Restart { site: "ots.recovery.after_prepared".into(), after: 1 },
            FaultEvent::Partition { node: "participant".into(), from_us: 10, until_us: 400 },
        ]);
        let fp = FailpointSet::new();
        schedule.arm_into(&fp);
        assert!(fp.is_armed("ots.recovery.after_prepared"));
        let clock = orb::SimClock::new();
        let network =
            orb::SimulatedNetwork::new(orb::NetworkConfig::reliable(), clock.clone());
        schedule.apply_partitions(&network);
        clock.advance(std::time::Duration::from_micros(20));
        assert!(!network.reachable("participant", "coordinator"));
        clock.advance(std::time::Duration::from_micros(400));
        assert!(network.reachable("participant", "coordinator"));
        // Neither arm contributes message-script entries.
        assert!(schedule.to_fault_script().is_empty());
        // Both are hard faults: they void the liveness envelope.
        assert_eq!(schedule.hard_fault_count(), 2);
        assert_eq!(schedule.transient_fault_count(), 0);
    }

    #[test]
    fn schedule_splits_into_failpoints_and_script() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::ArmFailpoint { site: "x.y".into(), after: 1 },
            FaultEvent::DropMessage { nth: 3 },
            FaultEvent::DuplicateMessage { nth: 5 },
        ]);
        let fp = FailpointSet::new();
        schedule.arm_into(&fp);
        assert!(fp.is_armed("x.y"));
        let script = schedule.to_fault_script();
        assert_eq!(script.drops().collect::<Vec<_>>(), vec![3]);
        assert_eq!(script.duplicates().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn fault_counts_split_transient_from_hard() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::ArmFailpoint { site: "x.y".into(), after: 0 },
            FaultEvent::DropMessage { nth: 3 },
            FaultEvent::DropMessage { nth: 7 },
            FaultEvent::DuplicateMessage { nth: 5 },
        ]);
        assert_eq!(schedule.transient_fault_count(), 2, "duplicates are not transient faults");
        assert_eq!(schedule.hard_fault_count(), 1);
        assert_eq!(FaultSchedule::empty().transient_fault_count(), 0);
        assert_eq!(FaultSchedule::empty().hard_fault_count(), 0);
    }

    #[test]
    fn display_is_copy_pasteable() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::ArmFailpoint { site: "ots.before_decision".into(), after: 0 },
            FaultEvent::DropMessage { nth: 2 },
            FaultEvent::Partition { node: "participant".into(), from_us: 50, until_us: 900 },
            FaultEvent::Restart { site: "ots.recovery.before_apply".into(), after: 1 },
        ]);
        let rendered = schedule.to_string();
        assert!(rendered.contains("FaultSchedule::from_events(vec!["));
        assert!(rendered
            .contains("FaultEvent::ArmFailpoint { site: \"ots.before_decision\".into(), after: 0 }"));
        assert!(rendered.contains("FaultEvent::DropMessage { nth: 2 }"));
        assert!(rendered.contains(
            "FaultEvent::Partition { node: \"participant\".into(), from_us: 50, until_us: 900 }"
        ));
        assert!(rendered.contains(
            "FaultEvent::Restart { site: \"ots.recovery.before_apply\".into(), after: 1 }"
        ));
    }

    #[test]
    fn choices_ride_the_schedule_and_render_only_when_prescribed() {
        let faults = FaultSchedule::from_events(vec![FaultEvent::DropMessage { nth: 2 }]);
        assert!(faults.choices().is_empty());
        assert!(!faults.to_string().contains("with_choices"));
        let steered = faults.clone().with_choices(vec![2, 0, 1]);
        assert_eq!(steered.choices(), &[2, 0, 1]);
        assert_eq!(steered.events(), faults.events());
        assert!(steered.to_string().ends_with("]).with_choices(vec![2, 0, 1])"), "{steered}");
        assert_eq!(steered.without_event(0).choices(), &[2, 0, 1], "shrinking keeps the order");
    }

    #[test]
    fn reductions_are_every_one_step_smaller_schedule() {
        let events = vec![FaultEvent::DropMessage { nth: 0 }, FaultEvent::DropMessage { nth: 1 }];
        let schedule = FaultSchedule::from_events(events.clone()).with_choices(vec![2, 0, 1]);
        let with = |events: &[FaultEvent], choices: &[usize]| {
            FaultSchedule::from_events(events.to_vec()).with_choices(choices.to_vec())
        };
        assert_eq!(
            schedule.reductions(),
            vec![
                with(&events[1..], &[2, 0, 1]),
                with(&events[..1], &[2, 0, 1]),
                with(&events, &[2, 0]),
                with(&events, &[1, 0, 1]),
                with(&events, &[2, 0, 0]),
            ]
        );
        assert!(FaultSchedule::empty().reductions().is_empty());
    }

    #[test]
    fn without_event_removes_exactly_one() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::DropMessage { nth: 0 },
            FaultEvent::DropMessage { nth: 1 },
        ]);
        let shrunk = schedule.without_event(0);
        assert_eq!(shrunk.events(), &[FaultEvent::DropMessage { nth: 1 }]);
        assert_eq!(schedule.len(), 2, "shrinking is non-destructive");
    }
}
