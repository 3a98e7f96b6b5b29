//! The causal planted-bug fixture: a paced three-node commit in which,
//! when the `causal.race` failpoint is armed, participant `alpha`'s flight
//! recorder reads a clock one [`STEP`] behind the simulation — the classic
//! skewed node clock. Every request alpha receives is then stamped before
//! the coordinator sent it.
//!
//! Every per-node fact still looks healthy: the run commits, both
//! participants keep their effects, the coordinator's steps refine the
//! two-phase-commit model in the order it emitted them, and each node's
//! own log is monotone in both Lamport and virtual time. Only the *merged*
//! happens-before DAG puts alpha's `wire-recv` beside the matching
//! `wire-send` and sees the receive run backwards in virtual time, so
//! oracle #12 (`causal-consistency`) is the only oracle that can catch it —
//! and the explorer shrinks the schedule to the single failpoint arm.
//! Never part of [`super::all`].

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use orb::{Env, NetworkConfig, Orb, Request, SimClock, Value};
use telemetry::{Origin, ProtocolEvent, TimeSource, VoteKind};

use crate::oracle::{BlackBox, Causal, Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::{FaultEvent, FaultSchedule};

/// The skewed-clock fixture. Fault-free runs stamp every node off the one
/// simulation clock; arming [`RACE_SITE`] sets alpha's recorder one
/// [`STEP`] behind it.
pub struct LaggingClockScenario;

/// The failpoint site whose arming skews alpha's clock. Reported as the
/// probe's only observed site, so seeded schedules draw it.
pub const RACE_SITE: &str = "causal.race";

const COORDINATOR: &str = "coordinator";
const PARTICIPANTS: [&str; 2] = ["alpha", "beta"];
const STEP: Duration = Duration::from_micros(50);

/// The simulation clock, read one [`STEP`] late.
struct Lagging(SimClock);

impl TimeSource for Lagging {
    fn virtual_now(&self) -> Duration {
        self.0.virtual_now().saturating_sub(STEP)
    }
}

impl Scenario for LaggingClockScenario {
    fn name(&self) -> &'static str {
        "causal-lagging-clock"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let skewed = schedule
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::ArmFailpoint { site, .. } if site == RACE_SITE));

        let clock = SimClock::new();
        let plane = telemetry::CausalityPlane::new();
        let coord_recorder = telemetry::FlightRecorder::with_time(
            COORDINATOR,
            telemetry::DEFAULT_RECORDER_CAPACITY,
            Arc::new(clock.clone()),
        );
        let env = Env::wired(Env {
            clock: clock.clone(),
            recorder: Some(coord_recorder.clone()),
            causality: Some(plane.clone()),
            ..Default::default()
        });
        let orb = Orb::builder().network(NetworkConfig::reliable()).env(Arc::clone(&env)).build();
        let coord_node = orb.add_node(COORDINATOR).expect("add coordinator");
        // The hand-rolled coordinator emits its protocol steps the way the
        // real one does: through its context, as its one transaction's.
        let journal = |event: ProtocolEvent| {
            env.emit(|| (Origin::Transaction { top: 1, branch: Vec::new() }, event));
        };

        let mut refs = Vec::new();
        for name in PARTICIPANTS {
            let node = orb.add_node(name).expect("add participant");
            let time: Arc<dyn TimeSource> = if skewed && name == PARTICIPANTS[0] {
                Arc::new(Lagging(clock.clone()))
            } else {
                Arc::new(clock.clone())
            };
            let recorder =
                telemetry::FlightRecorder::with_time(name, telemetry::DEFAULT_RECORDER_CAPACITY, time);
            plane.register(&recorder);
            let object = node
                .activate("Participant", |req: &Request| {
                    Ok(match req.operation() {
                        "prepare" => Value::from("commit"),
                        _ => Value::from("ack"),
                    })
                })
                .expect("activate participant");
            refs.push((name, object));
        }

        let mut trace = String::new();

        // Phase one: solicit both votes.
        for (name, object) in &refs {
            journal(ProtocolEvent::PrepareSent { participant: (*name).into() });
            clock.advance(STEP);
            let reply = coord_node.invoke(object, Request::new("prepare")).expect("invoke");
            let _ = writeln!(trace, "prepare({name}) -> {:?}", reply.result);
            journal(ProtocolEvent::VoteRecorded {
                participant: (*name).into(),
                vote: VoteKind::Commit,
            });
        }

        // Phase two: force the decision, then deliver it.
        journal(ProtocolEvent::DecisionForced { commit: true });
        for (name, object) in &refs {
            clock.advance(STEP);
            let reply = coord_node.invoke(object, Request::new("outcome")).expect("invoke");
            let _ = writeln!(trace, "outcome({name}) -> {:?}", reply.result);
            journal(ProtocolEvent::OutcomeDelivered {
                participant: (*name).into(),
                commit: true,
                ok: true,
            });
        }
        clock.advance(STEP);
        journal(ProtocolEvent::TxCompleted { committed: true });

        let mut obs = Observation::new(RunOutcome::Committed);
        // Every per-node fact is healthy — the commit landed everywhere and
        // the coordinator's steps replay cleanly through the 2PC model — so
        // nothing here binds any other oracle to the skew.
        obs.participant_commits =
            PARTICIPANTS.iter().map(|name| ((*name).to_owned(), true)).collect();
        obs.model_events = Some(coord_recorder.steps());
        obs.trace = trace;
        obs.space.sites = vec![RACE_SITE.to_owned()];
        obs.space.remote_messages = orb.network().remote_messages();
        obs.black_box = Some(BlackBox::of(&coord_recorder));
        obs.causal = Some(Causal::of(&plane.merge().build()));
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn fault_free_fixture_passes_every_oracle() {
        let obs = LaggingClockScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(obs.causal.as_ref().expect("the fixture merges").violations.is_empty());
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn a_lagging_clock_is_caught_by_the_causal_oracle_alone() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: RACE_SITE.into(),
            after: 0,
        }]);
        let obs = LaggingClockScenario.run(&schedule);
        let violations = oracle::check_all(&obs);
        // One inversion per request alpha receives: its prepare and its
        // outcome.
        assert_eq!(violations.len(), 2, "{violations:?}");
        for violation in &violations {
            assert_eq!(violation.oracle, "causal-consistency");
            assert!(violation.detail.starts_with("virtual-clock inversion"), "{}", violation.detail);
            assert!(violation.detail.contains("wire-recv"), "{}", violation.detail);
        }
        // The trace and the protocol steps are those of a healthy run.
        let healthy = LaggingClockScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.trace, healthy.trace);
        assert_eq!(obs.model_events, healthy.model_events);
    }

    #[test]
    fn skewed_runs_are_deterministic_and_export_a_trace() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: RACE_SITE.into(),
            after: 0,
        }]);
        let a = LaggingClockScenario.run(&schedule);
        let b = LaggingClockScenario.run(&schedule);
        assert!(oracle::check_determinism(&a, &b).is_empty());
        let perfetto = a.causal.expect("the fixture merges").perfetto;
        telemetry::check_perfetto_schema(&perfetto).expect("schema-clean export");
    }
}
