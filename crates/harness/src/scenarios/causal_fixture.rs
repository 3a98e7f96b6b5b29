//! The causal planted-bug fixture: a paced three-node commit whose
//! coordinator, when the `causal.race` failpoint is armed, delivers the
//! first phase-two outcome *before* forcing the decision record — the
//! classic "acked the client off the racy path" coordinator bug.
//!
//! Every per-node fact still looks healthy: the run commits, both
//! participants keep their effects, the journal is complete and each
//! node's local log is internally consistent. Only the *merged*
//! happens-before DAG shows the outcome delivery with no forced decision
//! among its causal ancestors, so oracle #12 (`causal-consistency`) is the
//! only oracle that can catch it — and the explorer shrinks the schedule
//! to the single failpoint arm. Never part of [`super::all`].

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use orb::{Env, NetworkConfig, Orb, Request, SimClock, Value};
use telemetry::{Origin, ProtocolEvent, VoteKind};

use crate::oracle::{BlackBox, Causal, Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::{FaultEvent, FaultSchedule};

/// The racy-coordinator fixture. Fault-free runs order phase two after the
/// decision force; arming [`RACE_SITE`] swaps them for the first
/// participant.
pub struct ReorderedOutcomeScenario;

/// The failpoint site whose arming takes the racy path. Reported as the
/// probe's only observed site, so seeded schedules draw it.
pub const RACE_SITE: &str = "causal.race";

const COORDINATOR: &str = "coordinator";
const PARTICIPANTS: [&str; 2] = ["alpha", "beta"];
const STEP: Duration = Duration::from_micros(50);

impl Scenario for ReorderedOutcomeScenario {
    fn name(&self) -> &'static str {
        "causal-reordered-outcome"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let racy = schedule
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
            let recorder = telemetry::FlightRecorder::with_time(
                name,
                telemetry::DEFAULT_RECORDER_CAPACITY,
                Arc::new(clock.clone()),
            );
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

        // Phase two. The racy path delivers alpha's outcome before the
        // decision record is forced; the healthy path forces first.
        let mut deliver = |idx: usize| {
            let (name, object) = &refs[idx];
            clock.advance(STEP);
            let reply = coord_node.invoke(object, Request::new("outcome")).expect("invoke");
            let _ = writeln!(trace, "outcome({name}) -> {:?}", reply.result);
            journal(ProtocolEvent::OutcomeDelivered {
                participant: (*name).into(),
                commit: true,
                ok: true,
            });
        };
        if racy {
            deliver(0);
            journal(ProtocolEvent::DecisionForced { commit: true });
            deliver(1);
        } else {
            journal(ProtocolEvent::DecisionForced { commit: true });
            deliver(0);
            deliver(1);
        }
        clock.advance(STEP);
        journal(ProtocolEvent::TxCompleted { committed: true });

        let mut obs = Observation::new(RunOutcome::Committed);
        // Every per-node fact is healthy — the commit landed everywhere —
        // so nothing here binds any other oracle to the bug. Deliberately
        // no model_events: the refinement oracle would see the same
        // reorder; #12 must be the one that catches it.
        obs.participant_commits =
            PARTICIPANTS.iter().map(|name| ((*name).to_owned(), true)).collect();
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
        let obs = ReorderedOutcomeScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(obs.causal.as_ref().expect("the fixture merges").violations.is_empty());
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn armed_race_is_caught_by_the_causal_oracle_alone() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: RACE_SITE.into(),
            after: 0,
        }]);
        let obs = ReorderedOutcomeScenario.run(&schedule);
        let violations = oracle::check_all(&obs);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].oracle, "causal-consistency");
        assert!(
            violations[0].detail.contains("without the forced decision"),
            "{}",
            violations[0].detail
        );
    }

    #[test]
    fn racy_runs_are_deterministic_and_export_a_trace() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: RACE_SITE.into(),
            after: 0,
        }]);
        let a = ReorderedOutcomeScenario.run(&schedule);
        let b = ReorderedOutcomeScenario.run(&schedule);
        assert!(oracle::check_determinism(&a, &b).is_empty());
        let perfetto = a.causal.expect("the fixture merges").perfetto;
        telemetry::check_perfetto_schema(&perfetto).expect("schema-clean export");
    }
}
