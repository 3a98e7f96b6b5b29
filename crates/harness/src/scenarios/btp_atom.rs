//! BTP atoms (fig. 11/12): scripted cancellation votes at the prepare
//! stage; the atomicity oracle demands all-confirmed or all-cancelled.

use std::sync::Arc;

use activity_service::{Activity, DispatchConfig};
use btp::{Atom, AtomState, BtpError, BtpParticipant, BtpVote, Reservation, ReservationState};
use orb::Env;
use recovery_log::FailpointSet;
use telemetry::FlightRecorder;

use crate::oracle::{Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::FaultSchedule;

const PARTICIPANTS: &[&str] = &["taxi", "hotel", "flight"];

fn vote_site(name: &str) -> String {
    format!("btp.vote.{name}")
}

/// One atom with three reservations. Arming `btp.vote.<name>` turns that
/// participant's prepare vote into a cancellation, which must cancel the
/// whole atom.
pub struct BtpAtomScenario;

impl Scenario for BtpAtomScenario {
    fn name(&self) -> &'static str {
        "btp-atom"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let failpoints = FailpointSet::new();
        schedule.arm_into(&failpoints);

        // Attached only to read the atom's trace back: not a reported black
        // box.
        let steps = FlightRecorder::new("atom", usize::MAX);
        let env = Env { recorder: Some(steps.clone()), ..Env::default() };
        let activity = Activity::new_root("atom", env.wired());
        activity.coordinator().set_dispatch_config(DispatchConfig::serial());
        let coordinator = activity.id();
        let atom = Atom::new("booking", activity).expect("bind atom");

        let reservations: Vec<Arc<Reservation>> = PARTICIPANTS
            .iter()
            .map(|name| {
                let vote = if failpoints.hit(&vote_site(name)).is_err() {
                    BtpVote::Cancelled
                } else {
                    BtpVote::Prepared
                };
                Reservation::voting(*name, vote)
            })
            .collect();
        for reservation in &reservations {
            atom.enroll(Arc::clone(reservation) as Arc<dyn BtpParticipant>).expect("enroll");
        }

        match atom.prepare() {
            Ok(()) => atom.confirm().expect("confirm"),
            Err(BtpError::Cancelled) => {}
            Err(other) => panic!("unexpected atom failure: {other:?}"),
        }

        let mut obs = Observation::new(match atom.state() {
            AtomState::Confirmed => RunOutcome::Committed,
            AtomState::Cancelled => RunOutcome::Aborted,
            other => panic!("atom left non-terminal: {other:?}"),
        });
        obs.participant_commits = reservations
            .iter()
            .map(|r| (r.name().to_owned(), r.state() == ReservationState::Confirmed))
            .collect();
        obs.trace = super::coordinator_trace(&steps.steps(), coordinator);
        obs.space.sites = failpoints.observed_sites();
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::schedule::FaultEvent;

    #[test]
    fn fault_free_atom_confirms_everyone() {
        let obs = BtpAtomScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(obs.participant_commits.iter().all(|(_, c)| *c));
        assert!(oracle::check_all(&obs).is_empty());
        assert_eq!(obs.space.sites.len(), PARTICIPANTS.len());
    }

    #[test]
    fn one_cancellation_vote_cancels_the_atom() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: vote_site("hotel"),
            after: 0,
        }]);
        let obs = BtpAtomScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(obs.participant_commits.iter().all(|(_, c)| !*c));
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }
}
