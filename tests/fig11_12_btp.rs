//! Figs. 11 and 12 of the paper: the BTP PrepareSignalSet and
//! CompleteSignalSet exchanges, asserted against the coordinator trace, plus
//! the fig. 1/fig. 2 cohesion scenario end-to-end.

mod common;

use std::sync::Arc;

use activity_service::ActivityService;
use btp::{Atom, BtpError, BtpParticipant, Cohesion, Reservation, ReservationState};
use telemetry::{FlightRecorder, ProtocolEvent};
use tx_models::common::{SIG_CANCEL, SIG_CONFIRM, SIG_PREPARE};

fn traced_atom() -> (Arc<Atom>, FlightRecorder, Vec<Arc<Reservation>>) {
    let (activity, recorder) = common::recorded_root("atom");
    let atom = Atom::new("atom", activity).unwrap();
    let participants: Vec<Arc<Reservation>> =
        vec![Reservation::new("action-1"), Reservation::new("action-2")];
    for p in &participants {
        atom.enroll(Arc::clone(p) as Arc<dyn BtpParticipant>).unwrap();
    }
    (atom, recorder, participants)
}

/// The transmissions among `steps`, as (signal, action).
fn transmits(steps: &[ProtocolEvent]) -> Vec<(String, String)> {
    steps
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::Transmit { signal, action, .. } => {
                Some((signal.clone(), action.clone()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn fig11_prepare_exchange() {
    let (atom, recorder, _participants) = traced_atom();
    atom.prepare().unwrap();
    // Fig. 11: get_signal, prepare → Action1, set_response, prepare →
    // Action2, set_response, get_outcome.
    let set = || "PrepareSignalSet".to_owned();
    let prepare = |action: &str| ProtocolEvent::Transmit {
        set: set(),
        signal: SIG_PREPARE.into(),
        action: action.into(),
    };
    let prepared = || ProtocolEvent::SetResponse { set: set(), outcome: "prepared".into() };
    assert_eq!(
        common::trace(&recorder),
        vec![
            ProtocolEvent::GetSignal { set: set() },
            prepare("action-1"),
            prepared(),
            prepare("action-2"),
            prepared(),
            ProtocolEvent::GetOutcome { set: set(), outcome: "prepared".into() },
        ]
    );
}

#[test]
fn fig12_confirm_exchange() {
    let (atom, recorder, participants) = traced_atom();
    atom.prepare().unwrap();
    let prepared = common::trace(&recorder).len();
    atom.confirm().unwrap();
    assert_eq!(
        transmits(&common::trace(&recorder)[prepared..]),
        vec![
            (SIG_CONFIRM.to_string(), "action-1".to_string()),
            (SIG_CONFIRM.to_string(), "action-2".to_string()),
        ],
        "fig. 12 with the confirm signal"
    );
    for p in &participants {
        assert_eq!(p.state(), ReservationState::Confirmed);
    }
}

#[test]
fn fig12_cancel_exchange() {
    // "If the atom is instructed to cancel, then obviously the confirm
    // Signal is replaced by cancel."
    let (atom, recorder, participants) = traced_atom();
    atom.prepare().unwrap();
    let prepared = common::trace(&recorder).len();
    atom.cancel().unwrap();
    assert_eq!(
        transmits(&common::trace(&recorder)[prepared..]),
        vec![
            (SIG_CANCEL.to_string(), "action-1".to_string()),
            (SIG_CANCEL.to_string(), "action-2".to_string()),
        ]
    );
    for p in &participants {
        assert_eq!(p.state(), ReservationState::Cancelled);
    }
}

/// The full fig. 1 business activity as a cohesion: each booking is an
/// atom; the ellipse's end is the *preparatory* phase ("for t1 the taxi is
/// reserved (prepared) and not booked (confirmed): that is the role of the
/// cohesion termination protocol").
#[test]
fn fig1_cohesion_over_service() {
    let service = ActivityService::new();
    let trip_activity = service.begin("trip").unwrap();
    // The cohesion owns completion of its activity; detach it from the
    // test thread's association.
    service.suspend().unwrap();
    let cohesion = Cohesion::new("trip", trip_activity.clone());

    let mut reservations = Vec::new();
    for name in ["taxi", "restaurant", "theatre", "hotel"] {
        let atom = cohesion.enroll_atom(name).unwrap();
        let r = Reservation::new(name);
        atom.enroll(Arc::clone(&r) as Arc<dyn BtpParticipant>).unwrap();
        // Prepared as the business activity progresses, not at the end.
        cohesion.prepare(name).unwrap();
        assert_eq!(r.state(), ReservationState::Prepared);
        reservations.push(r);
    }
    // Hours or days later… the confirm-set is everything.
    let report = cohesion.confirm(&["taxi", "restaurant", "theatre", "hotel"]).unwrap();
    assert_eq!(report.confirmed.len(), 4);
    for r in &reservations {
        assert_eq!(r.state(), ReservationState::Confirmed);
    }
    assert_eq!(trip_activity.state(), activity_service::ActivityState::Completed);
}

/// Fig. 2 as a cohesion: the hotel cancels, a cancellation atom (tc1) and
/// replacement bookings (cinema) join, and the confirm-set shifts.
#[test]
fn fig2_cohesion_alternative_plan() {
    let service = ActivityService::new();
    let trip_activity = service.begin("trip").unwrap();
    // The cohesion owns completion of its activity; detach it from the
    // test thread's association.
    service.suspend().unwrap();
    let cohesion = Cohesion::new("trip", trip_activity.clone());

    for name in ["taxi", "restaurant", "theatre"] {
        let atom = cohesion.enroll_atom(name).unwrap();
        atom.enroll(Reservation::new(name) as Arc<dyn BtpParticipant>).unwrap();
        cohesion.prepare(name).unwrap();
    }
    // t4: the hotel refuses during prepare.
    let hotel_atom = cohesion.enroll_atom("hotel").unwrap();
    hotel_atom
        .enroll(Reservation::voting("hotel", btp::BtpVote::Cancelled) as Arc<dyn BtpParticipant>)
        .unwrap();
    assert!(matches!(cohesion.prepare("hotel"), Err(BtpError::Cancelled)));

    // tc1 (the undo of partial hotel work) and the cinema replacement are
    // themselves atoms enrolled with the cohesion.
    let tc1 = cohesion.enroll_atom("tc1-undo-hotel-hold").unwrap();
    let tc1_res = Reservation::new("undo-hold");
    tc1.enroll(Arc::clone(&tc1_res) as Arc<dyn BtpParticipant>).unwrap();
    cohesion.prepare("tc1-undo-hotel-hold").unwrap();

    let cinema = cohesion.enroll_atom("cinema").unwrap();
    let cinema_res = Reservation::new("cinema");
    cinema.enroll(Arc::clone(&cinema_res) as Arc<dyn BtpParticipant>).unwrap();
    cohesion.prepare("cinema").unwrap();

    // New confirm-set: taxi + tc1 + cinema (theatre/restaurant dropped —
    // "it is decided to book tickets at the cinema").
    let report = cohesion.confirm(&["taxi", "tc1-undo-hotel-hold", "cinema"]).unwrap();
    assert_eq!(report.confirmed, vec!["cinema", "taxi", "tc1-undo-hotel-hold"]);
    assert_eq!(report.cancelled, vec!["restaurant", "theatre"]);
    assert_eq!(cinema_res.state(), ReservationState::Confirmed);
    assert_eq!(tc1_res.state(), ReservationState::Confirmed);
    assert_eq!(trip_activity.state(), activity_service::ActivityState::Completed);
}
