//! Introspection across a severed link (DESIGN.md §15 meets §13): querying
//! a node's [`orb::Introspection`] surface while that node sits inside an
//! open partition window must fail with a *structured* [`orb::OrbError`] —
//! never a hang or a panic — and the operator-side failure detector must
//! record the resulting health transitions in its flight recorder and
//! metrics, exactly as it would for a dead participant.

use std::sync::Arc;
use std::time::Duration;

use orb::{
    DetectorConfig, Env, FailureDetector, HealthStatus, Introspection, NetworkConfig, Orb,
    OrbError, Request, SimClock, Value,
};

fn query(probe: &str) -> Request {
    Request::new("query").with_arg("probe", Value::from(probe))
}

#[test]
fn query_inside_an_open_partition_window_is_a_structured_error() {
    let clock = SimClock::new();
    // Operator-side detector, wired like a real deployment: the ORB's
    // context mirrors its transitions into the recorder and counts them in
    // the metrics registry.
    let recorder = telemetry::FlightRecorder::new("ops", 64);
    let telemetry = telemetry::Telemetry::with_time(Arc::new(clock.clone()));
    let detector = FailureDetector::with_config(
        clock.clone(),
        DetectorConfig { suspect_after: 1, quarantine_after: 2, ..DetectorConfig::default() },
    );
    let env = Env::wired(Env {
        clock: clock.clone(),
        detector: Some(detector.clone()),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        ..Default::default()
    });
    let orb = Orb::builder().network(NetworkConfig::reliable()).env(env).build();
    let ops = orb.add_node("ops").expect("ops node");
    let target = orb.add_node("target").expect("target node");
    let (surface, object) = Introspection::install(&target).expect("install surface");
    surface.register("status", || "alive\n".to_owned());

    // Sanity: the surface answers over the wire before the window opens.
    let reply = ops.invoke(&object, query("status")).expect("pre-partition query");
    assert_eq!(reply.result.as_str(), Some("alive\n"));

    // Cut the target off for a window that covers "now".
    let window = Duration::from_micros(2_000);
    orb.network().schedule_partition(clock.now(), clock.now() + window, &[&["target"]]);

    // Inside the window every query returns promptly with the structured
    // partition error; feed each failure to the detector as an operator's
    // probe loop would.
    for _ in 0..2 {
        match ops.invoke(&object, query("status")) {
            Err(OrbError::Partitioned { from, to }) => {
                assert_eq!((from.as_str(), to.as_str()), ("ops", "target"));
                detector.record_failure("target");
            }
            other => panic!("expected a structured partition error, got {other:?}"),
        }
    }
    assert_eq!(detector.status("target"), HealthStatus::Quarantined);

    // The detector's black box shows the full healthy → suspect →
    // quarantined walk...
    let transitions: Vec<String> = recorder
        .events()
        .iter()
        .filter(|e| e.kind() == telemetry::RecordKind::Detector)
        .map(telemetry::RecordedEvent::detail)
        .collect();
    assert_eq!(
        transitions,
        vec![
            "target: healthy -> suspect".to_owned(),
            "target: suspect -> quarantined".to_owned(),
        ]
    );
    // ...and the transitions are counted in the metrics registry.
    let rendered = telemetry.metrics().render_prometheus();
    assert!(
        rendered
            .contains("detector_transitions_total{from=\"healthy\",to=\"suspect\"} 1"),
        "{rendered}"
    );

    // Heal by letting the window lapse: the same query answers again and
    // the detector rehabilitates the node.
    clock.advance(window);
    let reply = ops.invoke(&object, query("status")).expect("post-heal query");
    assert_eq!(reply.result.as_str(), Some("alive\n"));
    detector.record_success("target");
    assert_eq!(detector.status("target"), HealthStatus::Healthy);
    assert!(recorder
        .events()
        .iter()
        .any(|e| e.detail() == "target: quarantined -> healthy"));
}
