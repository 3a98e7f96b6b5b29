//! Fig. 8 end-to-end and *distributed*: the signal-based two-phase commit
//! driven across the simulated ORB, with the participants' Actions hosted
//! on remote nodes and signalled through `RemoteActionProxy` (at-least-once
//! delivery).

mod common;

use std::sync::Arc;

use activity_service::{
    ActionServant, Activity, ActivityService, CompletionStatus, RemoteActionProxy,
};
use telemetry::{FlightRecorder, ProtocolEvent};
use orb::{NetworkConfig, Orb, RetryPolicy, Value};
use ots::{Resource, TransactionalKv, TxId};
use tx_models::common::{OUT_COMMITTED, OUT_ROLLED_BACK, SIG_COMMIT, SIG_PREPARE};
use tx_models::{ResourceAction, TwoPhaseCommitSignalSet, TWO_PC_SET};

/// Build a coordinator node plus two participant nodes, each hosting a
/// transactional store behind an Action servant.
fn distributed_2pc(
    network: NetworkConfig,
) -> (Orb, Activity, Vec<Arc<TransactionalKv>>, TxId, FlightRecorder) {
    let orb = Orb::builder().network(network).build();
    let (env, recorder) = common::recording_env();
    let service = ActivityService::builder().env(env).build();
    service.attach_to_orb(&orb);
    orb.add_node("coordinator").unwrap();

    let activity = service.begin("distributed-commit").unwrap();
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(TWO_PC_SET);

    let tx = TxId::top_level(1);
    let mut stores = Vec::new();
    for (i, node_name) in ["participant-a", "participant-b"].iter().enumerate() {
        let node = orb.add_node(*node_name).unwrap();
        let store = Arc::new(TransactionalKv::new(format!("store-{i}")));
        store.write(&tx, "balance", Value::I64(100 + i as i64)).unwrap();
        let action = Arc::new(ResourceAction::new(
            format!("action-{i}"),
            tx.clone(),
            Arc::clone(&store) as Arc<dyn Resource>,
        ));
        let object = node.activate("Action", ActionServant::new(action)).unwrap();
        let proxy = RemoteActionProxy::new(
            format!("remote-action-{i}"),
            orb.clone(),
            "coordinator",
            object,
        )
        .with_policy(RetryPolicy::immediate(129));
        activity.coordinator().register_action(TWO_PC_SET, Arc::new(proxy) as _);
        stores.push(store);
    }
    // Detach from the test thread so we can complete the activity directly.
    let _ = service.suspend().unwrap();
    (orb, activity, stores, tx, recorder)
}

#[test]
fn fig8_commit_across_nodes() {
    let (orb, activity, stores, _tx, recorder) = distributed_2pc(NetworkConfig::reliable());
    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), OUT_COMMITTED);
    for (i, store) in stores.iter().enumerate() {
        assert_eq!(
            store.read_committed("balance"),
            Some(Value::I64(100 + i as i64)),
            "participant {i} must have committed"
        );
    }
    // Exact fig. 8 signal order, across the network.
    let transmits: Vec<(String, String)> = common::trace(&recorder)
        .into_iter()
        .filter_map(|e| match e {
            ProtocolEvent::Transmit { signal, action, .. } => Some((signal, action)),
            _ => None,
        })
        .collect();
    assert_eq!(
        transmits,
        vec![
            (SIG_PREPARE.to_string(), "remote-action-0".to_string()),
            (SIG_PREPARE.to_string(), "remote-action-1".to_string()),
            (SIG_COMMIT.to_string(), "remote-action-0".to_string()),
            (SIG_COMMIT.to_string(), "remote-action-1".to_string()),
        ]
    );
    // Every signal cost one request + reply per participant, all delivered.
    let stats = orb.network().stats();
    assert_eq!(stats.dropped, 0);
    assert!(stats.delivered >= 8, "2 signals x 2 participants x 2 legs");
}

#[test]
fn fig8_commit_survives_lossy_network() {
    // 30% drop, 20% duplication: at-least-once retries push the protocol
    // through, and the idempotent participants keep the result exact.
    let (orb, activity, stores, _tx, _trace) =
        distributed_2pc(NetworkConfig::lossy(0.3, 0.2, 20260707));
    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), OUT_COMMITTED);
    for (i, store) in stores.iter().enumerate() {
        assert_eq!(store.read_committed("balance"), Some(Value::I64(100 + i as i64)));
    }
    let stats = orb.network().stats();
    assert!(stats.dropped > 0 || stats.duplicated > 0, "the fault model actually fired");
}

#[test]
fn fig8_failure_completion_rolls_back_across_nodes() {
    let (_orb, activity, stores, _tx, _trace) = distributed_2pc(NetworkConfig::reliable());
    activity.set_completion_status(CompletionStatus::FailOnly).unwrap();
    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), OUT_ROLLED_BACK);
    for store in &stores {
        assert_eq!(store.read_committed("balance"), None, "writes must be undone");
    }
}

#[test]
fn fig8_partition_prevents_commit_but_retry_after_heal_succeeds() {
    let (orb, activity, stores, _tx, _trace) = distributed_2pc(NetworkConfig::reliable());
    orb.network().partition(&[&["coordinator", "participant-a"], &["participant-b"]]);
    // Completion drives prepare; participant-b is unreachable, its proxy
    // reports an error, and the 2PC set rolls everyone back.
    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), OUT_ROLLED_BACK);
    orb.network().heal();
    for store in &stores {
        assert_eq!(store.read_committed("balance"), None);
    }
}
