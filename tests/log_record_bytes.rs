//! Every log record kind is written field by field (`orb::MapWriter`), and
//! the bytes that reach the log are exactly those the same record encodes
//! to when it is built as a `Value::Map` first — so the on-disk format, the
//! decoders and every recovery path are untouched by how records are
//! written (DESIGN.md §12).
//!
//! One table: each case writes its record through the component that owns
//! it, into a fresh log, and returns the record built as a value tree.

use std::sync::Arc;
use std::time::Duration;

use activity_service::exactly_once::KIND_SIGNAL_PROCESSED;
use activity_service::recovery::{
    KIND_ACT_ACTION, KIND_ACT_BEGUN, KIND_ACT_COMPLETED, KIND_ACT_COMPLETION_SET,
    KIND_ACT_SIGNAL_SET, KIND_ACT_STATUS,
};
use activity_service::{
    Action, ActivityId, ActivityLogger, CompletionStatus, ExactlyOnceAction, FnAction, Outcome,
    Signal,
};
use orb::{NetworkConfig, Orb, RetryPolicy, SimClock, Value, ValueMap};
use ots::durable::{KIND_KV_ABORTED, KIND_KV_CHECKPOINT, KIND_KV_COMMITTED, KIND_KV_PREPARED};
use ots::recovery::{CoordinatorLocator, KIND_RES_HEURISTIC, KIND_RES_PREPARED, KIND_RES_RESOLVED};
use ots::txlog::{
    self, txid_to_value, KIND_TX_BEGUN, KIND_TX_COMPLETED, KIND_TX_DECISION, KIND_TX_PREPARED,
};
use ots::{
    DurableKv, RecoverableResource, ResolutionConfig, Resource, TransactionalKv, TxId, TxStatus,
    Vote,
};
use recovery_log::{Lsn, MemWal, Wal};
use wfengine::journal::KIND_WF_TASK_DONE;
use wfengine::WorkflowJournal;

/// A record built the way every writer built it before: a value tree.
fn tree(fields: Vec<(&'static str, Value)>) -> Value {
    let mut map = ValueMap::new();
    for (key, value) in fields {
        map.insert(key.into(), value);
    }
    Value::Map(map)
}

fn strs(items: &[&str]) -> Value {
    Value::List(items.iter().map(|item| Value::from(*item)).collect())
}

/// A nested output or outcome payload, non-ASCII keys and text included.
fn nested() -> Value {
    tree(vec![
        ("betrag", Value::F64(12.5)),
        (
            "größe",
            Value::List(vec![
                Value::I64(-3),
                Value::Null,
                Value::Bytes(vec![0, 255]),
            ]),
        ),
        (
            "détail",
            tree(vec![("état", Value::from("payé")), ("n", Value::U64(2))]),
        ),
    ])
}

/// A child transaction: a non-empty branch.
fn child() -> TxId {
    TxId::top_level(7).child(3).child(1)
}

type Write = Box<dyn Fn(&Arc<dyn Wal>) -> Value>;

/// The prepared participant of the `RES_*` cases: a `TransactionalKv` with
/// one write, wrapped and prepared.
fn prepared_resource(wal: &Arc<dyn Wal>, tx: &TxId) -> RecoverableResource {
    let store = Arc::new(TransactionalKv::new("käse"));
    store.write(tx, "clé", Value::from("wert")).unwrap();
    let resource = RecoverableResource::new(store, Arc::clone(wal), "koordinator-ü");
    assert_eq!(resource.prepare(tx).unwrap(), Vote::Commit);
    resource
}

/// The `DurableKv` of the `KV_*` cases, with `tx` prepared: a write, a
/// delete and a second write, keyed across the ASCII boundary.
fn prepared_store(wal: &Arc<dyn Wal>, tx: &TxId) -> Arc<DurableKv> {
    let kv = DurableKv::new("lager-ø", Arc::clone(wal));
    kv.store().write(tx, "n", Value::I64(3)).unwrap();
    kv.store().write(tx, "clé", nested()).unwrap();
    kv.store().delete(tx, "gone").unwrap();
    assert_eq!(kv.prepare(tx).unwrap(), Vote::Commit);
    kv
}

fn cases() -> Vec<(&'static str, u32, Write)> {
    let logger = |wal: &Arc<dyn Wal>| ActivityLogger::new(Arc::clone(wal));
    vec![
        (
            "TX_BEGUN of a child transaction",
            KIND_TX_BEGUN,
            Box::new(|wal| {
                txlog::log_begun(wal.as_ref(), &child()).unwrap();
                txid_to_value(&child())
            }),
        ),
        (
            "TX_PREPARED with non-ASCII participants",
            KIND_TX_PREPARED,
            Box::new(|wal| {
                txlog::log_prepared(wal.as_ref(), &child(), &["caisse-é", "lager-ø", ""]).unwrap();
                tree(vec![
                    ("tx", txid_to_value(&child())),
                    ("participants", strs(&["caisse-é", "lager-ø", ""])),
                ])
            }),
        ),
        (
            "TX_DECISION",
            KIND_TX_DECISION,
            Box::new(|wal| {
                txlog::log_decision_commit(wal.as_ref(), &TxId::top_level(u64::MAX)).unwrap();
                txid_to_value(&TxId::top_level(u64::MAX))
            }),
        ),
        (
            "TX_COMPLETED, rolled back",
            KIND_TX_COMPLETED,
            Box::new(|wal| {
                txlog::log_completed(wal.as_ref(), &child(), TxStatus::RolledBack).unwrap();
                tree(vec![
                    ("tx", txid_to_value(&child())),
                    ("committed", Value::Bool(false)),
                ])
            }),
        ),
        (
            "TX_COMPLETED, unacknowledged",
            KIND_TX_COMPLETED,
            Box::new(|wal| {
                txlog::log_completion(wal.as_ref(), &child(), TxStatus::Committed, false).unwrap();
                tree(vec![
                    ("tx", txid_to_value(&child())),
                    ("committed", Value::Bool(true)),
                    ("unacknowledged", Value::Bool(true)),
                ])
            }),
        ),
        (
            "RES_PREPARED",
            KIND_RES_PREPARED,
            Box::new(|wal| {
                prepared_resource(wal, &child());
                tree(vec![
                    ("resource", Value::from("käse")),
                    ("tx", txid_to_value(&child())),
                    ("coordinator", Value::from("koordinator-ü")),
                ])
            }),
        ),
        (
            "RES_RESOLVED",
            KIND_RES_RESOLVED,
            Box::new(|wal| {
                prepared_resource(wal, &child()).commit(&child()).unwrap();
                tree(vec![
                    ("resource", Value::from("käse")),
                    ("tx", txid_to_value(&child())),
                    ("committed", Value::Bool(true)),
                ])
            }),
        ),
        (
            "RES_HEURISTIC",
            KIND_RES_HEURISTIC,
            Box::new(|wal| {
                let resource = prepared_resource(wal, &child());
                let clock = SimClock::new();
                let orb = Orb::builder()
                    .network(NetworkConfig::reliable())
                    .clock(clock.clone())
                    .build();
                orb.add_node("participant").unwrap();
                let nobody: CoordinatorLocator = Arc::new(|_| None);
                let config = ResolutionConfig::new(RetryPolicy::new(1), Duration::from_millis(1));
                clock.advance(Duration::from_secs(1));
                let report = resource.resolve_in_doubt(&orb, "participant", &nobody, &config);
                assert_eq!(report.unwrap().heuristic, vec![child()]);
                tree(vec![
                    ("resource", Value::from("käse")),
                    ("tx", txid_to_value(&child())),
                    ("committed", Value::Bool(false)),
                ])
            }),
        ),
        (
            "KV_PREPARED with a delete and a nested value",
            KIND_KV_PREPARED,
            Box::new(|wal| {
                prepared_store(wal, &child());
                let effect = |key: &'static str, value: Option<Value>| {
                    let value = value.map(|value| ("value", value));
                    tree(
                        [("key", Value::from(key))]
                            .into_iter()
                            .chain(value)
                            .collect(),
                    )
                };
                tree(vec![
                    ("store", Value::from("lager-ø")),
                    ("tx", txid_to_value(&child())),
                    (
                        "effects",
                        Value::List(vec![
                            effect("clé", Some(nested())),
                            effect("gone", None),
                            effect("n", Some(Value::I64(3))),
                        ]),
                    ),
                ])
            }),
        ),
        (
            "KV_COMMITTED",
            KIND_KV_COMMITTED,
            Box::new(|wal| {
                prepared_store(wal, &child()).commit(&child()).unwrap();
                tree(vec![
                    ("store", Value::from("lager-ø")),
                    ("tx", txid_to_value(&child())),
                ])
            }),
        ),
        (
            "KV_ABORTED",
            KIND_KV_ABORTED,
            Box::new(|wal| {
                prepared_store(wal, &child()).rollback(&child()).unwrap();
                tree(vec![
                    ("store", Value::from("lager-ø")),
                    ("tx", txid_to_value(&child())),
                ])
            }),
        ),
        (
            "KV_CHECKPOINT",
            KIND_KV_CHECKPOINT,
            Box::new(|wal| {
                let kv = prepared_store(wal, &child());
                kv.commit(&child()).unwrap();
                kv.checkpoint().unwrap();
                // The state in the store's own (hash) order, as it was snapshot.
                let mut state = Vec::new();
                kv.store().for_each_committed(|key, value| {
                    state.push(tree(vec![
                        ("key", Value::from(key)),
                        ("value", value.clone()),
                    ]));
                });
                assert_eq!(state.len(), 2);
                tree(vec![
                    ("store", Value::from("lager-ø")),
                    ("state", Value::List(state)),
                ])
            }),
        ),
        (
            "ACT_BEGUN of a root",
            KIND_ACT_BEGUN,
            Box::new(move |wal| {
                logger(wal)
                    .log_begun(ActivityId::new(1), "réservation", None)
                    .unwrap();
                tree(vec![
                    ("id", Value::U64(1)),
                    ("name", Value::from("réservation")),
                ])
            }),
        ),
        (
            "ACT_BEGUN of a child, with its parent",
            KIND_ACT_BEGUN,
            Box::new(move |wal| {
                let (id, parent) = (ActivityId::new(u64::MAX), Some(ActivityId::new(1)));
                logger(wal).log_begun(id, "étape", parent).unwrap();
                tree(vec![
                    ("id", Value::U64(u64::MAX)),
                    ("name", Value::from("étape")),
                    ("parent", Value::U64(1)),
                ])
            }),
        ),
        (
            "ACT_SIGNAL_SET",
            KIND_ACT_SIGNAL_SET,
            Box::new(move |wal| {
                logger(wal)
                    .log_signal_set(ActivityId::new(4), "Complétion", "fabrique-v1")
                    .unwrap();
                tree(vec![
                    ("id", Value::U64(4)),
                    ("set", Value::from("Complétion")),
                    ("factory", Value::from("fabrique-v1")),
                ])
            }),
        ),
        (
            "ACT_ACTION",
            KIND_ACT_ACTION,
            Box::new(move |wal| {
                logger(wal)
                    .log_action(ActivityId::new(4), "Complétion", "observateur")
                    .unwrap();
                tree(vec![
                    ("id", Value::U64(4)),
                    ("set", Value::from("Complétion")),
                    ("factory", Value::from("observateur")),
                ])
            }),
        ),
        (
            "ACT_STATUS",
            KIND_ACT_STATUS,
            Box::new(move |wal| {
                logger(wal)
                    .log_completion_status(ActivityId::new(4), CompletionStatus::Fail)
                    .unwrap();
                tree(vec![
                    ("id", Value::U64(4)),
                    ("status", Value::from(CompletionStatus::Fail.as_str())),
                ])
            }),
        ),
        (
            "ACT_COMPLETION_SET",
            KIND_ACT_COMPLETION_SET,
            Box::new(move |wal| {
                logger(wal)
                    .log_completion_set(ActivityId::new(4), "Complétion")
                    .unwrap();
                tree(vec![
                    ("id", Value::U64(4)),
                    ("set", Value::from("Complétion")),
                ])
            }),
        ),
        (
            "ACT_COMPLETED",
            KIND_ACT_COMPLETED,
            Box::new(move |wal| {
                let status = CompletionStatus::Success;
                logger(wal)
                    .log_completed(ActivityId::new(4), status, "terminé")
                    .unwrap();
                tree(vec![
                    ("id", Value::U64(4)),
                    ("status", Value::from(status.as_str())),
                    ("outcome", Value::from("terminé")),
                ])
            }),
        ),
        (
            "SIGNAL_PROCESSED with a nested outcome",
            KIND_SIGNAL_PROCESSED,
            Box::new(|wal| {
                let outcome = Outcome::new("débité").with_data(nested());
                let reply = outcome.clone();
                let inner: Arc<dyn Action> =
                    Arc::new(FnAction::new("inner", move |_s: &Signal| Ok(reply.clone())));
                let action = ExactlyOnceAction::new("eo-ñ", inner, Arc::clone(wal)).unwrap();
                let signal = Signal::new("débit", "set").with_delivery_id("act-1:set:1");
                action.process_signal(&signal).unwrap();
                tree(vec![
                    ("action", Value::from("eo-ñ")),
                    ("id", Value::from("act-1:set:1")),
                    ("outcome", outcome.to_value()),
                ])
            }),
        ),
        (
            "WF_TASK_DONE with a nested output",
            KIND_WF_TASK_DONE,
            Box::new(|wal| {
                let journal = WorkflowJournal::new("bestellung-ü", Arc::clone(wal));
                journal.record("zahlung", true, &nested()).unwrap();
                tree(vec![
                    ("workflow", Value::from("bestellung-ü")),
                    ("task", Value::from("zahlung")),
                    ("success", Value::Bool(true)),
                    ("output", nested()),
                ])
            }),
        ),
    ]
}

#[test]
fn every_record_kind_is_written_byte_for_byte_as_its_value_tree_encodes() {
    let cases = cases();
    let mut kinds: Vec<u32> = cases.iter().map(|(_, kind, _)| *kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 19, "every record kind has a case");
    for (name, kind, write) in cases {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        // Pins every record: the writers release what they have finished.
        let _pin = wal.hold();
        let expected = write(&wal).encode_to_vec();
        let records = wal.scan(Lsn::new(0)).unwrap();
        let written: Vec<_> = records
            .iter()
            .filter(|record| record.kind == kind)
            .collect();
        assert_eq!(written.len(), 1, "{name}: one record of its kind");
        assert_eq!(written[0].payload[..], expected[..], "{name}: bytes differ");
    }
}
