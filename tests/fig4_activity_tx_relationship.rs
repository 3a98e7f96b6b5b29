//! Fig. 4 of the paper: the relationship between activities and
//! transactions. "An activity may run for an arbitrary length of time, and
//! may use atomic transactions at arbitrary points during its lifetime."
//!
//! The figure shows activities A1..A5 where A1 uses two top-level
//! transactions, A2 uses none, and transactional activity A3 has another
//! transactional activity A3' nested within it. This test reproduces that
//! exact structure and asserts both the activity tree and the transaction
//! outcomes.

use std::sync::Arc;

use activity_service::{ActivityService, ActivityState};
use orb::Value;
use ots::{TransactionFactory, TransactionalKv};

#[test]
fn fig4_structure_reproduced() {
    let service = ActivityService::new();
    let factory = TransactionFactory::new();
    let store = Arc::new(TransactionalKv::new("ledger"));

    // ---- A1: one activity, two successive top-level transactions. ----
    let a1 = service.begin("A1").unwrap();
    {
        let t = factory.create().unwrap();
        store.enlist(&t).unwrap();
        store.write(t.id(), "a1-first", Value::from(1i64)).unwrap();
        t.terminator().commit().unwrap();

        let t = factory.create().unwrap();
        store.enlist(&t).unwrap();
        store.write(t.id(), "a1-second", Value::from(2i64)).unwrap();
        t.terminator().commit().unwrap();
    }
    service.complete().unwrap();
    assert_eq!(a1.state(), ActivityState::Completed);
    assert_eq!(store.read_committed("a1-first"), Some(Value::from(1i64)));
    assert_eq!(store.read_committed("a1-second"), Some(Value::from(2i64)));

    // ---- A2: an activity that uses no transactions at all. ----
    let a2 = service.begin("A2").unwrap();
    service.complete().unwrap();
    assert_eq!(a2.state(), ActivityState::Completed);

    // ---- A3 with nested A3': both transactional; the nested activity's
    //      transaction is a subtransaction of A3's. ----
    let a3 = service.begin("A3").unwrap();
    let t3 = factory.create().unwrap();
    store.enlist(&t3).unwrap();
    store.write(t3.id(), "a3", Value::from(3i64)).unwrap();
    {
        let a3_prime = service.begin("A3'").unwrap();
        assert_eq!(a3_prime.parent().unwrap().id(), a3.id());
        let t3_prime = t3.begin_subtransaction().unwrap();
        assert!(t3.id().is_ancestor_of(t3_prime.id()));
        store.enlist(&t3_prime).unwrap();
        store.write(t3_prime.id(), "a3-prime", Value::from(4i64)).unwrap();
        t3_prime.terminator().commit().unwrap();
        service.complete().unwrap();
        // Subtransaction commit is provisional: invisible until A3's
        // top-level transaction commits.
        assert_eq!(store.read_committed("a3-prime"), None);
    }
    t3.terminator().commit().unwrap();
    service.complete().unwrap();
    assert_eq!(store.read_committed("a3"), Some(Value::from(3i64)));
    assert_eq!(store.read_committed("a3-prime"), Some(Value::from(4i64)));

    // ---- A4, A5: activities whose transactions abort do not abort the
    //      activity itself (activities relax ACID as needed). ----
    let a4 = service.begin("A4").unwrap();
    let t4 = factory.create().unwrap();
    store.enlist(&t4).unwrap();
    store.write(t4.id(), "a4", Value::from(5i64)).unwrap();
    t4.terminator().rollback().unwrap();
    // The activity can still complete successfully: the aborted transaction
    // was just one episode within it.
    let outcome = service.complete().unwrap();
    assert!(outcome.is_done());
    assert_eq!(store.read_committed("a4"), None);

    // Four root activities (A3' nests under A3), every one completed; the
    // service keeps none of them — these handles are what is left.
    for root in [&a1, &a2, &a3, &a4] {
        assert!(root.parent().is_none(), "{} is a root", root.name());
        assert_eq!(root.state(), ActivityState::Completed);
    }
    assert_eq!(a3.children().len(), 1);
}

#[test]
fn activity_may_interleave_transactional_and_non_transactional_periods() {
    // §3.1: "During its lifetime an activity may have transactional and
    // non-transactional periods."
    let service = ActivityService::new();
    let factory = TransactionFactory::new();
    let store = Arc::new(TransactionalKv::new("store"));

    service.begin("long-runner").unwrap();
    // Non-transactional period: direct (unprotected) reads.
    assert_eq!(store.read_committed("x"), None);
    // Transactional period.
    let t = factory.create().unwrap();
    store.enlist(&t).unwrap();
    store.write(t.id(), "x", Value::from(1i64)).unwrap();
    t.terminator().commit().unwrap();
    // Non-transactional again.
    assert_eq!(store.read_committed("x"), Some(Value::from(1i64)));
    service.complete().unwrap();
}
