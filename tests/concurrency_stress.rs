//! Concurrency stress: the framework's shared structures (ORB, stores,
//! coordinators, services) under parallel load.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use activity_service::{ActivityService, BroadcastSignalSet, FnAction, Outcome, Signal};
use orb::{Orb, Request, Value};
use ots::{TransactionFactory, TransactionalKv, TxError};

#[test]
fn parallel_invocations_through_one_orb() {
    let orb = Orb::new();
    let node = orb.add_node("server").unwrap();
    let hits = Arc::new(AtomicU32::new(0));
    let hits2 = Arc::clone(&hits);
    let obj = node
        .activate("Svc", move |_r: &Request| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Null)
        })
        .unwrap();

    std::thread::scope(|s| {
        for _ in 0..8 {
            let orb = orb.clone();
            let obj = obj.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    orb.invoke(&obj, Request::new("op")).unwrap();
                }
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), 1600);
    assert_eq!(orb.network().stats().delivered, 3200, "request + reply legs");
}

#[test]
fn parallel_transactions_against_one_store_preserve_money() {
    // 8 threads transfer between two accounts with retry-on-conflict; the
    // total must be conserved.
    let factory = Arc::new(TransactionFactory::new());
    let store = Arc::new(TransactionalKv::new("bank"));
    let seed = factory.create().unwrap();
    store.enlist(&seed).unwrap();
    store.write(seed.id(), "a", Value::I64(1000)).unwrap();
    store.write(seed.id(), "b", Value::I64(1000)).unwrap();
    seed.terminator().commit().unwrap();

    std::thread::scope(|s| {
        for t in 0..8 {
            let factory = Arc::clone(&factory);
            let store = Arc::clone(&store);
            s.spawn(move || {
                let amount = i64::from(t) + 1;
                let mut done = 0;
                while done < 25 {
                    let tx = match factory.create() {
                        Ok(tx) => tx,
                        Err(_) => continue,
                    };
                    if store.enlist(&tx).is_err() {
                        continue;
                    }
                    let attempt = (|| -> Result<(), TxError> {
                        let a = store.read(tx.id(), "a")?.unwrap().as_i64().unwrap();
                        let b = store.read(tx.id(), "b")?.unwrap().as_i64().unwrap();
                        store.write(tx.id(), "a", Value::I64(a - amount))?;
                        store.write(tx.id(), "b", Value::I64(b + amount))?;
                        Ok(())
                    })();
                    match attempt {
                        Ok(()) => {
                            if tx.terminator().commit().is_ok() {
                                done += 1;
                            }
                        }
                        Err(_) => {
                            let _ = tx.terminator().rollback();
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    let a = store.read_committed("a").unwrap().as_i64().unwrap();
    let b = store.read_committed("b").unwrap().as_i64().unwrap();
    assert_eq!(a + b, 2000, "no money created or destroyed");
    // All transfers happened: sum of 25 * (t+1) for t in 0..8 = 25*36.
    assert_eq!(b - 1000, 25 * 36);
}

#[test]
fn parallel_activity_trees_are_isolated() {
    let service = ActivityService::new();
    let completions = Arc::new(AtomicU32::new(0));
    std::thread::scope(|s| {
        for t in 0..8 {
            let service = service.clone();
            let completions = Arc::clone(&completions);
            s.spawn(move || {
                for i in 0..50 {
                    let a = service.begin(format!("job-{t}-{i}")).unwrap();
                    let _child = service.begin("step").unwrap();
                    assert_eq!(service.depth(), 2, "thread-local association is per thread");
                    service.complete().unwrap();
                    assert_eq!(service.current().unwrap().id(), a.id());
                    service.complete().unwrap();
                    completions.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(completions.load(Ordering::SeqCst), 400);
}

#[test]
fn parallel_registration_and_dispatch_on_one_coordinator() {
    // Actions register concurrently while other threads fire independent
    // signal sets on the same coordinator.
    let activity =
        activity_service::Activity::new_root("busy", orb::SimClock::new());
    for i in 0..8 {
        activity
            .coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new(
                format!("S{i}"),
                "go",
                Value::Null,
            )))
            .unwrap();
    }
    let hits = Arc::new(AtomicU32::new(0));
    std::thread::scope(|s| {
        for i in 0..8 {
            let activity = activity.clone();
            let hits = Arc::clone(&hits);
            s.spawn(move || {
                let set = format!("S{i}");
                for _ in 0..20 {
                    let hits2 = Arc::clone(&hits);
                    activity.coordinator().register_action(
                        &set,
                        Arc::new(FnAction::new("a", move |_s: &Signal| {
                            hits2.fetch_add(1, Ordering::SeqCst);
                            Ok(Outcome::done())
                        })) as _,
                    );
                }
                let outcome = activity.signal(&set).unwrap();
                assert!(outcome.is_done());
                assert_eq!(outcome.data().as_u64(), Some(20));
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), 8 * 20);
}

#[test]
fn sixteen_concurrent_signal_set_runs_share_one_coordinator() {
    // 16 threads each drive process_signal_set on their own set of one
    // shared coordinator, with parallel fan-out enabled — so 16 collators
    // contend for the same worker pool concurrently (and help each other
    // drain it). Every delivery must still happen exactly once per run.
    use activity_service::{ActivityCoordinator, ActivityId, DispatchConfig};

    let coordinator = Arc::new(ActivityCoordinator::new(ActivityId::new(99)));
    coordinator.set_dispatch_config(DispatchConfig::with_workers(4));
    let hits = Arc::new(AtomicU32::new(0));
    for i in 0..16 {
        coordinator
            .add_signal_set(Box::new(BroadcastSignalSet::new(
                format!("S{i}"),
                "go",
                Value::Null,
            )))
            .unwrap();
        for j in 0..6 {
            let hits = Arc::clone(&hits);
            coordinator.register_action(
                &format!("S{i}"),
                Arc::new(FnAction::new(format!("a{i}-{j}"), move |_s: &Signal| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(Outcome::done())
                })) as _,
            );
        }
    }
    std::thread::scope(|s| {
        for i in 0..16 {
            let coordinator = Arc::clone(&coordinator);
            s.spawn(move || {
                let outcome = coordinator.process_signal_set(&format!("S{i}")).unwrap();
                assert!(outcome.is_done());
                assert_eq!(outcome.data().as_u64(), Some(6), "set S{i} reached every action");
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), 16 * 6);
}
