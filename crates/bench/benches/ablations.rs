//! Ablation benches for the design choices DESIGN.md calls out:
//! 1. framework dispatch (checked state machine, per-signal snapshots)
//!    vs direct calls;
//! 2. implicit (interceptor) vs explicit context propagation;
//! 3. at-least-once (retrying) vs fire-once delivery on a clean network.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orb::{Orb, Request, Value};

fn dispatch_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dispatch");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for n in [64usize, 1024] {
        let actions = bench::trivial_actions(n);
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, &n| {
            b.iter(|| assert_eq!(bench::direct_dispatch(&actions), n))
        });
        group.bench_with_input(BenchmarkId::new("framework", n), &n, |b, &n| {
            b.iter(|| assert_eq!(bench::fig5_dispatch(n), n as u64))
        });
    }
    group.finish();
}

fn context_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_context");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));

    // Bare ORB: no interceptors at all.
    let bare = Orb::new();
    let node = bare.add_node("n").unwrap();
    let obj = node.activate("Svc", |_r: &Request| Ok(Value::Null)).unwrap();
    group.bench_function("no_interceptors", |b| {
        b.iter(|| bare.invoke(&obj, Request::new("op")).unwrap())
    });

    // Activity-service interceptors installed, no current activity.
    let with_svc = Orb::new();
    let service = activity_service::ActivityService::new();
    service.attach_to_orb(&with_svc);
    let node = with_svc.add_node("n").unwrap();
    let obj = node.activate("Svc", |_r: &Request| Ok(Value::Null)).unwrap();
    group.bench_function("interceptors_idle", |b| {
        b.iter(|| with_svc.invoke(&obj, Request::new("op")).unwrap())
    });

    // Deep activity chain propagated on every call.
    service.begin("l1").unwrap();
    service.begin("l2").unwrap();
    service.begin("l3").unwrap();
    group.bench_function("interceptors_depth3", |b| {
        b.iter(|| with_svc.invoke(&obj, Request::new("op")).unwrap())
    });
    group.finish();
}

fn delivery_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_delivery");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    let orb = Orb::new();
    let node = orb.add_node("n").unwrap();
    let obj = node.activate("Svc", |_r: &Request| Ok(Value::Null)).unwrap();
    let obj2 = obj.clone();
    let orb2 = orb.clone();
    group.bench_function("fire_once", |b| {
        b.iter(|| orb2.invoke(&obj2, Request::new("op")).unwrap())
    });
    group.bench_function("at_least_once_wrapper", |b| {
        b.iter(|| {
            orb.invoke_with_policy(
                orb::node::EXTERNAL_CALLER,
                &obj,
                Request::new("op"),
                &orb::RetryPolicy::AT_LEAST_ONCE,
                None,
            )
            .unwrap()
        })
    });
    drop(Arc::new(()));
    group.finish();
}

fn interposition_ablation(c: &mut Criterion) {
    use activity_service::{interpose, Activity};
    use criterion::BenchmarkId;

    let mut group = c.benchmark_group("ablation_interposition");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for participants in [4usize, 16] {
        group.bench_with_input(BenchmarkId::new("flat", participants), &participants, |b, &n| {
            b.iter(|| {
                let orb = Orb::new();
                orb.add_node("superior").unwrap();
                let node = orb.add_node("org").unwrap();
                let activity = Activity::new_root("bench", orb::SimClock::new());
                activity
                    .coordinator()
                    .add_signal_set(Box::new(activity_service::BroadcastSignalSet::new(
                        "S", "go", Value::Null,
                    )))
                    .unwrap();
                for action in bench::trivial_actions(n) {
                    let obj = node
                        .activate("Action", activity_service::ActionServant::new(action))
                        .unwrap();
                    activity.coordinator().register_action(
                        "S",
                        Arc::new(activity_service::RemoteActionProxy::new(
                            "p",
                            orb.clone(),
                            "superior",
                            obj,
                        )) as _,
                    );
                }
                activity.signal("S").unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("interposed", participants),
            &participants,
            |b, &n| {
                b.iter(|| {
                    let orb = Orb::new();
                    orb.add_node("superior").unwrap();
                    let node = orb.add_node("org").unwrap();
                    let activity = Activity::new_root("bench", orb::SimClock::new());
                    activity
                        .coordinator()
                        .add_signal_set(Box::new(activity_service::BroadcastSignalSet::new(
                            "S", "go", Value::Null,
                        )))
                        .unwrap();
                    let relay =
                        interpose(activity.coordinator(), "S", &orb, &node, "relay").unwrap();
                    for action in bench::trivial_actions(n) {
                        relay.register_local(action);
                    }
                    activity.signal("S").unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    dispatch_ablation,
    context_ablation,
    delivery_ablation,
    interposition_ablation
);
criterion_main!(benches);
