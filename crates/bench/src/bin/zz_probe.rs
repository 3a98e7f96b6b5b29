use std::sync::Arc;
use std::time::Instant;

use activity_service::{Action, Activity, ActivityService, DispatchConfig, FnAction, Outcome, Signal};
use orb::{Env, Value};
use tx_models::workflow_signals::{CompletedSignalSet, COMPLETED_SET};
use wfengine::{script, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};

fn time(label: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let mut best = f64::MAX;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(iters));
    }
    println!("{label:<44} {best:9.1} ns");
}

fn main() {
    let env = Env::new();
    time("bare root begin+complete", 200_000, || {
        let a = Activity::new_root("x", Arc::clone(&env));
        a.complete().unwrap();
    });
    let service = ActivityService::new();
    time("service begin+complete", 200_000, || {
        service.begin("x").unwrap();
        service.complete().unwrap();
    });
    let action: Arc<dyn Action> =
        Arc::new(FnAction::new("watch", |_s: &Signal| Ok(Outcome::new("outcome_ack"))));
    for n in [0usize, 1, 2] {
        time(&format!("root + Completed set, {n} actions"), 200_000, || {
            let a = Activity::new_root("x", Arc::clone(&env));
            a.coordinator().set_dispatch_config(DispatchConfig::serial());
            a.coordinator().add_signal_set(Box::new(CompletedSignalSet::new(Value::Null))).unwrap();
            a.set_completion_signal_set(COMPLETED_SET);
            for _ in 0..n {
                a.coordinator().register_action(COMPLETED_SET, Arc::clone(&action));
            }
            a.complete().unwrap();
        });
    }
    time("root + add set (not driven)", 200_000, || {
        let a = Activity::new_root("x", Arc::clone(&env));
        a.coordinator().add_signal_set(Box::new(CompletedSignalSet::new(Value::Null))).unwrap();
        a.complete().unwrap();
    });
    time("just the set: box + get_signal + drop", 200_000, || {
        use activity_service::signal_set::SignalSet;
        let mut s: Box<dyn SignalSet> = Box::new(CompletedSignalSet::new(Value::Null));
        std::hint::black_box(s.get_signal());
        std::hint::black_box(s.get_outcome());
    });
    time("signal + delivery id", 200_000, || {
        let s = Signal::new("outcome", COMPLETED_SET).with_delivery_id(format!("{}:{}:{}", 17, COMPLETED_SET, 1));
        std::hint::black_box(s);
    });
    let root = Activity::new_root("x", Arc::clone(&env));
    time("child begin+complete", 200_000, || {
        let a = root.begin_child("x").unwrap();
        a.complete().unwrap();
    });
    let mut registry = TaskRegistry::new();
    for name in ["price", "pay", "fulfil"] {
        registry.register(name, |_: &TaskInput| TaskResult::ok(Value::Null));
    }
    let graph = script::parse("task price;\ntask pay after price;\ntask fulfil after pay;").unwrap();
    let engine = WorkflowEngine::new(graph, registry).unwrap();
    time("three-task workflow run", 100_000, || {
        engine.run(&service, "order", Value::U64(1)).unwrap();
    });
    time("by hand: wf + 3 children with set + 1 action", 100_000, || {
        let wf = service.begin("order").unwrap();
        for name in ["price", "pay", "fulfil"] {
            let child = wf.begin_child(name).unwrap();
            child.coordinator().add_signal_set(Box::new(CompletedSignalSet::new(Value::Null))).unwrap();
            child.set_completion_signal_set(COMPLETED_SET);
            child.coordinator().register_action(COMPLETED_SET, Arc::clone(&action));
            child.complete().unwrap();
        }
        service.complete().unwrap();
    });
    for n in [0usize, 1, 2, 3, 4] {
        let (graph, registry) = bench::layered_workflow(1, n);
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        time(&format!("chain of {n}"), 100_000, || {
            engine.run(&service, "order", Value::U64(1)).unwrap();
        });
    }
    for n in [1usize, 2, 3, 4] {
        let (graph, registry) = bench::layered_workflow(n, 1);
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        time(&format!("independent {n}"), 100_000, || {
            engine.run(&service, "order", Value::U64(1)).unwrap();
        });
    }
    for (w, d) in [(1usize, 8usize), (1, 64), (8, 1), (8, 2), (8, 4), (8, 8)] {
        let (graph, registry) = bench::layered_workflow(w, d);
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        time(&format!("layered {w}x{d} run"), 2_000, || {
            engine.run(&service, "order", Value::U64(1)).unwrap();
        });
    }
}
