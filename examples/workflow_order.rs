//! Fig. 10 / §4.4: an order-fulfilment workflow — validate, then check
//! stock and take payment in parallel, then ship — written in the scripting
//! DSL and run by the engine, once cleanly and once with a failure that
//! triggers compensation.
//!
//! Run with: `cargo run --example workflow_order`

use activity_service::ActivityService;
use std::sync::Arc;

use orb::{Env, Value};
use telemetry::Telemetry;
use wfengine::{script, FailurePolicy, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};

const SCRIPT: &str = "
    # order fulfilment: a -> (b || c) -> d, as in fig. 10
    task validate;
    task reserve_stock after validate;
    task take_payment after validate;
    task ship after reserve_stock, take_payment;
    compensate reserve_stock with release_stock;
    compensate take_payment with refund_payment;
";

fn registry(payment_fails: bool) -> TaskRegistry {
    let mut registry = TaskRegistry::new();
    registry.register("validate", |input: &TaskInput| {
        println!("  [validate] order {}", input.params);
        TaskResult::ok(Value::from("order-valid"))
    });
    registry.register("reserve_stock", |_i: &TaskInput| {
        println!("  [reserve_stock] 2 units held");
        TaskResult::ok(Value::from("hold-17"))
    });
    registry.register("take_payment", move |_i: &TaskInput| {
        if payment_fails {
            println!("  [take_payment] card declined!");
            TaskResult::failed("card declined")
        } else {
            println!("  [take_payment] charged 59.90");
            TaskResult::ok(Value::from("charge-91"))
        }
    });
    registry.register("ship", |input: &TaskInput| {
        println!(
            "  [ship] shipping with stock hold {} and payment {}",
            input.upstream["reserve_stock"], input.upstream["take_payment"]
        );
        TaskResult::ok(Value::from("tracking-333"))
    });
    registry.register("release_stock", |input: &TaskInput| {
        println!("  [release_stock] undoing {}", input.upstream["reserve_stock"]);
        TaskResult::ok(Value::Null)
    });
    registry.register("refund_payment", |_i: &TaskInput| {
        println!("  [refund_payment] nothing charged, nothing to do");
        TaskResult::ok(Value::Null)
    });
    registry
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = script::parse(SCRIPT)?;
    println!("parsed workflow: tasks {:?}, roots {:?}", graph.task_names(), graph.roots());

    println!("\n== happy path (parallel middle stage) ==");
    // One context for the engine and the activity service: workflow, task,
    // activity and signal-set spans all land in one tree.
    let telemetry = Telemetry::new();
    let env = Env { telemetry: Some(telemetry.clone()), ..Default::default() }.wired();
    let engine = WorkflowEngine::new(graph.clone(), registry(false))?.with_env(Arc::clone(&env));
    let service = ActivityService::builder().env(env).build();
    let report = engine.run_parallel(&service, "order-1", Value::from("order#1"))?;
    println!(
        "completed {:?}; ship output = {}",
        report.completed, report.outputs["ship"]
    );
    assert!(report.succeeded());

    // Every run records a span tree; the coordinator marks its outcome
    // fan-out with msc.* attributes, so the recorded execution renders as
    // the paper's fig. 10-style message-sequence chart.
    let tree = telemetry.span_tree();
    assert!(tree.verify().is_empty(), "span tree must be well-formed: {:?}", tree.verify());
    println!("\n-- recorded message-sequence chart (fig. 10 view) --");
    println!("{}", tree.render_sequence());

    println!("\n== payment declined: compensation sweep ==");
    let telemetry = Telemetry::new();
    let env = Env { telemetry: Some(telemetry.clone()), ..Default::default() }.wired();
    let engine = WorkflowEngine::new(graph, registry(true))?
        .with_policy(FailurePolicy::CompensateAndStop)
        .with_env(Arc::clone(&env));
    let service = ActivityService::builder().env(env).build();
    let report = engine.run(&service, "order-2", Value::from("order#2"))?;
    println!(
        "failed {:?}; skipped {:?}; compensated {:?}",
        report.failed,
        report.skipped,
        report
            .compensations
            .iter()
            .map(|c| c.step.compensation.as_str())
            .collect::<Vec<_>>()
    );
    assert_eq!(report.failed, vec!["take_payment"]);
    assert!(report
        .compensations
        .iter()
        .any(|c| c.step.compensation == "release_stock"));

    let tree = telemetry.span_tree();
    assert!(tree.verify().is_empty(), "span tree must be well-formed: {:?}", tree.verify());
    println!("\n-- recorded message-sequence chart (with compensation) --");
    println!("{}", tree.render_sequence());
    Ok(())
}
