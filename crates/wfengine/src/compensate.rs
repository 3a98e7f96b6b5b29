//! Compensation planning and execution — the fig. 2 failure path.

use std::collections::BTreeMap;

use orb::{Env, Value};

use crate::error::WorkflowError;
use crate::graph::WorkflowGraph;
use crate::task::{TaskInput, TaskRegistry, TaskResult};

/// One planned compensation: undo `task` by running `compensation`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompensationStep {
    /// The completed task being undone.
    pub task: String,
    /// The registered compensation task to run.
    pub compensation: String,
}

/// Record of one executed compensation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompensationRecord {
    /// The planned step.
    pub step: CompensationStep,
    /// Whether the compensation body reported success.
    pub success: bool,
}

/// Plan which compensations to run after a failure: completed tasks that
/// declare a compensation, newest-first (the reverse-execution rule sagas
/// and fig. 2 share).
pub fn plan(graph: &WorkflowGraph, completed_in_order: &[String]) -> Vec<CompensationStep> {
    completed_in_order
        .iter()
        .rev()
        .filter_map(|task| {
            graph.node(task).and_then(|spec| {
                spec.compensation.as_ref().map(|compensation| CompensationStep {
                    task: task.clone(),
                    compensation: compensation.clone(),
                })
            })
        })
        .collect()
}

/// Execute a compensation plan. Each compensation body receives the
/// workflow parameters and, as its single upstream input, the output the
/// compensated task produced ("it is only application programmers who
/// possess sufficient information about the role of data within the
/// application ... to be able to compensate").
///
/// Compensation failures do not stop the sweep — every step runs, and the
/// records say which succeeded. Under live telemetry in `env` the sweep is
/// one `compensation` span (under the caller's ambient span) with a
/// `compensate:{task}` child per step, and each step bumps
/// `wf_compensations_total{status=...}`.
///
/// # Errors
///
/// [`WorkflowError::MissingBody`] when a planned compensation has no
/// registered body (detected before anything runs).
pub fn execute(
    plan: &[CompensationStep],
    registry: &TaskRegistry,
    params: &Value,
    outputs: &BTreeMap<String, Value>,
    env: &Env,
) -> Result<Vec<CompensationRecord>, WorkflowError> {
    let sweep = env.span(|| "compensation".into());
    sweep.attr("planned", plan.len());
    // Validate the whole plan first so a missing body cannot strand a
    // half-compensated workflow.
    for step in plan {
        if registry.body(&step.compensation).is_none() {
            let missing = WorkflowError::MissingBody(step.compensation.clone());
            sweep.attr("error", &missing);
            return Err(missing);
        }
    }
    let mut records = Vec::with_capacity(plan.len());
    for step in plan {
        let body = registry.body(&step.compensation).expect("validated above");
        let mut upstream = BTreeMap::new();
        if let Some(output) = outputs.get(&step.task) {
            upstream.insert(step.task.clone(), output.clone());
        }
        let input = TaskInput { params: params.clone(), upstream };
        let span = sweep.child(|| format!("compensate:{}", step.task));
        span.attr("compensation", &step.compensation);
        span.attr(telemetry::MSC_FROM, "coordinator");
        span.attr(
            telemetry::MSC_NOTE,
            format_args!("compensate {} via {}", step.task, step.compensation),
        );
        let TaskResult { success, .. } = body.execute(&input);
        let status = if success { "ok" } else { "failed" };
        span.attr("outcome", status);
        if let Some(telemetry) = span.telemetry() {
            telemetry.metrics().incr(&format!("wf_compensations_total{{status=\"{status}\"}}"));
        }
        records.push(CompensationRecord { step: step.clone(), success });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn graph_with_compensations() -> WorkflowGraph {
        let mut g = WorkflowGraph::new();
        for t in ["t1", "t2", "t3", "t4"] {
            g.add_task(t).unwrap();
        }
        g.set_compensation("t2", "undo-t2").unwrap();
        g.set_compensation("t3", "undo-t3").unwrap();
        g
    }

    #[test]
    fn plan_is_reverse_order_and_filtered() {
        let g = graph_with_compensations();
        let completed = vec!["t1".to_string(), "t2".to_string(), "t3".to_string()];
        let plan = plan(&g, &completed);
        assert_eq!(
            plan,
            vec![
                CompensationStep { task: "t3".into(), compensation: "undo-t3".into() },
                CompensationStep { task: "t2".into(), compensation: "undo-t2".into() },
            ],
            "t1 has no compensation; order is newest-first"
        );
    }

    #[test]
    fn execute_feeds_each_compensation_its_tasks_output() {
        let g = graph_with_compensations();
        let completed = vec!["t2".to_string()];
        let steps = plan(&g, &completed);

        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let seen2 = Arc::clone(&seen);
        let mut registry = TaskRegistry::new();
        registry.register("undo-t2", move |input: &TaskInput| {
            let original = input.upstream.get("t2").and_then(Value::as_str).unwrap_or("?");
            seen2.lock().push(original.to_owned());
            TaskResult::ok(Value::Null)
        });

        let mut outputs = BTreeMap::new();
        outputs.insert("t2".to_string(), Value::from("booking-42"));
        let records = execute(&steps, &registry, &Value::Null, &outputs, &Env::default()).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].success);
        assert_eq!(*seen.lock(), vec!["booking-42"]);
    }

    #[test]
    fn missing_body_aborts_before_running_anything() {
        let g = graph_with_compensations();
        let completed = vec!["t2".to_string(), "t3".to_string()];
        let steps = plan(&g, &completed);
        let ran = Arc::new(Mutex::new(0u32));
        let ran2 = Arc::clone(&ran);
        let mut registry = TaskRegistry::new();
        registry.register("undo-t3", move |_i: &TaskInput| {
            *ran2.lock() += 1;
            TaskResult::ok(Value::Null)
        });
        // undo-t2 missing.
        let err = execute(&steps, &registry, &Value::Null, &BTreeMap::new(), &Env::default()).unwrap_err();
        assert!(matches!(err, WorkflowError::MissingBody(name) if name == "undo-t2"));
        assert_eq!(*ran.lock(), 0, "nothing may run when the plan is unexecutable");
    }

    #[test]
    fn failed_compensations_do_not_stop_the_sweep() {
        let g = graph_with_compensations();
        let completed = vec!["t2".to_string(), "t3".to_string()];
        let steps = plan(&g, &completed);
        let mut registry = TaskRegistry::new();
        registry.register("undo-t3", |_i: &TaskInput| TaskResult::failed("stuck"));
        registry.register("undo-t2", |_i: &TaskInput| TaskResult::ok(Value::Null));
        let records = execute(&steps, &registry, &Value::Null, &BTreeMap::new(), &Env::default()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(!records[0].success);
        assert!(records[1].success);
    }
}
