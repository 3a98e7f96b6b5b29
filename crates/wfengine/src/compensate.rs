//! Compensation planning and execution — the fig. 2 failure path.

use std::collections::BTreeMap;

use orb::{Env, Value};

use crate::plan::{Plan, PlanTask};
use crate::task::{TaskInput, TaskResult};

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
pub(crate) fn plan<'p>(plan: &'p Plan, completed_in_order: &[String]) -> Vec<&'p PlanTask> {
    completed_in_order
        .iter()
        .rev()
        .filter_map(|task| plan.index_of(task))
        .map(|task| &plan.tasks[task])
        .filter(|task| task.compensation.is_some())
        .collect()
}

/// Execute a compensation plan. Each compensation body — resolved when the
/// workflow was compiled, so none can be missing here — receives the
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
pub(crate) fn execute(
    plan: &[&PlanTask],
    params: &Value,
    outputs: &BTreeMap<String, Value>,
    env: &Env,
) -> Vec<CompensationRecord> {
    let sweep = env.span(|| "compensation".into());
    sweep.attr("planned", plan.len());
    let mut records = Vec::with_capacity(plan.len());
    for task in plan {
        let (compensation, body) = task.compensation.as_ref().expect("planned steps compensate");
        let step = CompensationStep {
            task: task.name.as_ref().to_owned(),
            compensation: compensation.clone(),
        };
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
        records.push(CompensationRecord { step, success });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkflowGraph;
    use crate::task::TaskRegistry;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// t1..t4 with `undo-t2`/`undo-t3` bound, compiled against `registry`
    /// (forward bodies are filled in as no-ops).
    fn compiled(mut registry: TaskRegistry) -> Plan {
        let mut g = WorkflowGraph::new();
        for t in ["t1", "t2", "t3", "t4"] {
            g.add_task(t).unwrap();
            registry.register(t, |_i: &TaskInput| TaskResult::ok(Value::Null));
        }
        g.set_compensation("t2", "undo-t2").unwrap();
        g.set_compensation("t3", "undo-t3").unwrap();
        Plan::compile(&g, &registry).unwrap()
    }

    fn undo_registry(
        t2: impl Fn(&TaskInput) -> TaskResult + Send + Sync + 'static,
        t3: impl Fn(&TaskInput) -> TaskResult + Send + Sync + 'static,
    ) -> TaskRegistry {
        let mut registry = TaskRegistry::new();
        registry.register("undo-t2", t2);
        registry.register("undo-t3", t3);
        registry
    }

    #[test]
    fn plan_is_reverse_order_and_filtered() {
        let ok = |_i: &TaskInput| TaskResult::ok(Value::Null);
        let compiled = compiled(undo_registry(ok, ok));
        let steps = plan(&compiled, &["t1".into(), "t2".into(), "t3".into()]);
        let undone: Vec<&str> = steps.iter().map(|task| &*task.name).collect();
        assert_eq!(undone, ["t3", "t2"], "t1 has no compensation; order is newest-first");
    }

    #[test]
    fn execute_feeds_each_compensation_its_tasks_output() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let seen2 = Arc::clone(&seen);
        let compiled = compiled(undo_registry(
            move |input: &TaskInput| {
                let original = input.upstream.get("t2").and_then(Value::as_str).unwrap_or("?");
                seen2.lock().push(original.to_owned());
                TaskResult::ok(Value::Null)
            },
            |_i: &TaskInput| TaskResult::ok(Value::Null),
        ));
        let steps = plan(&compiled, &["t2".into()]);

        let mut outputs = BTreeMap::new();
        outputs.insert("t2".to_string(), Value::from("booking-42"));
        let records = execute(&steps, &Value::Null, &outputs, &Env::default());
        assert_eq!(records.len(), 1);
        assert!(records[0].success);
        assert_eq!(
            records[0].step,
            CompensationStep { task: "t2".into(), compensation: "undo-t2".into() }
        );
        assert_eq!(*seen.lock(), vec!["booking-42"]);
    }

    #[test]
    fn failed_compensations_do_not_stop_the_sweep() {
        let compiled = compiled(undo_registry(
            |_i: &TaskInput| TaskResult::ok(Value::Null),
            |_i: &TaskInput| TaskResult::failed("stuck"),
        ));
        let steps = plan(&compiled, &["t2".into(), "t3".into()]);
        let records = execute(&steps, &Value::Null, &BTreeMap::new(), &Env::default());
        assert_eq!(records.len(), 2);
        assert!(!records[0].success);
        assert!(records[1].success);
    }
}
