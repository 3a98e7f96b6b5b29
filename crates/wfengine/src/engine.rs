//! The workflow engine: schedules tasks over the Activity Service using the
//! fig. 10 coordination signals, with fig. 2 compensation on failure.

use std::collections::BTreeMap;
use std::sync::Arc;

use activity_service::{Activity, ActivityService, CompletionStatus};
use orb::pool::{DispatchConfig, Round};
use orb::{Env, Value};
use tx_models::workflow_signals::{CompletedSignalSet, COMPLETED_SET};

use crate::compensate::{self, CompensationRecord};
use crate::controller::{DependencyWatch, TaskController};
use crate::journal::WorkflowJournal;
use crate::error::WorkflowError;
use crate::graph::WorkflowGraph;
use crate::plan::Plan;
use crate::task::{TaskInput, TaskRegistry, TaskResult};

/// What the engine does when a task fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop scheduling and compensate every completed task that declares a
    /// compensation (fig. 2's tc1), newest first.
    #[default]
    CompensateAndStop,
    /// Keep scheduling whatever remains startable (failed dependencies doom
    /// their All-join dependents); no automatic compensation.
    ContinuePossible,
}

/// Where one task of a run stands.
#[derive(Clone, Copy, PartialEq)]
enum Progress {
    /// Not startable yet (or never, once its dependencies have failed).
    Waiting,
    /// In the batch that starts next.
    Queued,
    /// Handed to a batch, replayed from the journal, or failed fast.
    Started,
}

/// Run a body, re-executing on failure up to `retries` extra times.
/// Returns the final result and how many attempts were made.
fn execute_with_retries(
    body: &dyn crate::task::Task,
    input: &TaskInput,
    retries: u32,
) -> (TaskResult, u32) {
    let mut attempts = 1;
    let mut result = body.execute(input);
    for _ in 0..retries {
        if result.success {
            break;
        }
        attempts += 1;
        result = body.execute(input);
    }
    (result, attempts)
}

/// Result of one workflow run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowReport {
    /// Tasks that completed successfully, in completion order.
    pub completed: Vec<String>,
    /// Their outputs.
    pub outputs: BTreeMap<String, Value>,
    /// Tasks whose bodies reported failure.
    pub failed: Vec<String>,
    /// Tasks that never became startable.
    pub skipped: Vec<String>,
    /// Compensations executed (CompensateAndStop only).
    pub compensations: Vec<CompensationRecord>,
}

impl WorkflowReport {
    /// Whether every task completed successfully.
    pub fn succeeded(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }
}

/// Executes a [`WorkflowGraph`] whose node names are bound to bodies in a
/// [`TaskRegistry`]. Graph and registry are compiled into an indexed plan
/// once, here; a run walks the plan and looks nothing up by name.
pub struct WorkflowEngine {
    graph: WorkflowGraph,
    /// Shared with each batch's round of bodies, which may outlive a frame.
    plan: Arc<Plan>,
    policy: FailurePolicy,
    env: Arc<Env>,
}

impl std::fmt::Debug for WorkflowEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowEngine")
            .field("tasks", &self.graph.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl WorkflowEngine {
    /// Build an engine, validating the graph (acyclic, resolvable) and that
    /// every task *and declared compensation* has a registered body.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Cycle`] / [`WorkflowError::UnknownTask`] from graph
    /// validation; [`WorkflowError::MissingBody`] for unbound names.
    pub fn new(graph: WorkflowGraph, registry: TaskRegistry) -> Result<Self, WorkflowError> {
        let plan = Arc::new(Plan::compile(&graph, &registry)?);
        Ok(WorkflowEngine {
            graph,
            plan,
            policy: FailurePolicy::default(),
            env: Env::new(),
        })
    }

    /// Override the failure policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Run under the given context: its failure detector (keyed by task
    /// name) and telemetry shape a run as [`Env`]'s fields describe. Build
    /// the [`ActivityService`] under the same context and the activity and
    /// signal-set spans interleave into the workflow's tree.
    #[must_use]
    pub fn with_env(mut self, env: Arc<Env>) -> Self {
        self.env = env;
        self
    }

    /// The engine's graph.
    pub fn graph(&self) -> &WorkflowGraph {
        &self.graph
    }

    /// Run the workflow single-threaded (deterministic scheduling: ready
    /// tasks run in name order).
    ///
    /// # Errors
    ///
    /// Activity-machinery failures only; task failures land in the report.
    pub fn run(
        &self,
        service: &ActivityService,
        name: &str,
        params: Value,
    ) -> Result<WorkflowReport, WorkflowError> {
        self.run_inner(service, name, params, DispatchConfig::serial(), None)
    }

    /// Run with a durable journal: every task outcome is logged before the
    /// workflow proceeds, and a crashed run resumed with the SAME journal
    /// skips already-completed tasks (their journalled outputs feed the
    /// dependents). Compensation sweeps are not journalled — a resume after
    /// a failure re-plans them from the journalled completions.
    ///
    /// # Errors
    ///
    /// Same as [`WorkflowEngine::run`], plus journal I/O failures.
    pub fn run_journaled(
        &self,
        service: &ActivityService,
        name: &str,
        params: Value,
        journal: &WorkflowJournal,
    ) -> Result<WorkflowReport, WorkflowError> {
        self.run_inner(service, name, params, DispatchConfig::serial(), Some(journal))
    }

    /// Like [`WorkflowEngine::run`] but executes each ready batch of task
    /// bodies concurrently on the shared [`orb::pool::WorkerPool`]
    /// (batch-synchronous parallelism, as wide as the machine; a wider
    /// batch queues); all activity machinery stays on the calling thread.
    ///
    /// # Errors
    ///
    /// Same as [`WorkflowEngine::run`].
    pub fn run_parallel(
        &self,
        service: &ActivityService,
        name: &str,
        params: Value,
    ) -> Result<WorkflowReport, WorkflowError> {
        self.run_inner(service, name, params, DispatchConfig::parallel(), None)
    }

    fn run_inner(
        &self,
        service: &ActivityService,
        name: &str,
        params: Value,
        dispatch: DispatchConfig,
        journal: Option<&WorkflowJournal>,
    ) -> Result<WorkflowReport, WorkflowError> {
        // The `workflow:{name}` span wraps the whole run so every exit path
        // (including activity-machinery errors) closes it.
        let scope = self.env.span(|| format!("workflow:{name}"));
        scope.attr("tasks", self.plan.tasks.len());
        let result = self.run_exec(service, name, params, dispatch, journal);
        match &result {
            Ok(report) => {
                scope.attr("completed", report.completed.len());
                scope.attr("failed", report.failed.len());
                scope.attr("outcome", if report.succeeded() { "success" } else { "failed" });
            }
            Err(e) => scope.attr("error", e),
        }
        result
    }

    fn run_exec(
        &self,
        service: &ActivityService,
        name: &str,
        params: Value,
        dispatch: DispatchConfig,
        journal: Option<&WorkflowJournal>,
    ) -> Result<WorkflowReport, WorkflowError> {
        let tasks = &self.plan.tasks;
        let workflow = service.begin(name)?;
        // Per-run state, indexed like the plan's tasks.
        let controllers: Arc<[TaskController]> = tasks
            .iter()
            .map(|task| {
                TaskController::new(Arc::clone(&task.name), Arc::clone(&task.dependencies), task.join)
            })
            .collect();
        let mut progress = vec![Progress::Waiting; tasks.len()];
        let mut report = WorkflowReport {
            completed: Vec::new(),
            outputs: BTreeMap::new(),
            failed: Vec::new(),
            skipped: Vec::new(),
            compensations: Vec::new(),
        };

        // Resume: journalled outcomes count as already executed — feed the
        // dependents' controllers and skip re-execution.
        let mut prior_failure = false;
        if let Some(journal) = journal {
            for outcome in journal.replay()? {
                let Some(task) = self
                    .plan
                    .index_of(&outcome.task)
                    .filter(|&task| progress[task] == Progress::Waiting)
                else {
                    continue; // stale entry for a task no longer defined
                };
                progress[task] = Progress::Started;
                for &(dependent, slot) in &tasks[task].dependents {
                    controllers[dependent].note_outcome(slot, outcome.success, outcome.output.clone());
                }
                if outcome.success {
                    report.outputs.insert(outcome.task.clone(), outcome.output);
                    report.completed.push(outcome.task);
                } else {
                    report.failed.push(outcome.task);
                    prior_failure = true;
                }
            }
        }

        // The batch to start next, in name order. A task becomes ready only
        // when a dependency reports, so after this one scan the next batch
        // is found among the dependents of the batch just finished.
        let mut ready: Vec<usize> = Vec::new();
        let queue_if_ready = |task: usize, progress: &mut [Progress], ready: &mut Vec<usize>| {
            if progress[task] == Progress::Waiting && controllers[task].is_ready() {
                progress[task] = Progress::Queued;
                ready.push(task);
            }
        };
        if !(prior_failure && self.policy == FailurePolicy::CompensateAndStop) {
            (0..tasks.len()).for_each(|task| queue_if_ready(task, &mut progress, &mut ready));
        }
        let mut results: Vec<(usize, TaskResult, u32)> = Vec::new();
        'schedule: while !ready.is_empty() {
            for &task in &ready {
                progress[task] = Progress::Started;
            }

            // Quarantined participants fail fast instead of executing: the
            // detector has given up on them for now, so the policy reroutes
            // (ContinuePossible) or compensates (CompensateAndStop) without
            // burning their retry budgets. Skip decisions are computed once
            // per task (`should_skip` claims half-open probe slots).
            let mut quarantined: Vec<usize> = Vec::new();
            if let Some(detector) = &self.env.detector {
                ready.retain(|&task| {
                    let skip = detector.should_skip(&tasks[task].name);
                    if skip {
                        quarantined.push(task);
                    }
                    !skip
                });
            }

            // Execute the batch's bodies as one round (concurrently when
            // asked — a body's panic surfaces here either way); the
            // signalling below stays on this thread.
            let jobs: Vec<(usize, TaskInput)> = ready
                .iter()
                .map(|&task| {
                    let upstream = controllers[task].inputs();
                    (task, TaskInput { params: params.clone(), upstream })
                })
                .collect();
            let mut round = Round::start(dispatch, jobs.len(), {
                let plan = Arc::clone(&self.plan);
                move |index| {
                    let (task, input) = &jobs[index];
                    let task = &plan.tasks[*task];
                    execute_with_retries(&*task.body, input, task.retries)
                }
            });
            results.clear();
            results.extend(ready.iter().enumerate().map(|(index, &task)| {
                let (result, attempts) = round.take(index);
                (task, result, attempts)
            }));

            // Feed the detector from *executed* results only, then append
            // the quarantine failures (after the executed batch, so its
            // successes still reach the journal and report before a
            // CompensateAndStop break).
            if let Some(detector) = &self.env.detector {
                for (task, result, _) in &results {
                    if result.success {
                        detector.record_success(&tasks[*task].name);
                    } else {
                        detector.record_failure(&tasks[*task].name);
                    }
                }
            }
            results.extend(quarantined.into_iter().map(|task| {
                let name = &tasks[task].name;
                (task, TaskResult::failed(format!("participant {name} quarantined")), 0)
            }));

            ready.clear();
            for (task, result, attempts) in results.drain(..) {
                let name = &tasks[task].name;
                // The `task:{name}` span covers journaling plus the fig. 10
                // outcome exchange (the Completed child activity itself
                // parents under the workflow activity, per fig. 4).
                let status = if result.success { "ok" } else { "failed" };
                let task_scope = self.env.span(|| format!("task:{name}"));
                task_scope.attr("attempts", attempts);
                task_scope.attr("outcome", status);
                let notified = (|| {
                    if let Some(journal) = journal {
                        journal.record(name, result.success, &result.output)?;
                    }
                    self.notify_completion(&workflow, task, &result, &controllers)
                })();
                if let Err(e) = &notified {
                    task_scope.attr("error", e);
                }
                if let Some(telemetry) = task_scope.telemetry() {
                    telemetry.metrics().incr(&format!("wf_tasks_total{{status=\"{status}\"}}"));
                    telemetry.metrics().add("wf_task_attempts_total", u64::from(attempts));
                }
                drop(task_scope);
                notified?;
                if result.success {
                    report.outputs.insert(name.as_ref().to_owned(), result.output);
                    report.completed.push(name.as_ref().to_owned());
                } else {
                    report.failed.push(name.as_ref().to_owned());
                    if self.policy == FailurePolicy::CompensateAndStop {
                        break 'schedule;
                    }
                }
                // Whoever this outcome made startable joins the next batch.
                for &(dependent, _) in &tasks[task].dependents {
                    queue_if_ready(dependent, &mut progress, &mut ready);
                }
            }
            ready.sort_unstable();
        }

        // Whatever never became startable (a required dependency failed, or
        // scheduling stopped first) is skipped; indices are in name order.
        report.skipped.extend(
            (0..tasks.len())
                .filter(|&task| progress[task] != Progress::Started)
                .map(|task| tasks[task].name.as_ref().to_owned()),
        );

        if !report.failed.is_empty() && self.policy == FailurePolicy::CompensateAndStop {
            let plan = compensate::plan(&self.plan, &report.completed);
            report.compensations = compensate::execute(&plan, &params, &report.outputs, &self.env);
        }

        if report.failed.is_empty() {
            service.complete()?;
        } else {
            service.complete_with_status(CompletionStatus::FailOnly)?;
        }
        Ok(report)
    }

    /// Drive the fig. 10 outcome exchange for one finished task: a child
    /// activity whose Completed SignalSet notifies every dependent's
    /// controller.
    fn notify_completion(
        &self,
        workflow: &Activity,
        task: usize,
        result: &TaskResult,
        controllers: &Arc<[TaskController]>,
    ) -> Result<(), WorkflowError> {
        let task = &self.plan.tasks[task];
        let child = workflow.begin_child(Arc::clone(&task.name))?;
        // The watches are memory writes on this thread's own controllers:
        // handing them to the pool costs more than making them.
        child.coordinator().set_dispatch_config(DispatchConfig::serial());
        child
            .coordinator()
            .add_signal_set(Box::new(CompletedSignalSet::new(result.output.clone())))?;
        child.set_completion_signal_set(COMPLETED_SET);
        for &(dependent, slot) in &task.dependents {
            let watch = DependencyWatch::new(Arc::clone(controllers), dependent, slot);
            child.coordinator().register_action(COMPLETED_SET, watch as _);
        }
        let status = if result.success {
            CompletionStatus::Success
        } else {
            CompletionStatus::FailOnly
        };
        child.complete_with_status(status)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::JoinKind;
    use crate::script;
    use parking_lot::Mutex;

    fn diamond_graph() -> WorkflowGraph {
        script::parse(
            "task a;
             task b after a;
             task c after a;
             task d after b, c;",
        )
        .unwrap()
    }

    fn recording_registry(
        names: &[&str],
        log: &Arc<Mutex<Vec<String>>>,
    ) -> TaskRegistry {
        let mut registry = TaskRegistry::new();
        for name in names {
            let log = Arc::clone(log);
            let name_owned = (*name).to_owned();
            registry.register(*name, move |_i: &TaskInput| {
                log.lock().push(name_owned.clone());
                TaskResult::ok(Value::from(name_owned.as_str()))
            });
        }
        registry
    }

    #[test]
    fn diamond_runs_in_dependency_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = recording_registry(&["a", "b", "c", "d"], &log);
        let engine = WorkflowEngine::new(diamond_graph(), registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run(&service, "diamond", Value::Null).unwrap();
        assert!(report.succeeded());
        assert_eq!(report.completed, vec!["a", "b", "c", "d"]);
        let order = log.lock().clone();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("a") < pos("b") && pos("a") < pos("c") && pos("b") < pos("d"));
    }

    #[test]
    fn parallel_run_matches_sequential_results() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = recording_registry(&["a", "b", "c", "d"], &log);
        let engine = WorkflowEngine::new(diamond_graph(), registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run_parallel(&service, "diamond", Value::Null).unwrap();
        assert!(report.succeeded());
        assert_eq!(report.outputs.len(), 4);

        // One ready batch wider than the shared pool: the surplus queues
        // behind the workers (and the collating thread helps) instead of
        // each task getting a thread of its own.
        let width = orb::pool::WorkerPool::global().workers() * 2 + 3;
        let names: Vec<String> = (0..width).map(|i| format!("t{i:03}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut graph = WorkflowGraph::new();
        for name in &names {
            graph.add_task(*name).unwrap();
        }
        let engine = WorkflowEngine::new(graph, recording_registry(&names, &log)).unwrap();
        let sequential = engine.run(&service, "wide", Value::Null).unwrap();
        let parallel = engine.run_parallel(&service, "wide", Value::Null).unwrap();
        assert!(parallel.succeeded());
        assert_eq!(parallel, sequential, "same report, collated in name order");
    }

    #[test]
    fn upstream_outputs_flow_downstream() {
        let graph = script::parse("task price;\ntask invoice after price;").unwrap();
        let mut registry = TaskRegistry::new();
        registry.register("price", |_i: &TaskInput| TaskResult::ok(Value::from(42i64)));
        registry.register("invoice", |input: &TaskInput| {
            let price = input.upstream.get("price").and_then(Value::as_i64).unwrap();
            TaskResult::ok(Value::from(price * 2))
        });
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run(&service, "billing", Value::Null).unwrap();
        assert_eq!(report.outputs["invoice"].as_i64(), Some(84));
    }

    #[test]
    fn fig2_failure_compensates_completed_tasks_in_reverse() {
        // t1 → t2 → t3 → t4; t4 fails; tc compensates t2 and t3 newest-first.
        let graph = script::parse(
            "task t1;
             task t2 after t1;
             task t3 after t2;
             task t4 after t3;
             compensate t2 with undo_t2;
             compensate t3 with undo_t3;",
        )
        .unwrap();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let mut registry = recording_registry(&["t1", "t2", "t3"], &log);
        registry.register("t4", |_i: &TaskInput| TaskResult::failed("hotel full"));
        for undo in ["undo_t2", "undo_t3"] {
            let log = Arc::clone(&log);
            let undo_owned = undo.to_owned();
            registry.register(undo, move |_i: &TaskInput| {
                log.lock().push(undo_owned.clone());
                TaskResult::ok(Value::Null)
            });
        }
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run(&service, "trip", Value::Null).unwrap();
        assert_eq!(report.failed, vec!["t4"]);
        assert_eq!(report.completed, vec!["t1", "t2", "t3"]);
        assert_eq!(report.compensations.len(), 2);
        assert_eq!(report.compensations[0].step.task, "t3");
        assert_eq!(report.compensations[1].step.task, "t2");
        assert_eq!(
            *log.lock(),
            vec!["t1", "t2", "t3", "undo_t3", "undo_t2"],
            "compensation is newest-first after the forward path"
        );
        assert!(!report.succeeded());
    }

    #[test]
    fn quarantined_task_fails_fast_and_compensates_the_completed_prefix() {
        use orb::detector::{DetectorConfig, FailureDetector};
        use orb::SimClock;

        let graph = script::parse(
            "task t1;
             task t2 after t1;
             compensate t1 with undo_t1;",
        )
        .unwrap();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let mut registry = recording_registry(&["t1", "t2"], &log);
        {
            let log = Arc::clone(&log);
            registry.register("undo_t1", move |_i: &TaskInput| {
                log.lock().push("undo_t1".into());
                TaskResult::ok(Value::Null)
            });
        }
        let detector = FailureDetector::with_config(
            SimClock::new(),
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 2,
                probe_interval: std::time::Duration::from_secs(1),
            },
        );
        detector.record_failure("t2");
        detector.record_failure("t2");
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_env(Env { detector: Some(detector), ..Default::default() }.wired());
        let service = ActivityService::new();
        let report = engine.run(&service, "trip", Value::Null).unwrap();
        assert_eq!(report.failed, vec!["t2"]);
        assert_eq!(report.compensations.len(), 1);
        assert_eq!(
            *log.lock(),
            vec!["t1", "undo_t1"],
            "t2's body never executed; t1 compensated immediately"
        );
    }

    #[test]
    fn detector_reroutes_around_a_quarantined_branch_under_continue_policy() {
        use orb::detector::{DetectorConfig, FailureDetector};
        use orb::SimClock;

        let graph = script::parse(
            "task a;
             task bad after a;
             task ok after a;
             task tail after ok;",
        )
        .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = recording_registry(&["a", "bad", "ok", "tail"], &log);
        let detector = FailureDetector::with_config(
            SimClock::new(),
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 1,
                probe_interval: std::time::Duration::from_secs(1),
            },
        );
        detector.record_failure("bad");
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_policy(FailurePolicy::ContinuePossible)
            .with_env(Env { detector: Some(detector.clone()), ..Default::default() }.wired());
        let service = ActivityService::new();
        let report = engine.run(&service, "route", Value::Null).unwrap();
        assert_eq!(report.failed, vec!["bad"]);
        assert_eq!(report.completed, vec!["a", "ok", "tail"], "healthy branch still ran");
        assert!(!log.lock().contains(&"bad".to_owned()), "quarantined body not executed");
        // Executed successes rehabilitate their participants.
        assert_eq!(detector.suspicion("a"), 0);
    }

    #[test]
    fn continue_policy_skips_doomed_branches_only() {
        //      a
        //    /   \
        //  bad    ok
        //   |      |
        // child   tail
        let graph = script::parse(
            "task a;
             task bad after a;
             task ok after a;
             task child after bad;
             task tail after ok;",
        )
        .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut registry = recording_registry(&["a", "ok", "tail", "child"], &log);
        registry.register("bad", |_i: &TaskInput| TaskResult::failed("nope"));
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_policy(FailurePolicy::ContinuePossible);
        let service = ActivityService::new();
        let report = engine.run(&service, "partial", Value::Null).unwrap();
        assert_eq!(report.failed, vec!["bad"]);
        assert_eq!(report.skipped, vec!["child"]);
        assert!(report.completed.contains(&"tail".to_string()));
        assert!(report.compensations.is_empty());
    }

    #[test]
    fn any_join_proceeds_past_a_failed_alternative() {
        let mut graph = script::parse(
            "task theatre;
             task cinema;
             task dinner after theatre, cinema any;",
        )
        .unwrap();
        graph.set_join("dinner", JoinKind::Any).unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut registry = recording_registry(&["cinema", "dinner"], &log);
        registry.register("theatre", |_i: &TaskInput| TaskResult::failed("sold out"));
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_policy(FailurePolicy::ContinuePossible);
        let service = ActivityService::new();
        let report = engine.run(&service, "evening", Value::Null).unwrap();
        assert!(report.completed.contains(&"dinner".to_string()));
        assert_eq!(report.failed, vec!["theatre"]);
    }

    #[test]
    fn any_join_whose_alternatives_all_failed_is_skipped_with_its_dependents() {
        let mut graph = script::parse(
            "task theatre;
             task cinema;
             task dinner after theatre, cinema;
             task taxi after dinner;
             task nightcap;",
        )
        .unwrap();
        graph.set_join("dinner", JoinKind::Any).unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut registry = recording_registry(&["dinner", "taxi", "nightcap"], &log);
        registry.register("theatre", |_i: &TaskInput| TaskResult::failed("sold out"));
        registry.register("cinema", |_i: &TaskInput| TaskResult::failed("closed"));
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_policy(FailurePolicy::ContinuePossible);
        let service = ActivityService::new();
        let report = engine.run(&service, "evening", Value::Null).unwrap();
        assert_eq!(report.failed, vec!["cinema", "theatre"]);
        assert_eq!(report.completed, vec!["nightcap"]);
        assert_eq!(report.skipped, vec!["dinner", "taxi"], "name order, doomed and stranded alike");
        assert_eq!(*log.lock(), vec!["nightcap"]);
    }

    #[test]
    fn missing_bodies_rejected_eagerly() {
        let graph = script::parse("task a;\ncompensate a with undo_a;").unwrap();
        let mut registry = TaskRegistry::new();
        registry.register("a", |_i: &TaskInput| TaskResult::ok(Value::Null));
        // undo_a unbound.
        assert!(matches!(
            WorkflowEngine::new(graph, registry),
            Err(WorkflowError::MissingBody(name)) if name == "undo_a"
        ));

        let graph = script::parse("task a;").unwrap();
        assert!(matches!(
            WorkflowEngine::new(graph, TaskRegistry::new()),
            Err(WorkflowError::MissingBody(_))
        ));
    }

    #[test]
    fn empty_workflow_succeeds_trivially() {
        let engine = WorkflowEngine::new(WorkflowGraph::new(), TaskRegistry::new()).unwrap();
        let service = ActivityService::new();
        let report = engine.run(&service, "empty", Value::Null).unwrap();
        assert!(report.succeeded());
        assert!(report.completed.is_empty());
    }

    #[test]
    fn workflow_activity_tree_mirrors_execution() {
        let graph = script::parse("task a;\ntask b after a;").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = recording_registry(&["a", "b"], &log);
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        // The service keeps no registry of finished work; look under a
        // parent begun here.
        let parent = service.begin("parent").unwrap();
        engine.run(&service, "wf", Value::Null).unwrap();
        service.complete().unwrap();
        let runs = parent.children();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].name(), "wf");
        let child_names: Vec<String> =
            runs[0].children().iter().map(|c| c.name().to_owned()).collect();
        assert_eq!(child_names, vec!["a", "b"]);
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::script;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn flaky_task_recovers_within_its_retries() {
        let graph = script::parse(
            "task flaky;
             retry flaky 3;",
        )
        .unwrap();
        let attempts = Arc::new(Mutex::new(0u32));
        let attempts2 = Arc::clone(&attempts);
        let mut registry = TaskRegistry::new();
        registry.register("flaky", move |_i: &TaskInput| {
            let mut a = attempts2.lock();
            *a += 1;
            if *a < 3 {
                TaskResult::failed("transient")
            } else {
                TaskResult::ok(Value::Null)
            }
        });
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run(&service, "retry-wf", Value::Null).unwrap();
        assert!(report.succeeded());
        assert_eq!(*attempts.lock(), 3, "two retries after the first failure");
    }

    #[test]
    fn exhausted_retries_still_fail() {
        let graph = script::parse(
            "task hopeless;
             retry hopeless 2;",
        )
        .unwrap();
        let attempts = Arc::new(Mutex::new(0u32));
        let attempts2 = Arc::clone(&attempts);
        let mut registry = TaskRegistry::new();
        registry.register("hopeless", move |_i: &TaskInput| {
            *attempts2.lock() += 1;
            TaskResult::failed("permanent")
        });
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run(&service, "retry-wf", Value::Null).unwrap();
        assert_eq!(report.failed, vec!["hopeless"]);
        assert_eq!(*attempts.lock(), 3, "initial attempt + 2 retries");
    }

    #[test]
    fn retry_statement_parse_errors() {
        assert!(script::parse("task a;\nretry a;").is_err());
        assert!(script::parse("task a;\nretry a lots;").is_err());
        assert!(script::parse("task a;\nretry a 2 extra;").is_err());
        assert!(script::parse("retry ghost 2;\ntask a;").is_err());
        let graph = script::parse("task a;\nretry a 4;").unwrap();
        assert_eq!(graph.node("a").unwrap().retries, 4);
    }
}

#[cfg(test)]
mod journal_tests {
    use super::*;
    use crate::journal::WorkflowJournal;
    use crate::script;
    use parking_lot::Mutex;
    use recovery_log::{MemWal, Wal};
    use std::sync::Arc;

    /// A registry whose `crash_at` task panics the first time (simulating a
    /// dying engine) and works thereafter.
    fn crashy_registry(
        executed: &Arc<Mutex<Vec<String>>>,
        crash_armed: &Arc<Mutex<bool>>,
    ) -> TaskRegistry {
        let mut registry = TaskRegistry::new();
        for name in ["extract", "transform", "load"] {
            let executed = Arc::clone(executed);
            let crash_armed = Arc::clone(crash_armed);
            let name_owned = name.to_owned();
            registry.register(name, move |input: &TaskInput| {
                if name_owned == "transform" && *crash_armed.lock() {
                    // The "crash": engine thread dies mid-workflow.
                    panic!("engine crash injected");
                }
                executed.lock().push(name_owned.clone());
                let upstream_sum: i64 = input
                    .upstream
                    .values()
                    .filter_map(Value::as_i64)
                    .sum();
                TaskResult::ok(Value::I64(upstream_sum + 1))
            });
        }
        registry
    }

    #[test]
    fn journaled_run_resumes_after_a_crash() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let graph = script::parse(
            "task extract;
             task transform after extract;
             task load after transform;",
        )
        .unwrap();
        let executed = Arc::new(Mutex::new(Vec::new()));
        let crash_armed = Arc::new(Mutex::new(true));

        // --- run 1: crashes inside `transform`. ---
        {
            let registry = crashy_registry(&executed, &crash_armed);
            let engine = WorkflowEngine::new(graph.clone(), registry).unwrap();
            let journal = WorkflowJournal::new("etl-1", Arc::clone(&wal));
            let service = ActivityService::new();
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = engine.run_journaled(&service, "etl-1", Value::Null, &journal);
            }));
            assert!(crashed.is_err(), "the injected crash must fire");
        }
        assert_eq!(*executed.lock(), vec!["extract"], "only extract ran before the crash");

        // --- run 2: same journal; extract is NOT re-executed. ---
        *crash_armed.lock() = false;
        let registry = crashy_registry(&executed, &crash_armed);
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let journal = WorkflowJournal::new("etl-1", Arc::clone(&wal));
        let service = ActivityService::new();
        let report = engine.run_journaled(&service, "etl-1", Value::Null, &journal).unwrap();
        assert!(report.succeeded());
        assert_eq!(
            *executed.lock(),
            vec!["extract", "transform", "load"],
            "each task executed exactly once across both incarnations"
        );
        // The journalled extract output flowed into transform on resume.
        assert_eq!(report.outputs["transform"].as_i64(), Some(2));
        assert_eq!(report.outputs["load"].as_i64(), Some(3));
    }

    #[test]
    fn resumed_failure_is_not_rerun_under_compensate_policy() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let graph = script::parse(
            "task a;
             task b after a;
             compensate a with undo_a;",
        )
        .unwrap();
        let journal = WorkflowJournal::new("wf", Arc::clone(&wal));
        // Pre-populate the journal as if a previous run completed `a` and
        // failed `b`.
        journal.record("a", true, &Value::from(1i64)).unwrap();
        journal.record("b", false, &Value::from("boom")).unwrap();

        let undone = Arc::new(Mutex::new(0u32));
        let undone2 = Arc::clone(&undone);
        let mut registry = TaskRegistry::new();
        registry.register("a", |_i: &TaskInput| panic!("a must not re-run"));
        registry.register("b", |_i: &TaskInput| panic!("b must not re-run"));
        registry.register("undo_a", move |_i: &TaskInput| {
            *undone2.lock() += 1;
            TaskResult::ok(Value::Null)
        });
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run_journaled(&service, "wf", Value::Null, &journal).unwrap();
        assert_eq!(report.failed, vec!["b"]);
        assert_eq!(report.completed, vec!["a"]);
        assert_eq!(*undone.lock(), 1, "compensation re-planned from the journal");
    }

    #[test]
    fn resume_ignores_stale_and_repeated_journal_entries() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let graph = script::parse("task a;\ntask b after a;\ntask c after b;").unwrap();
        let journal = WorkflowJournal::new("wf", Arc::clone(&wal));
        // A task the script no longer defines, `a` done, and `a` again with
        // a different output: only the first `a` counts.
        journal.record("retired", true, &Value::from(100i64)).unwrap();
        journal.record("a", true, &Value::from(1i64)).unwrap();
        journal.record("a", false, &Value::from("late duplicate")).unwrap();

        let mut registry = TaskRegistry::new();
        registry.register("a", |_i: &TaskInput| panic!("a must not re-run"));
        for name in ["b", "c"] {
            registry.register(name, |input: &TaskInput| {
                let sum: i64 = input.upstream.values().filter_map(Value::as_i64).sum();
                TaskResult::ok(Value::I64(sum + 1))
            });
        }
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let service = ActivityService::new();
        let report = engine.run_journaled(&service, "wf", Value::Null, &journal).unwrap();
        assert!(report.succeeded(), "{report:?}");
        assert_eq!(report.completed, vec!["a", "b", "c"]);
        assert_eq!(report.outputs["b"].as_i64(), Some(2), "fed by the journalled output of a");
        assert_eq!(report.outputs["c"].as_i64(), Some(3));
        assert!(!report.outputs.contains_key("retired"));
    }

    #[test]
    fn fresh_journal_behaves_like_plain_run() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let graph = script::parse("task only;").unwrap();
        let mut registry = TaskRegistry::new();
        registry.register("only", |_i: &TaskInput| TaskResult::ok(Value::from(7i64)));
        let engine = WorkflowEngine::new(graph, registry).unwrap();
        let journal = WorkflowJournal::new("wf-x", Arc::clone(&wal));
        let service = ActivityService::new();
        let report = engine.run_journaled(&service, "wf-x", Value::Null, &journal).unwrap();
        assert!(report.succeeded());
        // The outcome is durable.
        assert_eq!(journal.replay().unwrap().len(), 1);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::script;
    use telemetry::Telemetry;

    #[test]
    fn task_spans_join_the_activity_tree() {
        let graph = script::parse("task a;\ntask b after a;").unwrap();
        let mut registry = TaskRegistry::new();
        registry.register("a", |_i: &TaskInput| TaskResult::ok(Value::Null));
        registry.register("b", |_i: &TaskInput| TaskResult::ok(Value::Null));
        let tel = Telemetry::new();
        let env = Env { telemetry: Some(tel.clone()), ..Default::default() }.wired();
        let engine = WorkflowEngine::new(graph, registry).unwrap().with_env(Arc::clone(&env));
        let service = ActivityService::builder().env(env).build();
        let report = engine.run(&service, "wf", Value::Null).unwrap();
        assert!(report.succeeded());

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "workflow:wf");
        assert_eq!(roots[0].attr("outcome"), Some("success"));
        let wf_activity = tree.children(roots[0].context.span_id)[0];
        assert_eq!(wf_activity.name, "activity:wf");
        let names: Vec<&str> = tree
            .children(wf_activity.context.span_id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["task:a", "task:b"]);
        // Each task span covers its fig. 10 outcome exchange: the Completed
        // SignalSet run nests underneath.
        let task_a = tree.find("task:a").unwrap();
        let exchanges: Vec<&str> = tree
            .children(task_a.context.span_id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(exchanges.contains(&"signal_set:CompletedSignalSet"), "{exchanges:?}");
        assert_eq!(task_a.attr("attempts"), Some("1"));
        assert_eq!(tel.metrics().counter_value("wf_tasks_total{status=\"ok\"}"), 2);
    }

    #[test]
    fn compensation_sweep_is_traced() {
        let graph =
            script::parse("task t1;\ntask t2 after t1;\ncompensate t1 with undo_t1;").unwrap();
        let mut registry = TaskRegistry::new();
        registry.register("t1", |_i: &TaskInput| TaskResult::ok(Value::Null));
        registry.register("t2", |_i: &TaskInput| TaskResult::failed("hotel full"));
        registry.register("undo_t1", |_i: &TaskInput| TaskResult::ok(Value::Null));
        let tel = Telemetry::new();
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_env(Env { telemetry: Some(tel.clone()), ..Default::default() }.wired());
        let service = ActivityService::new();
        let report = engine.run(&service, "trip", Value::Null).unwrap();
        assert_eq!(report.compensations.len(), 1);

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        let root = &tree.roots()[0];
        assert_eq!(root.name, "workflow:trip");
        assert_eq!(root.attr("outcome"), Some("failed"));
        let sweep = tree.find("compensation").expect("sweep span recorded");
        let steps = tree.children(sweep.context.span_id);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].name, "compensate:t1");
        assert_eq!(steps[0].attr("outcome"), Some("ok"));
        assert_eq!(steps[0].attr("compensation"), Some("undo_t1"));
        assert_eq!(tel.metrics().counter_value("wf_compensations_total{status=\"ok\"}"), 1);
        assert_eq!(tel.metrics().counter_value("wf_tasks_total{status=\"failed\"}"), 1);
    }

    #[test]
    fn retry_attempts_land_in_the_task_span() {
        let graph = script::parse("task flaky;\nretry flaky 3;").unwrap();
        let attempts = Arc::new(parking_lot::Mutex::new(0u32));
        let attempts2 = Arc::clone(&attempts);
        let mut registry = TaskRegistry::new();
        registry.register("flaky", move |_i: &TaskInput| {
            let mut a = attempts2.lock();
            *a += 1;
            if *a < 3 { TaskResult::failed("transient") } else { TaskResult::ok(Value::Null) }
        });
        let tel = Telemetry::new();
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_env(Env { telemetry: Some(tel.clone()), ..Default::default() }.wired());
        let service = ActivityService::new();
        let report = engine.run(&service, "retry-wf", Value::Null).unwrap();
        assert!(report.succeeded());
        let tree = tel.span_tree();
        assert_eq!(tree.find("task:flaky").unwrap().attr("attempts"), Some("3"));
        assert_eq!(tel.metrics().counter_value("wf_task_attempts_total"), 3);
    }
}

