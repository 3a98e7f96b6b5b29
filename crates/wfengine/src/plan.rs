//! The compiled form of a workflow: everything a run needs that follows
//! from the graph and the registry alone, derived once.
//!
//! A workflow script is static — the graph never changes after
//! [`crate::WorkflowEngine::new`] — so a run has no reason to walk it by
//! name. Tasks are numbered in name order (the order the scheduler starts a
//! ready batch in), every edge is a pair of indices, and every body is
//! already looked up; names are shared handles that a run clones only into
//! what it hands out ([`crate::WorkflowReport`], [`crate::TaskInput`]).

use std::sync::Arc;

use crate::error::WorkflowError;
use crate::graph::{JoinKind, WorkflowGraph};
use crate::task::{Task, TaskRegistry};

/// One task of a [`Plan`]; its index in [`Plan::tasks`] is its identity.
pub(crate) struct PlanTask {
    /// Shared with the task's child activity and its controller.
    pub name: Arc<str>,
    pub body: Arc<dyn Task>,
    pub retries: u32,
    pub join: JoinKind,
    /// Names of the tasks this one waits for, in declaration order — the
    /// order of its controller's outcome slots.
    pub dependencies: Arc<[Arc<str>]>,
    /// The tasks that wait for this one, in name order, each with the slot
    /// this task fills in that dependent's controller.
    pub dependents: Vec<(usize, usize)>,
    /// The compensation bound to the task: its registered name and body.
    pub compensation: Option<(String, Arc<dyn Task>)>,
}

/// A validated graph bound to its bodies, tasks in name order.
pub(crate) struct Plan {
    pub tasks: Vec<PlanTask>,
}

impl Plan {
    /// Validate `graph` and resolve every name in it against `registry`.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Cycle`] / [`WorkflowError::UnknownTask`] from graph
    /// validation; [`WorkflowError::MissingBody`] for the first task (in
    /// name order) whose body, or else whose compensation, is unbound.
    pub fn compile(graph: &WorkflowGraph, registry: &TaskRegistry) -> Result<Plan, WorkflowError> {
        graph.validate()?;
        let body = |name: &str| {
            registry.body(name).ok_or_else(|| WorkflowError::MissingBody(name.to_owned()))
        };
        let mut tasks = Vec::with_capacity(graph.len());
        for name in graph.task_names() {
            let spec = graph.node(&name).expect("listed");
            tasks.push(PlanTask {
                body: body(&name)?,
                retries: spec.retries,
                join: spec.join,
                dependencies: spec.dependencies.iter().map(|d| Arc::from(d.as_str())).collect(),
                dependents: Vec::new(),
                compensation: match &spec.compensation {
                    Some(compensation) => Some((compensation.clone(), body(compensation)?)),
                    None => None,
                },
                name: name.into(),
            });
        }
        // Invert the edges; visiting tasks in name order leaves each
        // dependents list in name order.
        let mut plan = Plan { tasks };
        for task in 0..plan.tasks.len() {
            let dependencies = Arc::clone(&plan.tasks[task].dependencies);
            for (slot, dependency) in dependencies.iter().enumerate() {
                let dependency = plan.index_of(dependency).expect("validated: every edge resolves");
                plan.tasks[dependency].dependents.push((task, slot));
            }
        }
        Ok(plan)
    }

    /// The index of the task named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.tasks.binary_search_by(|task| (*task.name).cmp(name)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script;
    use crate::task::{TaskInput, TaskResult};

    fn registry(names: &[&str]) -> TaskRegistry {
        let mut registry = TaskRegistry::new();
        for name in names {
            registry.register(*name, |_: &TaskInput| TaskResult::ok(orb::Value::Null));
        }
        registry
    }

    #[test]
    fn tasks_are_numbered_in_name_order_and_edges_carry_their_slot() {
        // Declared out of name order; `join` waits for c then a.
        let graph = script::parse(
            "task c;
             task a;
             task join after c, a;
             task b after a;
             compensate a with undo;
             retry b 2;",
        )
        .unwrap();
        let plan = Plan::compile(&graph, &registry(&["a", "b", "c", "join", "undo"])).unwrap();
        let names: Vec<&str> = plan.tasks.iter().map(|task| &*task.name).collect();
        assert_eq!(names, ["a", "b", "c", "join"]);
        assert_eq!(plan.index_of("join"), Some(3));
        assert_eq!(plan.index_of("undo"), None, "a compensation is a body, not a task");
        // a fills slot 0 of b and slot 1 of join; c fills slot 0 of join.
        assert_eq!(plan.tasks[0].dependents, [(1, 0), (3, 1)]);
        assert_eq!(plan.tasks[2].dependents, [(3, 0)]);
        assert!(plan.tasks[3].dependents.is_empty());
        let waits_for: Vec<&str> = plan.tasks[3].dependencies.iter().map(|d| &**d).collect();
        assert_eq!(waits_for, ["c", "a"]);
        assert_eq!(plan.tasks[1].retries, 2);
        assert_eq!(plan.tasks[0].compensation.as_ref().map(|(name, _)| name.as_str()), Some("undo"));
    }

    #[test]
    fn the_first_unbound_name_in_task_order_is_reported() {
        let graph = script::parse("task b;\ntask a;\ncompensate a with undo;").unwrap();
        let missing = |names: &[&str]| match Plan::compile(&graph, &registry(names)) {
            Err(WorkflowError::MissingBody(name)) => name,
            other => panic!("expected a missing body, got {:?}", other.map(|_| ())),
        };
        assert_eq!(missing(&[]), "a");
        assert_eq!(missing(&["a"]), "undo");
        assert_eq!(missing(&["a", "undo"]), "b");
    }
}
