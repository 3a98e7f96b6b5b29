//! Workflow definition graphs: tasks, dependencies, join conditions,
//! compensation bindings.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::WorkflowError;

/// When a task with several dependencies becomes ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinKind {
    /// All dependencies must complete successfully.
    #[default]
    All,
    /// Any single successful dependency suffices.
    Any,
}

/// One node of the workflow definition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSpec {
    /// Names of tasks this one waits for.
    pub dependencies: Vec<String>,
    /// Join condition over the dependencies.
    pub join: JoinKind,
    /// Name of the compensation task to run (in reverse completion order)
    /// when a later task fails — the `tc1` of fig. 2.
    pub compensation: Option<String>,
    /// How many times a failed body is re-executed before the failure
    /// counts (0 = no retries).
    pub retries: u32,
}

/// A validated, acyclic workflow definition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkflowGraph {
    nodes: BTreeMap<String, NodeSpec>,
}

impl WorkflowGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task with no dependencies.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::DuplicateTask`].
    pub fn add_task(&mut self, name: impl Into<String>) -> Result<(), WorkflowError> {
        let name = name.into();
        if self.nodes.contains_key(&name) {
            return Err(WorkflowError::DuplicateTask(name));
        }
        self.nodes.insert(name, NodeSpec::default());
        Ok(())
    }

    /// Declare that `task` waits for `on`.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::UnknownTask`] when either side is undefined.
    pub fn add_dependency(&mut self, task: &str, on: &str) -> Result<(), WorkflowError> {
        if !self.nodes.contains_key(on) {
            return Err(WorkflowError::UnknownTask(on.to_owned()));
        }
        let node = self
            .nodes
            .get_mut(task)
            .ok_or_else(|| WorkflowError::UnknownTask(task.to_owned()))?;
        if !node.dependencies.contains(&on.to_owned()) {
            node.dependencies.push(on.to_owned());
        }
        Ok(())
    }

    /// Set `task`'s join condition.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::UnknownTask`].
    pub fn set_join(&mut self, task: &str, join: JoinKind) -> Result<(), WorkflowError> {
        self.nodes
            .get_mut(task)
            .ok_or_else(|| WorkflowError::UnknownTask(task.to_owned()))?
            .join = join;
        Ok(())
    }

    /// Allow `retries` re-executions of a failing body before the failure
    /// is accepted.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::UnknownTask`].
    pub fn set_retries(&mut self, task: &str, retries: u32) -> Result<(), WorkflowError> {
        self.nodes
            .get_mut(task)
            .ok_or_else(|| WorkflowError::UnknownTask(task.to_owned()))?
            .retries = retries;
        Ok(())
    }

    /// Bind a compensation task (run when a downstream failure requires
    /// undoing `task`).
    ///
    /// # Errors
    ///
    /// [`WorkflowError::UnknownTask`].
    pub fn set_compensation(
        &mut self,
        task: &str,
        compensation: impl Into<String>,
    ) -> Result<(), WorkflowError> {
        self.nodes
            .get_mut(task)
            .ok_or_else(|| WorkflowError::UnknownTask(task.to_owned()))?
            .compensation = Some(compensation.into());
        Ok(())
    }

    /// The node spec for `task`.
    pub fn node(&self, task: &str) -> Option<&NodeSpec> {
        self.nodes.get(task)
    }

    /// All task names, sorted.
    pub fn task_names(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Tasks with no dependencies (the entry points).
    pub fn roots(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, spec)| spec.dependencies.is_empty())
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Tasks that directly depend on `task`.
    pub fn dependents(&self, task: &str) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, spec)| spec.dependencies.iter().any(|d| d == task))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Validate the graph: every dependency resolves and there is no cycle.
    /// Returns a topological order.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::UnknownTask`] or [`WorkflowError::Cycle`].
    pub fn validate(&self) -> Result<Vec<String>, WorkflowError> {
        // Kahn's algorithm over indices in name order, with the adjacency
        // built once: each node's in-degree and who depends on it.
        let names: Vec<&String> = self.nodes.keys().collect();
        let mut in_degree = vec![0usize; names.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for (node, spec) in self.nodes.values().enumerate() {
            for dep in &spec.dependencies {
                let dep = names
                    .binary_search(&dep)
                    .map_err(|_| WorkflowError::UnknownTask(dep.clone()))?;
                in_degree[node] += 1;
                dependents[dep].push(node);
            }
        }
        // Smallest index first is smallest name first.
        let mut ready: BTreeSet<usize> =
            (0..names.len()).filter(|&node| in_degree[node] == 0).collect();
        let mut order = Vec::with_capacity(names.len());
        while let Some(next) = ready.pop_first() {
            order.push(names[next].clone());
            for &dependent in &dependents[next] {
                in_degree[dependent] -= 1;
                if in_degree[dependent] == 0 {
                    ready.insert(dependent);
                }
            }
        }
        // A node still waiting on someone sits on a cycle or behind one.
        if let Some(stuck) = in_degree.iter().position(|&degree| degree > 0) {
            return Err(WorkflowError::Cycle(names[stuck].clone()));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WorkflowGraph {
        // a → (b ∥ c) → d : the fig. 10 shape.
        let mut g = WorkflowGraph::new();
        for t in ["a", "b", "c", "d"] {
            g.add_task(t).unwrap();
        }
        g.add_dependency("b", "a").unwrap();
        g.add_dependency("c", "a").unwrap();
        g.add_dependency("d", "b").unwrap();
        g.add_dependency("d", "c").unwrap();
        g
    }

    #[test]
    fn structure_queries() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.roots(), vec!["a"]);
        let mut deps = g.dependents("a");
        deps.sort();
        assert_eq!(deps, vec!["b", "c"]);
        assert_eq!(g.node("d").unwrap().dependencies, vec!["b", "c"]);
        assert!(g.node("ghost").is_none());
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.validate().unwrap();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("a") < pos("b"));
        assert!(pos("a") < pos("c"));
        assert!(pos("b") < pos("d"));
        assert!(pos("c") < pos("d"));
    }

    #[test]
    fn cycles_detected() {
        let mut g = WorkflowGraph::new();
        g.add_task("x").unwrap();
        g.add_task("y").unwrap();
        g.add_dependency("x", "y").unwrap();
        g.add_dependency("y", "x").unwrap();
        assert!(matches!(g.validate(), Err(WorkflowError::Cycle(_))));
        // Self-loop too.
        let mut g = WorkflowGraph::new();
        g.add_task("x").unwrap();
        g.add_dependency("x", "x").unwrap();
        assert!(matches!(g.validate(), Err(WorkflowError::Cycle(_))));
    }

    #[test]
    fn duplicate_and_unknown_tasks_rejected() {
        let mut g = WorkflowGraph::new();
        g.add_task("a").unwrap();
        assert!(matches!(g.add_task("a"), Err(WorkflowError::DuplicateTask(_))));
        assert!(matches!(g.add_dependency("a", "ghost"), Err(WorkflowError::UnknownTask(_))));
        assert!(matches!(g.add_dependency("ghost", "a"), Err(WorkflowError::UnknownTask(_))));
        assert!(matches!(g.set_compensation("ghost", "c"), Err(WorkflowError::UnknownTask(_))));
        assert!(matches!(g.set_join("ghost", JoinKind::Any), Err(WorkflowError::UnknownTask(_))));
    }

    #[test]
    fn compensation_and_join_bindings() {
        let mut g = diamond();
        g.set_compensation("b", "undo-b").unwrap();
        g.set_join("d", JoinKind::Any).unwrap();
        assert_eq!(g.node("b").unwrap().compensation.as_deref(), Some("undo-b"));
        assert_eq!(g.node("d").unwrap().join, JoinKind::Any);
    }

    #[test]
    fn duplicate_dependencies_are_deduplicated() {
        let mut g = diamond();
        g.add_dependency("d", "b").unwrap();
        assert_eq!(g.node("d").unwrap().dependencies, vec!["b", "c"]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = WorkflowGraph::new();
        assert!(g.is_empty());
        assert!(g.validate().unwrap().is_empty());
    }
}
