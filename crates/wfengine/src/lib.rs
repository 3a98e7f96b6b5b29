//! An OPENflow-style transactional workflow engine over the Activity
//! Service — the paper's §4.4 and reference \[15\].
//!
//! "Transactional workflow systems with scripting facilities for expressing
//! the composition of an activity (a business process) offer a flexible way
//! of building application specific extended transactions."
//!
//! * [`graph::WorkflowGraph`] — tasks, dependencies, join conditions and
//!   compensation bindings;
//! * [`script`] — the scripting facility (`task hotel after restaurant,
//!   theatre; compensate restaurant with unbook;`);
//! * [`task`] — executable bodies, bound by name in a
//!   [`task::TaskRegistry`];
//! * [`controller::TaskController`] — the OPENflow task-controller objects
//!   that "receive notifications of outputs of other task controllers and
//!   use this information to determine when its associated task can be
//!   started";
//! * [`engine::WorkflowEngine`] — schedules over the Activity Service: one
//!   child activity per task, fig. 10 `outcome` signals to dependents, and
//!   the fig. 2 compensation sweep on failure ([`compensate`]).
//!
//! # Example
//!
//! ```
//! use orb::Value;
//! use wfengine::{script, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};
//! use activity_service::ActivityService;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = script::parse("task quote;\ntask order after quote;")?;
//! let mut registry = TaskRegistry::new();
//! registry.register("quote", |_: &TaskInput| TaskResult::ok(Value::from(99i64)));
//! registry.register("order", |input: &TaskInput| {
//!     TaskResult::ok(input.upstream["quote"].clone())
//! });
//! let engine = WorkflowEngine::new(graph, registry)?;
//! let report = engine.run(&ActivityService::new(), "purchase", Value::Null)?;
//! assert!(report.succeeded());
//! # Ok(())
//! # }
//! ```

pub mod compensate;
pub mod controller;
pub mod engine;
pub mod error;
pub mod graph;
pub mod journal;
mod plan;
pub mod script;
pub mod task;

pub use compensate::{CompensationRecord, CompensationStep};
pub use controller::{DependencyWatch, TaskController};
pub use engine::{FailurePolicy, WorkflowEngine, WorkflowReport};
pub use error::WorkflowError;
pub use graph::{JoinKind, NodeSpec, WorkflowGraph};
pub use journal::{JournalledOutcome, WorkflowJournal};
pub use task::{Task, TaskInput, TaskRegistry, TaskResult};
