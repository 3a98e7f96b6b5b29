//! Workflow journalling: resume a half-finished workflow after a crash.
//!
//! OPENflow — the system §4.4's coordination scheme comes from — is a
//! *transactional* workflow system: task controllers are persistent
//! objects, so a workflow survives the failure of the engine driving it.
//! This module supplies that durability: task outcomes are journalled to a
//! [`Wal`] as they happen, and [`WorkflowJournal::replay`] pre-loads a new
//! run's controllers so completed work is not re-executed.

use orb::{MapWriter, Value};
use recovery_log::{Hold, Lsn, Wal};
use std::sync::Arc;

use crate::error::WorkflowError;

/// Record kind: a task finished (payload: workflow, task, success, output).
/// The `0x06xx` block is the workflow engine's own: a journal shares its
/// log with `ots` resources, whose kinds are `0x05xx`.
pub const KIND_WF_TASK_DONE: u32 = 0x0601;

/// One journalled task outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalledOutcome {
    /// Task name.
    pub task: String,
    /// Whether the body reported success.
    pub success: bool,
    /// The task's output.
    pub output: Value,
}

/// Append-only journal for one (named) workflow over a shared log.
///
/// Nothing tells the journal that its workflow instance is finished for
/// good, so it holds the log from its first record on and never releases
/// (clones share the one hold): a log it shares is pinned.
#[derive(Clone)]
pub struct WorkflowJournal {
    workflow: String,
    wal: Arc<dyn Wal>,
    _hold: Option<Arc<Hold>>,
}

impl std::fmt::Debug for WorkflowJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowJournal").field("workflow", &self.workflow).finish()
    }
}

impl WorkflowJournal {
    /// A journal for the workflow instance named `workflow`.
    pub fn new(workflow: impl Into<String>, wal: Arc<dyn Wal>) -> Self {
        WorkflowJournal { workflow: workflow.into(), _hold: wal.hold().map(Arc::new), wal }
    }

    /// The journalled workflow's name.
    pub fn workflow(&self) -> &str {
        &self.workflow
    }

    /// Record a task outcome durably.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Activity`] when the log append fails.
    pub fn record(&self, task: &str, success: bool, output: &Value) -> Result<(), WorkflowError> {
        // One durability barrier per outcome: under a group-commit log
        // concurrent tasks finishing together share a single sync.
        MapWriter::encode(
            |fields| {
                fields
                    .value("output", output)
                    .bool("success", success)
                    .str("task", task)
                    .str("workflow", &self.workflow);
            },
            |record| self.wal.append_durable(KIND_WF_TASK_DONE, record),
        )
        .map_err(|e| WorkflowError::Activity(e.to_string()))?;
        Ok(())
    }

    /// Read back every outcome journalled for this workflow, in order.
    /// Re-journalled tasks (at-least-once writes) keep the first entry.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Activity`] when the log cannot be read or a record
    /// is malformed.
    pub fn replay(&self) -> Result<Vec<JournalledOutcome>, WorkflowError> {
        let mut outcomes: Vec<JournalledOutcome> = Vec::new();
        // Stream records in place: only this workflow's payloads are decoded
        // and nothing is cloned out of the log.
        self.wal
            .scan_with(Lsn::new(0), &mut |record| {
                if record.kind != KIND_WF_TASK_DONE {
                    return Ok(());
                }
                let v = Value::decode(&record.payload)
                    .map_err(|e| recovery_log::LogError::Handler(e.to_string()))?;
                let m = v.as_map().ok_or_else(|| {
                    recovery_log::LogError::Handler("journal record must be a map".into())
                })?;
                if m.get("workflow").and_then(Value::as_str) != Some(self.workflow.as_str()) {
                    return Ok(());
                }
                let task = m.get("task").and_then(Value::as_str).ok_or_else(|| {
                    recovery_log::LogError::Handler("journal record missing task".into())
                })?;
                if outcomes.iter().any(|o| o.task == task) {
                    return Ok(());
                }
                outcomes.push(JournalledOutcome {
                    task: task.to_owned(),
                    success: m.get("success").and_then(Value::as_bool).unwrap_or(false),
                    output: m.get("output").cloned().unwrap_or(Value::Null),
                });
                Ok(())
            })
            .map_err(|e| WorkflowError::Activity(e.to_string()))?;
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_log::MemWal;

    #[test]
    fn record_and_replay_roundtrip() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let journal = WorkflowJournal::new("order-1", Arc::clone(&wal));
        journal.record("a", true, &Value::from(1i64)).unwrap();
        journal.record("b", false, &Value::from("reason")).unwrap();
        let outcomes = journal.replay().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].task, "a");
        assert!(outcomes[0].success);
        assert_eq!(outcomes[1].output.as_str(), Some("reason"));
    }

    #[test]
    fn journals_are_per_workflow() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let j1 = WorkflowJournal::new("wf-1", Arc::clone(&wal));
        let j2 = WorkflowJournal::new("wf-2", Arc::clone(&wal));
        j1.record("a", true, &Value::Null).unwrap();
        j2.record("b", true, &Value::Null).unwrap();
        assert_eq!(j1.replay().unwrap().len(), 1);
        assert_eq!(j2.replay().unwrap().len(), 1);
        assert_eq!(j2.replay().unwrap()[0].task, "b");
    }

    #[test]
    fn duplicate_records_keep_the_first() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let journal = WorkflowJournal::new("wf", Arc::clone(&wal));
        journal.record("a", true, &Value::from(1i64)).unwrap();
        journal.record("a", false, &Value::from(2i64)).unwrap();
        let outcomes = journal.replay().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].success);
    }
}
