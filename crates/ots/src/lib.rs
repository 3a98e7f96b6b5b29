//! An Object Transaction Service: the transactional substrate the Activity
//! Service framework is layered beside (fig. 3 of the paper).
//!
//! This crate reproduces the parts of the OMG OTS that the paper's examples
//! rely on:
//!
//! * flat top-level transactions with **two-phase commit** (presumed abort),
//!   one-phase optimisation and read-only voting ([`coordinator`]);
//! * **nested transactions** (subtransactions) whose commits are provisional
//!   and whose resources are inherited by the parent (§1 of the paper);
//! * the CORBA object model: [`control::Control`] /
//!   [`coordinator::Coordinator`] / [`terminator::Terminator`] handed out by
//!   a [`factory::TransactionFactory`];
//! * [`resource::Resource`] and [`resource::Synchronization`] participants;
//! * durable **decision logging** and crash recovery ([`txlog`]) over the
//!   `recovery-log` crate;
//! * a [`lockmgr::LockManager`] and a transactional key-value store
//!   ([`memres::TransactionalKv`]) used by the examples, tests and the
//!   fig. 1 lock-hold-time experiment;
//! * a durable, crash-recoverable participant ([`durable::DurableKv`])
//!   demonstrating the persistence contract §3.4 places on recoverable
//!   objects;
//! * the participant-driven half of §3.4 termination ([`recovery`]): a
//!   `RecoveryCoordinator` servant answering `replay_completion` under
//!   presumed abort, and a `RecoverableResource` wrapper that interrogates
//!   it to resolve in-doubt transactions after restarts or partitions.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ots::{TransactionFactory, TransactionalKv};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let factory = TransactionFactory::new();
//! let store = Arc::new(TransactionalKv::new("accounts"));
//!
//! let control = factory.create()?;
//! let tx = control.coordinator().id().clone();
//! store.enlist(&control)?;
//! store.write(&tx, "alice", orb::Value::I64(100))?;
//! control.terminator().commit()?;
//! assert_eq!(store.read_committed("alice"), Some(orb::Value::I64(100)));
//! # Ok(())
//! # }
//! ```

pub mod control;
pub mod coordinator;
pub mod durable;
pub mod error;
pub mod factory;
pub mod lockmgr;
pub mod memres;
pub mod recovery;
pub mod resource;
pub mod status;
pub mod terminator;
pub mod txlog;
pub mod xid;

pub use control::Control;
pub use orb::pool::DispatchConfig;
pub use coordinator::{failpoints, Coordinator};
pub use durable::DurableKv;
pub use error::TxError;
pub use factory::TransactionFactory;
pub use lockmgr::{LockManager, LockMode, WaitDie};
pub use memres::TransactionalKv;
pub use recovery::{
    RecoverableResource, RecoveryCoordinator, ReplayStatus, ResolutionConfig, ResolutionReport,
};
pub use resource::{Resource, SubtransactionAwareResource, Synchronization, Vote};
pub use status::TxStatus;
pub use terminator::Terminator;
pub use xid::TxId;
