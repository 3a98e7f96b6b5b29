//! Write-ahead logging, crash injection and replay: the persistence
//! substrate behind §3.4 of the paper ("Treatment of failure and recovery").
//!
//! The paper leaves persistence strategy to implementers but itemises what
//! recovery must achieve: replaying application logic, rebinding the
//! activity structure, restoring application object consistency, and
//! recovering Actions and SignalSets. This crate supplies the mechanisms the
//! `ots` and `activity-service` crates build those guarantees on:
//!
//! * [`record::LogRecord`] — checksummed, length-prefixed records with
//!   caller-defined kinds;
//! * [`wal::Wal`] — the append/scan/truncate interface, with an in-memory
//!   implementation ([`wal::MemWal`]) and a file-backed one
//!   ([`file_wal::FileWal`]) that tolerates torn tails and keeps its records
//!   on disk only;
//! * [`group_commit::GroupCommitWal`] — leader/follower group commit over
//!   any sink: concurrent appenders stage into a shared batch, one leader
//!   performs a single coalesced write + sync per batch, with
//!   deterministic (timer-free) flush triggers and a `flush_lsn` barrier;
//! * [`crash::FailpointSet`] and [`crash::CrashingWal`] — deterministic
//!   crash injection at named protocol steps or after N appends;
//! * [`retention`] — [`retention::Hold`]s: each appender says what it still
//!   needs and the log drops the prefix below the slowest holder.
//!
//! Replay is [`wal::Wal::scan_with`]: each component visits the records in
//! place and rebuilds its own state from the kinds it owns.
//!
//! # Example
//!
//! ```
//! use recovery_log::wal::{MemWal, Wal};
//! use recovery_log::record::Lsn;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wal = MemWal::new();
//! wal.append(1, b"begin tx-7")?;
//! wal.append(2, b"commit tx-7")?;
//!
//! let mut kinds = Vec::new();
//! wal.scan_with(Lsn::new(0), &mut |record| {
//!     kinds.push(record.kind);
//!     Ok(())
//! })?;
//! assert_eq!(kinds, vec![1, 2]);
//! # Ok(())
//! # }
//! ```

pub mod crash;
pub mod error;
pub mod file_wal;
pub mod group_commit;
pub mod record;
pub mod retention;
pub mod wal;

pub use crash::{CrashingWal, FailpointSet};
pub use error::LogError;
pub use file_wal::FileWal;
pub use group_commit::{GroupCommitConfig, GroupCommitWal};
pub use record::{LogRecord, Lsn};
pub use retention::Hold;
pub use wal::{MemWal, Wal};
