//! Checkpointing: bounding replay work by recording a stable prefix.
//!
//! A checkpoint is itself a log record (kind [`CHECKPOINT_KIND`]) whose
//! payload is a component-provided snapshot; the prefix before it can be
//! compacted away.

use crate::error::LogError;
use crate::record::Lsn;
use crate::wal::Wal;

/// Reserved record kind for checkpoints. Component kind spaces must avoid it.
pub const CHECKPOINT_KIND: u32 = u32::MAX;

/// Write a checkpoint record carrying `snapshot`, then (optionally) compact
/// the log prefix preceding it.
///
/// Returns the checkpoint's LSN.
///
/// # Errors
///
/// Propagates append/compaction failures from the log.
pub fn take_checkpoint(wal: &dyn Wal, snapshot: &[u8], compact: bool) -> Result<Lsn, LogError> {
    // Forced write: the checkpoint must be durable before the prefix it
    // supersedes may be compacted away. Under a group-commit log this is a
    // barrier covering exactly the checkpoint's LSN.
    let lsn = wal.append_durable(CHECKPOINT_KIND, snapshot)?;
    if compact {
        wal.truncate_prefix(lsn)?;
    }
    Ok(lsn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;

    #[test]
    fn compacting_checkpoint_drops_prefix() {
        let wal = MemWal::new();
        for _ in 0..10 {
            wal.append(1, b"old").unwrap();
        }
        take_checkpoint(&wal, b"snap", true).unwrap();
        wal.append(1, b"new").unwrap();
        assert_eq!(wal.len(), 2, "checkpoint + one new record");
    }
}
