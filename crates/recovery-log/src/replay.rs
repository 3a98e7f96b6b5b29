//! Replay: feeding a log back to a recovery handler.

use crate::checkpoint::{latest_checkpoint_record, CHECKPOINT_KIND};
use crate::error::LogError;
use crate::record::{LogRecord, Lsn};
use crate::wal::Wal;

/// A component able to rebuild its state from log records.
pub trait RecoveryHandler {
    /// Error the handler may raise for a record it cannot apply.
    type Error: std::error::Error;

    /// Restore state from a checkpoint snapshot. Called at most once, before
    /// any [`RecoveryHandler::apply`] call, when the log contains a
    /// checkpoint. The default ignores snapshots.
    ///
    /// # Errors
    ///
    /// Implementations may reject malformed snapshots.
    fn restore_checkpoint(&mut self, snapshot: &[u8]) -> Result<(), Self::Error> {
        let _ = snapshot;
        Ok(())
    }

    /// Apply one record.
    ///
    /// # Errors
    ///
    /// Implementations may reject records they cannot interpret; replay
    /// stops at the first rejection.
    fn apply(&mut self, record: &LogRecord) -> Result<(), Self::Error>;
}

/// Summary of one replay pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Records fed to the handler (checkpoint records excluded).
    pub replayed: usize,
    /// Whether a checkpoint snapshot was restored first.
    pub from_checkpoint: bool,
    /// LSN of the last record applied, if any.
    pub last_lsn: Option<Lsn>,
}

/// Drives recovery: scan the log (from the latest checkpoint if present) and
/// feed every record to the handler in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayer {
    honor_checkpoints: bool,
}

impl Replayer {
    /// A replayer that starts from the latest checkpoint when one exists.
    pub fn new() -> Self {
        Replayer { honor_checkpoints: true }
    }

    /// A replayer that ignores checkpoints and replays the entire log
    /// (checkpoint records are skipped, not applied).
    pub fn full() -> Self {
        Replayer { honor_checkpoints: false }
    }

    /// Run recovery.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Handler`] wrapping the handler's failure, or a
    /// scan error from the log.
    pub fn replay<H: RecoveryHandler>(
        &self,
        wal: &dyn Wal,
        handler: &mut H,
    ) -> Result<ReplayReport, LogError> {
        let mut report = ReplayReport::default();
        // Zero-copy: records are visited in place via `scan_with` — only a
        // checkpoint snapshot (one record) is ever cloned out of the log.
        let mut from = Lsn::new(0);
        if self.honor_checkpoints {
            if let Some(cp) = latest_checkpoint_record(wal)? {
                handler
                    .restore_checkpoint(&cp.payload)
                    .map_err(|e| LogError::Handler(e.to_string()))?;
                report.from_checkpoint = true;
                from = cp.lsn.next();
            }
        }
        wal.scan_with(from, &mut |record| {
            if record.kind == CHECKPOINT_KIND {
                return Ok(());
            }
            handler.apply(record).map_err(|e| LogError::Handler(e.to_string()))?;
            report.replayed += 1;
            report.last_lsn = Some(record.lsn);
            Ok(())
        })?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::take_checkpoint;
    use crate::wal::MemWal;
    use std::convert::Infallible;

    #[derive(Default)]
    struct Sum {
        base: u64,
        total: u64,
    }
    impl RecoveryHandler for Sum {
        type Error = Infallible;
        fn restore_checkpoint(&mut self, snapshot: &[u8]) -> Result<(), Infallible> {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(snapshot);
            self.base = u64::from_be_bytes(buf);
            Ok(())
        }
        fn apply(&mut self, record: &LogRecord) -> Result<(), Infallible> {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&record.payload);
            self.total += u64::from_be_bytes(buf);
            Ok(())
        }
    }

    #[test]
    fn replays_everything_without_checkpoint() {
        let wal = MemWal::new();
        for i in 1..=4u64 {
            wal.append(1, &i.to_be_bytes()).unwrap();
        }
        let mut sum = Sum::default();
        let report = Replayer::new().replay(&wal, &mut sum).unwrap();
        assert_eq!(report.replayed, 4);
        assert!(!report.from_checkpoint);
        assert_eq!(report.last_lsn, Some(Lsn::new(4)));
        assert_eq!(sum.total, 10);
    }

    #[test]
    fn resumes_from_checkpoint() {
        let wal = MemWal::new();
        wal.append(1, &100u64.to_be_bytes()).unwrap();
        take_checkpoint(&wal, &100u64.to_be_bytes(), false).unwrap();
        wal.append(1, &5u64.to_be_bytes()).unwrap();

        let mut sum = Sum::default();
        let report = Replayer::new().replay(&wal, &mut sum).unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.replayed, 1);
        assert_eq!(sum.base, 100);
        assert_eq!(sum.total, 5);
    }

    #[test]
    fn full_replayer_ignores_checkpoints() {
        let wal = MemWal::new();
        wal.append(1, &1u64.to_be_bytes()).unwrap();
        take_checkpoint(&wal, &99u64.to_be_bytes(), false).unwrap();
        wal.append(1, &2u64.to_be_bytes()).unwrap();

        let mut sum = Sum::default();
        let report = Replayer::full().replay(&wal, &mut sum).unwrap();
        assert!(!report.from_checkpoint);
        assert_eq!(report.replayed, 2);
        assert_eq!(sum.base, 0);
        assert_eq!(sum.total, 3);
    }

    #[test]
    fn handler_failure_stops_replay() {
        #[derive(Debug)]
        struct Nope;
        impl std::fmt::Display for Nope {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "refused")
            }
        }
        impl std::error::Error for Nope {}
        struct Fussy;
        impl RecoveryHandler for Fussy {
            type Error = Nope;
            fn apply(&mut self, _record: &LogRecord) -> Result<(), Nope> {
                Err(Nope)
            }
        }
        let wal = MemWal::new();
        wal.append(1, b"x").unwrap();
        let err = Replayer::new().replay(&wal, &mut Fussy).unwrap_err();
        assert!(matches!(err, LogError::Handler(msg) if msg.contains("refused")));
    }
}
