//! The storage device of `remote_2pc_durable`, with its `fsync` modelled.
//!
//! On the shared sandbox the real `fsync` of a file log drifts by a fifth
//! from one minute to the next (a median of 140 µs, then 250 µs, for minutes
//! at a time), and five of them in a row are most of the op: end-to-end
//! timings then report the neighbours' disk traffic and hold no bound. The
//! network of every workload is already a model on `SimClock`; this makes
//! the disk one too. Records are still encoded and written to a real file
//! with real `write` calls, and the restart check still reopens and replays
//! those files; only the wait for the device is replaced, by a fixed time.
//! The real device stays visible in the unbounded `recovery-log.force_us`
//! primitive.

use std::time::{Duration, Instant};

use recovery_log::{LogError, LogRecord, Lsn, Wal};

/// What one `sync` of the modelled device takes: the median `fsync` of the
/// reference box in a quiet minute.
pub const SYNC_TIME: Duration = Duration::from_micros(150);

/// A log whose `sync` waits [`SYNC_TIME`] instead of asking the device.
/// `append_durable` and `flush_lsn` keep the trait's defaults, which end in
/// this `sync`.
pub struct PacedDisk<W> {
    inner: W,
}

impl<W: Wal> PacedDisk<W> {
    pub fn new(inner: W) -> Self {
        PacedDisk { inner }
    }
}

impl<W: Wal> Wal for PacedDisk<W> {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        self.inner.append(kind, payload)
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        self.inner.append_batch(records)
    }

    fn scan(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
        self.inner.scan(from)
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        self.inner.scan_with(from, visit)
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        self.inner.truncate_prefix(upto)
    }

    /// A busy wait, not a sleep: in the sandbox's virtual machine a 150 µs
    /// sleep returns after 220 to 240 µs and swings rounds by a tenth, while
    /// the busy wait ends within a microsecond of its deadline. The waiting
    /// thread holds its core as a participant doing 150 µs of work would.
    fn sync(&self) -> Result<(), LogError> {
        let deadline = Instant::now() + SYNC_TIME;
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        Ok(())
    }

    fn next_lsn(&self) -> Lsn {
        self.inner.next_lsn()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_log::MemWal;

    #[test]
    fn sync_takes_the_modelled_time_and_records_pass_through() {
        let disk = PacedDisk::new(MemWal::new());
        let begun = Instant::now();
        let lsn = disk.append_durable(7, b"payload").expect("append");
        disk.flush_lsn(lsn).expect("flush");
        assert!(
            begun.elapsed() >= 2 * SYNC_TIME,
            "both forced calls wait for the device"
        );
        assert_eq!(disk.len(), 1);
        assert_eq!(disk.scan(Lsn::new(0)).expect("scan")[0].kind, 7);
    }
}
