//! A file-backed write-ahead log with torn-tail recovery.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::LogError;
use crate::record::{LogRecord, Lsn};
use crate::retention::{Hold, Holds, Retained};
use crate::wal::Wal;

/// A [`Wal`] persisting records to a single append-only file.
///
/// On open, the file is scanned; a torn or corrupt tail (e.g. from a crash
/// mid-append) is detected by the per-record checksum and discarded, keeping
/// the valid prefix — the standard WAL recovery contract.
#[derive(Debug)]
pub struct FileWal {
    // Shared with the holds taken on this log.
    inner: Arc<Mutex<FileWalInner>>,
    path: PathBuf,
    appends: Option<telemetry::Counter>,
    syncs: Option<telemetry::Counter>,
}

#[derive(Debug)]
struct FileWalInner {
    file: File,
    path: PathBuf,
    // LSN order, so a released prefix pops off the front.
    records: VecDeque<LogRecord>,
    next: u64,
    // Reused encode scratch: appends and compaction encode into this one
    // buffer instead of allocating a fresh Vec per record.
    encode_buf: Vec<u8>,
    holds: Holds,
    // Bytes of the file that encode retained records, and bytes that
    // encode released ones still awaiting compaction.
    live_bytes: usize,
    dead_bytes: usize,
}

impl FileWalInner {
    /// Rewrite the file as exactly the retained records.
    fn compact(&mut self) -> Result<(), LogError> {
        // Write the retained suffix once to a sibling temp file, fsync it,
        // then atomically rename over the log. A crash at any point leaves
        // either the old complete log or the new complete log — never the
        // half-rewritten file the old in-place rewrite could tear.
        let tmp_path = self.path.with_extension("compact-tmp");
        let mut tmp = File::create(&tmp_path)?;
        self.encode_buf.clear();
        for r in &self.records {
            r.encode_into(&mut self.encode_buf);
        }
        tmp.write_all(&self.encode_buf)?;
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen: the old handle still points at the unlinked pre-compaction
        // inode; appends must land in the renamed file.
        let mut file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.dead_bytes = 0;
        Ok(())
    }
}

impl Retained for FileWalInner {
    fn holds(&mut self) -> &mut Holds {
        &mut self.holds
    }

    fn drop_below(&mut self, low_water: u64) -> Result<(), LogError> {
        while let Some(front) = self.records.front().filter(|r| r.lsn.raw() < low_water) {
            let len = front.encoded_len();
            self.live_bytes -= len;
            self.dead_bytes += len;
            self.records.pop_front();
        }
        // Rewrite only once the file is mostly released records: amortised
        // O(1) per append. Until then (and after a crash before then) they
        // are still in the file: a reopened log has more history than needed.
        if self.dead_bytes > self.live_bytes {
            self.compact()?;
        }
        Ok(())
    }
}

impl FileWal {
    /// Open (creating if absent) the log at `path`, recovering its valid
    /// prefix and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] if the file cannot be opened or resized.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, LogError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;

        let mut records = VecDeque::new();
        let mut offset = 0usize;
        while offset < raw.len() {
            match LogRecord::decode(&raw[offset..]) {
                Ok((record, used)) => {
                    records.push_back(record);
                    offset += used;
                }
                // A bad record anywhere means everything from here on is the
                // torn tail; cut it off.
                Err(_) => break,
            }
        }
        if offset < raw.len() {
            file.set_len(offset as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        let next = records.back().map(|r| r.lsn.raw() + 1).unwrap_or(1);
        let inner = FileWalInner {
            file,
            path: path.clone(),
            records,
            next,
            encode_buf: Vec::new(),
            holds: Holds::default(),
            live_bytes: offset,
            dead_bytes: 0,
        };
        Ok(FileWal {
            inner: Arc::new(Mutex::new(inner)),
            path,
            appends: None,
            syncs: None,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Count into `telemetry`'s metrics: every durable append bumps
    /// `wal_appends_total` and every `sync_data` bumps `wal_syncs_total`.
    #[must_use]
    pub fn metered_by(mut self, telemetry: &telemetry::Telemetry) -> Self {
        self.appends = Some(telemetry.metrics().counter("wal_appends_total"));
        self.syncs = Some(telemetry.metrics().counter("wal_syncs_total"));
        self
    }
}

impl Wal for FileWal {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let lsn = Lsn::new(inner.next);
        let record = LogRecord::new(lsn, kind, payload.to_vec());
        inner.encode_buf.clear();
        record.encode_into(&mut inner.encode_buf);
        inner.file.write_all(&inner.encode_buf)?;
        inner.live_bytes += inner.encode_buf.len();
        inner.next += 1;
        inner.records.push_back(record);
        if let Some(counter) = &self.appends {
            counter.incr();
        }
        Ok(lsn)
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // One coalesced encode of the whole batch into the reused scratch
        // buffer, then a single write_all: this is the vectored write a
        // group-commit leader hands us.
        inner.encode_buf.clear();
        for (kind, payload) in records {
            let lsn = Lsn::new(inner.next);
            inner.next += 1;
            let record = LogRecord::new(lsn, *kind, payload.to_vec());
            record.encode_into(&mut inner.encode_buf);
            inner.records.push_back(record);
        }
        inner.file.write_all(&inner.encode_buf)?;
        inner.live_bytes += inner.encode_buf.len();
        let last = Lsn::new(inner.next - 1);
        if !records.is_empty() {
            if let Some(counter) = &self.appends {
                counter.add(records.len() as u64);
            }
        }
        Ok(last)
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        let inner = self.inner.lock();
        for record in inner.records.iter().filter(|r| r.lsn >= from) {
            visit(record)?;
        }
        Ok(())
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        let mut inner = self.inner.lock();
        let low_water = inner.holds.raise(upto.raw());
        inner.drop_below(low_water)?;
        // Whatever the balance: a truncation is persisted at once.
        if inner.dead_bytes > 0 {
            inner.compact()?;
        }
        Ok(())
    }

    fn hold(&self) -> Option<Hold> {
        Some(Hold::on(self.inner.clone()))
    }

    fn sync(&self) -> Result<(), LogError> {
        self.inner.lock().file.sync_data()?;
        if let Some(counter) = &self.syncs {
            counter.incr();
        }
        Ok(())
    }

    fn next_lsn(&self) -> Lsn {
        Lsn::new(self.inner.lock().next)
    }

    fn len(&self) -> usize {
        self.inner.lock().records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        let unique = format!(
            "recovery-log-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        p.push(unique);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn survives_reopen() {
        let path = temp_path("reopen");
        {
            let wal = FileWal::open(&path).unwrap();
            wal.append(1, b"alpha").unwrap();
            wal.append(2, b"beta").unwrap();
            wal.sync().unwrap();
        }
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, b"alpha");
        assert_eq!(records[1].payload, b"beta");
        // New appends continue the sequence.
        assert_eq!(wal.append(3, b"gamma").unwrap(), Lsn::new(3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_discarded_on_open() {
        let path = temp_path("torn");
        {
            let wal = FileWal::open(&path).unwrap();
            wal.append(1, b"good-1").unwrap();
            wal.append(1, b"good-2").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: write half of a record.
        {
            let half = LogRecord::new(Lsn::new(3), 1, b"torn".to_vec()).encode();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&half[..half.len() / 2]).unwrap();
        }
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 2, "torn tail must be discarded");
        // The torn bytes are gone from the file, so the next append is clean.
        assert_eq!(wal.append(1, b"good-3").unwrap(), Lsn::new(3));
        drop(wal);
        let wal = FileWal::open(&path).unwrap();
        assert_eq!(wal.scan(Lsn::new(0)).unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_record_cuts_scan_there() {
        let path = temp_path("corrupt-mid");
        {
            let wal = FileWal::open(&path).unwrap();
            wal.append(1, b"aaaa").unwrap();
            wal.append(1, b"bbbb").unwrap();
            wal.append(1, b"cccc").unwrap();
        }
        // Flip a payload bit in the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = LogRecord::new(Lsn::new(1), 1, b"aaaa".to_vec()).encoded_len();
        bytes[record_len + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"aaaa");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_prefix_persists() {
        let path = temp_path("truncate");
        {
            let wal = FileWal::open(&path).unwrap();
            for i in 0..10u32 {
                wal.append(i, &i.to_be_bytes()).unwrap();
            }
            wal.truncate_prefix(Lsn::new(8)).unwrap();
        }
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].lsn, Lsn::new(8));
        assert_eq!(wal.next_lsn(), Lsn::new(11));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_batch_coalesces_and_survives_reopen() {
        let path = temp_path("batch");
        {
            let wal = FileWal::open(&path).unwrap();
            wal.append(1, b"solo").unwrap();
            let last = wal
                .append_batch(&[(2, b"aa".as_slice()), (3, b"bb".as_slice()), (4, b"cc".as_slice())])
                .unwrap();
            assert_eq!(last, Lsn::new(4));
            wal.sync().unwrap();
        }
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3].kind, 4);
        assert_eq!(records[3].payload, b"cc");
        assert_eq!(wal.next_lsn(), Lsn::new(5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_prefix_leaves_no_temp_file_and_appends_survive() {
        let path = temp_path("truncate-atomic");
        let wal = FileWal::open(&path).unwrap();
        for i in 0..6u32 {
            wal.append(i, &i.to_be_bytes()).unwrap();
        }
        wal.truncate_prefix(Lsn::new(4)).unwrap();
        assert!(
            !path.with_extension("compact-tmp").exists(),
            "compaction temp file must be renamed away"
        );
        // Appends after compaction must land in the renamed file, not the
        // unlinked pre-compaction inode.
        wal.append(9, b"post").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].lsn, Lsn::new(4));
        assert_eq!(records[3].payload, b"post");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_release_compacts_only_once_most_of_the_file_is_released() {
        let path = temp_path("hold-compact");
        let wal = FileWal::open(&path).unwrap();
        let hold = wal.hold().unwrap();
        for i in 0..10u32 {
            wal.append(i, &i.to_be_bytes()).unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Five of ten released: as many dead bytes as live ones, no rewrite —
        // the records are gone from the log but still in the file.
        hold.release_below(Lsn::new(6)).unwrap();
        assert_eq!(wal.len(), 5);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full);
        // One more tips the balance: the file is rewritten as the live half.
        hold.release_below(Lsn::new(7)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full * 4 / 10);
        assert!(!path.with_extension("compact-tmp").exists());
        wal.append(9, b"post").unwrap();
        drop(wal);
        let wal = FileWal::open(&path).unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.first().unwrap().lsn, Lsn::new(7));
        assert_eq!(records.last().unwrap().payload, b"post");
        assert_eq!(wal.next_lsn(), Lsn::new(12));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn len_is_cheap_and_matches_scan() {
        let path = temp_path("len");
        let wal = FileWal::open(&path).unwrap();
        assert!(wal.is_empty());
        for i in 0..5u32 {
            wal.append(i, b"x").unwrap();
        }
        assert_eq!(wal.len(), wal.scan(Lsn::new(0)).unwrap().len());
        wal.truncate_prefix(Lsn::new(3)).unwrap();
        assert_eq!(wal.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_is_a_valid_log() {
        let path = temp_path("empty");
        let wal = FileWal::open(&path).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_lsn(), Lsn::new(1));
        assert_eq!(wal.path(), path.as_path());
        std::fs::remove_file(&path).unwrap();
    }
}
