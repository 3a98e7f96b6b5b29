//! A file-backed write-ahead log with torn-tail recovery.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::LogError;
use crate::record::{encode_parts, encoded_len_at, lsn_at, LogRecord, Lsn, HEADER_LEN};
use crate::retention::{Hold, Holds, Retained};
use crate::wal::Wal;

/// The most one read brings in, unless a single record is longer. Reads
/// start at 4 KiB and double, so stepping over a few released records
/// reads little.
const CHUNK: usize = 64 * 1024;

/// A [`Wal`] persisting records to a single append-only file.
///
/// On open, the file is scanned; a torn or corrupt tail (e.g. from a crash
/// mid-append) is detected by the per-record checksum and discarded, keeping
/// the valid prefix — the standard WAL recovery contract.
///
/// The records live in the file only: the log keeps where its retained
/// range starts and ends, and scans stream that range back through one
/// bounded buffer. Its memory does not depend on how many records it holds.
#[derive(Debug)]
pub struct FileWal {
    // Shared with the holds taken on this log.
    inner: Arc<Mutex<FileWalInner>>,
    path: PathBuf,
    appends: Option<telemetry::Counter>,
    syncs: Option<telemetry::Counter>,
}

struct FileWalInner {
    file: File,
    path: PathBuf,
    /// LSN of the first retained record; `front == next` when none is.
    front: u64,
    next: u64,
    /// Where the retained records start in the file. Never past the newest
    /// record: a log released to the end keeps that one in its file, so a
    /// reopened log goes on from its LSN.
    front_offset: u64,
    /// Where the last good record ends.
    file_len: u64,
    // Reused scratch: appends and batches encode into `encode_buf`, reads
    // stream through `read_buf`, scans decode into `record`.
    encode_buf: Vec<u8>,
    read_buf: Vec<u8>,
    record: LogRecord,
    holds: Holds,
}

impl std::fmt::Debug for FileWalInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileWalInner")
            .field("path", &self.path)
            .field("front", &self.front)
            .field("next", &self.next)
            .field("front_offset", &self.front_offset)
            .field("file_len", &self.file_len)
            .field("holds", &self.holds)
            .finish_non_exhaustive()
    }
}

/// Visit the whole records of `file` in `[from, to)` in order, bringing
/// them in through `buf` a chunk at a time: `step` gets each record's offset
/// and bytes and says whether to go on. Returns the offset of the first
/// record not stepped over: `to`, the one `step` stopped at, or one that
/// does not end by `to` (a torn tail). Nothing is validated but lengths.
fn walk(
    file: &mut File,
    buf: &mut Vec<u8>,
    from: u64,
    to: u64,
    mut step: impl FnMut(u64, &[u8]) -> Result<bool, LogError>,
) -> Result<u64, LogError> {
    // `buf[lo..hi]` holds the file's bytes from `at`.
    let (mut at, mut lo, mut hi) = (from, 0usize, 0usize);
    let mut chunk = CHUNK / 16;
    while at < to {
        let need = encoded_len_at(&buf[lo..hi]).unwrap_or(HEADER_LEN);
        if hi - lo < need {
            if at + need as u64 > to {
                break;
            }
            // Keep the partial record, read up to a chunk (or the record) more.
            buf.copy_within(lo..hi, 0);
            let kept = hi - lo;
            let want = (chunk.max(need) as u64).min(to - at) as usize;
            chunk = (chunk * 2).min(CHUNK);
            if buf.len() < want {
                buf.resize(want, 0);
            }
            file.seek(SeekFrom::Start(at + kept as u64))?;
            file.read_exact(&mut buf[kept..want])?;
            (lo, hi) = (0, want);
            continue;
        }
        if !step(at, &buf[lo..lo + need])? {
            break;
        }
        at += need as u64;
        lo += need;
    }
    Ok(at)
}

impl FileWalInner {
    /// Write `encode_buf`, `records` records from `next` on. Nothing moves
    /// unless the whole buffer lands: on an error the file is cut back to
    /// its last good record, so no later append follows torn bytes.
    fn write_encoded(&mut self, records: u64) -> Result<(), LogError> {
        if let Err(e) = self.file.write_all(&self.encode_buf) {
            // Best effort: if even this fails the device is gone.
            let _ = self.file.set_len(self.file_len);
            return Err(e.into());
        }
        if self.front == self.next {
            self.front_offset = self.file_len;
        }
        self.file_len += self.encode_buf.len() as u64;
        self.next += records;
        Ok(())
    }

    /// Rewrite the file as the bytes from `front_offset` on.
    fn compact(&mut self) -> Result<(), LogError> {
        // Write the retained suffix once to a sibling temp file, fsync it,
        // then atomically rename over the log. A crash at any point leaves
        // either the old complete log or the new complete log — never the
        // half-rewritten file the old in-place rewrite could tear.
        let tmp_path = self.path.with_extension("compact-tmp");
        let mut tmp = File::create(&tmp_path)?;
        let mut at = self.front_offset;
        while at < self.file_len {
            let n = (CHUNK as u64).min(self.file_len - at) as usize;
            if self.read_buf.len() < n {
                self.read_buf.resize(n, 0);
            }
            self.file.seek(SeekFrom::Start(at))?;
            self.file.read_exact(&mut self.read_buf[..n])?;
            tmp.write_all(&self.read_buf[..n])?;
            at += n as u64;
        }
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen: the old handle still points at the unlinked pre-compaction
        // inode; appends must land in the renamed file.
        self.file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        self.file_len -= self.front_offset;
        self.front_offset = 0;
        Ok(())
    }
}

impl Retained for FileWalInner {
    fn holds(&mut self) -> &mut Holds {
        &mut self.holds
    }

    fn drop_below(&mut self, low_water: u64) -> Result<(), LogError> {
        let to = low_water.min(self.next);
        if to > self.front {
            // Step over the released records, but never past the newest.
            let file_len = self.file_len;
            self.front_offset = walk(
                &mut self.file,
                &mut self.read_buf,
                self.front_offset,
                file_len,
                |at, bytes| Ok(lsn_at(bytes).raw() < to && at + (bytes.len() as u64) < file_len),
            )?;
            self.front = to;
        }
        // Rewrite only once the file is mostly released records: amortised
        // O(1) per append. Until then (and after a crash before then) they
        // are still in the file: a reopened log has more history than needed.
        if self.front_offset > self.file_len - self.front_offset {
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
        let raw_len = file.metadata()?.len();
        let mut read_buf = Vec::new();
        let mut record = LogRecord::new(Lsn::new(0), 0, Vec::new());
        let (mut front, mut next) = (None, 1);
        // A bad record anywhere means everything from here on is the torn
        // tail; cut it off.
        let file_len = walk(&mut file, &mut read_buf, 0, raw_len, |_, bytes| {
            if record.decode_into(bytes).is_err() {
                return Ok(false);
            }
            front.get_or_insert(record.lsn.raw());
            next = record.lsn.raw() + 1;
            Ok(true)
        })?;
        if file_len < raw_len {
            file.set_len(file_len)?;
        }
        let inner = FileWalInner {
            file,
            path: path.clone(),
            front: front.unwrap_or(next),
            next,
            front_offset: 0,
            file_len,
            encode_buf: Vec::new(),
            read_buf,
            record,
            holds: Holds::default(),
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
        inner.encode_buf.clear();
        encode_parts(lsn, kind, payload, &mut inner.encode_buf);
        inner.write_encoded(1)?;
        if let Some(counter) = &self.appends {
            counter.incr();
        }
        Ok(lsn)
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if records.is_empty() {
            return Ok(Lsn::new(inner.next - 1));
        }
        // One coalesced encode of the whole batch into the reused scratch
        // buffer, then a single write_all: this is the vectored write a
        // group-commit leader hands us.
        inner.encode_buf.clear();
        for (lsn, (kind, payload)) in (inner.next..).zip(records) {
            encode_parts(Lsn::new(lsn), *kind, payload, &mut inner.encode_buf);
        }
        inner.write_encoded(records.len() as u64)?;
        if let Some(counter) = &self.appends {
            counter.add(records.len() as u64);
        }
        Ok(Lsn::new(inner.next - 1))
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let from = from.raw().max(inner.front);
        let record = &mut inner.record;
        walk(&mut inner.file, &mut inner.read_buf, inner.front_offset, inner.file_len, |_, bytes| {
            if lsn_at(bytes).raw() < from {
                return Ok(true);
            }
            // A record gone bad since open ends the scan like a torn tail.
            if record.decode_into(bytes).is_err() {
                return Ok(false);
            }
            visit(record)?;
            Ok(true)
        })?;
        Ok(())
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        let mut inner = self.inner.lock();
        let low_water = inner.holds.raise(upto.raw());
        inner.drop_below(low_water)?;
        // Whatever the balance: a truncation is persisted at once.
        if inner.front_offset > 0 {
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
        let inner = self.inner.lock();
        (inner.next - inner.front) as usize
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

    /// A failed write moves nothing: the log and its file keep agreeing, and
    /// the next good append takes the LSN the failed one would have had.
    #[test]
    fn a_failed_write_advances_nothing() {
        let path = temp_path("failed-write");
        let wal = FileWal::open(&path).unwrap();
        wal.append(1, b"before").unwrap();
        let read_only = File::open(&path).unwrap();
        let writable = std::mem::replace(&mut wal.inner.lock().file, read_only);
        assert!(matches!(wal.append(2, b"lost"), Err(LogError::Io(_))));
        assert!(wal.append_batch(&[(3, b"lost".as_slice()), (4, b"too".as_slice())]).is_err());
        assert_eq!((wal.next_lsn(), wal.len()), (Lsn::new(2), 1));
        assert_eq!(wal.scan(Lsn::new(0)).unwrap().len(), 1, "scans show what the file has");
        wal.inner.lock().file = writable;
        assert_eq!(wal.append(5, b"after").unwrap(), Lsn::new(2));
        drop(wal);
        let wal = FileWal::open(&path).unwrap();
        let kinds: Vec<u32> = wal.scan(Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [1, 5], "nothing the log did not acknowledge, nothing hidden");
        std::fs::remove_file(&path).unwrap();
    }

    /// A log released to its end keeps its newest record in the file, so it
    /// reopens where it left off instead of reusing LSNs from 1.
    #[test]
    fn a_drained_log_reopens_past_its_last_lsn() {
        let path = temp_path("drained");
        let wal = FileWal::open(&path).unwrap();
        for i in 0..3u32 {
            wal.append(i, b"x").unwrap();
        }
        wal.truncate_prefix(Lsn::new(4)).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_lsn(), Lsn::new(4));
        let one = LogRecord::new(Lsn::new(3), 2, b"x".to_vec()).encode();
        assert_eq!(std::fs::read(&path).unwrap(), one, "the newest record, released, stays");
        // Nothing more to compact: a repeated release does not rewrite it.
        wal.truncate_prefix(Lsn::new(4)).unwrap();
        drop(wal);
        let wal = FileWal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), Lsn::new(4));
        assert_eq!(wal.append(7, b"y").unwrap(), Lsn::new(4));
        std::fs::remove_file(&path).unwrap();
    }

    /// Records longer than the read chunk, and many records across chunk
    /// boundaries, stream back intact.
    #[test]
    fn scans_cross_chunk_boundaries_and_outsized_records() {
        let path = temp_path("chunks");
        let wal = FileWal::open(&path).unwrap();
        let big = vec![0xAB; CHUNK + 1000];
        for i in 0..2_000u32 {
            wal.append(i, &i.to_be_bytes().repeat(i as usize % 17)).unwrap();
            if i == 1_000 {
                wal.append(u32::MAX, &big).unwrap();
            }
        }
        for wal in [wal, FileWal::open(&path).unwrap()] {
            let records = wal.scan(Lsn::new(0)).unwrap();
            assert_eq!(records.len(), 2_001);
            assert_eq!(records[1_001].payload, big);
            assert_eq!(records[1_999].payload, 1_998u32.to_be_bytes().repeat(1_998 % 17));
            assert_eq!(records[2_000].lsn, Lsn::new(2_001));
            assert_eq!(wal.scan(Lsn::new(1_500)).unwrap().len(), 502);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
