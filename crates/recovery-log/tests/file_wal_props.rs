//! [`FileWal`] against [`MemWal`] as its model. For ARBITRARY sequences of
//! appends, batches, holds taken, moved and dropped, truncations, reopens
//! and reopens over a torn tail:
//!
//! 1. both logs agree on `next_lsn`, and each `len` matches its own scan;
//! 2. until the first reopen the two scans are equal, record for record;
//!    after it the file log may also show released history its last
//!    compaction had not yet rewritten away — a contiguous run of records
//!    just below the model's — and nothing else;
//! 3. the file's bytes are always the `LogRecord::encode` of a suffix of
//!    everything appended, cut at a record boundary: the on-disk format is
//!    the one every earlier `FileWal` wrote and read.
//!
//! (In this crate's tests, not the root's: it calls `truncate_prefix`,
//! which nothing outside `recovery-log` may.)

use std::io::Write;
use std::path::PathBuf;

use proptest::prelude::*;
use recovery_log::{FileWal, Hold, LogRecord, Lsn, MemWal, Wal};

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("file-wal-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A file log, its in-memory model and everything ever appended to them.
struct Pair {
    path: PathBuf,
    file: FileWal,
    mem: MemWal,
    /// Holds taken on both logs at once: `(file's, model's)`.
    holds: Vec<(Hold, Hold)>,
    history: Vec<LogRecord>,
    /// `history` encoded back to back, and where each record starts in it.
    encoded: Vec<u8>,
    starts: Vec<usize>,
    reopened: bool,
}

impl Pair {
    fn new(path: PathBuf) -> Self {
        let file = FileWal::open(&path).unwrap();
        Pair {
            path,
            file,
            mem: MemWal::new(),
            holds: Vec::new(),
            history: Vec::new(),
            encoded: Vec::new(),
            starts: Vec::new(),
            reopened: false,
        }
    }

    fn appended(&mut self, kind: u32, payload: &[u8]) {
        let record = LogRecord::new(Lsn::new(self.history.len() as u64 + 1), kind, payload);
        self.starts.push(self.encoded.len());
        record.encode_into(&mut self.encoded);
        self.history.push(record);
    }

    /// Restart, after the crashed process left `torn` bytes at the file's
    /// end: holds are volatile, the model keeps its records.
    fn reopen(&mut self, torn: Option<&[u8]>) {
        self.holds.clear();
        if let Some(torn) = torn {
            let mut file = std::fs::OpenOptions::new().append(true).open(&self.path).unwrap();
            file.write_all(torn).unwrap();
        }
        self.file = FileWal::open(&self.path).unwrap();
        self.reopened = true;
    }

    fn check(&self, from: Lsn) -> Result<(), TestCaseError> {
        let next = self.mem.next_lsn();
        prop_assert_eq!(next.raw(), self.history.len() as u64 + 1);
        prop_assert_eq!(self.file.next_lsn(), next);
        let file = self.file.scan(Lsn::new(0)).unwrap();
        let mem = self.mem.scan(Lsn::new(0)).unwrap();
        prop_assert_eq!(self.file.len(), file.len());
        prop_assert_eq!(self.mem.len(), mem.len());
        prop_assert!(mem[..] == self.history[self.history.len() - mem.len()..]);
        if self.reopened {
            prop_assert!(file.len() >= mem.len(), "{} < {}", file.len(), mem.len());
            prop_assert!(file[..] == self.history[self.history.len() - file.len()..]);
        } else {
            prop_assert!(file == mem, "file {file:?} != model {mem:?}");
            prop_assert!(self.file.scan(from).unwrap() == self.mem.scan(from).unwrap());
        }
        let bytes = std::fs::read(&self.path).unwrap();
        let cut = self.encoded.len() - bytes.len().min(self.encoded.len());
        let at_boundary = cut == self.encoded.len() || self.starts.contains(&cut);
        prop_assert!(
            self.encoded.ends_with(&bytes) && at_boundary,
            "the file ({} bytes) is not an encoded suffix of the history",
            bytes.len()
        );
        Ok(())
    }
}

fn drive(ops: &[(u8, u8)]) -> Result<(), TestCaseError> {
    let path = temp_path("model");
    let mut pair = Pair::new(path.clone());
    for (i, &(op, arg)) in ops.iter().enumerate() {
        let next = pair.mem.next_lsn().raw();
        // Anywhere from below the first record to past the last one.
        let lsn = Lsn::new(u64::from(arg) % (next + 2));
        let payload = vec![i as u8; usize::from(arg) % 23];
        match op {
            0..=3 => {
                let kind = u32::from(op) + 1;
                let lsn = pair.file.append(kind, &payload).unwrap();
                prop_assert_eq!(lsn, pair.mem.append(kind, &payload).unwrap());
                pair.appended(kind, &payload);
            }
            4 => {
                let records: Vec<(u32, &[u8])> = (0..arg % 4)
                    .map(|k| (10 + u32::from(k), &payload[..usize::from(k) * 2 % (payload.len() + 1)]))
                    .collect();
                let last = pair.file.append_batch(&records).unwrap();
                prop_assert_eq!(last, pair.mem.append_batch(&records).unwrap());
                for (kind, payload) in records {
                    pair.appended(kind, payload);
                }
            }
            5 => pair.holds.push((pair.file.hold().unwrap(), pair.mem.hold().unwrap())),
            6 | 7 if !pair.holds.is_empty() => {
                let (file, mem) = &pair.holds[usize::from(arg) % pair.holds.len()];
                file.release_below(lsn).unwrap();
                mem.release_below(lsn).unwrap();
            }
            8 if !pair.holds.is_empty() => {
                let slot = usize::from(arg) % pair.holds.len();
                pair.holds.swap_remove(slot);
            }
            9 => {
                pair.file.truncate_prefix(lsn).unwrap();
                pair.mem.truncate_prefix(lsn).unwrap();
            }
            10 => pair.reopen(None),
            11 => {
                let torn = LogRecord::new(Lsn::new(next), 1, payload).encode();
                pair.reopen(Some(&torn[..1 + usize::from(arg) % (torn.len() - 1)]));
            }
            _ => {}
        }
        pair.check(lsn)?;
    }
    drop(pair);
    std::fs::remove_file(&path).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn file_wal_behaves_as_its_in_memory_model(
        ops in proptest::collection::vec((0u8..12, 0u8..255), 1..48),
    ) {
        drive(&ops)?;
    }
}

/// Invariant 3 in both directions, pinned: what `FileWal` writes is the
/// concatenated `LogRecord::encode` of its records, and a file of such
/// encodings — what the log wrote before it streamed from its file — opens
/// to exactly those records.
#[test]
fn the_file_is_the_concatenated_record_encodings_both_ways() {
    let records = [
        LogRecord::new(Lsn::new(1), 7, b"alpha".to_vec()),
        LogRecord::new(Lsn::new(2), 8, Vec::new()),
        LogRecord::new(Lsn::new(3), 9, vec![0x5a; 300]),
        LogRecord::new(Lsn::new(4), 10, b"omega".to_vec()),
    ];
    let encoded: Vec<u8> = records.iter().flat_map(LogRecord::encode).collect();

    let written = temp_path("written");
    let wal = FileWal::open(&written).unwrap();
    wal.append(7, b"alpha").unwrap();
    wal.append_batch(&[(8, b"".as_slice()), (9, [0x5a; 300].as_slice())]).unwrap();
    wal.append(10, b"omega").unwrap();
    drop(wal);
    assert_eq!(std::fs::read(&written).unwrap(), encoded);

    let given = temp_path("given");
    std::fs::write(&given, &encoded).unwrap();
    let wal = FileWal::open(&given).unwrap();
    assert_eq!(wal.scan(Lsn::new(0)).unwrap(), records);
    assert_eq!((wal.len(), wal.next_lsn()), (4, Lsn::new(5)));
    for path in [written, given] {
        std::fs::remove_file(path).unwrap();
    }
}
