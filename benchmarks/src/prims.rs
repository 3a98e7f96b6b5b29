//! Isolated loops over single public primitives. Each runs for a fixed time
//! budget in the traced phase of the workload it belongs to and reports
//! time and allocations per call.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use activity_service::Signal;
use orb::{CancelToken, DedupWindow, Orb, Request, SimClock, TaskOutcome, Value, WorkerPool};
use ots::{LockManager, LockMode, TxId};
use recovery_log::{FileWal, GroupCommitWal, Lsn, MemWal, Wal};
use tx_models::TWO_PC_SET;

use crate::alloc::total_allocs;
use crate::remote::BoxError;

/// Mean cost of one call of a primitive.
#[derive(Debug, Clone, Copy)]
pub struct Prim {
    pub ns: f64,
    pub allocs: f64,
    pub calls: u64,
}

/// Call `body` in batches until `budget` has passed or `max_calls` is
/// reached (a cap for primitives that retain what they are given).
fn measure(budget: Duration, max_calls: u64, mut body: impl FnMut()) -> Prim {
    const BATCH: u64 = 32;
    for _ in 0..BATCH {
        body();
    }
    let allocs_before = total_allocs();
    let begun = Instant::now();
    let mut calls = 0;
    while calls < max_calls && begun.elapsed() < budget {
        for _ in 0..BATCH {
            body();
        }
        calls += BATCH;
    }
    let elapsed = begun.elapsed().as_nanos() as f64;
    let allocs = (total_allocs() - allocs_before) as f64;
    Prim {
        ns: elapsed / calls as f64,
        allocs: allocs / calls as f64,
        calls,
    }
}

/// One fault-free request/reply between two nodes to a servant that
/// returns its argument: the ORB's invoke path and nothing else.
pub fn invoke_echo(budget: Duration) -> Result<Prim, BoxError> {
    let orb = Orb::new();
    orb.add_node("client")?;
    let server = orb.add_node("server")?;
    let object = server.activate("Echo", |request: &Request| {
        Ok(request.arg("x").cloned().unwrap_or(Value::Null))
    })?;
    Ok(measure(budget, u64::MAX, || {
        let request = Request::new("echo").with_arg("x", Value::U64(7));
        black_box(
            orb.invoke_from("client", &object, request)
                .expect("echo reply"),
        );
    }))
}

/// A stamped 2PC signal to its wire `Value` and back.
pub fn value_roundtrip(budget: Duration) -> Prim {
    let signal = Signal::new("prepare", TWO_PC_SET)
        .with_data(Value::U64(7))
        .with_delivery_id("17:2PCSignalSet:1");
    measure(budget, u64::MAX, || {
        let value = black_box(&signal).to_value();
        black_box(Signal::from_value(&value).expect("signal decodes"));
    })
}

/// A hit in a full dedup window.
pub fn dedup_lookup(budget: Duration) -> Prim {
    let ids: Vec<String> = (0..1024).map(|i| format!("{i}:2PCSignalSet:1")).collect();
    let window = DedupWindow::new(ids.len());
    for id in &ids {
        window.record(id, Value::Bool(true));
    }
    let mut next = 0;
    measure(budget, u64::MAX, || {
        black_box(window.lookup(&ids[next % ids.len()]));
        next += 1;
    })
}

/// The dispatch pool's hand-off: scatter two no-op tasks and collect both.
pub fn pool_scatter2(budget: Duration) -> Prim {
    let pool = WorkerPool::global();
    let cancel = CancelToken::new();
    measure(budget, u64::MAX, || {
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        for outcome in pool.scatter(tasks, &cancel) {
            assert!(matches!(outcome, TaskOutcome::Done(_)));
        }
    })
}

/// One exclusive lock taken and released.
pub fn lock_cycle(budget: Duration) -> Prim {
    let locks = LockManager::new(SimClock::new());
    let tx = TxId::top_level(1);
    measure(budget, u64::MAX, || {
        locks
            .try_lock(&tx, "c0/k0001", LockMode::Exclusive)
            .expect("uncontended lock");
        black_box(locks.release_all(&tx));
    })
}

const PAYLOAD: [u8; 96] = [0x5a; 96];

/// An unforced append through group commit over an in-memory sink (the
/// processor cost of staging and of the threshold hand-off, no disk).
pub fn wal_append(budget: Duration) -> Prim {
    let wal = GroupCommitWal::new(MemWal::new());
    // The sink retains every record: cap the loop at about 40 MB.
    measure(budget, 200_000, || {
        black_box(wal.append(1, &PAYLOAD).expect("append"));
    })
}

/// A forced append by a single committer through group commit over a file,
/// and a scan of what it wrote: `(force, scan per record)`.
pub fn wal_force_and_scan(budget: Duration, dir: &Path) -> Result<(Prim, Prim), BoxError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("prim.wal");
    let _ = std::fs::remove_file(&path);
    let wal: Arc<dyn Wal> = Arc::new(GroupCommitWal::new(FileWal::open(&path)?));
    let force = measure(budget, u64::MAX, || {
        black_box(wal.append_durable(1, &PAYLOAD).expect("forced append"));
    });
    for _ in 0..20_000 {
        wal.append(1, &PAYLOAD)?;
    }
    wal.sync()?;
    let records = wal.len() as f64;
    let scan = measure(budget, u64::MAX, || {
        let mut seen = 0u64;
        wal.scan_with(Lsn::new(0), &mut |record| {
            seen += u64::from(record.kind);
            Ok(())
        })
        .expect("scan");
        black_box(seen);
    });
    drop(wal);
    std::fs::remove_file(&path)?;
    let per_record = Prim {
        ns: scan.ns / records,
        allocs: scan.allocs / records,
        ..scan
    };
    Ok((force, per_record))
}
