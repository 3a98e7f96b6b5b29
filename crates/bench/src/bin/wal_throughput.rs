//! Group-commit WAL throughput sweep (DESIGN.md §12): commit-record
//! throughput of 1–16 concurrent committers forcing records through a real
//! file-backed log, per-record sync vs group commit. One "commit" is the
//! 2PC forcing discipline in miniature: a prepared record and a completion
//! record that may ride a batch, and a decision record awaited durably.
//! Per-record sync pays one fsync per decision; the group-commit wrapper
//! coalesces concurrent decisions under one leader sync, so throughput
//! scales with the committer count instead of flatlining on fsync latency.
//!
//! Writes the machine-readable sweep to the path in `WAL_BENCH_SNAPSHOT`,
//! default `target/wal_throughput.json` (the CI artifact); the committed
//! reference numbers live in `BENCH_wal.json`.
//!
//! Run with: `cargo run -q -p bench --bin wal_throughput --release`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use recovery_log::{FileWal, GroupCommitWal, Wal};

const COMMITTERS: &[usize] = &[1, 2, 4, 8, 16];
const COMMITS_PER_THREAD: usize = 200;
const KIND_PREPARED: u32 = 0x0102;
const KIND_DECISION: u32 = 0x0103;
const KIND_COMPLETED: u32 = 0x0104;

fn bench_path(tag: &str) -> std::path::PathBuf {
    // Under target/ (the build tree's real filesystem), not /tmp: tmpfs
    // would make sync_data free and the comparison meaningless.
    let mut p = std::path::PathBuf::from("target");
    p.push(format!("wal-throughput-{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Drive `committers` threads, each forcing `COMMITS_PER_THREAD` decision
/// records through `wal`. Returns (commits/sec, syncs observed).
fn run(wal: Arc<dyn Wal>, committers: usize, tel: &telemetry::Telemetry) -> (f64, u64) {
    let before = tel.metrics().counter_value("wal_syncs_total");
    let start = Instant::now();
    let mut handles = Vec::with_capacity(committers);
    for t in 0..committers {
        let wal = Arc::clone(&wal);
        handles.push(std::thread::spawn(move || {
            for i in 0..COMMITS_PER_THREAD {
                let tag = format!("tx-{t}-{i}");
                wal.append(KIND_PREPARED, tag.as_bytes()).expect("prepared");
                wal.append_durable(KIND_DECISION, tag.as_bytes()).expect("decision");
                wal.append(KIND_COMPLETED, tag.as_bytes()).expect("completed");
            }
        }));
    }
    for h in handles {
        h.join().expect("committer thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    wal.sync().expect("final sync");
    let syncs = tel.metrics().counter_value("wal_syncs_total") - before;
    ((committers * COMMITS_PER_THREAD) as f64 / elapsed, syncs)
}

fn main() {
    println!("## W1 (sec 12): group-commit WAL throughput, commits/sec");
    println!(
        "# {COMMITS_PER_THREAD} commits/thread; commit = prepared + forced decision + completed"
    );
    println!(
        "{:>10} {:>14} {:>14} {:>9} {:>12} {:>12}",
        "committers", "per-record", "group", "speedup", "syncs(rec)", "syncs(grp)"
    );

    let mut rows = String::new();
    let mut speedup_at_8 = 0.0f64;
    for &n in COMMITTERS {
        // Per-record sync: the default `append_durable` on FileWal is
        // append + its own fsync, serialized through the log.
        let tel_rec = telemetry::Telemetry::new();
        let path = bench_path(&format!("rec-{n}"));
        let file = FileWal::open(&path).expect("open per-record wal").metered_by(&tel_rec);
        let (rec_tput, rec_syncs) = run(Arc::new(file), n, &tel_rec);
        let _ = std::fs::remove_file(&path);

        // Group commit: same sink, one leader sync per batch.
        let tel_grp = telemetry::Telemetry::new();
        let path = bench_path(&format!("grp-{n}"));
        let group = GroupCommitWal::new(FileWal::open(&path).expect("open group wal"))
            .metered_by(&tel_grp);
        let (grp_tput, grp_syncs) = run(Arc::new(group), n, &tel_grp);
        let _ = std::fs::remove_file(&path);

        let speedup = grp_tput / rec_tput;
        if n == 8 {
            speedup_at_8 = speedup;
        }
        println!(
            "{n:>10} {rec_tput:>14.0} {grp_tput:>14.0} {speedup:>8.1}x {rec_syncs:>12} {grp_syncs:>12}"
        );
        let _ = write!(
            rows,
            "{}{{\"committers\":{n},\"per_record_commits_per_sec\":{rec_tput:.0},\
             \"group_commits_per_sec\":{grp_tput:.0},\"speedup\":{speedup:.2},\
             \"per_record_syncs\":{rec_syncs},\"group_syncs\":{grp_syncs}}}",
            if rows.is_empty() { "" } else { "," }
        );
    }
    println!("# speedup at 8 committers: {speedup_at_8:.1}x (regression floor: 3x)");

    let json = format!(
        "{{\"experiment\":\"wal_throughput\",\"commits_per_thread\":{COMMITS_PER_THREAD},\
         \"rows\":[{rows}]}}\n"
    );
    let path = std::env::var("WAL_BENCH_SNAPSHOT")
        .unwrap_or_else(|_| "target/wal_throughput.json".to_owned());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("# sweep snapshot written to {path}"),
        Err(e) => println!("# sweep snapshot NOT written ({path}: {e})"),
    }

    if std::env::var_os("WAL_BENCH_ENFORCE").is_some() {
        assert!(
            speedup_at_8 >= 3.0,
            "group commit must be >=3x per-record sync at 8 committers, got {speedup_at_8:.1}x"
        );
        println!("# regression floor enforced: ok");
    }
}
