//! Figure-regeneration harness: prints, for every quantifiable experiment
//! in DESIGN.md's index, the series whose *shape* the paper claims.
//! `EXPERIMENTS.md` records this output next to the paper's qualitative
//! claims.
//!
//! Run with: `cargo run -q -p bench --bin figures --release`

use std::time::Instant;

fn time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn main() {
    println!("# Figure-regeneration harness");
    println!("# (virtual-time metrics are deterministic; wall-clock ones vary by host)\n");

    // ---------------- F1: fig. 1 — lock hold & competitor throughput ----
    println!("## F1 (fig. 1): activity-chain vs monolithic transaction");
    println!("{:>6} {:>22} {:>22} {:>14} {:>14}",
        "steps", "hold(chained)", "hold(monolithic)", "conf(chain)", "conf(mono)");
    for steps in [1usize, 2, 4, 8, 16, 32] {
        let chained = bench::fig1_booking(steps, true);
        let mono = bench::fig1_booking(steps, false);
        println!(
            "{:>6} {:>20}s {:>20}s {:>14} {:>14}",
            steps,
            chained.mean_hold.as_secs(),
            mono.mean_hold.as_secs(),
            chained.competitor_conflicts,
            mono.competitor_conflicts,
        );
    }
    println!("# shape: chained hold stays ~constant; monolithic grows ~linearly with steps,");
    println!("#        so competitor conflicts grow ~linearly too.\n");

    // ---------------- F2: fig. 2 — compensation sweep cost ---------------
    println!("## F2 (fig. 2): compensation path, failure at the last step");
    println!("{:>6} {:>14} {:>14}", "steps", "compensated", "wall µs");
    for steps in [2usize, 4, 8, 16, 32] {
        let (compensated, elapsed) = time(|| bench::fig2_compensation(steps));
        println!("{:>6} {:>14} {:>14}", steps, compensated, elapsed.as_micros());
    }
    println!("# shape: compensations = steps - 1; cost linear in steps.\n");

    // ---------------- F5: fig. 5 — dispatch fan-out ----------------------
    println!("## F5 (fig. 5): coordinator dispatch vs number of actions");
    println!("{:>8} {:>12} {:>16}", "actions", "wall µs", "µs/action");
    for actions in [1usize, 8, 64, 256, 1024] {
        let (responses, elapsed) = time(|| bench::fig5_dispatch(actions));
        assert_eq!(responses as usize, actions);
        println!(
            "{:>8} {:>12} {:>16.3}",
            actions,
            elapsed.as_micros(),
            elapsed.as_micros() as f64 / actions as f64
        );
    }
    println!("# shape: linear in actions; per-action cost flat (broadcast loop).\n");

    // ---------------- F8: fig. 8 — signal-2PC vs native OTS -------------
    println!("## F8 (fig. 8): two-phase commit, signal framework vs native OTS");
    println!("{:>13} {:>16} {:>16} {:>8}", "participants", "signal µs", "native µs", "ratio");
    for participants in [2usize, 4, 8, 16, 32, 64] {
        // Average over a few runs to steady the small numbers.
        const RUNS: u32 = 20;
        let (_, signal_t) = time(|| {
            for _ in 0..RUNS {
                assert!(bench::fig8_signal_2pc(participants));
            }
        });
        let (_, native_t) = time(|| {
            for _ in 0..RUNS {
                assert!(bench::fig8_native_2pc(participants));
            }
        });
        let s = signal_t.as_micros() as f64 / f64::from(RUNS);
        let n = native_t.as_micros() as f64 / f64::from(RUNS);
        println!("{:>13} {:>16.1} {:>16.1} {:>8.2}", participants, s, n, s / n.max(0.001));
    }
    println!("# shape: both linear in participants; the framework costs a small constant");
    println!("#        factor over the hardwired coordinator (the price of generality).\n");

    // ---------------- F10: fig. 10 — workflow makespan -------------------
    println!("## F10 (fig. 10): workflow engine, width x depth sweeps");
    println!(
        "{:>7} {:>7} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "width", "depth", "tasks", "seq µs", "par µs", "run µs", "run ns/task"
    );
    for (width, depth) in
        [(1usize, 8usize), (1, 64), (2, 8), (4, 8), (8, 8), (8, 1), (8, 2), (8, 4)]
    {
        let (done_seq, seq) = time(|| bench::fig10_workflow(width, depth, false));
        let (done_par, par) = time(|| bench::fig10_workflow(width, depth, true));
        assert_eq!(done_seq, width * depth);
        assert_eq!(done_par, width * depth);
        // seq/par build the graph and the engine inside the timed call;
        // `run` is one sequential run of an engine built once (best of 50).
        let (graph, registry) = bench::layered_workflow(width, depth);
        let engine = wfengine::WorkflowEngine::new(graph, registry).expect("engine");
        let service = activity_service::ActivityService::new();
        let run = (0..50)
            .map(|_| time(|| engine.run(&service, "bench", orb::Value::Null).expect("run")).1)
            .min()
            .expect("fifty runs");
        println!(
            "{:>7} {:>7} {:>7} {:>10} {:>10} {:>10.1} {:>12.0}",
            width,
            depth,
            width * depth,
            seq.as_micros(),
            par.as_micros(),
            run.as_secs_f64() * 1e6,
            run.as_secs_f64() * 1e9 / (width * depth) as f64,
        );
    }
    println!("# shape: a run costs per task and per edge (a width-w layer adds w tasks and");
    println!("#        w*w edges); at a fixed width every further layer costs the same.\n");

    // ---------------- F11/F12: BTP atoms & cohesions ---------------------
    println!("## F11/F12 (figs. 11-12): BTP termination");
    println!("{:>8} {:>16} {:>18}", "size", "atom µs", "cohesion µs");
    for size in [2usize, 4, 8, 16, 32] {
        let (_, atom_t) = time(|| assert!(bench::fig11_atom(size)));
        let (confirmed, cohesion_t) = time(|| bench::fig11_cohesion(size));
        assert_eq!(confirmed, size / 2);
        println!(
            "{:>8} {:>16} {:>18}",
            size,
            atom_t.as_micros(),
            cohesion_t.as_micros()
        );
    }
    println!("# shape: both linear; a cohesion of n atoms ~ n independent 2-signal atoms");
    println!("#        plus selection overhead.\n");

    // ---------------- X1: LRUOW vs strict locking ------------------------
    println!("## X1 (sec 4.3): LRUOW rehearsal/perform vs strict 2PL, 2000 increments");
    println!("{:>15} {:>12} {:>14} {:>14} {:>14}",
        "conflict every", "lruow µs", "lruow retries", "locking µs", "lock conflicts");
    for conflict_every in [0usize, 100, 20, 5, 2] {
        let (lruow, lruow_t) = time(|| bench::lruow_counter(2000, conflict_every));
        let (lock_conflicts, locking_t) = time(|| bench::locking_counter(2000, conflict_every));
        println!(
            "{:>15} {:>12} {:>14} {:>14} {:>14}",
            if conflict_every == 0 { "never".to_string() } else { conflict_every.to_string() },
            lruow_t.as_micros(),
            lruow.1,
            locking_t.as_micros(),
            lock_conflicts
        );
    }
    println!("# shape: at low conflict rates LRUOW ~ lock-free and cheap; as conflicts rise");
    println!("#        its retries grow, converging toward the locking baseline's cost.\n");

    // ---------------- X2: recovery replay --------------------------------
    println!("## X2 (sec 3.4): activity-log replay time vs log size");
    println!("{:>12} {:>12} {:>16}", "activities", "wall µs", "µs/activity");
    for records in [10usize, 100, 1000, 5000] {
        let (recovered, elapsed) = time(|| bench::recovery_replay(records));
        assert_eq!(recovered, records);
        println!(
            "{:>12} {:>12} {:>16.2}",
            records,
            elapsed.as_micros(),
            elapsed.as_micros() as f64 / records as f64
        );
    }
    println!("# shape: linear in log size.\n");

    // ---------------- Ablation: framework dispatch overhead --------------
    println!("## Ablation: checked coordinator loop vs direct calls (1024 actions, 100 rounds)");
    let actions = bench::trivial_actions(1024);
    let (_, direct) = time(|| {
        for _ in 0..100 {
            assert_eq!(bench::direct_dispatch(&actions), 1024);
        }
    });
    let (_, framed) = time(|| {
        for _ in 0..100 {
            assert_eq!(bench::fig5_dispatch(1024), 1024);
        }
    });
    println!(
        "direct {:>10} µs   framework {:>10} µs   overhead x{:.2}",
        direct.as_micros(),
        framed.as_micros(),
        framed.as_micros() as f64 / direct.as_micros().max(1) as f64
    );
    println!("# shape: the coordinator's state machine + registration snapshotting costs a");
    println!("#        small multiple of a bare function-call loop.\n");

    // ---------------- X8: interposition economics -------------------------
    println!("## X8: interposition — superior-side network messages per protocol run");
    println!("{:>13} {:>14} {:>18}", "participants", "flat msgs", "interposed msgs");
    for participants in [4usize, 8, 16] {
        let flat = bench::interposition_messages(participants, false);
        let interposed = bench::interposition_messages(participants, true);
        println!("{:>13} {:>14} {:>18}", participants, flat, interposed);
    }
    println!("# shape: flat grows linearly with participants; interposed is constant");
    println!("#        (one relay per node), independent of local fan-out.");
}
