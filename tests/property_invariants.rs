//! Property-based tests over the core data structures and protocol
//! invariants, with `proptest`.

mod common;

use proptest::prelude::*;

use activity_service::CompletionStatus;
use orb::Value;
use ots::{LockManager, LockMode, TxId, TxStatus};
use recovery_log::{record::crc32, LogRecord, Lsn, MemWal, Wal};
use tx_models::LruowStore;
use wfengine::{FailurePolicy, TaskInput, TaskRegistry, TaskResult, WorkflowEngine, WorkflowGraph};

/// Arbitrary `Value` trees (bounded depth).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        // NaN breaks PartialEq-based roundtrip assertions; use finite.
        (-1.0e12f64..1.0e12).prop_map(Value::F64),
        ".{0,32}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::btree_map(".{0,8}", inner, 0..6)
                .prop_map(|m| m.into_iter().collect::<Value>()),
        ]
    })
}

proptest! {
    /// The `any` codec roundtrips every representable value, and
    /// `encoded_len` is the exact size of the encoding.
    #[test]
    fn value_codec_roundtrips(v in arb_value()) {
        let encoded = v.encode();
        prop_assert_eq!(encoded.len(), v.encoded_len());
        prop_assert_eq!(&encoded[..], &v.encode_to_vec()[..]);
        let decoded = Value::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, v);
    }

    /// Log records roundtrip and detect any single-bit corruption.
    #[test]
    fn log_record_roundtrips_and_detects_bitflips(
        lsn in 0u64..u64::MAX,
        kind in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        flip_bit in any::<u16>(),
    ) {
        let record = LogRecord::new(Lsn::new(lsn), kind, payload);
        let encoded = record.encode();
        let (decoded, used) = LogRecord::decode(&encoded).unwrap();
        prop_assert_eq!(&decoded, &record);
        prop_assert_eq!(used, encoded.len());

        let mut corrupted = encoded.clone();
        let bit = (flip_bit as usize) % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        // Any flipped bit must either fail to decode or decode to a record
        // different from the original in a detectable header field. With a
        // CRC over the whole body, decode must simply fail.
        prop_assert!(LogRecord::decode(&corrupted).is_err());
    }

    /// crc32 differs for any two distinct short payloads we generate
    /// (sanity: not a constant function) and is stable.
    #[test]
    fn crc32_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(crc32(&data), crc32(&data));
    }

    /// A WAL scan returns exactly the appended suffix, in order, for any
    /// sequence of appends and any scan start.
    #[test]
    fn wal_scan_is_a_suffix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..32),
        from in 0u64..40,
    ) {
        let wal = MemWal::new();
        for (i, p) in payloads.iter().enumerate() {
            let lsn = wal.append(i as u32, p).unwrap();
            prop_assert_eq!(lsn, Lsn::new(i as u64 + 1));
        }
        let scanned = wal.scan(Lsn::new(from)).unwrap();
        let expected_len = payloads.len().saturating_sub((from as usize).saturating_sub(1));
        prop_assert_eq!(scanned.len(), expected_len);
        for w in scanned.windows(2) {
            prop_assert!(w[0].lsn < w[1].lsn);
        }
    }

    /// TxId ancestry is a strict partial order consistent with depth.
    #[test]
    fn txid_ancestry_invariants(
        top in 0u64..8,
        path_a in proptest::collection::vec(0u32..4, 0..5),
        path_b in proptest::collection::vec(0u32..4, 0..5),
    ) {
        let build = |path: &[u32]| {
            let mut id = TxId::top_level(top);
            for p in path {
                id = id.child(*p);
            }
            id
        };
        let a = build(&path_a);
        let b = build(&path_b);
        prop_assert!(!a.is_ancestor_of(&a), "never a proper ancestor of self");
        if a.is_ancestor_of(&b) {
            prop_assert!(a.depth() < b.depth());
            prop_assert!(!b.is_ancestor_of(&a), "antisymmetric");
            prop_assert!(a.same_family(&b));
        }
        // parent() inverts child().
        let c = a.child(3);
        prop_assert_eq!(c.parent(), Some(a));
    }

    /// Completion-status transitions: FailOnly is absorbing; everything
    /// else is freely reachable.
    #[test]
    fn completion_status_absorbing(seq in proptest::collection::vec(0u8..3, 0..16)) {
        let statuses = [
            CompletionStatus::Success,
            CompletionStatus::Fail,
            CompletionStatus::FailOnly,
        ];
        let mut current = CompletionStatus::Success;
        let mut fail_only_seen = false;
        for s in seq {
            let next = statuses[s as usize];
            if current.can_transition_to(next) {
                current = next;
            }
            if current == CompletionStatus::FailOnly {
                fail_only_seen = true;
            }
            if fail_only_seen {
                prop_assert_eq!(current, CompletionStatus::FailOnly);
            }
        }
    }

    /// Transaction status never leaves a terminal state under any event
    /// sequence.
    #[test]
    fn tx_status_terminal_states_absorb(seq in proptest::collection::vec(0u8..8, 0..24)) {
        let statuses = [
            TxStatus::Active,
            TxStatus::MarkedRollback,
            TxStatus::Preparing,
            TxStatus::Prepared,
            TxStatus::Committing,
            TxStatus::Committed,
            TxStatus::RollingBack,
            TxStatus::RolledBack,
        ];
        let mut current = TxStatus::Active;
        for s in seq {
            let next = statuses[s as usize];
            if current.is_terminal() {
                prop_assert!(!current.can_transition_to(next));
            } else if current.can_transition_to(next) {
                current = next;
            }
        }
    }

    /// Lock-manager safety: after any interleaving of try_lock/release, no
    /// key is ever exclusively held by two unrelated transaction families.
    #[test]
    fn lock_manager_mutual_exclusion(
        ops in proptest::collection::vec((0u64..4, 0usize..3, any::<bool>(), any::<bool>()), 1..64)
    ) {
        let lm = LockManager::default();
        let keys = ["x", "y", "z"];
        let mut holders: std::collections::HashMap<&str, Vec<(u64, LockMode)>> =
            std::collections::HashMap::new();
        for (tx_n, key_i, exclusive, release) in ops {
            let tx = TxId::top_level(tx_n);
            let key = keys[key_i];
            if release {
                lm.release_all(&tx);
                for held in holders.values_mut() {
                    held.retain(|(t, _)| *t != tx_n);
                }
            } else {
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                if lm.try_lock(&tx, key, mode).is_ok() {
                    let held = holders.entry(key).or_default();
                    if !held.iter().any(|(t, _)| *t == tx_n) {
                        held.push((tx_n, mode));
                    } else if exclusive {
                        for (t, m) in held.iter_mut() {
                            if *t == tx_n { *m = LockMode::Exclusive; }
                        }
                    }
                }
            }
            // Invariant: a key with any exclusive holder has exactly one
            // distinct holder.
            for held in holders.values() {
                if held.iter().any(|(_, m)| *m == LockMode::Exclusive) {
                    let distinct: std::collections::HashSet<u64> =
                        held.iter().map(|(t, _)| *t).collect();
                    prop_assert_eq!(distinct.len(), 1);
                }
            }
        }
    }

    /// LRUOW serialisability: for any interleaving of two counters
    /// increments with retry-on-conflict, the final value equals the total
    /// number of increments (no lost updates).
    #[test]
    fn lruow_has_no_lost_updates(schedule in proptest::collection::vec(any::<bool>(), 1..24)) {
        let store = LruowStore::new("counter");
        store.write("n", Value::I64(0));
        let mut pending: [Option<std::sync::Arc<tx_models::UnitOfWork>>; 2] = [None, None];
        let mut applied = 0i64;
        for first in schedule {
            let who = usize::from(first);
            match pending[who].take() {
                None => {
                    // Rehearse an increment.
                    let uow = std::sync::Arc::new(store.begin_unit_of_work());
                    let n = uow.read("n").unwrap().as_i64().unwrap();
                    uow.write("n", Value::I64(n + 1));
                    pending[who] = Some(uow);
                }
                Some(uow) => {
                    // Perform; on predicate violation re-rehearse and retry
                    // (which must then succeed — nothing else interleaves).
                    if uow.perform().is_err() {
                        let retry = store.begin_unit_of_work();
                        let n = retry.read("n").unwrap().as_i64().unwrap();
                        retry.write("n", Value::I64(n + 1));
                        retry.perform().unwrap();
                    }
                    applied += 1;
                }
            }
        }
        // Flush the stragglers.
        for slot in pending.iter_mut() {
            if let Some(uow) = slot.take() {
                if uow.perform().is_err() {
                    let retry = store.begin_unit_of_work();
                    let n = retry.read("n").unwrap().as_i64().unwrap();
                    retry.write("n", Value::I64(n + 1));
                    retry.perform().unwrap();
                }
                applied += 1;
            }
        }
        prop_assert_eq!(store.read("n").unwrap().as_i64().unwrap(), applied);
    }
}

proptest! {
    /// Workflow engine consistency: for any random layered DAG with random
    /// task failures, the report partitions the task set and no task ran
    /// before its dependencies.
    #[test]
    fn workflow_report_partitions_tasks(
        widths in proptest::collection::vec(1usize..4, 1..4),
        fail_mask in proptest::collection::vec(any::<bool>(), 12),
        dense in any::<bool>(),
    ) {
        use std::sync::Arc;
        use parking_lot::Mutex;

        let mut graph = WorkflowGraph::new();
        let mut registry = TaskRegistry::new();
        let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let mut names: Vec<Vec<String>> = Vec::new();
        let mut idx = 0usize;
        for (layer, width) in widths.iter().enumerate() {
            let mut layer_names = Vec::new();
            for w in 0..*width {
                let name = format!("t{layer}x{w}");
                graph.add_task(&name).unwrap();
                let fails = fail_mask.get(idx).copied().unwrap_or(false);
                idx += 1;
                let order2 = Arc::clone(&order);
                let name2 = name.clone();
                registry.register(&name, move |_i: &TaskInput| {
                    order2.lock().push(name2.clone());
                    if fails {
                        TaskResult::failed("injected")
                    } else {
                        TaskResult::ok(orb::Value::Null)
                    }
                });
                if layer > 0 {
                    if dense {
                        for upstream in &names[layer - 1] {
                            graph.add_dependency(&name, upstream).unwrap();
                        }
                    } else {
                        graph.add_dependency(&name, &names[layer - 1][w % names[layer - 1].len()]).unwrap();
                    }
                }
                layer_names.push(name);
            }
            names.push(layer_names);
        }

        let all: std::collections::BTreeSet<String> =
            graph.task_names().into_iter().collect();
        let engine = WorkflowEngine::new(graph.clone(), registry)
            .unwrap()
            .with_policy(FailurePolicy::ContinuePossible);
        let service = activity_service::ActivityService::new();
        let report = engine.run(&service, "prop", orb::Value::Null).unwrap();

        // Partition: completed + failed + skipped = all, disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for t in report.completed.iter().chain(&report.failed).chain(&report.skipped) {
            prop_assert!(seen.insert(t.clone()), "task {} reported twice", t);
        }
        prop_assert_eq!(seen, all);

        // Ordering: every executed task ran after all its dependencies
        // completed (dependencies of executed tasks must have succeeded).
        let executed = order.lock().clone();
        let position: std::collections::HashMap<&String, usize> =
            executed.iter().enumerate().map(|(i, n)| (n, i)).collect();
        for task in executed.iter() {
            let spec = graph.node(task).unwrap();
            for dep in &spec.dependencies {
                if spec.join == wfengine::JoinKind::All {
                    prop_assert!(
                        report.completed.contains(dep),
                        "{} ran but dependency {} did not complete",
                        task,
                        dep
                    );
                    prop_assert!(position[&dep.clone()] < position[&task.clone()]);
                }
            }
        }
    }
}

/// What the reference scheduler below expects of a run.
#[derive(Debug, Default, PartialEq)]
struct Expected {
    completed: Vec<String>,
    outputs: std::collections::BTreeMap<String, Value>,
    failed: Vec<String>,
    skipped: Vec<String>,
    compensations: Vec<(String, String)>,
    trace: Vec<String>,
}

/// One generated task: who it waits for and how, how often its body may be
/// retried, how many of its first attempts fail, whether it is compensated.
struct TaskModel {
    name: String,
    dependencies: Vec<String>,
    any_join: bool,
    retries: u32,
    failing_attempts: u32,
    compensated: bool,
}

/// A body's output: one more than the sum of what it was handed, so
/// `outputs` checks which upstream results reached which task.
fn body_output(upstream: impl Iterator<Item = i64>) -> i64 {
    1 + upstream.sum::<i64>()
}

/// The scheduler written the obvious way — by name, rescanning everything
/// every round, batch-synchronous, ready tasks in name order — against
/// which the compiled, indexed run path is checked.
fn reference_run(tasks: &[TaskModel], stop_on_failure: bool) -> Expected {
    use std::collections::{BTreeMap, BTreeSet};
    let by_name: BTreeMap<&str, &TaskModel> = tasks.iter().map(|t| (t.name.as_str(), t)).collect();
    let mut finished: BTreeMap<&str, Option<i64>> = BTreeMap::new(); // Some(output) = succeeded
    let mut pending: BTreeSet<&str> = by_name.keys().copied().collect();
    let mut expected = Expected::default();
    let succeeded = |finished: &BTreeMap<&str, Option<i64>>, dep: &String| {
        finished.get(dep.as_str()).copied().flatten()
    };
    'schedule: loop {
        let ready: Vec<&TaskModel> = pending
            .iter()
            .map(|name| by_name[name])
            .filter(|task| {
                let mut oks = task.dependencies.iter().map(|d| succeeded(&finished, d).is_some());
                task.dependencies.is_empty() || if task.any_join { oks.any(|ok| ok) } else { oks.all(|ok| ok) }
            })
            .collect();
        if ready.is_empty() {
            break;
        }
        // The whole batch starts from what had finished before it.
        let results: Vec<(&TaskModel, Option<i64>)> = ready
            .iter()
            .map(|task| {
                pending.remove(task.name.as_str());
                let inputs = task.dependencies.iter().filter_map(|d| succeeded(&finished, d));
                (*task, (task.failing_attempts <= task.retries).then(|| body_output(inputs)))
            })
            .collect();
        for (task, output) in results {
            // The fig. 10 exchange: one `outcome` signal to every dependent.
            expected.trace.push("get_signal(CompletedSignalSet)".into());
            for dependent in by_name.values().filter(|t| t.dependencies.contains(&task.name)) {
                expected.trace.push(format!("\"outcome\" -> {}", dependent.name));
                expected.trace.push("set_response(CompletedSignalSet, outcome_ack)".into());
            }
            expected.trace.push("get_outcome(CompletedSignalSet) = done".into());
            finished.insert(&task.name, output);
            match output {
                Some(output) => {
                    expected.outputs.insert(task.name.clone(), Value::I64(output));
                    expected.completed.push(task.name.clone());
                }
                None => {
                    expected.failed.push(task.name.clone());
                    if stop_on_failure {
                        break 'schedule;
                    }
                }
            }
        }
    }
    expected.skipped = pending.iter().map(|name| (*name).to_owned()).collect();
    if stop_on_failure && !expected.failed.is_empty() {
        expected.compensations = expected
            .completed
            .iter()
            .rev()
            .filter(|name| by_name[name.as_str()].compensated)
            .map(|name| (name.clone(), format!("undo-{name}")))
            .collect();
    }
    expected
}

proptest! {
    /// The compiled plan schedules exactly as the by-name reference does:
    /// same report, and the same coordinator trace text, for random DAGs
    /// (name order unrelated to dependency order), join kinds, retries and
    /// failing bodies, under both failure policies.
    #[test]
    fn compiled_plan_matches_the_reference_scheduler(
        specs in proptest::collection::vec(
            (any::<u16>(), any::<bool>(), 0u32..3, 0u32..5, any::<bool>(), any::<u8>()),
            1..10,
        ),
        stop_on_failure in any::<bool>(),
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        let mut tasks: Vec<TaskModel> = Vec::new();
        for (index, (mask, any_join, retries, failing, compensated, key)) in specs.into_iter().enumerate() {
            // Two in five bodies fail at first; retries rescue some of them.
            let failing_attempts = failing.saturating_sub(2);
            let dependencies = (0..index)
                .filter(|earlier| mask & (1 << earlier) != 0 && mask & (1 << (earlier + 8)) != 0)
                .map(|earlier| tasks[earlier].name.clone())
                .collect();
            let name = format!("t{key:03}-{index}");
            tasks.push(TaskModel { name, dependencies, any_join, retries, failing_attempts, compensated });
        }

        let mut graph = WorkflowGraph::new();
        let mut registry = TaskRegistry::new();
        for task in &tasks {
            graph.add_task(&task.name).unwrap();
            let (attempts, failing) = (AtomicU32::new(0), task.failing_attempts);
            registry.register(&task.name, move |input: &TaskInput| {
                if attempts.fetch_add(1, Ordering::SeqCst) < failing {
                    return TaskResult::failed("injected");
                }
                TaskResult::ok(Value::I64(body_output(input.upstream.values().filter_map(Value::as_i64))))
            });
            if task.compensated {
                graph.set_compensation(&task.name, format!("undo-{}", task.name)).unwrap();
                registry.register(format!("undo-{}", task.name), |_: &TaskInput| TaskResult::ok(Value::Null));
            }
        }
        for task in &tasks {
            for dependency in &task.dependencies {
                graph.add_dependency(&task.name, dependency).unwrap();
            }
            graph.set_retries(&task.name, task.retries).unwrap();
            if task.any_join {
                graph.set_join(&task.name, wfengine::JoinKind::Any).unwrap();
            }
        }

        let recorder = telemetry::FlightRecorder::new("wf", 4096);
        let env = orb::Env { recorder: Some(recorder.clone()), ..Default::default() }.wired();
        let policy = if stop_on_failure {
            FailurePolicy::CompensateAndStop
        } else {
            FailurePolicy::ContinuePossible
        };
        let engine = WorkflowEngine::new(graph, registry)
            .unwrap()
            .with_policy(policy)
            .with_env(Arc::clone(&env));
        let service = activity_service::ActivityService::builder().env(env).build();
        let report = engine.run(&service, "prop", Value::Null).unwrap();

        let actual = Expected {
            completed: report.completed,
            outputs: report.outputs,
            failed: report.failed,
            skipped: report.skipped,
            compensations: report
                .compensations
                .into_iter()
                .map(|record| {
                    assert!(record.success);
                    (record.step.task, record.step.compensation)
                })
                .collect(),
            trace: common::trace(&recorder).iter().map(ToString::to_string).collect(),
        };
        prop_assert_eq!(actual, reference_run(&tasks, stop_on_failure));
    }
}
