//! Durable transaction records and crash recovery.
//!
//! The coordinator writes three kinds of records for a top-level transaction
//! that reaches phase two:
//!
//! 1. [`KIND_TX_PREPARED`] — entering phase one, with participant names;
//! 2. [`KIND_TX_DECISION`] — the commit decision (the *only* record that
//!    must be forced before phase two; presumed abort makes an explicit
//!    rollback decision unnecessary);
//! 3. [`KIND_TX_COMPLETED`] — the outcome was fully delivered.
//!
//! [`recover`] scans a log and classifies every transaction: decided but not
//! completed ⇒ **re-deliver commit**; prepared but undecided ⇒ **presumed
//! abort** (re-deliver rollback). A [`ParticipantResolver`] maps the logged
//! participant names back to live [`Resource`]s — the "rebinding" half of
//! the paper's §3.4 recovery requirements, at the transaction level.

use std::collections::BTreeMap;

use orb::{MapWriter, Value, ValueMap};
use recovery_log::{LogError, Lsn, Wal};

use crate::error::TxError;
use crate::resource::Resource;
use crate::status::TxStatus;
use crate::xid::TxId;

/// Record kind: a top-level transaction was begun.
pub const KIND_TX_BEGUN: u32 = 0x0101;
/// Record kind: phase one entered; payload lists participant names.
pub const KIND_TX_PREPARED: u32 = 0x0102;
/// Record kind: commit decision made durable.
pub const KIND_TX_DECISION: u32 = 0x0103;
/// Record kind: outcome fully delivered.
pub const KIND_TX_COMPLETED: u32 = 0x0104;

/// Serialise a [`TxId`] into a [`Value`].
pub fn txid_to_value(tx: &TxId) -> Value {
    let mut m = ValueMap::new();
    m.insert("top".into(), Value::U64(tx.top_seq()));
    m.insert(
        "branch".into(),
        Value::List(tx.branch().iter().map(|&i| Value::U64(u64::from(i))).collect()),
    );
    Value::Map(m)
}

/// Deserialise a [`TxId`] from a [`Value`].
///
/// # Errors
///
/// Returns [`TxError::Log`] on malformed input.
pub fn txid_from_value(value: &Value) -> Result<TxId, TxError> {
    let m = value.as_map().ok_or_else(|| TxError::Log("txid must be a map".into()))?;
    let top = m
        .get("top")
        .and_then(Value::as_u64)
        .ok_or_else(|| TxError::Log("txid missing top".into()))?;
    let mut tx = TxId::top_level(top);
    if let Some(Value::List(items)) = m.get("branch") {
        for item in items {
            let idx = item.as_u64().ok_or_else(|| TxError::Log("bad branch index".into()))?;
            tx = tx.child(idx as u32);
        }
    }
    Ok(tx)
}

/// Write a [`TxId`]'s fields into `fields`: the map [`txid_to_value`]
/// builds, with nothing built.
pub fn write_txid(fields: &mut MapWriter<'_>, tx: &TxId) {
    fields
        .list("branch", |branch| {
            for &index in tx.branch() {
                branch.u64(u64::from(index));
            }
        })
        .u64("top", tx.top_seq());
}

/// Write a begin record.
///
/// # Errors
///
/// Propagates log failures.
pub fn log_begun(wal: &dyn Wal, tx: &TxId) -> Result<Lsn, LogError> {
    MapWriter::encode(|fields| write_txid(fields, tx), |record| wal.append(KIND_TX_BEGUN, record))
}

/// Write the phase-one record with participant names.
///
/// # Errors
///
/// Propagates log failures.
pub fn log_prepared(wal: &dyn Wal, tx: &TxId, participants: &[&str]) -> Result<Lsn, LogError> {
    MapWriter::encode(
        |fields| {
            fields
                .list("participants", |names| {
                    for name in participants {
                        names.str(name);
                    }
                })
                .map("tx", |id| write_txid(id, tx));
        },
        |record| wal.append(KIND_TX_PREPARED, record),
    )
}

/// Force the commit decision: the one record of the protocol that must be
/// durable before phase two (presumed abort covers every other loss). The
/// durability barrier is [`Wal::append_durable`], so a group-commit log
/// coalesces concurrent decisions — and any records staged before them,
/// including an interposed subcoordinator's — into one sync.
///
/// # Errors
///
/// Propagates log failures.
pub fn log_decision_commit(wal: &dyn Wal, tx: &TxId) -> Result<Lsn, LogError> {
    MapWriter::encode(
        |fields| write_txid(fields, tx),
        |record| wal.append_durable(KIND_TX_DECISION, record),
    )
}

/// Record that the outcome was fully delivered.
///
/// # Errors
///
/// Propagates log failures.
pub fn log_completed(wal: &dyn Wal, tx: &TxId, status: TxStatus) -> Result<Lsn, LogError> {
    log_completion(wal, tx, status, true)
}

/// [`log_completed`], marking a commit some participant did not acknowledge
/// (the fault-free record is unchanged): that participant will interrogate,
/// so the decision must outlive the transaction — [`recover`] reports it in
/// [`TxRecoveryReport::retain_from`].
///
/// # Errors
///
/// Propagates log failures.
pub fn log_completion(
    wal: &dyn Wal,
    tx: &TxId,
    status: TxStatus,
    acknowledged: bool,
) -> Result<Lsn, LogError> {
    MapWriter::encode(
        |fields| {
            fields
                .bool("committed", status == TxStatus::Committed)
                .map("tx", |id| write_txid(id, tx));
            if !acknowledged {
                fields.bool("unacknowledged", true);
            }
        },
        |record| wal.append(KIND_TX_COMPLETED, record),
    )
}

/// Maps logged participant names back to live resources after a restart.
pub trait ParticipantResolver {
    /// Produce the resource registered under `name` before the crash, or
    /// `None` when it no longer exists (its vote is then unrecoverable and
    /// the transaction is reported as a heuristic hazard).
    fn resolve(&self, name: &str) -> Option<std::sync::Arc<dyn Resource>>;
}

impl<F> ParticipantResolver for F
where
    F: Fn(&str) -> Option<std::sync::Arc<dyn Resource>>,
{
    fn resolve(&self, name: &str) -> Option<std::sync::Arc<dyn Resource>> {
        self(name)
    }
}

/// What recovery did for the in-doubt transactions it found.
#[derive(Debug, Default)]
pub struct TxRecoveryReport {
    /// Decided transactions whose commit was re-delivered.
    pub recommitted: Vec<TxId>,
    /// Prepared-but-undecided transactions rolled back (presumed abort).
    pub presumed_aborted: Vec<TxId>,
    /// Participants that could not be rebound.
    pub unresolved: Vec<(TxId, String)>,
    /// First record of the oldest commit some participant has still not
    /// acknowledged (before the crash or in this pass): the log from here on
    /// must stay, for `replay_completion` to keep answering `committed`.
    pub retain_from: Option<Lsn>,
}

#[derive(Default)]
struct TxTrace {
    /// LSN of the first record the log retains of this transaction.
    first: Lsn,
    participants: Vec<String>,
    prepared: bool,
    decided: bool,
    completed: bool,
    /// The completion record says a participant never acknowledged.
    unacknowledged: bool,
}

/// Scan `wal` and finish every in-doubt transaction.
///
/// # Errors
///
/// Returns [`TxError::Log`] when the log cannot be scanned or a record is
/// malformed.
pub fn recover(wal: &dyn Wal, resolver: &dyn ParticipantResolver) -> Result<TxRecoveryReport, TxError> {
    let mut traces: BTreeMap<TxId, TxTrace> = BTreeMap::new();
    // Zero-copy pass: records are decoded in place, never cloned out of
    // the log. Malformed records surface as `LogError::Handler` and are
    // rethrown as `TxError::Log` below.
    let mut classify = |record: &recovery_log::LogRecord| -> Result<(), TxError> {
        // BEGUN and DECISION carry the bare id, PREPARED and COMPLETED a
        // map with the id under "tx".
        let wrapped = match record.kind {
            KIND_TX_BEGUN | KIND_TX_DECISION => false,
            KIND_TX_PREPARED | KIND_TX_COMPLETED => true,
            _ => return Ok(()),
        };
        let v = decode(&record.payload)?;
        let m = v.as_map().ok_or_else(|| TxError::Log("transaction record must be a map".into()))?;
        let id = match wrapped {
            true => m.get("tx").ok_or_else(|| TxError::Log("transaction record missing tx".into()))?,
            false => &v,
        };
        let tx = txid_from_value(id)?;
        // A lone record of a transaction whose prefix was released (its
        // COMPLETED, say) starts a trace that asks for nothing below.
        let trace = traces
            .entry(tx)
            .or_insert_with(|| TxTrace { first: record.lsn, ..Default::default() });
        match record.kind {
            KIND_TX_PREPARED => {
                trace.prepared = true;
                if let Some(Value::List(items)) = m.get("participants") {
                    trace.participants = items
                        .iter()
                        .filter_map(|i| i.as_str().map(str::to_owned))
                        .collect();
                }
            }
            KIND_TX_DECISION => trace.decided = true,
            KIND_TX_COMPLETED => {
                trace.completed = true;
                trace.unacknowledged = m.contains_key("unacknowledged");
            }
            _ => {}
        }
        Ok(())
    };
    wal.scan_with(Lsn::new(0), &mut |record| {
        classify(record).map_err(|e| LogError::Handler(e.to_string()))
    })?;

    let mut report = TxRecoveryReport::default();
    let retain = |report: &mut TxRecoveryReport, from: Lsn| {
        report.retain_from = Some(report.retain_from.map_or(from, |oldest| oldest.min(from)));
    };
    for (tx, trace) in traces {
        if trace.completed || !trace.prepared {
            if trace.unacknowledged {
                retain(&mut report, trace.first);
            }
            continue;
        }
        let mut acknowledged = true;
        for name in &trace.participants {
            match resolver.resolve(name) {
                Some(resource) => {
                    if trace.decided {
                        acknowledged &= resource.commit(&tx).is_ok();
                    } else {
                        let _ = resource.rollback(&tx);
                    }
                }
                None => {
                    acknowledged = false;
                    report.unresolved.push((tx.clone(), name.clone()));
                }
            }
        }
        // Only a commit needs remembering: a forgotten rollback is what
        // presumed abort answers anyway.
        let acknowledged = acknowledged || !trace.decided;
        if !acknowledged {
            retain(&mut report, trace.first);
        }
        let _ = log_completion(
            wal,
            &tx,
            if trace.decided { TxStatus::Committed } else { TxStatus::RolledBack },
            acknowledged,
        );
        if trace.decided {
            report.recommitted.push(tx);
        } else {
            report.presumed_aborted.push(tx);
        }
    }
    Ok(report)
}

fn decode(payload: &[u8]) -> Result<Value, TxError> {
    Value::decode(payload).map_err(|e| TxError::Log(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::test_support::ScriptedResource;
    use crate::resource::Vote;
    use recovery_log::MemWal;
    use std::sync::Arc;

    #[test]
    fn txid_value_roundtrip() {
        for tx in [
            TxId::top_level(0),
            TxId::top_level(7),
            TxId::top_level(7).child(0),
            TxId::top_level(7).child(3).child(1),
        ] {
            let v = txid_to_value(&tx);
            assert_eq!(txid_from_value(&v).unwrap(), tx, "roundtrip of {tx}");
        }
    }

    #[test]
    fn decided_but_incomplete_transaction_is_recommitted() {
        let wal = MemWal::new();
        let tx = TxId::top_level(5);
        log_prepared(&wal, &tx, &["store-a", "store-b"]).unwrap();
        log_decision_commit(&wal, &tx).unwrap();
        // Crash: no completion record.

        let a = ScriptedResource::voting("store-a", Vote::Commit);
        let b = ScriptedResource::voting("store-b", Vote::Commit);
        let a2 = a.clone();
        let b2 = b.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "store-a" => Some(a2.clone()),
                "store-b" => Some(b2.clone()),
                _ => None,
            }
        };
        let report = recover(&wal, &resolver).unwrap();
        assert_eq!(report.recommitted, vec![tx]);
        assert!(report.presumed_aborted.is_empty());
        assert_eq!(a.calls(), vec!["commit"]);
        assert_eq!(b.calls(), vec!["commit"]);
    }

    #[test]
    fn undecided_transaction_is_presumed_aborted() {
        let wal = MemWal::new();
        let tx = TxId::top_level(6);
        log_prepared(&wal, &tx, &["store-a"]).unwrap();
        let a = ScriptedResource::voting("store-a", Vote::Commit);
        let a2 = a.clone();
        let resolver =
            move |name: &str| -> Option<Arc<dyn Resource>> { (name == "store-a").then(|| a2.clone() as _) };
        let report = recover(&wal, &resolver).unwrap();
        assert_eq!(report.presumed_aborted, vec![tx]);
        assert_eq!(a.calls(), vec!["rollback"]);
    }

    #[test]
    fn completed_transactions_are_left_alone() {
        let wal = MemWal::new();
        let tx = TxId::top_level(7);
        log_prepared(&wal, &tx, &["r"]).unwrap();
        log_decision_commit(&wal, &tx).unwrap();
        log_completed(&wal, &tx, TxStatus::Committed).unwrap();
        let resolver = |_: &str| -> Option<Arc<dyn Resource>> {
            panic!("resolver must not be consulted for completed transactions")
        };
        let report = recover(&wal, &resolver).unwrap();
        assert!(report.recommitted.is_empty());
        assert!(report.presumed_aborted.is_empty());
    }

    #[test]
    fn recovery_is_idempotent() {
        let wal = MemWal::new();
        let tx = TxId::top_level(8);
        log_prepared(&wal, &tx, &["r"]).unwrap();
        log_decision_commit(&wal, &tx).unwrap();
        let r = ScriptedResource::voting("r", Vote::Commit);
        let r2 = r.clone();
        let resolver =
            move |name: &str| -> Option<Arc<dyn Resource>> { (name == "r").then(|| r2.clone() as _) };
        recover(&wal, &resolver).unwrap();
        // Second pass: the completion record written by the first pass
        // means nothing more is re-delivered.
        let report = recover(&wal, &resolver).unwrap();
        assert!(report.recommitted.is_empty());
        assert_eq!(r.calls(), vec!["commit"], "exactly one redelivery");
    }

    #[test]
    fn unresolvable_participants_are_reported() {
        let wal = MemWal::new();
        let tx = TxId::top_level(9);
        log_prepared(&wal, &tx, &["ghost"]).unwrap();
        log_decision_commit(&wal, &tx).unwrap();
        let resolver = |_: &str| -> Option<Arc<dyn Resource>> { None };
        let report = recover(&wal, &resolver).unwrap();
        assert_eq!(report.unresolved, vec![(tx, "ghost".to_string())]);
    }

    #[test]
    fn begun_only_transactions_need_nothing() {
        let wal = MemWal::new();
        log_begun(&wal, &TxId::top_level(10)).unwrap();
        let resolver = |_: &str| -> Option<Arc<dyn Resource>> { None };
        let report = recover(&wal, &resolver).unwrap();
        assert!(report.recommitted.is_empty());
        assert!(report.presumed_aborted.is_empty());
        assert!(report.unresolved.is_empty());
    }
}
