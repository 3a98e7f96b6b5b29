//! The per-transaction coordinator: registration, two-phase commit, nesting.

use std::sync::{Arc, Weak};

/// Named crash-injection sites of the two-phase-commit protocol, in the
/// order they are passed during a commit. Every
/// [`recovery_log::FailpointSet::hit`] call in this crate uses one of these
/// constants; the full workspace audit table lives in
/// `recovery_log::crash`'s module docs, and `FAILPOINT_SITES` is the
/// machine-readable registry simulation harnesses sweep over.
pub mod failpoints {
    /// Before phase one solicits any vote (nothing logged yet).
    pub const BEFORE_PREPARE: &str = "ots.before_prepare";
    /// After every vote is collected, before the decision is taken.
    pub const AFTER_PREPARE: &str = "ots.after_prepare";
    /// Before the commit decision record is forced to the log.
    pub const BEFORE_DECISION: &str = "ots.before_decision";
    /// Decision durable, before any phase-two delivery.
    pub const AFTER_DECISION: &str = "ots.after_decision";
    /// Phase two delivered, before the completion record.
    pub const BEFORE_COMPLETION_RECORD: &str = "ots.before_completion_record";

    /// Every site above, in protocol order.
    pub const FAILPOINT_SITES: &[&str] = &[
        BEFORE_PREPARE,
        AFTER_PREPARE,
        BEFORE_DECISION,
        AFTER_DECISION,
        BEFORE_COMPLETION_RECORD,
    ];
}
use std::time::Duration;

use orb::choice::clamp_choice;
use orb::pool::{DispatchConfig, Round};
use orb::{Env, SpanGuard};
use parking_lot::Mutex;
use recovery_log::Wal;
use telemetry::{ProtocolEvent, VoteKind};

use crate::error::TxError;
use crate::resource::{Resource, SubtransactionAwareResource, Synchronization, Vote};
use crate::status::TxStatus;
use crate::txlog;
use crate::xid::TxId;

/// A snapshot of participants, shared by `Arc` with the (possibly
/// scattered) deliveries of every round it goes through.
type Participants = Arc<[Arc<dyn Resource>]>;

/// Outcome of a completed transaction, as reported to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Everything committed.
    Committed,
    /// Everything rolled back.
    RolledBack,
}

struct CoordinatorInner {
    status: TxStatus,
    resources: Vec<Arc<dyn Resource>>,
    synchronizations: Vec<Arc<dyn Synchronization>>,
    subtx_aware: Vec<Arc<dyn SubtransactionAwareResource>>,
    children: Vec<Arc<Coordinator>>,
    child_counter: u32,
    deadline: Option<Duration>,
    /// Committed, but a phase-two delivery failed: that participant is
    /// still in doubt and may yet ask for the decision.
    unacknowledged: bool,
}

impl CoordinatorInner {
    fn active(deadline: Option<Duration>) -> Self {
        CoordinatorInner {
            status: TxStatus::Active,
            resources: Vec::new(),
            synchronizations: Vec::new(),
            subtx_aware: Vec::new(),
            children: Vec::new(),
            child_counter: 0,
            deadline,
            unacknowledged: false,
        }
    }
}

/// Coordinates one transaction (mirrors CosTransactions::Coordinator plus
/// the completion half of Terminator).
///
/// Top-level coordinators drive full two-phase commit with presumed abort
/// and durable decision logging; subtransaction coordinators commit
/// *provisionally*, handing their participants to the parent (the resource
/// inheritance described in §1 of the paper).
pub struct Coordinator {
    id: TxId,
    parent: Weak<Coordinator>,
    inner: Mutex<CoordinatorInner>,
    wal: Option<Arc<dyn Wal>>,
    dispatch: DispatchConfig,
    /// The factory's context, shared by every subtransaction: clock,
    /// failpoints, failure detector, telemetry, recorder, sequencer.
    env: Arc<Env>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Coordinator")
            .field("id", &self.id)
            .field("status", &inner.status)
            .field("resources", &inner.resources.len())
            .field("children", &inner.children.len())
            .finish()
    }
}

impl Coordinator {
    pub(crate) fn new_top_level(
        id: TxId,
        wal: Option<Arc<dyn Wal>>,
        env: Arc<Env>,
        deadline: Option<Duration>,
        dispatch: DispatchConfig,
    ) -> Arc<Self> {
        Arc::new(Coordinator {
            id,
            parent: Weak::new(),
            inner: Mutex::new(CoordinatorInner::active(deadline)),
            wal,
            dispatch,
            env,
        })
    }

    /// The context this coordinator runs under — the factory's, shared
    /// (pointer-equal) with every subtransaction; [`Env`]'s fields say how
    /// each plane shapes the protocol.
    pub fn env(&self) -> &Arc<Env> {
        &self.env
    }

    /// Emit one protocol step of this transaction: prepare/vote, the forced
    /// decision, phase-two deliveries, forgets and the terminal state.
    fn journal(&self, event: impl FnOnce() -> ProtocolEvent) {
        self.env.emit(|| (self.id.origin(), event()));
    }

    /// How participant fan-out (prepare / commit / rollback) is scheduled.
    pub fn dispatch_config(&self) -> DispatchConfig {
        self.dispatch
    }

    /// Which of the round's still-`pending` deliveries (indices into
    /// `resources`) goes next: the sequencer's pick when one is in the
    /// context and there is a choice, registration order otherwise.
    fn next_slot(&self, stage: &str, resources: &[Arc<dyn Resource>], pending: &[usize]) -> usize {
        match &self.env.sequencer {
            Some(seq) if pending.len() > 1 => {
                let labels: Vec<&str> =
                    pending.iter().map(|i| resources[*i].resource_name()).collect();
                clamp_choice(seq.next_delivery(stage, &labels), labels.len())
            }
            _ => 0,
        }
    }

    /// The one delivery loop of this coordinator: `op` goes to every
    /// resource as one [`Round`] under the factory's [`DispatchConfig`],
    /// and the deliveries are taken one at a time, in
    /// [`orb::DeliverySequencer`] order (registration order without a
    /// sequencer). Each goes through `collate(index, take)`, which calls
    /// `take()` exactly once — at width 1 that call *is* the delivery, so
    /// whatever `collate` does around it brackets the participant call —
    /// and answers whether the round goes on. A participant panic surfaces
    /// from its own `take()`.
    ///
    /// When `collate` stops the round, participants not yet taken are never
    /// asked at width 1; scattered, they were all asked at the start, and
    /// the round is joined before this returns — 2PC may not tell a
    /// participant to roll back while its `prepare` is still running.
    fn deliver<T: Send + 'static>(
        &self,
        stage: &str,
        resources: &Participants,
        op: impl Fn(&dyn Resource, &TxId) -> T + Send + Sync + 'static,
        mut collate: impl FnMut(usize, &mut dyn FnMut() -> T) -> bool,
    ) {
        let mut round = Round::start(self.dispatch, resources.len(), {
            let (resources, id) = (Arc::clone(resources), self.id.clone());
            move |index| op(resources[index].as_ref(), &id)
        });
        let mut pending: Vec<usize> = (0..resources.len()).collect();
        while !pending.is_empty() {
            let index = pending.remove(self.next_slot(stage, resources, &pending));
            if !collate(index, &mut || round.take(index)) {
                break;
            }
        }
        round.join();
    }

    /// Deliver one full round of `op` and return the results in
    /// **registration** order, so what the caller journals is
    /// delivery-order-invisible; each delivery is reported back to the
    /// sequencer with `clean(&result)`.
    fn round<T: Send + 'static>(
        &self,
        stage: &str,
        resources: &Participants,
        op: impl Fn(&dyn Resource, &TxId) -> T + Send + Sync + 'static,
        clean: impl Fn(&T) -> bool,
    ) -> Vec<T> {
        let mut slots: Vec<Option<T>> = resources.iter().map(|_| None).collect();
        self.deliver(stage, resources, op, |index, take| {
            let result = take();
            if let Some(seq) = &self.env.sequencer {
                seq.report(stage, resources[index].resource_name(), clean(&result));
            }
            slots[index] = Some(result);
            true
        });
        slots.into_iter().map(|slot| slot.expect("every delivery ran")).collect()
    }

    /// Deliver a rollback round and journal each delivery's fate.
    fn rollback_round(&self, resources: &Participants) {
        let results =
            self.round("rollback", resources, |resource, id| resource.rollback(id).is_ok(), |ok| *ok);
        for (resource, ok) in resources.iter().zip(results) {
            self.journal(|| ProtocolEvent::OutcomeDelivered {
                participant: resource.resource_name().to_owned(),
                commit: false,
                ok,
            });
        }
    }

    /// This transaction's identity.
    pub fn id(&self) -> &TxId {
        &self.id
    }

    /// Current status (timeout is assessed lazily here: an expired active
    /// transaction reports `MarkedRollback`).
    pub fn status(&self) -> TxStatus {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        inner.status
    }

    /// Whether this coordinator manages a top-level transaction.
    pub fn is_top_level(&self) -> bool {
        self.id.is_top_level()
    }

    fn assess_timeout(&self, inner: &mut CoordinatorInner) {
        if inner.status == TxStatus::Active
            && inner.deadline.is_some_and(|deadline| self.env.clock.now() > deadline)
        {
            inner.status = TxStatus::MarkedRollback;
        }
    }

    /// Register a two-phase participant.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] unless the transaction is active, or
    /// [`TxError::TimedOut`] when the deadline has passed.
    pub fn register_resource(&self, resource: Arc<dyn Resource>) -> Result<(), TxError> {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        match inner.status {
            TxStatus::Active => {
                inner.resources.push(resource);
                Ok(())
            }
            TxStatus::MarkedRollback if inner.deadline.is_some() => {
                Err(TxError::TimedOut(self.id.clone()))
            }
            status => Err(TxError::Inactive { tx: self.id.clone(), status }),
        }
    }

    /// Register a before/after completion callback.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] unless the transaction is active.
    pub fn register_synchronization(&self, sync: Arc<dyn Synchronization>) -> Result<(), TxError> {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        if inner.status != TxStatus::Active {
            return Err(TxError::Inactive { tx: self.id.clone(), status: inner.status });
        }
        inner.synchronizations.push(sync);
        Ok(())
    }

    /// Register a participant interested in this *subtransaction's*
    /// provisional completion.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::NestingViolation`] on a top-level transaction and
    /// [`TxError::Inactive`] unless active.
    pub fn register_subtransaction_aware(
        &self,
        participant: Arc<dyn SubtransactionAwareResource>,
    ) -> Result<(), TxError> {
        if self.is_top_level() {
            return Err(TxError::NestingViolation(
                "subtransaction-aware registration on a top-level transaction".into(),
            ));
        }
        let mut inner = self.inner.lock();
        if inner.status != TxStatus::Active {
            return Err(TxError::Inactive { tx: self.id.clone(), status: inner.status });
        }
        inner.subtx_aware.push(participant);
        Ok(())
    }

    /// Doom the transaction: it can only roll back from here on.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] if already completing or completed.
    pub fn rollback_only(&self) -> Result<(), TxError> {
        let mut inner = self.inner.lock();
        match inner.status {
            TxStatus::Active => {
                inner.status = TxStatus::MarkedRollback;
                Ok(())
            }
            TxStatus::MarkedRollback => Ok(()),
            status => Err(TxError::Inactive { tx: self.id.clone(), status }),
        }
    }

    /// Begin a subtransaction nested inside this one.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] unless this transaction is active.
    pub fn create_subtransaction(self: &Arc<Self>) -> Result<Arc<Coordinator>, TxError> {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        if inner.status != TxStatus::Active {
            return Err(TxError::Inactive { tx: self.id.clone(), status: inner.status });
        }
        let index = inner.child_counter;
        inner.child_counter += 1;
        let child = Arc::new(Coordinator {
            id: self.id.child(index),
            parent: Arc::downgrade(self),
            inner: Mutex::new(CoordinatorInner::active(inner.deadline)),
            wal: self.wal.clone(),
            dispatch: self.dispatch,
            env: Arc::clone(&self.env),
        });
        inner.children.push(Arc::clone(&child));
        Ok(child)
    }

    /// Commit the transaction.
    ///
    /// For a **top-level** transaction this runs the full protocol:
    /// synchronizations' `before_completion`, phase one (prepare, with the
    /// read-only optimisation and one-phase shortcut), a durable decision
    /// record, phase two, a completion record and `after_completion`.
    ///
    /// For a **subtransaction** the commit is provisional: its participants
    /// are inherited by the parent, and subtransaction-aware participants
    /// are told.
    ///
    /// Any still-active child subtransactions are rolled back first
    /// (their provisional work never reached this coordinator).
    ///
    /// # Errors
    ///
    /// [`TxError::RolledBack`] when the transaction had to abort (rollback
    /// vote, marked rollback-only, or timeout); [`TxError::Heuristic`] when
    /// `report_heuristics` and a phase-two delivery failed;
    /// [`TxError::Log`] when the decision could not be made durable (the
    /// transaction rolls back) or a crash was injected.
    pub fn commit(&self, report_heuristics: bool) -> Result<TxOutcome, TxError> {
        // The whole commit is one span, entered on the driving thread so
        // participant invocations (and, on a remote resource proxy, their
        // retry-attempt spans) nest under it. The guard closes it on every
        // exit path, including injected crashes and participant panics —
        // oracle #7 rejects open spans.
        let scope = self.env.span(|| format!("commit:{}", self.id));
        scope.attr("top_level", self.is_top_level());
        let result = self.commit_inner(report_heuristics, &scope);
        match &result {
            Ok(TxOutcome::Committed) => scope.attr("outcome", "committed"),
            Ok(TxOutcome::RolledBack) => scope.attr("outcome", "rolled_back"),
            Err(e) => scope.attr("error", e),
        }
        if let Some(telemetry) = scope.telemetry().filter(|_| self.is_top_level()) {
            match &result {
                Ok(TxOutcome::Committed) => telemetry.metrics().incr("twopc_commits_total"),
                Ok(TxOutcome::RolledBack) | Err(TxError::RolledBack(_)) => {
                    telemetry.metrics().incr("twopc_aborts_total");
                }
                Err(_) => {}
            }
        }
        result
    }

    fn commit_inner(
        &self,
        report_heuristics: bool,
        scope: &SpanGuard<'_>,
    ) -> Result<TxOutcome, TxError> {
        // Settle children and collect a snapshot under the lock, then drive
        // the protocol outside it (participants may call back in).
        let (resources, synchronizations, doomed) = {
            let mut inner = self.inner.lock();
            self.assess_timeout(&mut inner);
            match inner.status {
                TxStatus::Active => {}
                TxStatus::MarkedRollback => {
                    drop(inner);
                    self.rollback()?;
                    return Err(TxError::RolledBack(self.id.clone()));
                }
                status => return Err(TxError::Inactive { tx: self.id.clone(), status }),
            }
            let children: Vec<_> = inner.children.drain(..).collect();
            drop(inner);
            // Children that never completed lose their provisional work.
            for child in children {
                if !child.status().is_terminal() {
                    let _ = child.rollback();
                }
            }
            let inner = self.inner.lock();
            let doomed = inner.status == TxStatus::MarkedRollback;
            let resources: Participants = Arc::from(inner.resources.as_slice());
            (resources, inner.synchronizations.clone(), doomed)
        };
        if doomed {
            self.rollback()?;
            return Err(TxError::RolledBack(self.id.clone()));
        }

        if !self.is_top_level() {
            return self.commit_provisionally();
        }

        for sync in &synchronizations {
            sync.before_completion(&self.id);
        }
        // before_completion may have doomed us.
        if self.inner.lock().status == TxStatus::MarkedRollback {
            self.rollback()?;
            return Err(TxError::RolledBack(self.id.clone()));
        }

        self.env.hit(failpoints::BEFORE_PREPARE)?;

        // Consult the failure detector before soliciting any vote. Each
        // participant's skip decision is computed exactly once (`should_skip`
        // claims half-open probe slots as a side effect).
        let detector = self.env.detector.as_ref();
        let resources: Participants = if let Some(detector) = detector {
            let mut kept = Vec::with_capacity(resources.len());
            let mut quarantined_voter = false;
            for resource in resources.iter() {
                if detector.should_skip(resource.resource_name()) {
                    if resource.read_only_hint() {
                        // Its vote could only be ReadOnly; dropping it cannot
                        // change the outcome, and saves its timeout budget.
                        continue;
                    }
                    // A quarantined voter dooms the transaction: presumed
                    // abort now, without waiting out a vote that the detector
                    // predicts will never arrive. The quarantined participant
                    // itself is *not* contacted — presumed abort lets it
                    // learn the outcome when it recovers.
                    quarantined_voter = true;
                } else {
                    kept.push(Arc::clone(resource));
                }
            }
            let kept: Participants =
                if kept.len() == resources.len() { resources } else { kept.into() };
            if quarantined_voter {
                self.set_status(TxStatus::RollingBack);
                self.rollback_round(&kept);
                self.finish(TxStatus::RolledBack, &synchronizations);
                return Err(TxError::RolledBack(self.id.clone()));
            }
            kept
        } else {
            resources
        };

        // One-phase shortcut.
        if resources.len() == 1 {
            let result = resources[0].commit_one_phase(&self.id);
            let status = match &result {
                Ok(()) => TxStatus::Committed,
                Err(_) => TxStatus::RolledBack,
            };
            self.finish(status, &synchronizations);
            return match result {
                Ok(()) => Ok(TxOutcome::Committed),
                Err(_) => Err(TxError::RolledBack(self.id.clone())),
            };
        }

        // Phase one.
        self.set_status(TxStatus::Preparing);
        if let Some(wal) = &self.wal {
            let names: Vec<&str> = resources.iter().map(|r| r.resource_name()).collect();
            txlog::log_prepared(wal.as_ref(), &self.id, &names)?;
        }
        let prepare_span = scope.child(|| "prepare".into());
        prepare_span.attr("participants", resources.len());
        // Who voted commit, in the order the votes were taken.
        let mut prepared: Vec<usize> = Vec::new();
        let mut voted_rollback = false;
        // Every vote is solicited as one round that stops at the first veto
        // (see `deliver` for what that means per width). Speculatively
        // preparing a resource whose peer vetoes is safe — presumed abort
        // means it is simply rolled back, exactly as a prepared resource
        // is. Journal, latency and detector are fed here, at collation, so
        // they evolve in the same order under every width.
        self.deliver("prepare", &resources, |resource, id| resource.prepare(id), |index, take| {
            let resource = &resources[index];
            let vote_started = self.env.clock.now();
            self.journal(|| ProtocolEvent::PrepareSent {
                participant: resource.resource_name().to_owned(),
            });
            // Per-vote child span under `prepare`: the critical-path walk
            // reads the slowest of these as the slowest-vote annotation.
            let vote_span = prepare_span.child(|| format!("vote:{}", resource.resource_name()));
            let answer = take();
            drop(vote_span);
            if let Some(telemetry) = scope.telemetry() {
                // The virtual time this coordinator spent on (or, scattered,
                // still had to wait for) this vote.
                let waited = self.env.clock.now().saturating_sub(vote_started);
                telemetry.metrics().observe("twopc_vote_latency_seconds", waited);
            }
            if let Some(detector) = detector {
                match &answer {
                    Ok(_) => detector.record_success(resource.resource_name()),
                    Err(_) => detector.record_failure(resource.resource_name()),
                }
            }
            self.journal(|| ProtocolEvent::VoteRecorded {
                participant: resource.resource_name().to_owned(),
                vote: match &answer {
                    Ok(Vote::Commit) => VoteKind::Commit,
                    Ok(Vote::ReadOnly) => VoteKind::ReadOnly,
                    Ok(Vote::Rollback) => VoteKind::Rollback,
                    Err(_) => VoteKind::Failed,
                },
            });
            if let Some(seq) = &self.env.sequencer {
                let clean = matches!(answer, Ok(Vote::Commit) | Ok(Vote::ReadOnly));
                seq.report("prepare", resource.resource_name(), clean);
            }
            match answer {
                Ok(Vote::Commit) => prepared.push(index),
                Ok(Vote::ReadOnly) => {}
                Ok(Vote::Rollback) | Err(_) => voted_rollback = true,
            }
            !voted_rollback
        });
        prepare_span.attr("prepared", prepared.len());
        prepare_span.attr("voted_rollback", voted_rollback);
        // The `prepare` span closes before the AFTER_PREPARE failpoint so an
        // injected crash there finds it closed.
        drop(prepare_span);
        self.env.hit(failpoints::AFTER_PREPARE)?;

        if voted_rollback {
            // Presumed abort: no decision record needed; undo the prepared.
            self.set_status(TxStatus::RollingBack);
            self.rollback_round(&resources);
            self.finish(TxStatus::RolledBack, &synchronizations);
            return Err(TxError::RolledBack(self.id.clone()));
        }

        if prepared.is_empty() {
            // Everybody read-only: committed with no phase two, no log.
            self.set_status(TxStatus::Committed);
            self.journal(|| ProtocolEvent::TxCompleted { committed: true });
            for sync in &synchronizations {
                sync.after_completion(&self.id, TxStatus::Committed);
            }
            return Ok(TxOutcome::Committed);
        }

        // Phase two goes to whoever voted commit, in the order they voted —
        // the snapshot itself when that is everyone in registration order.
        let prepared: Participants = if prepared.iter().copied().eq(0..resources.len()) {
            resources
        } else {
            prepared.iter().map(|index| Arc::clone(&resources[*index])).collect()
        };
        self.set_status(TxStatus::Prepared);
        self.env.hit(failpoints::BEFORE_DECISION)?;
        if let Some(wal) = &self.wal {
            // Forcing discipline: this is the protocol's only awaited-durable
            // write. `log_decision_commit` forces via `append_durable`, so the
            // earlier BEGUN/PREPARED records (and any interposed
            // subcoordinator's) ride the same flush barrier under a
            // group-commit log; the COMPLETED record below is free to lag —
            // presumed abort re-derives it on replay.
            txlog::log_decision_commit(wal.as_ref(), &self.id)?;
        }
        self.journal(|| ProtocolEvent::DecisionForced { commit: true });
        self.env.hit(failpoints::AFTER_DECISION)?;

        // Phase two. The decision is durable, so the commit deliveries are
        // independent; heuristics are collated in registration order. The
        // span closes before the BEFORE_COMPLETION_RECORD failpoint.
        self.set_status(TxStatus::Committing);
        let phase2_span = scope.child(|| "phase2".into());
        phase2_span.attr("participants", prepared.len());
        let deliveries: Vec<Option<String>> = self.round(
            "phase2",
            &prepared,
            |resource, id| {
                if let Err(e) = resource.commit(id) {
                    Some(format!("{}: {e}", resource.resource_name()))
                } else {
                    resource.forget(id);
                    None
                }
            },
            Option::is_none,
        );
        for (resource, heuristic) in prepared.iter().zip(&deliveries) {
            let ok = heuristic.is_none();
            self.journal(|| ProtocolEvent::OutcomeDelivered {
                participant: resource.resource_name().to_owned(),
                commit: true,
                ok,
            });
            if ok {
                self.journal(|| ProtocolEvent::Forgotten {
                    participant: resource.resource_name().to_owned(),
                });
            }
        }
        let heuristics: Vec<String> = deliveries.into_iter().flatten().collect();
        phase2_span.attr("heuristics", heuristics.len());
        drop(phase2_span);
        if !heuristics.is_empty() {
            self.inner.lock().unacknowledged = true;
        }
        self.env.hit(failpoints::BEFORE_COMPLETION_RECORD)?;
        self.finish(TxStatus::Committed, &synchronizations);

        if report_heuristics && !heuristics.is_empty() {
            return Err(TxError::Heuristic { tx: self.id.clone(), detail: heuristics.join("; ") });
        }
        Ok(TxOutcome::Committed)
    }

    /// Provisional commit of a subtransaction: participants move to the
    /// parent; subtransaction-aware participants are notified.
    fn commit_provisionally(&self) -> Result<TxOutcome, TxError> {
        let parent = self.parent.upgrade().ok_or_else(|| {
            TxError::NestingViolation(format!("parent of {} already gone", self.id))
        })?;
        let (resources, synchronizations, subtx_aware) = {
            let mut inner = self.inner.lock();
            inner.status = TxStatus::Committed;
            (
                std::mem::take(&mut inner.resources),
                std::mem::take(&mut inner.synchronizations),
                std::mem::take(&mut inner.subtx_aware),
            )
        };
        {
            let mut parent_inner = parent.inner.lock();
            parent_inner.resources.extend(resources);
            parent_inner.synchronizations.extend(synchronizations);
        }
        for participant in &subtx_aware {
            participant.commit_subtransaction(&self.id, parent.id());
        }
        Ok(TxOutcome::Committed)
    }

    /// Roll the transaction back, undoing its work and (recursively) that of
    /// any still-active subtransactions.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] if already completed.
    pub fn rollback(&self) -> Result<TxOutcome, TxError> {
        let (resources, synchronizations, subtx_aware, children) = {
            let mut inner = self.inner.lock();
            match inner.status {
                TxStatus::Active | TxStatus::MarkedRollback | TxStatus::Prepared => {}
                status => return Err(TxError::Inactive { tx: self.id.clone(), status }),
            }
            inner.status = TxStatus::RollingBack;
            (
                std::mem::take(&mut inner.resources),
                std::mem::take(&mut inner.synchronizations),
                std::mem::take(&mut inner.subtx_aware),
                std::mem::take(&mut inner.children),
            )
        };
        for child in children {
            if !child.status().is_terminal() {
                let _ = child.rollback();
            }
        }
        self.rollback_round(&resources.into());
        for participant in &subtx_aware {
            participant.rollback_subtransaction(&self.id);
        }
        self.finish(TxStatus::RolledBack, &synchronizations);
        Ok(TxOutcome::RolledBack)
    }

    fn set_status(&self, status: TxStatus) {
        self.inner.lock().status = status;
    }

    /// Committed without every participant's acknowledgement (see the field).
    pub(crate) fn unacknowledged(&self) -> bool {
        self.inner.lock().unacknowledged
    }

    fn finish(&self, status: TxStatus, synchronizations: &[Arc<dyn Synchronization>]) {
        let acknowledged = {
            let mut inner = self.inner.lock();
            inner.status = status;
            !inner.unacknowledged
        };
        if self.is_top_level() {
            if let Some(wal) = &self.wal {
                let _ = txlog::log_completion(wal.as_ref(), &self.id, status, acknowledged);
            }
            self.journal(|| ProtocolEvent::TxCompleted {
                committed: status == TxStatus::Committed,
            });
        }
        for sync in synchronizations {
            sync.after_completion(&self.id, status);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::test_support::ScriptedResource;
    use orb::detector::FailureDetector;
    use orb::SimClock;
    use recovery_log::{FailpointSet, MemWal};
    use telemetry::Telemetry;

    fn top(wal: Option<Arc<dyn Wal>>) -> Arc<Coordinator> {
        Coordinator::new_top_level(
            TxId::top_level(1),
            wal,
            Env::new(),
            None,
            DispatchConfig::default(),
        )
    }

    /// A log-less coordinator under `env`, as a factory built
    /// `with_env(env).with_dispatch(dispatch)` would create it.
    fn top_in(env: Env, dispatch: DispatchConfig) -> Arc<Coordinator> {
        Coordinator::new_top_level(TxId::top_level(1), None, env.wired(), None, dispatch)
    }

    fn traced(tel: &Telemetry) -> Arc<Coordinator> {
        let env = Env { telemetry: Some(tel.clone()), ..Default::default() };
        top_in(env, DispatchConfig::default())
    }

    fn detecting(detector: &FailureDetector) -> Arc<Coordinator> {
        let env = Env { detector: Some(detector.clone()), ..Default::default() };
        top_in(env, DispatchConfig::default())
    }

    #[test]
    fn two_phase_commit_happy_path() {
        let c = top(None);
        let r1 = ScriptedResource::voting("r1", Vote::Commit);
        let r2 = ScriptedResource::voting("r2", Vote::Commit);
        c.register_resource(r1.clone()).unwrap();
        c.register_resource(r2.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(c.status(), TxStatus::Committed);
        assert_eq!(r1.calls(), vec!["prepare", "commit", "forget"]);
        assert_eq!(r2.calls(), vec!["prepare", "commit", "forget"]);
    }

    #[test]
    fn commit_records_phase_spans_and_metrics() {
        let tel = Telemetry::new();
        let c = traced(&tel);
        c.register_resource(ScriptedResource::voting("r1", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("r2", Vote::Commit)).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        let root = &tree.roots()[0];
        assert_eq!(root.name, "commit:tx-1");
        assert_eq!(root.attr("outcome"), Some("committed"));
        let phases: Vec<&str> =
            tree.children(root.context.span_id).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(phases, vec!["prepare", "phase2"]);
        assert_eq!(tel.metrics().counter_value("twopc_commits_total"), 1);
        assert_eq!(tel.metrics().histogram_count("twopc_vote_latency_seconds"), 2);
    }

    #[test]
    fn injected_crash_still_closes_twopc_spans() {
        let tel = Telemetry::new();
        let fps = FailpointSet::new();
        fps.arm(failpoints::AFTER_PREPARE, 0);
        let env = Env { failpoints: Some(fps), telemetry: Some(tel.clone()), ..Default::default() };
        let c = top_in(env, DispatchConfig::default());
        c.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        assert!(c.commit(true).is_err());
        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new(), "crash path must close spans");
        assert!(tree.roots()[0].attr("error").is_some());
    }

    #[test]
    fn subtransactions_inherit_the_telemetry_recorder() {
        let tel = Telemetry::new();
        let c = traced(&tel);
        let child = c.create_subtransaction().unwrap();
        assert!(Arc::ptr_eq(child.env(), c.env()), "one context, shared by pointer");
        child.commit(true).unwrap();
        c.commit(true).unwrap();
        // The provisional commit is a span too, tagged non-top-level, and
        // only the top-level outcome is counted.
        let tree = tel.span_tree();
        let names: Vec<&str> = tree.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"commit:tx-1.0"));
        assert_eq!(tel.metrics().counter_value("twopc_commits_total"), 1);
    }

    #[test]
    fn every_prepare_answer_is_recorded_as_its_vote_kind() {
        struct Unreachable;
        impl Resource for Unreachable {
            fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
                Err(TxError::Heuristic { tx: tx.clone(), detail: "unreachable".into() })
            }
            fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
                Ok(())
            }
            fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
                Ok(())
            }
            fn resource_name(&self) -> &str {
                "failed"
            }
        }
        let recorder = telemetry::FlightRecorder::new("test", usize::MAX);
        let env = Env { recorder: Some(recorder.clone()), ..Default::default() };
        // Width 1 asks in registration order and stops at the first veto.
        let c = top_in(env, DispatchConfig::serial());
        c.register_resource(ScriptedResource::voting("commit", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("read-only", Vote::ReadOnly)).unwrap();
        c.register_resource(Arc::new(Unreachable)).unwrap();
        c.register_resource(ScriptedResource::voting("rollback", Vote::Rollback)).unwrap();
        assert!(c.commit(true).is_err());
        // …and a second transaction, whose veto is an answer rather than an error.
        let c2 = Coordinator::new_top_level(
            TxId::top_level(2),
            None,
            Arc::clone(c.env()),
            None,
            DispatchConfig::serial(),
        );
        c2.register_resource(ScriptedResource::voting("rollback", Vote::Rollback)).unwrap();
        c2.register_resource(ScriptedResource::voting("never", Vote::Commit)).unwrap();
        assert!(c2.commit(true).is_err());

        let votes: Vec<(telemetry::Origin, String, VoteKind)> = recorder
            .steps()
            .into_iter()
            .filter_map(|(origin, step)| match step {
                ProtocolEvent::VoteRecorded { participant, vote } => {
                    Some((origin, participant, vote))
                }
                _ => None,
            })
            .collect();
        let (first, second) = (c.id().origin(), c2.id().origin());
        assert_eq!(
            votes,
            vec![
                (first.clone(), "commit".to_owned(), VoteKind::Commit),
                (first.clone(), "read-only".to_owned(), VoteKind::ReadOnly),
                (first, "failed".to_owned(), VoteKind::Failed),
                (second, "rollback".to_owned(), VoteKind::Rollback),
            ]
        );
    }

    #[test]
    fn rollback_vote_aborts_everyone() {
        let c = top(None);
        let good = ScriptedResource::voting("good", Vote::Commit);
        let bad = ScriptedResource::voting("bad", Vote::Rollback);
        c.register_resource(good.clone()).unwrap();
        c.register_resource(bad.clone()).unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(c.status(), TxStatus::RolledBack);
        assert_eq!(good.calls(), vec!["prepare", "rollback"]);
        assert_eq!(bad.calls(), vec!["prepare", "rollback"]);
    }

    #[test]
    fn serial_config_stops_soliciting_votes_at_first_veto() {
        let c = top_in(Env::default(), DispatchConfig::serial());
        let bad = ScriptedResource::voting("bad", Vote::Rollback);
        let never = ScriptedResource::voting("never", Vote::Commit);
        c.register_resource(bad.clone()).unwrap();
        c.register_resource(never.clone()).unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(bad.calls(), vec!["prepare", "rollback"]);
        assert_eq!(never.calls(), vec!["rollback"], "serial phase one breaks at the veto");
    }

    #[test]
    fn parallel_prepare_joins_all_votes_before_abort() {
        // Under parallel fan-out every resource is asked for its vote even
        // when an earlier registrant vetoes; presumed abort then undoes the
        // speculatively prepared peers. Pin a worker count — the default
        // config degrades to serial on a single-core host.
        let c = top_in(Env::default(), DispatchConfig::with_workers(4));
        let bad = ScriptedResource::voting("bad", Vote::Rollback);
        let good = ScriptedResource::voting("good", Vote::Commit);
        c.register_resource(bad.clone()).unwrap();
        c.register_resource(good.clone()).unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(bad.calls(), vec!["prepare", "rollback"]);
        assert_eq!(good.calls(), vec!["prepare", "rollback"]);
    }

    #[test]
    fn read_only_resources_skip_phase_two() {
        let c = top(None);
        let ro1 = ScriptedResource::voting("ro1", Vote::ReadOnly);
        let ro2 = ScriptedResource::voting("ro2", Vote::ReadOnly);
        c.register_resource(ro1.clone()).unwrap();
        c.register_resource(ro2.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(ro1.calls(), vec!["prepare"]);
        assert_eq!(ro2.calls(), vec!["prepare"]);
    }

    #[test]
    fn single_resource_uses_one_phase() {
        let c = top(None);
        let r = ScriptedResource::voting("solo", Vote::Commit);
        c.register_resource(r.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn empty_transaction_commits() {
        let c = top(None);
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
    }

    #[test]
    fn rollback_only_dooms_commit() {
        let c = top(None);
        let r = ScriptedResource::voting("r", Vote::Commit);
        c.register_resource(r.clone()).unwrap();
        c.rollback_only().unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(r.calls(), vec!["rollback"]);
        // rollback_only is idempotent while pending but an error after the end.
        assert!(matches!(c.rollback_only(), Err(TxError::Inactive { .. })));
    }

    #[test]
    fn registration_after_completion_fails() {
        let c = top(None);
        c.commit(true).unwrap();
        let r = ScriptedResource::voting("late", Vote::Commit);
        assert!(matches!(c.register_resource(r), Err(TxError::Inactive { .. })));
        assert!(matches!(c.commit(true), Err(TxError::Inactive { .. })));
        assert!(matches!(c.rollback(), Err(TxError::Inactive { .. })));
    }

    #[test]
    fn heuristic_reported_when_phase_two_fails() {
        let c = top(None);
        let flaky = ScriptedResource::voting("flaky", Vote::Commit);
        *flaky.fail_commit_times.lock() = 1;
        let fine = ScriptedResource::voting("fine", Vote::Commit);
        c.register_resource(flaky.clone()).unwrap();
        c.register_resource(fine.clone()).unwrap();
        let err = c.commit(true).unwrap_err();
        assert!(matches!(err, TxError::Heuristic { .. }));
        // The transaction is still committed: the decision was made.
        assert_eq!(c.status(), TxStatus::Committed);
    }

    #[test]
    fn heuristics_swallowed_when_not_reporting() {
        let c = top(None);
        let flaky = ScriptedResource::voting("flaky", Vote::Commit);
        *flaky.fail_commit_times.lock() = 1;
        c.register_resource(flaky).unwrap();
        c.register_resource(ScriptedResource::voting("fine", Vote::Commit)).unwrap();
        assert_eq!(c.commit(false).unwrap(), TxOutcome::Committed);
    }

    #[test]
    fn subtransaction_commit_propagates_resources_to_parent() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        assert_eq!(child.id(), &TxId::top_level(1).child(0));
        let r = ScriptedResource::voting("r", Vote::Commit);
        child.register_resource(r.clone()).unwrap();
        child.commit(true).unwrap();
        assert_eq!(child.status(), TxStatus::Committed);
        // No 2PC happened yet.
        assert!(r.calls().is_empty());
        // Parent commit drives it.
        parent.commit(true).unwrap();
        assert_eq!(r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn subtransaction_rollback_confines_failure() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let child_r = ScriptedResource::voting("child-r", Vote::Commit);
        child.register_resource(child_r.clone()).unwrap();
        child.rollback().unwrap();
        assert_eq!(child_r.calls(), vec!["rollback"]);
        // Parent is unaffected and can still commit its own work.
        let parent_r = ScriptedResource::voting("parent-r", Vote::Commit);
        parent.register_resource(parent_r.clone()).unwrap();
        parent.commit(true).unwrap();
        assert_eq!(parent_r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn parent_rollback_undoes_inherited_resources() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let r = ScriptedResource::voting("r", Vote::Commit);
        child.register_resource(r.clone()).unwrap();
        child.commit(true).unwrap();
        parent.rollback().unwrap();
        assert_eq!(r.calls(), vec!["rollback"]);
    }

    #[test]
    fn active_children_are_rolled_back_by_parent_commit() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let r = ScriptedResource::voting("r", Vote::Commit);
        child.register_resource(r.clone()).unwrap();
        // Child never completes; parent commits anyway.
        parent.commit(true).unwrap();
        assert_eq!(child.status(), TxStatus::RolledBack);
        assert_eq!(r.calls(), vec!["rollback"]);
    }

    #[test]
    fn deep_nesting_propagates_transitively() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let grandchild = child.create_subtransaction().unwrap();
        let r = ScriptedResource::voting("deep", Vote::Commit);
        grandchild.register_resource(r.clone()).unwrap();
        grandchild.commit(true).unwrap();
        child.commit(true).unwrap();
        parent.commit(true).unwrap();
        assert_eq!(r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn subtransaction_aware_notifications() {
        struct Watcher(Mutex<Vec<String>>);
        impl SubtransactionAwareResource for Watcher {
            fn commit_subtransaction(&self, tx: &TxId, parent: &TxId) {
                self.0.lock().push(format!("commit {tx} into {parent}"));
            }
            fn rollback_subtransaction(&self, tx: &TxId) {
                self.0.lock().push(format!("rollback {tx}"));
            }
        }
        let parent = top(None);
        let w = Arc::new(Watcher(Mutex::new(Vec::new())));
        assert!(parent.register_subtransaction_aware(w.clone()).is_err());

        let c1 = parent.create_subtransaction().unwrap();
        c1.register_subtransaction_aware(w.clone()).unwrap();
        c1.commit(true).unwrap();
        let c2 = parent.create_subtransaction().unwrap();
        c2.register_subtransaction_aware(w.clone()).unwrap();
        c2.rollback().unwrap();
        assert_eq!(
            *w.0.lock(),
            vec!["commit tx-1.0 into tx-1".to_string(), "rollback tx-1.1".to_string()]
        );
    }

    #[test]
    fn synchronizations_bracket_completion() {
        struct Sync(Mutex<Vec<String>>);
        impl Synchronization for Sync {
            fn before_completion(&self, _tx: &TxId) {
                self.0.lock().push("before".into());
            }
            fn after_completion(&self, _tx: &TxId, status: TxStatus) {
                self.0.lock().push(format!("after {status}"));
            }
        }
        let c = top(None);
        let s = Arc::new(Sync(Mutex::new(Vec::new())));
        c.register_synchronization(s.clone()).unwrap();
        c.register_resource(ScriptedResource::voting("r", Vote::Commit)).unwrap();
        c.commit(true).unwrap();
        assert_eq!(*s.0.lock(), vec!["before".to_string(), "after committed".to_string()]);
    }

    #[test]
    fn decision_and_completion_are_logged() {
        let wal = Arc::new(MemWal::new());
        let c = Coordinator::new_top_level(
            TxId::top_level(9),
            Some(wal.clone() as Arc<dyn Wal>),
            Env::new(),
            None,
            DispatchConfig::default(),
        );
        c.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        c.commit(true).unwrap();
        let kinds: Vec<u32> =
            wal.scan(recovery_log::Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![txlog::KIND_TX_PREPARED, txlog::KIND_TX_DECISION, txlog::KIND_TX_COMPLETED]
        );
    }

    #[test]
    fn crash_before_decision_leaves_no_decision_record() {
        let wal = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        failpoints.arm("ots.before_decision", 0);
        let c = Coordinator::new_top_level(
            TxId::top_level(2),
            Some(wal.clone() as Arc<dyn Wal>),
            Env { failpoints: Some(failpoints), ..Default::default() }.wired(),
            None,
            DispatchConfig::default(),
        );
        c.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        let err = c.commit(true).unwrap_err();
        assert!(matches!(err, TxError::Log(_)));
        let kinds: Vec<u32> =
            wal.scan(recovery_log::Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![txlog::KIND_TX_PREPARED]);
    }

    #[test]
    fn timeout_dooms_transaction() {
        let clock = SimClock::new();
        let c = Coordinator::new_top_level(
            TxId::top_level(3),
            None,
            Env::with_clock(clock.clone()),
            Some(Duration::from_secs(1)),
            DispatchConfig::default(),
        );
        c.register_resource(ScriptedResource::voting("r", Vote::Commit)).unwrap();
        clock.advance(Duration::from_secs(2));
        assert_eq!(c.status(), TxStatus::MarkedRollback);
        assert!(matches!(
            c.register_resource(ScriptedResource::voting("late", Vote::Commit)),
            Err(TxError::TimedOut(_))
        ));
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
    }

    fn quarantine(detector: &FailureDetector, who: &str) {
        while detector.status(who) != orb::detector::HealthStatus::Quarantined {
            detector.record_failure(who);
        }
    }

    #[test]
    fn quarantined_read_only_participant_is_dropped_from_the_protocol() {
        let clock = SimClock::new();
        let detector = FailureDetector::new(clock);
        quarantine(&detector, "ro");
        let c = detecting(&detector);
        let worker = ScriptedResource::voting("w1", Vote::Commit);
        let worker2 = ScriptedResource::voting("w2", Vote::Commit);
        let ro = ScriptedResource::voting("ro", Vote::ReadOnly);
        c.register_resource(worker.clone()).unwrap();
        c.register_resource(ro.clone()).unwrap();
        c.register_resource(worker2.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert!(ro.calls().is_empty(), "quarantined read-only peer never contacted");
        assert_eq!(worker.calls(), vec!["prepare", "commit", "forget"]);
        assert_eq!(worker2.calls(), vec!["prepare", "commit", "forget"]);
    }

    #[test]
    fn quarantined_voter_forces_early_presumed_abort() {
        let clock = SimClock::new();
        let detector = FailureDetector::new(clock);
        quarantine(&detector, "voter");
        let c = detecting(&detector);
        let healthy = ScriptedResource::voting("healthy", Vote::Commit);
        let voter = ScriptedResource::voting("voter", Vote::Commit);
        c.register_resource(healthy.clone()).unwrap();
        c.register_resource(voter.clone()).unwrap();
        let err = c.commit(true).unwrap_err();
        assert!(matches!(err, TxError::RolledBack(_)));
        assert_eq!(c.status(), TxStatus::RolledBack);
        assert!(voter.calls().is_empty(), "no vote solicited from the quarantined voter");
        assert_eq!(healthy.calls(), vec!["rollback"], "healthy peer aborted without preparing");
    }

    #[test]
    fn half_open_probe_readmits_a_quarantined_voter() {
        let clock = SimClock::new();
        let detector = FailureDetector::new(clock.clone());
        quarantine(&detector, "voter");
        // Past the probe interval the detector grants one probe slot, so the
        // next commit goes through the full protocol; its successful prepare
        // rehabilitates the participant.
        clock.advance(Duration::from_secs(10));
        let c = detecting(&detector);
        let voter = ScriptedResource::voting("voter", Vote::Commit);
        let peer = ScriptedResource::voting("peer", Vote::Commit);
        c.register_resource(voter.clone()).unwrap();
        c.register_resource(peer.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(voter.calls(), vec!["prepare", "commit", "forget"]);
        assert_eq!(detector.status("voter"), orb::detector::HealthStatus::Healthy);
    }

    #[test]
    fn prepare_answers_feed_the_detector_identically_under_both_dispatch_configs() {
        struct FailingResource;
        impl Resource for FailingResource {
            fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
                Err(TxError::Heuristic { tx: tx.clone(), detail: "unreachable".into() })
            }
            fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
                Ok(())
            }
            fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
                Ok(())
            }
            fn resource_name(&self) -> &str {
                "flaky"
            }
        }

        let mut suspicions = Vec::new();
        for dispatch in [DispatchConfig::serial(), DispatchConfig::default()] {
            let clock = SimClock::new();
            let detector = FailureDetector::new(clock);
            let env = Env { detector: Some(detector.clone()), ..Default::default() };
            let c = top_in(env, dispatch);
            c.register_resource(Arc::new(FailingResource)).unwrap();
            c.register_resource(ScriptedResource::voting("ok", Vote::Commit)).unwrap();
            let _ = c.commit(true);
            suspicions.push((detector.suspicion("flaky"), detector.suspicion("ok")));
        }
        assert_eq!(suspicions[0].0, 1, "one failed prepare, one count");
        assert_eq!(suspicions[0], suspicions[1], "dispatch config is invisible to suspicion");
    }
}
