//! The failpoint-site registry audit.
//!
//! Each protocol crate exports named constants for the sites it hits
//! (`ots::failpoints`, `activity_service::failpoints`); the authoritative
//! human-readable table lives in `recovery_log::crash`'s module docs. The
//! tests here close the loop: a fault-free probe run of each protocol must
//! *observe* (via [`recovery_log::FailpointSet::observed_sites`]) exactly
//! the sites the constants declare — no orphan constants, no unlisted
//! `hit` call sites.

/// Every named failpoint site in the workspace, in protocol order per
/// crate. `wal.append` (the synthetic `CrashingWal` site) is excluded: it
/// has no `hit` call site.
pub fn all_known_sites() -> Vec<&'static str> {
    let mut sites = Vec::new();
    sites.extend_from_slice(ots::failpoints::FAILPOINT_SITES);
    sites.extend_from_slice(ots::recovery::failpoints::FAILPOINT_SITES);
    sites.extend_from_slice(activity_service::failpoints::FAILPOINT_SITES);
    sites.extend_from_slice(activity_service::reaper::failpoints::FAILPOINT_SITES);
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use activity_service::{ActivityService, BroadcastSignalSet, DispatchConfig};
    use orb::{Env, Value};
    use ots::{Resource, TransactionFactory, TransactionalKv};
    use recovery_log::{FailpointSet, FileWal, GroupCommitWal, Lsn, MemWal, Wal};

    fn sorted(sites: &[&str]) -> BTreeSet<String> {
        sites.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_duplicate_site_names_across_crates() {
        let sites = all_known_sites();
        let unique: BTreeSet<_> = sites.iter().collect();
        assert_eq!(unique.len(), sites.len(), "site names must be globally unique");
        assert_eq!(sites.len(), 12);
    }

    #[test]
    fn ots_probe_observes_exactly_the_declared_sites() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        let factory = TransactionFactory::with_wal(wal)
            .with_env(Env { failpoints: Some(failpoints.clone()), ..Default::default() }.wired());
        // Two participants: the one-phase shortcut would skip sites.
        let store = Arc::new(TransactionalKv::new("store"));
        let witness = Arc::new(TransactionalKv::new("witness"));
        let control = factory.create().unwrap();
        store.enlist(&control).unwrap();
        witness.enlist(&control).unwrap();
        store.write(control.id(), "k", Value::from(1i64)).unwrap();
        witness.write(control.id(), "w", Value::from(2i64)).unwrap();
        control.terminator().commit().unwrap();
        assert_eq!(
            failpoints.observed_sites().into_iter().collect::<BTreeSet<_>>(),
            sorted(ots::failpoints::FAILPOINT_SITES),
            "ots constants out of sync with actual hit() call sites"
        );
    }

    #[test]
    fn wal_length_audit_agrees_across_implementations() {
        // The audit leans on the O(1) `Wal::len` overrides: a full commit
        // writes the same record count to every log implementation, and
        // `len()` must agree with what a scan actually returns.
        fn probe(wal: Arc<dyn Wal>) -> (usize, usize) {
            let factory = TransactionFactory::with_wal(Arc::clone(&wal));
            let store = Arc::new(TransactionalKv::new("store"));
            let witness = Arc::new(TransactionalKv::new("witness"));
            let control = factory.create().unwrap();
            store.enlist(&control).unwrap();
            witness.enlist(&control).unwrap();
            store.write(control.id(), "k", Value::from(1i64)).unwrap();
            witness.write(control.id(), "w", Value::from(2i64)).unwrap();
            control.terminator().commit().unwrap();
            wal.sync().unwrap();
            (wal.len(), wal.scan(Lsn::new(0)).unwrap().len())
        }

        let mut path = std::env::temp_dir();
        path.push(format!("harness-registry-len-audit-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let (mem_len, mem_scan) = probe(Arc::new(MemWal::new()));
        let (file_len, file_scan) = probe(Arc::new(FileWal::open(&path).unwrap()));
        let (group_len, group_scan) =
            probe(Arc::new(GroupCommitWal::new(MemWal::new())));
        std::fs::remove_file(&path).unwrap();

        assert_eq!(mem_len, mem_scan);
        assert_eq!(file_len, file_scan);
        assert_eq!(group_len, group_scan);
        assert_eq!(mem_len, file_len, "same protocol, same record count");
        assert_eq!(mem_len, group_len, "same protocol, same record count");
        assert!(mem_len > 0);
    }

    #[test]
    fn activity_probe_observes_exactly_the_declared_sites() {
        let failpoints = FailpointSet::new();
        let service = ActivityService::builder()
            .env(Env { failpoints: Some(failpoints.clone()), ..Default::default() }.wired())
            .build();
        let activity = service.begin("probe").unwrap();
        let coordinator = activity.coordinator();
        coordinator.set_dispatch_config(DispatchConfig::serial());
        coordinator
            .add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        coordinator.process_signal_set("S").unwrap();
        service.complete().unwrap();
        assert_eq!(
            failpoints.observed_sites().into_iter().collect::<BTreeSet<_>>(),
            sorted(activity_service::failpoints::FAILPOINT_SITES),
            "activity-service constants out of sync with actual hit() call sites"
        );
    }

    #[test]
    fn recovery_probe_observes_exactly_the_declared_sites() {
        // Drive a RecoverableResource through every code path that hits a
        // recovery failpoint: prepare (after_prepared), a resolution
        // attempt (before_resolve — the coordinator is unlocatable, so the
        // transaction just stays in doubt) and outcome delivery
        // (before_apply).
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        let kv = ots::DurableKv::new("store", Arc::clone(&wal));
        let res = ots::RecoverableResource::new(
            Arc::clone(&kv) as Arc<dyn ots::Resource>,
            Arc::clone(&wal),
            "coordinator",
        )
        .with_failpoints(failpoints.clone());
        let tx = ots::TxId::top_level(1);
        kv.store().write(&tx, "k", Value::from(1i64)).unwrap();
        res.prepare(&tx).unwrap();
        let orb = orb::Orb::builder()
            .network(orb::NetworkConfig::reliable())
            .clock(orb::SimClock::new())
            .build();
        orb.add_node("participant").unwrap();
        let locate: ots::recovery::CoordinatorLocator = Arc::new(|_| None);
        let config = ots::ResolutionConfig::new(
            orb::RetryPolicy::new(1),
            std::time::Duration::from_secs(60),
        );
        res.resolve_in_doubt(&orb, "participant", &locate, &config).unwrap();
        res.rollback(&tx).unwrap();
        assert_eq!(
            failpoints.observed_sites().into_iter().collect::<BTreeSet<_>>(),
            sorted(ots::recovery::failpoints::FAILPOINT_SITES),
            "ots::recovery constants out of sync with actual hit() call sites"
        );
    }

    #[test]
    fn reaper_probe_observes_exactly_the_declared_sites() {
        // The reaper is stateless: its site is passed through the visited
        // activity's own context.
        let clock = orb::SimClock::new();
        let failpoints = FailpointSet::new();
        let env = orb::Env {
            clock: clock.clone(),
            failpoints: Some(failpoints.clone()),
            ..Default::default()
        };
        let orphan = activity_service::Activity::new_root("orphan", env.wired());
        orphan.set_timeout(std::time::Duration::from_millis(5));
        clock.advance(std::time::Duration::from_millis(10));
        activity_service::OrphanReaper::new().reap(&[orphan], &|_| false).unwrap();
        assert_eq!(
            failpoints.observed_sites().into_iter().collect::<BTreeSet<_>>(),
            sorted(activity_service::reaper::failpoints::FAILPOINT_SITES),
            "reaper constants out of sync with actual hit() call sites"
        );
    }

    #[test]
    fn crash_module_docs_list_every_site() {
        // The audit table in recovery-log/src/crash.rs is prose, but its
        // site names are load-bearing: this test pins the full list so a
        // new hit() call site forces both the constants and the table to
        // move together.
        let expected: BTreeSet<String> = sorted(&[
            "ots.before_prepare",
            "ots.after_prepare",
            "ots.before_decision",
            "ots.after_decision",
            "ots.before_completion_record",
            "ots.recovery.after_prepared",
            "ots.recovery.before_apply",
            "ots.recovery.before_resolve",
            "activity.before_get_signal",
            "activity.before_transmit",
            "activity.before_outcome",
            "activity.reaper.before_complete",
        ]);
        let actual: BTreeSet<String> =
            all_known_sites().into_iter().map(str::to_owned).collect();
        assert_eq!(actual, expected);
    }
}
