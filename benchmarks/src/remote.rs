//! The `remote_2pc_*` worlds: the full framework path, one activity per op
//! driving a two-phase commit over the ORB to two recoverable participants.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use activity_service::{
    recover_activities, Action, ActionFactories, ActionServant, ActivityManager, ActivityService,
    DispatchConfig, RemoteActionProxy, SignalSetFactories, UserActivity,
};
use orb::{
    DedupServant, DedupWindow, NetworkConfig, Node, ObjectRef, Orb, RetryPolicy, Servant, SimClock,
    Value,
};
use ots::{RecoverableResource, Resource, TransactionFactory, TransactionalKv, TxId};
use recovery_log::{FileWal, GroupCommitWal, MemWal, Wal};
use tx_models::{ResourceAction, TwoPhaseCommitSignalSet, TWO_PC_SET};

use crate::disk::PacedDisk;
use crate::load::{key_index, key_table, World};
use crate::probes::{TimedAction, TimedResource, TimedServant, TimedWal, WalCounters, WalLevel};
use crate::trace::{span, Kind, Probe};

const COORDINATOR: &str = "coordinator";
const PARTICIPANTS: [&str; 2] = ["p0", "p1"];
/// Attempts allowed per signal delivery; at 5 % loss per leg the chance of
/// exhausting it is below 1e-11, so no op fails for want of retries.
const DELIVERY_ATTEMPTS: u32 = 12;
const DEDUP_WINDOW: usize = 1024;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// How one remote world differs from another.
#[derive(Debug, Clone)]
pub struct RemoteSpec {
    pub network: NetworkConfig,
    /// Pin `DispatchConfig::serial()` on every activity coordinator.
    pub serial: bool,
    pub clients: usize,
    /// Log through `GroupCommitWal<FileWal>` under this directory instead
    /// of `GroupCommitWal<MemWal>`.
    pub wal_dir: Option<PathBuf>,
    pub seed: u64,
}

/// A log as the services see it: group commit over `sink`, with the timing
/// decorators on both sides in a traced world.
pub fn group_commit_wal<W: Wal + 'static>(
    sink: W,
    probe: &Probe,
    counters: &Arc<WalCounters>,
) -> Arc<dyn Wal> {
    match probe {
        None => Arc::new(GroupCommitWal::new(sink)),
        Some(tracer) => {
            let sink = TimedWal::new(
                sink,
                Arc::clone(tracer),
                WalLevel::Sink,
                Arc::clone(counters),
            );
            Arc::new(TimedWal::new(
                GroupCommitWal::new(sink),
                Arc::clone(tracer),
                WalLevel::Caller,
                Arc::clone(counters),
            ))
        }
    }
}

fn open_wal(
    dir: Option<&Path>,
    name: &str,
    probe: &Probe,
    counters: &Arc<WalCounters>,
) -> Result<Arc<dyn Wal>, BoxError> {
    Ok(match dir {
        None => group_commit_wal(MemWal::new(), probe, counters),
        Some(dir) => group_commit_wal(
            PacedDisk::new(FileWal::open(dir.join(format!("{name}.wal")))?),
            probe,
            counters,
        ),
    })
}

struct Participant {
    name: &'static str,
    node: Node,
    store: Arc<TransactionalKv>,
    resource: Arc<dyn Resource>,
    timed: Option<Arc<TimedResource>>,
    window: Arc<DedupWindow>,
}

pub struct RemoteWorld {
    orb: Orb,
    user: UserActivity,
    manager: ActivityManager,
    participants: Vec<Participant>,
    keys: Vec<Vec<String>>,
    spec: RemoteSpec,
    probe: Probe,
    pub wal_counters: Arc<WalCounters>,
}

pub struct RemoteClient {
    id: usize,
    next_tx: u64,
    /// Op index last committed under each key.
    expected: Vec<Option<u64>>,
}

impl RemoteWorld {
    pub fn build(spec: &RemoteSpec, probe: Probe) -> Result<Self, BoxError> {
        let dir = spec.wal_dir.as_deref();
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
        }
        let wal_counters = Arc::new(WalCounters::default());
        let clock = SimClock::new();
        let orb = Orb::builder()
            .network(spec.network.clone())
            .clock(clock.clone())
            .build();
        orb.add_node(COORDINATOR)?;
        let service = ActivityService::builder()
            .clock(clock)
            .wal(open_wal(dir, COORDINATOR, &probe, &wal_counters)?)
            .build();
        service.attach_to_orb(&orb);

        let mut participants = Vec::new();
        for name in PARTICIPANTS {
            let node = orb.add_node(name)?;
            let store = Arc::new(TransactionalKv::new(name));
            let recoverable: Arc<dyn Resource> = Arc::new(RecoverableResource::new(
                Arc::clone(&store) as Arc<dyn Resource>,
                open_wal(dir, name, &probe, &wal_counters)?,
                COORDINATOR,
            ));
            let timed = probe.as_ref().map(|tracer| {
                Arc::new(TimedResource::new(recoverable.clone(), Arc::clone(tracer)))
            });
            let resource = match &timed {
                Some(timed) => Arc::clone(timed) as Arc<dyn Resource>,
                None => recoverable,
            };
            participants.push(Participant {
                name,
                node,
                store,
                resource,
                timed,
                window: Arc::new(DedupWindow::new(DEDUP_WINDOW)),
            });
        }
        Ok(RemoteWorld {
            orb,
            user: UserActivity::new(service.clone()),
            manager: ActivityManager::new(service),
            participants,
            keys: (0..spec.clients).map(key_table).collect(),
            spec: spec.clone(),
            probe,
            wal_counters,
        })
    }

    fn key_of(&self, client: &RemoteClient, index: u64) -> usize {
        key_index(self.spec.seed ^ client.id as u64, index)
    }

    fn op_id(&self, client: &RemoteClient, index: u64) -> u32 {
        (index * self.spec.clients as u64 + client.id as u64) as u32
    }

    /// One complete unit of work: begin, enrol both participants, complete.
    fn commit_one(&self, client: &mut RemoteClient, index: u64) -> Result<bool, BoxError> {
        let tracer = self.probe.as_ref();
        let key = &self.keys[client.id][self.key_of(client, index)];
        {
            let _span = span(&self.probe, Kind::AsBegin);
            self.user.begin("op")?;
            if self.spec.serial {
                self.manager
                    .current_activity()?
                    .coordinator()
                    .set_dispatch_config(DispatchConfig::serial());
            }
            self.manager
                .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))?;
            self.manager.set_completion_signal_set(TWO_PC_SET)?;
        }
        let op = self.op_id(client, index);
        let complete_span = tracer.map(|tracer| tracer.reserve_id());
        let mut objects: Vec<ObjectRef> = Vec::with_capacity(self.participants.len());
        for participant in &self.participants {
            client.next_tx += 1;
            let tx = TxId::top_level(client.next_tx);
            {
                let _span = span(&self.probe, Kind::OtsKvWrite);
                participant.store.write(&tx, key, Value::U64(index))?;
            }
            let action: Arc<dyn Action> = Arc::new(ResourceAction::new(
                participant.name,
                tx,
                Arc::clone(&participant.resource),
            ));
            let mut servant: Arc<dyn Servant> = Arc::new(ActionServant::new(action));
            if let Some(tracer) = tracer {
                servant = Arc::new(TimedServant::new(
                    servant,
                    Arc::clone(tracer),
                    Kind::OrbServeInner,
                ));
            }
            servant = Arc::new(DedupServant::new(servant, Arc::clone(&participant.window)));
            if let Some(tracer) = tracer {
                servant = Arc::new(TimedServant::new(
                    servant,
                    Arc::clone(tracer),
                    Kind::OrbServe,
                ));
            }
            let object = {
                let _span = span(&self.probe, Kind::OrbActivate);
                participant.node.activate_arc("Action", servant)?
            };
            let mut proxy: Arc<dyn Action> = Arc::new(
                RemoteActionProxy::new(
                    participant.name,
                    self.orb.clone(),
                    COORDINATOR,
                    object.clone(),
                )
                .with_policy(RetryPolicy::new(DELIVERY_ATTEMPTS)),
            );
            if let (Some(tracer), Some(parent)) = (tracer, complete_span) {
                proxy = Arc::new(TimedAction::new(
                    proxy,
                    Arc::clone(tracer),
                    Kind::OrbInvoke,
                    op,
                    parent,
                ));
            }
            {
                let _span = span(&self.probe, Kind::AsEnrol);
                self.manager.register_action(TWO_PC_SET, proxy)?;
            }
            objects.push(object);
        }
        let outcome = {
            let _span = tracer
                .zip(complete_span)
                .map(|(tracer, id)| tracer.enter_reserved(id, Kind::AsComplete));
            self.user.complete()?
        };
        for (participant, object) in self.participants.iter().zip(&objects) {
            let _span = span(&self.probe, Kind::OrbActivate);
            participant.node.deactivate(object);
        }
        Ok(outcome.name() == "committed")
    }

    /// Messages the simulated network has been asked to carry, and how many
    /// of them it dropped.
    pub fn network_sent_dropped(&self) -> (u64, u64) {
        let stats = self.orb.network().stats();
        (stats.sent, stats.dropped)
    }

    /// `commit` calls that reached each participant's resource (traced
    /// worlds only).
    pub fn inner_commits(&self) -> Vec<u64> {
        self.participants
            .iter()
            .filter_map(|p| p.timed.as_ref())
            .map(|t| t.commits())
            .collect()
    }
}

impl World for RemoteWorld {
    type Client = RemoteClient;

    fn new_clients(&self) -> Vec<RemoteClient> {
        (0..self.spec.clients)
            .map(|id| RemoteClient {
                id,
                next_tx: (id as u64) << 40,
                expected: vec![None; self.keys[id].len()],
            })
            .collect()
    }

    fn run_op(&self, client: &mut RemoteClient, index: u64) -> bool {
        let _op = self
            .probe
            .as_ref()
            .map(|tracer| tracer.begin_op(self.op_id(client, index)));
        match self.commit_one(client, index) {
            Ok(true) => {
                let key = self.key_of(client, index);
                client.expected[key] = Some(index);
                true
            }
            Ok(false) => false,
            Err(error) => {
                eprintln!("op {index} of client {}: {error}", client.id);
                // Leave no half-begun activity associated with this thread.
                let _ = self
                    .user
                    .complete_with_status(activity_service::CompletionStatus::FailOnly);
                false
            }
        }
    }

    /// Every participant must hold, per key, the value of the last op that
    /// committed under it.
    fn verify(&self, clients: &[RemoteClient]) -> Vec<String> {
        let mut errors = Vec::new();
        for client in clients {
            for (key, expected) in self.keys[client.id].iter().zip(&client.expected) {
                let expected = expected.map(Value::U64);
                for participant in &self.participants {
                    let held = participant.store.read_committed(key);
                    if held != expected {
                        errors.push(format!(
                            "{}: key {key} holds {held:?}, expected {expected:?}",
                            participant.name
                        ));
                    }
                }
            }
        }
        errors.truncate(8);
        errors
    }
}

/// What the restart check found in the reopened logs.
#[derive(Debug)]
pub struct Recovery {
    pub errors: Vec<String>,
    pub records: u64,
    pub elapsed_ns: u64,
}

/// The restart check of `remote_2pc_durable`: with the world dropped, reopen
/// every file log and run each layer's recovery. Nothing may be in doubt,
/// and the durable completion records must equal the acknowledged commits.
pub fn recover_from_files(dir: &Path, acknowledged: u64) -> Result<Recovery, BoxError> {
    let begun = Instant::now();
    let mut errors = Vec::new();
    let mut records = 0;
    let reopen = |name: &str| -> Result<Arc<dyn Wal>, BoxError> {
        Ok(Arc::new(FileWal::open(dir.join(format!("{name}.wal")))?))
    };

    let coordinator = reopen(COORDINATOR)?;
    records += coordinator.len() as u64;
    let no_participants = |_: &str| -> Option<Arc<dyn Resource>> { None };
    let report =
        TransactionFactory::with_wal(Arc::clone(&coordinator)).recover(&no_participants)?;
    if !report.recommitted.is_empty() || !report.presumed_aborted.is_empty() {
        errors.push(format!(
            "coordinator log: {} transactions recommitted, {} presumed aborted, expected none",
            report.recommitted.len(),
            report.presumed_aborted.len()
        ));
    }
    let activities = recover_activities(
        coordinator,
        &SignalSetFactories::new(),
        &ActionFactories::new(),
        SimClock::new(),
    )?;
    if !activities.incomplete.is_empty() {
        errors.push(format!(
            "{} activities incomplete after restart",
            activities.incomplete.len()
        ));
    }
    if activities.completed.len() as u64 != acknowledged {
        errors.push(format!(
            "{} durable completion records, {acknowledged} acknowledged commits",
            activities.completed.len()
        ));
    }
    for name in PARTICIPANTS {
        let wal = reopen(name)?;
        records += wal.len() as u64;
        let store: Arc<dyn Resource> = Arc::new(TransactionalKv::new(name));
        let resource = RecoverableResource::recover(store, wal, COORDINATOR)?;
        let in_doubt = resource.in_doubt().len();
        if in_doubt != 0 {
            errors.push(format!(
                "{name}: {in_doubt} transactions in doubt after restart"
            ));
        }
    }
    Ok(Recovery {
        errors,
        records,
        elapsed_ns: begun.elapsed().as_nanos() as u64,
    })
}
