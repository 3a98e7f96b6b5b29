//! The `native_2pc_mem` world: the OTS coordinator on its own, no ORB, no
//! Activity Service, no signal sets — the single-node baseline.

use std::sync::Arc;

use orb::Value;
use ots::coordinator::TxOutcome;
use ots::{DispatchConfig, TransactionFactory, TransactionalKv};
use recovery_log::MemWal;

use crate::load::{key_index, key_table, World};
use crate::probes::WalCounters;
use crate::remote::{group_commit_wal, BoxError};
use crate::spec::REAP_EVERY;
use crate::trace::{span, Kind, Probe};

pub struct NativeWorld {
    factory: TransactionFactory,
    stores: [Arc<TransactionalKv>; 2],
    keys: Vec<String>,
    seed: u64,
    probe: Probe,
    pub wal_counters: Arc<WalCounters>,
}

pub struct NativeClient {
    expected: Vec<Option<u64>>,
}

impl NativeWorld {
    pub fn build(seed: u64, probe: Probe) -> Self {
        let wal_counters = Arc::new(WalCounters::default());
        let factory =
            TransactionFactory::with_wal(group_commit_wal(MemWal::new(), &probe, &wal_counters))
                .with_dispatch(DispatchConfig::serial());
        NativeWorld {
            factory,
            stores: ["p0", "p1"].map(|name| Arc::new(TransactionalKv::new(name))),
            keys: key_table(0),
            seed,
            probe,
            wal_counters,
        }
    }

    fn commit_one(&self, index: u64) -> Result<bool, BoxError> {
        let key = &self.keys[key_index(self.seed, index)];
        let control = {
            let _span = span(&self.probe, Kind::OtsBegin);
            let control = self.factory.create()?;
            for store in &self.stores {
                store.enlist(&control)?;
            }
            control
        };
        for store in &self.stores {
            let _span = span(&self.probe, Kind::OtsKvWrite);
            store.write(control.id(), key, Value::U64(index))?;
        }
        let outcome = {
            let _span = span(&self.probe, Kind::OtsCommit);
            control.terminator().commit()?
        };
        if (index + 1).is_multiple_of(REAP_EVERY) {
            let _span = span(&self.probe, Kind::OtsReap);
            self.factory.reap_completed();
        }
        Ok(outcome == TxOutcome::Committed)
    }
}

impl World for NativeWorld {
    type Client = NativeClient;

    fn new_clients(&self) -> Vec<NativeClient> {
        vec![NativeClient {
            expected: vec![None; self.keys.len()],
        }]
    }

    fn run_op(&self, client: &mut NativeClient, index: u64) -> bool {
        let _op = self
            .probe
            .as_ref()
            .map(|tracer| tracer.begin_op(index as u32));
        match self.commit_one(index) {
            Ok(true) => {
                client.expected[key_index(self.seed, index)] = Some(index);
                true
            }
            Ok(false) => false,
            Err(error) => {
                eprintln!("op {index}: {error}");
                false
            }
        }
    }

    fn verify(&self, clients: &[NativeClient]) -> Vec<String> {
        let mut errors = Vec::new();
        for client in clients {
            for (key, expected) in self.keys.iter().zip(&client.expected) {
                let expected = expected.map(Value::U64);
                for store in &self.stores {
                    let held = store.read_committed(key);
                    if held != expected {
                        errors.push(format!(
                            "{}: key {key} holds {held:?}, expected {expected:?}",
                            store.name()
                        ));
                    }
                }
            }
        }
        errors.truncate(8);
        errors
    }
}
