//! The `order_pipeline` world: the order of `tests/full_stack_scenario.rs`
//! under sustained load. A `wfengine` script runs `price → pay → fulfil`
//! and compensates `pay` with `refund`; `price` is an LRUOW unit of work,
//! `pay` a WSCF atomic transaction registered remotely on the `bank` and
//! `shop` nodes, `fulfil` a BTP cohesion over two courier atoms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use activity_service::{Action, Activity, ActivityService, CompletionStatus, DispatchConfig};
use btp::{BtpParticipant, BtpVote, Cohesion, Reservation};
use orb::{Orb, SimClock, Value};
use tx_models::{LruowStore, TwoPhaseCommitSignalSet, TWO_PC_SET};
use wfengine::{script, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};
use wscf::{
    register_remote, CoordinationService, ProtocolSuite, StagedLedger, WsParticipantAction,
    TYPE_ATOMIC_TRANSACTION,
};

use crate::load::{key_index, key_table, mix, World};
use crate::probes::TimedAction;
use crate::remote::BoxError;
use crate::spec::ORDER_CYCLE;
use crate::trace::{span, Kind, Probe};

const ORDER_SCRIPT: &str = "
    task price;
    task pay after price;
    task fulfil after pay;
    compensate pay with refund;
";
const COURIERS: [&str; 2] = ["courier-express", "courier-economy"];

/// What an order is expected to do, decided by its index alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Every task completes; the express courier is confirmed.
    Delivered,
    /// The bank refuses at prepare: the payment rolls back, `fulfil` is
    /// skipped, nothing is compensated.
    Declined,
    /// The payment commits but no courier prepares: `pay` is refunded.
    NoCourier,
}

struct Shared {
    orb: Orb,
    coordination: Arc<CoordinationService>,
    catalog: Arc<LruowStore>,
    bank: Arc<StagedLedger>,
    shop: Arc<StagedLedger>,
    keys: Vec<String>,
    seed: u64,
    /// Shifts which orders decline, so the seed decides it.
    offset: u64,
    refunds: AtomicU64,
    deliveries: AtomicU64,
    probe: Probe,
}

impl Shared {
    fn fate(&self, index: u64) -> Fate {
        // One order in ORDER_CYCLE declines and another finds no courier.
        match (index + self.offset) % ORDER_CYCLE {
            0 => Fate::Declined,
            n if n == ORDER_CYCLE / 2 => Fate::NoCourier,
            _ => Fate::Delivered,
        }
    }

    fn key(&self, index: u64) -> &str {
        &self.keys[key_index(self.seed, index)]
    }

    fn price(&self, input: &TaskInput) -> TaskResult {
        let _span = span(&self.probe, Kind::TxLruow);
        let key = self.key(index_of(input));
        let unit = self.catalog.begin_unit_of_work();
        let Some(price) = unit.read(key).and_then(|value| value.as_f64()) else {
            return TaskResult::failed("item not in catalog");
        };
        unit.write(key, Value::F64(price)); // pin the quote
        match unit.perform() {
            Ok(()) => TaskResult::ok(Value::F64(price)),
            Err(violation) => TaskResult::failed(violation.to_string()),
        }
    }

    fn pay(&self, input: &TaskInput) -> TaskResult {
        let _span = span(&self.probe, Kind::WscfPay);
        match self.pay_inner(input) {
            Ok(result) => result,
            Err(error) => TaskResult::failed(error.to_string()),
        }
    }

    fn pay_inner(&self, input: &TaskInput) -> Result<TaskResult, BoxError> {
        let index = index_of(input);
        let price = input
            .upstream
            .get("price")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let amount = Value::F64(amount_due(price, index));
        let key = self.key(index);
        let context = self.coordination.create_context(TYPE_ATOMIC_TRANSACTION)?;
        self.coordination
            .activity(context.id())?
            .coordinator()
            .set_dispatch_config(DispatchConfig::serial());
        let payer = match self.fate(index) {
            Fate::Declined => StagedLedger::refusing("bank-refuses"),
            _ => Arc::clone(&self.bank),
        };
        payer.stage(key, amount.clone());
        self.shop.stage(key, amount.clone());

        let tracer = self.probe.as_ref();
        let complete_span = tracer.map(|tracer| tracer.reserve_id());
        for (node, ledger) in [("bank", payer), ("shop", Arc::clone(&self.shop))] {
            let mut participant: Arc<dyn Action> = WsParticipantAction::new(ledger as _);
            if let (Some(tracer), Some(parent)) = (tracer, complete_span) {
                participant = Arc::new(TimedAction::new(
                    participant,
                    Arc::clone(tracer),
                    Kind::WscfParticipant,
                    index as u32,
                    parent,
                ));
            }
            let _span = span(&self.probe, Kind::WscfRegister);
            register_remote(
                &self.orb,
                &self.orb.node(node)?,
                &context,
                TWO_PC_SET,
                participant,
            )?;
        }
        let outcome = {
            let _span = tracer
                .zip(complete_span)
                .map(|(tracer, id)| tracer.enter_reserved(id, Kind::AsComplete));
            self.coordination
                .complete(context.id(), TWO_PC_SET, CompletionStatus::Success)?
        };
        Ok(if outcome.name() == "committed" {
            TaskResult::ok(amount)
        } else {
            TaskResult::failed("payment declined")
        })
    }

    fn fulfil(&self, input: &TaskInput) -> TaskResult {
        let _span = span(&self.probe, Kind::BtpFulfil);
        match self.fulfil_inner(index_of(input)) {
            Ok(result) => result,
            Err(error) => TaskResult::failed(error.to_string()),
        }
    }

    fn fulfil_inner(&self, index: u64) -> Result<TaskResult, BoxError> {
        let activity = Activity::new_root("fulfilment", SimClock::new());
        activity
            .coordinator()
            .set_dispatch_config(DispatchConfig::serial());
        let cohesion = Cohesion::new("fulfilment", activity);
        let vote = match self.fate(index) {
            Fate::NoCourier => BtpVote::Cancelled,
            _ => BtpVote::Prepared,
        };
        let mut prepared = Vec::new();
        for name in COURIERS {
            let atom = cohesion.enroll_atom(name)?;
            atom.activity()
                .coordinator()
                .set_dispatch_config(DispatchConfig::serial());
            atom.enroll(Reservation::voting(name, vote) as Arc<dyn BtpParticipant>)?;
            if cohesion.prepare(name).is_ok() {
                prepared.push(name);
            }
        }
        let Some(winner) = prepared.first() else {
            cohesion.cancel_all()?;
            return Ok(TaskResult::failed("no courier available"));
        };
        cohesion.confirm(&[*winner])?;
        self.deliveries.fetch_add(1, Ordering::Relaxed);
        Ok(TaskResult::ok(Value::from(*winner)))
    }

    fn refund(&self, _input: &TaskInput) -> TaskResult {
        let _span = span(&self.probe, Kind::Refund);
        self.refunds.fetch_add(1, Ordering::Relaxed);
        TaskResult::ok(Value::Null)
    }
}

fn index_of(input: &TaskInput) -> u64 {
    input.params.as_u64().unwrap_or(0)
}

fn catalog_price(key: usize) -> f64 {
    10.0 + key as f64 / 4.0
}

/// The amount an order pays: its item's price times a quantity that varies
/// with the index, so a key's ledger entry identifies the order that last
/// paid under it.
fn amount_due(price: f64, index: u64) -> f64 {
    price * ((index % 5) + 1) as f64
}

pub struct OrderWorld {
    engine: WorkflowEngine,
    service: ActivityService,
    shared: Arc<Shared>,
}

pub struct OrderClient {
    /// Amount last committed under each key.
    expected: Vec<Option<f64>>,
    delivered: u64,
    no_courier: u64,
    pub compensations: u64,
}

impl OrderWorld {
    pub fn build(seed: u64, probe: Probe) -> Result<Self, BoxError> {
        let orb = Orb::new();
        let coordinator = orb.add_node("coordinator")?;
        orb.add_node("bank")?;
        orb.add_node("shop")?;
        let coordination = Arc::new(CoordinationService::default());
        coordination.register_coordination_type(
            TYPE_ATOMIC_TRANSACTION,
            ProtocolSuite::new().with(TWO_PC_SET, || Box::new(TwoPhaseCommitSignalSet::new()) as _),
        );
        coordination.expose_registration(&orb, &coordinator)?;

        let keys = key_table(0);
        let catalog = LruowStore::new("catalog");
        for (index, key) in keys.iter().enumerate() {
            catalog.write(key, Value::F64(catalog_price(index)));
        }
        let shared = Arc::new(Shared {
            orb,
            coordination,
            catalog,
            bank: StagedLedger::new("bank"),
            shop: StagedLedger::new("shop"),
            keys,
            seed,
            offset: mix(seed, u64::MAX) % ORDER_CYCLE,
            refunds: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            probe,
        });

        let mut registry = TaskRegistry::new();
        type Body = fn(&Shared, &TaskInput) -> TaskResult;
        let tasks: [(&str, Body); 4] = [
            ("price", Shared::price),
            ("pay", Shared::pay),
            ("fulfil", Shared::fulfil),
            ("refund", Shared::refund),
        ];
        for (name, body) in tasks {
            let shared = Arc::clone(&shared);
            registry.register(name, move |input: &TaskInput| body(&shared, input));
        }
        let engine = WorkflowEngine::new(script::parse(ORDER_SCRIPT)?, registry)?;
        Ok(OrderWorld {
            engine,
            service: ActivityService::new(),
            shared,
        })
    }
}

impl World for OrderWorld {
    type Client = OrderClient;

    fn new_clients(&self) -> Vec<OrderClient> {
        vec![OrderClient {
            expected: vec![None; self.shared.keys.len()],
            delivered: 0,
            no_courier: 0,
            compensations: 0,
        }]
    }

    fn run_op(&self, client: &mut OrderClient, index: u64) -> bool {
        let probe = &self.shared.probe;
        let _op = probe.as_ref().map(|tracer| tracer.begin_op(index as u32));
        let report = {
            let _span = span(probe, Kind::WfRun);
            match self.engine.run(&self.service, "order", Value::U64(index)) {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("order {index}: {error}");
                    return false;
                }
            }
        };
        client.compensations += report.compensations.len() as u64;
        let fate = self.shared.fate(index);
        let as_expected = match fate {
            Fate::Delivered => {
                report.succeeded()
                    && report.outputs.get("fulfil").and_then(Value::as_str) == Some(COURIERS[0])
            }
            Fate::Declined => {
                report.failed == ["pay"]
                    && report.skipped == ["fulfil"]
                    && report.compensations.is_empty()
            }
            Fate::NoCourier => {
                report.failed == ["fulfil"]
                    && report.compensations.len() == 1
                    && report.compensations[0].success
            }
        };
        if as_expected && fate != Fate::Declined {
            let key = key_index(self.shared.seed, index);
            client.expected[key] = Some(amount_due(catalog_price(key), index));
        }
        match fate {
            Fate::Delivered => client.delivered += 1,
            Fate::NoCourier => client.no_courier += 1,
            Fate::Declined => {}
        }
        as_expected
    }

    /// Refunds must equal the orders that found no courier, deliveries the
    /// orders that should have been delivered, and the bank's and the shop's
    /// ledgers must both hold the last committed amount under every key.
    fn verify(&self, clients: &[OrderClient]) -> Vec<String> {
        let mut errors = Vec::new();
        let client = &clients[0];
        let refunds = self.shared.refunds.load(Ordering::Relaxed);
        if refunds != client.no_courier {
            errors.push(format!(
                "{refunds} refunds, {} orders without courier",
                client.no_courier
            ));
        }
        let deliveries = self.shared.deliveries.load(Ordering::Relaxed);
        if deliveries != client.delivered {
            errors.push(format!(
                "{deliveries} deliveries, {} expected",
                client.delivered
            ));
        }
        for (key, expected) in self.shared.keys.iter().zip(&client.expected) {
            let expected = expected.map(Value::F64);
            let (bank, shop) = (self.shared.bank.read(key), self.shared.shop.read(key));
            if bank != expected || shop != expected {
                errors.push(format!(
                    "key {key}: bank {bank:?}, shop {shop:?}, expected {expected:?}"
                ));
            }
        }
        errors.truncate(8);
        errors
    }
}
