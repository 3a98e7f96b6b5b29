//! A full-stack scenario stitching the layers together the way a real
//! deployment would: a workflow-driven order pipeline whose payment step is
//! a WSCF atomic transaction across remote services, whose fulfilment step
//! is a BTP cohesion, and whose pricing step is an LRUOW unit of work —
//! with the §4.2 compensation machinery protecting the early-committed
//! side effects.

use std::sync::Arc;

use activity_service::{Action, ActivityService};
use btp::{BtpParticipant, Cohesion, Reservation, ReservationState};
use orb::{Orb, Value};
use parking_lot::Mutex;
use tx_models::{LruowStore, TWO_PC_SET};
use wfengine::{script, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};
use wscf::{
    register_remote, CoordinationService, ProtocolSuite, StagedLedger, WsParticipantAction,
    TYPE_ATOMIC_TRANSACTION,
};

const ORDER_SCRIPT: &str = "
    task price;
    task pay after price;
    task fulfil after pay;
    compensate pay with refund;
";

struct World {
    orb: Orb,
    coordination: Arc<CoordinationService>,
    catalog: Arc<LruowStore>,
    bank: Arc<StagedLedger>,
    shop: Arc<StagedLedger>,
    couriers: Arc<Mutex<Vec<Arc<Reservation>>>>,
    refunds: Arc<Mutex<u32>>,
}

fn build_world() -> World {
    let orb = Orb::new();
    let coordinator_node = orb.add_node("coordinator").unwrap();
    orb.add_node("bank").unwrap();
    orb.add_node("shop").unwrap();

    let coordination = Arc::new(CoordinationService::default());
    coordination.register_coordination_type(
        TYPE_ATOMIC_TRANSACTION,
        ProtocolSuite::new()
            .with(TWO_PC_SET, || Box::new(tx_models::TwoPhaseCommitSignalSet::new()) as _),
    );
    coordination.expose_registration(&orb, &coordinator_node).unwrap();

    let catalog = LruowStore::new("catalog");
    catalog.write("widget/price", Value::F64(10.0));

    World {
        orb,
        coordination,
        catalog,
        bank: StagedLedger::new("bank"),
        shop: StagedLedger::new("shop"),
        couriers: Arc::new(Mutex::new(Vec::new())),
        refunds: Arc::new(Mutex::new(0)),
    }
}

fn registry(world: &World, payment_works: bool, courier_available: bool) -> TaskRegistry {
    let mut registry = TaskRegistry::new();

    // --- price: an LRUOW rehearsal + performance over the catalog. -------
    let catalog = Arc::clone(&world.catalog);
    registry.register("price", move |_i: &TaskInput| {
        let uow = catalog.begin_unit_of_work();
        let price = uow.read("widget/price").unwrap().as_f64().unwrap();
        uow.write("widget/price", Value::F64(price)); // pin the quote
        match uow.perform() {
            Ok(()) => TaskResult::ok(Value::F64(price)),
            Err(e) => TaskResult::failed(e.to_string()),
        }
    });

    // --- pay: a WSCF atomic transaction across two remote services. ------
    let orb = world.orb.clone();
    let coordination = Arc::clone(&world.coordination);
    let bank = Arc::clone(&world.bank);
    let shop = Arc::clone(&world.shop);
    registry.register("pay", move |input: &TaskInput| {
        let price = input.upstream.get("price").and_then(Value::as_f64).unwrap_or(0.0);
        let ctx = coordination.create_context(TYPE_ATOMIC_TRANSACTION).unwrap();
        let payer = if payment_works {
            Arc::clone(&bank)
        } else {
            StagedLedger::refusing("bank-refuses")
        };
        payer.stage("debit", Value::F64(price));
        shop.stage("credit", Value::F64(price));
        let (bank_node, shop_node) = (orb.node("bank").unwrap(), orb.node("shop").unwrap());
        let bank_servant = register_remote(
            &orb,
            &bank_node,
            &ctx,
            TWO_PC_SET,
            WsParticipantAction::new(payer as _) as Arc<dyn Action>,
        )
        .unwrap();
        let shop_servant = register_remote(
            &orb,
            &shop_node,
            &ctx,
            TWO_PC_SET,
            WsParticipantAction::new(Arc::clone(&shop) as _) as Arc<dyn Action>,
        )
        .unwrap();
        let outcome = coordination
            .complete(ctx.id(), TWO_PC_SET, activity_service::CompletionStatus::Success)
            .unwrap();
        bank_node.deactivate(&bank_servant);
        shop_node.deactivate(&shop_servant);
        if outcome.name() == "committed" {
            TaskResult::ok(Value::F64(price))
        } else {
            TaskResult::failed("payment declined")
        }
    });

    // --- fulfil: a BTP cohesion choosing a courier. -----------------------
    let couriers = Arc::clone(&world.couriers);
    registry.register("fulfil", move |_i: &TaskInput| {
        let activity =
            activity_service::Activity::new_root("fulfilment", orb::SimClock::new());
        let cohesion = Cohesion::new("fulfilment", activity);
        let mut prepared = Vec::new();
        for name in ["courier-express", "courier-economy"] {
            let atom = cohesion.enroll_atom(name).unwrap();
            let vote = if courier_available || name == "courier-economy" {
                btp::BtpVote::Prepared
            } else {
                btp::BtpVote::Cancelled
            };
            let reservation = Reservation::voting(name, vote);
            atom.enroll(Arc::clone(&reservation) as Arc<dyn BtpParticipant>).unwrap();
            if cohesion.prepare(name).is_ok() {
                prepared.push((name, reservation));
            }
        }
        let Some((winner, reservation)) = prepared.first() else {
            return TaskResult::failed("no courier available");
        };
        cohesion.confirm(&[winner]).unwrap();
        couriers.lock().push(Arc::clone(reservation));
        TaskResult::ok(Value::from(*winner))
    });

    // --- refund: compensation for pay. ------------------------------------
    let refunds = Arc::clone(&world.refunds);
    registry.register("refund", move |_i: &TaskInput| {
        *refunds.lock() += 1;
        TaskResult::ok(Value::Null)
    });

    registry
}

#[test]
fn happy_order_crosses_every_layer() {
    let world = build_world();
    let graph = script::parse(ORDER_SCRIPT).unwrap();
    let engine = WorkflowEngine::new(graph, registry(&world, true, true)).unwrap();
    let service = ActivityService::new();
    let report = engine.run(&service, "order-1", Value::from("order-1")).unwrap();

    assert!(report.succeeded(), "report: {report:?}");
    // The WSCF transaction committed on both remote ledgers.
    assert_eq!(world.bank.read("debit"), Some(Value::F64(10.0)));
    assert_eq!(world.shop.read("credit"), Some(Value::F64(10.0)));
    // The cohesion confirmed the express courier.
    let couriers = world.couriers.lock();
    assert_eq!(couriers.len(), 1);
    assert_eq!(couriers[0].state(), ReservationState::Confirmed);
    assert_eq!(report.outputs["fulfil"].as_str(), Some("courier-express"));
    assert_eq!(*world.refunds.lock(), 0);
}

#[test]
fn declined_payment_stops_the_pipeline_cleanly() {
    let world = build_world();
    let graph = script::parse(ORDER_SCRIPT).unwrap();
    let engine = WorkflowEngine::new(graph, registry(&world, false, true)).unwrap();
    let service = ActivityService::new();
    let report = engine.run(&service, "order-2", Value::from("order-2")).unwrap();

    assert_eq!(report.failed, vec!["pay"]);
    assert_eq!(report.skipped, vec!["fulfil"]);
    // The refusing payer vetoed the 2PC: the shop's credit rolled back too.
    assert_eq!(world.shop.read("credit"), None);
    assert_eq!(world.bank.read("debit"), None);
    // Nothing to refund: pay never completed, so its compensation (bound
    // to the pay task) does not run for pay's own failure.
    assert!(world.couriers.lock().is_empty());
}

#[test]
fn courier_failure_compensates_the_payment() {
    let world = build_world();
    let graph = script::parse(ORDER_SCRIPT).unwrap();
    let engine = WorkflowEngine::new(graph, registry(&world, true, false)).unwrap();
    let service = ActivityService::new();

    // The express courier refuses; economy is still available, so fulfil
    // actually succeeds — force total failure by draining both.
    // (Simplest: run with courier_available=false meaning express cancels;
    // economy prepared → fulfil succeeds.) So this run SUCCEEDS with the
    // economy courier: verify the cohesion picked the fallback.
    let report = engine.run(&service, "order-3", Value::from("order-3")).unwrap();
    assert!(report.succeeded());
    assert_eq!(report.outputs["fulfil"].as_str(), Some("courier-economy"));

    // Now a world where NO courier can prepare: fulfil fails and the
    // payment is refunded by the compensation sweep.
    let world2 = build_world();
    let mut registry2 = registry(&world2, true, false);
    registry2.register("fulfil", |_i: &TaskInput| TaskResult::failed("no couriers at all"));
    let graph = script::parse(ORDER_SCRIPT).unwrap();
    let engine = WorkflowEngine::new(graph, registry2).unwrap();
    let report = engine.run(&service, "order-4", Value::from("order-4")).unwrap();
    assert_eq!(report.failed, vec!["fulfil"]);
    assert_eq!(*world2.refunds.lock(), 1, "the pay step was compensated");
    // The payment itself had committed (it is an independent transaction —
    // that is the whole §4.2 point: undo-by-compensation, not by rollback).
    assert_eq!(world2.bank.read("debit"), Some(Value::F64(10.0)));
}
