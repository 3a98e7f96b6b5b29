//! §5.2: the Web Services Coordination Framework — an ACID purchase across
//! two remote "web services", coordinated with NO object transaction
//! service anywhere: the framework's signals are the whole coordinator.
//!
//! Run with: `cargo run --example ws_coordination`

use std::sync::Arc;

use activity_service::{Action, CompletionStatus};
use orb::{Orb, Value};
use tx_models::TWO_PC_SET;
use wscf::{
    register_remote, CoordinationService, ProtocolSuite, StagedLedger, WsParticipantAction,
    TYPE_ATOMIC_TRANSACTION,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three organisations, three nodes.
    let orb = Orb::new();
    let coordinator_node = orb.add_node("coordinator.example")?;
    let shop_node = orb.add_node("shop.example")?;
    let bank_node = orb.add_node("bank.example")?;

    // The coordination service advertises the atomic-transaction type,
    // whose single protocol is the framework's 2PC signal set.
    let service = Arc::new(CoordinationService::default());
    service.register_coordination_type(
        TYPE_ATOMIC_TRANSACTION,
        ProtocolSuite::new().with(TWO_PC_SET, || {
            Box::new(tx_models::TwoPhaseCommitSignalSet::new()) as _
        }),
    );
    service.expose_registration(&orb, &coordinator_node)?;

    // Activation: the buyer creates a context; its wire form would ride in
    // every application message.
    let ctx = service.create_context(TYPE_ATOMIC_TRANSACTION)?;
    println!("created context {} ({})", ctx.id(), ctx.coordination_type());
    let wire = ctx.to_value().encode();
    println!("  context wire size: {} bytes", wire.len());

    // Each service stages its side of the purchase and registers through
    // the ORB — classic WS-Coordination registration, at-least-once.
    let inventory = StagedLedger::new("shop-inventory");
    inventory.stage("widget-stock", Value::I64(99));
    let shop_servant = register_remote(
        &orb,
        &shop_node,
        &ctx,
        TWO_PC_SET,
        WsParticipantAction::new(inventory.clone() as _) as Arc<dyn Action>,
    )?;
    println!("shop.example registered its inventory ledger");

    let accounts = StagedLedger::new("bank-accounts");
    accounts.stage("buyer-balance", Value::I64(40));
    let bank_servant = register_remote(
        &orb,
        &bank_node,
        &ctx,
        TWO_PC_SET,
        WsParticipantAction::new(accounts.clone() as _) as Arc<dyn Action>,
    )?;
    println!("bank.example registered its accounts ledger");

    // The coordinator completes: prepare and commit signals cross the
    // simulated network to both participants.
    let outcome = service.complete(ctx.id(), TWO_PC_SET, CompletionStatus::Success)?;
    println!("completion outcome: {outcome}");
    assert_eq!(outcome.name(), "committed");
    assert_eq!(inventory.read("widget-stock"), Some(Value::I64(99)));
    assert_eq!(accounts.read("buyer-balance"), Some(Value::I64(40)));
    println!("both ledgers committed atomically — and no OTS exists in this process");
    // The participants' Action servants have served their transaction.
    shop_node.deactivate(&shop_servant);
    bank_node.deactivate(&bank_servant);

    // The failing variant: one participant refuses, everyone rolls back.
    let ctx2 = service.create_context(TYPE_ATOMIC_TRANSACTION)?;
    let flaky = StagedLedger::refusing("flaky-supplier");
    flaky.stage("parts", Value::I64(7));
    let steady = StagedLedger::new("steady-partner");
    steady.stage("order", Value::I64(1));
    let shop_servant = register_remote(&orb, &shop_node, &ctx2, TWO_PC_SET,
        WsParticipantAction::new(flaky.clone() as _) as Arc<dyn Action>)?;
    let bank_servant = register_remote(&orb, &bank_node, &ctx2, TWO_PC_SET,
        WsParticipantAction::new(steady.clone() as _) as Arc<dyn Action>)?;
    let outcome = service.complete(ctx2.id(), TWO_PC_SET, CompletionStatus::Success)?;
    shop_node.deactivate(&shop_servant);
    bank_node.deactivate(&bank_servant);
    println!("\nsecond context outcome: {outcome}");
    assert_eq!(outcome.name(), "rolled_back");
    assert_eq!(steady.read("order"), None, "the steady partner was rolled back too");
    Ok(())
}
