//! Figs. 1 and 2 of the paper: the logical long-running travel booking —
//! taxi, restaurant, theatre, hotel — structured as many short top-level
//! transactions chained by activities, first without and then with failure
//! and compensation.
//!
//! Also demonstrates the *quantitative* point of fig. 1: compared with one
//! monolithic transaction, the activity structure holds each resource only
//! for its own step, so competitors are blocked far less (see the printed
//! lock statistics; the full sweep is the F1 table of
//! `cargo run -p bench --bin figures --release`).
//!
//! Run with: `cargo run --example travel_booking`

use std::sync::Arc;
use std::time::Duration;

use activity_service::ActivityService;
use orb::{Env, SimClock, Value};
use ots::{TransactionFactory, TransactionalKv, TxError};
use telemetry::{Telemetry, MSC_FROM, MSC_MSG, MSC_NOTE, MSC_REPLY, MSC_TO};
use tx_models::{Saga, SagaOutcome};

const STEPS: [&str; 4] = ["taxi", "restaurant", "theatre", "hotel"];
const STEP_TIME: Duration = Duration::from_secs(60);

/// One booking step as an independent top-level transaction. Returns the
/// booking reference.
fn book(
    factory: &TransactionFactory,
    store: &Arc<TransactionalKv>,
    clock: &SimClock,
    what: &str,
) -> Result<String, TxError> {
    let tx = factory.create()?;
    store.enlist(&tx)?;
    let reference = format!("{what}-booking-001");
    store.write(tx.id(), what, Value::from(reference.as_str()))?;
    clock.advance(STEP_TIME); // the work takes a while
    tx.terminator().commit()?;
    Ok(reference)
}

fn unbook(
    factory: &TransactionFactory,
    store: &Arc<TransactionalKv>,
    what: &str,
) -> Result<(), String> {
    let tx = factory.create().map_err(|e| e.to_string())?;
    store.enlist(&tx).map_err(|e| e.to_string())?;
    store.delete(tx.id(), what).map_err(|e| e.to_string())?;
    tx.terminator().commit().map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------- Fig. 1: the happy path. ----------------
    println!("== fig. 1: logical long-running transaction, no failure ==");
    let clock = SimClock::new();
    // Record the whole trip as a span tree on the virtual clock; the
    // activity begin/complete pairs become nested `activity:` spans and the
    // msc.* attributes below make the run renderable as a fig. 1 chart.
    let tel = Telemetry::with_time(Arc::new(clock.clone()));
    // One context — clock and telemetry — for the activity service and the
    // transaction factory.
    let env = Env::wired(Env {
        clock: clock.clone(),
        telemetry: Some(tel.clone()),
        ..Default::default()
    });
    let service = ActivityService::builder().env(Arc::clone(&env)).build();
    let factory = TransactionFactory::new().with_env(env);
    let store = Arc::new(TransactionalKv::with_clock("bookings", clock.clone()));

    service.begin("trip")?;
    for what in STEPS {
        let activity = service.begin(format!("book-{what}"))?;
        let span = tel.start_span(&format!("book:{what}"));
        tel.set_attr(&span, MSC_FROM, "client");
        tel.set_attr(&span, MSC_TO, what);
        tel.set_attr(&span, MSC_MSG, "book");
        let reference = book(&factory, &store, &clock, what)?;
        tel.set_attr(&span, MSC_REPLY, &reference);
        tel.end(&span);
        println!("  t: booked {what} -> {reference} (locks released immediately)");
        // Each step's resources are free the moment its transaction
        // commits — a competitor can touch them while later steps run.
        let probe = factory.create()?;
        store.enlist(&probe)?;
        assert!(store.read(probe.id(), what).is_ok(), "no lock held on {what}");
        probe.terminator().commit()?;
        drop(activity);
        service.complete()?;
    }
    service.complete()?;
    let stats = store.lock_stats();
    println!(
        "  lock stats: {} acquired, {} conflicts, mean hold {:?}",
        stats.acquired,
        stats.conflicts,
        stats.total_hold / stats.released.max(1) as u32
    );
    let tree = tel.span_tree();
    assert!(tree.verify().is_empty(), "span tree must be well-formed: {:?}", tree.verify());
    println!("\n-- recorded message-sequence chart (fig. 1 view) --");
    println!("{}", tree.render_sequence());

    // Contrast: the monolithic version holds EVERY lock to the end.
    let mono_store = Arc::new(TransactionalKv::with_clock("mono", clock.clone()));
    let mono = factory.create()?;
    mono_store.enlist(&mono)?;
    for what in STEPS {
        mono_store.write(mono.id(), what, Value::from("held"))?;
        clock.advance(STEP_TIME);
    }
    // While the monolith crawls along, the taxi row is untouchable.
    let competitor = factory.create()?;
    mono_store.enlist(&competitor)?;
    assert!(matches!(
        mono_store.write(competitor.id(), "taxi", Value::from("x")),
        Err(TxError::LockConflict { .. })
    ));
    competitor.terminator().rollback()?;
    mono.terminator().commit()?;
    let mono_stats = mono_store.lock_stats();
    println!(
        "  monolithic contrast: mean hold {:?}, {} competitor conflicts",
        mono_stats.total_hold / mono_stats.released.max(1) as u32,
        mono_stats.conflicts,
    );

    // ---------------- Fig. 2: t4 aborts; compensate and continue. --------
    println!("\n== fig. 2: failure, compensation, alternative continuation ==");
    let tel = Telemetry::new();
    let env = Env { telemetry: Some(tel.clone()), ..Default::default() };
    let service = ActivityService::builder().env(env.wired()).build();
    let factory = Arc::new(TransactionFactory::new());
    let store = Arc::new(TransactionalKv::new("bookings-2"));

    let saga = {
        let mut saga = Saga::new("trip-with-failure");
        for what in ["taxi", "restaurant", "theatre"] {
            let (f, s) = (Arc::clone(&factory), Arc::clone(&store));
            let (fu, su) = (Arc::clone(&factory), Arc::clone(&store));
            let what_owned = what.to_owned();
            let what_undo = what.to_owned();
            let (tb, tc) = (tel.clone(), tel.clone());
            saga = saga.step(
                what,
                move || {
                    let span = tb.start_span(&format!("book:{what_owned}"));
                    tb.set_attr(&span, MSC_FROM, "client");
                    tb.set_attr(&span, MSC_TO, &what_owned);
                    tb.set_attr(&span, MSC_MSG, "book");
                    let result = book(&f, &s, &SimClock::new(), &what_owned)
                        .map(|_| ())
                        .map_err(|e| e.to_string());
                    tb.set_attr(&span, MSC_REPLY, "booked");
                    tb.end(&span);
                    result
                },
                move || {
                    // The compensation sweep shows up on the chart as tc's
                    // local event boxes, in reverse booking order (fig. 2).
                    let span = tc.start_span(&format!("compensate:{what_undo}"));
                    tc.set_attr(&span, MSC_FROM, "tc");
                    tc.set_attr(&span, MSC_NOTE, &format!("compensate {what_undo}"));
                    tc.end(&span);
                    println!("  tc: compensating {what_undo}");
                    unbook(&fu, &su, &what_undo)
                },
            );
        }
        // t4: the hotel is fully booked.
        saga.step(
            "hotel",
            || Err("hotel fully booked".to_owned()),
            || unreachable!("never committed, never compensated"),
        )
    };
    let report = saga.run(&service)?;
    println!("  saga outcome: {:?}", report.outcome);
    assert_eq!(report.outcome, SagaOutcome::Compensated { failed_step: "hotel".into() });
    assert_eq!(store.read_committed("taxi"), None, "compensated");
    assert_eq!(store.read_committed("theatre"), None, "compensated");

    // t5', t6': continue after compensation — book the cinema instead.
    service.begin("alternative-evening")?;
    let reference = book(&factory, &store, &SimClock::new(), "cinema")?;
    println!("  t5': booked cinema -> {reference}");
    service.complete()?;
    assert!(store.read_committed("cinema").is_some());
    println!("  application made forward progress despite t4's abort");

    let tree = tel.span_tree();
    assert!(tree.verify().is_empty(), "span tree must be well-formed: {:?}", tree.verify());
    println!("\n-- recorded message-sequence chart (fig. 2 view) --");
    println!("{}", tree.render_sequence());
    Ok(())
}
