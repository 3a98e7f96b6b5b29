//! The CORBA Activity Service framework — the primary contribution of
//! Houston, Little, Robinson, Shrivastava and Wheater, *"The CORBA Activity
//! Service Framework for Supporting Extended Transactions"* (Middleware
//! 2001 / SP&E 33(4), 2003), reproduced in Rust.
//!
//! The design insight of the paper: every extended transaction model —
//! two-phase commit, open nesting with compensation, Sagas, LRUOW, workflow
//! coordination, BTP atoms and cohesions — can be expressed over one
//! **general-purpose event signalling mechanism**:
//!
//! * an [`activity::Activity`] is a unit of (distributed) work, arranged in
//!   trees, possibly long-running, suspendable, with a three-valued
//!   [`completion::CompletionStatus`];
//! * each activity has an [`coordinator::ActivityCoordinator`] that drives
//!   pluggable [`signal_set::SignalSet`] protocol engines;
//! * a SignalSet emits [`signal::Signal`]s; the coordinator transmits each
//!   signal to every [`action::Action`] registered with that set and feeds
//!   their [`outcome::Outcome`]s back, advancing the protocol;
//! * [`property::PropertyGroup`]s attach configurable tuple-space state to
//!   activities (§3.3);
//! * the [`service::ActivityService`] associates activities with threads
//!   and, through ORB interceptors, propagates
//!   [`context::ActivityContext`]s on every remote invocation;
//! * [`recovery`] persists the activity structure and rebuilds it after a
//!   crash (§3.4);
//! * [`hls`] is the fig. 13 high-level API (`UserActivity` /
//!   `ActivityManager`, the JSR 95 shape).
//!
//! Signal delivery is **at-least-once** (§3.4): Actions must be idempotent.
//! The `orb` crate's fault injection exercises exactly that.
//!
//! # Example: an activity with a completion protocol
//!
//! ```
//! use std::sync::Arc;
//! use activity_service::{ActivityService, BroadcastSignalSet, FnAction, Outcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = ActivityService::new();
//! let activity = service.begin("quote-request")?;
//!
//! activity.coordinator().add_signal_set(Box::new(BroadcastSignalSet::new(
//!     "Completed",
//!     "finished",
//!     orb::Value::Null,
//! )))?;
//! activity.set_completion_signal_set("Completed");
//! activity.coordinator().register_action(
//!     "Completed",
//!     Arc::new(FnAction::new("auditor", |signal| {
//!         assert_eq!(signal.name(), "finished");
//!         Ok(Outcome::done())
//!     })),
//! );
//!
//! let outcome = service.complete()?;
//! assert!(outcome.is_done());
//! # Ok(())
//! # }
//! ```

pub mod action;
pub mod activity;
pub mod completion;
pub mod context;
pub mod coordinator;
pub mod dispatch;
pub mod error;
pub mod exactly_once;
pub mod hls;
pub mod interposition;
pub mod outcome;
pub mod property;
pub mod reaper;
pub mod recovery;
pub mod service;
pub mod signal;
pub mod signal_set;

pub use action::{Action, ActionServant, FnAction, RemoteActionProxy};
pub use activity::{Activity, ActivityId, ActivityState};
pub use completion::CompletionStatus;
pub use context::ActivityContext;
pub use coordinator::{failpoints, ActivityCoordinator};
pub use dispatch::DispatchConfig;
pub use error::{ActionError, ActivityError};
pub use exactly_once::ExactlyOnceAction;
pub use hls::{ActivityManager, UserActivity, UserWorkArea};
pub use interposition::{interpose, CollationPolicy, SubordinateRelay};
pub use outcome::Outcome;
pub use property::{
    BasicPropertyGroup, NestedVisibility, Propagation, PropertyGroup, PropertyGroupManager,
    PropertyGroupSpec,
};
pub use reaper::{OrphanReaper, ReapReport};
pub use recovery::{
    recover_activities, ActionFactories, ActivityLogger, RecoveredService, SignalSetFactories,
};
pub use service::{ActivityService, ActivityServiceBuilder};
pub use signal::Signal;
pub use signal_set::{AfterResponse, BroadcastSignalSet, NextSignal, SignalSet, SignalSetState};
