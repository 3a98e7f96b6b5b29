//! The high-level-service API of fig. 13 (the J2EE Activity Service /
//! JSR 95 shape): `UserActivity` for demarcation, `ActivityManager` for
//! HLS implementers.
//!
//! "The high-level service (HLS) specifies a specific extended transaction
//! model. ... The ActivityManager provides a simplified way in which HLS
//! implementers interact with the underlying Activity Service
//! implementation. ... Activities can be demarcated through UserActivity."

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;


use crate::action::Action;
use crate::activity::{Activity, ActivityState};
use crate::completion::CompletionStatus;
use crate::error::ActivityError;
use crate::outcome::Outcome;
use crate::service::ActivityService;
use crate::signal_set::SignalSet;

/// Application-facing demarcation API (fig. 13's `UserActivity`).
///
/// Every operation targets the calling thread's current activity, so
/// application code never handles [`Activity`] objects directly.
#[derive(Debug, Clone)]
pub struct UserActivity {
    service: ActivityService,
}

impl UserActivity {
    /// A demarcation facade over `service`.
    pub fn new(service: ActivityService) -> Self {
        UserActivity { service }
    }

    /// Begin a (possibly nested) activity on this thread.
    ///
    /// # Errors
    ///
    /// See [`ActivityService::begin`].
    pub fn begin(&self, name: impl Into<Arc<str>>) -> Result<(), ActivityError> {
        self.service.begin(name)?;
        Ok(())
    }

    /// Begin with a timeout: the activity is doomed to `FailOnly` once the
    /// virtual clock passes it.
    ///
    /// # Errors
    ///
    /// See [`ActivityService::begin`].
    pub fn begin_with_timeout(
        &self,
        name: impl Into<Arc<str>>,
        timeout: Duration,
    ) -> Result<(), ActivityError> {
        let activity = self.service.begin(name)?;
        activity.set_timeout(timeout);
        Ok(())
    }

    /// Complete the current activity with its current status.
    ///
    /// # Errors
    ///
    /// See [`ActivityService::complete`].
    pub fn complete(&self) -> Result<Outcome, ActivityError> {
        self.service.complete()
    }

    /// Complete the current activity with an explicit status.
    ///
    /// # Errors
    ///
    /// See [`ActivityService::complete_with_status`].
    pub fn complete_with_status(
        &self,
        status: CompletionStatus,
    ) -> Result<Outcome, ActivityError> {
        self.service.complete_with_status(status)
    }

    /// Set the current activity's completion status.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`]; or an illegal transition.
    pub fn set_completion_status(&self, status: CompletionStatus) -> Result<(), ActivityError> {
        self.current()?.set_completion_status(status)
    }

    /// The current activity's completion status.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn completion_status(&self) -> Result<CompletionStatus, ActivityError> {
        Ok(self.current()?.completion_status())
    }

    /// The current activity's lifecycle state.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn status(&self) -> Result<ActivityState, ActivityError> {
        Ok(self.current()?.state())
    }

    /// The current activity's name.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn activity_name(&self) -> Result<String, ActivityError> {
        Ok(self.current()?.name().to_owned())
    }

    /// Detach the current activity from this thread (to resume elsewhere).
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn suspend(&self) -> Result<Activity, ActivityError> {
        self.service.suspend()
    }

    /// Re-attach a suspended activity to this thread.
    pub fn resume(&self, activity: Activity) {
        self.service.resume(activity)
    }

    fn current(&self) -> Result<Activity, ActivityError> {
        self.service.current().ok_or(ActivityError::NoCurrentActivity)
    }
}

/// HLS-implementer API (fig. 13's `ActivityManager`): plug SignalSets and
/// Actions into the *current* activity.
#[derive(Debug, Clone)]
pub struct ActivityManager {
    service: ActivityService,
}

impl ActivityManager {
    /// A manager facade over `service`.
    pub fn new(service: ActivityService) -> Self {
        ActivityManager { service }
    }

    /// Associate a SignalSet with the current activity.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`]; or see
    /// [`crate::coordinator::ActivityCoordinator::add_signal_set`].
    pub fn add_signal_set(&self, set: Box<dyn SignalSet>) -> Result<(), ActivityError> {
        self.current()?.coordinator().add_signal_set(set)
    }

    /// Register an Action with a SignalSet of the current activity.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn register_action(
        &self,
        set_name: &str,
        action: Arc<dyn Action>,
    ) -> Result<(), ActivityError> {
        self.current()?.coordinator().register_action(set_name, action);
        Ok(())
    }

    /// Designate the SignalSet that completion will drive.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn set_completion_signal_set(
        &self,
        set_name: impl Into<Cow<'static, str>>,
    ) -> Result<(), ActivityError> {
        self.current()?.set_completion_signal_set(set_name);
        Ok(())
    }

    /// Run an associated SignalSet of the current activity now.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`]; or coordinator failures.
    pub fn broadcast(&self, set_name: &str) -> Result<Outcome, ActivityError> {
        self.current()?.signal(set_name)
    }

    /// The current activity (escape hatch for HLS code needing the full
    /// object).
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`].
    pub fn current_activity(&self) -> Result<Activity, ActivityError> {
        self.current()
    }

    fn current(&self) -> Result<Activity, ActivityError> {
        self.service.current().ok_or(ActivityError::NoCurrentActivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use crate::signal::Signal;
    use crate::signal_set::BroadcastSignalSet;
    use orb::Value;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn facades() -> (UserActivity, ActivityManager) {
        let svc = ActivityService::new();
        (UserActivity::new(svc.clone()), ActivityManager::new(svc))
    }

    #[test]
    fn no_current_activity_errors() {
        let (ua, am) = facades();
        assert!(matches!(ua.complete(), Err(ActivityError::NoCurrentActivity)));
        assert!(matches!(ua.status(), Err(ActivityError::NoCurrentActivity)));
        assert!(matches!(
            am.register_action("s", Arc::new(FnAction::new("a", |_s: &Signal| Ok(Outcome::done())))),
            Err(ActivityError::NoCurrentActivity)
        ));
        assert!(matches!(am.broadcast("s"), Err(ActivityError::NoCurrentActivity)));
    }

    #[test]
    fn fig13_layering_hls_over_user_activity() {
        let (ua, am) = facades();
        ua.begin("business-activity").unwrap();
        assert_eq!(ua.activity_name().unwrap(), "business-activity");
        assert_eq!(ua.status().unwrap(), ActivityState::Active);

        // The HLS plugs in its protocol...
        am.add_signal_set(Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)))
            .unwrap();
        am.set_completion_signal_set("Done").unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        am.register_action(
            "Done",
            Arc::new(FnAction::new("hls-action", move |_s: &Signal| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(Outcome::done())
            })),
        )
        .unwrap();

        // ...and the application demarcates, oblivious to it.
        let outcome = ua.complete().unwrap();
        assert!(outcome.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn completion_status_via_user_activity() {
        let (ua, _) = facades();
        ua.begin("a").unwrap();
        assert_eq!(ua.completion_status().unwrap(), CompletionStatus::Success);
        ua.set_completion_status(CompletionStatus::FailOnly).unwrap();
        let out = ua.complete().unwrap();
        assert!(out.is_negative());
    }

    #[test]
    fn timeout_via_user_activity() {
        let svc = ActivityService::new();
        let ua = UserActivity::new(svc.clone());
        ua.begin_with_timeout("slow", Duration::from_millis(10)).unwrap();
        svc.clock().advance(Duration::from_millis(20));
        let out = ua.complete().unwrap();
        assert!(out.is_negative());
    }

    #[test]
    fn suspend_resume_via_user_activity() {
        let (ua, _) = facades();
        ua.begin("mobile").unwrap();
        let held = ua.suspend().unwrap();
        assert!(matches!(ua.status(), Err(ActivityError::NoCurrentActivity)));
        ua.resume(held);
        ua.complete().unwrap();
    }
}

/// The §5.1 "Work Service Area" effort (\[17\], JSR 149): a standardised,
/// demarcated tuple space built on the PropertyGroup concept. Work areas
/// nest: beginning one inside another starts from a *copy* of the
/// enclosing area (reads fall through), and completing it discards the
/// nested changes — scoped context for the code between `begin` and
/// `complete`.
#[derive(Debug, Clone)]
pub struct UserWorkArea {
    stack: Arc<parking_lot::Mutex<Vec<WorkAreaFrame>>>,
}

#[derive(Debug)]
struct WorkAreaFrame {
    name: String,
    group: Arc<crate::property::BasicPropertyGroup>,
}

impl Default for UserWorkArea {
    fn default() -> Self {
        Self::new()
    }
}

impl UserWorkArea {
    /// A fresh (empty) work-area stack.
    pub fn new() -> Self {
        UserWorkArea { stack: Arc::new(parking_lot::Mutex::new(Vec::new())) }
    }

    /// Begin a (possibly nested) work area. A nested area starts with a
    /// copy of its parent's properties.
    pub fn begin(&self, name: impl Into<String>) {
        use crate::property::{NestedVisibility, PropertyGroup, PropertyGroupSpec};
        let name = name.into();
        let mut stack = self.stack.lock();
        let spec = PropertyGroupSpec::new(format!("workarea:{name}"))
            .nested(NestedVisibility::CopyOnWrite);
        let group = match stack.last() {
            Some(parent) => {
                crate::property::BasicPropertyGroup::with_properties(spec, parent.group.snapshot())
            }
            None => crate::property::BasicPropertyGroup::new(spec),
        };
        stack.push(WorkAreaFrame { name, group });
    }

    /// Name of the innermost open work area.
    pub fn area_name(&self) -> Option<String> {
        self.stack.lock().last().map(|f| f.name.clone())
    }

    /// Nesting depth (0 = no open area).
    pub fn depth(&self) -> usize {
        self.stack.lock().len()
    }

    /// Set a property in the innermost area.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`] when no area is open.
    pub fn set(&self, key: &str, value: orb::Value) -> Result<(), ActivityError> {
        use crate::property::PropertyGroup;
        let stack = self.stack.lock();
        let frame = stack.last().ok_or(ActivityError::NoCurrentActivity)?;
        frame.group.set(key, value);
        Ok(())
    }

    /// Read a property from the innermost area (which already contains its
    /// ancestors' values by copy).
    pub fn get(&self, key: &str) -> Option<orb::Value> {
        use crate::property::PropertyGroup;
        self.stack.lock().last().and_then(|f| f.group.get(key))
    }

    /// Remove a property from the innermost area.
    pub fn remove(&self, key: &str) -> Option<orb::Value> {
        use crate::property::PropertyGroup;
        self.stack.lock().last().and_then(|f| f.group.remove(key))
    }

    /// Complete the innermost area, discarding its changes.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`] when no area is open.
    pub fn complete(&self) -> Result<(), ActivityError> {
        self.stack
            .lock()
            .pop()
            .map(|_| ())
            .ok_or(ActivityError::NoCurrentActivity)
    }
}

#[cfg(test)]
mod work_area_tests {
    use super::*;
    use orb::Value;

    #[test]
    fn scoped_nesting_with_copy_semantics() {
        let wa = UserWorkArea::new();
        assert!(wa.area_name().is_none());
        assert!(matches!(wa.set("k", Value::Null), Err(ActivityError::NoCurrentActivity)));

        wa.begin("outer");
        wa.set("user", Value::from("ada")).unwrap();
        wa.set("role", Value::from("admin")).unwrap();

        wa.begin("inner");
        assert_eq!(wa.depth(), 2);
        assert_eq!(wa.area_name().as_deref(), Some("inner"));
        // Inherited by copy…
        assert_eq!(wa.get("user"), Some(Value::from("ada")));
        // …and shadowable without touching the outer area.
        wa.set("role", Value::from("viewer")).unwrap();
        assert_eq!(wa.get("role"), Some(Value::from("viewer")));
        assert_eq!(wa.remove("user"), Some(Value::from("ada")));
        assert_eq!(wa.get("user"), None);

        wa.complete().unwrap();
        // The outer area is untouched by everything the inner one did.
        assert_eq!(wa.get("role"), Some(Value::from("admin")));
        assert_eq!(wa.get("user"), Some(Value::from("ada")));
        wa.complete().unwrap();
        assert!(matches!(wa.complete(), Err(ActivityError::NoCurrentActivity)));
    }

    #[test]
    fn sibling_areas_are_independent() {
        let wa = UserWorkArea::new();
        wa.begin("first");
        wa.set("k", Value::from(1i64)).unwrap();
        wa.complete().unwrap();
        wa.begin("second");
        assert_eq!(wa.get("k"), None, "completed siblings leave nothing behind");
        wa.complete().unwrap();
    }
}
