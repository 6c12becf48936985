//! Load-balancing policies: the three user-defined steps of Figure 1.
//!
//! A policy is made of three independent pieces, matching the paper's
//! abstraction exactly:
//!
//! 1. a [`FilterPolicy`] — *"a core uses a filter function to create a list
//!    of other cores that it can steal from"* (step 1, `canSteal` in
//!    Listing 1),
//! 2. a [`ChoicePolicy`] — *"it chooses a core from this list (if any)"*
//!    (step 2, `selectCore` in Listing 1; this is where all the complex
//!    heuristics such as NUMA-aware placement live, and it is deliberately
//!    irrelevant to the work-conservation proof),
//! 3. a [`StealPolicy`] — *"the core steals thread(s) from the chosen
//!    core"* (step 3, `stealCore`/`stealOneThread` in Listing 1).
//!
//! The filter and the choice run in the lock-less selection phase and only
//! see read-only [`CoreSnapshot`]s; the steal policy runs in the locked
//! stealing phase and sees the live [`CoreState`]s of exactly the two cores
//! involved.

pub mod choice;
pub mod greedy;
pub mod hierarchical;
pub mod simple;
pub mod steal;
pub mod topology_aware;
pub mod weighted;

use std::sync::Arc;

use crate::core_state::CoreState;
use crate::load::LoadMetric;
use crate::snapshot::CoreSnapshot;
use crate::task::TaskId;
use crate::tracker::{LoadTracker, PeltTracker, TrackerSpec};
use crate::CoreId;

pub use choice::{
    FirstChoice, MaxLoadChoice, MinMigrationCostChoice, NumaAwareChoice, RandomChoice,
};
pub use greedy::GreedyFilter;
pub use hierarchical::{GroupAwareChoice, NodeRestrictedFilter};
pub use simple::DeltaFilter;
pub use steal::{StealHalfImbalance, StealLightest, StealOne};
pub use topology_aware::{LevelThresholds, TopologyAwareChoice};
pub use weighted::WeightedDeltaFilter;

/// Step 1 of a balancing round: decides which cores may be stolen from.
///
/// The filter is evaluated twice per attempt: once on the optimistic
/// snapshot during the selection phase, and once more on the live state at
/// the start of the stealing phase (Listing 1, line 12).  A filter that held
/// during selection but no longer holds at stealing time is exactly what the
/// paper calls a *failed* work-stealing attempt.
pub trait FilterPolicy: Send + Sync {
    /// Returns `true` if `thief` may steal from `victim` given these
    /// (possibly stale) observations.
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool;

    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> &'static str;

    /// `true` if the verdict for an idle thief can turn from "no" to "yes"
    /// only when a task is enqueued on the victim — what a caller needs
    /// that re-evaluates the filter on enqueues alone, with no timer (the
    /// `sched-exec` park protocol).  That holds when the filter reads only
    /// the two cores' *instantaneous* loads — not which cores they are, so
    /// every idle thief gets the same verdict, and not a load that decays
    /// with time — and a victim whose load only falls is never turned from
    /// rejected to accepted.  Defaults to `false`: a filter opts in.
    fn is_event_stable(&self) -> bool {
        false
    }
}

/// Step 2 of a balancing round: picks one core from the filtered list.
///
/// The paper's key observation is that this step "can mostly be ignored in
/// the work-conserving proof": any choice that returns a member of the
/// candidate list preserves the proof, so NUMA-aware and cache-aware
/// heuristics are free.
pub trait ChoicePolicy: Send + Sync {
    /// Chooses a victim among `candidates` (which never contains the thief).
    ///
    /// Must return the id of one of the candidates, or `None` if the list is
    /// empty; the balancer enforces the membership post-condition
    /// (Listing 1's `ensuring(res => cores.contains(res))`).
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId>;

    /// Feedback from the stealing phase: the attempt `thief` made against
    /// `victim` either migrated threads (`success`) or failed its re-check.
    ///
    /// `success` means **any nonzero claim**: a batched steal that asked
    /// for `k` threads and got fewer — because the victim ran short or the
    /// per-task re-check trimmed the batch — migrated real work and must
    /// be reported `true`.  Treating a partial batch as a failure would
    /// feed the backoff machinery exactly backwards, deprioritising the
    /// victims that are actually yielding work.
    ///
    /// Purely advisory — policies may use it to adapt future choices (e.g.
    /// [`TopologyAwareChoice`] backs off distance levels whose steals keep
    /// failing); the default implementation ignores it, and nothing in the
    /// work-conservation proofs depends on it because it only ever
    /// influences step 2.
    fn observe(&self, thief: CoreId, victim: CoreId, success: bool) {
        let _ = (thief, victim, success);
    }

    /// Places a waking task: picks the core a wakeup should land on, given
    /// the waker's view of the machine.
    ///
    /// This is the dual of [`ChoicePolicy::choose`] — instead of a loaded
    /// victim to take work *from*, it wants the emptiest target to hand work
    /// *to*.  The default prefers the task's previous core while it is idle
    /// (cache affinity for free), then any idle core, then the least-loaded
    /// one.  Idleness ties break on the lowest **tracked** load, not the
    /// instantaneous queue length: two cores that are both momentarily idle
    /// can carry very different decayed histories, and placing on the one
    /// that has genuinely been idle avoids churning on transient blips.
    /// Remaining ties break on the lowest core id for determinism.
    fn place_wakeup(&self, prev: CoreId, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        if candidates.iter().any(|c| c.id == prev && c.is_idle()) {
            return Some(prev);
        }
        candidates
            .iter()
            .filter(|c| c.is_idle())
            .min_by_key(|c| (c.tracked_scaled, c.id.0))
            .or_else(|| candidates.iter().min_by_key(|c| (c.tracked_scaled, c.id.0)))
            .map(|c| c.id)
    }

    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> &'static str;
}

/// Step 3 of a balancing round: decides which waiting threads migrate.
///
/// Runs with both runqueues locked; it may inspect the live state of the
/// thief and the victim but only ever selects threads from the victim's
/// *runqueue* (the victim's current thread is never migrated, so a steal can
/// never render the victim idle).
pub trait StealPolicy: Send + Sync {
    /// Returns the ids of the victim's waiting threads to migrate.
    fn select_tasks(&self, thief: &CoreState, victim: &CoreState) -> Vec<TaskId>;

    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> &'static str;
}

/// A complete balancing policy: filter + choice + steal + the load
/// criterion the three steps (and the potential function) are measured in.
pub struct Policy {
    /// The load view the policy balances (and the potential is measured in);
    /// always equal to `tracker.view()`.
    pub metric: LoadMetric,
    /// The criterion maintaining the loads the steps read — which entities
    /// count, and whether/how history decays (see [`crate::tracker`]).
    pub tracker: Arc<dyn LoadTracker>,
    /// Step 1.
    pub filter: Box<dyn FilterPolicy>,
    /// Step 2.
    pub choice: Box<dyn ChoicePolicy>,
    /// Step 3.
    pub steal: Box<dyn StealPolicy>,
}

impl Policy {
    /// Builds a policy balancing an instantaneous metric from its three
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics on [`LoadMetric::Tracked`]: a tracked view does not say which
    /// tracker maintains it — use [`Policy::with_tracker`] instead.
    pub fn new(
        metric: LoadMetric,
        filter: Box<dyn FilterPolicy>,
        choice: Box<dyn ChoicePolicy>,
        steal: Box<dyn StealPolicy>,
    ) -> Self {
        Policy {
            metric,
            tracker: TrackerSpec::instantaneous(metric).build(),
            filter,
            choice,
            steal,
        }
    }

    /// Builds a policy around an explicit load tracker; the steps read the
    /// tracker's view ([`LoadMetric::Tracked`] for decayed trackers).
    pub fn with_tracker(
        tracker: Arc<dyn LoadTracker>,
        filter: Box<dyn FilterPolicy>,
        choice: Box<dyn ChoicePolicy>,
        steal: Box<dyn StealPolicy>,
    ) -> Self {
        Policy { metric: tracker.view(), tracker, filter, choice, steal }
    }

    /// The paper's Listing 1 policy: steal one thread from a core whose
    /// thread count exceeds ours by at least two, choosing the most loaded
    /// candidate.
    pub fn simple() -> Self {
        Policy::new(
            LoadMetric::NrThreads,
            Box::new(DeltaFilter::listing1()),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            Box::new(StealOne),
        )
    }

    /// The §4.3 counterexample policy: steal from *any* overloaded core
    /// (`canSteal(stealee) = stealee.load() >= 2`).  Not work-conserving
    /// under concurrency.
    pub fn greedy() -> Self {
        Policy::new(
            LoadMetric::NrThreads,
            Box::new(GreedyFilter::new()),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            Box::new(StealOne),
        )
    }

    /// A niceness-aware policy balancing weighted load, as discussed in §4.2
    /// ("a load balancer that tries to balance the number of threads weighted
    /// by their importance").
    pub fn weighted() -> Self {
        Policy::new(
            LoadMetric::Weighted,
            Box::new(WeightedDeltaFilter::new()),
            Box::new(MaxLoadChoice::new(LoadMetric::Weighted)),
            Box::new(StealLightest),
        )
    }

    /// Listing 1 rebased onto a PELT-style decayed thread count: steal one
    /// thread when the *decayed* load difference reaches two, so brief
    /// bursts and idle blips no longer trigger migrations.
    pub fn pelt(half_life_ns: u64) -> Self {
        Policy::with_tracker(
            Arc::new(PeltTracker::new(LoadMetric::NrThreads, half_life_ns)),
            Box::new(DeltaFilter::new(LoadMetric::Tracked, 2)),
            Box::new(MaxLoadChoice::new(LoadMetric::Tracked)),
            Box::new(StealOne),
        )
    }

    /// The weighted balancer rebased onto a PELT-style decayed weighted
    /// load: steal the lightest waiting thread when the decayed weighted
    /// difference reaches two `nice 0` units.
    pub fn pelt_weighted(half_life_ns: u64) -> Self {
        Policy::with_tracker(
            Arc::new(PeltTracker::new(LoadMetric::Weighted, half_life_ns)),
            Box::new(DeltaFilter::new(LoadMetric::Tracked, 2048)),
            Box::new(MaxLoadChoice::new(LoadMetric::Tracked)),
            Box::new(StealLightest),
        )
    }

    /// Replaces the choice step, keeping filter and steal — the operation
    /// the paper argues is always proof-preserving.
    pub fn with_choice(mut self, choice: Box<dyn ChoicePolicy>) -> Self {
        self.choice = choice;
        self
    }

    /// Replaces the steal step.
    pub fn with_steal(mut self, steal: Box<dyn StealPolicy>) -> Self {
        self.steal = steal;
        self
    }

    /// A compact `filter/choice/steal` description for reports.
    pub fn describe(&self) -> String {
        format!("{}/{}/{}", self.filter.name(), self.choice.name(), self.steal.name())
    }
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Policy")
            .field("metric", &self.metric)
            .field("tracker", &self.tracker.name())
            .field("filter", &self.filter.name())
            .field("choice", &self.choice.name())
            .field("steal", &self.steal.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_policies_describe_themselves() {
        assert_eq!(Policy::simple().describe(), "delta_filter/max_load/steal_one");
        assert_eq!(Policy::greedy().describe(), "greedy_filter/max_load/steal_one");
        assert_eq!(Policy::weighted().describe(), "weighted_delta_filter/max_load/steal_lightest");
    }

    #[test]
    fn with_choice_only_replaces_step_2() {
        let p = Policy::simple().with_choice(Box::new(FirstChoice));
        assert_eq!(p.describe(), "delta_filter/first/steal_one");
        assert_eq!(p.metric, LoadMetric::NrThreads);
    }

    #[test]
    fn debug_format_is_stable() {
        let p = Policy::simple();
        let s = format!("{p:?}");
        assert!(s.contains("delta_filter"));
        assert!(s.contains("NrThreads"));
    }

    #[test]
    fn instantaneous_policies_carry_matching_trackers() {
        assert_eq!(Policy::simple().tracker.name(), "nr_threads");
        assert_eq!(Policy::weighted().tracker.name(), "weighted");
        assert_eq!(Policy::simple().metric, Policy::simple().tracker.view());
    }

    #[test]
    fn pelt_policies_balance_the_tracked_view() {
        let p = Policy::pelt(8_000_000);
        assert_eq!(p.metric, LoadMetric::Tracked);
        assert!(p.tracker.is_decayed());
        assert_eq!(p.tracker.base(), LoadMetric::NrThreads);
        assert_eq!(p.describe(), "delta_filter/max_load/steal_one");
        let w = Policy::pelt_weighted(8_000_000);
        assert_eq!(w.tracker.base(), LoadMetric::Weighted);
        assert_eq!(w.describe(), "delta_filter/max_load/steal_lightest");
    }

    #[test]
    #[should_panic(expected = "does not name a tracker")]
    fn tracked_metric_needs_an_explicit_tracker() {
        let _ = Policy::new(
            LoadMetric::Tracked,
            Box::new(DeltaFilter::listing1()),
            Box::new(FirstChoice),
            Box::new(StealOne),
        );
    }
}
