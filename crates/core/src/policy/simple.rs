//! The paper's Listing 1 filter: steal only from cores at least two threads
//! ahead of us.

use crate::load::LoadMetric;
use crate::policy::FilterPolicy;
use crate::snapshot::CoreSnapshot;

/// `canSteal(stealee) = stealee.load() - self.load() >= threshold`.
///
/// With `metric = NrThreads` and `threshold = 2` this is exactly the filter
/// of Listing 1 (line 6).  The threshold of two is what makes the policy
/// work-conserving under concurrency: an idle thief (load 0) always passes
/// the filter against an overloaded victim (load ≥ 2), while two non-idle
/// cores can never ping-pong a thread back and forth (stealing requires a
/// strict imbalance, and the steal strictly reduces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaFilter {
    metric: LoadMetric,
    threshold: u64,
}

impl DeltaFilter {
    /// The exact Listing 1 filter: thread counts, threshold 2.
    pub fn listing1() -> Self {
        DeltaFilter { metric: LoadMetric::NrThreads, threshold: 2 }
    }

    /// A delta filter over an arbitrary metric and threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero: a zero threshold would allow stealing
    /// from a core with the same load, which cannot decrease the potential.
    pub fn new(metric: LoadMetric, threshold: u64) -> Self {
        assert!(threshold > 0, "a delta filter needs a positive threshold");
        DeltaFilter { metric, threshold }
    }

    /// The metric this filter compares.
    pub fn metric(&self) -> LoadMetric {
        self.metric
    }

    /// The minimum load difference required to steal.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl FilterPolicy for DeltaFilter {
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
        let thief_load = thief.load(self.metric);
        let victim_load = victim.load(self.metric);
        victim_load >= thief_load + self.threshold
    }

    fn name(&self) -> &'static str {
        "delta_filter"
    }

    /// A decayed metric moves with time alone; an instantaneous one only
    /// moves when tasks come and go, and a falling victim load only makes
    /// the delta harder to reach.
    fn is_event_stable(&self) -> bool {
        self.metric != LoadMetric::Tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use crate::CoreId;

    fn snaps(loads: &[usize]) -> SystemSnapshot {
        SystemSnapshot::capture(&SystemState::from_loads(loads))
    }

    #[test]
    fn idle_thief_can_steal_from_overloaded_victim() {
        let s = snaps(&[0, 2]);
        let f = DeltaFilter::listing1();
        assert!(f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
    }

    #[test]
    fn idle_thief_cannot_steal_from_busy_but_not_overloaded_victim() {
        let s = snaps(&[0, 1]);
        let f = DeltaFilter::listing1();
        assert!(!f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
    }

    #[test]
    fn equal_loads_never_steal() {
        let s = snaps(&[3, 3]);
        let f = DeltaFilter::listing1();
        assert!(!f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
        assert!(!f.can_steal(s.core(CoreId(1)), s.core(CoreId(0))));
    }

    #[test]
    fn only_a_decayed_metric_makes_the_verdict_time_dependent() {
        assert!(DeltaFilter::listing1().is_event_stable());
        assert!(DeltaFilter::new(LoadMetric::Weighted, 2048).is_event_stable());
        assert!(!DeltaFilter::new(LoadMetric::Tracked, 2).is_event_stable());
    }

    #[test]
    fn difference_of_one_is_not_enough() {
        // This is what rules out the §4.3 ping-pong: cores 1 and 2 of the
        // counterexample (loads 1 and 2) must not want to steal from each
        // other.
        let s = snaps(&[1, 2]);
        let f = DeltaFilter::listing1();
        assert!(!f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
    }

    #[test]
    fn difference_of_two_or_more_is_enough_even_for_busy_thieves() {
        let s = snaps(&[1, 3]);
        let f = DeltaFilter::listing1();
        assert!(f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
    }

    #[test]
    fn weighted_variant_uses_weighted_loads() {
        let s = snaps(&[0, 2]);
        let f = DeltaFilter::new(LoadMetric::Weighted, 2048);
        assert!(f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
        let g = DeltaFilter::new(LoadMetric::Weighted, 4096);
        assert!(!g.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
    }

    #[test]
    #[should_panic(expected = "positive threshold")]
    fn zero_threshold_is_rejected() {
        let _ = DeltaFilter::new(LoadMetric::NrThreads, 0);
    }

    #[test]
    fn accessors() {
        let f = DeltaFilter::listing1();
        assert_eq!(f.metric(), LoadMetric::NrThreads);
        assert_eq!(f.threshold(), 2);
        assert_eq!(f.name(), "delta_filter");
    }
}
