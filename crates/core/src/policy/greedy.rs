//! The §4.3 counterexample filter: steal from any overloaded core.

use crate::policy::FilterPolicy;
use crate::snapshot::CoreSnapshot;

/// `canSteal(stealee) = stealee.load() >= 2`.
///
/// This is the filter the paper uses to show that a seemingly reasonable
/// policy is **not** work-conserving once concurrency and failures are taken
/// into account: on a three-core machine with loads `[0, 1, 2]`, cores 0 and
/// 1 can both target core 2, core 1 can win every round, and the thread can
/// ping-pong between cores 1 and 2 forever while core 0 stays idle (§4.3).
///
/// The filter is *sound* in the sequential setting (it satisfies Lemma 1),
/// which is exactly why the paper needs the stronger, concurrency-aware
/// properties P1/P2 — `sched-verify` finds the ping-pong automatically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyFilter {
    _private: (),
}

impl GreedyFilter {
    /// Creates the greedy filter.
    pub fn new() -> Self {
        GreedyFilter { _private: () }
    }
}

impl FilterPolicy for GreedyFilter {
    fn can_steal(&self, _thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
        victim.nr_threads >= 2
    }

    fn name(&self) -> &'static str {
        "greedy_filter"
    }

    fn is_event_stable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use crate::CoreId;

    #[test]
    fn any_core_may_target_an_overloaded_victim() {
        let s = SystemSnapshot::capture(&SystemState::from_loads(&[0, 1, 2]));
        let f = GreedyFilter::new();
        // Both the idle core 0 and the busy core 1 want to steal from core 2:
        // this is the root cause of the ping-pong counterexample.
        assert!(f.can_steal(s.core(CoreId(0)), s.core(CoreId(2))));
        assert!(f.can_steal(s.core(CoreId(1)), s.core(CoreId(2))));
        assert!(!f.can_steal(s.core(CoreId(0)), s.core(CoreId(1))));
    }

    #[test]
    fn still_satisfies_lemma1_in_isolation() {
        // The greedy filter is sound sequentially: an idle thief targets a
        // core iff that core is overloaded.
        let s = SystemSnapshot::capture(&SystemState::from_loads(&[0, 1, 2, 5]));
        let f = GreedyFilter::new();
        let thief = s.core(CoreId(0));
        for victim in s.others(CoreId(0)) {
            assert_eq!(f.can_steal(thief, &victim), victim.is_overloaded());
        }
    }
}
