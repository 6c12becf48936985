//! Exhaustive small-scope exploration of the executor's park protocol.
//!
//! `sched-exec` workers block with no timer, so nothing but the idle
//! protocol itself stands between a submitted task and a worker sleeping
//! beside it forever.  This module models that protocol as atomic steps
//! and explores **every** interleaving of a few workers and producers, the
//! way [`crate::interleave`] enumerates balancing rounds:
//!
//! * a **producer** submits one task to a core of its choosing (every
//!   choice is explored): enqueue (seated on the core if it is empty,
//!   queued behind its current task otherwise) → read the idle stack's
//!   length, stopping at zero → pop the target core's worker → failing
//!   that, if nobody is searching, pop any registered worker → unpark the
//!   popped worker;
//! * a **worker** loops: run its own core → `searching += 1` → steal one
//!   waiting task from a core the filter admits → `searching -= 1` → if
//!   it stole, pass the wakeup on (below) and run it; otherwise register
//!   on the idle stack → re-check → block until a token arrives →
//!   deregister, passing the wakeup on if the re-check found work.
//!   Passing on means: if a worker is parked and the first idle core's
//!   view admits a steal, pop the top of the stack and unpark it.  A task
//!   a worker runs may finish (the worker loops) or run forever — tasks
//!   are arbitrarily long.
//!
//! The filter is the paper's delta filter: a waiting task behind a load
//! at least two above the thief's.  It reads loads alone, so every idle
//! thief gets the same verdict, and an idle thief's verdict turns to
//! "yes" only on an enqueue — what `sched-exec` requires of a policy
//! (`FilterPolicy::is_event_stable`).  The module's tests also run a
//! node-restricted variant (cores 0 and 1 on one node, core 2 on
//! another), which answers differently per thief: there the producer's
//! skip while a worker is searching trusts a thief that cannot reach the
//! task, and work is stranded.  A filter over decayed loads cannot be
//! modelled by steps at all — its verdict moves with time alone — and
//! nothing short of a timer re-evaluates it, which is why the executor
//! refuses both kinds.
//!
//! Each step is atomic and the interleaving is sequentially consistent —
//! what the protocol's `SeqCst` fences provide for the accesses that
//! matter.  An enqueue is one step here; in the executor a task counts
//! for another worker's re-check only once it is claimable, which keeps
//! that abstraction faithful.  Two violations are searched for, each reported as the
//! shortest interleaving reaching it:
//!
//! * **stranded work** — every producer is done, every worker is either
//!   running a task or blocked without a token, and some blocked worker
//!   could run or steal a waiting task.  From there only a running task
//!   finishing can move anything, and it may never finish: the blocked
//!   worker idles beside the waiting task for good (when every worker is
//!   blocked, the task is simply lost);
//! * **double registration** — a worker registers while already on the
//!   stack (the `"worker parked twice"` assertion in `sched-exec`).
//!
//! [`ParkProtocol::DEKKER`] — the protocol `sched-exec` runs — has
//! neither at 2 workers × 1–2 producers and at 3 workers × 2 producers.
//! [`ParkProtocol::LEGACY`] — an own-queue re-check, a token read as
//! "a producer popped me", and no park timer — has both.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use crate::Counterexample;

/// The protocol variant to explore: [`ParkProtocol::DEKKER`], the one
/// `sched-exec` runs, or [`ParkProtocol::LEGACY`], the one before it.
/// Each ingredient is a flag, so the module's tests can show each
/// load-bearing on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkProtocol {
    /// The pre-park re-check reads every core (anything the filter would
    /// let this worker steal), not only its own queue.
    pub(crate) recheck_all_cores: bool,
    /// The worker deregisters itself after every wake; otherwise it takes
    /// a token to mean "a producer popped me", and after a re-check that
    /// found work it withdraws, consuming a token if the withdrawal finds
    /// it already popped.
    pub(crate) deregister_after_wake: bool,
    /// A worker that ends its search by committing to work — the last
    /// searcher out after a successful steal, or any worker whose pre-park
    /// re-check found work — wakes one parked worker if an idle thief
    /// could steal something.
    pub(crate) pass_on_wakeup: bool,
}

impl ParkProtocol {
    /// The protocol `sched-exec` runs.
    pub const DEKKER: ParkProtocol =
        ParkProtocol { recheck_all_cores: true, deregister_after_wake: true, pass_on_wakeup: true };

    /// The protocol before it, with its 2 ms park timer removed.
    pub const LEGACY: ParkProtocol = ParkProtocol {
        recheck_all_cores: false,
        deregister_after_wake: false,
        pass_on_wakeup: false,
    };
}

/// The size of one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkScope {
    /// Worker threads, one per core.
    pub workers: usize,
    /// Producer threads, each submitting one task.
    pub producers: usize,
}

/// What one exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ParkReport {
    /// Distinct states reached.
    pub states: usize,
    /// Shortest interleaving that strands a task beside a blocked worker.
    pub stranded: Option<Counterexample>,
    /// Shortest interleaving that registers a worker twice.
    pub double_registration: Option<Counterexample>,
}

impl ParkReport {
    /// `true` when neither violation is reachable.
    pub fn holds(&self) -> bool {
        self.stranded.is_none() && self.double_registration.is_none()
    }
}

/// The steal filter of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filter {
    /// A waiting task behind a load at least two above the thief's.
    Delta,
    /// [`Filter::Delta`] within the thief's node only: cores 0 and 1 form
    /// one node, core 2 another.  Only the tests explore it.
    #[cfg(test)]
    SameNode,
}

/// Where a worker is in its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    Run,
    Running,
    Search,
    Steal,
    Unsearch { stole: bool },
    PassOnCheck,
    PassOnScan,
    PassOnPop,
    PassOnUnpark(u8),
    Register,
    Recheck,
    Block,
    Deregister { found: bool },
    Withdraw,
    EatToken,
}

/// Where a producer is in its submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Producer {
    Enqueue,
    CheckEmpty(u8),
    PopSpecific(u8),
    CheckSearching,
    PopAny,
    Unpark(u8),
    Done,
}

const MAX_WORKERS: usize = 3;
const MAX_PRODUCERS: usize = 2;

/// One global state.  Fixed-size and `Copy`, so exploring a transition
/// costs no allocation; slots beyond the scope never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    workers: [Worker; MAX_WORKERS],
    producers: [Producer; MAX_PRODUCERS],
    /// Per core: a task seated (running, or about to run) on it.
    current: [bool; MAX_WORKERS],
    /// Per core: tasks queued behind `current`.
    queued: [u8; MAX_WORKERS],
    /// The idle stack's members, one bit per worker.  Which one an
    /// undirected pop takes is left open — every registered worker is
    /// explored — which covers last-parked-first-woken and any other
    /// order.
    registered: u8,
    tokens: [bool; MAX_WORKERS],
    searching: u8,
}

impl State {
    fn load(&self, core: usize) -> u8 {
        u8::from(self.current[core]) + self.queued[core]
    }

    fn is_registered(&self, worker: usize) -> bool {
        self.registered & (1 << worker) != 0
    }

    fn unregister(&mut self, worker: usize) -> bool {
        let was = self.is_registered(worker);
        self.registered &= !(1 << worker);
        was
    }
}

/// One transition, for counterexample traces.
#[derive(Debug, Clone, Copy)]
struct Step {
    producer: bool,
    actor: u8,
    what: &'static str,
    core: Option<u8>,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.producer { "producer" } else { "worker" };
        write!(f, "{kind} {}: {}", self.actor, self.what)?;
        if let Some(core) = self.core {
            write!(f, " {core}")?;
        }
        Ok(())
    }
}

/// The scope, protocol and filter under exploration.
struct Model {
    protocol: ParkProtocol,
    filter: Filter,
    workers: usize,
    producers: usize,
}

impl Model {
    /// Cores `thief` may steal from in `s`: the filter admits them and a
    /// task waits there.
    fn victims<'a>(&self, s: &'a State, thief: usize) -> impl Iterator<Item = usize> + 'a {
        let floor = s.load(thief) + 2;
        let same_node = move |v: usize| (v >= 2) == (thief >= 2);
        let filter = self.filter;
        (0..self.workers).filter(move |&v| {
            v != thief
                && s.queued[v] > 0
                && s.load(v) >= floor
                && (filter == Filter::Delta || same_node(v))
        })
    }

    /// Every producer is done and every worker is running or blocked
    /// without a token — only a running task finishing can move — yet a
    /// blocked worker could run a task seated or queued on its own core,
    /// or steal one.
    fn stranded(&self, s: &State) -> bool {
        let blocked = |w: usize| s.workers[w] == Worker::Block;
        let quiescent = s.producers[..self.producers].iter().all(|&p| p == Producer::Done)
            && (0..self.workers)
                .all(|w| s.workers[w] == Worker::Running || (blocked(w) && !s.tokens[w]));
        quiescent
            && (0..self.workers)
                .filter(|&w| blocked(w))
                .any(|w| s.current[w] || s.queued[w] > 0 || self.victims(s, w).next().is_some())
    }

    /// One successor of `s` per registered worker an undirected pop could
    /// take (or one, popping nothing, when none is); `then` moves the
    /// popping thread on and labels the step.
    fn pop_any(
        &self,
        s: &State,
        out: &mut Vec<(State, Step, bool)>,
        then: impl Fn(&mut State, Option<u8>) -> Step,
    ) {
        if s.registered == 0 {
            let mut next = *s;
            let step = then(&mut next, None);
            out.push((next, step, false));
        }
        for worker in (0..self.workers).filter(|&w| s.is_registered(w)) {
            let mut next = *s;
            next.unregister(worker);
            let step = then(&mut next, Some(worker as u8));
            out.push((next, step, false));
        }
    }

    /// Every transition out of `s`, flagging the ones that register a
    /// worker twice.
    fn successors(&self, s: &State, out: &mut Vec<(State, Step, bool)>) {
        let protocol = self.protocol;
        out.clear();
        for w in 0..self.workers {
            let step = |what: &'static str, core: Option<usize>| Step {
                producer: false,
                actor: w as u8,
                what,
                core: core.map(|c| c as u8),
            };
            let mut next = *s;
            let mut twice = false;
            let label = match s.workers[w] {
                Worker::Run if s.current[w] => {
                    next.workers[w] = Worker::Running;
                    step("runs its seated task", None)
                }
                Worker::Run if s.queued[w] > 0 => {
                    next.queued[w] -= 1;
                    next.current[w] = true;
                    next.workers[w] = Worker::Running;
                    step("runs a task from its own queue", None)
                }
                Worker::Run => {
                    next.workers[w] = Worker::Search;
                    step("finds its own core empty", None)
                }
                Worker::Running => {
                    next.current[w] = false;
                    next.workers[w] = Worker::Run;
                    step("finishes its task", None)
                }
                Worker::Search => {
                    next.searching += 1;
                    next.workers[w] = Worker::Steal;
                    step("starts searching", None)
                }
                Worker::Steal => {
                    let victims: Vec<usize> = self.victims(s, w).collect();
                    for &v in &victims {
                        let mut stolen = *s;
                        stolen.queued[v] -= 1;
                        if stolen.current[w] {
                            stolen.queued[w] += 1;
                        } else {
                            stolen.current[w] = true;
                        }
                        stolen.workers[w] = Worker::Unsearch { stole: true };
                        out.push((stolen, step("steals a task from core", Some(v)), false));
                    }
                    if !victims.is_empty() {
                        continue;
                    }
                    next.workers[w] = Worker::Unsearch { stole: false };
                    step("finds nothing to steal", None)
                }
                Worker::Unsearch { stole } => {
                    next.searching -= 1;
                    next.workers[w] = match stole {
                        true if protocol.pass_on_wakeup && next.searching == 0 => {
                            Worker::PassOnCheck
                        }
                        true => Worker::Run,
                        false => Worker::Register,
                    };
                    step("stops searching", None)
                }
                Worker::PassOnCheck => {
                    next.workers[w] =
                        if s.registered == 0 { Worker::Run } else { Worker::PassOnScan };
                    step("reads the idle stack's length", None)
                }
                Worker::PassOnScan => {
                    let idle = (0..self.workers).find(|&c| s.load(c) == 0);
                    let waiting = idle.is_some_and(|i| self.victims(s, i).next().is_some());
                    next.workers[w] = if waiting { Worker::PassOnPop } else { Worker::Run };
                    step("scans for work an idle thief could steal", None)
                }
                Worker::PassOnPop => {
                    self.pop_any(s, out, |state, popped| {
                        state.workers[w] = popped.map_or(Worker::Run, Worker::PassOnUnpark);
                        step("pops the idle stack", popped.map(usize::from))
                    });
                    continue;
                }
                Worker::PassOnUnpark(target) => {
                    next.tokens[usize::from(target)] = true;
                    next.workers[w] = Worker::Run;
                    step("unparks worker", Some(usize::from(target)))
                }
                Worker::Register => {
                    twice = s.is_registered(w);
                    next.registered |= 1 << w;
                    next.workers[w] = Worker::Recheck;
                    step("registers on the idle stack", None)
                }
                Worker::Recheck => {
                    let own = s.current[w] || s.queued[w] > 0;
                    let found =
                        own || (protocol.recheck_all_cores && self.victims(s, w).next().is_some());
                    next.workers[w] = match (found, protocol.deregister_after_wake) {
                        (false, _) => Worker::Block,
                        (true, true) => Worker::Deregister { found: true },
                        (true, false) => Worker::Withdraw,
                    };
                    step(
                        if found {
                            "re-checks and finds work"
                        } else {
                            "re-checks and finds nothing"
                        },
                        None,
                    )
                }
                Worker::Block if s.tokens[w] => {
                    next.tokens[w] = false;
                    next.workers[w] = if protocol.deregister_after_wake {
                        Worker::Deregister { found: false }
                    } else {
                        Worker::Run
                    };
                    step("wakes on its token", None)
                }
                Worker::Block => continue,
                Worker::Deregister { found } => {
                    next.unregister(w);
                    next.workers[w] = if found && protocol.pass_on_wakeup {
                        Worker::PassOnCheck
                    } else {
                        Worker::Run
                    };
                    step("deregisters", None)
                }
                Worker::Withdraw => {
                    next.workers[w] =
                        if next.unregister(w) { Worker::Run } else { Worker::EatToken };
                    step("withdraws its registration", None)
                }
                Worker::EatToken => {
                    next.tokens[w] = false;
                    next.workers[w] = Worker::Run;
                    step("consumes its token, if any", None)
                }
            };
            out.push((next, label, twice));
        }
        for p in 0..self.producers {
            let step = |what: &'static str, core: Option<usize>| Step {
                producer: true,
                actor: p as u8,
                what,
                core: core.map(|c| c as u8),
            };
            let mut next = *s;
            let label = match s.producers[p] {
                Producer::Enqueue => {
                    for target in 0..self.workers {
                        let mut placed = *s;
                        if placed.current[target] {
                            placed.queued[target] += 1;
                        } else {
                            placed.current[target] = true;
                        }
                        placed.producers[p] = Producer::CheckEmpty(target as u8);
                        out.push((placed, step("enqueues a task on core", Some(target)), false));
                    }
                    continue;
                }
                Producer::CheckEmpty(target) => {
                    next.producers[p] = if s.registered == 0 {
                        Producer::Done
                    } else {
                        Producer::PopSpecific(target)
                    };
                    step("reads the idle stack's length", None)
                }
                Producer::PopSpecific(target) => {
                    next.producers[p] = if next.unregister(usize::from(target)) {
                        Producer::Unpark(target)
                    } else {
                        Producer::CheckSearching
                    };
                    step("tries to pop the worker of core", Some(usize::from(target)))
                }
                Producer::CheckSearching => {
                    next.producers[p] =
                        if s.searching > 0 { Producer::Done } else { Producer::PopAny };
                    step("reads the searching count", None)
                }
                Producer::PopAny => {
                    self.pop_any(s, out, |state, popped| {
                        state.producers[p] = popped.map_or(Producer::Done, Producer::Unpark);
                        step("pops the idle stack", popped.map(usize::from))
                    });
                    continue;
                }
                Producer::Unpark(target) => {
                    next.tokens[usize::from(target)] = true;
                    next.producers[p] = Producer::Done;
                    step("unparks worker", Some(usize::from(target)))
                }
                Producer::Done => continue,
            };
            out.push((next, label, false));
        }
    }
}

/// Explores every interleaving of `protocol` within `scope`, breadth
/// first, and reports the shortest trace to each violation.
///
/// # Panics
///
/// Panics if the scope exceeds 3 workers or 2 producers — beyond that the
/// state space stops being a quick exhaustive check.
pub fn check_park_protocol(protocol: ParkProtocol, scope: ParkScope) -> ParkReport {
    explore(protocol, Filter::Delta, scope, false)
}

/// [`check_park_protocol`] under `filter`; with `stop_at_stranded` the
/// search ends at the first stranded state (its `states` then counts only
/// what was reached before it).
fn explore(
    protocol: ParkProtocol,
    filter: Filter,
    scope: ParkScope,
    stop_at_stranded: bool,
) -> ParkReport {
    let ParkScope { workers, producers } = scope;
    assert!(
        workers <= MAX_WORKERS && producers <= MAX_PRODUCERS,
        "park exploration is limited to 3 workers × 2 producers"
    );
    let model = Model { protocol, filter, workers, producers };
    let initial = State {
        workers: [Worker::Run; MAX_WORKERS],
        producers: [Producer::Enqueue; MAX_PRODUCERS],
        current: [false; MAX_WORKERS],
        queued: [0; MAX_WORKERS],
        registered: 0,
        tokens: [false; MAX_WORKERS],
        searching: 0,
    };
    let mut seen = HashSet::from([initial]);
    // Per state id: the state it was first reached from, and how.
    let mut parents: Vec<Option<(usize, Step)>> = vec![None];
    let mut frontier = VecDeque::from([(initial, 0usize)]);
    let mut report = ParkReport { states: 1, stranded: None, double_registration: None };
    let trace = |parents: &[Option<(usize, Step)>], mut id: usize, last: Option<Step>| {
        let mut steps: Vec<String> = last.iter().map(Step::to_string).collect();
        while let Some((parent, step)) = parents[id] {
            steps.push(step.to_string());
            id = parent;
        }
        steps.reverse();
        steps
    };
    let counterexample = |summary: &str, steps: Vec<String>| Counterexample {
        summary: format!("{summary} ({workers} workers, {producers} producers)"),
        initial_loads: vec![0; workers],
        trace: steps,
    };
    let mut next_states = Vec::new();
    while let Some((state, id)) = frontier.pop_front() {
        if report.stranded.is_none() && model.stranded(&state) {
            report.stranded = Some(counterexample(
                "a task waits beside a blocked worker",
                trace(&parents, id, None),
            ));
            if stop_at_stranded {
                break;
            }
        }
        model.successors(&state, &mut next_states);
        for (next, step, twice) in next_states.drain(..) {
            if twice {
                // Recorded, not explored further: a duplicate entry would
                // make the stack unbounded.
                if report.double_registration.is_none() {
                    report.double_registration = Some(counterexample(
                        "a worker registers on the idle stack twice",
                        trace(&parents, id, Some(step)),
                    ));
                }
                continue;
            }
            if seen.insert(next) {
                let next_id = parents.len();
                parents.push(Some((id, step)));
                frontier.push_back((next, next_id));
            }
        }
    }
    report.states = seen.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(workers: usize, producers: usize) -> ParkScope {
        ParkScope { workers, producers }
    }

    #[test]
    fn the_executors_protocol_never_strands_work() {
        for producers in 1..=2 {
            let report = check_park_protocol(ParkProtocol::DEKKER, scope(2, producers));
            assert!(report.states > 100, "the exploration is not trivial");
            assert!(report.holds(), "{:?}", report);
        }
    }

    #[test]
    fn the_legacy_protocol_strands_work_without_its_timer() {
        let report = check_park_protocol(ParkProtocol::LEGACY, scope(2, 2));
        let stranded = report.stranded.expect("an own-queue re-check misses a skipped wakeup");
        let text = stranded.render();
        assert!(text.contains("re-checks and finds nothing"), "{text}");
        let twice = report.double_registration.expect("a late token leaves the worker registered");
        assert!(twice.render().contains("wakes on its token"), "{twice}");
        assert!(twice.trace.last().unwrap().contains("registers on the idle stack"));
    }

    #[test]
    fn each_ingredient_is_load_bearing() {
        let own_queue_only = ParkProtocol { recheck_all_cores: false, ..ParkProtocol::DEKKER };
        let report = check_park_protocol(own_queue_only, scope(2, 2));
        assert!(report.stranded.is_some(), "the all-core re-check makes the searching skip safe");

        let token_means_popped =
            ParkProtocol { deregister_after_wake: false, ..ParkProtocol::DEKKER };
        let report = check_park_protocol(token_means_popped, scope(2, 1));
        assert!(report.double_registration.is_some(), "a late token must not skip deregistration");

        let no_pass_on = ParkProtocol { pass_on_wakeup: false, ..ParkProtocol::DEKKER };
        let report = check_park_protocol(no_pass_on, scope(2, 2));
        assert!(report.stranded.is_some(), "a re-check that found work must pass a wakeup on");
    }

    /// A third worker is what passing a wakeup on after a *steal* is for:
    /// with two, the thief's victim is busy and nobody else is left to
    /// wake.  Seconds in release, so it runs with the nightly-strength
    /// legs.
    #[test]
    #[ignore]
    fn the_executors_protocol_holds_for_three_workers() {
        let report = check_park_protocol(ParkProtocol::DEKKER, scope(3, 2));
        assert!(report.holds(), "{report:?}");
        let no_pass_on = ParkProtocol { pass_on_wakeup: false, ..ParkProtocol::DEKKER };
        let report = check_park_protocol(no_pass_on, scope(3, 2));
        assert!(report.stranded.is_some(), "a thief that stole must pass a skipped wakeup on");
    }

    /// A filter that answers differently per thief breaks the skip the
    /// producer takes while a worker is searching: the searcher it trusts
    /// may be on the other node.  Why the executor refuses such filters.
    #[test]
    fn a_thief_dependent_filter_strands_work() {
        let report = explore(ParkProtocol::DEKKER, Filter::SameNode, scope(3, 2), true);
        let stranded = report.stranded.expect("the searcher cannot reach the task");
        let text = stranded.render();
        assert!(text.contains("reads the searching count"), "{text}");
        assert!(text.contains("worker 2: finds nothing to steal"), "{text}");
    }

    #[test]
    #[should_panic(expected = "limited to 3 workers")]
    fn oversized_scopes_are_refused() {
        let _ = check_park_protocol(ParkProtocol::DEKKER, scope(4, 1));
    }
}
