//! The lock-free runqueue backend: a Chase–Lev owner/stealer deque per
//! core, with the steal guard folded into the CAS loop.
//!
//! ## Shape
//!
//! * **Waiting tasks** live in a [`sched_deque`] ring.  The core's owner
//!   operations (wakeup enqueue, `pick_next`, `complete_current`) push and
//!   pop at the *bottom*; thieves claim at the *top* with a CAS and never
//!   take any lock.
//! * **The running task** is a single atomic word ([`DequeRq`] encodes the
//!   task id and niceness into a `u64`): wakeups claim an idle core with a
//!   CAS, completion swaps it out.  Thieves never touch it — the running
//!   task is unstealable *by construction*, where the mutex backend
//!   enforces the same rule by convention inside the lock.
//! * **Published load** is not a separate copy: where [`crate::PerCoreRq`]
//!   re-publishes a consistent snapshot after every locked mutation, the
//!   deque backend's counters (queue length, queued weight, tracked
//!   average) *are* the live atomics, so the owner's hot path has no
//!   publication step at all.
//!
//! ## Where the double-check went
//!
//! The mutex backend re-checks the filter under both runqueue locks
//! (Listing 1, line 12).  Here the same guard runs **inside the CAS
//! loop**: before every claim attempt the thief re-evaluates the filter
//! against the victim's live counters, and a failed CAS (another claim got
//! there first) loops back through the filter before retrying.  The
//! exclusivity argument narrows from "holds both locks" to "wins the CAS":
//! no task can be claimed twice and none is lost (see `sched-verify`'s CAS
//! lemmas and `sched-deque`'s probed race tests).  What is *weaker* than
//! the mutex backend is the freshness of the guard: the filter may become
//! false in the instruction window between its evaluation and the CAS.
//! That window is exactly the staleness the paper's optimism already
//! embraces — shrunk from a lock hold to a single CAS — and it affects
//! only steal *quality* (a marginally late steal), never conservation.
//!
//! ## Owner serialisation
//!
//! A Chase–Lev bottom end has a single owner.  `MultiQueue` exposes
//! `&self` APIs callable from any thread (a wakeup may enqueue onto a
//! remote core), so the owner end sits behind a small mutex that
//! serialises *co-located producers only*: thieves never acquire it, which
//! is the whole point — the owner's enqueue/dequeue path no longer
//! contends with concurrent stealers (E19/E20 measure exactly this).
//!
//! ## Overflow & the shared injector
//!
//! The ring is fixed-capacity, so overflow needs a second home — and where
//! that home is decides whether the backend stays **work-conserving**.
//! The backend originally spilled overflow to an owner-private list that
//! only [`DequeRq::refresh`] drained: those tasks were *counted* by every
//! load observer ([`DequeRq::snapshot`], [`DequeRq::nr_threads_exact`],
//! the balancer's imbalance arithmetic) yet *unstealable* until the next
//! tick — idle cores starved against visibly waiting work, which is
//! exactly the bug class the paper targets.  Worse, the half-visibility
//! self-oscillates: balancing keeps selecting the victim whose load it can
//! see, thieves keep coming back empty-handed, and the failure backoff
//! punishes a victim that genuinely had work to give.
//!
//! Overflow now goes to a **shared MPMC injector**
//! ([`sched_deque::Injector`], one per core): the owner overflows into it,
//! and it is claimable by *anyone* from the instant the push returns.  The
//! owner's [`DequeRq::pick_next`] checks ring first, injector second;
//! thieves check the victim's injector whenever the ring CAS finds it
//! empty — an injector loss ([`Steal::Retry`]) loops back through the
//! filter exactly like a lost ring CAS.  Every counter (`queued`,
//! `queued_weight`, the lightest-weight watermark, the tracked average)
//! includes injector residents, so what balancing *sees* and what thieves
//! *can take* are the same set again.  [`DequeRq::refresh`] performs **no
//! correctness-critical drain**: conservation and convergence hold with
//! no tick at all, because the injector is as stealable as the ring.
//! What the tick still does is *age* overflow — it folds injector
//! residents into the ring's free slots, bounding how long a task that
//! overflowed can wait behind newer ring arrivals on a core whose ring
//! never empties (owner and thieves otherwise consult the injector only
//! on ring-empty).  The old spill needed its drain for reachability; the
//! new one needs it only for fairness.
//!
//! The pre-injector discipline survives behind
//! [`crate::OverflowPolicy::PrivateSpill`] purely as the measurable
//! baseline: experiment E22 reproduces the idle-while-spilled gap against
//! it, and the conservation tests document the hole instead of specifying
//! it.  The running-task claim is untouched by all of this: `current` is
//! still a single CAS-claimed word thieves never read, so "never steal the
//! running thread" holds by construction under either overflow policy.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sched_core::tracker::{LoadTracker, TrackedLoad};
use sched_core::{CoreId, CoreSnapshot, FilterPolicy, Nice, StealOutcome, TaskId};
use sched_deque::{deque, Injector, Steal, StealMany, Stealer, Worker};
use sched_topology::NodeId;
use sched_trace::{TraceEvent, TraceSink};

use crate::backend::RqBackend;
use crate::entity::RqTask;
use crate::overflow::OverflowPolicy;
use crate::steal::StealRecorder;

/// Default ring capacity per core; large enough for every catalogued
/// scenario, small enough to keep a 64-core machine's rings in cache.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Sentinel for "no running task" in the `current` word.
const EMPTY: u64 = 0;

/// Sentinel for "no lightest-weight watermark recorded".
const NO_MARK: u64 = u64::MAX;

/// Packs a task into one atomic word: `(id + 1) << 8 | nice as u8`.
/// Zero is reserved for [`EMPTY`].
fn encode(task: &RqTask) -> u64 {
    let id = task.id.0;
    assert!(id < (1 << 55), "task ids beyond 2^55 - 1 do not fit the packed word");
    ((id + 1) << 8) | u64::from(task.nice.value() as u8)
}

/// Unpacks [`encode`]'s word.  The virtual runtime is not carried — the
/// lock-free backend fixes the queue discipline to the work-stealing
/// LIFO-owner/FIFO-thief order, which never consults vruntime.
fn decode(word: u64) -> RqTask {
    RqTask::with_nice(TaskId((word >> 8) - 1), Nice::new(word as u8 as i8))
}

/// Weight (in [`sched_core::Weight`] raw units) of an encoded word.
fn weight_of(word: u64) -> u64 {
    Nice::new(word as u8 as i8).weight().raw()
}

/// The owner end of the deque, behind the producer-serialising mutex
/// (never taken by thieves).
#[derive(Debug)]
struct OwnerSide {
    worker: Worker,
    /// Legacy owner-private overflow, used **only** under
    /// [`OverflowPolicy::PrivateSpill`] (E22's measurable baseline for the
    /// work-conservation hole); the injector discipline never touches it.
    spill: VecDeque<u64>,
}

/// One core's lock-free runqueue (see the module docs).
#[derive(Debug)]
pub struct DequeRq {
    id: CoreId,
    node: NodeId,
    tracker: Arc<dyn LoadTracker>,
    /// The machine's logical clock (shared with every sibling runqueue).
    clock: Arc<AtomicU64>,
    owner: Mutex<OwnerSide>,
    stealer: Stealer,
    /// Where ring overflow goes (see the module docs); fixed at
    /// construction.
    overflow: OverflowPolicy,
    /// Shared MPMC home for ring overflow under
    /// [`OverflowPolicy::SharedInjector`]: pushed by the owner when the
    /// ring is full, claimed by the owner (ring first, injector second)
    /// and by thieves (whenever the ring CAS finds the ring empty).
    injector: Injector,
    /// Encoded running task, or [`EMPTY`].
    current: AtomicU64,
    /// Number of waiting tasks (ring + spill).
    queued: AtomicU64,
    /// Total weight of the waiting tasks.
    queued_weight: AtomicU64,
    /// Low watermark of waiting-task weights ([`NO_MARK`] = unknown).
    /// Lowered by enqueues, retired (back to unknown) when a departing
    /// task's weight matches it or the queue drains.  This is an advisory
    /// bound, not an exact order statistic: after one of several
    /// equal-weight waiters departs, later enqueues can re-bound the mark
    /// *above* the true minimum.  Over-statement is the safe direction —
    /// a too-large `lightest_ready` makes weighted filters demand a
    /// larger margin (more conservative steals, P2 preserved) — whereas
    /// the dangerous stale-low direction is what retirement eliminates.
    /// The mutex backend remains the exact-values discipline; a lock-free
    /// exact statistic is a ROADMAP item.
    lightest_mark: AtomicU64,
    /// Tracked (decayed) load, scaled — the lock-free twin of
    /// [`TrackedLoad::scaled`].
    tracked_scaled: AtomicU64,
    /// Timestamp of the last tracked fold.
    tracked_ns: AtomicU64,
    /// Single-folder flag: a contended fold is skipped, not waited for
    /// (decayed loads are advisory; the next mutation folds again).
    tracked_busy: AtomicBool,
    /// Trace sink for backend-internal decisions (overflow placement,
    /// injector drains, batch trims).  Disabled by default: every record
    /// site is gated on [`TraceSink::is_enabled`], so the owner's hot path
    /// pays one branch and **zero** atomic operations when not tracing
    /// (pinned by the `write_ops` tier-1 test).
    trace: TraceSink,
}

impl DequeRq {
    /// Creates an empty lock-free runqueue with a custom ring capacity
    /// (rounded up to a power of two) and the work-conserving
    /// shared-injector overflow discipline.
    pub fn with_queue_capacity(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
        capacity: usize,
    ) -> Self {
        Self::with_overflow_policy(id, node, tracker, clock, capacity, OverflowPolicy::default())
    }

    /// Creates an empty lock-free runqueue with an explicit ring capacity
    /// **and** overflow discipline.  [`OverflowPolicy::PrivateSpill`]
    /// exists only as E22's baseline; use the default elsewhere.
    pub fn with_overflow_policy(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
        capacity: usize,
        overflow: OverflowPolicy,
    ) -> Self {
        let (worker, stealer) = deque(capacity);
        DequeRq {
            id,
            node,
            tracker,
            clock,
            owner: Mutex::new(OwnerSide { worker, spill: VecDeque::new() }),
            stealer,
            overflow,
            injector: Injector::new(),
            current: AtomicU64::new(EMPTY),
            queued: AtomicU64::new(0),
            queued_weight: AtomicU64::new(0),
            lightest_mark: AtomicU64::new(NO_MARK),
            tracked_scaled: AtomicU64::new(0),
            tracked_ns: AtomicU64::new(0),
            tracked_busy: AtomicBool::new(false),
            trace: TraceSink::disabled(),
        }
    }

    /// Records `event` on this core's ring at the machine clock's current
    /// time.  One branch (and no clock load) when tracing is disabled.
    fn trace_event(&self, event: &TraceEvent) {
        if self.trace.is_enabled() {
            self.trace.record(self.id, self.clock.load(Ordering::Acquire), event);
        }
    }

    /// The overflow discipline this runqueue was built with.
    pub fn overflow_policy(&self) -> OverflowPolicy {
        self.overflow
    }

    /// Number of tasks currently parked in the shared injector (zero under
    /// the legacy spill discipline).  Exact between operations; callers
    /// that need "is any overflow pending" get a race-free answer the same
    /// way thieves do — by trying to claim.
    pub fn injected_len(&self) -> usize {
        self.injector.len()
    }

    /// Number of waiting tasks a thief could claim right now — ring plus
    /// injector residents, a racy snapshot.  Unlike the counters behind
    /// [`RqBackend::snapshot`], which an enqueue bumps *before* it pushes,
    /// this never counts a task that is not yet claimable.
    pub fn claimable_len(&self) -> usize {
        self.stealer.len() + self.injected_len()
    }

    /// The task currently occupying the core, if any.
    ///
    /// This is the owner-side read the executor's worker loop needs: a
    /// wakeup can seat a task on an idle core directly (the enqueue CAS on
    /// `current`), in which case the owner never saw it go by —
    /// `pick_next` returns `None` precisely *because* the core is busy, and
    /// `complete_current` would reveal the id only by removing the task.
    /// Reading `current` is safe from any thread (it is one atomic load of
    /// a possibly-stale word), but only the owner's read is stable: once
    /// `current` is non-`EMPTY`, the sole transition back to `EMPTY` is
    /// `complete_current`, which the owner alone calls.
    pub fn current_task(&self) -> Option<TaskId> {
        let word = self.current.load(Ordering::Acquire);
        (word != EMPTY).then(|| decode(word).id)
    }

    /// Pops one waiting task at the owner end (ring first, then overflow),
    /// keeping the counters in step.  Caller holds the owner mutex.
    fn pop_queued(&self, owner: &mut OwnerSide) -> Option<u64> {
        let word = owner.worker.pop().or_else(|| self.pop_overflow(owner))?;
        self.retire_queued(word);
        Some(word)
    }

    /// Claims one task from wherever this queue parks overflow.  Under the
    /// injector discipline the owner simply joins the thieves' claim race
    /// (a lost race means someone else got that task — loop for the next);
    /// under the legacy spill it pops the private list.  Caller holds the
    /// owner mutex (which the injector does not require, but every caller
    /// already does).
    fn pop_overflow(&self, owner: &mut OwnerSide) -> Option<u64> {
        match self.overflow {
            OverflowPolicy::SharedInjector => loop {
                match self.injector.steal() {
                    Steal::Stolen(word) => {
                        // Every injector exit is narrated: the trace-derived
                        // injector population (pushes + trim loop-backs −
                        // drains) must match the live resident count.
                        self.trace_event(&TraceEvent::InjectorDrain { moved: 1 });
                        return Some(word);
                    }
                    Steal::Empty => return None,
                    Steal::Retry => {}
                }
            },
            OverflowPolicy::PrivateSpill => owner.spill.pop_front(),
        }
    }

    /// Counter bookkeeping shared by every path that removes a waiting
    /// task (owner pop and thief claim): decrement length and weight, and
    /// retire the lightest-weight watermark when it can no longer be
    /// trusted — the departing task's weight *was* the recorded minimum,
    /// or the queue drained entirely.  `NO_MARK` reads as "unknown"
    /// (snapshot reports `None`) until the next enqueue re-establishes a
    /// bound.  Retirement eliminates the dangerous stale-*low* case (a
    /// departed light task haunting later generations); the residual
    /// imprecision is stale-*high* with equal-weight duplicates, which
    /// only makes weighted filters more conservative (see the field doc).
    fn retire_queued(&self, word: u64) {
        self.queued.fetch_sub(1, Ordering::AcqRel);
        let weight = weight_of(word);
        self.queued_weight.fetch_sub(weight, Ordering::AcqRel);
        if self.queued.load(Ordering::Acquire) == 0 {
            self.lightest_mark.store(NO_MARK, Ordering::Release);
        } else {
            // Ignore the result: if the mark moved concurrently it no
            // longer equals this task's weight and keeps its own story.
            let _ = self.lightest_mark.compare_exchange(
                weight,
                NO_MARK,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// Pushes one task at the owner end (overflowing to the injector when
    /// the ring is full), keeping the counters in step.  Caller holds the
    /// owner mutex.
    ///
    /// The counters — including the lightest-weight watermark — move
    /// *before* the ring/injector placement is decided, so an overflowed
    /// task is counted and watermarked identically to a ring resident.
    /// Under the injector discipline the counted set and the claimable
    /// set therefore agree up to the instruction-scale window of a push
    /// in flight: a thief probing between the counter bump and the
    /// ring/injector placement can see the task counted but not yet
    /// claimable, which costs that thief one failed round — the same
    /// transient as a mid-migration task — and heals on its next attempt.
    /// What the injector eliminates is the *persistent* divergence of the
    /// legacy spill, where counted work stayed unclaimable until the next
    /// tick (which is why that discipline is quarantined to E22).
    fn push_queued(&self, owner: &mut OwnerSide, word: u64) {
        self.queued.fetch_add(1, Ordering::AcqRel);
        self.queued_weight.fetch_add(weight_of(word), Ordering::AcqRel);
        self.lightest_mark.fetch_min(weight_of(word), Ordering::AcqRel);
        if let Err(sched_deque::Full(rejected)) = owner.worker.push(word) {
            match self.overflow {
                OverflowPolicy::SharedInjector => {
                    self.injector.push(rejected);
                    self.trace_event(&TraceEvent::InjectorPush { task: decode(rejected).id });
                }
                OverflowPolicy::PrivateSpill => {
                    owner.spill.push_back(rejected);
                    self.trace_event(&TraceEvent::OverflowSpill { task: decode(rejected).id });
                }
            }
        }
    }

    /// Installs a waiting task as the running one if the core is idle.
    /// Caller holds the owner mutex (so promotions cannot race each
    /// other); the CAS protects against a concurrent wakeup claiming the
    /// core directly.
    fn promote(&self, owner: &mut OwnerSide) -> Option<TaskId> {
        let word = self.pop_queued(owner)?;
        match self.current.compare_exchange(EMPTY, word, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Some(decode(word).id),
            Err(_) => {
                // A wakeup beat us to the core; the task goes back to wait.
                self.push_queued(owner, word);
                None
            }
        }
    }

    /// Folds the instantaneous load into the tracked average at the
    /// clock's current time.  Lock-free: a concurrent fold makes this one
    /// a no-op rather than a wait.
    fn fold_tracked(&self) {
        if self.tracked_busy.swap(true, Ordering::Acquire) {
            return;
        }
        let now = self.clock.load(Ordering::Acquire);
        let inst = match self.tracker.base() {
            sched_core::LoadMetric::Weighted => self.weighted_load(),
            _ => self.nr_threads(),
        };
        let mut state = TrackedLoad {
            scaled: self.tracked_scaled.load(Ordering::Relaxed),
            last_update_ns: self.tracked_ns.load(Ordering::Relaxed),
        };
        self.tracker.update(&mut state, now, inst);
        self.tracked_scaled.store(state.scaled, Ordering::Release);
        self.tracked_ns.store(state.last_update_ns, Ordering::Relaxed);
        self.tracked_busy.store(false, Ordering::Release);
    }

    fn nr_threads(&self) -> u64 {
        self.queued.load(Ordering::Acquire)
            + u64::from(self.current.load(Ordering::Acquire) != EMPTY)
    }

    fn weighted_load(&self) -> u64 {
        let current = self.current.load(Ordering::Acquire);
        let current_weight = if current == EMPTY { 0 } else { weight_of(current) };
        self.queued_weight.load(Ordering::Acquire) + current_weight
    }

    /// One *batch* claim at the victim — ring first (a multi-claim CAS that
    /// moves `top` by up to `want` in one acquisition), injector second (a
    /// [`Injector::steal_batch`] that serves the whole decision under **one
    /// lock round-trip** instead of one per element) — with the filter
    /// re-checked against live state **inside the loop**: every retry (a
    /// lost batch CAS that fell back to the single path and lost again)
    /// re-evaluates the guard before the next attempt, so a claim never
    /// commits on a condition older than its own race.
    ///
    /// The injector check runs exactly when the ring claim finds the ring
    /// empty: a victim whose waiting work has overflowed is *still* a
    /// victim, and the work-conservation argument needs thieves to reach
    /// that work without waiting for any owner-side drain.  `steal_batch`
    /// absorbs lost injector races internally (its `0` is a genuine empty,
    /// pinned claim-free by the injector's own tests), so the failure this
    /// returns only reaches the balancer when nothing was claimable at all.
    fn claim_checked_many(
        &self,
        thief: &DequeRq,
        filter: &dyn FilterPolicy,
        want: usize,
    ) -> Result<Vec<u64>, StealOutcome> {
        let want = want.max(1);
        loop {
            let thief_snap = thief.snapshot();
            let victim_snap = self.snapshot();
            if !filter.can_steal(&thief_snap, &victim_snap) {
                return Err(StealOutcome::RecheckFailed { victim: self.id });
            }
            match self.stealer.steal_many(want) {
                StealMany::Stolen(words) => {
                    for &word in &words {
                        self.retire_queued(word);
                    }
                    self.fold_tracked();
                    return Ok(words);
                }
                StealMany::Empty => match self.overflow {
                    // Ring empty is not queue empty: overflow lives in the
                    // shared injector, claimable right now — and claimed as
                    // a batch, one lock acquisition per steal decision.
                    OverflowPolicy::SharedInjector => {
                        let mut words = Vec::new();
                        let claimed = self.injector.steal_batch(want, |word| words.push(word));
                        if claimed == 0 {
                            return Err(StealOutcome::NothingToSteal { victim: self.id });
                        }
                        // Narrated on the victim's ring like every other
                        // injector exit, so a trace-derived resident count
                        // stays exact under thief batch claims.
                        self.trace_event(&TraceEvent::InjectorDrain { moved: claimed as u64 });
                        for &word in &words {
                            self.retire_queued(word);
                        }
                        self.fold_tracked();
                        return Ok(words);
                    }
                    OverflowPolicy::PrivateSpill => {
                        return Err(StealOutcome::NothingToSteal { victim: self.id });
                    }
                },
                // Lost the claim race: loop back through the filter — the
                // double-check guard, now in the loop.
                StealMany::Retry => {}
            }
        }
    }

    /// Returns a claimed-but-undelivered word to this (victim) queue's
    /// stealable set — the batch path's "loser" loop-back.  The word is
    /// re-counted exactly like an enqueue and parked in the shared
    /// injector, where the owner and any claimant reach it without the
    /// owner mutex (which thieves never take, by design).
    fn requeue_overflow(&self, word: u64) {
        self.queued.fetch_add(1, Ordering::AcqRel);
        self.queued_weight.fetch_add(weight_of(word), Ordering::AcqRel);
        self.lightest_mark.fetch_min(weight_of(word), Ordering::AcqRel);
        self.injector.push(word);
        self.fold_tracked();
    }
}

impl RqBackend for DequeRq {
    fn with_tracker(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
    ) -> Self {
        Self::with_queue_capacity(id, node, tracker, clock, DEFAULT_QUEUE_CAPACITY)
    }

    fn backend_name() -> &'static str {
        "deque"
    }

    fn id(&self) -> CoreId {
        self.id
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn tracker(&self) -> &Arc<dyn LoadTracker> {
        &self.tracker
    }

    fn snapshot(&self) -> CoreSnapshot {
        let queued = self.queued.load(Ordering::Acquire);
        let lightest = if queued == 0 {
            None
        } else {
            match self.lightest_mark.load(Ordering::Acquire) {
                NO_MARK => None,
                mark => Some(mark),
            }
        };
        CoreSnapshot {
            id: self.id,
            node: self.node,
            nr_threads: self.nr_threads(),
            weighted_load: self.weighted_load(),
            lightest_ready_weight: lightest,
            tracked_scaled: self.tracked_scaled.load(Ordering::Acquire),
            injected: self.injected_len() as u64,
        }
    }

    fn enqueue(&self, task: RqTask) {
        let word = encode(&task);
        // An idle core is claimed directly — the common wakeup fast path
        // is one CAS, no lock, no publication step.
        if self.current.compare_exchange(EMPTY, word, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            self.fold_tracked();
            return;
        }
        let mut owner = self.owner.lock();
        // Re-try under the owner mutex: the running task may have completed
        // between the failed CAS and the lock acquisition.
        if self.current.compare_exchange(EMPTY, word, Ordering::AcqRel, Ordering::Acquire).is_err()
        {
            self.push_queued(&mut owner, word);
        }
        drop(owner);
        self.fold_tracked();
    }

    fn pick_next(&self) -> Option<TaskId> {
        if self.current.load(Ordering::Acquire) != EMPTY {
            return None;
        }
        let mut owner = self.owner.lock();
        let picked = self.promote(&mut owner);
        drop(owner);
        if picked.is_some() {
            self.fold_tracked();
        }
        picked
    }

    fn complete_current(&self) -> Option<RqTask> {
        let mut owner = self.owner.lock();
        let prev = self.current.swap(EMPTY, Ordering::AcqRel);
        let _ = self.promote(&mut owner);
        drop(owner);
        self.fold_tracked();
        (prev != EMPTY).then(|| decode(prev))
    }

    fn nr_threads_exact(&self) -> u64 {
        // Exact when quiescent; under concurrency a task mid-migration
        // (claimed from this victim, not yet delivered to its thief) is
        // momentarily attributed to neither side.  Injector residents are
        // included — and, under the injector discipline, everything
        // included is also stealable, so the count balancing acts on and
        // the set thieves can claim from are the same.
        self.nr_threads()
    }

    fn refresh(&self) {
        match self.overflow {
            OverflowPolicy::PrivateSpill => {
                // The legacy discipline's correctness-critical drain:
                // spilled tasks are unstealable until they re-enter the
                // ring, so the tick is the only thing standing between an
                // overflow and a starved idle core.  This — the bug E22
                // measures — is the whole reason the spill path is
                // quarantined.
                let mut owner = self.owner.lock();
                let mut moved = 0u64;
                while let Some(&front) = owner.spill.front() {
                    match owner.worker.push(front) {
                        Ok(()) => {
                            owner.spill.pop_front();
                            moved += 1;
                        }
                        Err(_) => break,
                    }
                }
                drop(owner);
                if moved > 0 {
                    self.trace_event(&TraceEvent::InjectorDrain { moved });
                }
            }
            OverflowPolicy::SharedInjector => {
                // The *fairness* drain — deliberately not correctness-
                // critical: injector residents are stealable the whole
                // time, and every conservation property holds with no
                // tick at all (the storm tests converge without one).
                // What the drain restores is the tick-scale *aging* bound
                // the old spill had: owner and thieves otherwise reach
                // the injector only when the ring is empty, so on a core
                // whose ring never drains (steady arrivals, no admitted
                // steals) an overflowed task's wait would be unbounded.
                // Folding residents into the ring's free slots once per
                // tick bounds that wait; the instruction-scale window in
                // which a moving word is reachable by neither structure
                // is the same transient as a push in flight.
                let mut owner = self.owner.lock();
                let mut moved = 0u64;
                while owner.worker.len() < owner.worker.capacity() {
                    match self.injector.steal() {
                        Steal::Stolen(word) => {
                            if let Err(sched_deque::Full(rejected)) = owner.worker.push(word) {
                                // Unreachable while the owner mutex is
                                // held (thieves only shrink the ring),
                                // but if it ever fired the word must go
                                // back where it is stealable.
                                self.injector.push(rejected);
                                break;
                            }
                            moved += 1;
                        }
                        Steal::Empty => break,
                        Steal::Retry => {}
                    }
                }
                drop(owner);
                if moved > 0 {
                    self.trace_event(&TraceEvent::InjectorDrain { moved });
                }
            }
        }
        self.fold_tracked();
    }

    fn try_steal_recorded(
        thief: &Self,
        victim: &Self,
        filter: &dyn FilterPolicy,
        max_tasks: usize,
        recorder: Option<StealRecorder<'_>>,
    ) -> StealOutcome {
        assert_ne!(thief.id(), victim.id(), "a core cannot steal from itself");
        let want = max_tasks.max(1);
        let mut moved = Vec::new();
        let mut failure = None;
        let mut trimmed = false;
        while moved.len() < want && !trimmed {
            match victim.claim_checked_many(thief, filter, want - moved.len()) {
                Ok(words) => {
                    let total = words.len();
                    let mut words = words.into_iter();
                    let mut delivered = 0u64;
                    // Whether losers have a stealable home to loop back to
                    // is fixed at construction — hoisted out of the
                    // per-word loop.
                    let loop_back = victim.overflow == OverflowPolicy::SharedInjector;
                    while let Some(word) = words.next() {
                        // The first claim is always delivered — the filter
                        // approved it at claim time.  After that, each task
                        // gets a re-check against *live* counters before it
                        // moves: stop once delivering one more would leave
                        // the thief more loaded than the victim would be
                        // with the rest returned — the batch must never
                        // *invert* the imbalance it was sized against (the
                        // P2 direction), however stale the sizing snapshot
                        // was.  Only the two thread counters are consulted
                        // (the inversion test needs nothing else); building
                        // full snapshots here would pay several atomic
                        // loads plus an injector-length walk per delivered
                        // word.  Undelivered claims are losers, looped back
                        // to the victim's injector where they are stealable
                        // by anyone again.  The legacy spill discipline has
                        // no stealable home a thief may reach, so it
                        // delivers the whole batch (it is E22's quarantined
                        // baseline either way).
                        let undelivered = total as u64 - delivered;
                        if delivered > 0
                            && loop_back
                            && thief.nr_threads() + 1 > victim.nr_threads() + undelivered - 1
                        {
                            let mut returned = 1u64;
                            victim.requeue_overflow(word);
                            for loser in words.by_ref() {
                                victim.requeue_overflow(loser);
                                returned += 1;
                            }
                            // The trim is the victim's story: its tasks
                            // came back, on its ring.
                            victim.trace_event(&TraceEvent::BatchTrim { returned });
                            trimmed = true;
                            break;
                        }
                        let task = decode(word);
                        moved.push(task.id);
                        // Deliver to the thief's own queue: an owner-side
                        // push (the thief owns its bottom end), never a
                        // lock shared with other thieves.
                        thief.enqueue(task);
                        delivered += 1;
                    }
                }
                Err(outcome) => {
                    failure = Some(outcome);
                    break;
                }
            }
        }
        let outcome = if moved.is_empty() {
            failure.unwrap_or(StealOutcome::NothingToSteal { victim: victim.id() })
        } else {
            StealOutcome::Stole { victim: victim.id(), tasks: moved }
        };
        // The CAS claim is the linearization point; the counters move
        // right after it, before the outcome is returned to the balancer.
        if let Some(rec) = recorder {
            rec.record_attempt(&outcome, want);
        }
        outcome
    }

    fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::policy::DeltaFilter;
    use sched_core::tracker::NrThreadsTracker;

    fn rq(id: usize) -> DequeRq {
        DequeRq::with_tracker(
            CoreId(id),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            Arc::new(AtomicU64::new(0)),
        )
    }

    #[test]
    fn encode_decode_round_trips_id_and_nice() {
        for (id, nice) in [(0u64, 0i8), (1, -20), (42, 19), ((1 << 55) - 2, 5)] {
            let task = RqTask::with_nice(TaskId(id), Nice::new(nice));
            let decoded = decode(encode(&task));
            assert_eq!(decoded.id, task.id);
            assert_eq!(decoded.nice, task.nice);
            assert_eq!(decoded.weight(), task.weight());
        }
        assert_ne!(encode(&RqTask::new(TaskId(0))), EMPTY, "id 0 must not collide with EMPTY");
    }

    #[test]
    fn enqueue_runs_immediately_on_an_idle_core() {
        let q = rq(0);
        assert!(q.snapshot().is_idle());
        q.enqueue(RqTask::new(TaskId(1)));
        let snap = q.snapshot();
        assert_eq!(snap.nr_threads, 1);
        assert!(!snap.is_overloaded());
        assert_eq!(q.complete_current().unwrap().id, TaskId(1));
        assert!(q.snapshot().is_idle());
    }

    #[test]
    fn snapshot_counts_weights_like_the_mutex_backend() {
        let q = rq(0);
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::with_nice(TaskId(2), Nice::new(19)));
        let snap = q.snapshot();
        assert_eq!(snap.nr_threads, 2);
        assert_eq!(snap.weighted_load, 1024 + 15);
        assert_eq!(snap.lightest_ready_weight, Some(15));
        assert!(snap.is_overloaded());
    }

    #[test]
    fn the_lightest_watermark_retires_when_its_task_departs() {
        // The recorded minimum leaving — by steal or by owner pop — must
        // not haunt later queue generations: the mark drops back to
        // "unknown" (snapshot None) until the next enqueue re-bounds it.
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0))); // becomes current
        victim.enqueue(RqTask::new(TaskId(1))); // weight 1024, queued first
        victim.enqueue(RqTask::with_nice(TaskId(2), Nice::new(19))); // weight 15
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(15));
        // The thief claims from the top of the deque: the *oldest* waiter
        // (1024) first, which is not the minimum — the mark survives.
        let thief = rq(0);
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        assert!(DequeRq::try_steal_recorded(&thief, &victim, &filter, 1, None).is_success());
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(15));
        // The second claim takes the recorded minimum itself: unknown now.
        assert!(DequeRq::try_steal_recorded(&thief, &victim, &filter, 1, None).is_success());
        assert_eq!(victim.snapshot().lightest_ready_weight, None, "queue empty");
        // A fresh generation of heavy tasks must not inherit the old 15.
        victim.enqueue(RqTask::new(TaskId(3)));
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(1024));
    }

    #[test]
    fn complete_current_elects_a_successor() {
        let q = rq(0);
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::new(TaskId(2)));
        let done = q.complete_current().unwrap();
        assert_eq!(done.id, TaskId(1));
        assert_eq!(q.snapshot().nr_threads, 1);
        assert!(q.complete_current().is_some());
        assert!(q.complete_current().is_none());
        assert!(q.snapshot().is_idle());
    }

    #[test]
    fn steal_claims_exclusively_and_delivers_to_the_thief() {
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..3 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let outcome =
            DequeRq::try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 1, None);
        assert!(outcome.is_success());
        assert_eq!(thief.snapshot().nr_threads, 1);
        assert_eq!(victim.snapshot().nr_threads, 2);
    }

    #[test]
    fn recheck_fails_when_the_victim_is_not_worth_stealing_from() {
        let thief = rq(0);
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0)));
        let outcome =
            DequeRq::try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 1, None);
        assert_eq!(outcome, StealOutcome::RecheckFailed { victim: CoreId(1) });
        assert_eq!(victim.snapshot().nr_threads, 1);
    }

    #[test]
    fn the_running_task_is_unstealable_by_construction() {
        let thief = rq(0);
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0)));
        victim.enqueue(RqTask::new(TaskId(1)));
        let outcome =
            DequeRq::try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 8, None);
        match outcome {
            StealOutcome::Stole { tasks, .. } => assert_eq!(tasks, vec![TaskId(1)]),
            other => panic!("expected a steal, got {other:?}"),
        }
        assert_eq!(victim.complete_current().unwrap().id, TaskId(0));
    }

    #[test]
    fn batch_steal_trims_to_the_balanced_split_and_loops_losers_back() {
        // A greedy batch (ask for everything) against a victim with 1
        // running + 5 waiting: the multi-claim CAS takes the whole ring,
        // but the per-task non-inversion re-check delivers only up to the
        // balanced split and loops the losers back to the victim's
        // injector — where they are immediately stealable again.
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..6 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let filter = DeltaFilter::listing1();
        let outcome = DequeRq::try_steal_recorded(&thief, &victim, &filter, 8, None);
        match outcome {
            StealOutcome::Stole { ref tasks, .. } => {
                assert_eq!(tasks.len(), 3, "delivery stops at the balanced split")
            }
            ref other => panic!("expected a batch steal, got {other:?}"),
        }
        assert_eq!(thief.nr_threads_exact(), 3);
        assert_eq!(victim.nr_threads_exact(), 3, "losers are the victim's again");
        assert_eq!(victim.injected_len(), 2, "looped back through the injector");
        assert_eq!(victim.snapshot().injected, 2, "…and visible to injector-aware choices");
        // Nothing lost, nothing duplicated, and the loop-backed tasks are
        // claimable without any refresh.
        let mut drained = Vec::new();
        while let Some(task) = victim.complete_current() {
            drained.push(task.id);
        }
        assert_eq!(drained.len(), 3);
        assert_eq!(victim.injected_len(), 0);
    }

    #[test]
    fn overflow_goes_to_the_injector_and_is_stealable_immediately() {
        // The work-conservation contract for overflow: a task the ring had
        // no room for is claimable by thieves from the instant the enqueue
        // returns — no refresh, no owner assistance.  (The old contract,
        // "the spill is invisible to thieves until a refresh", is the bug
        // this backend used to have; `OverflowPolicy::PrivateSpill` keeps
        // it reproducible as E22's baseline.)
        let clock = Arc::new(AtomicU64::new(0));
        let q = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        // 1 running + 4 in the ring + 3 in the injector.
        for i in 0..8 {
            q.enqueue(RqTask::new(TaskId(i)));
        }
        assert_eq!(q.nr_threads_exact(), 8, "overflowed tasks are still counted");
        assert_eq!(q.injected_len(), 3, "the ring held 4; the rest overflowed");
        // Every waiting task — ring or injector — is stealable right now.
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        let thieves: Vec<DequeRq> = (1..=7).map(rq).collect();
        for thief in thieves.iter().take(7) {
            assert!(
                DequeRq::try_steal_recorded(thief, &q, &filter, 1, None).is_success(),
                "no waiting task may hide from thieves, wherever it is parked"
            );
        }
        assert_eq!(q.injected_len(), 0);
        assert_eq!(q.nr_threads_exact(), 1, "only the (unstealable) running task remains");
        let resident: u64 = thieves.iter().map(DequeRq::nr_threads_exact).sum();
        assert_eq!(q.nr_threads_exact() + resident, 8, "nothing lost");
    }

    #[test]
    fn the_owner_picks_injected_tasks_when_the_ring_drains() {
        // Owner-side visibility of overflow: with no thief in sight, the
        // owner alone must run every task — ring first (LIFO), then the
        // injector — without any refresh.
        let clock = Arc::new(AtomicU64::new(0));
        let q = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        for i in 0..9 {
            q.enqueue(RqTask::new(TaskId(i)));
        }
        let mut completed = Vec::new();
        while let Some(task) = q.complete_current() {
            completed.push(task.id.0);
        }
        completed.sort_unstable();
        assert_eq!(completed, (0..9).collect::<Vec<_>>(), "every task ran exactly once");
        assert!(q.snapshot().is_idle());
        assert_eq!(q.injected_len(), 0);
    }

    #[test]
    fn the_watermark_covers_injector_residents() {
        // Satellite of the injector change: the lightest-weight watermark
        // must describe the *stealable* set.  A light task that overflows
        // into the injector is stealable, so it must bound the mark — and
        // the bound must retire when the light task departs.
        let clock = Arc::new(AtomicU64::new(0));
        let victim = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        // 1 running + 4 heavy in the ring, then a light task that can only
        // land in the injector.
        for i in 0..5 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        victim.enqueue(RqTask::with_nice(TaskId(5), Nice::new(19)));
        assert_eq!(victim.injected_len(), 1);
        assert_eq!(
            victim.snapshot().lightest_ready_weight,
            Some(15),
            "the injected light task bounds the watermark"
        );
        // Drain the ring (4 heavy steals, a fresh idle thief each): the
        // light task is still there, so the mark must survive…
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        let thieves: Vec<DequeRq> = (1..=5).map(rq).collect();
        for thief in thieves.iter().take(4) {
            assert!(DequeRq::try_steal_recorded(thief, &victim, &filter, 1, None).is_success());
        }
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(15));
        // …and the fifth steal claims it from the injector, retiring the
        // mark (queue empty -> unknown).
        assert!(DequeRq::try_steal_recorded(&thieves[4], &victim, &filter, 1, None).is_success());
        assert_eq!(victim.snapshot().lightest_ready_weight, None);
        assert_eq!(victim.injected_len(), 0);
    }

    #[test]
    fn the_tick_ages_injector_residents_into_the_ring() {
        // The fairness half of the overflow contract: on a core whose
        // ring never empties (steady arrivals, no admitted steals), an
        // overflowed task must not wait unboundedly behind newer ring
        // arrivals — each tick folds injector residents into the ring's
        // free slots, so the wait is tick-bounded even though reachability
        // never depended on it.
        let clock = Arc::new(AtomicU64::new(0));
        let q = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        for i in 0..8 {
            q.enqueue(RqTask::new(TaskId(i)));
        }
        assert_eq!(q.injected_len(), 3);
        // One completion per period: the ring never empties (the promote
        // refills `current` from the ring, which stays at three or more),
        // so without the tick's drain the injected three would sit
        // forever behind newer ring arrivals.  Each tick must move one
        // into the slot the completion freed.
        for tick in 0u64..3 {
            assert!(q.complete_current().is_some());
            q.refresh();
            assert_eq!(
                q.injected_len() as u64,
                2 - tick,
                "each tick must age one resident into the ring"
            );
        }
        assert_eq!(q.injected_len(), 0, "the overflow wait is tick-bounded");
        assert_eq!(q.nr_threads_exact(), 5, "8 started, 3 completed; aging loses nothing");
    }

    #[test]
    fn legacy_private_spill_reproduces_the_conservation_hole() {
        // The old discipline, preserved as E22's measurable baseline: the
        // spill is counted but unstealable until a refresh.  This test
        // *documents the bug* — it is what the shared injector fixes.
        let clock = Arc::new(AtomicU64::new(0));
        let q = DequeRq::with_overflow_policy(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
            crate::OverflowPolicy::PrivateSpill,
        );
        for i in 0..8 {
            q.enqueue(RqTask::new(TaskId(i)));
        }
        assert_eq!(q.nr_threads_exact(), 8, "the spill is visible to load observers…");
        assert_eq!(q.injected_len(), 0, "nothing reaches the injector in spill mode");
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        let thieves: Vec<DequeRq> = (1..=6).map(rq).collect();
        for thief in thieves.iter().take(4) {
            assert!(DequeRq::try_steal_recorded(thief, &q, &filter, 1, None).is_success());
        }
        assert_eq!(
            DequeRq::try_steal_recorded(&thieves[4], &q, &filter, 1, None),
            StealOutcome::NothingToSteal { victim: CoreId(0) },
            "…but unstealable: an idle core starves against visibly waiting work"
        );
        q.refresh();
        assert!(
            DequeRq::try_steal_recorded(&thieves[5], &q, &filter, 1, None).is_success(),
            "only the tick's drain re-exposes the stranded work"
        );
        let resident: u64 = thieves.iter().map(DequeRq::nr_threads_exact).sum();
        assert_eq!(q.nr_threads_exact() + resident, 8, "the hole delays work; it never loses it");
    }

    #[test]
    #[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
    fn stress_injector_overflow_races_high_iteration() {
        // Overflow storms under real contention: a tiny ring forces every
        // burst through the injector while thieves and the owner race.
        // Conservation must hold exactly, storm after storm.
        let filter = DeltaFilter::listing1();
        for round in 0..200 {
            let clock = Arc::new(AtomicU64::new(0));
            let victim = Arc::new(DequeRq::with_queue_capacity(
                CoreId(0),
                NodeId(0),
                Arc::new(NrThreadsTracker),
                clock,
                4,
            ));
            let thieves: Vec<Arc<DequeRq>> = (1..=4).map(|i| Arc::new(rq(i))).collect();
            for i in 0..64 {
                victim.enqueue(RqTask::new(TaskId(i)));
            }
            let completed = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                {
                    let victim = Arc::clone(&victim);
                    let completed = &completed;
                    scope.spawn(move || {
                        for _ in 0..24 {
                            if victim.complete_current().is_some() {
                                completed.fetch_add(1, Ordering::AcqRel);
                            }
                            std::hint::spin_loop();
                        }
                    });
                }
                for thief in &thieves {
                    let victim = Arc::clone(&victim);
                    let thief = Arc::clone(thief);
                    let filter = &filter;
                    scope.spawn(move || {
                        for _ in 0..8 {
                            let _ = DequeRq::try_steal_recorded(&thief, &victim, filter, 1, None);
                        }
                    });
                }
            });
            let resident: u64 = thieves.iter().map(|t| t.nr_threads_exact()).sum();
            assert_eq!(
                completed.load(Ordering::Acquire) + victim.nr_threads_exact() + resident,
                64,
                "round {round}: completions, residents and migrants must cover every task"
            );
        }
    }

    #[test]
    fn owner_and_thief_race_on_the_queue_conserves_tasks() {
        let victim = Arc::new(rq(1));
        let thief = Arc::new(rq(0));
        for i in 0..64 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let filter = DeltaFilter::listing1();
        std::thread::scope(|scope| {
            let consumer = {
                let victim = Arc::clone(&victim);
                scope.spawn(move || {
                    let mut completed = 0u64;
                    for _ in 0..32 {
                        if victim.complete_current().is_some() {
                            completed += 1;
                        }
                        std::thread::yield_now();
                    }
                    completed
                })
            };
            for _ in 0..16 {
                let _ = DequeRq::try_steal_recorded(&thief, &victim, &filter, 1, None);
            }
            let completed = consumer.join().unwrap();
            assert_eq!(
                completed + victim.nr_threads_exact() + thief.nr_threads_exact(),
                64,
                "completions, residents and migrants must account for every task"
            );
        });
    }
}
