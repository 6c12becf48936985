//! The work-stealing executor: OS threads over the verified runqueues.
//!
//! Everything below this crate schedules *abstract task words*; this module
//! finally makes them real.  An [`Executor`] spawns one OS worker thread
//! per CPU of a [`MachineTopology`], each owning a lock-free
//! [`DequeRq`] (Chase–Lev ring plus the shared overflow injector), and runs
//! submitted jobs through exactly the machinery the rest of the repository
//! verifies: wakeup placement via [`sched_core::ChoicePolicy::place_wakeup`],
//! batched CAS stealing via [`DequeRq::try_steal_recorded`] with the same
//! [`StealRecorder`] program point the `stats == fold(trace)` parity proofs
//! rely on, and per-decision tracing through [`sched_trace`].
//!
//! # The worker loop
//!
//! ```text
//!          ┌────────────────────────────────────────────────┐
//!          ▼                                                │
//!   run own core ──empty──▶ steal (searching++) ──stole──▶──┤
//!   (current/ring/                  │                       │
//!    injector)                   nothing                    │
//!          ▲                        ▼                       │
//!          │            register on idle stack, fence       │
//!          │                        │                       │
//!          │             re-check every reachable           │
//!          │             core ──────────────work──▶─────────┤
//!          │                        │                       │
//!          │                      empty                     │
//!          │                        ▼                       │
//!          │               park (untimed)                   │
//!          │                        │ token                 │
//!          │                        ▼                       │
//!          └────────────────── deregister ◀─────────────────┘
//! ```
//!
//! # Parking protocol
//!
//! Idle workers park on a per-worker token [`Parker`] and register on a
//! shared [`IdleStack`] (last parked, first woken).  The two halves form a
//! Dekker pair, each side writing, fencing (`SeqCst`), then reading:
//!
//! * the **worker** registers, fences, and re-checks every source it could
//!   reach — its own core, ring and injector, and every other core that
//!   passes the policy's filter (the candidate list
//!   `Shared::balance_once` builds, from the same lock-less snapshots)
//!   and holds a claimable task — and blocks only if all were empty;
//! * the **producer** enqueues, fences, and wakes the *specific* worker
//!   whose runqueue just received the task if it is registered; otherwise,
//!   if no worker is currently searching (the global `searching` counter),
//!   it pops one registered worker to go steal.  A thief whose batch steal
//!   loops undelivered claims back into the victim's injector has
//!   enqueued too, and notifies the same way.
//!
//! Whichever fence is second sees the other side's write, so a task is
//! either found by the re-check or its producer finds the worker
//! registered: no wakeup is lost, and workers block with **no timer**.
//! Skipping the undirected wakeup while `searching > 0` is what bounds
//! wakeup storms, and the all-core re-check is what makes that skip safe:
//! a searcher the producer counted on either steals, or fails, registers
//! and re-checks after the producer's fence — and sees the task.  A
//! worker that ends its search by committing to work (the last searcher
//! out after a steal, or a re-check that found work) wakes one more
//! worker when work is still waiting elsewhere, so a skipped wakeup is
//! passed on rather than dropped.  The worker deregisters itself after
//! every wake, so a producer's pop and the worker's own view of its
//! registration cannot disagree; a token that lands after the worker
//! already found work costs one extra pass of the loop.  Every
//! interleaving of this protocol is explored for small scopes by
//! `sched_verify::park`.
//!
//! The argument needs the filter's verdict to be the same for every idle
//! thief and to turn from "no" to "yes" only when a task is enqueued: the
//! searcher a producer counts on must see what a parked worker would, and
//! nothing re-evaluates the filter between enqueues.  That is
//! [`sched_core::FilterPolicy::is_event_stable`], and [`Executor::start`]
//! refuses a policy whose filter is not — a filter over decayed loads
//! turns with time alone, and a node-restricted one lets the searching
//! skip trust a thief that cannot reach the task (the park model's
//! counterexample).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sched_core::{CoreId, CoreSnapshot, Policy, StealOutcome, TaskId};
use sched_metrics::Histogram;
use sched_rq::steal::StealRecorder;
use sched_rq::{BalanceStats, DequeRq, RqBackend, RqTask, StealBatch};
use sched_topology::MachineTopology;
use sched_trace::{TraceEvent, TraceSink};

use crate::parker::{IdleStack, Parker};

/// Number of job-table shards; a power of two so the modulo is a mask.
const JOB_SHARDS: usize = 16;

/// How the executor is built: machine shape, policy, and knobs.
#[derive(Debug)]
pub struct ExecConfig {
    /// One worker (and one runqueue) per CPU of this machine.
    pub topo: Arc<MachineTopology>,
    /// The balancing policy: its filter/choice drive stealing, its
    /// [`sched_core::ChoicePolicy::place_wakeup`] drives submission placement, and its
    /// tracker maintains the loads both read.  Its filter must be
    /// event-stable ([`sched_core::FilterPolicy::is_event_stable`]): workers
    /// park with no timer and re-evaluate the filter only when a task is
    /// enqueued, so [`Executor::start`] refuses any other.
    pub policy: Policy,
    /// Claim size of one steal decision.
    pub batch: StealBatch,
    /// Capacity of each worker's ring (overflow spills to the shared
    /// injector, so this bounds memory, not admission).
    pub ring_capacity: usize,
    /// Decision trace sink; keep a clone to drain it after shutdown.
    pub trace: TraceSink,
}

impl ExecConfig {
    /// A configuration with the default ring capacity, one-task steals and
    /// no tracing.
    pub fn new(topo: Arc<MachineTopology>, policy: Policy) -> Self {
        ExecConfig {
            topo,
            policy,
            batch: StealBatch::One,
            ring_capacity: 1024,
            trace: TraceSink::disabled(),
        }
    }

    /// Sets the steal batch size.
    pub fn with_batch(mut self, batch: StealBatch) -> Self {
        self.batch = batch;
        self
    }

    /// Attaches a decision trace sink.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the per-worker ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

/// What one submitted task actually does when a worker runs it.
enum Job {
    /// Run a closure (the `spawn` API); it returns `true` if the user
    /// function panicked (the panic itself is caught and handed to the
    /// joiner).
    Closure(Box<dyn FnOnce() -> bool + Send + 'static>),
    /// Spin for a sampled service time and record the end-to-end latency
    /// since submission (the open-loop benchmark API).
    Request {
        /// Nanoseconds of CPU to burn.
        service_ns: u64,
        /// Submission time, nanoseconds since the executor started.
        submitted_ns: u64,
    },
}

/// The id → job side table.  Runqueues carry task *words* (id, nice); the
/// payload rides here, inserted before the enqueue so a worker that claims
/// the id always finds it.
struct JobTable {
    shards: Vec<Mutex<HashMap<u64, Job>>>,
}

impl JobTable {
    fn new() -> Self {
        JobTable { shards: (0..JOB_SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn insert(&self, id: u64, job: Job) {
        let mut shard = self.shards[id as usize % JOB_SHARDS].lock().expect("job shard poisoned");
        shard.insert(id, job);
    }

    fn take(&self, id: u64) -> Option<Job> {
        let mut shard = self.shards[id as usize % JOB_SHARDS].lock().expect("job shard poisoned");
        shard.remove(&id)
    }
}

/// One spawned job's result slot (see [`Executor::spawn`]).
struct JoinCell<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

struct Slot<T> {
    /// The closure's return value, or the payload of its panic.
    result: Option<std::thread::Result<T>>,
    /// A joiner is blocked on `done`: completion signals the condvar only
    /// then, so a result nobody is waiting for costs no futex call.
    waiting: bool,
}

impl<T> JoinCell<T> {
    fn new() -> Self {
        JoinCell { slot: Mutex::new(Slot { result: None, waiting: false }), done: Condvar::new() }
    }

    fn complete(&self, result: std::thread::Result<T>) {
        let mut slot = self.slot.lock().expect("join cell poisoned");
        slot.result = Some(result);
        let waiting = slot.waiting;
        drop(slot);
        if waiting {
            self.done.notify_one();
        }
    }
}

/// Waits for one spawned closure's result.  Its `Debug` form names the
/// task word the closure rides on — its id in the decision trace.
pub struct JoinHandle<T> {
    cell: Arc<JoinCell<T>>,
    task: TaskId,
}

impl<T> JoinHandle<T> {
    /// Blocks until the job has run and returns its result.  If the
    /// closure panicked, the panic resumes here, in the joiner.
    pub fn join(self) -> T {
        let mut slot = self.cell.slot.lock().expect("join cell poisoned");
        loop {
            match slot.result.take() {
                Some(Ok(out)) => return out,
                Some(Err(payload)) => {
                    drop(slot);
                    panic::resume_unwind(payload)
                }
                None => {
                    slot.waiting = true;
                    slot = self.cell.done.wait(slot).expect("join cell poisoned");
                }
            }
        }
    }

    /// `true` once the job has completed or panicked (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.cell.slot.lock().expect("join cell poisoned").result.is_some()
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("task", &self.task)
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Everything the worker threads share.
struct Shared {
    cores: Vec<DequeRq>,
    policy: Policy,
    batch: StealBatch,
    topo: Arc<MachineTopology>,
    /// Logical machine clock in nanoseconds since `start`; workers and
    /// producers advance it with `fetch_max` so it never goes backwards.
    clock: Arc<AtomicU64>,
    start: Instant,
    stats: BalanceStats,
    trace: TraceSink,
    jobs: JobTable,
    parkers: Vec<Parker>,
    idle: IdleStack,
    /// Workers currently in their stealing phase; producers skip the
    /// undirected wakeup while this is nonzero (storm bound).
    searching: AtomicUsize,
    /// Jobs submitted and not yet completed.
    pending: AtomicU64,
    shutdown: AtomicBool,
    next_task: AtomicU64,
    /// Round-robin previous-core hint for submissions from outside the
    /// executor (a fresh request has no meaningful "previous core").
    rr: AtomicUsize,
    /// Per-worker latency histograms merge here as workers exit.
    latency: Mutex<Histogram>,
    completed: AtomicU64,
    /// Jobs whose closure panicked (contained; see [`Executor::spawn`]).
    panicked: AtomicU64,
}

/// Where a worker stands in its park protocol, reported to the probe the
/// protocol is driven with (a no-op in production; tests use it to pin one
/// interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParkPoint {
    /// Registered on the idle stack and fenced; the re-check is next.
    Registered,
    /// The re-check is done; `found` says whether it saw work (or exit).
    Rechecked { found: bool },
}

impl Shared {
    /// Builds the runqueues and the shared state; spawns nothing.
    fn new(config: ExecConfig) -> Self {
        let ExecConfig { topo, policy, batch, ring_capacity, trace } = config;
        assert!(
            policy.filter.is_event_stable(),
            "the executor needs an event-stable filter, and `{}` is not: its verdict can change \
             with no enqueue to wake a parked worker",
            policy.filter.name()
        );
        let clock = Arc::new(AtomicU64::new(0));
        let cores: Vec<DequeRq> = topo
            .cpus()
            .iter()
            .map(|c| {
                let mut rq = DequeRq::with_queue_capacity(
                    c.id,
                    c.node,
                    Arc::clone(&policy.tracker),
                    Arc::clone(&clock),
                    ring_capacity,
                );
                rq.attach_trace(trace.clone());
                rq
            })
            .collect();
        let nr_workers = cores.len();
        Shared {
            cores,
            policy,
            batch,
            topo,
            clock,
            start: Instant::now(),
            stats: BalanceStats::new(),
            trace,
            jobs: JobTable::new(),
            parkers: (0..nr_workers).map(|_| Parker::new()).collect(),
            idle: IdleStack::new(),
            searching: AtomicUsize::new(0),
            pending: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            next_task: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            latency: Mutex::new(Histogram::new()),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        }
    }

    fn now_wall_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Advances the logical clock to wall time and publishes it to the
    /// trace, so events across workers are stamped on one timeline.
    fn advance_clock(&self) -> u64 {
        let now = self.now_wall_ns();
        self.clock.fetch_max(now, Ordering::AcqRel);
        self.trace.set_now(now);
        now
    }

    fn now_ns(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    fn should_exit(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0
    }

    /// Fills `scratch` with lock-less snapshots of every core, in id order
    /// (reusing its allocation).
    fn snapshot_into(&self, scratch: &mut Vec<CoreSnapshot>) {
        scratch.clear();
        scratch.extend(self.cores.iter().map(DequeRq::snapshot));
    }

    /// The producer half of the park protocol: wakes whoever should handle
    /// a task just enqueued on `target` — the target's own worker if it is
    /// registered, else, when nobody is already out stealing, the most
    /// recently parked worker to go steal.
    fn notify(&self, target: usize) {
        // Pairs with the worker's fence between registering and
        // re-checking: one of the two sides sees the other's write.
        fence(Ordering::SeqCst);
        if self.idle.is_empty() {
            return;
        }
        if self.idle.pop_specific(target) {
            self.parkers[target].unpark();
        } else if self.searching.load(Ordering::SeqCst) == 0 {
            self.wake_one();
        }
    }

    /// Pops the most recently parked worker, if any, and unparks it.
    fn wake_one(&self) {
        if let Some(worker) = self.idle.pop_any() {
            self.parkers[worker].unpark();
        }
    }

    /// `true` if worker `me` has anything it could run or steal: a task
    /// seated on its core or claimable from its ring or injector, or a
    /// steal [`Self::stealable`] admits.  The worker's pre-park re-check.
    fn work_reachable(&self, me: usize, scratch: &mut Vec<CoreSnapshot>) -> bool {
        if self.cores[me].current_task().is_some() || self.claimable(CoreId(me)) {
            return true;
        }
        self.snapshot_into(scratch);
        self.stealable(&scratch[me], scratch)
    }

    /// `true` if `thief` could steal from one of the other cores in
    /// `snapshots`: the policy's filter admits it — the candidate list
    /// [`Self::balance_once`] builds — and it holds a claimable task.
    fn stealable(&self, thief: &CoreSnapshot, snapshots: &[CoreSnapshot]) -> bool {
        snapshots.iter().any(|s| {
            s.id != thief.id && self.policy.filter.can_steal(thief, s) && self.claimable(s.id)
        })
    }

    /// `true` if `core` holds a task a thief could claim right now.  The
    /// snapshot counters count a task from the moment its enqueue starts,
    /// so a producer preempted mid-enqueue would otherwise make the
    /// re-check find work no steal can take — and the worker spin until
    /// the producer runs again.  The producer pushes before its fence, so
    /// the Dekker pairing holds for the claimable view too.
    fn claimable(&self, core: CoreId) -> bool {
        self.cores[core.0].claimable_len() > 0
    }

    /// Called by a worker that ends its search by committing to work — the
    /// last searcher out after a successful steal, or a worker whose
    /// pre-park re-check found work: if a worker is parked and an idle
    /// thief could steal something, wake one.  A producer that skipped its
    /// wakeup because this worker was searching (or registered) relied on
    /// it; the worker takes one task, so it passes the wakeup on.  Every
    /// idle thief gets the same verdict (the filter is event-stable), so
    /// any idle core's view stands for the parked workers'.
    fn pass_on_wakeup(&self, scratch: &mut Vec<CoreSnapshot>) {
        fence(Ordering::SeqCst);
        if self.idle.is_empty() {
            return;
        }
        self.snapshot_into(scratch);
        if let Some(idle) = scratch.iter().find(|s| s.is_idle()) {
            if self.stealable(idle, scratch) {
                self.wake_one();
            }
        }
    }

    /// One three-step balancing operation for `thief` — the same
    /// selection/steal split as `MultiQueue::balance_once_batched`, with
    /// the outcome counted and traced through the shared [`StealRecorder`]
    /// program point (which is what keeps `stats == fold(trace)` exact for
    /// this substrate too).  `scratch` is the worker's reusable snapshot
    /// buffer, so a round allocates nothing.
    fn balance_once(&self, thief: CoreId, scratch: &mut Vec<CoreSnapshot>) -> StealOutcome {
        self.snapshot_into(scratch);
        let thief_snap = scratch[thief.0];
        scratch.retain(|s| s.id != thief && self.policy.filter.can_steal(&thief_snap, s));
        let Some(victim) = self.policy.choice.choose(&thief_snap, scratch) else {
            self.stats.record(&StealOutcome::NoCandidates);
            if self.trace.is_enabled() {
                self.trace.record(
                    thief,
                    self.now_ns(),
                    &TraceEvent::steal_attempt(&StealOutcome::NoCandidates, None, 1),
                );
            }
            return StealOutcome::NoCandidates;
        };
        let victim_snap = scratch.iter().find(|s| s.id == victim).expect("choice membership");
        let max_tasks = self.batch.size(&self.policy, &thief_snap, victim_snap);
        let level = self.topo.steal_level(thief, victim);
        let outcome = DequeRq::try_steal_recorded(
            &self.cores[thief.0],
            &self.cores[victim.0],
            self.policy.filter.as_ref(),
            max_tasks,
            Some(StealRecorder::new(&self.stats, Some(level)).with_trace(
                &self.trace,
                thief,
                self.now_ns(),
            )),
        );
        self.policy.choice.observe(thief, victim, outcome.is_success());
        outcome
    }

    /// Runs one claimed task to completion on worker `me`.
    fn execute(&self, task: TaskId, me: usize, latency: &mut Histogram) {
        match self.jobs.take(task.0) {
            Some(Job::Closure(f)) => {
                if f() {
                    self.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(Job::Request { service_ns, submitted_ns }) => {
                spin_for(service_ns);
                let e2e_ns = self.now_wall_ns().saturating_sub(submitted_ns);
                latency.record(e2e_ns / 1_000);
            }
            // Jobs are inserted before their id is enqueued, so a claimed
            // id always resolves; tolerate (and count) a miss anyway
            // rather than poisoning the worker.
            None => debug_assert!(false, "task {task:?} has no job"),
        }
        if self.trace.is_enabled() {
            self.trace.record(CoreId(me), self.now_ns(), &TraceEvent::TaskDone { task });
        }
        let removed = self.cores[me].complete_current();
        debug_assert_eq!(removed.as_ref().map(|t| t.id), Some(task));
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 && self.shutdown.load(Ordering::SeqCst)
        {
            // Last job out during shutdown: wake everyone so they observe
            // `should_exit` and leave.
            for worker in self.idle.drain() {
                self.parkers[worker].unpark();
            }
        }
    }

    /// The body of one worker thread.
    fn worker_loop(&self, me: usize) {
        let rq = &self.cores[me];
        let mut latency = Histogram::new();
        // Snapshot buffer shared by stealing rounds and pre-park
        // re-checks; allocated on first use, on the worker's own thread.
        let mut scratch = Vec::new();
        loop {
            self.advance_clock();
            rq.refresh();
            // Run everything reachable from the own core: the seated task
            // (a wakeup may have claimed the idle core directly), then
            // ring and injector via `pick_next`.
            while let Some(task) = rq.current_task().or_else(|| rq.pick_next()) {
                self.execute(task, me, &mut latency);
                self.advance_clock();
            }
            // Own sources empty: go stealing.
            if self.steal_round(CoreId(me), &mut scratch) {
                continue;
            }
            if self.should_exit() {
                break;
            }
            self.park(me, &mut scratch, |_| {});
        }
        self.latency.lock().expect("latency histogram poisoned").merge(&latency);
    }

    /// One stealing attempt by `thief`.  The `searching` counter is up
    /// only around the attempt — producers seeing it nonzero trust this
    /// thief to find their work.  Returns `true` if it stole.
    fn steal_round(&self, thief: CoreId, scratch: &mut Vec<CoreSnapshot>) -> bool {
        self.searching.fetch_add(1, Ordering::SeqCst);
        let outcome = self.balance_once(thief, scratch);
        let last_searcher = self.searching.fetch_sub(1, Ordering::SeqCst) == 1;
        let StealOutcome::Stole { victim, .. } = outcome else {
            return false;
        };
        // A batch steal loops the claims it does not deliver back into the
        // victim's injector: an enqueue, whose producer half is this
        // thief's.
        if self.cores[victim.0].injected_len() > 0 {
            self.notify(victim.0);
        }
        if last_searcher {
            self.pass_on_wakeup(scratch);
        }
        true
    }

    /// The worker half of the park protocol: register → fence → re-check
    /// every reachable source → block untimed if all were empty →
    /// deregister.  `probe` observes the protocol's steps.
    fn park(&self, me: usize, scratch: &mut Vec<CoreSnapshot>, mut probe: impl FnMut(ParkPoint)) {
        self.idle.push(me);
        // Pairs with the producer's fence in `notify`.
        fence(Ordering::SeqCst);
        probe(ParkPoint::Registered);
        let found = self.work_reachable(me, scratch) || self.should_exit();
        probe(ParkPoint::Rechecked { found });
        if !found {
            self.trace.record(CoreId(me), self.now_ns(), &TraceEvent::Park);
            self.parkers[me].park();
            self.advance_clock();
            self.trace.record(CoreId(me), self.now_ns(), &TraceEvent::Unpark);
        }
        // Deregister whoever woke us; a no-op when a producer popped us.
        self.idle.remove(me);
        if found {
            self.pass_on_wakeup(scratch);
        }
    }
}

/// Burns roughly `ns` nanoseconds of CPU (the "service" of a benchmark
/// request).  Spinning, not sleeping: a request occupies its core exactly
/// the way real work would, which is what makes the measured queueing
/// delays honest.
fn spin_for(ns: u64) {
    let end = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Everything a finished run measured, returned by [`Executor::shutdown`].
#[derive(Debug)]
pub struct ExecReport {
    /// End-to-end request latency (submission → completion), microseconds.
    pub latency_us: Histogram,
    /// Jobs completed over the executor's lifetime (panicked ones
    /// included).
    pub completed: u64,
    /// Spawned closures that panicked; each panic was contained and
    /// resumed in its joiner.
    pub panicked: u64,
    /// The balancing counters of the run (steals, failures, migrations,
    /// per-level attribution) — fold the drained trace to reproduce them.
    pub stats: BalanceStats,
}

/// The work-stealing executor (see the module docs).
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Builds the runqueues and spawns one worker thread per CPU of the
    /// configured topology.
    ///
    /// # Panics
    ///
    /// Panics if the policy's filter is not event-stable (see
    /// [`ExecConfig::policy`]).
    pub fn start(config: ExecConfig) -> Self {
        let shared = Arc::new(Shared::new(config));
        let workers = (0..shared.cores.len())
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sched-exec-{me}"))
                    .spawn(move || shared.worker_loop(me))
                    .expect("spawning a worker thread")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Number of worker threads (= CPUs of the configured topology).
    pub fn nr_workers(&self) -> usize {
        self.shared.cores.len()
    }

    /// Submits a closure and returns a handle to its result.
    ///
    /// The closure becomes a task word on a real runqueue: it is placed by
    /// the policy's [`sched_core::ChoicePolicy::place_wakeup`], may be stolen between
    /// cores before it runs, and executes on whichever worker claims it.
    /// A panic in the closure is contained: the worker survives, the job
    /// counts as completed (and in [`ExecReport::panicked`]), and
    /// [`JoinHandle::join`] resumes the panic in the joiner.
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let cell = Arc::new(JoinCell::new());
        let out = Arc::clone(&cell);
        let task = self.submit_job(Job::Closure(Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            let panicked = result.is_err();
            out.complete(result);
            panicked
        })));
        JoinHandle { cell, task }
    }

    /// Submits one open-loop benchmark request costing `service_ns` of
    /// CPU; its end-to-end latency (now → completion) lands in the
    /// report's histogram.
    pub fn submit_request(&self, service_ns: u64) {
        let submitted_ns = self.shared.now_wall_ns();
        self.submit_job(Job::Request { service_ns, submitted_ns });
    }

    fn submit_job(&self, job: Job) -> TaskId {
        let shared = &self.shared;
        let id = TaskId(shared.next_task.fetch_add(1, Ordering::Relaxed));
        shared.pending.fetch_add(1, Ordering::AcqRel);
        shared.jobs.insert(id.0, job);
        // Place the wakeup: the policy reads the same lock-less snapshots
        // the stealing side does.  External submissions have no meaningful
        // previous core, so a rotating hint spreads the "prev is idle"
        // fast path instead of herding everything onto core 0.
        let prev = CoreId(shared.rr.fetch_add(1, Ordering::Relaxed) % shared.cores.len());
        let snapshots: Vec<CoreSnapshot> = shared.cores.iter().map(DequeRq::snapshot).collect();
        let target = shared.policy.choice.place_wakeup(prev, &snapshots).unwrap_or(prev);
        let now = shared.advance_clock();
        if shared.trace.is_enabled() {
            shared.trace.record(target, now, &TraceEvent::TaskWake { task: id });
            shared.trace.record(target, now, &TraceEvent::PlaceDecision { task: id, core: target });
        }
        shared.cores[target.0].enqueue(RqTask::new(id));
        shared.notify(target.0);
        id
    }

    /// Blocks until every submitted job has completed.  Open-loop runs
    /// call this after the generator finishes so the histogram covers the
    /// whole schedule, including the backlog.
    pub fn drain(&self) {
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// The run's balancing counters (live; also returned by value in the
    /// final [`ExecReport`]).
    pub fn stats(&self) -> &BalanceStats {
        &self.shared.stats
    }

    /// Lock-less snapshots of every worker's runqueue, in id order.
    pub fn snapshots(&self) -> Vec<CoreSnapshot> {
        self.shared.cores.iter().map(DequeRq::snapshot).collect()
    }

    /// Stops accepting progress, waits for the queues to empty, joins all
    /// workers, and returns what the run measured.
    pub fn shutdown(self) -> ExecReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A worker that registers after this drain takes the stack lock
        // after it, so its re-check sees the flag.
        for worker in self.shared.idle.drain() {
            self.shared.parkers[worker].unpark();
        }
        for handle in self.workers {
            handle.join().expect("worker thread panicked");
        }
        let shared = &self.shared;
        let stats = BalanceStats::new();
        stats.merge_from(&shared.stats);
        ExecReport {
            latency_us: shared.latency.lock().expect("latency histogram poisoned").clone(),
            completed: shared.completed.load(Ordering::Relaxed),
            panicked: shared.panicked.load(Ordering::Relaxed),
            stats,
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .field("pending", &self.shared.pending.load(Ordering::Relaxed))
            .field("completed", &self.shared.completed.load(Ordering::Relaxed))
            .field("panicked", &self.shared.panicked.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::{drive, OpenLoopSpec, ServiceMix};
    use sched_core::policy::{DeltaFilter, NodeRestrictedFilter, TopologyAwareChoice};
    use sched_core::LoadMetric;
    use sched_topology::TopologyBuilder;
    use sched_trace::FoldedStats;

    fn small_topo() -> Arc<MachineTopology> {
        Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(4).llcs_per_socket(1).build())
    }

    fn exec_policy(topo: &Arc<MachineTopology>) -> Policy {
        Policy::simple().with_choice(Box::new(TopologyAwareChoice::new(
            Arc::clone(topo),
            LoadMetric::NrThreads,
        )))
    }

    fn start(trace: TraceSink) -> Executor {
        let topo = small_topo();
        let policy = exec_policy(&topo);
        Executor::start(ExecConfig::new(topo, policy).with_trace(trace))
    }

    #[test]
    fn spawned_closures_run_and_join() {
        let exec = start(TraceSink::disabled());
        let handles: Vec<JoinHandle<u64>> = (0..64u64).map(|i| exec.spawn(move || i * 2)).collect();
        let sum: u64 = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(sum, (0..64u64).map(|i| i * 2).sum());
        let report = exec.shutdown();
        assert_eq!(report.completed, 64);
    }

    #[test]
    fn requests_measure_end_to_end_latency() {
        let exec = start(TraceSink::disabled());
        for _ in 0..32 {
            exec.submit_request(5_000);
        }
        exec.drain();
        let report = exec.shutdown();
        assert_eq!(report.completed, 32);
        assert_eq!(report.latency_us.count(), 32);
        // 5 µs of service: every measured latency is at least that, minus
        // the µs-truncation of sub-microsecond parts.
        assert!(report.latency_us.max() >= 4);
    }

    #[test]
    fn an_open_loop_run_completes_its_schedule() {
        let exec = start(TraceSink::disabled());
        let spec = OpenLoopSpec {
            rate_hz: 4_000,
            duration_ms: 50,
            service: ServiceMix::Fixed { ns: 2_000 },
            seed: 7,
        };
        let report = drive(&exec, spec);
        assert!(report.submitted > 0);
        exec.drain();
        let summary = exec.shutdown();
        assert_eq!(summary.completed, report.submitted);
        assert_eq!(summary.latency_us.count(), report.submitted);
    }

    #[test]
    fn stats_equal_folded_trace() {
        // The executor parity leg: every steal decision the workers make
        // is recorded through the same StealRecorder program point the
        // counters move through, so folding the drained trace reproduces
        // the stats exactly — on real OS threads, not a simulator.
        let sink = TraceSink::with_capacity(4, 1 << 16);
        let exec = start(sink.clone());
        let spec = OpenLoopSpec {
            rate_hz: 3_000,
            duration_ms: 60,
            service: ServiceMix::Exp { mean_ns: 4_000 },
            seed: 11,
        };
        drive(&exec, spec);
        exec.drain();
        let report = exec.shutdown();
        let trace = sink.drain();
        assert_eq!(trace.dropped, 0, "size the rings so the parity check sees everything");
        let folded = FoldedStats::from_trace(&trace);
        assert_eq!(folded.successes, report.stats.successes());
        assert_eq!(folded.recheck_failures, report.stats.recheck_failures());
        assert_eq!(folded.nothing_to_steal, report.stats.nothing_to_steal());
        assert_eq!(folded.no_candidates, report.stats.no_candidates());
        assert_eq!(folded.migrations, report.stats.migrations());
        assert_eq!(folded.level_migrations, report.stats.level_migration_counts());
    }

    #[test]
    fn an_idle_executor_shuts_down_promptly() {
        let exec = start(TraceSink::disabled());
        std::thread::sleep(Duration::from_millis(10));
        let report = exec.shutdown();
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn a_panicking_job_is_contained_and_resumes_in_its_joiner() {
        let exec = start(TraceSink::disabled());
        let handle = exec.spawn(|| -> u32 { panic!("job failed on purpose") });
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(|| handle.join())));
        });
        let joined =
            rx.recv_timeout(Duration::from_secs(10)).expect("join returns in bounded time");
        let payload = joined.expect_err("join resumes the job's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed on purpose"));
        // The worker that ran it survived, and the executor still runs jobs.
        assert_eq!(exec.spawn(|| 7).join(), 7);
        exec.drain();
        let report = exec.shutdown();
        assert_eq!((report.completed, report.panicked), (2, 1));
    }

    /// The stale-token race, pinned step by step through the park probe:
    /// a producer pops the registered worker, the worker's re-check finds
    /// work anyway, and the producer's unpark lands only after that.  The
    /// late token must cost one spurious pass, never a second
    /// registration.
    #[test]
    fn a_late_token_never_registers_a_worker_twice() {
        let topo = small_topo();
        let shared = Shared::new(ExecConfig::new(Arc::clone(&topo), exec_policy(&topo)));
        let mut scratch = Vec::new();
        let registered_once = |shared: &Shared| {
            assert_eq!(shared.idle.registrations(0), 1, "worker 0 registered more than once");
        };
        shared.park(0, &mut scratch, |point| match point {
            ParkPoint::Registered => {
                registered_once(&shared);
                // 1. A producer seats a task on core 0 and pops worker 0.
                shared.cores[0].enqueue(RqTask::new(TaskId(1)));
                assert!(shared.idle.pop_specific(0));
            }
            // 2. The worker's re-check finds that task.
            ParkPoint::Rechecked { found } => assert!(found),
        });
        // 3. The producer's unpark lands after the worker moved on.
        shared.parkers[0].unpark();
        assert_eq!(shared.cores[0].complete_current().map(|t| t.id), Some(TaskId(1)));
        // Nothing left: the next park blocks on the late token, which
        // returns at once — and the worker deregisters regardless.
        shared.park(0, &mut scratch, |point| match point {
            ParkPoint::Registered => registered_once(&shared),
            ParkPoint::Rechecked { found } => assert!(!found),
        });
        assert_eq!(shared.idle.registrations(0), 0, "a token wake deregisters");
        // So the park after that registers exactly once again.
        shared.park(0, &mut scratch, |point| {
            if point == ParkPoint::Registered {
                registered_once(&shared);
                shared.cores[0].enqueue(RqTask::new(TaskId(2)));
            }
        });
        assert_eq!(shared.idle.registrations(0), 0);
    }

    /// A batch steal that trims loops its undelivered claims back into the
    /// victim's injector — an enqueue, so the thief must notify like any
    /// producer: if the victim's owner is registered, it is popped and
    /// unparked, since its re-check may have run while the claim was in
    /// flight and its core looked empty.
    #[test]
    fn a_trimmed_batch_steal_notifies_the_victims_owner() {
        let topo = small_topo();
        let config =
            ExecConfig::new(Arc::clone(&topo), exec_policy(&topo)).with_batch(StealBatch::Fixed(2));
        let shared = Shared::new(config);
        // Core 1 runs task 1 with two waiting (the single-threaded test
        // keeps it seated; its worker is registered all the same).
        for id in 1..=3 {
            shared.cores[1].enqueue(RqTask::new(TaskId(id)));
        }
        shared.idle.push(1);
        shared.idle.push(2);
        // Another worker is out searching, so this thief's pass-on is not
        // due: only the notify of its loop-back may pop anyone.
        shared.searching.fetch_add(1, Ordering::SeqCst);
        let mut scratch = Vec::new();
        assert!(shared.steal_round(CoreId(0), &mut scratch));
        assert_eq!(shared.cores[1].injected_len(), 1, "the second claim was trimmed");
        assert_eq!(shared.idle.registrations(1), 0, "the victim's owner was popped");
        assert!(shared.parkers[1].park_timeout(Duration::ZERO), "…and unparked");
        assert_eq!(shared.idle.registrations(2), 1, "the searcher covers everyone else");
    }

    /// The executor refuses filters whose verdict can change with no
    /// enqueue to signal it: a decayed load moves with time alone, and a
    /// node-restricted filter answers differently per thief.
    #[test]
    #[should_panic(expected = "event-stable filter")]
    fn a_filter_over_decayed_loads_is_refused() {
        let _ = Executor::start(ExecConfig::new(small_topo(), Policy::pelt(1_000_000)));
    }

    #[test]
    #[should_panic(expected = "event-stable filter")]
    fn a_node_restricted_filter_is_refused() {
        let mut policy = Policy::simple();
        policy.filter = Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1()));
        let _ = Executor::start(ExecConfig::new(small_topo(), policy));
    }

    // ---- stress legs (CI `exec-stress` job; `--ignored`) ----

    /// With no park timer a lost wakeup is a hang, so the stress legs poll
    /// against this deadline and fail naming what is stuck instead.
    const STRESS_DEADLINE: Duration = Duration::from_secs(10);

    /// Joins every handle once all have finished; panics with the stuck
    /// task ids if any is still pending at the deadline.
    fn join_within<T>(exec: &Executor, handles: Vec<JoinHandle<T>>, what: &str) -> Vec<T> {
        let deadline = Instant::now() + STRESS_DEADLINE;
        while !handles.iter().all(JoinHandle::is_finished) {
            if Instant::now() > deadline {
                let stuck: Vec<&JoinHandle<T>> =
                    handles.iter().filter(|h| !h.is_finished()).collect();
                panic!(
                    "{what}: tasks {stuck:?} still pending after {STRESS_DEADLINE:?}; queues: {:?}",
                    exec.snapshots()
                );
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        handles.into_iter().map(JoinHandle::join).collect()
    }

    /// Park/unpark race hammer: repeated idle → burst → drain cycles drive
    /// every worker through the register/re-check/park edge while
    /// submissions race the registrations.  A lost wakeup strands a job
    /// past the deadline and fails the round with its task id.
    #[test]
    #[ignore]
    fn park_unpark_races_never_strand_work() {
        let exec = start(TraceSink::disabled());
        for round in 0..200 {
            // Let everyone park.
            std::thread::sleep(Duration::from_millis(1));
            let handles: Vec<JoinHandle<usize>> = (0..16).map(|i| exec.spawn(move || i)).collect();
            let sum: usize =
                join_within(&exec, handles, &format!("round {round}")).into_iter().sum();
            assert_eq!(sum, (0..16).sum::<usize>(), "round {round} lost a job");
        }
        exec.drain();
        let report = exec.shutdown();
        assert_eq!(report.completed, 200 * 16);
    }

    /// Concurrent submitters race the parking protocol from multiple
    /// threads at once (the single-producer case above cannot exercise
    /// producer/producer interleavings of the idle stack).
    #[test]
    #[ignore]
    fn concurrent_submitters_race_the_idle_stack() {
        let exec = start(TraceSink::disabled());
        let handles: Vec<JoinHandle<()>> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..500)
                            .map(|_| {
                                let handle = exec.spawn(|| spin_for(1_000));
                                std::thread::sleep(Duration::from_micros(50));
                                handle
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            submitters.into_iter().flat_map(|s| s.join().expect("submitter")).collect()
        });
        join_within(&exec, handles, "concurrent submitters");
        let report = exec.shutdown();
        assert_eq!(report.completed, 4 * 500);
    }

    /// A short open-loop soak at a saturating rate: the executor must
    /// neither lose requests nor deadlock when the offered load exceeds
    /// the machine.
    #[test]
    #[ignore]
    fn open_loop_soak_survives_saturation() {
        let exec = start(TraceSink::disabled());
        let spec = OpenLoopSpec {
            rate_hz: 20_000,
            duration_ms: 500,
            service: ServiceMix::Bimodal { short_ns: 2_000, long_ns: 50_000, long_pct: 5 },
            seed: 3,
        };
        let report = drive(&exec, spec);
        let deadline = Instant::now() + STRESS_DEADLINE;
        while exec.completed() < report.submitted {
            assert!(
                Instant::now() < deadline,
                "soak: {} of {} requests completed after {STRESS_DEADLINE:?}; queues: {:?}",
                exec.completed(),
                report.submitted,
                exec.snapshots()
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let summary = exec.shutdown();
        assert_eq!(summary.completed, report.submitted);
        assert!(summary.latency_us.count() > 0);
    }
}
