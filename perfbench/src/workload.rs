//! The workloads and the generator (`gen` layer) that drives the executor.
//!
//! Everything here reaches the executor through its public API only:
//! `Executor::start`, `spawn`, `JoinHandle::join`, `stats`, `snapshots`
//! and `shutdown`.  Each request is a closure that spins for its sampled
//! service time and stamps its own start and completion with the
//! benchmark's clock, so a request's latency is measured exactly (no
//! histogram buckets, no executor clock) from its *planned* arrival.

use std::collections::VecDeque;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sched_core::policy::TopologyAwareChoice;
use sched_core::{CoreId, LoadMetric, Policy};
use sched_exec::{ExecConfig, Executor, JoinHandle};
use sched_rq::BalanceStats;
use sched_topology::{MachineTopology, TopologyBuilder};
use sched_trace::{TraceEvent, TraceSink};

use crate::host::{self, CpuTicks, SchedStat, Workers};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the benchmark's own monotonic clock; never 0, so a zero
/// stamp always means "not stamped".
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// How often the generator samples `Executor::snapshots()`.
const SNAPSHOT_EVERY_NS: u64 = 1_000_000;

/// Length of one slice of the measured window.  End-to-end figures are
/// computed per slice and reported as the median over slices, so a burst
/// of host noise moves one slice, not the run.
const SLICE_NS: u64 = 500_000_000;

/// One benchmark workload (see the README for what each isolates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, fixed 3 µs service, far below saturation: the wake path.
    OpenLight,
    /// Closed loop with a deep window, fixed 3 µs service: the submit path.
    ClosedSaturate,
    /// Open loop, 95% 2 µs / 5% 200 µs service: stealing and choice.
    OpenBimodal,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Open { rate_per_worker_hz: f64, mix: Mix },
    Closed { window_per_worker: usize, service_ns: u64 },
}

#[derive(Debug, Clone, Copy)]
enum Mix {
    Fixed(u64),
    Bimodal { short_ns: u64, long_ns: u64, long_per_mille: u64 },
}

impl Workload {
    /// Every workload, in the order the README describes them.
    pub const ALL: [Workload; 3] =
        [Workload::OpenLight, Workload::ClosedSaturate, Workload::OpenBimodal];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenLight => "open-light",
            Workload::ClosedSaturate => "closed-saturate",
            Workload::OpenBimodal => "open-bimodal",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::OpenLight => {
                Shape::Open { rate_per_worker_hz: 5_000.0, mix: Mix::Fixed(3_000) }
            }
            Workload::ClosedSaturate => Shape::Closed { window_per_worker: 128, service_ns: 3_000 },
            Workload::OpenBimodal => Shape::Open {
                rate_per_worker_hz: 21_000.0,
                mix: Mix::Bimodal { short_ns: 2_000, long_ns: 200_000, long_per_mille: 50 },
            },
        }
    }
}

/// splitmix64: the benchmark's seeded input stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The open-loop request stream: Poisson arrivals with sampled service,
/// drawn on the fly by the generator (about 30 ns per arrival).
struct Arrivals {
    rng: SplitMix,
    at_ns: f64,
    gap_ns: f64,
    mix: Mix,
}

impl Arrivals {
    fn new(rate_hz: f64, mix: Mix, seed: u64) -> Self {
        Arrivals { rng: SplitMix(seed), at_ns: 0.0, gap_ns: 1e9 / rate_hz, mix }
    }

    /// The next arrival: its time from the start of the run and its
    /// service time, both in ns.
    fn next(&mut self) -> (u64, u64) {
        self.at_ns += -self.rng.unit().ln() * self.gap_ns;
        let draw = self.rng.next();
        let service = match self.mix {
            Mix::Fixed(ns) => ns,
            Mix::Bimodal { short_ns, long_ns, long_per_mille } => {
                if draw % 1000 < long_per_mille {
                    long_ns
                } else {
                    short_ns
                }
            }
        };
        (self.at_ns as u64, service)
    }
}

/// The machine shape the benchmark gives the executor: one flat socket.
pub fn topology(cores: usize) -> Arc<MachineTopology> {
    Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(cores).build())
}

/// The executor's policy: the paper's delta filter with topology-aware
/// choice and placement (the `topo_aware` policy of the e26 scenarios).
pub fn policy(topo: &Arc<MachineTopology>) -> Policy {
    Policy::simple()
        .with_choice(Box::new(TopologyAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads)))
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Worker threads (`W`).
    pub workers: usize,
    /// Seed of the arrival stream and the per-request result tokens.
    pub seed: u64,
    /// Unmeasured lead-in: caches fill, workers settle.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Stop submitting after this many requests (warm-up included), which
    /// ends the measured window early; bounds a traced run's event count.
    pub max_requests: usize,
    /// Decision trace sink (disabled for end-to-end runs); a traced run
    /// also keeps the per-request stage breakdown.
    pub trace: TraceSink,
    /// How long the generator waits for a request it needs: for every
    /// outstanding one once the window has passed, and in the closed loop
    /// for the oldest to start.  A request that misses it is counted lost
    /// and the run ends without `shutdown`, which would wait for it.
    pub deadline: Duration,
    /// Fault injection for the self-tests: this request sleeps past the
    /// run's end plus twice `deadline` before it starts, as if the
    /// executor had lost it.
    pub stall: Option<usize>,
}

impl RunSpec {
    fn horizon_ns(&self) -> u64 {
        (self.warmup + self.window).as_nanos() as u64
    }

    fn deadline_ns(&self) -> u64 {
        self.deadline.as_nanos() as u64
    }

    /// How long request `i` stalls before it starts.
    fn stall_of(&self, i: usize) -> Option<Duration> {
        (self.stall == Some(i)).then_some(self.warmup + self.window + self.deadline * 2)
    }
}

/// A started executor: the end of set-up.
pub struct Prepared {
    exec: Executor,
    /// Worker threads of executors started earlier and left running.
    older: Vec<String>,
    /// CPU time the setting-up thread spent building the machine shape and
    /// policy and starting the executor (thread creation included), in ns.
    /// The worker threads' own start-up runs concurrently and is not
    /// counted.
    pub setup_cpu_ns: u64,
}

/// Starts the executor (set-up).  Arrivals are drawn on the fly, so there
/// is no schedule to generate before the first one.
pub fn prepare(spec: &RunSpec) -> Result<Prepared, String> {
    let older = host::worker_tids()?;
    let began = host::thread_cpu_ns();
    let topo = topology(spec.workers);
    let exec = Executor::start(
        ExecConfig::new(Arc::clone(&topo), policy(&topo)).with_trace(spec.trace.clone()),
    );
    Ok(Prepared { exec, older, setup_cpu_ns: host::thread_cpu_ns() - began })
}

impl Prepared {
    /// Stops the executor without running anything (a discarded set-up).
    pub fn discard(self) {
        self.exec.shutdown();
    }
}

/// Per-request result token: `join` must hand back exactly this.
fn token(seed: u64, i: usize) -> u64 {
    seed.rotate_left(17) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Start and completion stamps, written by the request closures.
struct Slots {
    start: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    /// Completions stamped onto an already-stamped slot.
    double_stamps: AtomicU64,
}

impl Slots {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Slots {
            start: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done: (0..n).map(|_| AtomicU64::new(0)).collect(),
            double_stamps: AtomicU64::new(0),
        })
    }

    /// Whether the request in slot `i` has started.
    fn started(&self, i: usize) -> bool {
        self.start[i].load(Ordering::Relaxed) != 0
    }

    /// Reads slot `i` and clears it for reuse.  Called after the request's
    /// `join`, whose result hand-off orders the closure's stores before
    /// these loads.
    fn take(&self, i: usize) -> (u64, u64) {
        (self.start[i].swap(0, Ordering::Relaxed), self.done[i].swap(0, Ordering::Relaxed))
    }
}

/// One request: stamp its start, spin for `service_ns`, stamp its
/// completion, return the token.  A `stall` (fault injection) delays it
/// before it starts.
fn request(
    slots: &Arc<Slots>,
    slot: usize,
    service_ns: u64,
    token: u64,
    stall: Option<Duration>,
) -> impl FnOnce() -> u64 + Send + 'static {
    let slots = Arc::clone(slots);
    move || {
        if let Some(stall) = stall {
            std::thread::sleep(stall);
        }
        let start = now_ns();
        slots.start[slot].store(start, Ordering::Relaxed);
        let mut now = start;
        while now < start + service_ns {
            spin_loop();
            now = now_ns();
        }
        if slots.done[slot].compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed).is_err()
        {
            slots.double_stamps.fetch_add(1, Ordering::Relaxed);
        }
        token
    }
}

/// Correctness violations of one run; any of them fails it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Requests that had not finished (in the closed loop: started) by the
    /// deadline.
    pub lost: u64,
    /// A completion stamped twice.
    pub doubled: u64,
    /// `join` returned another request's value.
    pub wrong_value: u64,
    /// `|completed − submitted|` as the executor reports it.
    pub count_mismatch: u64,
    /// Violated `BalanceStats` identities.
    pub identity: u64,
}

impl Failures {
    /// All violations.
    pub fn total(&self) -> u64 {
        self.lost + self.doubled + self.wrong_value + self.count_mismatch + self.identity
    }
}

/// Per-request stage durations (ns) of the measured requests.  For each
/// request `lag + spawn + start_wait + service` is exactly its end-to-end
/// latency; `start_wait` is negative when a worker starts the closure
/// before `spawn` has returned.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    /// Planned arrival → `spawn` called (0 in the closed loop).
    pub lag: Vec<i64>,
    /// Duration of the `spawn` call.
    pub spawn: Vec<i64>,
    /// `spawn` returned → closure started.
    pub start_wait: Vec<i64>,
    /// Closure started → completion stamped.
    pub service: Vec<i64>,
    /// Duration of the `join` call.
    pub join: Vec<i64>,
    /// Sum of the nominal service times.
    pub nominal_ns: u64,
}

/// `Executor::stats()` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Balance {
    /// Steal attempts that chose a victim.
    pub attempts: u64,
    /// Successful steals.
    pub successes: u64,
    /// Failed steals (re-check failures plus nothing to steal).
    pub failures: u64,
    /// Steals lost at the optimistic re-check.
    pub recheck_failures: u64,
    /// Tasks migrated.
    pub migrations: u64,
}

impl Balance {
    fn of(stats: &BalanceStats) -> Self {
        Balance {
            attempts: stats.attempts(),
            successes: stats.successes(),
            failures: stats.failures(),
            recheck_failures: stats.recheck_failures(),
            migrations: stats.migrations(),
        }
    }

    fn since(self, earlier: Balance) -> Balance {
        Balance {
            attempts: self.attempts - earlier.attempts,
            successes: self.successes - earlier.successes,
            failures: self.failures - earlier.failures,
            recheck_failures: self.recheck_failures - earlier.recheck_failures,
            migrations: self.migrations - earlier.migrations,
        }
    }

    /// Number of violated identities: `attempts = successes + failures`
    /// and `migrations ≥ successes` (one task per acquisition at least).
    fn violations(&self) -> u64 {
        u64::from(self.attempts != self.successes + self.failures)
            + u64::from(self.migrations < self.successes)
    }
}

/// What the ~1 ms `Executor::snapshots()` samples saw in the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshots {
    /// Samples taken.
    pub samples: u64,
    /// Samples with one worker idle while another had ≥ 2 threads.
    pub idle_while_overloaded: u64,
    /// Largest `nr_threads` (running plus waiting) on any worker.
    pub max_nr_threads: u64,
}

/// Host counters over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    /// Summed over the worker threads.
    pub workers: SchedStat,
    /// The generator thread.
    pub gen: SchedStat,
    /// Share of machine CPU time the hypervisor stole.
    pub steal_frac: f64,
}

/// Summary of the drained decision trace (traced runs only).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Events drained.
    pub events: u64,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// `Park` events.
    pub parks: u64,
    /// `Park → Unpark` intervals on the executor's clock, ns.
    pub park_ns: Vec<u64>,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests submitted (warm-up included).
    pub submitted: u64,
    /// Correctness violations.
    pub failures: Failures,
    /// Length of the measured window.
    pub window_ns: u64,
    /// Completions stamped inside the window.
    pub completed_in_window: u64,
    /// The window's slices, in time order.
    pub slices: Vec<Slice>,
    /// Stage breakdown of the same requests (traced runs only).
    pub stages: Option<Stages>,
    /// `Executor::stats()` over the window.
    pub balance: Balance,
    /// Snapshot samples over the window.
    pub snapshots: Snapshots,
    /// Host counters over the window.
    pub host: Host,
    /// The decision trace (traced runs only).
    pub trace: Option<TraceSummary>,
}

impl Outcome {
    /// End-to-end latency (ns) of every request planned inside the window.
    pub fn e2e_ns(&self) -> Vec<u64> {
        self.slices.iter().flat_map(|s| s.e2e_ns.iter().copied()).collect()
    }
}

/// One slice of the measured window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Slice length.
    pub len_ns: u64,
    /// End-to-end latency (ns) of the requests planned inside the slice.
    pub e2e_ns: Vec<u64>,
    /// Completions stamped inside the slice.
    pub completed: u64,
    /// Worker CPU time spent inside the slice.
    pub worker_cpu_ns: u64,
}

/// One joined request, as the generator saw it.
struct Finished {
    planned: u64,
    begin: u64,
    end: u64,
    start: u64,
    done: u64,
    join_ns: u64,
    nominal: u64,
    token_ok: bool,
}

/// Counter readings at a window edge.
struct Mark {
    workers: SchedStat,
    gen: SchedStat,
    ticks: CpuTicks,
    balance: Balance,
}

impl Mark {
    fn read(exec: &Executor, workers: &Workers) -> Result<Self, String> {
        Ok(Mark {
            workers: workers.schedstat()?,
            gen: host::own_schedstat()?,
            ticks: CpuTicks::read()?,
            balance: Balance::of(exec.stats()),
        })
    }
}

/// The generator's bookkeeping for one run.
struct Recorder {
    workers: Workers,
    win_start: u64,
    win_end: u64,
    slice_ns: u64,
    next_sample: u64,
    /// Worker CPU time read at each slice edge crossed so far.
    edges: Vec<u64>,
    out: Outcome,
}

impl Recorder {
    fn new(spec: &RunSpec, workers: Workers) -> Self {
        Recorder {
            workers,
            win_start: u64::MAX,
            win_end: u64::MAX,
            slice_ns: SLICE_NS.min(spec.window.as_nanos() as u64).max(1),
            next_sample: 0,
            edges: Vec::new(),
            out: Outcome {
                stages: spec.trace.is_enabled().then(Stages::default),
                ..Outcome::default()
            },
        }
    }

    /// Opens the measured window `[start, end)`.
    fn open_window(&mut self, start: u64, end: u64) {
        self.win_start = start;
        self.win_end = end;
        let slices = (end - start).div_ceil(self.slice_ns) as usize;
        self.out.slices = vec![Slice::default(); slices];
    }

    /// The slice holding time `t`, if `t` is inside the window.
    fn slice_of(&self, t: u64) -> Option<usize> {
        (t >= self.win_start && t < self.win_end)
            .then(|| ((t - self.win_start) / self.slice_ns) as usize)
    }

    /// The generator's periodic duties: reads worker CPU time at each
    /// slice edge and samples the executor's snapshots every ~1 ms, both
    /// inside the window only.
    fn tick(&mut self, exec: &Executor, now: u64) -> Result<(), String> {
        if now < self.win_start || now >= self.win_end {
            return Ok(());
        }
        let edge = self.win_start + self.edges.len() as u64 * self.slice_ns;
        if now >= edge {
            self.edges.push(self.workers.schedstat()?.cpu_ns);
        }
        if now >= self.next_sample {
            self.sample(exec, now);
        }
        Ok(())
    }

    fn sample(&mut self, exec: &Executor, now: u64) {
        self.next_sample = now + SNAPSHOT_EVERY_NS;
        let snaps = exec.snapshots();
        let s = &mut self.out.snapshots;
        s.samples += 1;
        let idle = snaps.iter().any(|c| c.nr_threads == 0);
        let overloaded = snaps.iter().any(|c| c.nr_threads >= 2);
        s.idle_while_overloaded += u64::from(idle && overloaded);
        s.max_nr_threads = snaps.iter().map(|c| c.nr_threads).fold(s.max_nr_threads, u64::max);
    }

    /// Checks and records one joined request.
    fn finish(&mut self, r: Finished) {
        self.out.failures.wrong_value += u64::from(!r.token_ok);
        if let Some(k) = self.slice_of(r.done) {
            self.out.completed_in_window += 1;
            self.out.slices[k].completed += 1;
        }
        let Some(k) = self.slice_of(r.planned) else {
            return;
        };
        self.out.slices[k].e2e_ns.push(r.done - r.planned);
        if let Some(st) = &mut self.out.stages {
            let d = |a: u64, b: u64| b as i64 - a as i64;
            st.lag.push(d(r.planned, r.begin));
            st.spawn.push(d(r.begin, r.end));
            st.start_wait.push(d(r.end, r.start));
            st.service.push(d(r.start, r.done));
            st.join.push(r.join_ns as i64);
            st.nominal_ns += r.nominal;
        }
    }

    fn close_window(&mut self, start: Mark, end: Mark) {
        self.out.window_ns = self.win_end - self.win_start;
        self.edges.push(end.workers.cpu_ns);
        let slice_ns = self.slice_ns;
        let edges = &self.edges;
        self.out.slices.truncate(edges.len() - 1);
        for (k, slice) in self.out.slices.iter_mut().enumerate() {
            slice.len_ns = slice_ns.min(self.out.window_ns - k as u64 * slice_ns);
            slice.worker_cpu_ns = edges[k + 1] - edges[k];
        }
        self.out.balance = end.balance.since(start.balance);
        self.out.host = Host {
            workers: end.workers.since(start.workers),
            gen: end.gen.since(start.gen),
            steal_frac: end.ticks.steal_frac_since(start.ticks),
        };
    }
}

/// How often the generator looks again at a request it waits for.
const POLL: Duration = Duration::from_micros(100);

/// Polls `ready` until it holds or `timeout_ns` has passed; returns
/// whether it held.  The first check costs no clock read.
fn wait_for(timeout_ns: u64, mut ready: impl FnMut() -> bool) -> bool {
    if ready() {
        return true;
    }
    let deadline = now_ns() + timeout_ns;
    loop {
        std::thread::sleep(POLL);
        if ready() {
            return true;
        }
        if now_ns() >= deadline {
            return false;
        }
    }
}

/// A submitted request the generator has not joined yet.
struct Pending {
    index: usize,
    handle: JoinHandle<u64>,
    planned: u64,
    begin: u64,
    end: u64,
    nominal: u64,
}

/// Joins one request and hands its stamps to the recorder.
fn join_one(rec: &mut Recorder, seed: u64, slots: &Slots, slot: usize, p: Pending) {
    let join_begin = now_ns();
    let value = p.handle.join();
    let join_ns = now_ns() - join_begin;
    let (start, done) = slots.take(slot);
    rec.finish(Finished {
        planned: p.planned,
        begin: p.begin,
        end: p.end,
        start,
        done,
        join_ns,
        nominal: p.nominal,
        token_ok: value == token(seed, p.index),
    });
}

/// After the window: waits up to the deadline for every outstanding
/// request to finish, joins those that did and counts the rest lost.
fn drain(
    rec: &mut Recorder,
    spec: &RunSpec,
    slots: &Slots,
    slot_of: impl Fn(usize) -> usize,
    pending: impl IntoIterator<Item = Pending>,
) {
    let pending: Vec<Pending> = pending.into_iter().collect();
    let mut finished = 0;
    wait_for(spec.deadline_ns(), || {
        while finished < pending.len() && pending[finished].handle.is_finished() {
            finished += 1;
        }
        finished == pending.len()
    });
    for p in pending {
        if p.handle.is_finished() {
            join_one(rec, spec.seed, slots, slot_of(p.index), p);
        } else {
            rec.out.failures.lost += 1;
        }
    }
}

/// Runs the prepared executor through `spec`'s workload, shuts it down,
/// and checks everything it can.
pub fn run(spec: &RunSpec, prepared: Prepared) -> Result<Outcome, String> {
    let exec = prepared.exec;
    let mut rec = Recorder::new(spec, Workers::find(spec.workers, &prepared.older)?);
    let (submitted, slots) = match spec.workload.shape() {
        Shape::Open { rate_per_worker_hz, mix } => {
            let rate_hz = rate_per_worker_hz * spec.workers as f64;
            run_open(spec, &exec, rate_hz, mix, &mut rec)?
        }
        Shape::Closed { window_per_worker, service_ns } => {
            run_closed(spec, &exec, window_per_worker * spec.workers, service_ns, &mut rec)?
        }
    };
    let mut out = rec.out;
    out.submitted = submitted;
    out.failures.doubled = slots.double_stamps.load(Ordering::Relaxed);
    if out.failures.lost == 0 {
        let report = exec.shutdown();
        out.failures.count_mismatch = report.completed.abs_diff(submitted);
        out.failures.identity = Balance::of(&report.stats).violations();
    } else {
        // `shutdown` would wait for the lost requests, so the executor is
        // left running.  The count and identity checks need it stopped;
        // the run has failed already.
        drop(exec);
    }
    if spec.trace.is_enabled() {
        out.trace = Some(summarize_trace(&spec.trace, spec.workers));
    }
    Ok(out)
}

/// Open loop: submit on the seeded arrival stream, never waiting for
/// completions; join everything once the window has passed.
fn run_open(
    spec: &RunSpec,
    exec: &Executor,
    rate_hz: f64,
    mix: Mix,
    rec: &mut Recorder,
) -> Result<(u64, Arc<Slots>), String> {
    let horizon = spec.horizon_ns();
    // Room for every arrival: a Poisson count exceeds its mean by 10% (+64)
    // with negligible probability, and running out only ends the window
    // early, as `max_requests` does.
    let expected = rate_hz * horizon as f64 * 1e-9;
    let capacity = ((expected * 1.1) as usize + 64).min(spec.max_requests);
    let slots = Slots::new(capacity);
    let mut spawned = Vec::with_capacity(capacity);
    let mut arrivals = Arrivals::new(rate_hz, mix, spec.seed);
    let base = now_ns();
    rec.open_window(base + spec.warmup.as_nanos() as u64, base + horizon);
    let mut start_mark = None;
    for i in 0.. {
        let (at, service) = arrivals.next();
        let planned = base + at;
        if at >= horizon {
            break;
        }
        if i == capacity {
            rec.win_end = planned.max(rec.win_start);
            break;
        }
        if start_mark.is_none() && planned >= rec.win_start {
            pace_until(rec.win_start, exec, rec)?;
            start_mark = Some(Mark::read(exec, &rec.workers)?);
        }
        let begin = pace_until(planned, exec, rec)?;
        let handle = exec.spawn(request(&slots, i, service, token(spec.seed, i), spec.stall_of(i)));
        spawned.push(Pending { index: i, handle, planned, begin, end: now_ns(), nominal: service });
    }
    pace_until(rec.win_end, exec, rec)?;
    let start_mark = match start_mark {
        Some(mark) => mark,
        None => Mark::read(exec, &rec.workers)?,
    };
    let end_mark = Mark::read(exec, &rec.workers)?;
    let submitted = spawned.len() as u64;
    drain(rec, spec, &slots, |i| i, spawned);
    rec.close_window(start_mark, end_mark);
    Ok((submitted, slots))
}

/// Waits until `due`, sampling snapshots meanwhile; returns the time the
/// wait ended (≥ `due`).
fn pace_until(due: u64, exec: &Executor, rec: &mut Recorder) -> Result<u64, String> {
    loop {
        let now = now_ns();
        rec.tick(exec, now)?;
        if now >= due {
            return Ok(now);
        }
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// Closed loop: keep `depth` requests outstanding, joining the oldest
/// before each new `spawn`.  The generator blocks in `join` only once the
/// oldest has started, so a request the executor never runs ends the run
/// at the deadline instead of hanging it.
fn run_closed(
    spec: &RunSpec,
    exec: &Executor,
    depth: usize,
    service_ns: u64,
    rec: &mut Recorder,
) -> Result<(u64, Arc<Slots>), String> {
    let slots = Slots::new(depth);
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(depth);
    let t0 = now_ns();
    rec.open_window(t0 + spec.warmup.as_nanos() as u64, t0 + spec.horizon_ns());
    let mut start_mark = None;
    let mut i = 0;
    loop {
        let now = now_ns();
        if start_mark.is_none() && now >= rec.win_start {
            start_mark = Some(Mark::read(exec, &rec.workers)?);
        }
        rec.tick(exec, now)?;
        if now >= rec.win_end {
            break;
        }
        if i == spec.max_requests {
            rec.win_end = now.max(rec.win_start);
            break;
        }
        if inflight.len() == depth {
            let oldest = inflight.pop_front().expect("window is full");
            let slot = oldest.index % depth;
            if !wait_for(spec.deadline_ns(), || slots.started(slot) || oldest.handle.is_finished())
            {
                rec.out.failures.lost += 1;
                rec.win_end = now.max(rec.win_start);
                break;
            }
            join_one(rec, spec.seed, &slots, slot, oldest);
        }
        let begin = now_ns();
        let handle = exec.spawn(request(
            &slots,
            i % depth,
            service_ns,
            token(spec.seed, i),
            spec.stall_of(i),
        ));
        let end = now_ns();
        inflight.push_back(Pending {
            index: i,
            handle,
            planned: begin,
            begin,
            end,
            nominal: service_ns,
        });
        i += 1;
    }
    let start_mark = match start_mark {
        Some(mark) => mark,
        None => Mark::read(exec, &rec.workers)?,
    };
    let end_mark = Mark::read(exec, &rec.workers)?;
    drain(rec, spec, &slots, |j| j % depth, inflight);
    rec.close_window(start_mark, end_mark);
    Ok((i as u64, slots))
}

/// Folds the drained trace into park counts and `Park → Unpark` intervals.
fn summarize_trace(sink: &TraceSink, workers: usize) -> TraceSummary {
    let trace = sink.drain();
    let mut parked_at: Vec<Option<u64>> = vec![None; workers];
    let mut summary = TraceSummary {
        events: trace.events.len() as u64,
        dropped: trace.dropped,
        ..TraceSummary::default()
    };
    for e in &trace.events {
        let CoreId(core) = e.core;
        match e.event {
            TraceEvent::Park => {
                summary.parks += 1;
                parked_at[core] = Some(e.ts);
            }
            TraceEvent::Unpark => {
                if let Some(at) = parked_at[core].take() {
                    summary.park_ns.push(e.ts.saturating_sub(at));
                }
            }
            _ => {}
        }
    }
    summary
}
