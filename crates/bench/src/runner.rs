//! The unified experiment runner: one declarative scenario description,
//! three execution backends.
//!
//! The paper's claims live at three altitudes — the abstract model
//! (`sched-core` balancing rounds), a discrete-event machine (`sched-sim`)
//! and real contending OS threads (`sched-rq`).  Historically each
//! experiment hand-rolled its own driver for one altitude; this module
//! declares every experiment **once** as an [`ExperimentSpec`] and executes
//! it against any [`Backend`], so a scenario measured in the model can be
//! re-measured, unchanged, on the simulator and on real threads.
//!
//! Specs themselves are *data*: the catalog loads them from declarative
//! `experiments/*.scn` documents (see [`mod@crate::catalog`]), and
//! [`ExperimentSpec::builder`] is the validating way to construct one in
//! code.  How work arrives is a single [`Driver`] value — replay, workload,
//! burst or storm — so a spec cannot carry two contradictory drivers.
//!
//! [`ExperimentRunner::run_catalog`] produces flat [`ExperimentRecord`]s;
//! the `experiments --json` binary serializes them to `BENCH_results.json`,
//! which is the machine-readable perf trajectory later PRs regress against.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sched_core::prelude::*;
use sched_dsl::PolicyDef;
use sched_metrics::{StealLocality, Table};
use sched_rq::MultiQueue;
use sched_topology::{MachineTopology, NodeId, TopologyBuilder};
use sched_workloads::{
    OltpWorkload, Phase as WorkloadPhase, ScientificWorkload, ThreadSpec, Workload,
};

use sched_json::{object, JsonValue};

use crate::experiments::ExperimentId;

/// CPU time given to each synthetic task when a load-vector scenario is
/// replayed on the simulator backend.
const SYNTH_TASK_NS: u64 = 2_000_000;

/// Logical time between balancing rounds on the model and runqueue
/// backends (CFS's balancing period is on this order); decayed trackers
/// fold this much elapsed time per round.
const ROUND_NS: u64 = 1_000_000;

/// Half-life used by the catalogued PELT policies.
pub const PELT_HALF_LIFE_NS: u64 = 8_000_000;

/// Niceness cycle used by mixed-importance scenarios (E18): every third
/// task is important, normal, then background.
const MIXED_NICE: [i8; 3] = [-10, 0, 10];

/// Where `--trace DIR` asked traced runs to land, once set.
static TRACE_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Enables decision tracing for every subsequent sim/rq run in this
/// process: each traced spec×backend execution exports a Chrome/Perfetto
/// `*.trace.json` into `dir` (created on first export).  Set once — this
/// is the `experiments --trace DIR` switch; later calls are ignored.
pub fn set_trace_dir(dir: &Path) {
    let _ = TRACE_DIR.set(dir.to_path_buf());
}

/// A recording sink for the next run, iff tracing was enabled.
fn trace_sink_for(nr_cores: usize) -> Option<sched_trace::TraceSink> {
    TRACE_DIR.get().map(|_| sched_trace::TraceSink::recording(nr_cores))
}

/// Drains `sink` and writes the Chrome trace for `spec` on `backend`.
/// Export failures are reported, not fatal — tracing must never sink an
/// experiment run.
fn export_trace(spec: &ExperimentSpec, backend: &str, sink: &sched_trace::TraceSink) {
    let Some(dir) = TRACE_DIR.get() else { return };
    let trace = sink.drain();
    if trace.events.is_empty() {
        return;
    }
    let slug: String = format!("{:?}-{}-{}", spec.id, spec.scenario, backend)
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    let path = dir.join(format!("{slug}.trace.json"));
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, sched_trace::to_chrome_json(&trace)));
    match write {
        Ok(()) => eprintln!(
            "trace: wrote {} ({} events{})",
            path.display(),
            trace.events.len(),
            if trace.dropped > 0 { format!(", {} dropped", trace.dropped) } else { String::new() }
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// How a scenario's policy is built (policies are not `Clone`, and each
/// backend needs its own instance, so the *recipe* is what the spec holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// The paper's Listing 1: `delta >= 2` filter, max-load choice, steal one.
    Listing1,
    /// The refuted greedy filter (`victim load >= 2`, ignores the thief).
    Greedy,
    /// Weighted-load variant of Listing 1.
    Weighted,
    /// Listing 1 with a CFS-style steal-half-the-imbalance step 3.
    StealHalf,
    /// Listing 1 with a NUMA-aware step-2 choice over the scenario topology.
    NumaAware,
    /// Listing 1 with the distance-ordered [`TopologyAwareChoice`] step 2
    /// (per-level thresholds and failure backoff), executed as flat rounds.
    TopoAware,
    /// The same topology-aware policy, but executed as *hierarchical*
    /// rounds: one level-capped pass per steal level, innermost first, on
    /// every backend (model `HierarchicalRound`, sim
    /// `HierarchicalScheduler`, rq `hierarchical_round`).
    Hierarchical,
    /// A policy compiled from a DSL definition — either inlined in a
    /// scenario document or parsed from source.  The catalogued
    /// `dsl(listing1)` rows use this with the stdlib Listing 1 program.
    Dsl(PolicyDef),
    /// Listing 1 over a PELT-style decayed thread count
    /// ([`sched_core::Policy::pelt`], half-life [`PELT_HALF_LIFE_NS`]).
    Pelt,
    /// The weighted balancer over a PELT-style decayed weighted load
    /// ([`sched_core::Policy::pelt_weighted`]).
    PeltWeighted,
    /// Listing 1 over a PELT-decayed thread count with an explicit
    /// half-life in milliseconds (the E21 sensitivity sweep).
    PeltHalfLife(u32),
}

impl PolicySpec {
    /// The stdlib Listing 1 program as a [`PolicySpec::Dsl`] recipe — the
    /// policy of the catalogued `dsl(listing1)` rows.
    pub fn dsl_listing1() -> PolicySpec {
        PolicySpec::Dsl(
            sched_dsl::parse(sched_dsl::stdlib::LISTING1)
                .expect("the stdlib Listing 1 source parses"),
        )
    }

    /// Display name used in records and tables.
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Listing1 => "listing1".into(),
            PolicySpec::Greedy => "greedy".into(),
            PolicySpec::Weighted => "weighted".into(),
            PolicySpec::StealHalf => "listing1+steal_half".into(),
            PolicySpec::NumaAware => "listing1+numa_choice".into(),
            PolicySpec::TopoAware => "listing1+topo_choice".into(),
            PolicySpec::Hierarchical => "hierarchical(topo)".into(),
            PolicySpec::Dsl(def) => format!("dsl({})", def.name),
            PolicySpec::Pelt => "listing1+pelt".into(),
            PolicySpec::PeltWeighted => "weighted+pelt".into(),
            PolicySpec::PeltHalfLife(ms) => format!("listing1+pelt({ms}ms)"),
        }
    }

    /// Name of the load criterion this policy balances (the `tracker` field
    /// of the JSON records, schema v3).
    pub fn tracker_name(&self) -> String {
        match self {
            PolicySpec::Weighted => "weighted".into(),
            PolicySpec::Pelt => "pelt(nr_threads, 8ms)".into(),
            PolicySpec::PeltWeighted => "pelt(weighted, 8ms)".into(),
            PolicySpec::PeltHalfLife(ms) => format!("pelt(nr_threads, {ms}ms)"),
            PolicySpec::Dsl(def) => {
                let base = match def.metric {
                    sched_dsl::MetricSpec::Threads => "nr_threads",
                    sched_dsl::MetricSpec::Weighted => "weighted",
                };
                match def.load {
                    Some(sched_dsl::LoadSpec::Pelt { half_life_ms }) => {
                        format!("pelt({base}, {half_life_ms}ms)")
                    }
                    _ => base.into(),
                }
            }
            _ => "nr_threads".into(),
        }
    }

    /// Returns `true` if backends must execute this spec as hierarchical
    /// (domain-ordered) rounds rather than flat machine-wide ones.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self, PolicySpec::Hierarchical)
    }

    /// Builds a fresh policy instance for one backend run.
    pub fn build(&self, topo: &Arc<MachineTopology>) -> Policy {
        match self {
            PolicySpec::Listing1 => Policy::simple(),
            PolicySpec::Greedy => Policy::greedy(),
            PolicySpec::Weighted => Policy::weighted(),
            PolicySpec::StealHalf => Policy::simple()
                .with_steal(Box::new(StealHalfImbalance::new(LoadMetric::NrThreads))),
            PolicySpec::NumaAware => Policy::simple().with_choice(Box::new(NumaAwareChoice::new(
                Arc::clone(topo),
                LoadMetric::NrThreads,
            ))),
            PolicySpec::TopoAware | PolicySpec::Hierarchical => Policy::simple().with_choice(
                Box::new(TopologyAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads)),
            ),
            PolicySpec::Dsl(def) => {
                sched_dsl::compile(def).expect("catalogued DSL policies compile").policy
            }
            PolicySpec::Pelt => Policy::pelt(PELT_HALF_LIFE_NS),
            PolicySpec::PeltWeighted => Policy::pelt_weighted(PELT_HALF_LIFE_NS),
            PolicySpec::PeltHalfLife(ms) => Policy::pelt(u64::from(*ms) * 1_000_000),
        }
    }
}

/// The machine a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// `cores` identical cores on one node.
    Flat(usize),
    /// The dual-socket 16-core server of the wasted-cores study.
    DualSocket,
    /// The eight-node NUMA machine of the hierarchical experiment.
    EightNode,
}

impl TopoSpec {
    /// Builds the topology.
    pub fn build(self) -> MachineTopology {
        match self {
            TopoSpec::Flat(cores) => {
                TopologyBuilder::new().sockets(1).cores_per_socket(cores).build()
            }
            TopoSpec::DualSocket => TopologyBuilder::new().sockets(2).cores_per_socket(8).build(),
            TopoSpec::EightNode => TopologyBuilder::eight_node_numa(),
        }
    }
}

/// The richer simulator workloads a scenario may carry on top of its load
/// vector (E9/E10 reproduce the paper's motivation numbers with these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Fork-join scientific workload sized to the machine.
    Scientific,
    /// OLTP workload sized to the machine.
    Oltp,
    /// Huge mostly-sleeping population with sparse bursts (E24) — sized to
    /// stress the asymptotic gap between the tick and event engines.
    Sleepers,
}

/// A simulator workload driver: the named generator plus its seed and
/// jitter, both carried in the scenario document (with per-kind defaults
/// matching the historical hardcoded values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Which generator runs.
    pub kind: WorkloadKind,
    /// RNG seed for the generator.
    pub seed: u64,
    /// Service-time jitter, in percent.
    pub jitter_pct: u32,
}

impl WorkloadSpec {
    /// A workload spec with the historical default seed/jitter for `kind`
    /// (scientific: seed 42, 5% jitter; OLTP: seed 7, 20% jitter;
    /// sleepers: seed 24, 20% jitter).
    pub fn new(kind: WorkloadKind) -> Self {
        match kind {
            WorkloadKind::Scientific => WorkloadSpec { kind, seed: 42, jitter_pct: 5 },
            WorkloadKind::Oltp => WorkloadSpec { kind, seed: 7, jitter_pct: 20 },
            WorkloadKind::Sleepers => WorkloadSpec { kind, seed: 24, jitter_pct: 20 },
        }
    }
}

/// A bursty on/off scenario layered over a spec's load vector: each epoch,
/// one core's tasks briefly go to sleep (its instantaneous load drops to
/// zero) and return at the epoch's end.  The time-averaged load of every
/// core is identical, so migrations performed during the blips are pure
/// churn — the shape experiment E17 uses to separate instantaneous from
/// decayed load criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpec {
    /// Number of sleep/wake epochs (one balancing round each).
    pub epochs: usize,
    /// Logical time between epochs, in nanoseconds.  Kept well below the
    /// PELT half-life so decayed loads barely move across one blip.
    pub epoch_ns: u64,
    /// Logical warm-up time before the first epoch, so decayed trackers
    /// have converged to the steady per-core load when the blinking starts.
    pub warmup_ns: u64,
    /// RNG seed for the simulator's blinker realisation of the shape.
    pub seed: u64,
    /// On/off cycle jitter for the simulator realisation, in percent.
    pub jitter_pct: u32,
}

impl BurstSpec {
    /// A burst spec with the historical default simulator seed (17) and
    /// jitter (40%).
    pub fn new(epochs: usize, epoch_ns: u64, warmup_ns: u64) -> Self {
        BurstSpec { epochs, epoch_ns, warmup_ns, seed: 17, jitter_pct: 40 }
    }
}

/// An overflow-storm driver replacing the run-to-convergence loop: each
/// epoch, a fan-out burst lands on core 0 and a fixed number of genuinely
/// concurrent balancing rounds runs against it **without any tick** — so
/// whatever the runqueue backend does with ring overflow is exactly what
/// thieves see — then the machine drains and the next burst fires.
///
/// The headline metric is [`sched_metrics::OverflowExposure`]: the
/// fraction of the machine left idle *after* each round while an
/// overloaded core still held waiting work.  A backend whose overflow
/// stays stealable (the shared injector) pins this at ~0; one that hides
/// overflow behind the tick (the legacy private spill) strands idle cores
/// for the rest of every epoch.  Only the runqueue backends execute storm
/// specs — the model and simulator have no ring to overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Number of burst/balance/drain epochs.
    pub epochs: usize,
    /// Tasks spawned onto core 0 at each epoch's start — sized well past
    /// the tiny flavours' ring capacity so most of the burst overflows.
    pub fanout: usize,
    /// Concurrent balancing rounds per epoch, run with no tick in between.
    pub rounds_per_epoch: usize,
}

/// An open-loop arrival driver for the real executor backend: Poisson
/// arrivals at a fixed offered rate, each request costing a sampled
/// service time, submitted on the generator's clock *regardless of
/// completions* — the load shape under which queueing delay (and so the
/// measured end-to-end p99/p999) is honest rather than self-throttled.
/// Only the `exec` backend executes open-loop specs: the model and
/// simulators have no wall clock to measure against, and the runqueue
/// harnesses drive balancing rounds, not request streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopDriverSpec {
    /// Offered arrival rate, in requests per second.
    pub rate_hz: u64,
    /// Generator horizon, in milliseconds of wall-clock time.
    pub duration_ms: u64,
    /// Per-request service-time distribution.
    pub service: sched_exec::ServiceMix,
    /// RNG seed for the arrival/service draws.
    pub seed: u64,
}

impl OpenLoopDriverSpec {
    /// The historical default generator seed.
    pub const DEFAULT_SEED: u64 = 11;

    /// An open-loop spec with the default seed.
    pub fn new(rate_hz: u64, duration_ms: u64, service: sched_exec::ServiceMix) -> Self {
        OpenLoopDriverSpec { rate_hz, duration_ms, service, seed: Self::DEFAULT_SEED }
    }

    /// The executor-crate form of this driver.
    pub fn exec_spec(&self) -> sched_exec::OpenLoopSpec {
        sched_exec::OpenLoopSpec {
            rate_hz: self.rate_hz,
            duration_ms: self.duration_ms,
            service: self.service,
            seed: self.seed,
        }
    }
}

/// How work arrives while the balancer runs — exactly one of the five
/// shapes.  The old spec carried `workload`/`burst`/`storm` as three
/// independent `Option`s whose illegal combinations were resolved by
/// backend-dependent precedence; as an enum those combinations are
/// unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Replay the initial load vector and balance to convergence (or the
    /// round budget).
    Replay,
    /// The simulator runs a named workload generator; the model and
    /// runqueue backends replay the load vector as usual.
    Workload(WorkloadSpec),
    /// Bursty on/off epochs replacing the run-to-convergence loop.
    Burst(BurstSpec),
    /// Overflow storms (runqueue backends only).
    Storm(StormSpec),
    /// Open-loop request stream on the real executor (`exec` backend only).
    OpenLoop(OpenLoopDriverSpec),
}

impl Driver {
    /// The burst parameters, if this is a burst driver.
    pub fn burst(&self) -> Option<BurstSpec> {
        match self {
            Driver::Burst(b) => Some(*b),
            _ => None,
        }
    }

    /// The storm parameters, if this is a storm driver.
    pub fn storm(&self) -> Option<StormSpec> {
        match self {
            Driver::Storm(s) => Some(*s),
            _ => None,
        }
    }

    /// The workload parameters, if this is a workload driver.
    pub fn workload(&self) -> Option<WorkloadSpec> {
        match self {
            Driver::Workload(w) => Some(*w),
            _ => None,
        }
    }

    /// The open-loop parameters, if this is an open-loop driver.
    pub fn openloop(&self) -> Option<OpenLoopDriverSpec> {
        match self {
            Driver::OpenLoop(o) => Some(*o),
            _ => None,
        }
    }
}

/// Steal-batch sizing for the E23 sweep: how many threads one successful
/// steal decision may claim in a single queue acquisition.  Maps onto
/// [`sched_rq::StealBatch`]; only the runqueue backends execute batch
/// specs — the model and simulator balance one abstract thread per steal
/// by construction, so a batched row there would measure nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchK {
    /// A fixed batch of `k` per acquisition; `Fixed(1)` is the Listing 1
    /// `stealOneThread` baseline every other point is compared against.
    Fixed(usize),
    /// Half the observed thief/victim imbalance (at least one) — the
    /// convergence-preserving transfer that leaves neither side more
    /// loaded than the other was.
    HalfImbalance,
}

impl BatchK {
    /// The swept batch sizes, in sweep order.
    pub const SWEEP: [BatchK; 5] = [
        BatchK::Fixed(1),
        BatchK::Fixed(2),
        BatchK::Fixed(4),
        BatchK::Fixed(8),
        BatchK::HalfImbalance,
    ];

    /// Stable record label for the JSON rows (schema v5 `steal_batch_k`).
    pub fn name(self) -> &'static str {
        match self {
            BatchK::Fixed(1) => "1",
            BatchK::Fixed(2) => "2",
            BatchK::Fixed(4) => "4",
            BatchK::Fixed(8) => "8",
            BatchK::Fixed(_) => "fixed",
            BatchK::HalfImbalance => "half",
        }
    }

    /// The runqueue-layer transfer-sizing policy this sweep point selects.
    fn steal_batch(self) -> sched_rq::StealBatch {
        match self {
            BatchK::Fixed(k) => sched_rq::StealBatch::Fixed(k),
            BatchK::HalfImbalance => sched_rq::StealBatch::HalfImbalance,
        }
    }
}

/// An invalid spec combination rejected by [`ExperimentSpecBuilder::build`]
/// or the [`mod@crate::catalog`] loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError(message.into())
    }
}

/// One experiment, declared once, executable on every backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Which experiment of the per-experiment index this scenario belongs to.
    pub id: ExperimentId,
    /// Human-readable scenario name.
    pub scenario: String,
    /// Initial per-core load vector (`loads[i]` threads start on core `i`).
    pub loads: Vec<usize>,
    /// Machine shape; `loads.len()` must equal its CPU count.
    pub topo: TopoSpec,
    /// Policy recipe.
    pub policy: PolicySpec,
    /// How work arrives while the balancer runs.
    pub driver: Driver,
    /// Balancing-round budget for the model and runqueue backends (replay
    /// and workload drivers; burst/storm epochs pace themselves).
    pub budget_rounds: usize,
    /// Give the initial tasks mixed niceness (cycling important / normal /
    /// background) instead of uniform `nice 0`.
    pub mixed_nice: bool,
    /// Steal-batch sizing override for the E23 sweep, if any (runqueue
    /// backends only; `None` keeps the one-thread-per-steal default).
    pub batch: Option<BatchK>,
    /// Backend matrix from the scenario document: only backends whose name
    /// appears here execute the spec.  `None` means every applicable
    /// backend (a backend may still decline, e.g. the model on storms).
    pub backends: Option<Vec<String>>,
    /// Driver-level event budget for the simulator backends (schema v6):
    /// both sim engines stop after this many processed events and report
    /// the run as truncated.  E24 uses it to cap the tick engine where the
    /// event engine finishes comfortably.  `None` means unbounded.
    pub events: Option<u64>,
    /// Same-time tie-break seed for the event-driven simulator backend
    /// (`OrderingPolicy::Seeded`); `None` keeps the parity-preserving
    /// priority ordering.  Recorded in repro scenarios emitted by the
    /// ordering sweep.
    pub order: Option<u64>,
}

impl ExperimentSpec {
    /// Starts building a spec; `build()` validates the combination.
    pub fn builder(id: ExperimentId, scenario: impl Into<String>) -> ExperimentSpecBuilder {
        ExperimentSpecBuilder {
            id,
            scenario: scenario.into(),
            loads: Vec::new(),
            topo: None,
            policy: PolicySpec::Listing1,
            driver: Driver::Replay,
            budget_rounds: 0,
            mixed_nice: false,
            batch: None,
            backends: None,
            events: None,
            order: None,
        }
    }

    /// Total threads in the initial load vector.
    pub fn nr_threads(&self) -> u64 {
        self.loads.iter().map(|&l| l as u64).sum()
    }

    /// The workload the simulator backend runs for this spec.
    pub(crate) fn sim_workload(&self, nr_cores: usize) -> Workload {
        match self.driver {
            Driver::Burst(burst) => {
                // The simulator realises the on/off shape natively: blinker
                // threads whose compute/sleep cycles open the same transient
                // imbalances the model/rq drivers script by hand.
                sched_workloads::OnOffWorkload {
                    nr_cores,
                    blinkers_per_core: 2,
                    cycles: burst.epochs.min(24),
                    on_ns: burst.epoch_ns * 2,
                    off_ns: burst.epoch_ns * 2,
                    jitter: f64::from(burst.jitter_pct) / 100.0,
                    seed: burst.seed,
                }
                .generate()
            }
            Driver::Workload(w) => match w.kind {
                WorkloadKind::Scientific => ScientificWorkload {
                    nr_threads: nr_cores,
                    iterations: 8,
                    phase_ns: 4_000_000,
                    jitter: f64::from(w.jitter_pct) / 100.0,
                    seed: w.seed,
                    fork_on_core: Some(0),
                }
                .generate(),
                WorkloadKind::Oltp => OltpWorkload {
                    nr_workers: nr_cores * 2,
                    transactions: 40,
                    service_ns: 500_000,
                    think_ns: 250_000,
                    jitter: f64::from(w.jitter_pct) / 100.0,
                    seed: w.seed,
                    initial_spread: 4,
                }
                .generate(),
                WorkloadKind::Sleepers => sched_workloads::SleeperWorkload {
                    nr_tasks: 1_000_000,
                    sleep_ns: 20_000_000_000,
                    jitter: f64::from(w.jitter_pct) / 100.0,
                    burst_percent: 2,
                    burst_ns: 500_000,
                    seed: w.seed,
                }
                .generate(),
            },
            // Open-loop specs never reach a simulator (every non-exec
            // backend declines them), so replaying the (empty) load vector
            // here is dead code kept only for match exhaustiveness.
            Driver::Replay | Driver::Storm(_) | Driver::OpenLoop(_) => {
                // Replay the load vector: `loads[i]` independent tasks of
                // fixed CPU time pinned to origin core `i`.
                let mut workload = Workload::new(format!("synthetic({})", self.scenario));
                let mut index = 0usize;
                for (core, &n) in self.loads.iter().enumerate() {
                    for _ in 0..n {
                        workload.push(ThreadSpec {
                            nice: if self.mixed_nice {
                                MIXED_NICE[index % MIXED_NICE.len()]
                            } else {
                                0
                            },
                            arrival_ns: 0,
                            origin_core: Some(core),
                            phases: vec![WorkloadPhase::Compute(SYNTH_TASK_NS)],
                        });
                        index += 1;
                    }
                }
                workload
            }
        }
    }
}

/// Builder for [`ExperimentSpec`] — the one construction path that checks
/// the combinations the type system alone cannot rule out (load vector vs
/// machine size, batch sizing vs driver shape, inline DSL compilability).
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    id: ExperimentId,
    scenario: String,
    loads: Vec<usize>,
    topo: Option<TopoSpec>,
    policy: PolicySpec,
    driver: Driver,
    budget_rounds: usize,
    mixed_nice: bool,
    batch: Option<BatchK>,
    backends: Option<Vec<String>>,
    events: Option<u64>,
    order: Option<u64>,
}

impl ExperimentSpecBuilder {
    /// Initial per-core load vector.
    pub fn loads(mut self, loads: Vec<usize>) -> Self {
        self.loads = loads;
        self
    }

    /// Machine shape.
    pub fn topo(mut self, topo: TopoSpec) -> Self {
        self.topo = Some(topo);
        self
    }

    /// Policy recipe (defaults to Listing 1).
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Arrival driver (defaults to [`Driver::Replay`]).
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Balancing-round budget (defaults to 0).
    pub fn budget_rounds(mut self, budget: usize) -> Self {
        self.budget_rounds = budget;
        self
    }

    /// Mixed-importance niceness cycling.
    pub fn mixed_nice(mut self, mixed: bool) -> Self {
        self.mixed_nice = mixed;
        self
    }

    /// Steal-batch sizing override.
    pub fn batch(mut self, batch: BatchK) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Restrict execution to the named backends.
    pub fn backends(mut self, backends: Vec<String>) -> Self {
        self.backends = Some(backends);
        self
    }

    /// Event budget for the simulator backends.
    pub fn events(mut self, events: u64) -> Self {
        self.events = Some(events);
        self
    }

    /// Same-time tie-break seed for the event-driven simulator backend.
    pub fn order(mut self, seed: u64) -> Self {
        self.order = Some(seed);
        self
    }

    /// Validates and builds the spec.
    pub fn build(self) -> Result<ExperimentSpec, SpecError> {
        let scenario = &self.scenario;
        let topo = self
            .topo
            .ok_or_else(|| SpecError::new(format!("{scenario}: a spec needs a topology")))?;
        if self.loads.is_empty() {
            return Err(SpecError::new(format!("{scenario}: a spec needs a load vector")));
        }
        let nr_cpus = topo.build().nr_cpus();
        if nr_cpus != self.loads.len() {
            return Err(SpecError::new(format!(
                "{scenario}: load vector has {} entries but the machine has {nr_cpus} cores",
                self.loads.len()
            )));
        }
        if self.batch.is_some() && !matches!(self.driver, Driver::Replay | Driver::Storm(_)) {
            // The old option-bag API silently dropped the batch on burst
            // drivers (no backend read it there); now it's unrepresentable
            // noise, so reject it loudly.
            return Err(SpecError::new(format!(
                "{scenario}: a steal batch applies to replay and storm drivers only"
            )));
        }
        if let PolicySpec::Dsl(def) = &self.policy {
            sched_dsl::compile(def).map_err(|e| {
                SpecError::new(format!("{scenario}: inline policy does not compile: {e}"))
            })?;
        }
        // The simulator backends have no ring to overflow and no per-steal
        // queue acquisition: a backend matrix that *names* one of them on a
        // storm or batch spec is a contradiction, rejected here instead of
        // silently producing no record at run time.
        if let Some(backends) = &self.backends {
            if backends.iter().any(|b| b.starts_with("sim"))
                && (matches!(self.driver, Driver::Storm(_)) || self.batch.is_some())
            {
                return Err(SpecError::new(format!(
                    "{scenario}: the simulator backends cannot execute storm or batch specs"
                )));
            }
        }
        // Open-loop streams run on the real executor alone: any other
        // backend named in the matrix would silently produce no record,
        // and with no matrix at all the intent is ambiguous, so the spec
        // must say `backends ["exec"]` explicitly.
        if matches!(self.driver, Driver::OpenLoop(_)) {
            match &self.backends {
                Some(backends) if backends.iter().all(|b| b == "exec") && !backends.is_empty() => {}
                Some(_) => {
                    return Err(SpecError::new(format!(
                        "{scenario}: an open-loop driver runs on the `exec` backend only"
                    )))
                }
                None => {
                    return Err(SpecError::new(format!(
                        "{scenario}: an open-loop spec must declare `backends [\"exec\"]`"
                    )))
                }
            }
            // The executor parks with no timer, so it refuses a filter whose
            // verdict can change with no enqueue to signal it.
            let filter = self.policy.build(&Arc::new(topo.build())).filter;
            if !filter.is_event_stable() {
                return Err(SpecError::new(format!(
                    "{scenario}: the executor needs an event-stable filter, and `{}` is not \
                     (decayed loads and DSL filters are refused)",
                    filter.name()
                )));
            }
        }
        if self.events.is_some() && matches!(self.driver, Driver::Storm(_) | Driver::OpenLoop(_)) {
            return Err(SpecError::new(format!(
                "{scenario}: an event budget applies to the simulator backends only, \
                 which cannot execute this driver"
            )));
        }
        Ok(ExperimentSpec {
            id: self.id,
            scenario: self.scenario,
            loads: self.loads,
            topo,
            policy: self.policy,
            driver: self.driver,
            budget_rounds: self.budget_rounds,
            mixed_nice: self.mixed_nice,
            batch: self.batch,
            backends: self.backends,
            events: self.events,
            order: self.order,
        })
    }
}

/// What one backend measured for one spec.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment id, lowercase (`"e5"`).
    pub experiment: String,
    /// Scenario name from the spec.
    pub scenario: String,
    /// Backend name (`"model"`, `"sim"`, `"rq"`).
    pub backend: &'static str,
    /// Policy name from the spec.
    pub policy: String,
    /// Name of the load criterion the policy balanced (schema v3).
    pub tracker: String,
    /// Machine size.
    pub cores: usize,
    /// Initial thread count.
    pub threads: u64,
    /// Backend-specific throughput (see `throughput_unit`).
    pub throughput: f64,
    /// What `throughput` counts: `"migrations/s"` (model, rq, wall-clock)
    /// or `"ops/s"` (sim, simulated time).
    pub throughput_unit: &'static str,
    /// Fraction of core-time idle while another core was overloaded.
    pub violating_idle: f64,
    /// Rounds to reach work conservation, if the backend converged.
    pub convergence_rounds: Option<usize>,
    /// Successful steals.
    pub migrations: u64,
    /// Failed steal attempts (stale selections re-checked away).
    pub failures: u64,
    /// Where the migrated threads came from, bucketed by steal level.
    pub locality: StealLocality,
    /// Runqueue discipline of the backend (`"mutex"`, `"deque"`), for the
    /// rq backends only (schema v4).
    pub rq_backend: Option<&'static str>,
    /// p99 scheduling latency in microseconds — the time between a thread
    /// becoming runnable and first running (schema v4).  Only the
    /// simulator backend carries a latency recorder; `None` elsewhere.
    pub p99_sched_latency_us: Option<f64>,
    /// Measured wall-clock end-to-end p99 request latency in microseconds
    /// — submit to completion on the real executor, open-loop arrivals
    /// (schema v8).  Only the `exec` backend measures it; `None` elsewhere.
    pub e2e_p99_us: Option<f64>,
    /// Measured wall-clock end-to-end p999 request latency in microseconds
    /// (schema v8; see `e2e_p99_us`).
    pub e2e_p999_us: Option<f64>,
    /// Batch-size label of the E23 sweep (`"1"`, `"2"`, `"4"`, `"8"`,
    /// `"half"`; schema v5).  `None` on non-batch records.
    pub steal_batch_k: Option<&'static str>,
    /// Threads migrated per successful steal acquisition (schema v5).
    /// `migrations / successes`: exactly 1.0 at `k = 1`, strictly above it
    /// when batching amortises acquisitions.  Only batch-sweep records
    /// measure it; `None` elsewhere.
    pub tasks_per_acquisition: Option<f64>,
    /// Violating-idle fraction per NUMA node, in node order.
    pub per_node_violating_idle: Vec<f64>,
    /// Which simulation engine produced this record (`"tick"` or
    /// `"event"`; schema v6).  `None` on non-simulator backends.
    pub sim_engine: Option<&'static str>,
    /// Discrete events the simulation engine processed (schema v6).
    /// `None` on non-simulator backends.
    pub events_processed: Option<u64>,
    /// Final per-core thread counts when the backend finished, for
    /// invariant checking (conservation of tasks, non-inversion).
    /// Serialized only by [`records_to_json_full`] (`--full-records`,
    /// schema v7); default documents omit the key entirely.  The simulator
    /// leaves it empty (its tasks run to completion, so there is no final
    /// residency to conserve).
    pub final_loads: Vec<usize>,
    /// Wall-clock cost of the run, in milliseconds.
    pub wall_ms: f64,
}

impl ExperimentRecord {
    /// Fraction of level-attributed migrations that crossed a NUMA node
    /// boundary.
    pub fn remote_steal_rate(&self) -> f64 {
        self.locality.remote_rate()
    }

    /// The record as a JSON object (the default, v6-shaped record).
    pub fn to_json(&self) -> JsonValue {
        self.to_json_opts(false)
    }

    /// The record as a JSON object; `full` additionally serializes the
    /// `final_loads` vector (schema v7, the `--full-records` flag).
    pub fn to_json_opts(&self, full: bool) -> JsonValue {
        let levels = self.locality.counts();
        let mut fields = vec![
            ("experiment", JsonValue::Str(self.experiment.clone())),
            ("scenario", JsonValue::Str(self.scenario.clone())),
            ("backend", JsonValue::Str(self.backend.into())),
            ("policy", JsonValue::Str(self.policy.clone())),
            ("tracker", JsonValue::Str(self.tracker.clone())),
            ("cores", JsonValue::Int(self.cores as i64)),
            ("threads", JsonValue::Int(self.threads as i64)),
            ("throughput", JsonValue::Float(self.throughput)),
            ("throughput_unit", JsonValue::Str(self.throughput_unit.into())),
            ("violating_idle", JsonValue::Float(self.violating_idle)),
            (
                "convergence_rounds",
                match self.convergence_rounds {
                    Some(r) => JsonValue::Int(r as i64),
                    None => JsonValue::Null,
                },
            ),
            ("migrations", JsonValue::Int(self.migrations as i64)),
            ("failures", JsonValue::Int(self.failures as i64)),
            ("steals_smt", JsonValue::Int(levels[0] as i64)),
            ("steals_llc", JsonValue::Int(levels[1] as i64)),
            ("steals_node", JsonValue::Int(levels[2] as i64)),
            ("steals_remote", JsonValue::Int(levels[3] as i64)),
            ("remote_steal_rate", JsonValue::Float(self.remote_steal_rate())),
            (
                "rq_backend",
                match self.rq_backend {
                    Some(name) => JsonValue::Str(name.into()),
                    None => JsonValue::Null,
                },
            ),
            (
                "p99_sched_latency_us",
                match self.p99_sched_latency_us {
                    Some(us) => JsonValue::Float(us),
                    None => JsonValue::Null,
                },
            ),
            (
                "steal_batch_k",
                match self.steal_batch_k {
                    Some(k) => JsonValue::Str(k.into()),
                    None => JsonValue::Null,
                },
            ),
            (
                "tasks_per_acquisition",
                match self.tasks_per_acquisition {
                    Some(t) => JsonValue::Float(t),
                    None => JsonValue::Null,
                },
            ),
            (
                "per_node_violating_idle",
                JsonValue::Array(
                    self.per_node_violating_idle.iter().map(|&v| JsonValue::Float(v)).collect(),
                ),
            ),
            (
                "sim_engine",
                match self.sim_engine {
                    Some(engine) => JsonValue::Str(engine.into()),
                    None => JsonValue::Null,
                },
            ),
            (
                "events_processed",
                match self.events_processed {
                    Some(n) => JsonValue::Int(n as i64),
                    None => JsonValue::Null,
                },
            ),
            (
                "e2e_p99_us",
                match self.e2e_p99_us {
                    Some(us) => JsonValue::Float(us),
                    None => JsonValue::Null,
                },
            ),
            (
                "e2e_p999_us",
                match self.e2e_p999_us {
                    Some(us) => JsonValue::Float(us),
                    None => JsonValue::Null,
                },
            ),
            ("wall_ms", JsonValue::Float(self.wall_ms)),
        ];
        if full {
            fields.push((
                "final_loads",
                JsonValue::Array(
                    self.final_loads.iter().map(|&n| JsonValue::Int(n as i64)).collect(),
                ),
            ));
        }
        object(fields)
    }
}

/// One way of executing an [`ExperimentSpec`].
pub trait Backend {
    /// Short name used in records (`"model"`, `"sim"`, `"rq"`).
    fn name(&self) -> &'static str;

    /// Executes the spec, or returns `None` if this backend cannot run it.
    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord>;
}

fn record_base(spec: &ExperimentSpec, backend: &'static str) -> ExperimentRecord {
    ExperimentRecord {
        experiment: format!("{:?}", spec.id).to_ascii_lowercase(),
        scenario: spec.scenario.clone(),
        backend,
        policy: spec.policy.name(),
        tracker: spec.policy.tracker_name(),
        cores: spec.loads.len(),
        threads: spec.nr_threads(),
        throughput: 0.0,
        throughput_unit: "migrations/s",
        violating_idle: 0.0,
        convergence_rounds: None,
        migrations: 0,
        failures: 0,
        locality: StealLocality::new(),
        rq_backend: None,
        p99_sched_latency_us: None,
        e2e_p99_us: None,
        e2e_p999_us: None,
        steal_batch_k: spec.batch.map(BatchK::name),
        tasks_per_acquisition: None,
        per_node_violating_idle: Vec::new(),
        sim_engine: None,
        events_processed: None,
        final_loads: Vec::new(),
        wall_ms: 0.0,
    }
}

/// Samples the per-node idle fraction of one pre-convergence round into the
/// running per-node violation accumulators.
fn sample_node_idle(acc: &mut [f64], topo: &MachineTopology, is_idle: impl Fn(usize) -> bool) {
    for (node, slot) in acc.iter_mut().enumerate() {
        let cpus = topo.cpus_of_node(NodeId(node));
        let idle = cpus.iter().filter(|c| is_idle(c.0)).count();
        *slot += idle as f64 / cpus.len() as f64;
    }
}

/// Averages per-node accumulators over the sampled rounds.
fn finish_node_idle(acc: Vec<f64>, sampled_rounds: u64) -> Vec<f64> {
    if sampled_rounds == 0 {
        acc.into_iter().map(|_| 0.0).collect()
    } else {
        acc.into_iter().map(|v| v / sampled_rounds as f64).collect()
    }
}

/// Niceness of the `i`-th spawned task under a spec (uniform `nice 0`
/// unless the spec asks for mixed importance).
fn nice_of(spec: &ExperimentSpec, index: u64) -> Nice {
    if spec.mixed_nice {
        Nice::new(MIXED_NICE[(index as usize) % MIXED_NICE.len()])
    } else {
        Nice::NORMAL
    }
}

/// Final per-core thread counts of a model system.
fn model_final_loads(system: &SystemState) -> Vec<usize> {
    (0..system.nr_cores()).map(|c| system.core(CoreId(c)).nr_threads() as usize).collect()
}

/// Final per-core thread counts of a runqueue machine.
fn rq_final_loads(snapshots: &[sched_core::CoreSnapshot]) -> Vec<usize> {
    snapshots.iter().map(|s| s.nr_threads as usize).collect()
}

/// Pure-model backend: concurrent balancing rounds on
/// [`sched_core::SystemState`], no time, no threads — the altitude the
/// proofs live at.
pub struct ModelBackend;

impl ModelBackend {
    /// The bursty on/off driver: each epoch one core's tasks sleep, a
    /// single balancing round runs against the blipped state, and the
    /// sleepers return.  Counts the churn those blips induce.
    fn run_burst(
        &self,
        spec: &ExperimentSpec,
        burst: BurstSpec,
        mut system: SystemState,
        topo: &Arc<MachineTopology>,
    ) -> ExperimentRecord {
        let balancer = Balancer::new(spec.policy.build(topo));
        let tracker = Arc::clone(&balancer.policy().tracker);
        let executor = ConcurrentRound::new(&balancer);
        let mut record = record_base(spec, "model");
        let nr_cores = system.nr_cores();
        let mut node_idle = vec![0.0f64; topo.nr_nodes()];
        let mut violating_core_rounds = 0.0f64;

        // Warm up: let decayed trackers converge to the steady loads.
        let mut now = burst.warmup_ns;
        system.tick(now, tracker.as_ref());

        let start = Instant::now();
        for epoch in 0..burst.epochs {
            // One core's tasks go to sleep: stash them away.
            let sleeper = CoreId(epoch % nr_cores);
            let parked_current = system.core_mut(sleeper).current.take();
            let parked_ready = std::mem::take(&mut system.core_mut(sleeper).ready);

            now += burst.epoch_ns;
            system.tick(now, tracker.as_ref());
            let idle = system.idle_cores();
            violating_core_rounds += idle.len() as f64 / nr_cores as f64;
            sample_node_idle(&mut node_idle, topo, |c| idle.contains(&CoreId(c)));

            let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
            record.migrations += report.nr_stolen() as u64;
            record.failures += report.nr_failures() as u64;
            for attempt in report.successes() {
                let victim = attempt.outcome.victim().expect("successes have victims");
                record.locality.record(
                    topo.steal_level(attempt.thief, victim),
                    attempt.outcome.nr_stolen() as u64,
                );
            }

            // The sleepers wake on their own core.
            if let Some(task) = parked_current {
                system.core_mut(sleeper).enqueue(task);
            }
            for task in parked_ready {
                system.core_mut(sleeper).enqueue(task);
            }
        }
        let wall = start.elapsed();

        record.wall_ms = wall.as_secs_f64() * 1e3;
        record.throughput = if wall.as_secs_f64() > 0.0 {
            record.migrations as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        record.violating_idle = violating_core_rounds / burst.epochs.max(1) as f64;
        record.per_node_violating_idle = finish_node_idle(node_idle, burst.epochs as u64);
        record.final_loads = model_final_loads(&system);
        record
    }
}

impl Backend for ModelBackend {
    fn name(&self) -> &'static str {
        "model"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        // Overflow storms probe ring-overflow handling; the model has no
        // ring, so there is nothing for it to measure.  Batch sweeps probe
        // how many queue acquisitions a transfer costs; the model moves one
        // abstract thread per steal with no queue to acquire.
        if spec.driver.storm().is_some() || spec.driver.openloop().is_some() || spec.batch.is_some()
        {
            return None;
        }
        let topo = Arc::new(spec.topo.build());
        if topo.nr_cpus() != spec.loads.len() {
            return None;
        }
        let mut system = SystemState::with_topology(&topo);
        let mut next_task = 0u64;
        for (core, &n) in spec.loads.iter().enumerate() {
            for _ in 0..n {
                system
                    .core_mut(CoreId(core))
                    .enqueue(Task::with_nice(TaskId(next_task), nice_of(spec, next_task)));
                next_task += 1;
            }
        }

        if let Some(burst) = spec.driver.burst() {
            return Some(self.run_burst(spec, burst, system, &topo));
        }

        let balancer = Balancer::new(spec.policy.build(&topo));
        let tracker = Arc::clone(&balancer.policy().tracker);
        let hierarchical = spec
            .policy
            .is_hierarchical()
            .then(|| HierarchicalRound::new(&balancer, Arc::clone(&topo)));
        let executor = ConcurrentRound::new(&balancer);
        let mut record = record_base(spec, self.name());
        let nr_cores = spec.loads.len();
        let mut violating_core_rounds = 0.0f64;
        let mut node_idle = vec![0.0f64; topo.nr_nodes()];
        let mut sampled_rounds = 0u64;

        // Folds one round's attempts into the counters, attributing every
        // successful steal to its distance class.
        let absorb = |record: &mut ExperimentRecord, report: &RoundReport| {
            record.migrations += report.nr_stolen() as u64;
            record.failures += report.nr_failures() as u64;
            for attempt in report.successes() {
                let victim = attempt.outcome.victim().expect("successes have victims");
                record.locality.record(
                    topo.steal_level(attempt.thief, victim),
                    attempt.outcome.nr_stolen() as u64,
                );
            }
        };

        let start = Instant::now();
        for round in 0..=spec.budget_rounds {
            // One balancing period elapses per round; decayed criteria fold
            // it into every core's tracked load before selecting victims.
            system.tick((round as u64 + 1) * ROUND_NS, tracker.as_ref());
            if system.is_work_conserving() {
                record.convergence_rounds = Some(round);
                break;
            }
            if round == spec.budget_rounds {
                break;
            }
            violating_core_rounds += system.idle_cores().len() as f64 / nr_cores as f64;
            let idle = system.idle_cores();
            sample_node_idle(&mut node_idle, &topo, |c| idle.contains(&CoreId(c)));
            sampled_rounds += 1;
            match &hierarchical {
                Some(hier) => {
                    let report = hier.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
                    for pass in &report.passes {
                        absorb(&mut record, &pass.report);
                    }
                }
                None => {
                    let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
                    absorb(&mut record, &report);
                }
            }
        }
        let wall = start.elapsed();

        record.wall_ms = wall.as_secs_f64() * 1e3;
        record.throughput = if wall.as_secs_f64() > 0.0 {
            record.migrations as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        // Average fraction of cores sitting idle per pre-convergence round;
        // every idle core in a non-work-conserving state is a violation by
        // definition.
        record.violating_idle =
            if sampled_rounds == 0 { 0.0 } else { violating_core_rounds / sampled_rounds as f64 };
        record.per_node_violating_idle = finish_node_idle(node_idle, sampled_rounds);
        record.final_loads = model_final_loads(&system);
        Some(record)
    }
}

/// Discrete-event simulator backend: the spec's workload (or its load
/// vector replayed as pinned tasks) on [`sched_sim::Engine`] with the
/// optimistic scheduler driven by the spec's policy.
pub struct SimBackend;

/// Event-driven flavour of the simulator backend (record backend
/// `"sim-event"`): the identical scenario on [`sched_sim::EventEngine`],
/// whose cost scales with the number of events rather than `cores ×
/// horizon`.  Under the default priority tie-break its records match the
/// tick engine's exactly (pinned by the parity tests); a spec carrying an
/// `order` seed instead runs it under a seeded same-time permutation.
pub struct SimEventBackend;

/// Which simulation engine a sim backend drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// The cycle-accurate tick engine ([`sched_sim::Engine`]).
    Tick,
    /// The event-driven engine ([`sched_sim::EventEngine`]).
    Event,
}

/// Runs one spec on the chosen simulation engine and returns the raw
/// simulator result, honouring the spec's `events` budget and (on the
/// event engine) its `order` seed.  This is the hook the scenario fuzzer's
/// ordering sweep and the engine-parity tests drive: they compare result
/// quantities (`finished`, `operations`, `makespan_ns`, …) that record
/// stamping would discard.  Returns `None` for specs the simulator cannot
/// execute (storms, batch sweeps, mis-sized load vectors).
pub fn run_sim_result(engine: SimEngine, spec: &ExperimentSpec) -> Option<sched_sim::SimResult> {
    use sched_sim::{
        Engine, EventEngine, HierarchicalScheduler, OptimisticScheduler, OrderingPolicy, SimConfig,
        SimScheduler,
    };

    if spec.driver.storm().is_some() || spec.driver.openloop().is_some() || spec.batch.is_some() {
        return None;
    }
    let topo = Arc::new(spec.topo.build());
    if topo.nr_cpus() != spec.loads.len() {
        return None;
    }
    let workload = spec.sim_workload(topo.nr_cpus());
    let scheduler: Box<dyn SimScheduler> = if spec.policy.is_hierarchical() {
        Box::new(HierarchicalScheduler::new(spec.policy.build(&topo), Arc::clone(&topo)))
    } else {
        Box::new(OptimisticScheduler::with_topology(spec.policy.build(&topo), Arc::clone(&topo)))
    };
    let mut config = SimConfig::default();
    if let Some(budget) = spec.events {
        config = config.with_event_budget(budget);
    }
    if engine == SimEngine::Event {
        if let Some(seed) = spec.order {
            config = config.with_ordering(OrderingPolicy::Seeded(seed));
        }
    }
    Some(match engine {
        SimEngine::Tick => Engine::new(config, Some(&topo), &workload, scheduler).run(),
        SimEngine::Event => EventEngine::new(config, Some(&topo), &workload, scheduler).run(),
    })
}

/// Runs one spec on the chosen simulation engine, labelling the record
/// with `backend`; with `--trace DIR` set the run is recorded and
/// exported.  Both engines share the scenario construction, the measured
/// quantities and the schema-v6 engine columns.
fn run_sim_spec(
    engine: SimEngine,
    backend: &'static str,
    spec: &ExperimentSpec,
) -> Option<ExperimentRecord> {
    let sink = trace_sink_for(spec.loads.len());
    let record = run_sim_spec_with_sink(engine, backend, spec, sink.as_ref())?;
    if let Some(sink) = &sink {
        export_trace(spec, backend, sink);
    }
    Some(record)
}

/// Runs `spec` on the chosen simulation engine with a recording
/// [`sched_trace::TraceSink`] attached, returning the record together
/// with the drained decision trace.  This is the entry point the
/// fuzzer's sanity leg and the E25 experiment use; `--trace DIR` instead
/// routes through the process-global export directory.
pub fn run_sim_traced(
    engine: SimEngine,
    spec: &ExperimentSpec,
) -> Option<(ExperimentRecord, sched_trace::Trace)> {
    let backend = match engine {
        SimEngine::Tick => "sim",
        SimEngine::Event => "sim-event",
    };
    let sink = sched_trace::TraceSink::recording(spec.loads.len());
    let record = run_sim_spec_with_sink(engine, backend, spec, Some(&sink))?;
    Some((record, sink.drain()))
}

fn run_sim_spec_with_sink(
    engine: SimEngine,
    backend: &'static str,
    spec: &ExperimentSpec,
    sink: Option<&sched_trace::TraceSink>,
) -> Option<ExperimentRecord> {
    use sched_sim::{
        Engine, EventEngine, HierarchicalScheduler, OptimisticScheduler, OrderingPolicy, SimConfig,
        SimScheduler,
    };

    // Like the model, the simulator has no fixed-capacity ring and
    // cannot execute an overflow storm, and no per-steal queue
    // acquisition for a batch sweep to amortise.
    if spec.driver.storm().is_some() || spec.driver.openloop().is_some() || spec.batch.is_some() {
        return None;
    }
    let topo = Arc::new(spec.topo.build());
    if topo.nr_cpus() != spec.loads.len() {
        return None;
    }
    let workload = spec.sim_workload(topo.nr_cpus());
    let scheduler: Box<dyn SimScheduler> = if spec.policy.is_hierarchical() {
        Box::new(HierarchicalScheduler::new(spec.policy.build(&topo), Arc::clone(&topo)))
    } else {
        Box::new(OptimisticScheduler::with_topology(spec.policy.build(&topo), Arc::clone(&topo)))
    };
    let mut config = SimConfig::default();
    if let Some(budget) = spec.events {
        config = config.with_event_budget(budget);
    }
    if engine == SimEngine::Event {
        if let Some(seed) = spec.order {
            config = config.with_ordering(OrderingPolicy::Seeded(seed));
        }
    }

    let start = Instant::now();
    let result = match engine {
        SimEngine::Tick => {
            let mut driver = Engine::new(config, Some(&topo), &workload, scheduler);
            if let Some(sink) = sink {
                driver.set_trace_sink(sink.clone());
            }
            driver.run()
        }
        SimEngine::Event => {
            let mut driver = EventEngine::new(config, Some(&topo), &workload, scheduler);
            if let Some(sink) = sink {
                driver.set_trace_sink(sink.clone());
            }
            driver.run()
        }
    };
    let wall = start.elapsed();

    let mut record = record_base(spec, backend);
    record.threads = workload.nr_threads() as u64;
    record.throughput = result.throughput_ops_per_sec();
    record.throughput_unit = "ops/s";
    record.violating_idle = result.violating_idle_fraction();
    record.migrations = result.balance.migrations;
    record.failures = result.balance.failures;
    record.locality = result.balance.locality();
    record.p99_sched_latency_us = Some(result.latency.quantile(0.99) as f64 / 1e3);
    record.per_node_violating_idle = (0..topo.nr_nodes())
        .map(|n| {
            let cpus: Vec<usize> = topo.cpus_of_node(NodeId(n)).iter().map(|c| c.0).collect();
            result.idle.violation_fraction_of(&cpus)
        })
        .collect();
    record.sim_engine = Some(match engine {
        SimEngine::Tick => "tick",
        SimEngine::Event => "event",
    });
    record.events_processed = Some(result.events_processed);
    record.wall_ms = wall.as_secs_f64() * 1e3;
    Some(record)
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        run_sim_spec(SimEngine::Tick, self.name(), spec)
    }
}

impl Backend for SimEventBackend {
    fn name(&self) -> &'static str {
        "sim-event"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        run_sim_spec(SimEngine::Event, self.name(), spec)
    }
}

/// Real-thread backends: the spec's load vector on
/// [`sched_rq::MultiQueue`], one OS thread per core per round, lock-less
/// selection and a genuinely contended stealing phase.  Generic over the
/// [`sched_rq::RqBackend`] runqueue discipline, so the mutex and the
/// lock-free deque machines run the *identical* driver:
///
/// * [`RqBackend`] — record backend `"rq"`, mutex runqueues (double-lock
///   stealing); the keys every historical baseline gates on.
/// * [`RqDequeBackend`] — record backend `"rq-deque"`, Chase–Lev
///   runqueues (CAS stealing).
pub struct RqBackend;

/// The lock-free flavour of the real-thread backend (see [`RqBackend`]).
pub struct RqDequeBackend;

/// The threaded twin of [`ModelBackend::run_burst`]: per epoch, drain
/// one core (its tasks "sleep"), run one genuinely concurrent round
/// against the blipped state, then respawn the sleepers on their core.
fn run_rq_burst<B: sched_rq::RqBackend>(
    backend: &'static str,
    spec: &ExperimentSpec,
    burst: BurstSpec,
    mq: MultiQueue<B>,
    topo: &Arc<MachineTopology>,
) -> ExperimentRecord {
    let policy = spec.policy.build(topo);
    let mut record = record_base(spec, backend);
    record.rq_backend = Some(B::backend_name());
    let nr_cores = spec.loads.len();
    let mut node_idle = vec![0.0f64; topo.nr_nodes()];
    let mut violating_core_rounds = 0.0f64;

    let mut now = burst.warmup_ns;
    mq.tick(now);

    let start = Instant::now();
    for epoch in 0..burst.epochs {
        let sleeper = CoreId(epoch % nr_cores);
        let mut parked = Vec::new();
        while let Some(task) = mq.core(sleeper).complete_current() {
            parked.push(task.nice);
        }

        now += burst.epoch_ns;
        mq.tick(now);
        let snapshots = mq.snapshots();
        let idle = snapshots.iter().filter(|s| s.nr_threads == 0).count();
        violating_core_rounds += idle as f64 / nr_cores as f64;
        sample_node_idle(&mut node_idle, topo, |c| snapshots[c].nr_threads == 0);

        let stats = mq.concurrent_round(&policy);
        record.migrations += stats.migrations();
        record.failures += stats.failures();
        record.locality.merge(&StealLocality::from_counts(stats.level_migration_counts()));

        for nice in parked {
            mq.spawn_on_with_nice(sleeper, nice);
        }
    }
    let wall = start.elapsed();

    record.wall_ms = wall.as_secs_f64() * 1e3;
    record.throughput =
        if wall.as_secs_f64() > 0.0 { record.migrations as f64 / wall.as_secs_f64() } else { 0.0 };
    record.violating_idle = violating_core_rounds / burst.epochs.max(1) as f64;
    record.per_node_violating_idle = finish_node_idle(node_idle, burst.epochs as u64);
    record.final_loads = rq_final_loads(&mq.snapshots());
    record
}

/// The overflow-storm driver (see [`StormSpec`]): per epoch, a fan-out
/// burst lands on core 0, `rounds_per_epoch` genuinely concurrent rounds
/// run against it with **no tick** in between, and the machine drains.
/// After every round the settled state is sampled: a core still idle while
/// an overloaded core holds waiting work is the violation this experiment
/// exists to measure — on a conserving overflow discipline the burst is
/// fully reachable, so the post-round idle count is ~0; on one that hides
/// overflow the stranded cores persist for the rest of the epoch.
fn run_rq_storm<B: sched_rq::RqBackend>(
    backend: &'static str,
    spec: &ExperimentSpec,
    storm: StormSpec,
    mq: MultiQueue<B>,
    topo: &Arc<MachineTopology>,
) -> ExperimentRecord {
    let policy = spec.policy.build(topo);
    let mut record = record_base(spec, backend);
    record.rq_backend = Some(B::backend_name());
    let batch = spec.batch.map(BatchK::steal_batch).unwrap_or_default();
    let mut successes = 0u64;
    let nr_cores = spec.loads.len();
    let mut exposure = sched_metrics::OverflowExposure::new(nr_cores);
    let mut node_idle = vec![0.0f64; topo.nr_nodes()];
    let mut now = 0u64;

    let start = Instant::now();
    for _ in 0..storm.epochs {
        // The burst: far past the tiny flavours' ring capacity, so most of
        // it lands wherever the backend parks overflow.
        for _ in 0..storm.fanout {
            mq.spawn_on(CoreId(0));
        }
        for _ in 0..storm.rounds_per_epoch {
            let stats = mq.concurrent_round_batched(&policy, batch);
            record.migrations += stats.migrations();
            record.failures += stats.failures();
            successes += stats.successes();
            record.locality.merge(&StealLocality::from_counts(stats.level_migration_counts()));
            // Sample the *settled* state: idle-after-a-full-round while
            // work waits is exactly the conservation violation.
            let snapshots = mq.snapshots();
            let idle = snapshots.iter().filter(|s| s.nr_threads == 0).count();
            let work_waiting = snapshots.iter().any(|s| s.nr_threads >= 2);
            exposure.record_round(idle, work_waiting);
            if work_waiting {
                sample_node_idle(&mut node_idle, topo, |c| snapshots[c].nr_threads == 0);
            }
        }
        // Epoch boundary: the tick fires (this is where the legacy spill
        // finally re-exposes stranded work) and the machine drains for the
        // next burst.
        now += ROUND_NS;
        mq.tick(now);
        for core in 0..nr_cores {
            while mq.core(CoreId(core)).complete_current().is_some() {}
        }
    }
    let wall = start.elapsed();

    record.wall_ms = wall.as_secs_f64() * 1e3;
    record.throughput =
        if wall.as_secs_f64() > 0.0 { record.migrations as f64 / wall.as_secs_f64() } else { 0.0 };
    record.violating_idle = exposure.violating_fraction();
    record.per_node_violating_idle = finish_node_idle(node_idle, exposure.sampled_rounds());
    if spec.batch.is_some() {
        record.tasks_per_acquisition =
            Some(if successes > 0 { record.migrations as f64 / successes as f64 } else { 0.0 });
    }
    record.final_loads = rq_final_loads(&mq.snapshots());
    record
}

/// Runs one spec on a machine of `B`-discipline runqueues, labelling the
/// record with `backend`; with `--trace DIR` set the run is recorded and
/// exported.
fn run_rq_spec<B: sched_rq::RqBackend>(
    backend: &'static str,
    spec: &ExperimentSpec,
) -> Option<ExperimentRecord> {
    let sink = trace_sink_for(spec.loads.len());
    let record = run_rq_spec_with_sink::<B>(backend, spec, sink.as_ref())?;
    if let Some(sink) = &sink {
        export_trace(spec, backend, sink);
    }
    Some(record)
}

/// Runs `spec` on a machine of `B`-discipline runqueues with a recording
/// [`sched_trace::TraceSink`] attached, returning the record together
/// with the drained decision trace (see [`run_sim_traced`]).
pub fn run_rq_traced<B: sched_rq::RqBackend>(
    backend: &'static str,
    spec: &ExperimentSpec,
) -> Option<(ExperimentRecord, sched_trace::Trace)> {
    let sink = sched_trace::TraceSink::recording(spec.loads.len());
    let record = run_rq_spec_with_sink::<B>(backend, spec, Some(&sink))?;
    Some((record, sink.drain()))
}

fn run_rq_spec_with_sink<B: sched_rq::RqBackend>(
    backend: &'static str,
    spec: &ExperimentSpec,
    sink: Option<&sched_trace::TraceSink>,
) -> Option<ExperimentRecord> {
    // An open-loop stream needs real worker threads pulling work as it
    // arrives; the round-driven runqueue harness has none.
    if spec.driver.openloop().is_some() {
        return None;
    }
    let topo = Arc::new(spec.topo.build());
    if topo.nr_cpus() != spec.loads.len() {
        return None;
    }
    let policy = spec.policy.build(&topo);
    let mut mq: MultiQueue<B> =
        MultiQueue::with_topology_and_tracker(&topo, Arc::clone(&policy.tracker));
    if let Some(sink) = sink {
        mq.set_trace_sink(sink.clone());
    }
    let mut next_task = 0u64;
    for (core, &n) in spec.loads.iter().enumerate() {
        for _ in 0..n {
            mq.spawn_on_with_nice(CoreId(core), nice_of(spec, next_task));
            next_task += 1;
        }
    }

    if let Some(storm) = spec.driver.storm() {
        return Some(run_rq_storm(backend, spec, storm, mq, &topo));
    }
    if let Some(burst) = spec.driver.burst() {
        return Some(run_rq_burst(backend, spec, burst, mq, &topo));
    }

    let mut record = record_base(spec, backend);
    record.rq_backend = Some(B::backend_name());
    let batch = spec.batch.map(BatchK::steal_batch).unwrap_or_default();
    let mut successes = 0u64;
    let nr_cores = spec.loads.len();
    let mut violating_core_rounds = 0.0f64;
    let mut node_idle = vec![0.0f64; topo.nr_nodes()];
    let mut sampled_rounds = 0u64;

    let start = Instant::now();
    for round in 0..=spec.budget_rounds {
        // One balancing period elapses per round (decayed criteria fold
        // it under each runqueue's lock).
        mq.tick((round as u64 + 1) * ROUND_NS);
        if mq.is_work_conserving() {
            record.convergence_rounds = Some(round);
            break;
        }
        if round == spec.budget_rounds {
            break;
        }
        let snapshots = mq.snapshots();
        let idle = snapshots.iter().filter(|s| s.nr_threads == 0).count();
        violating_core_rounds += idle as f64 / nr_cores as f64;
        sample_node_idle(&mut node_idle, &topo, |c| snapshots[c].nr_threads == 0);
        sampled_rounds += 1;
        let stats = if spec.policy.is_hierarchical() {
            mq.hierarchical_round(&policy)
        } else {
            mq.concurrent_round_batched(&policy, batch)
        };
        record.migrations += stats.migrations();
        record.failures += stats.failures();
        successes += stats.successes();
        record.locality.merge(&StealLocality::from_counts(stats.level_migration_counts()));
    }
    let wall = start.elapsed();

    record.wall_ms = wall.as_secs_f64() * 1e3;
    record.throughput =
        if wall.as_secs_f64() > 0.0 { record.migrations as f64 / wall.as_secs_f64() } else { 0.0 };
    record.violating_idle =
        if sampled_rounds == 0 { 0.0 } else { violating_core_rounds / sampled_rounds as f64 };
    record.per_node_violating_idle = finish_node_idle(node_idle, sampled_rounds);
    if spec.batch.is_some() {
        record.tasks_per_acquisition =
            Some(if successes > 0 { record.migrations as f64 / successes as f64 } else { 0.0 });
    }
    record.final_loads = rq_final_loads(&mq.snapshots());
    Some(record)
}

impl Backend for RqBackend {
    fn name(&self) -> &'static str {
        "rq"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        run_rq_spec::<sched_rq::PerCoreRq<sched_rq::FifoQueue>>(self.name(), spec)
    }
}

impl Backend for RqDequeBackend {
    fn name(&self) -> &'static str {
        "rq-deque"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        run_rq_spec::<sched_rq::DequeRq>(self.name(), spec)
    }
}

/// Overflow-storm flavour of the lock-free backend: tiny rings
/// ([`sched_rq::TINY_RING_CAPACITY`]) with the shared-injector overflow
/// discipline (record backend `"rq-deque-tiny"`).  Only executes specs
/// carrying a [`StormSpec`] — on every other scenario its behaviour is the
/// regular `rq-deque` machine with a smaller ring, which would only
/// duplicate rows.
pub struct RqTinyDequeBackend;

/// The storm *baseline*: tiny rings with the legacy owner-private spill
/// (record backend `"rq-deque-spill"`).  This is the work-conservation
/// hole kept measurable; E22's headline is the gap between this row's
/// idle-while-spilled and `rq-deque-tiny`'s ~0.
pub struct RqSpillDequeBackend;

impl Backend for RqTinyDequeBackend {
    fn name(&self) -> &'static str {
        "rq-deque-tiny"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        spec.driver.storm()?;
        run_rq_spec::<sched_rq::TinyDequeRq>(self.name(), spec)
    }
}

impl Backend for RqSpillDequeBackend {
    fn name(&self) -> &'static str {
        "rq-deque-spill"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        spec.driver.storm()?;
        run_rq_spec::<sched_rq::TinySpillDequeRq>(self.name(), spec)
    }
}

/// The real-executor backend (record backend `"exec"`): OS worker threads
/// on [`sched_exec::Executor`] — the verified ring+injector runqueues with
/// parking/unparking — driven by an open-loop request stream and measuring
/// wall-clock end-to-end latency into the schema-v8 `e2e_p99_us` /
/// `e2e_p999_us` columns.  Only executes specs carrying an
/// [`OpenLoopDriverSpec`]; every other driver shape is round-paced and
/// already covered by the runqueue backends.
pub struct ExecBackend;

/// Ring capacity of the executor backend's per-worker runqueues: far past
/// any queue depth the catalogued open-loop rungs can build, so `dropped`
/// overflow never pollutes a latency measurement.
const EXEC_RING_CAPACITY: usize = 1 << 16;

impl Backend for ExecBackend {
    fn name(&self) -> &'static str {
        "exec"
    }

    fn run(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        spec.driver.openloop()?;
        let sink = trace_sink_for(spec.loads.len());
        let record = run_exec_spec_with_sink(self.name(), spec, sink.as_ref())?;
        if let Some(sink) = &sink {
            export_trace(spec, self.name(), sink);
        }
        Some(record)
    }
}

/// Runs `spec` on the real executor with a recording
/// [`sched_trace::TraceSink`] attached, returning the record together with
/// the drained decision trace (see [`run_rq_traced`]).  The sink is sized
/// well past the event volume of the catalogued rungs so the sanity
/// checker sees a complete, drop-free trace.
pub fn run_exec_traced(spec: &ExperimentSpec) -> Option<(ExperimentRecord, sched_trace::Trace)> {
    let sink = sched_trace::TraceSink::with_capacity(spec.loads.len(), 1 << 17);
    let record = run_exec_spec_with_sink("exec", spec, Some(&sink))?;
    Some((record, sink.drain()))
}

fn run_exec_spec_with_sink(
    backend: &'static str,
    spec: &ExperimentSpec,
    sink: Option<&sched_trace::TraceSink>,
) -> Option<ExperimentRecord> {
    let openloop = spec.driver.openloop()?;
    let topo = Arc::new(spec.topo.build());
    if topo.nr_cpus() != spec.loads.len() {
        return None;
    }
    let policy = spec.policy.build(&topo);
    let mut config = sched_exec::ExecConfig::new(Arc::clone(&topo), policy)
        .with_ring_capacity(EXEC_RING_CAPACITY);
    if let Some(sink) = sink {
        config = config.with_trace(sink.clone());
    }

    let start = Instant::now();
    let exec = sched_exec::Executor::start(config);
    let generated = sched_exec::drive(&exec, openloop.exec_spec());
    exec.drain();
    let report = exec.shutdown();
    let wall = start.elapsed();

    let mut record = record_base(spec, backend);
    record.threads = generated.submitted;
    record.throughput =
        if wall.as_secs_f64() > 0.0 { report.completed as f64 / wall.as_secs_f64() } else { 0.0 };
    record.throughput_unit = "reqs/s";
    record.migrations = report.stats.migrations();
    record.failures = report.stats.failures();
    record.locality = StealLocality::from_counts(report.stats.level_migration_counts());
    record.e2e_p99_us = Some(report.latency_us.quantile(0.99) as f64);
    record.e2e_p999_us = Some(report.latency_us.quantile(0.999) as f64);
    // Like the simulator, the executor runs its requests to completion —
    // there is no final residency to conserve, so `final_loads` stays
    // empty.
    record.wall_ms = wall.as_secs_f64() * 1e3;
    Some(record)
}

/// Executes specs across a set of backends.
pub struct ExperimentRunner {
    backends: Vec<Box<dyn Backend>>,
}

impl ExperimentRunner {
    /// A runner over the given backends.
    pub fn new(backends: Vec<Box<dyn Backend>>) -> Self {
        ExperimentRunner { backends }
    }

    /// A runner over every backend: model, the simulator under both of its
    /// engines (tick `sim`, event-driven `sim-event`), the real-thread
    /// machine under both runqueue disciplines (mutex `rq`, lock-free
    /// `rq-deque`), the storm-only tiny-ring flavours (`rq-deque-tiny`,
    /// `rq-deque-spill`), which execute nothing except overflow-storm
    /// specs, and the open-loop-only real executor (`exec`) — record
    /// counts for every other experiment are unchanged.
    pub fn with_all_backends() -> Self {
        ExperimentRunner::new(vec![
            Box::new(ModelBackend),
            Box::new(SimBackend),
            Box::new(SimEventBackend),
            Box::new(RqBackend),
            Box::new(RqDequeBackend),
            Box::new(RqTinyDequeBackend),
            Box::new(RqSpillDequeBackend),
            Box::new(ExecBackend),
        ])
    }

    /// The backends, in execution order.
    pub fn backends(&self) -> &[Box<dyn Backend>] {
        &self.backends
    }

    /// Runs one spec on every backend that supports it, honouring the
    /// spec's backend matrix.  Consumes the spec — a run is a terminal use;
    /// callers that reuse one clone it explicitly.
    pub fn run(&self, spec: ExperimentSpec) -> Vec<ExperimentRecord> {
        self.backends
            .iter()
            .filter(|b| match &spec.backends {
                Some(allowed) => allowed.iter().any(|name| name == b.name()),
                None => true,
            })
            .filter_map(|b| b.run(&spec))
            .collect()
    }

    /// Runs every spec on every backend.
    pub fn run_catalog(&self, specs: Vec<ExperimentSpec>) -> Vec<ExperimentRecord> {
        specs.into_iter().flat_map(|spec| self.run(spec)).collect()
    }
}

/// Serializes records (plus a small header) to the `BENCH_results.json`
/// document.
pub fn records_to_json(records: &[ExperimentRecord]) -> String {
    records_to_json_opts(records, false)
}

/// Like [`records_to_json`], but each record also carries its
/// `final_loads` vector — the `--full-records` document (schema v7).
pub fn records_to_json_full(records: &[ExperimentRecord]) -> String {
    records_to_json_opts(records, true)
}

fn records_to_json_opts(records: &[ExperimentRecord], full: bool) -> String {
    object(vec![
        (
            "paper",
            JsonValue::Str("Towards Proving Optimistic Multicore Schedulers (HotOS 2017)".into()),
        ),
        ("harness", JsonValue::Str("sched-bench experiments --json".into())),
        // The version's meaning is documented on `sched_json::SCHEMA_VERSION`
        // (v7: optional final_loads behind --full-records).
        ("schema_version", JsonValue::Int(sched_json::SCHEMA_VERSION)),
        ("records", JsonValue::Array(records.iter().map(|r| r.to_json_opts(full)).collect())),
    ])
    .render_pretty()
}

/// Renders records as one table for terminal display.
pub fn records_table(records: &[ExperimentRecord]) -> Table {
    let mut table = Table::new(
        "Unified runner: every experiment on every backend",
        &[
            "experiment",
            "scenario",
            "backend",
            "policy",
            "tracker",
            "cores",
            "threads",
            "throughput",
            "violating idle %",
            "rounds to WC",
            "migrations",
            "failures",
            "steals smt/llc/node/remote",
            "remote %",
            "wall (ms)",
        ],
    );
    for r in records {
        let levels = r.locality.counts();
        table.row(&[
            r.experiment.clone(),
            r.scenario.clone(),
            r.backend.into(),
            r.policy.clone(),
            r.tracker.clone(),
            r.cores.to_string(),
            r.threads.to_string(),
            format!("{:.0} {}", r.throughput, r.throughput_unit),
            format!("{:.1}%", r.violating_idle * 100.0),
            r.convergence_rounds.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            r.migrations.to_string(),
            r.failures.to_string(),
            format!("{}/{}/{}/{}", levels[0], levels[1], levels[2], levels[3]),
            format!("{:.0}%", r.remote_steal_rate() * 100.0),
            format!("{:.2}", r.wall_ms),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(policy: PolicySpec) -> ExperimentSpec {
        ExperimentSpec::builder(ExperimentId::E2, "test: single hot of four")
            .loads(vec![8, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .policy(policy)
            .budget_rounds(64)
            .build()
            .expect("a valid spec")
    }

    #[test]
    fn tracker_names_match_the_built_policies() {
        // `tracker_name` is a spec-level copy of what `build(..)` produces
        // (records are stamped before policies are built); this pins the two
        // together so a half-life or format change cannot silently
        // desynchronise them.
        let topo = Arc::new(TopoSpec::Flat(4).build());
        for spec in [
            PolicySpec::Listing1,
            PolicySpec::Greedy,
            PolicySpec::Weighted,
            PolicySpec::StealHalf,
            PolicySpec::NumaAware,
            PolicySpec::TopoAware,
            PolicySpec::Hierarchical,
            PolicySpec::dsl_listing1(),
            PolicySpec::Dsl(sched_dsl::parse(sched_dsl::stdlib::PELT).expect("stdlib PELT parses")),
            PolicySpec::Pelt,
            PolicySpec::PeltWeighted,
            PolicySpec::PeltHalfLife(1),
            PolicySpec::PeltHalfLife(4),
            PolicySpec::PeltHalfLife(16),
            PolicySpec::PeltHalfLife(64),
            PolicySpec::PeltHalfLife(12),
        ] {
            assert_eq!(
                spec.tracker_name(),
                spec.build(&topo).tracker.name(),
                "{spec:?}: tracker_name drifted from the built tracker"
            );
        }
    }

    #[test]
    fn builder_rejects_illegal_combinations() {
        // Load vector sized to the wrong machine.
        let err = ExperimentSpec::builder(ExperimentId::E2, "bad loads")
            .loads(vec![1, 2, 3])
            .topo(TopoSpec::Flat(4))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");

        // A steal batch under a burst driver used to be silently ignored;
        // now it is a build error.
        let err = ExperimentSpec::builder(ExperimentId::E23, "batch under burst")
            .loads(vec![2; 4])
            .topo(TopoSpec::Flat(4))
            .driver(Driver::Burst(BurstSpec::new(8, 1_000_000, 8_000_000)))
            .batch(BatchK::Fixed(2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("steal batch"), "{err}");

        // Batch + replay and batch + storm stay valid.
        assert!(ExperimentSpec::builder(ExperimentId::E23, "batch replay")
            .loads(vec![8, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .batch(BatchK::HalfImbalance)
            .build()
            .is_ok());
        assert!(ExperimentSpec::builder(ExperimentId::E23, "batch storm")
            .loads(vec![1, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .driver(Driver::Storm(StormSpec { epochs: 2, fanout: 8, rounds_per_epoch: 1 }))
            .batch(BatchK::Fixed(2))
            .build()
            .is_ok());

        // A backend matrix naming a simulator backend on a storm or batch
        // spec is rejected at build time (the sim engines cannot execute
        // either), instead of silently producing no record.
        let err = ExperimentSpec::builder(ExperimentId::E22, "sim-event storm")
            .loads(vec![1, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .driver(Driver::Storm(StormSpec { epochs: 2, fanout: 8, rounds_per_epoch: 1 }))
            .backends(vec!["sim-event".into()])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("simulator backends"), "{err}");
        let err = ExperimentSpec::builder(ExperimentId::E23, "sim batch")
            .loads(vec![8, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .batch(BatchK::Fixed(2))
            .backends(vec!["sim".into(), "rq".into()])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("simulator backends"), "{err}");

        // An event budget on a storm driver has no backend to apply to.
        let err = ExperimentSpec::builder(ExperimentId::E22, "budget storm")
            .loads(vec![1, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .driver(Driver::Storm(StormSpec { epochs: 2, fanout: 8, rounds_per_epoch: 1 }))
            .events(1_000)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("event budget"), "{err}");

        // An inline policy that does not compile is rejected at build time.
        let bogus = sched_dsl::parse(
            "policy bogus { filter = victim.load + 1; choose = first; steal = 1; }",
        );
        if let Ok(def) = bogus {
            let err = ExperimentSpec::builder(ExperimentId::E1, "bogus dsl")
                .loads(vec![1, 0])
                .topo(TopoSpec::Flat(2))
                .policy(PolicySpec::Dsl(def))
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("compile"), "{err}");
        }

        // The timer-free executor refuses a filter over decayed loads.
        let openloop = |policy| {
            ExperimentSpec::builder(ExperimentId::E26, "open loop")
                .loads(vec![0; 4])
                .topo(TopoSpec::Flat(4))
                .policy(policy)
                .driver(Driver::OpenLoop(OpenLoopDriverSpec::new(
                    1_000,
                    10,
                    sched_exec::ServiceMix::Fixed { ns: 1_000 },
                )))
                .backends(vec!["exec".into()])
                .build()
        };
        let err = openloop(PolicySpec::Pelt).unwrap_err();
        assert!(err.to_string().contains("event-stable"), "{err}");
        assert!(openloop(PolicySpec::TopoAware).is_ok());
    }

    #[test]
    fn all_backends_run_the_same_spec() {
        let spec = small_spec(PolicySpec::Listing1);
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        assert_eq!(records.len(), 5);
        let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
        assert_eq!(backends, vec!["model", "sim", "sim-event", "rq", "rq-deque"]);
        // Schema v4: the rq records carry their runqueue discipline.
        let flavour = |backend: &str| {
            records.iter().find(|r| r.backend == backend).and_then(|r| r.rq_backend)
        };
        assert_eq!(flavour("rq"), Some("mutex"));
        assert_eq!(flavour("rq-deque"), Some("deque"));
        assert_eq!(flavour("model"), None);
        // Schema v6: only the sim records carry their engine and event count.
        let engine = |backend: &str| {
            records.iter().find(|r| r.backend == backend).and_then(|r| r.sim_engine)
        };
        assert_eq!(engine("sim"), Some("tick"));
        assert_eq!(engine("sim-event"), Some("event"));
        assert_eq!(engine("model"), None);
        assert_eq!(engine("rq"), None);
        for r in &records {
            assert_eq!(r.experiment, "e2");
            assert_eq!(r.cores, 4);
            assert!(r.threads >= 8);
            assert!(r.migrations > 0, "{}: balancing must migrate work", r.backend);
            if r.backend.starts_with("sim") {
                let events = r.events_processed.expect("sim records count events");
                assert!(events > 0, "{}: a run processes events", r.backend);
            } else {
                assert_eq!(r.events_processed, None);
            }
        }
        // The model and rq backends must both converge, and — single hot
        // core, three idle thieves — need at least three migrations.
        for r in records.iter().filter(|r| !r.backend.starts_with("sim")) {
            assert!(r.convergence_rounds.is_some(), "{} did not converge", r.backend);
            assert!(r.migrations >= 3);
            // The replayed tasks must all still be there, spread out.
            assert_eq!(r.final_loads.iter().sum::<usize>(), 8, "{}: tasks conserved", r.backend);
            assert!(
                r.final_loads.iter().all(|&l| l <= 8),
                "{}: no core may end above the initial maximum",
                r.backend
            );
        }
    }

    #[test]
    fn sim_engines_agree_record_for_record() {
        // Tick/event parity at the record level: same workload, same
        // scheduler, same measured quantities.  (The sim crate pins the
        // engines against each other on richer scenarios; this pins the
        // runner's plumbing — config, workload construction, stamping.)
        let runner = ExperimentRunner::with_all_backends();
        for policy in [PolicySpec::Listing1, PolicySpec::Pelt, PolicySpec::Hierarchical] {
            let mut spec = small_spec(policy);
            spec.backends = Some(vec!["sim".into(), "sim-event".into()]);
            let records = runner.run(spec);
            assert_eq!(records.len(), 2);
            let (tick, event) = (&records[0], &records[1]);
            assert_eq!(tick.backend, "sim");
            assert_eq!(event.backend, "sim-event");
            assert_eq!(tick.throughput, event.throughput, "{}", tick.policy);
            assert_eq!(tick.violating_idle, event.violating_idle, "{}", tick.policy);
            assert_eq!(tick.migrations, event.migrations, "{}", tick.policy);
            assert_eq!(tick.failures, event.failures, "{}", tick.policy);
            assert_eq!(tick.locality.counts(), event.locality.counts(), "{}", tick.policy);
            assert_eq!(tick.p99_sched_latency_us, event.p99_sched_latency_us, "{}", tick.policy);
            assert_eq!(
                tick.per_node_violating_idle, event.per_node_violating_idle,
                "{}",
                tick.policy
            );
            // The event engine must do strictly less bookkeeping.
            assert!(
                event.events_processed.unwrap() < tick.events_processed.unwrap(),
                "{}: event engine must process fewer events ({:?} vs {:?})",
                tick.policy,
                event.events_processed,
                tick.events_processed
            );
        }
    }

    #[test]
    fn an_event_budget_truncates_both_sim_engines() {
        let mut spec = small_spec(PolicySpec::Listing1);
        spec.backends = Some(vec!["sim".into(), "sim-event".into()]);
        spec.events = Some(10);
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.events_processed, Some(10), "{}: the cap is recorded", r.backend);
        }
    }

    #[test]
    fn an_order_seed_reorders_only_the_event_engine() {
        // The `order` seed changes the same-time tie-break of the event
        // engine; the tick engine ignores it.  Task conservation holds
        // under any order: all eight tasks finish either way.
        let runner = ExperimentRunner::with_all_backends();
        let mut spec = small_spec(PolicySpec::Listing1);
        spec.backends = Some(vec!["sim".into(), "sim-event".into()]);
        let baseline = runner.run(spec.clone());
        spec.order = Some(7);
        let seeded = runner.run(spec);
        // Tick records are untouched by the seed.
        assert_eq!(baseline[0].migrations, seeded[0].migrations);
        assert_eq!(baseline[0].throughput, seeded[0].throughput);
        // The seeded event run still finishes every task (throughput is
        // ops over simulated time, and every op completes).
        assert!(seeded[1].throughput > 0.0);
    }

    #[test]
    fn the_backend_matrix_restricts_execution() {
        let mut spec = small_spec(PolicySpec::Listing1);
        spec.backends = Some(vec!["model".into(), "rq-deque".into()]);
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
        assert_eq!(backends, vec!["model", "rq-deque"]);
    }

    #[test]
    fn batch_specs_run_on_the_rq_backends_only_and_measure_tasks_per_acquisition() {
        let spec = ExperimentSpec::builder(ExperimentId::E23, "test: batched fan-out")
            .loads(vec![16, 0, 0, 0])
            .topo(TopoSpec::Flat(4))
            .budget_rounds(64)
            .batch(BatchK::Fixed(1))
            .build()
            .expect("a valid batch spec");
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
        assert_eq!(backends, vec!["rq", "rq-deque"], "model/sim cannot execute a batch sweep");
        for r in &records {
            assert_eq!(r.steal_batch_k, Some("1"));
            let tpa = r.tasks_per_acquisition.expect("batch records measure the amortisation");
            assert!(
                (tpa - 1.0).abs() < 1e-9,
                "{}: k=1 moves exactly one task per successful acquisition, got {tpa}",
                r.backend
            );
        }
        // Non-batch records keep the schema-v5 fields null.
        let plain = runner.run(small_spec(PolicySpec::Listing1));
        for r in &plain {
            assert_eq!(r.steal_batch_k, None);
            assert_eq!(r.tasks_per_acquisition, None);
        }
    }

    #[test]
    fn dsl_policy_behaves_like_handwritten_listing1_on_the_model() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let handwritten = &runner.run(small_spec(PolicySpec::Listing1))[0];
        let compiled = &runner.run(small_spec(PolicySpec::dsl_listing1()))[0];
        assert_eq!(compiled.policy, "dsl(listing1)");
        assert_eq!(handwritten.convergence_rounds, compiled.convergence_rounds);
        assert_eq!(handwritten.migrations, compiled.migrations);
        assert_eq!(handwritten.failures, compiled.failures);
    }

    #[test]
    fn json_document_has_the_required_fields() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let records = runner.run(small_spec(PolicySpec::Listing1));
        let json = records_to_json(&records);
        for key in [
            "\"experiment\"",
            "\"scenario\"",
            "\"backend\"",
            "\"cores\"",
            "\"throughput\"",
            "\"violating_idle\"",
            "\"convergence_rounds\"",
            "\"steals_smt\"",
            "\"steals_remote\"",
            "\"remote_steal_rate\"",
            "\"per_node_violating_idle\"",
            "\"rq_backend\"",
            "\"p99_sched_latency_us\"",
            "\"steal_batch_k\"",
            "\"tasks_per_acquisition\"",
            "\"sim_engine\"",
            "\"events_processed\"",
            "\"records\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // `final_loads` is runner-internal state for invariant checks, not
        // part of the schema-v5 record.
        assert!(!json.contains("final_loads"), "final_loads must not be serialized");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The `--full-records` document (schema v7) serializes `final_loads`
    /// and round-trips through the workspace JSON parser exactly.
    #[test]
    fn full_records_serialize_final_loads_and_round_trip() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let records = runner.run(small_spec(PolicySpec::Listing1));
        assert!(records.iter().all(|r| !r.final_loads.is_empty()), "the model reports loads");
        let json = records_to_json_full(&records);
        assert!(json.contains("\"final_loads\""));
        let parsed = sched_json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("schema_version").and_then(|v| v.as_f64()),
            Some(sched_json::SCHEMA_VERSION as f64)
        );
        let rows = parsed.get("records").and_then(|r| r.as_array()).expect("records array");
        assert_eq!(rows.len(), records.len());
        for (row, record) in rows.iter().zip(&records) {
            let loads: Vec<usize> = row
                .get("final_loads")
                .and_then(|l| l.as_array())
                .expect("final_loads array")
                .iter()
                .map(|v| v.as_f64().expect("numeric load") as usize)
                .collect();
            assert_eq!(&loads, &record.final_loads, "final loads round-trip");
        }
    }

    #[test]
    fn records_table_has_one_row_per_record() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let records = runner
            .run_catalog(vec![small_spec(PolicySpec::Listing1), small_spec(PolicySpec::Weighted)]);
        assert_eq!(records_table(&records).nr_rows(), 2);
    }
}
