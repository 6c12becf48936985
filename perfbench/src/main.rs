//! End-to-end and per-layer benchmark of the `sched-exec` executor.
//!
//! ```text
//! perfbench --workload <open-light|closed-saturate|open-bimodal>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs it untraced and traced (half the seconds
//! each), then the primitive probes, and reports the per-layer metrics.
//! Human-readable lines come first; the last line of standard output is
//! the JSON result.  See `README.md` next to this crate.

mod host;
mod probes;
mod report;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use sched_trace::TraceSink;

use report::{fmt_value, ratio, Metrics, Sample};
use workload::{Outcome, RunSpec, Slice, Workload};

/// Unmeasured lead-in of every run.
const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per end-to-end run; the median is `setup_s`.
const SETUPS: usize = 101;
/// Idle time before each set-up.  Each then starts from a quiet machine,
/// as a program's one start does; back-to-back starts ran on warm caches
/// and an awake second CPU, and their median moved by up to 2× between
/// runs with the host's load.
const SETUP_GAP: Duration = Duration::from_millis(5);
/// How long the generator waits for a request before counting it lost.
const DEADLINE: Duration = Duration::from_secs(5);
/// Unmeasured lead-in of the per-layer runs, kept short because the
/// decision trace records it too.
const TRACE_WARMUP: Duration = Duration::from_millis(50);
/// Decision-trace slots across all workers in a traced run.
const TRACE_SLOTS: usize = 1 << 20;
/// Bound on the trace events one request causes (3–5 were measured).  A
/// traced run submits at most one core's ring capacity over this many
/// requests, so no ring overwrites even if every event lands on one core
/// (`trace.dropped = 0`).
const EVENTS_PER_REQUEST: usize = 8;

/// End-to-end figures every run prints but the benchmark does not gate:
/// on a host with hypervisor steal they track the host, not the code (see
/// the README).
const UNGATED: [(&str, &str); 3] = [("p50_us", "us"), ("p90_us", "us"), ("throughput_rps", "1/s")];

const USAGE: &str =
    "usage: perfbench --workload <open-light|closed-saturate|open-bimodal> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(0.01..=3600.0).contains(&s) {
                        return Err(bad("expected 0.01 to 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A finished benchmark run: its metrics and verdict.
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// The machine the run sees: `nproc` and the worker count `W`.
#[derive(Debug, Clone, Copy)]
struct Machine {
    nproc: usize,
    workers: usize,
}

impl Machine {
    fn detect() -> Self {
        let nproc = host::nproc();
        Machine { nproc, workers: (nproc.saturating_sub(1)).max(2) }
    }

    /// The generator shares a CPU with the workers.
    fn oversubscribed(&self) -> bool {
        self.workers + 1 > self.nproc
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    workload::now_ns();
    host::tighten_timer_slack();
    let machine = Machine::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} W={} generator_oversubscribed={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine.nproc,
        machine.workers,
        machine.oversubscribed(),
    );
    let window = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        per_layer(args.workload, args.seed, window, machine)
    } else {
        end_to_end(&spec(args.workload, args.seed, window, machine), machine)
    };
    match result {
        Ok(report) => {
            println!(
                "{}",
                report.metrics.result_line(report.correct, report.attempted, report.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn spec(workload: Workload, seed: u64, window: Duration, machine: Machine) -> RunSpec {
    RunSpec {
        workload,
        workers: machine.workers,
        seed,
        warmup: WARMUP.min(window),
        window,
        max_requests: usize::MAX,
        trace: TraceSink::disabled(),
        deadline: DEADLINE,
        stall: None,
    }
}

/// The end-to-end run: untraced, set up `SETUPS` times.
fn end_to_end(spec: &RunSpec, machine: Machine) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        if let Some(earlier) = prepared.take() {
            workload::Prepared::discard(earlier);
        }
        std::thread::sleep(SETUP_GAP);
        let p = workload::prepare(spec)?;
        setups.push(p.setup_cpu_ns as f64 * 1e-9);
        prepared = Some(p);
    }
    let setup_s = Sample::new(&setups, 1.0, |x| x).quantile(0.5);
    let out = workload::run(spec, prepared.expect("at least one set-up"))?;
    let mut metrics = Metrics::default();
    print_run("run", &out, machine);
    let failed = out.failures.total();
    let e2e = E2e::of(&out);
    let ungated = [e2e.p50_us, e2e.p90_us, e2e.throughput_rps];
    for ((name, unit), value) in UNGATED.iter().zip(ungated) {
        println!("  {name:<40} {} {unit} (not gated)", fmt_value(value));
    }
    metrics.add("setup_s", setup_s, "s");
    metrics.add("cpu_us_per_req", e2e.cpu_us_per_req, "us");
    metrics.add("ok_frac", 1.0 - ratio(failed as f64, out.submitted as f64), "frac");
    Ok(Report { metrics, attempted: out.submitted.max(1), failed, correct: failed == 0 })
}

/// End-to-end figures of one run: each is computed per slice of the
/// window and reported as the median over the full-length slices.
struct E2e {
    p50_us: f64,
    p90_us: f64,
    throughput_rps: f64,
    cpu_us_per_req: f64,
}

impl E2e {
    fn of(out: &Outcome) -> Self {
        let full_ns = out.slices.iter().map(|s| s.len_ns).max().unwrap_or(0);
        let full: Vec<&Slice> = out.slices.iter().filter(|s| s.len_ns == full_ns).collect();
        let median = |f: &dyn Fn(&Slice) -> f64| {
            let per_slice: Vec<f64> = full.iter().map(|s| f(s)).collect();
            Sample::new(&per_slice, 1.0, |x| x).quantile(0.5)
        };
        let latency = |s: &Slice, q: f64| Sample::new(&s.e2e_ns, 1e-3, |x| x as f64).quantile(q);
        E2e {
            p50_us: median(&|s| latency(s, 0.5)),
            p90_us: median(&|s| latency(s, 0.9)),
            throughput_rps: median(&|s| ratio(s.completed as f64, s.len_ns as f64 * 1e-9)),
            cpu_us_per_req: median(&|s| ratio(s.worker_cpu_ns as f64 * 1e-3, s.completed as f64)),
        }
    }
}

/// Prints a run's sample counts, tail, failures and host conditions.
fn print_run(label: &str, out: &Outcome, machine: Machine) {
    let lat = Sample::new(&out.e2e_ns(), 1e-3, |x| x as f64);
    let (p99, p999) = (lat.quantile(0.99), lat.quantile(0.999));
    let f = &out.failures;
    println!(
        "{label}: samples={} submitted={} completed_in_window={} window_s={:.3} slices={}",
        lat.len(),
        out.submitted,
        out.completed_in_window,
        out.window_ns as f64 * 1e-9,
        out.slices.len(),
    );
    println!(
        "{label}: whole window p50_us={:.1} p90_us={:.1} p99_us={p99:.1} ({} beyond) p999_us={p999:.1} ({} beyond) (tail not gated)",
        lat.quantile(0.5),
        lat.quantile(0.9),
        lat.count_above(p99),
        lat.count_above(p999),
    );
    println!(
        "{label}: failed_frac={} lost={} doubled={} wrong_value={} count_mismatch={} identity={}",
        ratio(f.total() as f64, out.submitted as f64),
        f.lost,
        f.doubled,
        f.wrong_value,
        f.count_mismatch,
        f.identity,
    );
    println!(
        "{label}: host nproc={} W={} generator_oversubscribed={} steal_frac={:.4}",
        machine.nproc,
        machine.workers,
        machine.oversubscribed(),
        out.host.steal_frac,
    );
}

/// The per-layer run: untraced and traced halves, then the probes.
fn per_layer(
    workload: Workload,
    seed: u64,
    window: Duration,
    machine: Machine,
) -> Result<Report, String> {
    let per_core = (TRACE_SLOTS / machine.workers).next_power_of_two().max(1 << 16);
    let plain = RunSpec {
        warmup: TRACE_WARMUP.min(window / 2),
        max_requests: per_core / EVENTS_PER_REQUEST,
        ..spec(workload, seed, window / 2, machine)
    };
    let untraced = workload::run(&plain, workload::prepare(&plain)?)?;
    print_run("untraced", &untraced, machine);

    let traced_spec =
        RunSpec { trace: TraceSink::with_capacity(machine.workers, per_core), ..plain.clone() };
    let traced = workload::run(&traced_spec, workload::prepare(&traced_spec)?)?;
    print_run("traced", &traced, machine);
    if let Some(t) = &traced.trace {
        println!(
            "traced: trace events={} per request={:.2} dropped={}",
            t.events,
            ratio(t.events as f64, traced.submitted as f64),
            t.dropped
        );
    }

    let mut m = Metrics::default();
    let (u, t) = (E2e::of(&untraced), E2e::of(&traced));
    layer_metrics(&mut m, &traced, machine);
    m.add(
        "trace.throughput_overhead_frac",
        1.0 - ratio(t.throughput_rps, u.throughput_rps),
        "frac",
    );
    m.add("trace.p50_overhead_frac", ratio(t.p50_us, u.p50_us) - 1.0, "frac");
    probes::run(&mut m, machine.workers);

    let dropped = traced.trace.as_ref().map_or(0, |s| s.dropped);
    let failed = untraced.failures.total() + traced.failures.total();
    Ok(Report {
        metrics: m,
        attempted: (untraced.submitted + traced.submitted).max(1),
        failed,
        correct: failed == 0 && dropped == 0,
    })
}

/// Stage, counter, snapshot, host and trace metrics of the traced run.
fn layer_metrics(m: &mut Metrics, out: &Outcome, machine: Machine) {
    let stages = out.stages.as_ref().expect("traced runs keep stages");
    let us = |v: &[i64]| Sample::new(v, 1e-3, |x| x as f64);
    let named = [
        ("gen.lag_us", us(&stages.lag)),
        ("exec.spawn_us", us(&stages.spawn)),
        ("exec.start_wait_us", us(&stages.start_wait)),
        ("exec.service_us", us(&stages.service)),
    ];
    let e2e = Sample::new(&out.e2e_ns(), 1e-3, |x| x as f64);
    let stage_sum: f64 = named.iter().map(|(_, s)| s.mean()).sum();
    println!(
        "traced: mean e2e {:.4} us = sum of mean stages {stage_sum:.4} us (error {:.2e})",
        e2e.mean(),
        ratio(stage_sum - e2e.mean(), e2e.mean()).abs(),
    );
    for (name, sample) in named.iter().chain([("exec.join_us", us(&stages.join))].iter()) {
        m.add(&format!("{name}.p50"), sample.quantile(0.5), "us");
        m.add(&format!("{name}.p90"), sample.quantile(0.9), "us");
    }
    let nominal_mean_us = ratio(stages.nominal_ns as f64 * 1e-3, stages.service.len() as f64);
    m.add("exec.service_excess_frac", ratio(named[3].1.mean(), nominal_mean_us) - 1.0, "frac");

    let b = &out.balance;
    let completed = out.completed_in_window as f64;
    m.add("rq.steal_attempts_per_req", ratio(b.attempts as f64, completed), "count");
    m.add("rq.steal_success_ratio", ratio(b.successes as f64, b.attempts as f64), "frac");
    m.add("rq.recheck_fail_ratio", ratio(b.recheck_failures as f64, b.attempts as f64), "frac");
    m.add("rq.migrated_frac", ratio(b.migrations as f64, completed), "frac");
    m.add("rq.tasks_per_acquisition", ratio(b.migrations as f64, b.successes as f64), "count");

    let s = &out.snapshots;
    m.add(
        "core.idle_while_overloaded_frac",
        ratio(s.idle_while_overloaded as f64, s.samples as f64),
        "frac",
    );
    m.add("rq.max_queue_depth", s.max_nr_threads as f64, "count");

    let h = &out.host;
    let worker_ns = machine.workers as f64 * out.window_ns as f64;
    m.add("host.worker_busy_frac", ratio(h.workers.cpu_ns as f64, worker_ns), "frac");
    m.add("host.worker_runq_wait_frac", ratio(h.workers.wait_ns as f64, worker_ns), "frac");
    m.add("host.worker_slices_per_req", ratio(h.workers.slices as f64, completed), "count");
    m.add("host.gen_cpu_us_per_req", ratio(h.gen.cpu_ns as f64 * 1e-3, completed), "us");
    m.add("host.steal_frac", h.steal_frac, "frac");

    let trace = out.trace.clone().unwrap_or_default();
    m.add("exec.parks_per_req", ratio(trace.parks as f64, out.submitted as f64), "count");
    m.add("exec.park_us.p50", Sample::new(&trace.park_ns, 1e-3, |x| x as f64).quantile(0.5), "us");
    m.add("trace.dropped", trace.dropped as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// Runs share the process's thread list (worker discovery), so the
    /// tests take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    const TINY: Duration = Duration::from_millis(150);

    fn benchmark_json() -> sched_json::Json {
        let text = include_str!("../../BENCHMARK.json");
        sched_json::parse(text).expect("BENCHMARK.json parses")
    }

    fn declared(section: &str) -> BTreeSet<String> {
        benchmark_json()
            .get(section)
            .and_then(|s| s.as_array())
            .expect("section is an array")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("named").to_string())
            .collect()
    }

    fn printed(report: &Report) -> BTreeSet<String> {
        report.metrics.names().map(str::to_string).collect()
    }

    #[test]
    fn every_workload_runs_correctly_at_tiny_size_and_prints_every_metric() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let machine = Machine::detect();
        assert_eq!(
            declared("workloads"),
            Workload::ALL.iter().map(|w| w.name().to_string()).collect()
        );
        for workload in Workload::ALL {
            let e2e =
                end_to_end(&spec(workload, 3, TINY, machine), machine).expect("end-to-end run");
            assert!(e2e.correct && e2e.failed == 0, "{} failed", workload.name());
            assert_eq!(printed(&e2e), declared("end_to_end"), "{}", workload.name());
            assert_eq!(e2e.metrics.get("ok_frac"), Some(1.0));
            assert!(e2e.metrics.get("cpu_us_per_req").expect("cpu per request") > 0.0);

            let layers = per_layer(workload, 3, TINY * 2, machine).expect("per-layer run");
            assert!(layers.correct, "{} traced run failed", workload.name());
            assert_eq!(printed(&layers), declared("per_layer"), "{}", workload.name());
            assert_eq!(layers.metrics.get("trace.dropped"), Some(0.0));
        }
    }

    #[test]
    fn a_request_that_does_not_finish_by_the_deadline_is_caught_as_lost() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let machine = Machine::detect();
        for workload in Workload::ALL {
            // Request 7 sleeps past the end of the run plus twice the
            // deadline, as if the executor had lost it: the run must end at
            // the deadline, not when the request finally runs, and fail.
            let spec = RunSpec {
                stall: Some(7),
                deadline: Duration::from_millis(300),
                ..spec(workload, 5, TINY, machine)
            };
            let began = std::time::Instant::now();
            let out =
                workload::run(&spec, workload::prepare(&spec).expect("set-up")).expect("run ends");
            assert!(began.elapsed() < TINY * 2 + spec.deadline * 2, "{}", workload.name());
            assert!(out.failures.lost >= 1, "{}: {:?}", workload.name(), out.failures);
        }
        let spec = RunSpec {
            stall: Some(7),
            deadline: Duration::from_millis(300),
            ..spec(Workload::OpenLight, 5, TINY, machine)
        };
        let report = end_to_end(&spec, machine).expect("run ends");
        assert!(!report.correct && report.failed >= 1);
        assert!(report.metrics.get("ok_frac").expect("ok_frac") < 1.0);
    }

    #[test]
    fn every_per_layer_metric_has_an_interaction_entry() {
        let map = sched_json::parse(include_str!("../interaction_map.json")).expect("map parses");
        let workloads = declared("workloads");
        let mut end_to_end = declared("end_to_end");
        end_to_end.extend(UNGATED.map(|(name, _)| name.to_string()));
        let per_layer = declared("per_layer");
        let check_targets = |what: &str, targets: Option<&sched_json::Json>| {
            for target in
                targets.and_then(|t| t.as_array()).unwrap_or_else(|| panic!("{what}: no list"))
            {
                let e2e = target.get("metric").and_then(|v| v.as_str()).expect("metric");
                let on = target.get("workload").and_then(|v| v.as_str()).expect("workload");
                assert!(end_to_end.contains(e2e), "{what}: unknown end-to-end metric {e2e}");
                assert!(workloads.contains(on), "{what}: unknown workload {on}");
            }
        };
        let entries = map.get("per_layer").expect("per_layer map");
        for metric in &per_layer {
            let entry =
                entries.get(metric).unwrap_or_else(|| panic!("{metric} has no interaction entry"));
            assert!(entry.get("why").and_then(|w| w.as_str()).is_some(), "{metric}: no why");
            check_targets(metric, entry.get("moves"));
        }
        for change in map.get("changes").and_then(|c| c.as_array()).expect("changes list") {
            let what = change.get("change").and_then(|c| c.as_str()).expect("change name");
            check_targets(what, change.get("moves"));
            check_targets(what, change.get("unchanged"));
            for layer in change.get("layers").and_then(|l| l.as_array()).expect("layers") {
                let layer = layer.as_str().expect("layer metric name");
                assert!(per_layer.contains(layer), "{what}: unknown per-layer metric {layer}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let ok = parse("--workload open-light --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!((ok.workload, ok.seed, ok.trace), (Workload::OpenLight, 4, true));
        assert!(parse("--workload nope --seed 4 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload open-light --seed 4 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload open-light --seed 4 --trace 0").is_err());
    }
}
