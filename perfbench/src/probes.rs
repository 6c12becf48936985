//! Primitive probes: ns/op loops over the public functions each request
//! crosses, timed from the benchmark's side.  Single-threaded except the
//! parker round trip, which needs its two threads.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sched_core::{CoreId, CoreSnapshot, TaskId};
use sched_deque::{deque, Injector};
use sched_exec::Parker;
use sched_rq::{DequeRq, RqBackend, RqTask};

use crate::report::{Metrics, Sample};
use crate::workload::{policy, topology};

/// Timed length of one repetition of a probe.
const BUDGET: Duration = Duration::from_millis(20);
/// Repetitions per probe; the median is reported.
const REPEATS: usize = 5;
/// Operations per timed round.
const ROUND: u64 = 512;
/// Batch size of the batched steals (`k`).
const BATCH: usize = 8;
/// Core count of the wide scans.
const WIDE: usize = 64;

/// Median over repetitions of the time per operation, in ns.  `round`
/// performs some operations and returns how many it did and how long the
/// timed part took (so untimed preparation stays out).
fn ns_per_op(mut round: impl FnMut() -> (u64, Duration)) -> f64 {
    round();
    let per_op: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (mut ops, mut spent) = (0, Duration::ZERO);
            while spent < BUDGET {
                let (n, d) = round();
                ops += n;
                spent += d;
            }
            spent.as_nanos() as f64 / ops as f64
        })
        .collect();
    Sample::new(&per_op, 1.0, |x| x).quantile(0.5)
}

/// Times `ops` calls of `op`.
fn timed(ops: u64, mut op: impl FnMut(u64)) -> (u64, Duration) {
    let began = Instant::now();
    for i in 0..ops {
        op(i);
    }
    (ops, began.elapsed())
}

/// `n` lock-free runqueues, core `i` holding `loads[i]` tasks.
fn runqueues(loads: &[u64]) -> Vec<DequeRq> {
    let topo = topology(loads.len());
    let tracker = policy(&topo).tracker;
    let clock = Arc::new(AtomicU64::new(0));
    let mut next = 0;
    topo.cpus()
        .iter()
        .zip(loads)
        .map(|(cpu, &load)| {
            let rq = DequeRq::with_queue_capacity(
                cpu.id,
                cpu.node,
                Arc::clone(&tracker),
                Arc::clone(&clock),
                1024,
            );
            for _ in 0..load {
                rq.enqueue(RqTask::new(TaskId(next)));
                next += 1;
            }
            rq
        })
        .collect()
}

/// A busy machine of `n` cores with one idle core (the last): the shape
/// that makes placement and choice scan every candidate.
fn busy_loads(n: usize) -> Vec<u64> {
    (0..n).map(|i| if i + 1 == n { 0 } else { 2 + (i as u64 % 3) }).collect()
}

/// Runs every probe, adding its metric.
pub fn run(metrics: &mut Metrics, workers: usize) {
    deque_probes(metrics);
    rq_probes(metrics, workers);
    core_probes(metrics, workers);
    metrics.add("exec.parker_roundtrip_us", parker_roundtrip_ns() / 1e3, "us");
}

fn deque_probes(metrics: &mut Metrics) {
    let (mut worker, _stealer) = deque(1024);
    let push_pop = ns_per_op(|| {
        timed(ROUND, |i| {
            worker.push(i).expect("ring has room");
            black_box(worker.pop());
        })
    });
    metrics.add("deque.push_pop_ns", push_pop, "ns");

    let (mut worker, stealer) = deque(1024);
    let steal = ns_per_op(|| {
        (0..ROUND).for_each(|i| worker.push(i).expect("ring has room"));
        timed(ROUND, |_| {
            black_box(stealer.steal());
        })
    });
    metrics.add("deque.steal_ns", steal, "ns");

    let steal_many = ns_per_op(|| {
        (0..ROUND).for_each(|i| worker.push(i).expect("ring has room"));
        let began = Instant::now();
        let mut tasks = 0;
        while let Some(batch) = stealer.steal_many(BATCH).stolen() {
            tasks += batch.len() as u64;
        }
        (tasks, began.elapsed())
    });
    metrics.add("deque.steal_many_ns", steal_many, "ns");

    let injector = Injector::new();
    let inject = ns_per_op(|| {
        let began = Instant::now();
        (0..ROUND).for_each(|i| injector.push(i));
        while injector.steal_batch(BATCH, |x| {
            black_box(x);
        }) > 0
        {}
        (ROUND, began.elapsed())
    });
    metrics.add("deque.injector_push_steal_batch_ns", inject, "ns");
}

fn rq_probes(metrics: &mut Metrics, workers: usize) {
    // One core, a task always running: each operation queues a task
    // behind it, reads the running task the way the worker loop does, and
    // completes it, which elects the queued task.
    let rq = &runqueues(&[1])[0];
    let mut next = 1_000;
    let cycle = ns_per_op(|| {
        timed(ROUND, |_| {
            rq.enqueue(RqTask::new(TaskId(next)));
            next += 1;
            black_box(rq.current_task());
            black_box(rq.complete_current());
        })
    });
    metrics.add("rq.enqueue_pick_complete_ns", cycle, "ns");

    for (suffix, n) in [("nw", workers), ("n64", WIDE)] {
        let cores = runqueues(&busy_loads(n));
        let scan = ns_per_op(|| {
            timed(ROUND, |_| {
                black_box(cores.iter().map(DequeRq::snapshot).collect::<Vec<_>>());
            })
        });
        metrics.add(&format!("rq.snapshot_ns.{suffix}"), scan, "ns");
    }
}

fn core_probes(metrics: &mut Metrics, workers: usize) {
    for (suffix, n) in [("nw", workers), ("n64", WIDE)] {
        let topo = topology(n);
        let policy = policy(&topo);
        let snaps: Vec<CoreSnapshot> =
            runqueues(&busy_loads(n)).iter().map(DequeRq::snapshot).collect();
        let place = ns_per_op(|| {
            timed(ROUND, |_| {
                black_box(policy.choice.place_wakeup(CoreId(0), black_box(&snaps)));
            })
        });
        metrics.add(&format!("core.place_wakeup_ns.{suffix}"), place, "ns");

        let thief = snaps[n - 1];
        let candidates: Vec<CoreSnapshot> =
            snaps[..n - 1].iter().copied().filter(|s| policy.filter.can_steal(&thief, s)).collect();
        let choose = ns_per_op(|| {
            timed(ROUND, |_| {
                black_box(policy.choice.choose(&thief, black_box(&candidates)));
            })
        });
        metrics.add(&format!("core.choose_ns.{suffix}"), choose, "ns");
    }
}

/// One `unpark` → wake → `unpark` back → wake round trip between two
/// threads, in ns.
fn parker_roundtrip_ns() -> f64 {
    const PATIENCE: Duration = Duration::from_secs(1);
    let (ping, pong) = (Parker::new(), Parker::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if pong.park_timeout(PATIENCE) {
                    ping.unpark();
                }
            }
        });
        let ns = ns_per_op(|| {
            timed(64, |_| {
                pong.unpark();
                ping.park_timeout(PATIENCE);
            })
        });
        stop.store(true, Ordering::Release);
        pong.unpark();
        ns
    })
}
