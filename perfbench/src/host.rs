//! The `host` layer: what the OS says about the benchmark's threads.
//!
//! Per-thread CPU time, run-queue wait and time-slice counts come from
//! `/proc/self/task/<tid>/schedstat`; machine-wide steal time (a noisy
//! neighbour on a virtual machine) comes from the first line of
//! `/proc/stat`.  Worker threads are recognised by the `sched-exec-`
//! prefix the executor gives their names.

use std::fs;
use std::time::{Duration, Instant};

/// The executor's worker-thread name prefix.
const WORKER_PREFIX: &str = "sched-exec-";

/// One thread's (or a sum of threads') schedstat triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Number of time slices run (one per switch onto a CPU).
    pub slices: u64,
}

impl SchedStat {
    fn parse(text: &str) -> Option<Self> {
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        Some(SchedStat {
            cpu_ns: fields.next()??,
            wait_ns: fields.next()??,
            slices: fields.next()??,
        })
    }

    fn read(path: &str) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        SchedStat::parse(&text).ok_or_else(|| format!("unexpected contents of {path}: {text:?}"))
    }

    fn add(self, other: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            wait_ns: self.wait_ns + other.wait_ns,
            slices: self.slices + other.slices,
        }
    }

    /// Field-wise `self − earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

/// Thread ids of the running executor's workers.
#[derive(Debug, Clone)]
pub struct Workers {
    tids: Vec<String>,
}

impl Workers {
    /// Finds the `expected` worker threads of a just-started executor,
    /// waiting briefly for each to publish its name.  `older` are worker
    /// threads that existed before it started (an executor left running
    /// after a lost request); they are not counted.
    pub fn find(expected: usize, older: &[String]) -> Result<Self, String> {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut tids = worker_tids()?;
            tids.retain(|tid| !older.contains(tid));
            if tids.len() == expected {
                return Ok(Workers { tids });
            }
            if Instant::now() > deadline {
                return Err(format!("found {} worker threads, expected {expected}", tids.len()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sum of the workers' schedstat counters.
    pub fn schedstat(&self) -> Result<SchedStat, String> {
        self.tids.iter().try_fold(SchedStat::default(), |sum, tid| {
            Ok(sum.add(SchedStat::read(&format!("/proc/self/task/{tid}/schedstat"))?))
        })
    }
}

/// Thread ids of every executor worker thread in the process.
pub fn worker_tids() -> Result<Vec<String>, String> {
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("listing threads: {e}"))?;
    let mut tids = Vec::new();
    for entry in dir.flatten() {
        let tid = entry.file_name().to_string_lossy().into_owned();
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.starts_with(WORKER_PREFIX) {
            tids.push(tid);
        }
    }
    Ok(tids)
}

/// The calling thread's schedstat counters.
pub fn own_schedstat() -> Result<SchedStat, String> {
    SchedStat::read("/proc/thread-self/schedstat")
}

/// Machine-wide CPU time from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks, every state.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the aggregate `cpu` line.
    pub fn read() -> Result<Self, String> {
        let text =
            fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
        let line = text.lines().next().unwrap_or_default();
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already included in user/nice.
        if fields.len() < 8 {
            return Err(format!("unexpected /proc/stat cpu line: {line:?}"));
        }
        Ok(CpuTicks { steal: fields[7], total: fields[..8].iter().sum() })
    }

    /// Share of the interval since `earlier` the hypervisor stole.
    pub fn steal_frac_since(self, earlier: CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// CPU time the calling thread has consumed so far, in ns.  Unlike wall
/// time it does not count time the hypervisor stole or the thread spent
/// waiting for a CPU.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields, the
    // layout of `struct timespec` on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Asks the kernel to fire the calling thread's sleeps on time instead of
/// coalescing them within the default 50 µs timer slack.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack in
    // nanoseconds) and touches only the calling thread's timer slack; the
    // remaining arguments are ignored.  Failure leaves the default slack,
    // which only makes the generator later — it shows in `gen.lag_us`.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_lines_parse() {
        let s = SchedStat::parse("123 45 6\n").expect("three fields");
        assert_eq!(s, SchedStat { cpu_ns: 123, wait_ns: 45, slices: 6 });
        assert_eq!(SchedStat::parse("1 2"), None);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        while thread_cpu_ns() < before + 1_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(own_schedstat().expect("thread-self schedstat").slices > 0);
        let ticks = CpuTicks::read().expect("/proc/stat");
        assert!(ticks.total >= ticks.steal);
    }
}
