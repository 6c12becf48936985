//! A real work-stealing executor on the verified runqueue path.
//!
//! The rest of this workspace schedules *abstract task words* — inside the
//! pure model, the simulators, or single-process balancing harnesses.  The
//! paper's complaint, though, is about schedulers in *real executions*:
//! idle cores coexisting with overloaded runqueues while actual work
//! waits.  This crate closes that gap.  [`Executor`] runs one OS worker
//! thread per CPU of a [`sched_topology::MachineTopology`], each owning a
//! lock-free [`sched_rq::DequeRq`] (Chase–Lev ring + shared overflow
//! injector), with:
//!
//! * **spawn/join** — closures become task words on real runqueues, get
//!   placed by [`sched_core::ChoicePolicy::place_wakeup`], migrate through
//!   batched CAS steals, and run wherever a worker claims them; a panic
//!   is contained and resumed in the joiner;
//! * **parking/unparking** — idle workers park, untimed, on per-worker
//!   tokens, registered on a last-parked-first-woken idle stack, with a
//!   global `searching` counter bounding wakeup storms; the protocol is a
//!   Dekker pair that loses no wakeup (see [`parker`] and the walk-through
//!   in [`executor`]);
//! * **tracing** — every steal decision goes through the same
//!   [`sched_rq::steal::StealRecorder`] program point as the other
//!   substrates, so `stats == fold(trace)` parity holds on real threads;
//! * **an open-loop load generator** ([`openloop`]) — seeded Poisson
//!   arrivals with fixed/exponential/bimodal service mixes, measuring
//!   wall-clock end-to-end latency into a [`sched_metrics::Histogram`]
//!   (the `e2e_p99_us`/`e2e_p999_us` fields of the benchmark records).

#![warn(missing_docs)]

pub mod executor;
pub mod openloop;
pub mod parker;

pub use executor::{ExecConfig, ExecReport, Executor, JoinHandle};
pub use openloop::{drive, Arrival, ArrivalStream, OpenLoopReport, OpenLoopSpec, ServiceMix};
pub use parker::{IdleStack, Parker};
