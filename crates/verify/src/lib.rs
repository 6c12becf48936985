//! The verification substrate — a bounded, exhaustive substitute for the
//! Leon toolkit.
//!
//! The paper verifies its scheduler abstractions by compiling policies to
//! Scala and discharging `.holds` obligations with the Leon verification
//! system.  That toolchain is not available here, so this crate discharges
//! the *same lemmas* by exhaustive small-scope model checking plus
//! property-based testing (see DESIGN.md §2 for the substitution argument):
//!
//! * every initial core configuration within a [`Scope`] (bounded number of
//!   cores and threads) is enumerated by [`enumerate`],
//! * every interleaving of the per-core selection/stealing phases of a
//!   load-balancing round is enumerated by [`interleave`],
//! * the paper's lemmas are checked over that space by [`lemmas`]:
//!   - Lemma 1 (Listing 2): an idle thief filters in a core iff it is
//!     overloaded,
//!   - steal soundness (§4.2): a steal whose filter holds succeeds, never
//!     empties the victim and never loses or duplicates threads,
//!   - sequential work conservation (§4.2),
//!   - P1 (§4.3): a failed attempt implies a concurrent successful steal,
//!   - P2 (§4.3): the load-difference potential strictly decreases on every
//!     successful steal,
//!   - bounded failures / concurrent convergence (§4.3 + §3.2): no reachable
//!     cycle of non-work-conserving states exists, and the bound `N` is
//!     computed,
//! * failures are reported as step-by-step [`counterexample::Counterexample`]s
//!   — running the checker against the §4.3 greedy filter reproduces the
//!   three-core ping-pong exactly,
//! * the event-driven simulator's own degree of freedom — the order in
//!   which same-timestamp events are processed — is discharged the same
//!   way by [`ordering`]: seeded permutations of every same-time group
//!   must reproduce the priority-ordered baseline's outcome,
//! * the `sched-exec` park protocol — register, fence, re-check, block
//!   against enqueue, fence, pop, unpark — is explored interleaving by
//!   interleaving by [`park`], which proves the executor's timer-free
//!   protocol loses no wakeup in small scopes and reproduces the holes of
//!   its predecessor.

pub mod convergence;
pub mod counterexample;
pub mod enumerate;
pub mod interleave;
pub mod lemma;
pub mod lemmas;
pub mod ordering;
pub mod park;
pub mod report;
pub mod scope;

pub use convergence::{
    analyze_convergence, find_non_conserving_cycle, max_rounds_to_converge, ChoiceStrategy,
    ConvergenceAnalysis, CycleWitness,
};
pub use counterexample::Counterexample;
pub use enumerate::{configurations, states};
pub use interleave::{all_interleavings, interleaving_count};
pub use lemma::{LemmaReport, LemmaStatus};
pub use ordering::{check_ordering_independence, OrderingReport, OrderingViolation};
pub use park::{check_park_protocol, ParkProtocol, ParkReport, ParkScope};
pub use report::{verify_policy, VerificationReport};
pub use scope::Scope;
