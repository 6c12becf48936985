//! Worker parking: a token parker per worker plus the shared idle stack.
//!
//! The executor's idle protocol has two halves that form a Dekker pair —
//! each side publishes, issues a `SeqCst` fence, then reads what the other
//! side published:
//!
//! * **worker:** register on the [`IdleStack`] → fence → re-check *every*
//!   source of work it could reach (its own queue and injector, and any
//!   core its policy's filter would let it steal from that holds a
//!   claimable task) → block on its [`Parker`] only if all of them were
//!   empty → deregister after waking, whoever woke it;
//! * **producer:** enqueue → fence → pop the target core's worker off the
//!   stack, or — when no worker is out searching — pop the top of the
//!   stack (last parked, first woken: the warmest cache) → unpark it.
//!
//! Whichever fence comes second sees the other side's write: either the
//! worker's re-check finds the task, or the producer finds the worker
//! registered.  A worker that ends its search by committing to work (a
//! steal, or a re-check that found some) wakes one more worker if work
//! still waits, so a wakeup a producer skipped on its account is passed
//! on.  That makes the protocol free of lost wakeups on its own, so a
//! worker blocks **untimed** — there is no periodic re-poll to hide a
//! missed edge, and none is needed.  Registration and wakeup cannot
//! disagree because the worker, not the producer, owns its deregistration:
//! a producer's pop only spares it the removal, and a token that lands
//! after the worker already found work costs at most one extra pass of
//! the worker loop (its next park returns at once).  The model in
//! `sched_verify::park` explores every interleaving of this protocol for
//! small scopes.
//!
//! [`Parker::unpark`] signals only a thread that is actually blocked: an
//! unpark of a running worker is one atomic swap, no syscall.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// No token, nobody blocked.
const EMPTY: u8 = 0;
/// The owning thread is blocked (or about to block) on the condvar.
const PARKED: u8 = 1;
/// A token is deposited.
const NOTIFIED: u8 = 2;

/// A one-shot wakeup token one thread blocks on.
///
/// `unpark` deposits the token; `park`/`park_timeout` consume it, blocking
/// until it is present.  Tokens do not accumulate: any number of
/// `unpark`s between two parks release exactly one park, which is the
/// right semantics for "there may be work, go look".  The state word
/// (`EMPTY`/`PARKED`/`NOTIFIED`, the design of `std::thread::park`) lets
/// `unpark` skip the lock and the futex wake unless a thread is blocked.
/// At most one thread may park on a given parker at a time.
#[derive(Debug, Default)]
pub struct Parker {
    state: AtomicU8,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    /// Creates a parker with no token deposited.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Blocks until a token is deposited, consuming it.  Never blocks when
    /// the token is already there.
    pub fn park(&self) {
        self.park_until(None);
    }

    /// Blocks until a token is deposited or `timeout` lapses, consuming
    /// the token if present.  Returns `true` if it was woken by a token,
    /// `false` on timeout.  Never blocks when the token is already there.
    pub fn park_timeout(&self, timeout: Duration) -> bool {
        self.park_until(Some(Instant::now() + timeout))
    }

    fn park_until(&self, deadline: Option<Instant>) -> bool {
        if self.take_token() {
            return true;
        }
        let mut guard = self.lock();
        match self.state.compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {}
            // The token landed between the fast path and the lock.
            Err(NOTIFIED) => {
                self.state.store(EMPTY, Ordering::SeqCst);
                return true;
            }
            Err(_) => panic!("two threads parked on one parker"),
        }
        loop {
            guard = match deadline {
                None => self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.cv.wait_timeout(guard, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
            if self.take_token() {
                return true;
            }
        }
        // Timed out: withdraw, keeping a token that raced the deadline.
        self.state.swap(EMPTY, Ordering::SeqCst) == NOTIFIED
    }

    fn take_token(&self) -> bool {
        self.state.compare_exchange(NOTIFIED, EMPTY, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }

    fn lock(&self) -> MutexGuard<'_, ()> {
        // Nothing runs under the lock that can panic; a poisoned lock
        // still guards nothing but the condvar handshake.
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposits the wakeup token, and wakes the parked thread if there is
    /// one.  Unparking a thread that is not blocked costs one atomic swap.
    pub fn unpark(&self) {
        if self.state.swap(NOTIFIED, Ordering::SeqCst) == PARKED {
            // Taking the lock orders this notify after the parker's wait
            // has released it, so the notify cannot fall in between its
            // `PARKED` store and its wait.
            drop(self.lock());
            self.cv.notify_one();
        }
    }
}

/// The shared registry of parked workers, in park order (a stack).
#[derive(Debug, Default)]
pub struct IdleStack {
    parked: Mutex<Vec<usize>>,
    /// Mirror of `parked.len()`, written under the lock, so producers can
    /// skip the lock when nobody is registered.
    len: AtomicUsize,
}

impl IdleStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        IdleStack::default()
    }

    fn locked(&self) -> MutexGuard<'_, Vec<usize>> {
        self.parked.lock().expect("idle stack poisoned")
    }

    fn publish_len(&self, parked: &[usize]) {
        self.len.store(parked.len(), Ordering::SeqCst);
    }

    /// Registers `worker` as parked (pushes it on top).  Must be called
    /// *before* the worker's final re-check of its work sources.
    pub fn push(&self, worker: usize) {
        let mut parked = self.locked();
        debug_assert!(!parked.contains(&worker), "worker parked twice");
        parked.push(worker);
        self.publish_len(&parked);
    }

    /// Deregisters `worker` wherever it sits on the stack.  Returns `true`
    /// if it was still registered — `false` means a producer already
    /// popped it.
    pub fn remove(&self, worker: usize) -> bool {
        let mut parked = self.locked();
        match parked.iter().position(|&w| w == worker) {
            Some(at) => {
                parked.remove(at);
                self.publish_len(&parked);
                true
            }
            None => false,
        }
    }

    /// Pops the most recently parked worker (last parked, first woken).
    pub fn pop_any(&self) -> Option<usize> {
        let mut parked = self.locked();
        let top = parked.pop();
        self.publish_len(&parked);
        top
    }

    /// Pops `worker` specifically, if it is registered.
    pub fn pop_specific(&self, worker: usize) -> bool {
        self.remove(worker)
    }

    /// Number of currently registered workers (one atomic load).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// `true` when no worker is registered (one atomic load).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the whole stack, top first (shutdown wakes everyone).
    pub fn drain(&self) -> Vec<usize> {
        let mut parked = self.locked();
        let mut all = std::mem::take(&mut *parked);
        self.publish_len(&parked);
        all.reverse();
        all
    }

    /// How many times `worker` is registered (the protocol keeps this ≤ 1).
    #[cfg(test)]
    pub(crate) fn registrations(&self, worker: usize) -> usize {
        self.locked().iter().filter(|&&w| w == worker).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_deposited_token_makes_park_immediate() {
        let p = Parker::new();
        p.unpark();
        let start = Instant::now();
        assert!(p.park_timeout(Duration::from_secs(5)), "token was waiting");
        assert!(start.elapsed() < Duration::from_secs(1), "must not block");
        // The token was consumed: the next park times out.
        assert!(!p.park_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn tokens_do_not_accumulate() {
        let p = Parker::new();
        p.unpark();
        p.unpark();
        assert!(p.park_timeout(Duration::from_millis(1)));
        assert!(!p.park_timeout(Duration::from_millis(1)), "one token, one wake");
    }

    #[test]
    fn unpark_wakes_a_blocked_parker() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || p2.park_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        p.unpark();
        assert!(t.join().unwrap(), "woken by token, not timeout");
    }

    #[test]
    fn an_untimed_park_returns_on_unpark() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || p2.park());
        std::thread::sleep(Duration::from_millis(20));
        p.unpark();
        t.join().unwrap();
        assert!(!p.park_timeout(Duration::ZERO), "the wake consumed the token");
    }

    #[test]
    fn unparking_a_running_thread_leaves_only_the_token() {
        let p = Parker::new();
        p.unpark();
        assert_eq!(p.state.load(Ordering::SeqCst), NOTIFIED, "no waiter was marked");
        p.park();
        assert_eq!(p.state.load(Ordering::SeqCst), EMPTY);
    }

    #[test]
    fn the_stack_wakes_last_parked_first() {
        let s = IdleStack::new();
        s.push(0);
        s.push(1);
        s.push(2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.pop_any(), Some(2));
        assert_eq!(s.pop_any(), Some(1));
        assert!(s.pop_specific(0));
        assert!(!s.pop_specific(0), "already popped");
        assert!(s.is_empty());
        assert_eq!(s.pop_any(), None);
    }

    #[test]
    fn drain_empties_top_first() {
        let s = IdleStack::new();
        s.push(3);
        s.push(7);
        assert_eq!(s.drain(), vec![7, 3]);
        assert!(s.is_empty());
    }
}
