//! Cooperative cancellation for long-running probes.
//!
//! A characterization sweep hands every grid cell a wall-clock budget: a
//! pathological cell (huge working set on a degraded machine, a buggy
//! experimental model stuck in a loop) must degrade to an explicit hole in
//! the surface, not hang the whole run. Probes cannot be interrupted from
//! outside without poisoning shared state, so cancellation is cooperative:
//!
//! * the sweep layer creates a [`CancelToken`] per cell (usually with a
//!   deadline) and installs it on the engine via
//!   [`crate::machine::Machine::set_cancel_token`];
//! * the probe loops consult the token every [`CHECK_INTERVAL`] simulated
//!   words — [`Guarded`] does this for the iterator-driven local passes,
//!   the remote inner loops check inline;
//! * a cancelled token makes the probe panic with the [`CellCancelled`]
//!   marker payload, which the resilient sweep runner catches with
//!   `catch_unwind` and records as a *timeout* (distinct from a genuine
//!   panic) — or leaves pending, when the run-wide budget fired — and
//!   drops the engine: `WarmState::reset` makes the next cell spawn a
//!   fresh one, so an unwound engine is never probed again.
//!
//! Checking wall clocks every word would distort nothing (costs are
//! simulated cycles, not real time) but would be slow; batching the check
//! keeps the unobserved overhead to one decrement per word.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many iterator items pass between deadline checks.
pub const CHECK_INTERVAL: u32 = 4096;

/// The panic payload a cancelled probe unwinds with.
///
/// Catchers downcast to this to distinguish a cooperative timeout from a
/// real assertion failure inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCancelled;

/// A cloneable cancellation token: an explicit flag plus an optional
/// wall-clock deadline fixed at construction.
///
/// Clones share the flag (an `Arc<AtomicBool>`), so cancelling any clone
/// cancels them all; the deadline is per-token data copied on clone.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally cancels once `budget` wall-clock time has
    /// elapsed from now. A zero budget is already expired — useful for
    /// deterministic tests.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// A child token sharing this token's flag, with its deadline capped at
    /// `budget` from now (the tighter of the two deadlines wins). The sweep
    /// layer derives one per cell from the run-wide token, so cancelling
    /// the run cancels every cell while each cell also has its own budget.
    pub fn child_with_deadline(&self, budget: Duration) -> CancelToken {
        let cell = Instant::now() + budget;
        CancelToken {
            flag: self.flag.clone(),
            deadline: Some(self.deadline.map_or(cell, |run| run.min(cell))),
        }
    }

    /// Cancels this token (and every clone sharing its flag).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag is set or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Panics with [`CellCancelled`] when the token is cancelled.
    pub fn bail_if_cancelled(&self) {
        if self.is_cancelled() {
            // resume_unwind skips the panic hook: a cooperative timeout is
            // an expected control-flow event, not a bug to report.
            std::panic::resume_unwind(Box::new(CellCancelled));
        }
    }
}

/// An iterator adapter checking a [`CancelToken`] every
/// [`CHECK_INTERVAL`] items.
///
/// With no token installed the per-item cost is one decrement and one
/// branch; the wall clock is only read at the batch boundary.
#[derive(Debug)]
pub struct Guarded<I> {
    inner: I,
    token: Option<CancelToken>,
    countdown: u32,
}

impl<I> Guarded<I> {
    /// Wraps `inner`; a `None` token disables all checking.
    pub fn new(inner: I, token: Option<CancelToken>) -> Self {
        Guarded {
            inner,
            token,
            countdown: CHECK_INTERVAL,
        }
    }
}

impl<I: Iterator> Iterator for Guarded<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = CHECK_INTERVAL;
            if let Some(token) = &self.token {
                token.bail_if_cancelled();
            }
        }
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fresh_tokens_are_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.bail_if_cancelled(); // must not panic
    }

    #[test]
    fn cancel_reaches_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn zero_deadline_is_immediately_expired() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let err = catch_unwind(AssertUnwindSafe(|| t.bail_if_cancelled()))
            .expect_err("an expired token must bail");
        assert!(err.downcast_ref::<CellCancelled>().is_some());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn guarded_passes_items_through_untouched() {
        let items: Vec<u32> = Guarded::new(0..10u32, None).collect();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
        let t = CancelToken::new();
        let items: Vec<u32> = Guarded::new(0..10u32, Some(t)).collect();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn guarded_bails_at_the_batch_boundary() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        let err = catch_unwind(AssertUnwindSafe(|| {
            Guarded::new(0..u32::MAX, Some(t)).count()
        }))
        .expect_err("an expired token must stop the iterator");
        assert!(err.downcast_ref::<CellCancelled>().is_some());
    }

    #[test]
    fn tokens_are_send_and_clone() {
        fn assert_send<T: Send + Clone>() {}
        assert_send::<CancelToken>();
    }
}
