//! The one carrier of a solve's runtime limits.
//!
//! A [`CancelToken`] bundles everything that can stop a solve early: an
//! optional shared flag (set by another thread via [`CancelToken::cancel`],
//! or by an injected fault), an optional wall-clock deadline, and an
//! optional memory [`Budget`].  `posr-core`'s `StringSolver::solve` builds
//! one token per query and passes it down as an argument; every layer of
//! the solving stack — the position procedure and the baseline solvers of
//! `posr-core`, the CDCL(T) search and branch-and-bound of this crate, and
//! the portfolio engine of `posr-portfolio` — polls it at its branch
//! points and unwinds with an `Unknown` answer once it fires.  Polling a
//! token that has neither a flag, a deadline nor a budget is free, so
//! sequential callers pay nothing for the plumbing.
//!
//! The limits that are not set per call are constants next to the code
//! they bound, each with its own `Unknown` reason: the per-call conflict
//! cap ([`crate::cdcl::MAX_CONFLICTS`]) and the branch-and-bound node cap
//! ([`crate::intfeas::BRANCH_AND_BOUND_LIMIT_MSG`]) here, the
//! connectivity-cut and `¬contains` round caps in `posr-core`'s position
//! procedure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use posr_obs::Budget;

/// The `Unknown` reason reported by every layer when a token fires through
/// its flag (as opposed to its deadline).
pub const CANCELLED_MSG: &str = "cancelled";

/// The `Unknown` reason reported when a token fires through its deadline.
pub const DEADLINE_MSG: &str = "deadline exceeded";

/// A cloneable cancellation/deadline/budget token.
///
/// Clones share the underlying flag: cancelling any clone cancels them all.
/// A token may also carry a shared memory [`Budget`]; an exceeded budget
/// fires the token exactly like a raised flag, so every existing poll
/// point degrades to the same clean `Unknown`.  The default token
/// ([`CancelToken::none`]) can never fire.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    budget: Option<Arc<Budget>>,
}

impl CancelToken {
    /// A token that can never fire (the default for sequential solving).
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh cancellable token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
            budget: None,
        }
    }

    /// A fresh cancellable token that also fires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: Some(deadline),
            budget: None,
        }
    }

    /// This token with `budget` attached: the token fires once the budget
    /// is exceeded.  Clones (and [`merged_with_deadline`] results) share
    /// the budget.
    ///
    /// [`merged_with_deadline`]: CancelToken::merged_with_deadline
    pub fn with_budget(mut self, budget: Arc<Budget>) -> CancelToken {
        self.budget = Some(budget);
        self
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&Arc<Budget>> {
        self.budget.as_ref()
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The per-solve token: shares this token's flag and budget, and its
    /// deadline is the earlier of this one's and `deadline`.  A token
    /// without a flag ([`CancelToken::none`]) gets a fresh one, so a
    /// `cancel()` on the result — an injected `Cancel` fault, say — always
    /// fires it.
    pub fn merged_with_deadline(&self, deadline: Option<Instant>) -> CancelToken {
        let deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        CancelToken {
            flag: Some(self.flag.clone().unwrap_or_default()),
            deadline,
            budget: self.budget.clone(),
        }
    }

    /// Fires the shared flag.  Tokens without a flag ([`CancelToken::none`])
    /// ignore the request.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once the flag is set; does not consult the deadline.
    pub fn flag_raised(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The budget's `Unknown` reason once it is exceeded.
    pub fn budget_exceeded(&self) -> Option<&'static str> {
        self.budget.as_ref().and_then(|b| b.exceeded_axis())
    }

    /// `true` once the flag is set, the deadline has passed, or the budget
    /// is exceeded.
    pub fn is_cancelled(&self) -> bool {
        if self.flag_raised() {
            return true;
        }
        if self.budget_exceeded().is_some() {
            return true;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` if polling this token could ever return `true` (used to skip
    /// `Instant::now` syscalls on the fast path).
    pub fn can_fire(&self) -> bool {
        self.flag.is_some()
            || self.deadline.is_some()
            || self.budget.as_ref().is_some_and(|b| b.can_fire())
    }

    /// The `Unknown` reason matching the way the token fired.
    pub fn unknown_reason(&self) -> String {
        if self.flag_raised() {
            return CANCELLED_MSG.to_string();
        }
        if let Some(axis) = self.budget_exceeded() {
            return axis.to_string();
        }
        DEADLINE_MSG.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn none_never_fires() {
        let token = CancelToken::none();
        assert!(!token.is_cancelled());
        token.cancel(); // a no-op, not a panic
        assert!(!token.is_cancelled());
        assert!(!token.can_fire());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.unknown_reason(), CANCELLED_MSG);
    }

    #[test]
    fn deadline_fires() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert_eq!(token.unknown_reason(), DEADLINE_MSG);
    }

    #[test]
    fn merged_deadline_takes_the_earlier() {
        let early = Instant::now();
        let late = early + Duration::from_secs(60);
        let token = CancelToken::with_deadline(late).merged_with_deadline(Some(early));
        assert_eq!(token.deadline(), Some(early));
        // the merged clone still shares the flag
        let base = CancelToken::new();
        let merged = base.merged_with_deadline(Some(late));
        base.cancel();
        assert!(merged.is_cancelled());
    }

    #[test]
    fn budget_axes_fire_the_token() {
        let budget = Arc::new(Budget::unlimited().with_mem_limit(100));
        let token = CancelToken::new().with_budget(Arc::clone(&budget));
        assert!(token.can_fire());
        assert!(!token.is_cancelled());
        budget.charge_mem(101);
        assert!(token.is_cancelled());
        assert_eq!(token.unknown_reason(), posr_obs::MEM_BUDGET_MSG);
        // clones and deadline merges share the budget
        let merged = token.merged_with_deadline(None);
        assert!(merged.is_cancelled());
        // the flag takes precedence in the reported reason
        token.cancel();
        assert_eq!(token.unknown_reason(), CANCELLED_MSG);
    }

    #[test]
    fn merging_a_flagless_token_adds_a_flag() {
        let later = Instant::now() + Duration::from_secs(60);
        let budget = Arc::new(Budget::unlimited());
        let merged = CancelToken::none()
            .with_budget(Arc::clone(&budget))
            .merged_with_deadline(Some(later));
        assert_eq!(merged.deadline(), Some(later));
        assert!(merged.budget().is_some_and(|b| Arc::ptr_eq(b, &budget)));
        assert!(!merged.is_cancelled());
        merged.cancel();
        assert!(merged.is_cancelled());
        assert_eq!(merged.unknown_reason(), CANCELLED_MSG);
    }

    #[test]
    fn cancellation_crosses_threads() {
        let token = CancelToken::new();
        let worker = token.clone();
        let handle = std::thread::spawn(move || {
            while !worker.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        std::thread::sleep(Duration::from_millis(5));
        token.cancel();
        assert!(handle.join().unwrap());
    }
}
