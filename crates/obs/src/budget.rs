//! The memory axis of a solve's resource limits: an approximate byte
//! account shared across every layer of one solve.
//!
//! A solve's runtime limits all ride on one token (`posr-lia`'s
//! `CancelToken`): its cancellation flag, its wall-clock deadline, and an
//! optional `Arc<Budget>`.  The [`Budget`] is the memory part — an
//! *approximate* account of the bytes charged by the clause database, the
//! simplex tableau, the proof sink, and the automaton cache as they grow.
//! The token treats an exceeded budget exactly like a raised cancellation
//! flag, so every existing poll point degrades to a clean, tainted-aware
//! `Unknown`.  `POSR_MEM_BUDGET` arms it ([`mem_budget_from_env`]).
//!
//! Charging goes through *thread attachment* ([`attach`], mirroring
//! [`crate::CounterScope`]): a solve (and each CDCL search, for its own
//! token's budget) attaches the budget to the solving thread, and the
//! growth sites — the clause database, the tableau, the proof sink, the
//! process-global automaton cache — charge whatever budgets are attached
//! via the free functions [`charge_mem`] / [`uncharge_mem`].
//!
//! The accounting is deliberately approximate — constant-factor estimates
//! of the dominant allocations, charged at growth sites and (for the
//! clause database) credited back on GC.  The budget bounds *growth*, not
//! RSS.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The `Unknown` reason reported when a solve exceeds its memory budget.
pub const MEM_BUDGET_MSG: &str = "memory budget exceeded";

/// An approximate memory budget.  Cheap to poll (one relaxed load) and
/// cheap to charge (one `fetch_add`).  A limit of `u64::MAX` means
/// unlimited.
#[derive(Debug)]
pub struct Budget {
    mem_limit: u64,
    mem_used: AtomicU64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never fires.
    pub fn unlimited() -> Budget {
        Budget {
            mem_limit: u64::MAX,
            mem_used: AtomicU64::new(0),
        }
    }

    /// Caps the approximate memory account at `bytes`.
    pub fn with_mem_limit(mut self, bytes: u64) -> Budget {
        self.mem_limit = bytes;
        self
    }

    /// Adds `bytes` to the memory account.
    #[inline]
    pub fn charge_mem(&self, bytes: u64) {
        self.mem_used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Credits `bytes` back (garbage collection, dropped tableaux).
    /// Saturating: a mismatched credit clamps at zero instead of wrapping.
    pub fn uncharge_mem(&self, bytes: u64) {
        let _ = self
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Current memory account, bytes.
    pub fn mem_used(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// The `Unknown` reason the solve should report once the account is
    /// over its limit ([`MEM_BUDGET_MSG`]); `None` while within budget.
    #[inline]
    pub fn exceeded_axis(&self) -> Option<&'static str> {
        (self.mem_used.load(Ordering::Relaxed) > self.mem_limit).then_some(MEM_BUDGET_MSG)
    }

    /// `true` if this budget could ever fire (used by token fast paths).
    pub fn can_fire(&self) -> bool {
        self.mem_limit != u64::MAX
    }
}

thread_local! {
    /// The budgets attached to the calling thread (normally zero or one;
    /// nesting composes like counter scopes).
    static ATTACHED: RefCell<Vec<Arc<Budget>>> = const { RefCell::new(Vec::new()) };
}

/// Attaches `budget` to the calling thread until the guard drops; free
/// charges ([`charge_mem`] et al.) made by this thread land in it.
/// Re-attaching a budget that is already attached on this thread is a
/// no-op (nested solver layers all attach the solve's budget; a charge
/// must land exactly once).
pub fn attach(budget: &Arc<Budget>) -> BudgetAttachGuard {
    let fresh = ATTACHED.with(|a| {
        let mut v = a.borrow_mut();
        if v.iter().any(|b| Arc::ptr_eq(b, budget)) {
            false
        } else {
            v.push(Arc::clone(budget));
            true
        }
    });
    BudgetAttachGuard {
        budget: Arc::clone(budget),
        fresh,
    }
}

/// RAII guard of [`attach`]; detaches on drop (panic-safe).
pub struct BudgetAttachGuard {
    budget: Arc<Budget>,
    /// `false` for a nested re-attach — dropping it must not detach the
    /// outer attachment.
    fresh: bool,
}

impl Drop for BudgetAttachGuard {
    fn drop(&mut self) {
        if !self.fresh {
            return;
        }
        ATTACHED.with(|a| {
            let mut v = a.borrow_mut();
            if let Some(pos) = v.iter().rposition(|b| Arc::ptr_eq(b, &self.budget)) {
                v.remove(pos);
            }
        });
    }
}

/// Charges `bytes` of approximate memory to every budget attached to the
/// calling thread.  A no-op (one thread-local read) when none is.
pub fn charge_mem(bytes: u64) {
    ATTACHED.with(|a| {
        for b in a.borrow().iter() {
            b.charge_mem(bytes);
        }
    });
}

/// Credits `bytes` back to every attached budget.
pub fn uncharge_mem(bytes: u64) {
    ATTACHED.with(|a| {
        for b in a.borrow().iter() {
            b.uncharge_mem(bytes);
        }
    });
}

/// Parses `POSR_MEM_BUDGET` (bytes, with optional `k`/`m`/`g` suffix,
/// powers of 1024) into a memory cap; `None` when unset or unparseable.
pub fn mem_budget_from_env() -> Option<u64> {
    let spec = std::env::var("POSR_MEM_BUDGET").ok()?;
    parse_bytes(&spec)
}

fn parse_bytes(spec: &str) -> Option<u64> {
    let spec = spec.trim().to_ascii_lowercase();
    if spec.is_empty() {
        return None;
    }
    let (digits, mult) = match spec.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match spec.as_bytes()[spec.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d.trim(), mult)
        }
        None => (spec.as_str(), 1),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fires() {
        let b = Budget::unlimited();
        b.charge_mem(u64::MAX / 2);
        assert_eq!(b.exceeded_axis(), None);
        assert!(!b.can_fire());
    }

    #[test]
    fn mem_axis_fires_and_credits_back() {
        let b = Budget::unlimited().with_mem_limit(1000);
        assert!(b.can_fire());
        b.charge_mem(600);
        assert_eq!(b.exceeded_axis(), None);
        b.charge_mem(600);
        assert_eq!(b.exceeded_axis(), Some(MEM_BUDGET_MSG));
        b.uncharge_mem(600);
        assert_eq!(b.exceeded_axis(), None);
        // credits saturate at zero
        b.uncharge_mem(u64::MAX);
        assert_eq!(b.mem_used(), 0);
    }

    #[test]
    fn thread_attachment_routes_free_charges() {
        let b = Arc::new(Budget::unlimited().with_mem_limit(100));
        {
            let _g = attach(&b);
            charge_mem(40);
        }
        // detached: further charges don't land
        charge_mem(40);
        assert_eq!(b.mem_used(), 40);
    }

    #[test]
    fn nested_attach_charges_once() {
        let b = Arc::new(Budget::unlimited());
        let _outer = attach(&b);
        {
            let _inner = attach(&b);
            charge_mem(10);
        }
        // the inner guard must not have detached the outer attachment
        charge_mem(5);
        assert_eq!(b.mem_used(), 15);
    }

    #[test]
    fn attachment_is_per_thread() {
        let b = Arc::new(Budget::unlimited());
        let _g = attach(&b);
        std::thread::spawn(|| charge_mem(99)).join().unwrap();
        assert_eq!(b.mem_used(), 0);
    }

    #[test]
    fn byte_spec_parses_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("512M"), Some(512 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
    }
}
