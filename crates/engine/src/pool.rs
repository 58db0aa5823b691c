//! The borrowed-worker pool: idle shard workers lend compute capacity
//! to whoever is running an expensive cut.
//!
//! Capacity moves with an explicit grant and comes back when the
//! borrower is done — the return rides the [`CutLoan`] drop, so a panicking
//! borrower still gives the capacity back. The loan carries only a
//! *count*: borrowed workers are OS threads the borrower spawns itself
//! (`mincut_core::par_approx_min_cut`), sized by how many shard workers
//! are currently parked and therefore not competing for cores.
//! Determinism is unaffected by construction — the parallel kernel
//! merges to byte-identical results at any helper count — so the pool
//! only ever changes wall-clock, never a response stream.
//!
//! Two counters keep the ledger honest under racing park/wake/borrow:
//! workers own `registered` (incremented on park, decremented on wake,
//! always by the same thread in pairs) and loans own `out`; available
//! capacity is `registered - out`, saturating at zero when a lent
//! worker happens to wake before the loan returns.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared idle-capacity ledger. `CutPool::default()` is the disabled
/// pool (no shared state): every borrow returns an empty loan, which is
/// what a plain single-threaded [`Engine`](crate::Engine) runs with.
#[derive(Debug, Clone, Default)]
pub struct CutPool(Option<Arc<PoolShared>>);

#[derive(Debug, Default)]
struct PoolShared {
    /// Shard workers currently parked.
    registered: AtomicUsize,
    /// Capacity currently out on loan.
    out: AtomicUsize,
    /// Loans that actually borrowed at least one worker.
    loans: AtomicU64,
    /// Total workers handed out across those loans.
    lent: AtomicU64,
}

impl CutPool {
    /// An enabled, initially-empty pool: workers register capacity as
    /// they park ([`enter_idle`](CutPool::enter_idle)).
    pub fn enabled() -> Self {
        CutPool(Some(Arc::new(PoolShared::default())))
    }

    /// True when this handle shares a ledger (shard mode with the kernel
    /// pool on).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A worker parked with an empty queue: its core is up for loan.
    pub fn enter_idle(&self) {
        if let Some(s) = &self.0 {
            s.registered.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The worker woke up and is competing for its core again. Paired
    /// with [`enter_idle`](CutPool::enter_idle) by the worker itself; an
    /// outstanding loan against this capacity simply leaves `out`
    /// exceeding `registered` until it returns (available saturates at
    /// zero).
    pub fn leave_idle(&self) {
        if let Some(s) = &self.0 {
            let prev = s.registered.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "leave_idle without a matching enter_idle");
        }
    }

    /// Borrow up to `max` currently-available workers. The returned loan
    /// gives the capacity back on drop.
    pub fn borrow(&self, max: usize) -> CutLoan {
        let Some(s) = &self.0 else { return CutLoan { pool: CutPool(None), helpers: 0 } };
        loop {
            let out = s.out.load(Ordering::Acquire);
            let registered = s.registered.load(Ordering::Acquire);
            let take = registered.saturating_sub(out).min(max);
            if take == 0 {
                return CutLoan { pool: self.clone(), helpers: 0 };
            }
            if s.out.compare_exchange(out, out + take, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                s.loans.fetch_add(1, Ordering::Relaxed);
                s.lent.fetch_add(take as u64, Ordering::Relaxed);
                return CutLoan { pool: self.clone(), helpers: take };
            }
        }
    }

    /// `(loans, workers lent)` over the pool's lifetime.
    pub fn loan_totals(&self) -> (u64, u64) {
        match &self.0 {
            Some(s) => (s.loans.load(Ordering::Relaxed), s.lent.load(Ordering::Relaxed)),
            None => (0, 0),
        }
    }

    /// Currently-available capacity (for tests/introspection).
    pub fn idle_now(&self) -> usize {
        self.0.as_ref().map_or(0, |s| {
            s.registered.load(Ordering::Acquire).saturating_sub(s.out.load(Ordering::Acquire))
        })
    }
}

/// An outstanding capacity loan; gives the workers back on drop.
#[derive(Debug)]
pub struct CutLoan {
    pool: CutPool,
    helpers: usize,
}

impl CutLoan {
    /// How many workers this loan actually secured (0 on a disabled or
    /// drained pool).
    pub fn helpers(&self) -> usize {
        self.helpers
    }
}

impl Drop for CutLoan {
    fn drop(&mut self) {
        if self.helpers > 0 {
            if let Some(s) = &self.pool.0 {
                let prev = s.out.fetch_sub(self.helpers, Ordering::AcqRel);
                debug_assert!(prev >= self.helpers, "loan returned more than was out");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_pool_lends_nothing() {
        let pool = CutPool::default();
        assert!(!pool.is_enabled());
        pool.enter_idle();
        assert_eq!(pool.borrow(4).helpers(), 0);
        assert_eq!(pool.loan_totals(), (0, 0));
    }

    #[test]
    fn borrow_is_capped_by_idle_capacity_and_returns_on_drop() {
        let pool = CutPool::enabled();
        pool.enter_idle();
        pool.enter_idle();
        pool.enter_idle();
        {
            let loan = pool.borrow(2);
            assert_eq!(loan.helpers(), 2);
            assert_eq!(pool.idle_now(), 1);
            // A second borrower takes what is left.
            let rest = pool.borrow(5);
            assert_eq!(rest.helpers(), 1);
            assert_eq!(pool.idle_now(), 0);
            assert_eq!(pool.borrow(1).helpers(), 0, "drained");
        }
        assert_eq!(pool.idle_now(), 3, "both loans returned");
        assert_eq!(pool.loan_totals(), (2, 3));
    }

    #[test]
    fn wake_during_loan_keeps_the_ledger_balanced() {
        let pool = CutPool::enabled();
        pool.enter_idle();
        let loan = pool.borrow(1);
        assert_eq!(loan.helpers(), 1);
        // The parked worker wakes while its core is lent: out temporarily
        // exceeds registered, available saturates at zero ...
        pool.leave_idle();
        assert_eq!(pool.idle_now(), 0);
        drop(loan);
        // ... and after both the wake and the return, the ledger is back
        // to exactly zero — no phantom capacity.
        assert_eq!(pool.idle_now(), 0);
        pool.enter_idle();
        assert_eq!(pool.idle_now(), 1);
    }
}
