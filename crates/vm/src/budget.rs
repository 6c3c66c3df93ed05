//! Resource governance for a running [`Instance`](crate::Instance):
//! wall-clock deadlines, cooperative cancellation, memory-growth caps.
//!
//! A [`Budget`] is optional and external: the interpreter itself never
//! creates one. When no budget is attached, the hot loop pays a single
//! hoisted, perfectly-predicted branch — the same zero-cost pattern the
//! fuel machinery uses (and that the zero-cost proptest pins down).
//! When a budget is active, the deadline/cancellation state is polled
//! only every [`BUDGET_POLL_INTERVAL`] weight units, so even governed
//! runs amortize the `Instant::now()` call and the atomic load.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trap::Trap;

/// How many op-weight units execute between budget polls.
///
/// At the interpreter's throughput (tens to hundreds of millions of
/// weight units per second) this bounds the reaction latency to a
/// cancellation or deadline to well under a millisecond, while keeping
/// the `Instant::now()` syscall off the per-op path.
pub const BUDGET_POLL_INTERVAL: u64 = 4096;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// A shared, clonable cancellation flag.
///
/// One side (a daemon handling a `cancel` request, a test) calls
/// [`cancel`](CancelToken::cancel); a [`Budget`] whose deadline expires
/// calls [`fire_deadline`](CancelToken::fire_deadline) at the poll that
/// sees it, so every instance sharing the token stops too. The
/// interpreter polls the token from the hot loop and unwinds with
/// [`Trap::Cancelled`] or [`Trap::DeadlineExceeded`] within one poll
/// interval.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicU8>);

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cooperative cancellation. Idempotent; a deadline that
    /// already fired wins (the more specific cause is preserved).
    pub fn cancel(&self) {
        let _ = self
            .0
            .compare_exchange(LIVE, CANCELLED, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Mark the token as expired by deadline. Idempotent; an explicit
    /// cancellation that already fired wins.
    pub fn fire_deadline(&self) {
        let _ = self
            .0
            .compare_exchange(LIVE, DEADLINE, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Has either `cancel` or `fire_deadline` been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed) != LIVE
    }

    /// The trap this token's current state maps to, if any.
    pub(crate) fn as_trap(&self) -> Option<Trap> {
        match self.0.load(Ordering::Relaxed) {
            CANCELLED => Some(Trap::Cancelled),
            DEADLINE => Some(Trap::DeadlineExceeded),
            _ => None,
        }
    }
}

/// Resource limits for one execution: any subset of a wall-clock
/// deadline, a cancellation token, and a linear-memory cap.
///
/// `Budget::default()` is unlimited; attach via
/// [`Instance::set_budget`](crate::Instance::set_budget).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_memory_pages: Option<u32>,
}

impl Budget {
    /// An unlimited budget (attachable, but never fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trap with [`Trap::DeadlineExceeded`] once `timeout` has elapsed
    /// from now.
    pub fn deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Trap with [`Trap::DeadlineExceeded`] at the given instant.
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Poll `token` from the hot loop; trap with [`Trap::Cancelled`]
    /// (or [`Trap::DeadlineExceeded`], if a budget sharing the token saw
    /// its deadline expire) once it fires.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Trap with [`Trap::MemoryLimit`] if `memory.grow` would push the
    /// linear memory past `pages` 64 KiB pages.
    pub fn max_memory_pages(mut self, pages: u32) -> Self {
        self.max_memory_pages = Some(pages);
        self
    }

    /// The memory cap, if one is set.
    pub fn memory_cap(&self) -> Option<u32> {
        self.max_memory_pages
    }

    /// The cancellation token, if one is attached.
    pub fn token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Check deadline and token. Called from the interpreter every
    /// [`BUDGET_POLL_INTERVAL`] weight units.
    pub(crate) fn check(&self) -> Result<(), Trap> {
        if let Some(token) = &self.cancel {
            if let Some(trap) = token.as_trap() {
                return Err(trap);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                // Make the expiry visible to everyone sharing the token
                // (e.g. sibling instances of the same job).
                if let Some(token) = &self.cancel {
                    token.fire_deadline();
                }
                return Err(Trap::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_states_map_to_traps() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.as_trap(), None);
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.as_trap(), Some(Trap::Cancelled));
        // First cause wins: a later deadline does not overwrite.
        t.fire_deadline();
        assert_eq!(t.as_trap(), Some(Trap::Cancelled));
    }

    #[test]
    fn deadline_wins_when_it_fires_first() {
        let t = CancelToken::new();
        t.fire_deadline();
        t.cancel();
        assert_eq!(t.as_trap(), Some(Trap::DeadlineExceeded));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn budget_check_passes_when_unlimited() {
        assert_eq!(Budget::new().check(), Ok(()));
    }

    #[test]
    fn expired_deadline_fails_check_and_fires_shared_token() {
        let token = CancelToken::new();
        let b = Budget::new()
            .deadline(Duration::from_millis(0))
            .cancel_token(token.clone());
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.check(), Err(Trap::DeadlineExceeded));
        assert_eq!(token.as_trap(), Some(Trap::DeadlineExceeded));
    }
}
