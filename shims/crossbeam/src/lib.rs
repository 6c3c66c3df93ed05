//! Offline shim for `crossbeam`: `crossbeam::thread::scope`, built on
//! `std::thread::scope` (stable since Rust 1.63). The parallel
//! instrumenter (paper §3) and the `wasabi::fleet` batch engine are the
//! users.
//!
//! Differences from the real crate are confined to behavior the
//! workspace does not rely on: the scope closure and spawned closures
//! receive the same `&Scope` argument, handles expose `join()`, and a
//! panic anywhere inside the scope is surfaced as `Err` from `scope`.

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A panic payload, as in `std::thread::Result`.
    pub type Result<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    /// Run `f` with a scope in which borrowing, scoped threads can be
    /// spawned. All threads are joined before `scope` returns; if any
    /// unjoined thread (or `f` itself) panicked, the panic payload is
    /// returned as `Err`.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}
