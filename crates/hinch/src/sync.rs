//! The engine's sync facade.
//!
//! All concurrency primitives used inside `engine/` come from this
//! module — never directly from `std::sync::atomic`, `parking_lot`, or
//! `std::thread` (a CI lint gate enforces this). The payoff: the whole
//! engine sync layer is model-checkable.
//!
//! - **Normal builds**: zero-cost re-exports of the std atomics, the
//!   parking_lot lock types and `std::thread`. `ModelCell` is a
//!   `#[repr(transparent)]` `UnsafeCell` wrapper whose accessors
//!   inline to nothing.
//! - **`--cfg hinch_model` builds**: every operation routes through
//!   `schedcheck`'s modeled primitives, turning each atomic access,
//!   lock, park and spawn into a scheduler yield point with
//!   happens-before tracking. `crates/schedcheck/tests/engine_model.rs`
//!   drives the engine through seeded schedule exploration this way.
//!
//! Model mode is a rustc `--cfg`, not a cargo feature, on purpose:
//! feature unification would silently poison every crate in a workspace
//! build, while `RUSTFLAGS="--cfg hinch_model"` plus a dedicated target
//! dir keeps model builds fully separate (see `scripts/ci.sh`).

#[cfg(not(hinch_model))]
mod imp {
    pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    }

    pub mod thread {
        pub use std::thread::*;
    }

    pub mod cell {
        /// Closure-access `UnsafeCell` wrapper, API-identical to the
        /// race-checked model-mode cell. Normal builds: zero cost.
        #[repr(transparent)]
        pub struct ModelCell<T: ?Sized>(core::cell::UnsafeCell<T>);

        unsafe impl<T: ?Sized + Send> Send for ModelCell<T> {}
        unsafe impl<T: ?Sized + Send> Sync for ModelCell<T> {}

        impl<T> ModelCell<T> {
            #[inline]
            pub const fn new(v: T) -> Self {
                ModelCell(core::cell::UnsafeCell::new(v))
            }

            #[inline]
            pub fn into_inner(self) -> T {
                self.0.into_inner()
            }
        }

        impl<T: ?Sized> ModelCell<T> {
            /// Shared read access. Callers state the synchronization
            /// argument at the call site (SAFETY comment); model builds
            /// check it with vector clocks.
            #[inline]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.0.get())
            }

            /// Exclusive access; same contract as [`ModelCell::with`].
            #[inline]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.0.get())
            }

            #[inline]
            pub fn get_mut(&mut self) -> &mut T {
                unsafe { &mut *self.0.get() }
            }
        }
    }

    /// Host parallelism with a fallback, used to clamp worker counts.
    #[inline]
    pub fn hardware_parallelism(default: usize) -> usize {
        std::thread::available_parallelism().map_or(default, |n| n.get())
    }
}

#[cfg(hinch_model)]
mod imp {
    pub use schedcheck::sync::{
        atomic, cell, hardware_parallelism, thread, Condvar, Mutex, MutexGuard, RwLock,
        RwLockReadGuard, RwLockWriteGuard,
    };
}

pub use imp::*;

/// Fault injection for model-mode regression tests: compile-time-gated
/// switches that re-introduce fixed races so the model checker can
/// prove it would have caught them. Plain process-global flags — the
/// model tests that flip them serialize on their own test mutex.
#[cfg(hinch_model)]
pub mod faults {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Re-introduce the PR-6 submit-wake race: `Runtime::submit` uses
    /// the spare-parallelism-throttled worker wake instead of the
    /// unconditional external wake, so a client-thread push can strand
    /// injector jobs with the whole pool parked.
    static THROTTLED_SUBMIT_WAKE: AtomicBool = AtomicBool::new(false);

    /// Re-introduce the PR-6 drain-admission race: `Runtime::drain`
    /// skips closing admission (the per-tenant draining flag), so a
    /// racing submit can be accepted and then silently discarded by
    /// teardown.
    static DRAIN_SKIPS_ADMISSION_CLOSE: AtomicBool = AtomicBool::new(false);

    /// Break the landing rule (`crate::event`): a manager entry of
    /// iteration *i* also takes the events due at *i + 1*. Whether those
    /// have been sent when the entry runs depends on the schedule, so the
    /// iteration a reconfiguration lands on does too.
    static ENTRY_TAKES_NEXT_DUE: AtomicBool = AtomicBool::new(false);

    pub fn set_throttled_submit_wake(on: bool) {
        THROTTLED_SUBMIT_WAKE.store(on, Ordering::SeqCst);
    }

    pub fn throttled_submit_wake() -> bool {
        THROTTLED_SUBMIT_WAKE.load(Ordering::SeqCst)
    }

    pub fn set_drain_skips_admission_close(on: bool) {
        DRAIN_SKIPS_ADMISSION_CLOSE.store(on, Ordering::SeqCst);
    }

    pub fn drain_skips_admission_close() -> bool {
        DRAIN_SKIPS_ADMISSION_CLOSE.load(Ordering::SeqCst)
    }

    pub fn set_entry_takes_next_due(on: bool) {
        ENTRY_TAKES_NEXT_DUE.store(on, Ordering::SeqCst);
    }

    pub fn entry_takes_next_due() -> bool {
        ENTRY_TAKES_NEXT_DUE.load(Ordering::SeqCst)
    }
}
