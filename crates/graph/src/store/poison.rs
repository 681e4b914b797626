//! The poison protocol [`PagedGraph`](crate::store::PagedGraph) and
//! [`StoreSession`](crate::store::StoreSession) share.
//!
//! [`Graph`](crate::traits::Graph) accessors cannot return `Result`s, so a read that
//! still fails after checksum verification and retries poisons its holder instead of
//! panicking: the first fatal error is kept (with the fault observer's context), and
//! every later read returns an empty answer without touching the disk.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

/// The first fatal I/O error of a poisoned store or session, plus the context the fault
/// observer captured at poison time (typically the active pipeline phase).
#[derive(Debug)]
pub struct FatalIoError {
    /// The error of the first failed access.
    pub error: io::Error,
    /// Context recorded by the fault observer, if one was installed.
    pub context: Option<String>,
}

/// Callback capturing ambient context (e.g. the active memtrack phase) the moment its
/// holder poisons itself.
type FaultObserver = Box<dyn Fn() -> String + Send + Sync>;

/// Poison state: the fast-path flag, the first fatal error until it is taken, and the
/// observer invoked once, at poison time.
#[derive(Default)]
pub(crate) struct Poison {
    poisoned: AtomicBool,
    fatal: Mutex<Option<FatalIoError>>,
    fault_observer: Mutex<Option<FaultObserver>>,
}

impl Poison {
    /// `read()`'s value, or `T::default()` without calling it once poisoned. A failed
    /// read poisons: the *first* fatal error (and the observer's context) is kept,
    /// later ones are dropped.
    pub(crate) fn read<T: Default>(&self, read: impl FnOnce() -> io::Result<T>) -> T {
        if self.is_poisoned() {
            return T::default();
        }
        read().unwrap_or_else(|error| {
            let mut fatal = self.fatal.lock();
            if fatal.is_none() {
                let context = self.fault_observer.lock().as_ref().map(|observe| observe());
                *fatal = Some(FatalIoError { error, context });
                self.poisoned.store(true, Ordering::Release);
            }
            T::default()
        })
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    pub(crate) fn take_fatal_error(&self) -> Option<FatalIoError> {
        self.fatal.lock().take()
    }

    pub(crate) fn set_fault_observer(&self, observe: impl Fn() -> String + Send + Sync + 'static) {
        *self.fault_observer.lock() = Some(Box::new(observe));
    }
}
