//! Minimal, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no access to a cargo registry, so this shim implements
//! exactly the API subset the workspace uses. It is one driver under one adapter type,
//! plus [`join`]:
//!
//! * [`Par`] is every data-parallel shape: a length and a function from index to item.
//!   `par_iter`, `par_chunks`, `par_chunks_mut` and `(a..b).into_par_iter()` build one,
//!   `enumerate` / `map` wrap its function, and `for_each`, `collect`, `reduce`, `sum`
//!   consume it. `filter_map` leaves the indexed world for [`ParFilterMap`].
//! * Every consumer funnels into one private driver, which splits `0..len` into one
//!   contiguous range per worker on a fresh `std::thread::scope`. That is cruder than
//!   rayon's work-stealing but sufficient for the loops of this workspace, whose
//!   iterations have near-uniform cost. Nested parallel calls inside a worker run
//!   sequentially instead of oversubscribing.
//! * [`join`] runs two closures, splitting the current thread budget between them, so
//!   nested joins (the initial-partitioning bisection tree) fan out until the budget is
//!   exhausted and run sequentially below it.
//!
//! The semantics match rayon where they matter for this workspace: `collect`, `reduce`
//! and `sum` preserve item order, and with a single-thread pool installed everything runs
//! sequentially on the calling thread (so single-thread determinism tests hold).
//!
//! Threads are anonymous: a worker has a range of indices and a thread budget, never an
//! identity, and nothing here answers "which thread am I". Per-thread state is leased by
//! the caller (a pool of buffers it checks out per task), not indexed by worker.

use std::cell::Cell;
use std::sync::Mutex;

/// Inputs shorter than this run sequentially: thread spawn overhead (~tens of
/// microseconds) dwarfs the work of small loops.
const MIN_PARALLEL_LEN: usize = 4096;

thread_local! {
    /// Thread budget of the parallel calls issued from this thread; 0 = never set, use
    /// the machine's parallelism.
    static NUM_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Sets the calling thread's budget and puts the previous one back on drop, so the
/// budget also survives an unwind: a thread that catches a panic out of a parallel call
/// (a test harness, an engine session serving the next request) keeps its parallelism.
struct Budget(usize);

impl Budget {
    fn set(threads: usize) -> Self {
        Budget(NUM_THREADS.with(|c| c.replace(threads)))
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        NUM_THREADS.with(|c| c.set(self.0));
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Number of threads parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    match NUM_THREADS.with(|c| c.get()) {
        0 => available_threads(),
        configured => configured,
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`] (the shim never fails, and every
/// caller unwraps it, so `Debug` is all it needs).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// A "pool" is just a configured thread count; workers are spawned per parallel call.
pub struct ThreadPool {
    num_threads: usize,
}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: match self.num_threads {
                0 => available_threads(),
                n => n,
            },
        })
    }
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing parallel operations inside.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _budget = Budget::set(self.num_threads);
        f()
    }
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// The current thread budget (`current_num_threads()`) is split between the two
/// branches: `a` keeps the larger half on the calling thread, `b` runs on a freshly
/// spawned scoped thread with the remainder. Nested joins therefore fan out until the
/// budget reaches one thread, below which everything runs sequentially on the caller —
/// so with a single-thread pool installed, `join(a, b)` is exactly `(a(), b())`.
///
/// A panic in either closure propagates to the caller after both branches finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = current_num_threads();
    if threads <= 1 {
        return (a(), b());
    }
    let budget_b = threads / 2;
    let mut rb_slot: Option<RB> = None;
    let ra = std::thread::scope(|scope| {
        let rb_slot = &mut rb_slot;
        let handle = scope.spawn(move || {
            let _budget = Budget::set(budget_b);
            *rb_slot = Some(b());
        });
        let _budget = Budget::set(threads - budget_b);
        let ra = a();
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
        ra
    });
    (ra, rb_slot.expect("join branch completed without a result"))
}

/// A raw pointer that may cross thread boundaries. Safety rests on the driver handing
/// each worker a disjoint index range and every consumer visiting an index once.
struct SharedPtr<T>(*mut T);
// SAFETY: the pointer is only ever offset and dereferenced at indices no other thread
// touches (see the two users below); the pointees move between threads, hence `T: Send`.
unsafe impl<T: Send> Send for SharedPtr<T> {}
unsafe impl<T: Send> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    /// The address of element `i`. A method, so closures capture the wrapper (which is
    /// `Sync`) rather than its raw-pointer field.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

/// Splits `0..len` into `workers` near-equal contiguous ranges; returns range `w`.
fn split_range(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = len / workers;
    let extra = len % workers;
    let start = w * base + w.min(extra);
    let end = start + base + usize::from(w < extra);
    (start, end)
}

/// The driver: runs `body(start, end)` over disjoint ranges covering `0..len`, one per
/// worker, on up to `current_num_threads()` workers (the caller is one of them).
/// `weight` scales the sequential-fallback threshold: it is the underlying element count
/// when `len` counts coarser tasks (e.g. chunks).
fn drive<F>(len: usize, weight: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || len <= 1 || weight < MIN_PARALLEL_LEN {
        body(0, len);
        return;
    }
    let workers = threads.min(len);
    let run = |w: usize| {
        // Workers advertise a single thread so nested parallel calls run sequentially
        // instead of oversubscribing the machine.
        let _budget = Budget::set(1);
        let (start, end) = split_range(len, workers, w);
        body(start, end);
    };
    std::thread::scope(|scope| {
        let run = &run;
        for w in 1..workers {
            scope.spawn(move || run(w));
        }
        run(0);
    });
}

/// The one data-parallel adapter: `len` items, item `i` produced by `get(i)`.
///
/// Built by [`ParallelSlice::par_iter`], [`ParallelSlice::par_chunks`],
/// [`ParallelSliceMut::par_chunks_mut`] and [`IntoParallelIterator::into_par_iter`].
/// Every consumer calls `get` exactly once per index of `0..len`, which is what lets
/// `par_chunks_mut` hand out `&mut` chunks from a shared function.
pub struct Par<G> {
    len: usize,
    /// Element count behind the `len` items (see [`drive`]).
    weight: usize,
    get: G,
}

impl<T, G: Fn(usize) -> T + Sync> Par<G> {
    pub fn enumerate(self) -> Par<impl Fn(usize) -> (usize, T) + Sync> {
        let Par { len, weight, get } = self;
        Par {
            len,
            weight,
            get: move |i| (i, get(i)),
        }
    }

    pub fn map<R, F>(self, f: F) -> Par<impl Fn(usize) -> R + Sync>
    where
        F: Fn(T) -> R + Sync,
    {
        let Par { len, weight, get } = self;
        Par {
            len,
            weight,
            get: move |i| f(get(i)),
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<impl Fn(usize) -> Option<R> + Sync>
    where
        F: Fn(T) -> Option<R> + Sync,
    {
        ParFilterMap(self.map(f))
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        drive(self.len, self.weight, |start, end| {
            for i in start..end {
                f((self.get)(i));
            }
        });
    }

    /// Collects the items in index order: item `i` is written to slot `i`.
    pub fn collect(self) -> Vec<T>
    where
        T: Send,
    {
        let mut out: Vec<T> = Vec::with_capacity(self.len);
        let slots = SharedPtr(out.as_mut_ptr());
        drive(self.len, self.weight, |start, end| {
            for i in start..end {
                // SAFETY: `i < len` lies in the capacity reserved above, and each index is
                // written exactly once, by the one worker whose range contains it.
                unsafe { slots.at(i).write((self.get)(i)) };
            }
        });
        // SAFETY: the driver returned, so every worker finished and all `len` slots are
        // initialised (a panicking worker unwinds past this line and leaks instead).
        unsafe { out.set_len(self.len) };
        out
    }

    /// Folds the items in index order (so `op` need not be commutative), after producing
    /// them in parallel.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        T: Send,
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        self.collect().into_iter().fold(identity(), op)
    }

    pub fn sum<S>(self) -> S
    where
        T: Send,
        S: std::iter::Sum<T>,
    {
        self.collect().into_iter().sum()
    }
}

/// What [`Par::filter_map`] returns: the kept items have no index of their own, so the
/// only consumers are the two order-preserving collects.
pub struct ParFilterMap<G>(Par<G>);

impl<R: Send, G: Fn(usize) -> Option<R> + Sync> ParFilterMap<G> {
    pub fn collect(self) -> Vec<R> {
        let mut out = Vec::new();
        self.collect_into_vec(&mut out);
        out
    }

    /// Collects into `out`, reusing its capacity (order-preserving, like `collect`).
    ///
    /// `out` is cleared first. This reuses the (large) concatenation buffer across
    /// calls; the small per-worker parts are still allocated fresh per call. (Real rayon
    /// offers `collect_into_vec` on indexed iterators; this shim extends it to the
    /// filtered shape the workspace needs.)
    pub fn collect_into_vec(self, out: &mut Vec<R>) {
        let Par { len, weight, get } = self.0;
        let parts = Mutex::new(Vec::new());
        drive(len, weight, |start, end| {
            let part: Vec<R> = (start..end).filter_map(&get).collect();
            // Poisoned only if the push itself panicked under the lock.
            let mut parts = parts.lock().expect("handing in a part panicked");
            parts.push((start, part));
        });
        let mut parts = parts.into_inner().expect("handing in a part panicked");
        parts.sort_unstable_by_key(|&(start, _)| start);
        out.clear();
        for (_, part) in parts {
            out.extend(part);
        }
    }
}

/// Index types over which `(a..b).into_par_iter()` is supported.
pub trait ParIndex: Copy + Send + Sync {
    fn to_usize(self) -> usize;
    fn from_usize(i: usize) -> Self;
}

macro_rules! par_index {
    ($($t:ty),*) => {$(
        impl ParIndex for $t {
            #[inline]
            fn to_usize(self) -> usize {
                self as usize
            }
            #[inline]
            fn from_usize(i: usize) -> Self {
                i as $t
            }
        }
    )*};
}

par_index!(u32, u64, usize);

pub trait IntoParallelIterator {
    type Item;
    fn into_par_iter(self) -> Par<impl Fn(usize) -> Self::Item + Sync>;
}

impl<I: ParIndex> IntoParallelIterator for std::ops::Range<I> {
    type Item = I;

    fn into_par_iter(self) -> Par<impl Fn(usize) -> I + Sync> {
        let start = self.start.to_usize();
        let len = self.end.to_usize().saturating_sub(start);
        Par {
            len,
            weight: len,
            get: move |i| I::from_usize(start + i),
        }
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_iter<'a>(&'a self) -> Par<impl Fn(usize) -> &'a T + Sync>
    where
        T: 'a;
    fn par_chunks<'a>(&'a self, size: usize) -> Par<impl Fn(usize) -> &'a [T] + Sync>
    where
        T: 'a;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter<'a>(&'a self) -> Par<impl Fn(usize) -> &'a T + Sync>
    where
        T: 'a,
    {
        Par {
            len: self.len(),
            weight: self.len(),
            get: move |i| &self[i],
        }
    }

    fn par_chunks<'a>(&'a self, size: usize) -> Par<impl Fn(usize) -> &'a [T] + Sync>
    where
        T: 'a,
    {
        let size = size.max(1);
        Par {
            len: self.len().div_ceil(size),
            weight: self.len(),
            get: move |i: usize| &self[i * size..(i * size + size).min(self.len())],
        }
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut<'a>(&'a mut self, size: usize) -> Par<impl Fn(usize) -> &'a mut [T] + Sync>
    where
        T: 'a;
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut<'a>(&'a mut self, size: usize) -> Par<impl Fn(usize) -> &'a mut [T] + Sync>
    where
        T: 'a,
    {
        let (len, size) = (self.len(), size.max(1));
        let data = SharedPtr(self.as_mut_ptr());
        Par {
            len: len.div_ceil(size),
            weight: len,
            get: move |i| {
                let lo = i * size;
                // SAFETY: chunk `i` is `[lo, min(lo + size, len))` of the slice this `Par`
                // borrows exclusively for `'a`; chunks of different `i` are disjoint and
                // every consumer of a `Par` calls `get` once per `i < len.div_ceil(size)`.
                unsafe { std::slice::from_raw_parts_mut(data.at(lo), size.min(len - lo)) }
            },
        }
    }

    /// Sequential under the hood: sorting is never a hot path in this workspace.
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        self.sort_unstable_by_key(f);
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    fn append<T>(mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
        a.append(&mut b);
        a
    }

    /// Every source through every adapter and consumer, against `std`'s iterators.
    fn check_adapters(data: &[u64], chunk: usize) {
        let len = data.len();
        let keep = |x: u64| (x % 3 != 1).then_some(x ^ 5);

        // `par_iter`: enumerate, map, collect, sum.
        let got = data.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(got, data.iter().copied().enumerate().collect::<Vec<_>>());
        let got: u64 = data.par_iter().map(|&x| x % 1_000).sum();
        assert_eq!(got, data.iter().map(|&x| x % 1_000).sum::<u64>());

        // Ranges of every index type: map, filter_map, both collects.
        let got = (3..3 + len).into_par_iter().map(|i| data[i - 3]).collect();
        assert_eq!(data, got);
        let got = (0..len as u32).into_par_iter().enumerate().collect();
        assert_eq!(got, (0..len as u32).enumerate().collect::<Vec<_>>());
        let kept: Vec<u64> = (7..7 + len as u64).filter_map(keep).collect();
        let range = (7..7 + len as u64).into_par_iter();
        assert_eq!(range.filter_map(keep).collect(), kept);
        let mut out = vec![1, 2, 3];
        for _ in 0..2 {
            out.reserve(len);
            let capacity = out.capacity();
            let range = (7..7 + len as u64).into_par_iter();
            range.filter_map(keep).collect_into_vec(&mut out);
            assert_eq!(out, kept);
            assert_eq!(out.capacity(), capacity, "the buffer must be reused");
        }

        // `par_chunks`: enumerate, map, collect and an order-sensitive reduce.
        let chunks = data.par_chunks(chunk).enumerate();
        let got = chunks.map(|(i, c)| (i, c.to_vec())).collect();
        let expected: Vec<_> = data
            .chunks(chunk)
            .map(<[u64]>::to_vec)
            .enumerate()
            .collect();
        assert_eq!(expected, got);
        let got = data.par_chunks(chunk).map(<[u64]>::to_vec);
        assert_eq!(got.reduce(Vec::new, append), data);

        // `par_chunks_mut`, `for_each`: every element is written exactly once, in the
        // chunk with the index `enumerate` says.
        let rewrite = |(i, c): (usize, &mut [u64])| {
            c.iter_mut().for_each(|x| *x = x.wrapping_mul(3) + i as u64);
        };
        let (mut got, mut expected) = (data.to_vec(), data.to_vec());
        got.par_chunks_mut(chunk).enumerate().for_each(rewrite);
        expected.chunks_mut(chunk).enumerate().for_each(rewrite);
        assert_eq!(got, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn every_adapter_equals_the_sequential_iterator(
            random_len in 0usize..50_001,
            salt in any::<u64>(),
        ) {
            // 0 and 1 never leave the caller; 4 095 is the last length below
            // `MIN_PARALLEL_LEN`, 4 096 the first one that is split.
            for len in [0, 1, 4_095, 4_096, 4_097, random_len] {
                let data: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(salt | 1)).collect();
                for chunk in [1, 37, 256, len + 1] {
                    for threads in 1..=4 {
                        pool(threads).install(|| check_adapters(&data, chunk));
                    }
                }
            }
        }
    }

    #[test]
    fn a_budget_of_one_stays_on_the_caller_and_workers_have_a_budget_of_one() {
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        pool(1).install(|| {
            (0..10_000usize).into_par_iter().for_each(|_| on_caller());
            join(on_caller, on_caller);
        });
        // Nested parallel calls inside a worker do not fan out again.
        pool(4).install(|| {
            let in_worker = |_| assert_eq!(current_num_threads(), 1);
            (0..8_192usize).into_par_iter().for_each(in_worker);
            assert_eq!(current_num_threads(), 4);
        });
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn join_returns_both_results_at_any_budget() {
        for threads in [1, 2, 3, 8] {
            let (a, b) = pool(threads)
                .install(|| join(|| (0..1000u64).sum::<u64>(), || join(|| 1u64, || 2u64)));
            assert_eq!(a, 499_500);
            assert_eq!(b, (1, 2));
        }
    }

    #[test]
    fn join_splits_the_thread_budget() {
        pool(4).install(|| {
            let (a, b) = join(current_num_threads, current_num_threads);
            assert_eq!(a + b, 4);
            assert!(a >= 1 && b >= 1);
        });
        // With one thread, both branches see the sequential budget.
        pool(1).install(|| {
            let (a, b) = join(current_num_threads, current_num_threads);
            assert_eq!((a, b), (1, 1));
        });
    }

    #[test]
    fn the_thread_budget_survives_a_panic_in_join_drive_and_install() {
        pool(4).install(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| join(|| panic!("branch a"), || ())));
            assert!(caught.is_err());
            assert_eq!(current_num_threads(), 4, "after a panic in join");

            // Index 0 is in the caller's own range, the last index in a spawned worker's.
            for bad in [0, 99_999] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    (0..100_000usize)
                        .into_par_iter()
                        .for_each(|i| assert!(i != bad));
                }));
                assert!(caught.is_err(), "a panic at index {bad} must propagate");
                assert_eq!(current_num_threads(), 4, "after a panic at index {bad}");
            }

            let caught = catch_unwind(AssertUnwindSafe(|| pool(2).install(|| panic!("inner"))));
            assert!(caught.is_err());
            assert_eq!(current_num_threads(), 4, "after a panic in install");
        });
    }
}
