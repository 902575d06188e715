//! Vendored stand-in for the `rayon` crate (offline build).
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the subset of rayon's API it actually uses. Parallelism is
//! real: terminal operations run on one persistent work-sharing pool
//! (`pool`), with the calling thread working too, preserving input order.
//!
//! Differences from real rayon, by design:
//! - no work stealing: map-like ops hand out contiguous grains of about
//!   `len / (threads × 8)` items, in index order, to whichever thread
//!   frees up first; `fold` and `try_for_each_init` keep one contiguous
//!   chunk per thread, so each accumulator sees fixed items;
//! - an op inside another op's closure runs inline on that thread;
//! - adapters (`map`, `enumerate`, `fold`) evaluate stage-by-stage: the
//!   closure of each stage runs in parallel, the (cheap) materialization
//!   between stages is sequential;
//! - `ThreadPool::install` only overrides the worker count for the
//!   calling thread's scope rather than moving work onto pool threads.
//!
//! Semantics relied upon by this workspace — order preservation,
//! `try_for_each` error propagation, `fold`/`reduce` chunked
//! accumulation — match rayon.

mod pool;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Lazily-initialized default worker count (hardware parallelism).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`], and by
    /// the pool while a worker runs an op's job.
    pub(crate) static THREAD_OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of worker threads terminal operations will use.
pub fn current_num_threads() -> usize {
    let ov = THREAD_OVERRIDE.with(|c| c.get());
    if ov > 0 {
        return ov;
    }
    let d = DEFAULT_THREADS.load(Ordering::Relaxed);
    if d > 0 {
        return d;
    }
    let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for bounded pools.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = hardware default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Never fails in the shim; the `Result` mirrors
    /// rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// Error type mirroring rayon's (the shim never constructs it).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A bounded "pool": a scoped worker-count override.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's worker count in effect.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let prev = THREAD_OVERRIDE.with(|c| c.replace(self.num_threads.max(1)));
        let out = catch_unwind(AssertUnwindSafe(f));
        THREAD_OVERRIDE.with(|c| c.set(prev));
        match out {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }

    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads.max(1)
    }
}

/// Splits `v` into at most `parts` contiguous chunks of near-equal size.
fn split_vec<T>(mut v: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let len = v.len();
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    // Split from the back so each split_off is O(moved part).
    let mut sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < rem)).collect();
    while let Some(sz) = sizes.pop() {
        if sizes.is_empty() {
            out.push(v);
            break;
        }
        let at = v.len() - sz;
        out.push(v.split_off(at));
    }
    out.reverse();
    out
}

/// Applies `f` to every item in parallel, preserving order.
fn pmap<I: Send, R: Send>(items: Vec<I>, f: &(impl Fn(I) -> R + Sync)) -> Vec<R> {
    let threads = current_num_threads();
    if items.len() <= 1 || pool::inline(threads) {
        return items.into_iter().map(f).collect();
    }
    let grain = (items.len() / (threads * 8)).max(1);
    let mut rest = items.into_iter();
    let grains: Vec<Vec<I>> =
        (0..rest.len().div_ceil(grain)).map(|_| rest.by_ref().take(grain).collect()).collect();
    pool::run_parts(grains, threads, &|grain: Vec<I>| grain.into_iter().map(f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Folds each of `current_num_threads()` contiguous chunks with its own
/// accumulator, in parallel.
fn pfold<I: Send, A: Send>(
    items: Vec<I>,
    identity: &(impl Fn() -> A + Sync),
    fold: &(impl Fn(A, I) -> A + Sync),
) -> Vec<A> {
    let threads = current_num_threads();
    pool::run_parts(split_vec(items, threads), threads, &|chunk: Vec<I>| {
        chunk.into_iter().fold(identity(), fold)
    })
}

/// The parallel-iterator trait: adapters compose lazily, terminal
/// operations evaluate on worker threads.
pub trait ParallelIterator: Sized + Send {
    /// Item type produced by this iterator.
    type Item: Send;

    /// Evaluates the chain, returning all items in order.
    fn drive(self) -> Vec<Self::Item>;

    /// Maps each item through `f` in parallel.
    fn map<R: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Pairs each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Runs `f` on every item in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let _ = self.map(f).drive();
    }

    /// Runs `f` on every item; returns the first error in input order.
    fn try_for_each<E, F>(self, f: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(Self::Item) -> Result<(), E> + Sync + Send,
    {
        self.map(f).drive().into_iter().collect()
    }

    /// Like `try_for_each`, with one `init()` value per worker chunk.
    fn try_for_each_init<T, INIT, E, F>(self, init: INIT, f: F) -> Result<(), E>
    where
        T: Send,
        E: Send,
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, Self::Item) -> Result<(), E> + Sync + Send,
    {
        let outs = pfold(
            self.drive(),
            &|| (init(), Ok(())),
            &|(mut st, acc): (T, Result<(), E>), item| {
                let acc = match acc {
                    Ok(()) => f(&mut st, item),
                    e => e,
                };
                (st, acc)
            },
        );
        outs.into_iter().try_for_each(|(_, r)| r)
    }

    /// Chunk-local fold: produces one accumulator per worker chunk.
    fn fold<A, ID, F>(self, identity: ID, fold: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        Fold { base: self, identity, fold }
    }

    /// Reduces all items pairwise (used after [`ParallelIterator::fold`]).
    fn reduce<ID, F>(self, identity: ID, reduce: F) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        self.drive().into_iter().fold(identity(), reduce)
    }

    /// Collects all items, preserving order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Sums all items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        self.drive().into_iter().sum()
    }
}

/// Base iterator over owned items.
pub struct IntoParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoParIter<T> {
    type Item = T;
    fn drive(self) -> Vec<T> {
        self.items
    }
}

/// Base iterator over shared references into a slice.
pub struct ParIter<'a, T: Sync> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    fn drive(self) -> Vec<&'a T> {
        self.items.iter().collect()
    }
}

/// Parallel iterator over immutable sub-slices.
pub struct ParChunks<'a, T: Sync> {
    items: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    fn drive(self) -> Vec<&'a [T]> {
        self.items.chunks(self.chunk).collect()
    }
}

/// Parallel iterator over mutable sub-slices.
pub struct ParChunksMut<'a, T: Send> {
    items: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn drive(self) -> Vec<&'a mut [T]> {
        self.items.chunks_mut(self.chunk).collect()
    }
}

/// Lazy map adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;
    fn drive(self) -> Vec<R> {
        pmap(self.base.drive(), &self.f)
    }
}

/// Lazy enumerate adapter.
pub struct Enumerate<B> {
    base: B,
}

impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);
    fn drive(self) -> Vec<(usize, B::Item)> {
        self.base.drive().into_iter().enumerate().collect()
    }
}

/// Lazy chunked-fold adapter (items are per-chunk accumulators).
pub struct Fold<B, ID, F> {
    base: B,
    identity: ID,
    fold: F,
}

impl<B, A, ID, F> ParallelIterator for Fold<B, ID, F>
where
    B: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Sync + Send,
    F: Fn(A, B::Item) -> A + Sync + Send,
{
    type Item = A;
    fn drive(self) -> Vec<A> {
        pfold(self.base.drive(), &self.identity, &self.fold)
    }
}

/// Conversion into a parallel iterator (owned items).
pub trait IntoParallelIterator {
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = IntoParIter<T>;
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = IntoParIter<usize>;
    type Item = usize;
    fn into_par_iter(self) -> IntoParIter<usize> {
        IntoParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for std::ops::Range<u32> {
    type Iter = IntoParIter<u32>;
    type Item = u32;
    fn into_par_iter(self) -> IntoParIter<u32> {
        IntoParIter { items: self.collect() }
    }
}

/// `par_iter` on slice-likes (matches rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type (a shared reference).
    type Item: Send;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// `par_chunks`/`par_chunks_mut` on slices (rayon's `ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Immutable chunks of `chunk` items (last may be shorter).
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunks { items: self, chunk }
    }
}

/// Mutable chunk splitting (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Mutable chunks of `chunk` items (last may be shorter).
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut { items: self, chunk }
    }
}

pub mod prelude {
    //! One-stop import mirroring `rayon::prelude`.
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    /// Every op here runs under `on(n)` with `n` at most this, so the pool
    /// has at most `MAX_THREADS - 1` workers whatever the host's core count.
    const MAX_THREADS: usize = 4;

    fn on(threads: usize) -> ThreadPool {
        assert!(threads <= MAX_THREADS);
        ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    #[test]
    fn map_preserves_order_at_every_grain() {
        for threads in 1..=MAX_THREADS {
            for len in [0usize, 1, 2, 7, 31, 32, 33, 1000] {
                let v: Vec<usize> = (0..len).collect();
                let out: Vec<usize> =
                    on(threads).install(|| v.par_iter().map(|&x| x * 2).collect());
                assert_eq!(
                    out,
                    (0..len).map(|x| x * 2).collect::<Vec<_>>(),
                    "{threads} threads, {len}"
                );
            }
        }
    }

    #[test]
    fn adapters_match_sequential() {
        on(MAX_THREADS).install(|| {
            let squares: Vec<usize> = (0..257usize).into_par_iter().map(|i| i * i).collect();
            assert_eq!(squares[256], 65536);
            let owned: Vec<String> =
                vec!["a".to_string(), "b".to_string()].into_par_iter().map(|s| s + "!").collect();
            assert_eq!(owned, vec!["a!", "b!"]);
            let v = vec![10, 20, 30];
            let out: Vec<(usize, i32)> = v.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
            assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
            let mut w = vec![0u32; 100];
            w.par_chunks_mut(7).enumerate().for_each(|(i, c)| c.fill(i as u32));
            assert_eq!((w[0], w[99]), (0, (99 / 7) as u32));
        });
    }

    #[test]
    fn try_for_each_runs_every_item_and_returns_the_lowest_error() {
        for threads in 1..=MAX_THREADS {
            let ran = AtomicUsize::new(0);
            let r: Result<(), usize> = on(threads).install(|| {
                (0..100usize).into_par_iter().try_for_each(|x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if x >= 40 && x % 3 == 1 {
                        Err(x)
                    } else {
                        Ok(())
                    }
                })
            });
            assert_eq!((r, ran.into_inner()), (Err(40), 100), "{threads} threads");
        }
    }

    #[test]
    fn fold_keeps_one_contiguous_chunk_per_thread() {
        for threads in 1..=MAX_THREADS {
            let v: Vec<u64> = (1..=1000).collect();
            let chunks: Vec<Vec<u64>> = on(threads).install(|| {
                v.par_iter()
                    .fold(Vec::new, |mut acc, &x| {
                        acc.push(x);
                        acc
                    })
                    .collect()
            });
            assert_eq!(chunks, split_vec(v.clone(), threads), "{threads} threads");
            let total = on(threads).install(|| {
                v.par_iter().fold(|| 0u64, |acc, &x| acc + x).reduce(|| 0, |a, b| a + b)
            });
            assert_eq!(total, 500_500);
        }
    }

    #[test]
    fn try_for_each_init_makes_one_state_per_chunk() {
        let inits = AtomicUsize::new(0);
        let count = AtomicUsize::new(0);
        let r: Result<(), ()> = on(3).install(|| {
            (0..500usize).into_par_iter().try_for_each_init(
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
        });
        assert!(r.is_ok());
        assert_eq!((inits.into_inner(), count.into_inner()), (3, 500));
    }

    #[test]
    fn install_overrides_thread_count_inside_every_item() {
        assert_eq!(on(2).install(current_num_threads), 2);
        assert_eq!(on(1).install(current_num_threads), 1);
        assert!(current_num_threads() >= 1);
        let seen: Vec<usize> =
            on(3).install(|| (0..6usize).into_par_iter().map(|_| current_num_threads()).collect());
        assert_eq!(seen, vec![3; 6]);
    }

    #[test]
    fn nested_ops_run_inline_on_the_item_thread() {
        let outer: Vec<bool> = on(MAX_THREADS).install(|| {
            (0..16usize)
                .into_par_iter()
                .map(|_| {
                    let me = thread::current().id();
                    let inner: Vec<ThreadId> =
                        (0..64usize).into_par_iter().map(|_| thread::current().id()).collect();
                    inner.iter().all(|&t| t == me)
                })
                .collect()
        });
        assert!(outer.iter().all(|&inline| inline));
        assert!(pool::workers() < MAX_THREADS);
    }

    /// Serializes the tests that need workers to start their items: two of
    /// them waiting on barriers at once could each hold half the pool.
    static BARRIER_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        let _one = BARRIER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let caller = thread::current().id();
        let both = Barrier::new(2);
        let r = std::panic::catch_unwind(|| {
            on(2).install(|| {
                (0..2usize).into_par_iter().for_each(|_| {
                    both.wait();
                    if thread::current().id() != caller {
                        panic!("worker item");
                    }
                })
            })
        });
        let msg = r.expect_err("the worker's panic propagates");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"worker item"));
        let after: usize = on(2).install(|| (0..100usize).into_par_iter().map(|x| x).sum());
        assert_eq!(after, 4950);
    }

    #[test]
    fn split_vec_is_contiguous_and_balanced() {
        for len in [0usize, 1, 5, 97, 100] {
            for parts in [1usize, 2, 7, 64] {
                let v: Vec<usize> = (0..len).collect();
                let chunks = split_vec(v, parts);
                let flat: Vec<usize> = chunks.iter().flatten().copied().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} parts={parts}");
                if len > 0 {
                    let min = chunks.iter().map(|c| c.len()).min().unwrap();
                    let max = chunks.iter().map(|c| c.len()).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn grains_are_spread_over_distinct_threads() {
        let _one = BARRIER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let all = Barrier::new(MAX_THREADS);
        let ids: HashSet<ThreadId> = on(MAX_THREADS).install(|| {
            (0..MAX_THREADS)
                .into_par_iter()
                .map(|_| {
                    all.wait();
                    thread::current().id()
                })
                .collect()
        });
        assert_eq!(ids.len(), MAX_THREADS);
        assert_eq!(pool::workers(), MAX_THREADS - 1);
    }
}
