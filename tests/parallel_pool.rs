//! The rayon shim's work-sharing pool, as every parallel call in the
//! workspace sees it: order, `fold` chunks, errors, panics, nesting,
//! concurrent callers and the thread-count pin.
//!
//! Interleavings are forced with [`Meet`], a barrier that gives up after
//! a long timeout, so a broken pool fails a test instead of hanging it.

use foresight_util::parallel::with_threads;
use rayon::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// No test here asks for more threads than this, so the pool never has
/// more than `MAX_THREADS - 1` workers.
const MAX_THREADS: usize = 4;

/// The name the shim gives its worker threads.
const WORKER_NAME: &str = "rayon-shim-worker";

/// A barrier for `n` parties that reports `false` instead of blocking
/// forever when the others do not arrive.
struct Meet {
    n: usize,
    arrived: Mutex<usize>,
    all: Condvar,
}

impl Meet {
    fn new(n: usize) -> Self {
        Meet { n, arrived: Mutex::new(0), all: Condvar::new() }
    }

    fn wait(&self) -> bool {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all.notify_all();
        let (arrived, timeout) =
            self.all.wait_timeout_while(arrived, Duration::from_secs(60), |a| *a < self.n).unwrap();
        drop(arrived);
        !timeout.timed_out()
    }
}

/// Serializes the tests that need workers to start their items: two of
/// them waiting at once could each hold part of the pool.
fn exclusive() -> MutexGuard<'static, ()> {
    static ONE: Mutex<()> = Mutex::new(());
    ONE.lock().unwrap_or_else(|e| e.into_inner())
}

fn me() -> ThreadId {
    thread::current().id()
}

/// Contiguous chunks of near-equal size, the larger ones first: the
/// chunking `fold` promises.
fn reference_chunks(len: usize, parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let (base, rem) = (len / parts, len % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let end = start + base + usize::from(i < rem);
            let chunk = (start..end).collect();
            start = end;
            chunk
        })
        .collect()
}

#[test]
fn map_collect_preserves_order_on_1_2_3_4_threads() {
    for threads in 1..=MAX_THREADS {
        for len in [0usize, 1, 7, 1000] {
            let v: Vec<usize> = (0..len).collect();
            let doubled: Vec<usize> =
                with_threads(threads, || v.par_iter().map(|&x| 2 * x).collect());
            assert_eq!(
                doubled,
                (0..len).map(|x| 2 * x).collect::<Vec<_>>(),
                "{threads}t len {len}"
            );
            let sum: usize = with_threads(threads, || (0..len).into_par_iter().map(|x| x).sum());
            assert_eq!(sum, len * len.saturating_sub(1) / 2);
            let seen = Mutex::new(Vec::new());
            with_threads(threads, || v.par_iter().for_each(|&x| seen.lock().unwrap().push(x)));
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, v, "for_each visits every item once");
        }
    }
}

#[test]
fn fold_accumulators_match_a_contiguous_split_per_thread() {
    for threads in 1..=MAX_THREADS {
        for len in [0usize, 1, 7, 1000] {
            let chunks: Vec<Vec<usize>> = with_threads(threads, || {
                (0..len)
                    .into_par_iter()
                    .fold(Vec::new, |mut acc, x| {
                        acc.push(x);
                        acc
                    })
                    .collect()
            });
            assert_eq!(chunks, reference_chunks(len, threads), "{threads}t len {len}");
        }
    }
}

#[test]
fn try_for_each_runs_every_item_and_returns_the_lowest_index_error() {
    for threads in 1..=MAX_THREADS {
        let ran = AtomicUsize::new(0);
        let r: Result<(), usize> = with_threads(threads, || {
            (0..1000usize).into_par_iter().try_for_each(|x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x % 97 == 96 {
                    Err(x)
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(r, Err(96), "{threads} threads");
        assert_eq!(ran.into_inner(), 1000, "{threads} threads");
    }
}

#[test]
fn with_threads_bounds_current_num_threads_inside_every_item() {
    let seen: Vec<(usize, Vec<usize>)> = with_threads(3, || {
        (0..6usize)
            .into_par_iter()
            .map(|_| {
                let nested = (0..4usize).into_par_iter().map(|_| rayon::current_num_threads());
                (rayon::current_num_threads(), nested.collect())
            })
            .collect()
    });
    assert_eq!(seen, vec![(3, vec![3; 4]); 6]);
}

#[test]
fn nested_ops_spawn_no_thread() {
    for threads in 1..=MAX_THREADS {
        let ids = Mutex::new(HashSet::new());
        with_threads(threads, || {
            (0..8usize).into_par_iter().for_each(|_| {
                (0..64usize).into_par_iter().for_each(|_| {
                    ids.lock().unwrap().insert(me());
                })
            })
        });
        let ids = ids.into_inner().unwrap();
        assert!(ids.len() <= threads, "{threads} threads ran on {} threads", ids.len());
    }
}

#[test]
fn one_item_ops_and_one_thread_run_on_the_caller() {
    let caller = me();
    let one: Vec<ThreadId> =
        with_threads(MAX_THREADS, || vec![7u8].par_iter().map(|_| me()).collect());
    assert_eq!(one, vec![caller]);
    let serial: Vec<ThreadId> =
        with_threads(1, || (0..1000usize).into_par_iter().map(|_| me()).collect());
    assert!(serial.iter().all(|&t| t == caller));
}

#[test]
fn panics_on_a_worker_or_the_caller_propagate_and_the_pool_survives() {
    let _one = exclusive();
    let caller = me();
    for on_worker in [true, false] {
        let both = Meet::new(2);
        let met = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                (0..2usize).into_par_iter().for_each(|_| {
                    if both.wait() {
                        met.fetch_add(1, Ordering::Relaxed);
                    }
                    if (me() != caller) == on_worker {
                        panic!("item panic");
                    }
                })
            })
        }));
        assert_eq!(met.into_inner(), 2, "the two items ran side by side");
        let payload = r.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item panic"), "worker: {on_worker}");

        // The pool and this thread still fan out.
        let again = Meet::new(2);
        let ids: Vec<(bool, ThreadId)> =
            with_threads(2, || (0..2usize).into_par_iter().map(|_| (again.wait(), me())).collect());
        assert!(ids.iter().all(|&(met, _)| met), "worker: {on_worker}");
        assert_ne!(ids[0].1, ids[1].1);
    }
}

#[test]
fn a_caller_never_waits_behind_another_callers_op() {
    let _one = exclusive();
    let held = Meet::new(MAX_THREADS + 1);
    let release = Meet::new(MAX_THREADS + 1);
    let (all_held, mine) = thread::scope(|s| {
        let other = s.spawn(|| {
            with_threads(MAX_THREADS, || {
                (0..MAX_THREADS).into_par_iter().for_each(|_| {
                    held.wait();
                    release.wait();
                })
            })
        });
        // Every worker is now inside the other caller's op.
        let all_held = held.wait();
        let caller = me();
        let mine: Vec<bool> = with_threads(MAX_THREADS, || {
            (0..1000usize).into_par_iter().map(|_| me() == caller).collect()
        });
        release.wait();
        other.join().unwrap();
        (all_held, mine)
    });
    assert!(all_held, "the other op held the whole pool");
    assert_eq!(mine, vec![true; 1000], "this call completed on its own thread");
}

#[test]
fn the_pool_never_exceeds_the_largest_count_requested_minus_one() {
    let _one = exclusive();
    let workers = Mutex::new(HashSet::new());
    let note = || {
        if thread::current().name() == Some(WORKER_NAME) {
            workers.lock().unwrap().insert(me());
        }
    };
    let all = Meet::new(MAX_THREADS);
    let met: Vec<bool> = with_threads(MAX_THREADS, || {
        (0..MAX_THREADS)
            .into_par_iter()
            .map(|_| {
                note();
                all.wait()
            })
            .collect()
    });
    assert_eq!(met, vec![true; MAX_THREADS]);
    for threads in 1..=MAX_THREADS {
        for _ in 0..20 {
            with_threads(threads, || (0..256usize).into_par_iter().for_each(|_| note()));
        }
    }
    assert_eq!(workers.into_inner().unwrap().len(), MAX_THREADS - 1);
}
