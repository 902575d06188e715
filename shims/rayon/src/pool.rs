//! The persistent work-sharing pool under every terminal operation.
//!
//! Workers are spawned lazily, up to (the largest thread count any call
//! has asked for − 1), live for the process and park on a `Condvar` when
//! idle. A dispatching call queues one *ticket* per extra thread it may
//! use, then runs the op's claim loop itself; each worker that picks up a
//! ticket runs the same loop, so parts go to whichever thread frees up
//! first. When the caller's loop ends it revokes the tickets no worker has
//! started and waits only for the started ones: no caller ever waits
//! behind another caller's op. An op that runs inside a pool job runs
//! inline on its thread, so nested fan-outs neither spawn nor wait.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::THREAD_OVERRIDE;

/// Name of every pool worker thread.
const WORKER_NAME: &str = "rayon-shim-worker";

std::thread_local! {
    /// Set while this thread runs a pool job, as a worker or as the
    /// participating caller: terminal ops then run inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

struct Pool {
    state: Mutex<State>,
    /// Signalled once per queued ticket.
    wake: Condvar,
}

struct State {
    /// One entry per ticket no worker has started.
    queue: VecDeque<Arc<Job>>,
    /// Workers spawned so far; they never exit.
    workers: usize,
}

static POOL: Pool =
    Pool { state: Mutex::new(State { queue: VecDeque::new(), workers: 0 }), wake: Condvar::new() };

/// One dispatched op: the claim loop its caller and tickets share.
struct Job {
    /// The caller's closure with its lifetime erased (see [`dispatch`]).
    body: &'static (dyn Fn() + Sync),
    /// The op's thread count, which `current_num_threads` reports inside.
    threads: usize,
    status: Mutex<Status>,
    /// Signalled when a started ticket finishes.
    done: Condvar,
}

#[derive(Default)]
struct Status {
    /// Tickets a worker has started and not finished.
    running: usize,
    /// The first panic a worker caught, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// Locks one of the pool's own mutexes. None is held across user code or
/// across an update that can fail half-way, so a poisoned one still holds
/// consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when an op on `threads` threads must run inline on this thread.
pub(crate) fn inline(threads: usize) -> bool {
    threads <= 1 || IN_JOB.with(Cell::get)
}

/// Runs `work` on every part and returns the outputs in part order.
///
/// Parts are claimed one at a time, in index order, by the calling thread
/// and by up to `threads − 1` workers as they free up. With one thread,
/// one part, or inside a pool job, every part runs inline on the caller.
pub(crate) fn run_parts<P: Send, O: Send>(
    parts: Vec<P>,
    threads: usize,
    work: &(impl Fn(P) -> O + Sync),
) -> Vec<O> {
    if parts.len() <= 1 || inline(threads) {
        return parts.into_iter().map(work).collect();
    }
    let slots: Vec<Mutex<(Option<P>, Option<O>)>> =
        parts.into_iter().map(|p| Mutex::new((Some(p), None))).collect();
    // `next` only hands out slot indices; each slot's mutex orders its data.
    let next = AtomicUsize::new(0);
    dispatch(threads, slots.len(), &|| {
        while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
            let mut slot =
                slot.lock().expect("a slot is locked only by the thread that claimed it");
            let part = slot.0.take().expect("a part is claimed once");
            slot.1 = Some(work(part));
        }
    });
    // `dispatch` returned without a panic, so every slot ran to completion
    // and none is poisoned.
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("no part panicked").1.expect("every part ran"))
        .collect()
}

/// Runs `body` on the calling thread and on up to `min(threads, parts) − 1`
/// workers at once, and returns when every copy that started has finished.
/// `body` claims its own work, so a copy that never starts loses nothing.
/// A panic in any copy is re-raised here.
fn dispatch(threads: usize, parts: usize, body: &(dyn Fn() + Sync)) {
    let tickets = threads.min(parts) - 1;
    // SAFETY: the reference outlives this call only inside `job`, and it
    // is called only through a ticket. `Finish`, which exists before any
    // ticket is queued, runs when this call returns or unwinds: it removes
    // every ticket no worker has started and then waits until each started
    // one has finished. A worker calls `body` only between starting and
    // finishing a ticket. So `body` is never called after this frame,
    // which borrows it for its whole duration, is gone.
    let body =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
    let job = Arc::new(Job { body, threads, status: Mutex::default(), done: Condvar::new() });
    let finish = Finish(&job);
    {
        let mut state = lock(&POOL.state);
        while state.workers < threads - 1 && spawn_worker() {
            state.workers += 1;
        }
        state.queue.extend(std::iter::repeat_n(Arc::clone(&job), tickets));
    }
    for _ in 0..tickets {
        POOL.wake.notify_one();
    }
    IN_JOB.with(|c| c.set(true));
    body();
    drop(finish);
    let panic = lock(&job.status).panic.take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Ends a dispatch on return and on unwind alike: leaves the job, revokes
/// its unstarted tickets and waits for its started ones.
struct Finish<'a>(&'a Arc<Job>);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        IN_JOB.with(|c| c.set(false));
        lock(&POOL.state).queue.retain(|j| !Arc::ptr_eq(j, self.0));
        let mut status = lock(&self.0.status);
        while status.running > 0 {
            status = self.0.done.wait(status).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Starts one more worker; false if the OS refuses a thread, in which case
/// the callers simply get fewer helpers. Workers run for the life of the
/// process, so their handles are not kept.
fn spawn_worker() -> bool {
    std::thread::Builder::new().name(WORKER_NAME.into()).spawn(worker).is_ok()
}

fn worker() {
    let mut state = lock(&POOL.state);
    loop {
        let Some(job) = state.queue.pop_front() else {
            state = POOL.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        // Counted while the pool lock is held, so a caller that revokes
        // after this sees the ticket as started.
        lock(&job.status).running += 1;
        drop(state);
        IN_JOB.with(|c| c.set(true));
        THREAD_OVERRIDE.with(|c| c.set(job.threads));
        let out = catch_unwind(AssertUnwindSafe(job.body));
        THREAD_OVERRIDE.with(|c| c.set(0));
        IN_JOB.with(|c| c.set(false));
        {
            let mut status = lock(&job.status);
            status.running -= 1;
            if let Err(payload) = out {
                status.panic.get_or_insert(payload);
            }
        }
        job.done.notify_all();
        drop(job);
        state = lock(&POOL.state);
    }
}

/// Workers spawned so far.
#[cfg(test)]
pub(crate) fn workers() -> usize {
    lock(&POOL.state).workers
}
