//! Parked worker threads for prediction fan-outs.
//!
//! A cold what-if view splits its prediction into chunks — row ranges
//! of a batch, tree ranges of a leaf-table build, scenario ranges of a
//! bulk evaluation — and waits for all of them. Spawning fresh scoped
//! OS threads for every such fan-out cost 92–134 µs per call on a
//! shared 2-vCPU x86-64 VM, a tenth of a cold slider stop. This pool spawns [`hardware_parallelism`]` − 1` workers once
//! and parks them on a condvar; [`for_each`] hands chunks to idle
//! workers and runs the first chunk on the calling thread. A worker out
//! of chunks, and a caller waiting for its handed-out ones, poll for
//! about 0.4 ms before they park (`SPINS`), since waking a parked
//! thread costs tens of µs on such a VM.
//!
//! * **No waiting for a busy worker.** A chunk that finds no idle
//!   worker runs inline on the caller, and a fan-out issued from a
//!   chunk already running on a worker runs all its chunks inline. A
//!   caller only ever waits for the chunks it handed out, and those
//!   never wait on anyone, so nested fan-outs cannot deadlock.
//! * **Panics.** A chunk that panics on a worker is caught there and
//!   re-raised on the caller with its original payload; the worker
//!   keeps serving.
//! * **Determinism.** Results never depend on which thread ran a
//!   chunk: every caller gives each chunk its own output slots.
//!
//! **Training stays on scoped threads** (`forest::fit_trees`). A
//! tree-training job runs 20–100 ms, so spawning costs it under 0.5 %,
//! while a parked worker's malloc arena keeps the per-tree scratch it
//! allocated: a prototype that ran training on the pool measured
//! resident memory after a 2000-row `Train` at 12.2 MB against 9.1 MB.
//! For the same reason the workers start before a model's first fit
//! ([`start`]), not at the first prediction fan-out.

use crate::forest::hardware_parallelism;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A panic payload, carried from a worker back to its caller.
type Payload = Box<dyn Any + Send>;

/// A chunk handed to a worker, its borrows erased to `'static` (see
/// [`erase`]).
type Job = Box<dyn FnOnce() + Send>;

thread_local! {
    /// Whether this thread is one of the pool's workers.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Lock `m`, ignoring poison: no lock here is held while a chunk runs,
/// so a poisoned one guards nothing half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Polls a thread about to block — a worker out of chunks, a caller
/// waiting for its handed-out chunks — makes before it parks, yielding
/// its CPU between polls. Waking a parked thread on the other vCPU of a
/// 2-vCPU x86-64 VM took 15–20 µs right after it parked and 60–90 µs
/// after 2 ms idle, against chunks of a few hundred µs. A yield cost
/// about 0.4 µs there, so this keeps a thread awake for roughly 0.4 ms:
/// long enough for the next stop of a slider drag to find its worker
/// awake, short enough that an idle server parks everything at once.
/// Yielding rather than spinning on `pause` lets any thread that shares
/// the CPU run first. Against no polling at all, it took the median
/// cold slider stop of `viewbench session_cold` from 1006 to 886 µs.
const SPINS: u32 = 1_000;

/// Poll `ready` up to [`SPINS`] times; whether it turned true.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPINS {
        if ready() {
            return true;
        }
        std::thread::yield_now();
    }
    ready()
}

/// One fan-out's chunks still running on workers, and the payload of
/// the first of them that panicked.
#[derive(Default)]
struct Latch {
    pending: AtomicUsize,
    /// The first panic payload. Also taken around each decrement and
    /// around a blocked wait, so a wake-up cannot slip between the
    /// waiter's check and its sleep.
    panic: Mutex<Option<Payload>>,
    done: Condvar,
}

impl Latch {
    /// Count one more handed-out chunk. Relaxed: the worker learns of
    /// the chunk through its slot's mutex, after this.
    fn add(&self) {
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    fn finish(&self, panic: Option<Payload>) {
        let mut first = lock(&self.panic);
        if first.is_none() {
            *first = panic;
        }
        // Release pairs with the Acquire load in `wait`: the chunk's
        // writes to its output happen before the caller reads them.
        self.pending.fetch_sub(1, Ordering::Release);
        self.done.notify_all();
    }

    /// Block until every handed-out chunk has finished; the first
    /// worker panic's payload, if any.
    fn wait(&self) -> Option<Payload> {
        let finished = || self.pending.load(Ordering::Acquire) == 0;
        spin_until(finished);
        let mut first = lock(&self.panic);
        while !finished() {
            first = self
                .done
                .wait(first)
                .unwrap_or_else(PoisonError::into_inner);
        }
        first.take()
    }
}

/// Waits for the fan-out's handed-out chunks when dropped, on the
/// normal return path and while the caller's own chunk unwinds alike.
/// The `SAFETY` argument of [`for_each`] rests on it.
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// A parked worker: claimed through `idle`, fed through `slot`, which
/// `has_job` mirrors for its spin.
struct Worker {
    idle: AtomicBool,
    has_job: AtomicBool,
    slot: Mutex<Option<(Job, Arc<Latch>)>>,
    wake: Condvar,
}

impl Worker {
    /// Hand a claimed worker its chunk. `has_job` only ends the
    /// worker's spin early; the chunk itself passes through the mutex.
    fn give(&self, job: Job, latch: Arc<Latch>) {
        *lock(&self.slot) = Some((job, latch));
        self.has_job.store(true, Ordering::Release);
        self.wake.notify_one();
    }

    fn serve(&self) {
        ON_WORKER.set(true);
        loop {
            spin_until(|| self.has_job.load(Ordering::Acquire));
            let (job, latch) = {
                let mut slot = lock(&self.slot);
                loop {
                    if let Some(task) = slot.take() {
                        self.has_job.store(false, Ordering::Relaxed);
                        break task;
                    }
                    slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let panic = panic::catch_unwind(AssertUnwindSafe(job)).err();
            // Idle before the latch opens, so a caller that fans out
            // again as soon as its wait returns finds this worker free.
            // Release pairs with the claiming `compare_exchange`.
            self.idle.store(true, Ordering::Release);
            latch.finish(panic);
        }
    }
}

/// The workers, spawned on first use. They park between fan-outs and
/// live as long as the process; nothing joins them.
fn workers() -> &'static [Arc<Worker>] {
    static WORKERS: OnceLock<Vec<Arc<Worker>>> = OnceLock::new();
    WORKERS.get_or_init(|| {
        (1..hardware_parallelism())
            .filter_map(|k| {
                let worker = Arc::new(Worker {
                    idle: AtomicBool::new(true),
                    has_job: AtomicBool::new(false),
                    slot: Mutex::new(None),
                    wake: Condvar::new(),
                });
                let serving = Arc::clone(&worker);
                // A worker the OS refuses to spawn is one fewer worker:
                // its share of every fan-out runs inline.
                std::thread::Builder::new()
                    .name(format!("whatif-predict-{k}"))
                    .spawn(move || serving.serve())
                    .ok()
                    .map(|_| worker)
            })
            .collect()
    })
}

/// Spawn the workers now if they are not running yet.
///
/// `TrainedModel::fit` calls this before it trains, so the workers
/// exist before the first tree's scratch is allocated. Spawned lazily
/// at the first prediction fan-out — the holdout scoring between a
/// model's holdout fit and its full fit — the workers left the peak
/// resident set of an in-process 2000-row, 120-tree fit at 12.1–12.2
/// MB; spawned before training, it was 10.5–10.6 MB. Every fan-out
/// also spawns them on first use, so calling this is never required.
pub fn start() {
    workers();
}

/// Erase the lifetime of a chunk's closure so a parked worker can run
/// it.
///
/// # Safety
/// The caller must not return, nor unwind past the borrows `job`
/// holds, before the job has finished running.
unsafe fn erase<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: only the lifetime changes, so the fat pointer's layout is
    // the same; the caller upholds the contract above.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) }
}

/// Run `run(chunk)` once for every chunk and return when all have
/// finished.
///
/// The first chunk runs on the calling thread, after every other chunk
/// has gone to an idle parked worker or, when none is idle or the
/// caller is itself a worker, run inline. A panic in any chunk is
/// re-raised here with its original payload once every handed-out
/// chunk has finished; chunks the caller had not yet run then never
/// run.
pub fn for_each<C: Send>(chunks: impl IntoIterator<Item = C>, run: impl Fn(C) + Sync) {
    let mut chunks = chunks.into_iter().peekable();
    let Some(first) = chunks.next() else {
        return;
    };
    if chunks.peek().is_none() || ON_WORKER.get() {
        run(first);
        chunks.for_each(&run);
        return;
    }
    let run = &run;
    let latch = Arc::new(Latch::default());
    let guard = WaitOnDrop(&latch);
    for chunk in chunks {
        let claimed = workers().iter().find(|w| {
            w.idle
                .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        });
        let Some(worker) = claimed else {
            run(chunk);
            continue;
        };
        // SAFETY: the job borrows `run` and whatever `chunk` borrows,
        // all of which outlive this call. `guard` was created above and
        // is dropped only after the `latch.wait()` below or, if a chunk
        // run inline here unwinds, during that unwinding; either way its
        // drop blocks until the latch counts this job finished. A worker
        // counts a job finished only after the job, its panic included,
        // is over and its box dropped.
        let job = unsafe { erase(Box::new(move || run(chunk))) };
        latch.add();
        worker.give(job, Arc::clone(&latch));
    }
    run(first);
    let panic = latch.wait();
    drop(guard);
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// The payload the panicking chunks raise.
    #[derive(Debug, PartialEq)]
    struct Marker(usize);

    /// A two-chunk fan-out whose second chunk reports whether it ran
    /// on a worker.
    fn second_chunk_ran_on_a_worker() -> bool {
        let on_worker = AtomicBool::new(false);
        for_each(0..2, |k| {
            if k == 1 {
                on_worker.store(ON_WORKER.get(), Ordering::Relaxed);
            }
        });
        on_worker.into_inner()
    }

    /// Retry `f` until it returns true (other tests share the pool, so
    /// a worker can be busy on any one try).
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        (0..20_000).any(|_| {
            let hit = f();
            if !hit {
                std::thread::yield_now();
            }
            hit
        })
    }

    #[test]
    fn a_panicking_chunk_reraises_its_payload_and_the_worker_keeps_serving() {
        let panicked_on_worker = AtomicBool::new(false);
        let attempt = || {
            let err = panic::catch_unwind(|| {
                for_each(0..2, |k| {
                    if k == 1 {
                        panicked_on_worker.store(ON_WORKER.get(), Ordering::Relaxed);
                        panic::panic_any(Marker(7));
                    }
                })
            })
            .unwrap_err();
            assert_eq!(err.downcast_ref::<Marker>(), Some(&Marker(7)));
            panicked_on_worker.load(Ordering::Relaxed)
        };
        if workers().is_empty() {
            attempt();
            return;
        }
        // Once a worker has raised the panic, workers still take chunks:
        // with one worker (two CPUs) that is the worker that panicked.
        assert!(eventually(attempt), "no chunk ever reached a worker");
        assert!(eventually(second_chunk_ran_on_a_worker));
        // The caller's own chunk panicking re-raises too, after the
        // handed-out chunks finish.
        let finished = AtomicUsize::new(0);
        let err = panic::catch_unwind(|| {
            for_each(0..4, |k| {
                if k == 0 {
                    panic::panic_any(Marker(0));
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<Marker>(), Some(&Marker(0)));
        assert_eq!(finished.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_fan_out_from_inside_a_chunk_runs_inline_and_completes() {
        let mut out = vec![0usize; 64];
        for_each(out.chunks_mut(16).enumerate(), |(k, chunk)| {
            let outer = std::thread::current().id();
            let on_worker = ON_WORKER.get();
            for_each(chunk.chunks_mut(4).enumerate(), |(i, part)| {
                if on_worker {
                    assert_eq!(std::thread::current().id(), outer);
                }
                for (m, slot) in part.iter_mut().enumerate() {
                    *slot = k * 16 + i * 4 + m;
                }
            });
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        // And the inline path does run on a worker's chunk.
        if !workers().is_empty() {
            assert!(eventually(|| {
                let inline = AtomicBool::new(true);
                for_each(0..2, |k| {
                    if k == 1 && ON_WORKER.get() {
                        let me = std::thread::current().id();
                        for_each(0..3, |_| {
                            if std::thread::current().id() != me {
                                inline.store(false, Ordering::Relaxed);
                            }
                        });
                    } else if k == 1 {
                        inline.store(false, Ordering::Relaxed);
                    }
                });
                inline.into_inner()
            }));
        }
    }

    #[test]
    fn two_callers_released_together_both_finish_correctly() {
        let barrier = Barrier::new(2);
        let square_all = |offset: usize| {
            barrier.wait();
            let mut out = vec![0usize; 1000];
            for _ in 0..50 {
                for_each(out.chunks_mut(250).enumerate(), |(k, chunk)| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let v = offset + k * 250 + i;
                        *slot = v * v;
                    }
                });
                assert!(out
                    .iter()
                    .enumerate()
                    .all(|(i, &s)| s == (offset + i) * (offset + i)));
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| square_all(0));
            s.spawn(|| square_all(7));
        });
    }

    #[test]
    fn empty_and_single_chunk_fan_outs_run_inline() {
        for_each(std::iter::empty::<usize>(), |_| unreachable!());
        let me = std::thread::current().id();
        for_each([()], |()| assert_eq!(std::thread::current().id(), me));
    }
}
