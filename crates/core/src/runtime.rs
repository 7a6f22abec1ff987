//! The persistent propagation runtime: a long-lived worker pool for
//! the per-view fan-out.
//!
//! Heavy-traffic workloads are dominated by *tiny* updates (one
//! statement, a handful of delta entries), where a thread spawn/join
//! round-trip per propagation would be pure overhead. [`Runtime`]
//! keeps the workers alive across propagations instead:
//!
//! * **lazy start** — constructing a [`Runtime`] spawns nothing;
//!   threads come up on the first batch that actually needs them, and
//!   never more than the batch can use (`min(workers − 1, jobs − 1)`:
//!   the submitting thread always works its own share);
//! * **steady state spawns zero threads** — [`Runtime::threads_spawned`]
//!   is a monotonic counter the soak harness asserts is flat across
//!   steady-state propagations;
//! * **clean shutdown** — dropping the runtime flags shutdown, wakes
//!   every worker and joins them, so a dropped `Database` leaves no
//!   threads behind.
//!
//! One batch runs at a time (submissions serialize on an internal
//! lock). Jobs of a batch sit behind a shared atomic cursor — an idle
//! worker claims the next unclaimed job rather than owning a fixed
//! slice — and the crate-internal `Runtime::run` returns only after
//! every job has finished, which is what makes it sound to hand the
//! pool closures that borrow the caller's stack (see the safety note
//! on `run`).
//! A panicking job is caught, the batch still drains, and the panic
//! resumes on the submitting thread — the same observable behavior as
//! a scoped `join().unwrap()`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One unit of pool work. Jobs are type-erased closures; results
/// travel through captured `&Mutex<Option<_>>` slots.
pub(crate) type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Resolves the effective worker count: an explicit configuration
/// (the `Database` builder's `.workers(n)`) wins, otherwise the
/// `XIVM_WORKERS` environment variable, otherwise 1 (sequential).
/// Zero is clamped to 1.
pub fn effective_workers(configured: Option<usize>) -> usize {
    configured.or_else(env_workers).unwrap_or(1).max(1)
}

/// The `XIVM_WORKERS` environment override, when set and parseable.
pub fn env_workers() -> Option<usize> {
    std::env::var("XIVM_WORKERS").ok().and_then(|v| v.parse().ok())
}

/// A batch of jobs in flight: claimed through `cursor`, completion
/// tracked in `done`, first panic payload parked in `panic`.
struct Batch {
    jobs: Vec<Mutex<Option<Job<'static>>>>,
    cursor: AtomicUsize,
    done: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    /// Claims and runs jobs until the cursor is exhausted. Run by the
    /// submitting thread and by every pool worker.
    fn participate(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs.len() {
                return;
            }
            let job = self.jobs[i].lock().expect("job slot unpoisoned").take();
            let Some(job) = job else { continue };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = self.panic.lock().expect("panic slot unpoisoned");
                slot.get_or_insert(payload);
            }
            let mut done = self.done.lock().expect("done count unpoisoned");
            *done += 1;
            if *done == self.jobs.len() {
                self.done_cv.notify_all();
            }
        }
    }
}

/// What the workers watch: the current batch (bumped `epoch` per
/// submission so a worker never re-enters a batch it already drained)
/// and the shutdown flag.
struct PoolState {
    batch: Option<Arc<Batch>>,
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    /// Threads ever spawned by this runtime — monotonic, exposed so
    /// tests can assert steady-state propagation spawns nothing.
    spawned: AtomicU64,
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("pool state unpoisoned");
            loop {
                if state.shutdown {
                    return;
                }
                match &state.batch {
                    Some(batch) if state.epoch != seen_epoch => {
                        seen_epoch = state.epoch;
                        break Arc::clone(batch);
                    }
                    _ => state = shared.work_ready.wait(state).expect("pool state unpoisoned"),
                }
            }
        };
        batch.participate();
    }
}

/// A long-lived worker pool for the per-view propagation phases.
///
/// Owned (through [`crate::multiview::MultiViewEngine`]) by
/// [`crate::database::Database`]; sized by the `.workers(n)` builder
/// knob / `XIVM_WORKERS` ([`effective_workers`]). A runtime of size 1
/// never spawns: every batch runs inline on the submitting thread,
/// preserving the zero-thread sequential path.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Configured concurrency (submitting thread included): at most
    /// `size - 1` pool threads are ever started.
    size: usize,
    /// Serializes submissions: one batch in flight at a time.
    submit: Mutex<()>,
}

impl Runtime {
    /// A runtime of the given concurrency (clamped to at least 1).
    /// Spawns nothing — threads start lazily on the first batch that
    /// can use them.
    pub fn new(workers: usize) -> Self {
        Runtime {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState { batch: None, epoch: 0, shutdown: false }),
                work_ready: Condvar::new(),
                spawned: AtomicU64::new(0),
            }),
            threads: Mutex::new(Vec::new()),
            size: workers.max(1),
            submit: Mutex::new(()),
        }
    }

    /// Configured concurrency (the submitting thread counts as one).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Threads ever spawned by this runtime — monotonic. After the
    /// warm-up batch this stays flat: steady-state propagation spawns
    /// zero new threads.
    pub fn threads_spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::SeqCst)
    }

    /// Tops the pool up to `wanted` threads (never beyond
    /// `size - 1`).
    fn ensure_threads(&self, wanted: usize) {
        let target = wanted.min(self.size.saturating_sub(1));
        let mut threads = self.threads.lock().expect("thread list unpoisoned");
        while threads.len() < target {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("xivm-worker-{}", threads.len()))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
            self.shared.spawned.fetch_add(1, Ordering::SeqCst);
            threads.push(handle);
        }
    }

    /// Runs a batch of jobs to completion, fanning out across the pool
    /// (the calling thread works too). Returns only once every job has
    /// finished; if any job panicked, the first panic resumes here.
    ///
    /// With size 1 (or a single job) everything runs inline in order —
    /// no threads, no locking beyond the slots.
    pub(crate) fn run<'env>(&self, jobs: Vec<Job<'env>>) {
        if self.size <= 1 || jobs.len() <= 1 {
            for job in jobs {
                job();
            }
            return;
        }
        let _one_batch_at_a_time = self.submit.lock().expect("submit lock unpoisoned");
        self.ensure_threads(jobs.len() - 1);

        let total = jobs.len();
        // SAFETY: the jobs borrow the caller's stack frame (`'env`).
        // Erasing the lifetime is sound because this function does not
        // return until `done == total`, i.e. every job closure has run
        // and returned — no job body executes after `'env` ends. A
        // worker that still holds the `Arc<Batch>` afterwards only
        // ever observes an exhausted cursor and empty (taken) job
        // slots; it never touches `'env` data again.
        let jobs: Vec<Mutex<Option<Job<'static>>>> = jobs
            .into_iter()
            .map(|job| {
                #[allow(unsafe_code)]
                let job: Job<'static> = unsafe { std::mem::transmute(job) };
                Mutex::new(Some(job))
            })
            .collect();
        let batch = Arc::new(Batch {
            jobs,
            cursor: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });

        {
            let mut state = self.shared.state.lock().expect("pool state unpoisoned");
            state.batch = Some(Arc::clone(&batch));
            state.epoch += 1;
            self.shared.work_ready.notify_all();
        }
        batch.participate();
        let mut done = batch.done.lock().expect("done count unpoisoned");
        while *done < total {
            done = batch.done_cv.wait(done).expect("done count unpoisoned");
        }
        drop(done);
        self.shared.state.lock().expect("pool state unpoisoned").batch = None;

        let payload = batch.panic.lock().expect("panic slot unpoisoned").take();
        if let Some(payload) = payload {
            // Release the submission lock *before* unwinding, so a
            // panicked batch does not poison the pool for later ones.
            drop(_one_batch_at_a_time);
            resume_unwind(payload);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state unpoisoned");
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.threads.get_mut().expect("thread list unpoisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_jobs(slots: &[Mutex<Option<usize>>]) -> Vec<Job<'_>> {
        slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot.lock().unwrap() = Some(i * i);
                }) as Job<'_>
            })
            .collect()
    }

    #[test]
    fn knob_resolution_clamps_and_prefers_explicit() {
        assert_eq!(effective_workers(Some(3)), 3);
        assert_eq!(effective_workers(Some(0)), 1);
    }

    #[test]
    fn batches_run_every_job_and_results_land_in_slots() {
        let rt = Runtime::new(4);
        for _ in 0..3 {
            let slots: Vec<Mutex<Option<usize>>> = (0..17).map(|_| Mutex::new(None)).collect();
            rt.run(counting_jobs(&slots));
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot.lock().unwrap(), Some(i * i));
            }
        }
    }

    #[test]
    fn size_one_runs_inline_and_never_spawns() {
        let rt = Runtime::new(1);
        let slots: Vec<Mutex<Option<usize>>> = (0..8).map(|_| Mutex::new(None)).collect();
        rt.run(counting_jobs(&slots));
        assert!(slots.iter().all(|s| s.lock().unwrap().is_some()));
        assert_eq!(rt.threads_spawned(), 0, "sequential runtimes stay threadless");
    }

    #[test]
    fn construction_is_lazy_and_steady_state_spawns_nothing() {
        let rt = Runtime::new(3);
        assert_eq!(rt.threads_spawned(), 0, "new() must not spawn");
        let slots: Vec<Mutex<Option<usize>>> = (0..6).map(|_| Mutex::new(None)).collect();
        rt.run(counting_jobs(&slots));
        let warm = rt.threads_spawned();
        assert_eq!(warm, 2, "size 3 = submitter + 2 pool threads");
        for _ in 0..10 {
            let slots: Vec<Mutex<Option<usize>>> = (0..6).map(|_| Mutex::new(None)).collect();
            rt.run(counting_jobs(&slots));
        }
        assert_eq!(rt.threads_spawned(), warm, "steady state spawns zero new threads");
    }

    #[test]
    fn spawn_count_is_bounded_by_the_batch() {
        let rt = Runtime::new(8);
        let slots: Vec<Mutex<Option<usize>>> = (0..3).map(|_| Mutex::new(None)).collect();
        rt.run(counting_jobs(&slots));
        assert_eq!(rt.threads_spawned(), 2, "3 jobs need at most submitter + 2 threads");
    }

    #[test]
    fn single_job_batches_run_inline() {
        let rt = Runtime::new(4);
        let slot = Mutex::new(None);
        rt.run(vec![Box::new(|| {
            *slot.lock().unwrap() = Some(7usize);
        }) as Job<'_>]);
        assert_eq!(*slot.lock().unwrap(), Some(7));
        assert_eq!(rt.threads_spawned(), 0, "one job never needs a pool thread");
    }

    #[test]
    fn panicking_jobs_drain_the_batch_and_resume_on_the_caller() {
        let rt = Runtime::new(2);
        let survivors: Vec<Mutex<Option<usize>>> = (0..4).map(|_| Mutex::new(None)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut jobs: Vec<Job<'_>> = vec![Box::new(|| panic!("job blew up"))];
            jobs.extend(survivors.iter().enumerate().map(|(i, slot)| {
                Box::new(move || {
                    *slot.lock().unwrap() = Some(i);
                }) as Job<'_>
            }));
            rt.run(jobs);
        }));
        assert!(result.is_err(), "the job panic must resume on the submitter");
        assert!(
            survivors.iter().all(|s| s.lock().unwrap().is_some()),
            "the rest of the batch still completes"
        );
        // the pool survives a panicked batch
        let slots: Vec<Mutex<Option<usize>>> = (0..4).map(|_| Mutex::new(None)).collect();
        rt.run(counting_jobs(&slots));
        assert!(slots.iter().all(|s| s.lock().unwrap().is_some()));
    }

    #[test]
    fn drop_joins_all_workers() {
        let rt = Runtime::new(4);
        let slots: Vec<Mutex<Option<usize>>> = (0..8).map(|_| Mutex::new(None)).collect();
        rt.run(counting_jobs(&slots));
        drop(rt); // must not hang or leak: Drop joins the workers
        let rt2 = Runtime::new(2);
        let slots: Vec<Mutex<Option<usize>>> = (0..4).map(|_| Mutex::new(None)).collect();
        rt2.run(counting_jobs(&slots));
        assert!(slots.iter().all(|s| s.lock().unwrap().is_some()));
    }
}
