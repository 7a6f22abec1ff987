//! The async commit service: submission decoupled from sealing.
//!
//! [`Database::apply_async`] validates a batch, reserves the next
//! sequence number and hands the statements to a background service
//! thread, returning a [`Ticket`] immediately. The service drains its
//! queue in submission order, handing the executor
//! (`DbInner::seal_window`) one window of up to the database's
//! pipeline depth at a time — the same windows [`apply_pipelined`]
//! seals. A window holds submissions of any shape: a one-statement
//! submission plans like `apply`, a multi-statement (or empty) one
//! like a sequential transaction, and both ride the same copy-on-write
//! image chain. Commits seal **strictly in sequence order**, so
//! subscription feeds stay gapless no matter how the work was
//! scheduled.
//!
//! The synchronous API stays safe through *quiescing*: `Database`
//! derefs to its core only after waiting for the service to go idle,
//! so a reader can never observe (and a writer can never interleave
//! with) a half-drained queue. The service thread itself is lazy —
//! spawned on the first `apply_async`, joined when the `Database`
//! drops (after draining what was queued) — so purely synchronous
//! databases never pay for it, and steady-state async traffic reuses
//! one thread plus the persistent [`Runtime`] pool.
//!
//! # Failure containment
//!
//! A submission can fail three ways, and each is pinned to a ticket:
//!
//! * an [`Error`] from the engine (e.g. a fallible document apply) —
//!   the failing ticket carries it;
//! * a **panic** mid-propagation (a worker died, or a
//!   `crate::fault` failpoint fired) — the service catches it,
//!   rolls the document back to the last *sealed* commit, replays the
//!   sealed prefix of the window, recomputes every view from scratch
//!   and seals nothing else from that window; the failing ticket
//!   carries [`Error::Panic`] with the panic message;
//! * an earlier submission in the queue failed — the reserved
//!   sequence number can no longer be honored, so the ticket aborts
//!   with [`Error::Aborted`] (resubmit for a fresh seq).
//!
//! After any failure the database is exactly the sequential replay of
//! the commits that actually sealed, and every surviving subscription
//! saw exactly those commits — `tests/fault_injection.rs` proves all
//! three properties under injected panics.
//!
//! [`Database::apply_async`]: crate::database::Database::apply_async
//! [`apply_pipelined`]: crate::database::DbInner::apply_pipelined
//! [`Runtime`]: crate::runtime::Runtime

use crate::commit::Commit;
use crate::database::DbInner;
use crate::error::Error;
use crate::executor::Batch;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use xivm_update::{apply_pul, Pul, UpdateStatement};
use xivm_xml::Document;

/// A claim on one future commit, returned by
/// [`Database::apply_async`](crate::database::Database::apply_async)
/// as soon as the submission is validated and scheduled.
///
/// The ticket is independent of the database borrow: hold it, move it
/// to another thread, or drop it (the commit seals regardless).
#[derive(Debug)]
pub struct Ticket {
    /// The sequence number reserved for this submission. If the
    /// submission seals, its [`Commit::seq`] is exactly this value.
    /// If it fails or aborts, everything queued behind it aborts too
    /// and reservations restart from the last sealed commit — so the
    /// number may be reclaimed by a *later* submission, and the
    /// sealed commit stream itself stays gapless.
    pub seq: u64,
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Blocks until the submission seals or fails, returning the
    /// sealed [`Commit`] or the error that stopped it. Idempotent:
    /// the result is kept, so repeated waits return the same answer.
    pub fn wait(&self) -> Result<Commit, Error> {
        let mut slot = self.inner.result.lock().unwrap();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.inner.ready.wait(slot).unwrap();
        }
    }

    /// The result if the submission already sealed or failed, `None`
    /// while it is still queued or in flight. Never blocks.
    pub fn try_result(&self) -> Option<Result<Commit, Error>> {
        self.inner.result.lock().unwrap().clone()
    }
}

#[derive(Debug)]
struct TicketInner {
    result: Mutex<Option<Result<Commit, Error>>>,
    ready: Condvar,
}

impl TicketInner {
    fn new() -> Arc<Self> {
        Arc::new(TicketInner { result: Mutex::new(None), ready: Condvar::new() })
    }

    /// First write wins; later calls are ignored (a ticket resolves
    /// exactly once).
    fn fulfill(&self, result: Result<Commit, Error>) {
        let mut slot = self.result.lock().unwrap();
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.ready.notify_all();
    }
}

/// One queued `apply_async` call: the pre-validated statements and
/// the ticket to resolve.
struct Submission {
    stmts: Vec<UpdateStatement>,
    ticket: Arc<TicketInner>,
}

struct State {
    queue: VecDeque<Submission>,
    /// True while the service thread is outside the lock draining a
    /// batch (the queue may be empty yet work is still in flight).
    busy: bool,
    shutdown: bool,
    /// Sealed high-water mark as last observed by the service thread.
    last_sealed: u64,
    /// Highest sequence number promised to a ticket. Re-synced from
    /// the database's commit counter whenever the service is idle, so
    /// interleaved synchronous commits are accounted for.
    reserved: u64,
    /// First background failure since the last `flush()`.
    first_error: Option<Error>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when the service seals commits or goes idle.
    done: Condvar,
}

/// The `Database`-side handle: owns the lazily spawned service thread
/// and the queue it drains. Dropping the handle requests shutdown and
/// joins the thread (after it drains everything still queued) — the
/// `Database` stores it *before* the `DbInner` box precisely so this
/// join happens while the loaned core is still alive.
pub(crate) struct ServiceHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// The raw loan of the database core the service thread works
/// through. The pointer targets the heap allocation behind
/// `Database::inner`, whose address is stable across moves of the
/// `Database` itself.
struct Loan(*mut DbInner);

// SAFETY: the loan crosses into the service thread, which dereferences
// it only while `state.busy` is true; every `&mut DbInner` the owning
// thread creates goes through the quiescing deref, which waits for
// `busy == false` and an empty queue under the same mutex. The two
// sides therefore never hold references simultaneously, and the
// mutex's ordering makes the hand-off a proper happens-before edge.
unsafe impl Send for Loan {}

impl ServiceHandle {
    pub(crate) fn new() -> Self {
        ServiceHandle {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    busy: false,
                    shutdown: false,
                    last_sealed: 0,
                    reserved: 0,
                    first_error: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            thread: None,
        }
    }

    /// Blocks until the service has nothing queued and nothing in
    /// flight. The guard behind every synchronous `Database` access.
    pub(crate) fn quiesce(&self) {
        if self.thread.is_none() {
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.busy || !st.queue.is_empty() {
            st = self.shared.done.wait(st).unwrap();
        }
    }

    /// Enqueues a pre-validated submission, reserving the next
    /// sequence number, and returns its ticket. Spawns the service
    /// thread on first use.
    pub(crate) fn submit(&mut self, db: *mut DbInner, stmts: Vec<UpdateStatement>) -> Ticket {
        if self.thread.is_none() {
            let loan = Loan(db);
            let shared = Arc::clone(&self.shared);
            self.thread = Some(
                std::thread::Builder::new()
                    .name("xivm-commit-service".into())
                    .spawn(move || service_loop(loan, shared))
                    .expect("spawn commit service thread"),
            );
        }
        let mut st = self.shared.state.lock().unwrap();
        if st.queue.is_empty() && !st.busy {
            // Idle: synchronous commits may have advanced the counter
            // since the last drain. SAFETY: the service thread is
            // parked on `work` under this same mutex, so reading the
            // core here cannot race its loan.
            let commits = unsafe { (*db).commits };
            st.reserved = commits;
            st.last_sealed = commits;
        }
        st.reserved += 1;
        let seq = st.reserved;
        let inner = TicketInner::new();
        st.queue.push_back(Submission { stmts, ticket: Arc::clone(&inner) });
        drop(st);
        self.shared.work.notify_all();
        Ticket { seq, inner }
    }

    /// Quiesces, then surfaces (and clears) the first background
    /// failure since the previous flush.
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        if self.thread.is_none() {
            return Ok(());
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.busy || !st.queue.is_empty() {
            st = self.shared.done.wait(st).unwrap();
        }
        match st.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Waits while commit `seq` is still promised but not yet sealed.
    /// Returns the service's sealed high-water mark, which is `0` if
    /// the service never ran (the caller falls back to the database's
    /// own counter).
    pub(crate) fn barrier(&self, seq: u64) -> u64 {
        if self.thread.is_none() {
            return 0;
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.last_sealed < seq && st.reserved >= seq {
            st = self.shared.done.wait(st).unwrap();
        }
        st.last_sealed
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(handle) = self.thread.take() {
            {
                let mut st = self.shared.state.lock().unwrap();
                st.shutdown = true;
            }
            self.shared.work.notify_all();
            let _ = handle.join();
        }
    }
}

fn service_loop(loan: Loan, shared: Arc<Shared>) {
    loop {
        let batch: Vec<Submission> = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
            st.busy = true;
            st.queue.drain(..).collect()
        };
        // SAFETY: `busy` is set, so the owning thread's quiescing
        // deref blocks until this borrow ends (see `Loan`).
        let db = unsafe { &mut *loan.0 };
        let error = drain_batch(db, &batch, &shared);
        let sealed = db.commits;
        let mut st = shared.state.lock().unwrap();
        st.busy = false;
        st.last_sealed = sealed;
        if let Some(e) = error {
            if st.first_error.is_none() {
                st.first_error = Some(e);
            }
            // Submissions enqueued while the failing batch ran
            // reserved sequence numbers that can no longer be
            // honored gaplessly: abort them and restart reservations
            // from what actually sealed.
            for sub in st.queue.drain(..) {
                sub.ticket.fulfill(Err(Error::Aborted));
            }
            st.reserved = sealed;
        }
        drop(st);
        shared.done.notify_all();
    }
}

/// Drains one batch in submission order, a window of up to the
/// database's pipeline depth at a time, whatever the submissions'
/// shapes. After the first failure every remaining ticket aborts.
/// Returns the first failure, if any.
fn drain_batch(db: &mut DbInner, batch: &[Submission], shared: &Shared) -> Option<Error> {
    let mut error: Option<Error> = None;
    for window in batch.chunks(db.pipeline) {
        if error.is_some() {
            fail_tail(window, 0, Error::Aborted);
        } else if let Err(e) = seal_window(db, window) {
            error = Some(e);
        } else {
            // Publish progress so `commit_barrier` waiters wake
            // per window, not per batch.
            let sealed = db.commits;
            let mut st = shared.state.lock().unwrap();
            st.last_sealed = sealed;
            drop(st);
            shared.done.notify_all();
        }
    }
    error
}

/// Seals one window of submissions through the executor
/// ([`DbInner::seal_window`]), fulfilling each ticket as its commit
/// seals (strictly in order). On failure, every ticket in the window
/// is resolved — sealed prefix with its `Commit`, the failing one with
/// the error, the rest with [`Error::Aborted`] — and on a panic the
/// database is rolled back to the sealed prefix and every view
/// recomputed.
fn seal_window(db: &mut DbInner, window: &[Submission]) -> Result<(), Error> {
    #[cfg(any(test, feature = "fault-inject"))]
    crate::fault::seal_point();
    let batches: Vec<Batch<'_>> = window.iter().map(|s| Batch::of(&s.stmts)).collect();
    let pre = db.doc.clone();
    // The PULs of the commits that sealed, in order: what `recover`
    // replays onto `pre` — whatever shape each submission had.
    let mut sealed: Vec<Pul> = Vec::with_capacity(window.len());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        db.seal_window(&batches, |k, pul, commit| {
            window[k].ticket.fulfill(Ok(commit));
            sealed.push(pul);
        })
    }));
    let e = match outcome {
        Ok(Ok(())) => return Ok(()),
        // The engine stopped cleanly: commits before the failure
        // sealed (tickets already fulfilled), nothing after the
        // failing submission touched the document.
        Ok(Err(e)) => e,
        Err(payload) => {
            recover(db, pre, &sealed);
            Error::Panic(panic_message(payload))
        }
    };
    fail_tail(window, sealed.len(), e.clone());
    Err(e)
}

/// Resolves the unsealed tail of a failed window: the first unsealed
/// ticket carries the failure, everything behind it aborts.
fn fail_tail(window: &[Submission], sealed: usize, e: Error) {
    if let Some(failing) = window.get(sealed) {
        failing.ticket.fulfill(Err(e));
    }
    for sub in window.iter().skip(sealed + 1) {
        sub.ticket.fulfill(Err(Error::Aborted));
    }
}

/// Post-panic rollback: rebuild the document as `pre` plus the PULs
/// of the commits that actually sealed (they applied cleanly before
/// the panic, so replaying them cannot fail), then recompute every
/// view from scratch against it. Stores sealed before the panic stay
/// exactly as sealed; the half-propagated state of the panicking
/// window is discarded wholesale.
fn recover(db: &mut DbInner, pre: Document, sealed: &[Pul]) {
    let mut doc = pre;
    for pul in sealed {
        if apply_pul(&mut doc, pul).is_err() {
            break;
        }
    }
    db.doc = doc;
    db.views.recompute_all(&db.doc);
    // `recompute_all` rebuilt deferred stores against the live
    // document, silently absorbing any accumulated batch — the
    // coalesced refresh event those subscribers were promised can no
    // longer be produced. Discard the batches and force a `Lagged`
    // marker over exactly the folded range, so feed consumers reseed
    // from a snapshot instead of diverging.
    for i in 0..db.pending.len() {
        if let Some(p) = db.pending[i].take() {
            db.subs.force_lag(i, p.first_seq, db.commits);
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
