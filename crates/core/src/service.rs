//! The async commit service: submission decoupled from sealing.
//!
//! [`Database::apply_async`] validates a batch, reserves the next
//! sequence number and hands the statements to a background service
//! thread, returning a [`Ticket`] immediately. Each time the service
//! wakes it drains its whole queue — a *window* — and seals it with its
//! own loop over the executor (`DbInner::seal`), one submission after
//! another, under one recovery image. The window's size is whatever
//! queued up while the previous one sealed; there is no knob for it. A
//! window holds submissions of any shape: a one-statement submission
//! plans like `apply`, a multi-statement (or empty) one like a
//! sequential transaction. While the image is held, the live document
//! copies an arena chunk or a canonical list the first time the window
//! writes it and never again, so however long a window runs its extra
//! memory stays bounded by one document image. Commits seal **strictly
//! in sequence order**, so
//! subscription feeds stay gapless no matter how the work was
//! scheduled, and each publishes its seal as it happens, so
//! [`Database::commit_barrier`] returns once its commit has sealed.
//!
//! The synchronous API stays safe through an **ownership hand-off**:
//! the database core ([`DbInner`]) is always in exactly one of three
//! places — held by the `Database` value, *parked* in the state this
//! module guards with its mutex, or held by the service thread for
//! the length of one drained batch. `apply_async` parks the core with
//! the submission; the service thread takes it to drain and puts it
//! back; the first synchronous access afterwards waits for the
//! service to go idle and *takes the core back*. A reader can never
//! observe (and a writer can never interleave with) a half-drained
//! queue because, while one is being drained, there is no core on the
//! owner's side to reach — the compiler, not a convention, vouches
//! for that (the crate is `forbid(unsafe_code)`, and what crosses into
//! the service thread is `Send` by auto trait). The service thread
//! itself is lazy — spawned on the first `apply_async`, joined when the
//! `Database` drops (after draining what was queued, whichever side
//! holds the core) — so purely synchronous databases never pay for
//! it, and steady-state async traffic reuses that one thread.
//!
//! # Failure containment
//!
//! A submission can fail four ways, and each is pinned to a ticket:
//!
//! * an [`Error`] from the engine (e.g. a fallible document apply) —
//!   the failing ticket carries it;
//! * a **panic** mid-propagation (the apply or a view's `finish` died,
//!   or a `crate::fault` failpoint fired) — the service catches it,
//!   rolls the document back to the last *sealed* commit — a panic at
//!   step *k* of a window keeps the steps before *k*, which it
//!   replays onto the window's image under the live label interner —
//!   recomputes every view from scratch and seals nothing else from
//!   that window; the failing ticket carries
//!   [`Error::Panic`] with the panic message;
//! * an earlier submission in the queue failed — the reserved
//!   sequence number can no longer be honored, so the ticket aborts
//!   with [`Error::Aborted`] (resubmit for a fresh seq);
//! * the **recovery itself panics** (the from-scratch recompute dies
//!   on the document the window died on) — there is no consistent
//!   core left to hand back, so the service is *poisoned*, with the
//!   semantics of a poisoned `std::sync::Mutex`: the failing ticket
//!   carries [`Error::Panic`], everything behind it (the rest of the
//!   batch and the queue) [`Error::Aborted`], every `flush()` and
//!   every later `apply_async` returns that `Error::Panic`, and a
//!   synchronous access **panics** with its message instead of
//!   waiting for a core that will never come back.
//!
//! After any of the first three the database is exactly the
//! sequential replay of the commits that actually sealed, and every
//! surviving subscription saw exactly those commits;
//! `tests/fault_injection.rs` proves those properties, and that the
//! fourth fails loudly rather than hanging, under injected panics.
//!
//! [`Database::apply_async`]: crate::database::Database::apply_async
//! [`Database::commit_barrier`]: crate::database::Database::commit_barrier
//! [`DbInner`]: crate::database::DbInner

use crate::commit::Commit;
use crate::database::DbInner;
use crate::error::Error;
use crate::executor::Batch;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use xivm_update::{apply_pul_for, DeltaLabels, Pul, UpdateStatement};
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
    /// exactly once). Returns whether this call resolved the ticket.
    fn fulfill(&self, result: Result<Commit, Error>) -> bool {
        let mut slot = self.result.lock().unwrap();
        let first = slot.is_none();
        if first {
            *slot = Some(result);
        }
        drop(slot);
        self.ready.notify_all();
        first
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
    /// The database core while neither side is using it: parked here
    /// by `submit` (with the first submission of a burst) and by the
    /// service thread after every batch, taken by the service thread
    /// to drain and by [`ServiceHandle::reclaim`] for the owner.
    parked: Option<Box<DbInner>>,
    /// True while the service thread holds the core, outside the lock,
    /// draining a batch (the queue may be empty yet work is still in
    /// flight).
    busy: bool,
    shutdown: bool,
    /// Sealed high-water mark as last observed by the service thread.
    last_sealed: u64,
    /// Highest sequence number promised to a ticket. Re-synced from
    /// the core's commit counter whenever the owner parks it, so
    /// interleaved synchronous commits are accounted for.
    reserved: u64,
    /// First background failure since the last `flush()`.
    first_error: Option<Error>,
    /// The panic message of a batch whose *recovery* panicked. The
    /// half-recovered core died with the batch; the message is all
    /// that is left to report, and nothing is accepted any more.
    poisoned: Option<String>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when the service seals commits or goes idle.
    done: Condvar,
}

impl Shared {
    /// Locks the state, tolerating poison: the paths that report a
    /// dead service must not themselves die on `lock().unwrap()`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks on `done` while `blocked` holds — the one wait every
    /// synchronous entry point goes through.
    fn wait_while(&self, mut blocked: impl FnMut(&State) -> bool) -> MutexGuard<'_, State> {
        self.done.wait_while(self.lock(), |st| blocked(st)).unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until nothing is queued and nothing is in flight.
    fn idle(&self) -> MutexGuard<'_, State> {
        self.wait_while(|st| st.busy || !st.queue.is_empty())
    }
}

/// The `Database`-side handle: owns the lazily spawned service thread
/// and the state it shares with it — the queue, and the database core
/// whenever it is parked. Dropping the handle requests shutdown and
/// joins the thread (after it drains everything still queued).
pub(crate) struct ServiceHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    pub(crate) fn new() -> Self {
        ServiceHandle {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    parked: None,
                    busy: false,
                    shutdown: false,
                    last_sealed: 0,
                    reserved: 0,
                    first_error: None,
                    poisoned: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            thread: None,
        }
    }

    /// Takes the parked core back for the owner, after waiting for the
    /// service to go idle. Behind the first synchronous `Database`
    /// access after an `apply_async`. Panics with the original message
    /// if the service is poisoned — there is no core to hand back.
    pub(crate) fn reclaim(&self) -> Box<DbInner> {
        let mut st = self.shared.idle();
        if let Some(msg) = st.poisoned.clone() {
            drop(st);
            panic!("commit service poisoned, the database is unusable: {msg}");
        }
        st.parked.take().expect("an idle service holds the parked core")
    }

    /// Enqueues a pre-validated submission, reserving the next
    /// sequence number, and returns its ticket. `core` is the database
    /// core if the owner still held it (`None` = already parked or in
    /// the service thread's hands); it is parked with the submission.
    /// Spawns the service thread on first use; refuses with the
    /// original [`Error::Panic`] once the service is poisoned.
    pub(crate) fn submit(
        &mut self,
        core: Option<Box<DbInner>>,
        stmts: Vec<UpdateStatement>,
    ) -> Result<Ticket, Error> {
        if self.thread.is_none() {
            let shared = Arc::clone(&self.shared);
            self.thread = Some(
                std::thread::Builder::new()
                    .name("xivm-commit-service".into())
                    .spawn(move || service_loop(shared))
                    .expect("spawn commit service thread"),
            );
        }
        let mut st = self.shared.lock();
        if let Some(msg) = &st.poisoned {
            return Err(Error::Panic(msg.clone()));
        }
        if let Some(core) = core {
            // The owner held the core, so the service was idle and
            // synchronous commits may have advanced the counter since
            // the last drain.
            st.reserved = core.commits;
            st.last_sealed = core.commits;
            st.parked = Some(core);
        }
        st.reserved += 1;
        let seq = st.reserved;
        let inner = TicketInner::new();
        st.queue.push_back(Submission { stmts, ticket: Arc::clone(&inner) });
        drop(st);
        self.shared.work.notify_all();
        Ok(Ticket { seq, inner })
    }

    /// Waits for the service to go idle, then surfaces (and clears)
    /// the first background failure since the previous flush — and,
    /// once the service is poisoned, that failure on every call.
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        let mut st = self.shared.idle();
        let poison = st.poisoned.clone().map(Error::Panic);
        st.first_error.take().or(poison).map_or(Ok(()), Err)
    }

    /// Waits while commit `seq` is still promised but not yet sealed.
    /// Returns the service's sealed high-water mark, which is `0` if
    /// the service never ran (the caller falls back to the database's
    /// own counter).
    pub(crate) fn barrier(&self, seq: u64) -> u64 {
        self.shared.wait_while(|st| st.last_sealed < seq && st.reserved >= seq).last_sealed
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.shared.lock().shutdown = true;
            self.shared.work.notify_all();
            let _ = handle.join();
        }
    }
}

fn service_loop(shared: Arc<Shared>) {
    loop {
        let (mut db, batch): (Box<DbInner>, Vec<Submission>) = {
            let mut st = shared.lock();
            while st.queue.is_empty() {
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            // `fault::SEAL_DELAY` holds the drain off, unlocked, so what
            // is submitted meanwhile joins this batch. Only this thread
            // drains the queue: it is still non-empty afterwards.
            #[cfg(any(test, feature = "fault-inject"))]
            let mut st = {
                drop(st);
                crate::fault::seal_point();
                shared.lock()
            };
            st.busy = true;
            let db =
                st.parked.take().expect("the core is parked with the queue's first submission");
            (db, st.queue.drain(..).collect())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| seal_queue(&mut db, &batch, &shared)));
        let mut st = shared.lock();
        st.busy = false;
        let error = match outcome {
            Ok(result) => {
                st.last_sealed = db.commits;
                st.parked = Some(db);
                result.err()
            }
            // A panic past `seal_queue`'s own containment (recovery
            // itself died): the core is in no state to hand back and
            // drops with this iteration; the service is poisoned.
            Err(payload) => {
                let msg = panic_message(payload);
                st.poisoned = Some(msg.clone());
                Some(Error::Panic(msg))
            }
        };
        if let Some(mut e) = error {
            st.first_error.get_or_insert(e.clone());
            // Tickets resolve once (first write wins), so the sealed
            // prefix keeps its commits: the first *unresolved* ticket
            // is the failing one and carries the failure; everything
            // behind it — the rest of the batch, and whatever was
            // enqueued while it ran — reserved a sequence number that
            // can no longer be honored gaplessly and aborts.
            // Reservations restart from what actually sealed.
            let queued: Vec<Submission> = st.queue.drain(..).collect();
            for sub in batch.iter().chain(&queued) {
                if sub.ticket.fulfill(Err(e.clone())) {
                    e = Error::Aborted;
                }
            }
            st.reserved = st.last_sealed;
        }
        drop(st);
        shared.done.notify_all();
    }
}

/// Seals one drained window of submissions, whatever their shapes,
/// one [`DbInner::seal`] each, in order, fulfilling each ticket and
/// publishing the sealed high-water mark as its commit seals, so a
/// `commit_barrier` waiter never waits on a later commit of the
/// window. It stops at the first failure (the caller resolves the
/// tickets left unresolved): a clean engine error leaves the commits
/// before it sealed and the document untouched by anything after; on
/// a panic the database is rolled back to the sealed prefix and every
/// view recomputed. The window's first commit counts the recovery image
/// among its [`Commit::work`] images.
///
/// [`Commit::work`]: crate::Commit::work
fn seal_queue(db: &mut DbInner, window: &[Submission], shared: &Shared) -> Result<(), Error> {
    let pre = db.doc.clone();
    // The PULs of the commits that sealed, in order: what `recover`
    // replays onto `pre` — whatever shape each submission had.
    let mut sealed: Vec<Pul> = Vec::with_capacity(window.len());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for sub in window {
            let (pul, mut commit) = db.seal(Batch::of(&sub.stmts))?;
            commit.work.images += u64::from(sealed.is_empty());
            let seq = commit.seq;
            sub.ticket.fulfill(Ok(commit));
            sealed.push(pul);
            shared.lock().last_sealed = seq;
            shared.done.notify_all();
        }
        Ok(())
    }));
    outcome.unwrap_or_else(|payload| {
        recover(db, pre, &sealed);
        Err(Error::Panic(panic_message(payload)))
    })
}

/// Post-panic rollback: rebuild the document as `pre` plus the PULs
/// of the commits that actually sealed (they applied cleanly before
/// the panic, so replaying them cannot fail), then recompute every
/// view from scratch against it. Stores sealed before the panic stay
/// exactly as sealed; the half-propagated state of the panicking
/// window is discarded wholesale.
///
/// The replay runs under the live document's label interner, which
/// extends `pre`'s: a sealed step planned on a scratch copy adopted
/// that copy's interner before its apply (`CommitPlan::labels`), and
/// its PUL's IDs resolve only under the same label ids.
fn recover(db: &mut DbInner, pre: Document, sealed: &[Pul]) {
    #[cfg(any(test, feature = "fault-inject"))]
    crate::fault::recover_point();
    let mut doc = pre;
    doc.adopt_labels(&db.doc.shared_labels());
    for pul in sealed {
        if apply_pul_for(&mut doc, pul, &DeltaLabels::none()).is_err() {
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
