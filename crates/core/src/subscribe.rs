//! View change subscriptions: the changefeed side of the delta-first
//! API, with bounded queues and slow-consumer policies.
//!
//! [`Database::subscribe`] registers interest in one view and returns
//! a [`Subscription`] handle. From then on every successful commit
//! appends one [`DeltaEvent`] — the commit's sequence number plus the
//! view's [`ViewDelta`] — to the subscription's queue, *including*
//! commits that did not touch the view (their delta is empty), so a
//! consumer can verify it saw every commit: the drained sequence
//! numbers are consecutive.
//!
//! Queues are bounded when the database was built with
//! `builder().subscription_capacity(n)` (or `XIVM_SUB_CAPACITY`), or
//! when the subscription was opened with
//! [`Database::subscribe_with`]. A full queue triggers the
//! subscription's [`SlowConsumerPolicy`]:
//!
//! * [`Block`](SlowConsumerPolicy::Block) — the commit path waits
//!   until the consumer drains (backpressure; nothing is ever lost).
//! * [`DropAndMark`](SlowConsumerPolicy::DropAndMark) — the oldest
//!   queued event is discarded and the gap is reported as one
//!   [`Lagged`] marker carrying the exact `missed_range`; the
//!   consumer re-seeds from [`Database::snapshot`] and resumes at a
//!   gapless seq.
//! * [`Disconnect`](SlowConsumerPolicy::Disconnect) — the
//!   subscription is dropped outright; later commits pay nothing for
//!   it.
//!
//! The queue lives behind an `Arc` shared by the registry and the
//! handle, so [`Subscription::drain`] needs no database access — a
//! consumer thread can drain (and thereby release a `Block`ed
//! producer) while the commit path is mid-seal. [`Database::drain`]
//! remains the plain-delta entry point for never-lagging feeds; a
//! dropped interest is released with [`Database::unsubscribe`].
//!
//! [`Database::subscribe`]: crate::database::Database::subscribe
//! [`Database::subscribe_with`]: crate::database::Database::subscribe_with
//! [`Database::snapshot`]: crate::database::DbInner::snapshot
//! [`Database::drain`]: crate::database::Database::drain
//! [`Database::unsubscribe`]: crate::database::Database::unsubscribe
//! [`ViewDelta`]: crate::commit::ViewDelta

use crate::commit::{Commit, ViewDelta};
use crate::database::ViewHandle;
use std::collections::{HashMap, VecDeque};
use std::ops::RangeInclusive;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};

/// What the commit path does when a bounded subscription queue is
/// full. Unbounded subscriptions (the default) never consult this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum SlowConsumerPolicy {
    /// Wait for the consumer to drain. Nothing is ever lost, but a
    /// consumer that never drains stalls the commit path — only use
    /// this when a dedicated thread owns the [`Subscription`] handle
    /// (handle-level [`Subscription::drain`] takes no database lock,
    /// so the drain can always proceed).
    #[default]
    Block,
    /// Discard the oldest queued event and mark the stream with one
    /// [`Lagged`] event carrying the exact contiguous `missed_range`.
    /// The commit path never waits; the consumer re-seeds from a
    /// [`Database::snapshot`](crate::database::DbInner::snapshot)
    /// and resumes gapless at `snapshot.seq() + 1`.
    DropAndMark,
    /// Drop the subscription entirely: the queue is cleared, the
    /// registry prunes the entry at the next commit, and later
    /// commits pay nothing for it. The handle observes
    /// [`Subscription::is_disconnected`].
    Disconnect,
}

/// The gap marker a `DropAndMark` subscription receives in place of
/// the events its queue could not hold: the *exact* contiguous range
/// of commit sequence numbers that were discarded. Dropped events are
/// always the oldest queued, so the marker sits at the stream
/// position of the first missed commit and the events that follow it
/// resume at `missed_range.end() + 1` — the stream stays ordered,
/// just annotated with its hole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lagged {
    /// Sequence numbers of the commits whose events were discarded,
    /// inclusive on both ends.
    pub missed_range: RangeInclusive<u64>,
}

/// One element of a subscription feed as drained by
/// [`Subscription::drain`]: either a commit's delta or a [`Lagged`]
/// gap marker.
#[derive(Debug, Clone)]
pub enum FeedEvent {
    /// One commit's delta for the subscribed view.
    Delta(DeltaEvent),
    /// The queue overflowed under
    /// [`SlowConsumerPolicy::DropAndMark`]; the carried range is
    /// exactly the commits this consumer missed.
    Lagged(Lagged),
}

impl FeedEvent {
    /// The delta payload, if this element is one.
    pub fn delta(&self) -> Option<&DeltaEvent> {
        match self {
            FeedEvent::Delta(e) => Some(e),
            FeedEvent::Lagged(_) => None,
        }
    }
}

/// One commit as seen by a subscription: the commit's sequence number
/// and the subscribed view's delta (empty when the commit did not
/// touch the view). The delta is `Arc`-shared: all subscriptions of
/// one view receive the allocation the commit's own report holds, so
/// fan-out to N subscribers copies no delta.
///
/// # The gapless-seq contract
///
/// Every successful commit appends exactly one event to every live
/// subscription — commits that did not touch the view included (their
/// delta is empty), and rejected commits emit nothing and consume no
/// sequence number. The `seq` values a consumer drains are therefore
/// *consecutive*: the first event of a subscription carries the seq
/// after [`Database::last_seq`] at subscribe time, and each following
/// event carries the previous seq plus one, with no reordering across
/// drains. This holds for every commit front-end
/// (pipelined and async hosts seal commits strictly in order), so a
/// consumer that folds events in drain order reconstructs every
/// intermediate store state exactly — circuit sources and replicas
/// rely on it. The one permitted hole is an explicit [`Lagged`]
/// marker under [`SlowConsumerPolicy::DropAndMark`], which names the
/// missing seqs exactly; around it the contract still holds.
///
/// # Deferred views and coalesced events
///
/// A view under deferred maintenance still receives one event per
/// commit — its store genuinely does not change while changes batch,
/// so those events are empty. The refresh that folds the batch seals
/// its own commit, and that commit's event carries the whole batched
/// delta plus [`folded`](Self::folded): the exact range of earlier
/// seqs whose document changes it coalesces. Seqs therefore stay
/// consecutive even across a refresh; `folded` is metadata, never a
/// hole.
///
/// [`Database::last_seq`]: crate::database::DbInner::last_seq
#[derive(Debug, Clone, Default)]
pub struct DeltaEvent {
    pub seq: u64,
    /// `Some(lo..=hi)` when this event is the coalesced refresh of a
    /// deferred view: its delta folds the document changes of commits
    /// `lo..=hi` (whose own events for this view were empty) into one
    /// propagation. `None` for ordinary immediate-maintenance events.
    pub folded: Option<RangeInclusive<u64>>,
    pub delta: Arc<ViewDelta>,
}

/// A registered interest in one view's deltas. Only meaningful on the
/// database that issued it.
///
/// The handle owns a shared reference to its queue, so
/// [`Subscription::drain`] and [`Subscription::pending`] work without
/// any database access — move the handle into a consumer thread and
/// drain there while the owning thread keeps committing. The handle
/// is deliberately not `Clone`: exactly one consumer owns a feed.
#[derive(Debug)]
pub struct Subscription {
    pub(crate) id: u64,
    pub(crate) queue: Arc<SubQueue>,
}

impl Subscription {
    /// Takes every queued element — [`Lagged`] marker first if the
    /// queue overflowed, then the surviving deltas in seq order — and
    /// wakes a producer blocked on a full queue. Needs no database
    /// access: this is the call a dedicated consumer thread makes.
    pub fn drain(&self) -> Vec<FeedEvent> {
        self.queue.drain_feed()
    }

    /// Number of queued delta events (a pending [`Lagged`] marker is
    /// not counted).
    pub fn pending(&self) -> usize {
        self.queue.pending()
    }

    /// True once the queue overflowed under
    /// [`SlowConsumerPolicy::Disconnect`] (or the subscription was
    /// cancelled): no further events will arrive.
    pub fn is_disconnected(&self) -> bool {
        self.queue.disconnected()
    }

    /// The queue bound this subscription was opened with; `None` is
    /// unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.queue.capacity
    }

    /// The overflow policy this subscription was opened with.
    pub fn policy(&self) -> SlowConsumerPolicy {
        self.queue.policy
    }
}

/// The queue shared between the registry (producer side) and the
/// [`Subscription`] handle (consumer side).
#[derive(Debug)]
pub(crate) struct SubQueue {
    pub(crate) view: usize,
    capacity: Option<usize>,
    policy: SlowConsumerPolicy,
    state: Mutex<QueueState>,
    /// Signalled on drain and on disconnect: releases a producer
    /// waiting under [`SlowConsumerPolicy::Block`].
    space: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    events: VecDeque<DeltaEvent>,
    /// Contiguous run of dropped seqs, oldest-first. Drops always pop
    /// the queue front, so the run can never fragment: its end is
    /// always exactly one below the oldest surviving event.
    lag: Option<(u64, u64)>,
    disconnected: bool,
}

/// Marks a queue dead: nothing queued, nothing more to come.
fn kill(st: &mut QueueState) {
    st.events.clear();
    st.lag = None;
    st.disconnected = true;
}

/// The guard behind a possibly poisoned lock result. A consumer that
/// panicked while holding its queue (`drain_deltas` on a lagged feed
/// does, by contract) must not take the committing thread down with
/// it at the next `push`: its queue is dead, so it is marked
/// disconnected — the registry prunes it at the next commit — and the
/// commit goes on delivering to everyone else.
fn recover<'a>(result: LockResult<MutexGuard<'a, QueueState>>) -> MutexGuard<'a, QueueState> {
    result.unwrap_or_else(|poisoned| {
        let mut st = poisoned.into_inner();
        kill(&mut st);
        st
    })
}

impl SubQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        recover(self.state.lock())
    }

    fn new(view: usize, capacity: Option<usize>, policy: SlowConsumerPolicy) -> Self {
        SubQueue {
            view,
            // A zero capacity could never hold an event; treat it as 1
            // so `Block` stays drainable and `DropAndMark` keeps the
            // newest event.
            capacity: capacity.map(|c| c.max(1)),
            policy,
            state: Mutex::new(QueueState::default()),
            space: Condvar::new(),
        }
    }

    /// Appends one event, applying the overflow policy if the queue
    /// is full. Returns `false` when the subscription is (or becomes)
    /// disconnected and should be pruned.
    pub(crate) fn push(&self, event: DeltaEvent) -> bool {
        let mut st = self.lock();
        if st.disconnected {
            return false;
        }
        if let Some(cap) = self.capacity {
            while st.events.len() >= cap {
                match self.policy {
                    SlowConsumerPolicy::Block => {
                        st = recover(self.space.wait(st));
                        if st.disconnected {
                            return false;
                        }
                    }
                    SlowConsumerPolicy::DropAndMark => {
                        let dropped = st.events.pop_front().expect("cap >= 1");
                        st.lag = Some(match st.lag {
                            Some((lo, _)) => (lo, dropped.seq),
                            None => (dropped.seq, dropped.seq),
                        });
                    }
                    SlowConsumerPolicy::Disconnect => {
                        kill(&mut st);
                        return false;
                    }
                }
            }
        }
        st.events.push_back(event);
        true
    }

    pub(crate) fn drain_feed(&self) -> Vec<FeedEvent> {
        let mut st = self.lock();
        let extra = usize::from(st.lag.is_some());
        let mut out = Vec::with_capacity(st.events.len() + extra);
        if let Some((lo, hi)) = st.lag.take() {
            out.push(FeedEvent::Lagged(Lagged { missed_range: lo..=hi }));
        }
        out.extend(st.events.drain(..).map(FeedEvent::Delta));
        drop(st);
        self.space.notify_all();
        out
    }

    /// Plain-delta drain for feeds that can never lag (unbounded or
    /// `Block`). Panics if a [`Lagged`] marker is queued — losing the
    /// marker silently would forfeit the gapless-seq contract.
    pub(crate) fn drain_deltas(&self) -> Vec<DeltaEvent> {
        let mut st = self.lock();
        if let Some((lo, hi)) = st.lag {
            panic!(
                "subscription lagged (missed commits {lo}..={hi}): drain the feed with \
                 Subscription::drain and re-seed from Database::snapshot"
            );
        }
        let expected = st.events.len();
        let out = std::mem::replace(&mut st.events, VecDeque::with_capacity(expected));
        drop(st);
        self.space.notify_all();
        out.into()
    }

    /// See [`SubscriptionRegistry::force_lag`]. Extends (or starts) the
    /// lag run to cover `lo..=hi` and drops any queued event the run
    /// would otherwise leapfrog, so drains still deliver the marker
    /// first and only events with seq strictly beyond it after.
    pub(crate) fn force_lag(&self, lo: u64, hi: u64) {
        let mut st = self.lock();
        if st.disconnected {
            return;
        }
        let start = match st.lag.take() {
            // An older hole exists: events between it and `lo` would
            // sit *after* the merged marker, breaking resume-at-end+1.
            // Drop them all; the merged range covers everything.
            Some((l, _)) => {
                st.events.clear();
                l.min(lo)
            }
            None => {
                while st.events.back().is_some_and(|e| e.seq >= lo) {
                    st.events.pop_back();
                }
                lo
            }
        };
        st.lag = Some((start, hi));
        drop(st);
        self.space.notify_all();
    }

    pub(crate) fn pending(&self) -> usize {
        self.lock().events.len()
    }

    pub(crate) fn disconnected(&self) -> bool {
        self.lock().disconnected
    }

    /// Marks the queue dead and wakes any producer blocked on it —
    /// called from `unsubscribe` *before* the registry entry goes
    /// away, so cancelling a `Block`ed subscription can never wedge
    /// the commit path.
    pub(crate) fn disconnect(&self) {
        kill(&mut self.lock());
        self.space.notify_all();
    }
}

/// The subscriptions of one database. Owned by `Database`, which
/// forwards every commit here. Cancelled subscriptions are removed
/// outright — ids are never reused (monotonic counter), so a stale
/// handle still panics instead of aliasing a newer subscription, and
/// a long-lived database under subscribe/unsubscribe churn holds only
/// the live entries. Policy-disconnected entries are pruned lazily at
/// the next commit.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    next_id: u64,
    subs: HashMap<u64, Arc<SubQueue>>,
}

impl SubscriptionRegistry {
    pub(crate) fn subscribe(
        &mut self,
        view: ViewHandle,
        capacity: Option<usize>,
        policy: SlowConsumerPolicy,
    ) -> Subscription {
        let id = self.next_id;
        self.next_id += 1;
        let queue = Arc::new(SubQueue::new(view.index(), capacity, policy));
        self.subs.insert(id, Arc::clone(&queue));
        Subscription { id, queue }
    }

    /// Appends one event per live subscription for a finished commit.
    /// Every commit reports on every view (no-op commits carry empty
    /// deltas), so sequence numbers stay gapless. Every subscriber of a
    /// view holds the commit's own delta allocation. A full
    /// `Block` queue makes this call wait for its consumer; the other
    /// policies never wait, so a stalled reader cannot wedge the
    /// commit path unless it explicitly opted into backpressure.
    pub(crate) fn record(&mut self, commit: &Commit) {
        self.subs.retain(|_, q| !q.disconnected());
        if self.subs.is_empty() {
            return;
        }
        let per_view = commit.per_view();
        for queue in self.subs.values() {
            let report = per_view.get(queue.view);
            let delta = report.map(|r| Arc::clone(&r.delta)).unwrap_or_default();
            let folded = report.and_then(|r| r.coalesced.clone());
            queue.push(DeltaEvent { seq: commit.seq, folded, delta });
        }
    }

    /// Forces a [`Lagged`] marker into every subscription of `view`,
    /// covering `lo..=hi`. This is the crash-recovery escape hatch:
    /// when the service thread recovers a panicked window by
    /// recomputing stores, a deferred view's batched-but-unrefreshed
    /// changes land without a refresh commit, so its feeds are told
    /// explicitly which seqs they can no longer reconstruct and
    /// re-seed from a snapshot. Queued events that the forced range
    /// touches (or that follow an earlier lag run) are dropped so the
    /// stream stays marker-first, then strictly beyond the marker.
    pub(crate) fn force_lag(&mut self, view: usize, lo: u64, hi: u64) {
        for queue in self.subs.values() {
            if queue.view == view {
                queue.force_lag(lo, hi);
            }
        }
    }

    /// Number of live (not yet cancelled or policy-disconnected)
    /// subscriptions. This is exactly the fan-out the next commit
    /// pays — a pipelined host records commits strictly in sequence
    /// order, so an unsubscribe between two overlapped commits takes
    /// effect at the next sealed commit, never mid-stream.
    pub(crate) fn live(&self) -> usize {
        self.subs.values().filter(|q| !q.disconnected()).count()
    }

    pub(crate) fn unsubscribe(&mut self, sub: Subscription) {
        let was_disconnected = sub.queue.disconnected();
        sub.queue.disconnect();
        let existed = self.subs.remove(&sub.id).is_some();
        assert!(existed || was_disconnected, "subscription from this database, not yet cancelled");
    }
}
