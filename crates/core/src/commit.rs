//! Commit reports: what one committed update did to every view, with
//! the per-view Δ as a first-class value.
//!
//! Propagation computes per-view deltas (the Δ⁺/Δ⁻ tables of §3.4,
//! Algorithms 1–6) instead of recomputing views — and the façade hands
//! those deltas to the caller instead of dropping them at the commit
//! boundary. Every successful [`Database::apply`] /
//! [`Transaction::commit`] returns a [`Commit`]: a monotonically
//! increasing sequence number, the optimizer counters, and one
//! [`UpdateReport`] (carrying a [`ViewDelta`]) per view.
//!
//! A [`ViewDelta`] is *complete*: replaying it onto a snapshot of the
//! pre-commit [`ViewStore`] reproduces the post-commit store exactly
//! (keys, derivation counts and stored `val` / `cont` fields) — the
//! property suite checks this for random documents, view sets and
//! transactions at every worker count. Consumers therefore never need
//! to re-read and diff whole stores; they read O(|Δ|) per commit.
//!
//! [`Database::apply`]: crate::database::DbInner::apply
//! [`Transaction::commit`]: crate::database::Transaction::commit

use crate::database::ViewHandle;
use crate::engine::UpdateReport;
use crate::view_store::{TupleKey, ViewStore};
use std::sync::Arc;
use xivm_algebra::Tuple;
use xivm_pulopt::ReductionTrace;

/// The net effect of one commit on one materialized view.
///
/// The three parts mirror how propagation patches the store: tuples
/// (or additional derivations of existing tuples) inserted, derivation
/// counts removed (dropping the tuple when its count reaches zero),
/// and surviving tuples whose stored `val` / `cont` text changed
/// (PIMT / PDMT). [`Self::replay`] applies them in that order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewDelta {
    /// Tuples added with their derivation counts (Δ⁺ side: PINT).
    pub inserted: Vec<(Tuple, u64)>,
    /// Derivation counts removed per tuple key (Δ⁻ side: PDDT). A
    /// tuple whose count reaches zero leaves the view.
    pub removed: Vec<(TupleKey, u64)>,
    /// Surviving tuples whose stored text changed (PIMT / PDMT), with
    /// their post-commit contents.
    pub modified: Vec<(TupleKey, Tuple)>,
}

impl ViewDelta {
    /// True when the commit did not touch this view at all.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty() && self.modified.is_empty()
    }

    /// Number of delta entries (insertions + removals + modifications)
    /// — the O(|Δ|) a consumer processes instead of re-reading the
    /// store.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len() + self.modified.len()
    }

    /// The delta as a stream of weighted changes in the Z-set weight
    /// algebra: an insertion weighs `+count` (the derivations added),
    /// a removal weighs `−count` (the derivations dropped), and a
    /// modification weighs `0` — the tuple's membership is unchanged,
    /// only its stored text moved. Entries come in replay order
    /// (removals, then insertions, then modifications), so a consumer
    /// folding them over a replica sees exactly what [`Self::replay`]
    /// would do, without hand-matching the three-way split.
    pub fn weights(&self) -> impl Iterator<Item = (i64, WeightedChange<'_>)> {
        let removed = self
            .removed
            .iter()
            .map(|(key, count)| (-(*count as i64), WeightedChange::Remove { key, count: *count }));
        let inserted = self
            .inserted
            .iter()
            .map(|(tuple, count)| (*count as i64, WeightedChange::Insert { tuple, count: *count }));
        let modified =
            self.modified.iter().map(|(key, tuple)| (0, WeightedChange::Modify { key, tuple }));
        removed.chain(inserted).chain(modified)
    }

    /// Sorts every section into document order, making the delta a
    /// canonical value: a commit patches the store in several passes
    /// (deletions, predicate flips, insertions) whose entries land here
    /// one pass after the other, and the façade promises bit-identical
    /// commits for equivalent updates (sequential vs parallel, textual
    /// vs typed). It is also the order [`Self::replay`] hands the
    /// store's writers. Safe because replay is order-insensitive within
    /// a section: removals for one key commute (the count is a
    /// saturating sum) and same-key insertions carry identical fields
    /// (all read the same post-update document).
    pub(crate) fn canonicalize(&mut self) {
        self.inserted.sort_by(|a, b| a.0.doc_cmp(&b.0).then(a.1.cmp(&b.1)));
        // A key is its tuple's ID columns and `DeweyId`'s `Ord` is
        // document order: the same comparison on the other two.
        self.removed.sort();
        self.modified.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Applies the delta to a store, through the writers propagation
    /// itself patches it with ([`ViewStore::remove`],
    /// [`ViewStore::absorb`]). Replaying onto a snapshot of the
    /// pre-commit store yields the post-commit store exactly; the
    /// order (removals, then insertions, then modifications) matches
    /// the order propagation patched the original.
    pub fn replay(&self, store: &mut ViewStore) {
        store.remove(&self.removed);
        store.absorb(self.inserted.clone());
        for (_, tuple) in &self.modified {
            store.replace(tuple);
        }
    }
}

/// One entry of [`ViewDelta::weights`]: a view change with its Z-set
/// weight (insert `+count`, delete `−count`, modify `0`). Borrows from
/// the delta, so iterating a delta allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightedChange<'a> {
    /// `count` derivations of `tuple` entered the view (weight
    /// `+count`).
    Insert { tuple: &'a Tuple, count: u64 },
    /// `count` derivations left the tuple behind `key` (weight
    /// `−count`); the tuple disappears when its derivation count hits
    /// zero.
    Remove { key: &'a TupleKey, count: u64 },
    /// The tuple behind `key` survived with changed stored text
    /// (weight `0`); `tuple` is its post-commit contents.
    Modify { key: &'a TupleKey, tuple: &'a Tuple },
}

impl WeightedChange<'_> {
    /// The Z-set weight of this change (also the first element of the
    /// [`ViewDelta::weights`] pair, duplicated here for call sites
    /// holding only the change).
    pub fn weight(&self) -> i64 {
        match self {
            WeightedChange::Insert { count, .. } => *count as i64,
            WeightedChange::Remove { count, .. } => -(*count as i64),
            WeightedChange::Modify { .. } => 0,
        }
    }

    /// The key of the view tuple this change touches (computed from
    /// the tuple's ID columns for insertions).
    pub fn key(&self) -> TupleKey {
        match self {
            WeightedChange::Insert { tuple, .. } => tuple.id_key(),
            WeightedChange::Remove { key, .. } => (*key).clone(),
            WeightedChange::Modify { key, .. } => (*key).clone(),
        }
    }

    /// The tuple contents carried by this change — the inserted tuple
    /// or a modification's post-commit contents; removals carry only a
    /// key.
    pub fn tuple(&self) -> Option<&Tuple> {
        match self {
            WeightedChange::Insert { tuple, .. } => Some(tuple),
            WeightedChange::Remove { .. } => None,
            WeightedChange::Modify { tuple, .. } => Some(tuple),
        }
    }
}

/// What one committed update (a single statement or a whole
/// transaction) did: sequence number, optimizer counters, and the
/// per-view reports with their deltas.
#[derive(Debug, Clone, Default)]
pub struct Commit {
    /// Monotonically increasing commit sequence number, 1-based per
    /// database. Subscriptions tag their events with it, so a consumer
    /// can check it saw every commit (gapless sequence).
    pub seq: u64,
    /// Statements in the committed batch (1 for `apply`).
    pub statements: usize,
    /// Atomic operations the statements expanded to before
    /// optimization.
    pub naive_ops: usize,
    /// Atomic operations actually propagated after reduction /
    /// aggregation (equal to `naive_ops` for `apply`, which skips the
    /// optimizer).
    pub optimized_ops: usize,
    /// Which reduction rules fired on the combined PUL.
    pub reduction: ReductionTrace,
    /// The database's view names, declaration order — one shared
    /// allocation for every commit it seals.
    names: Arc<[String]>,
    /// One report per view, indexed like [`ViewHandle`].
    per_view: Vec<UpdateReport>,
}

impl Commit {
    pub(crate) fn new(
        seq: u64,
        statements: usize,
        naive_ops: usize,
        optimized_ops: usize,
        reduction: ReductionTrace,
        names: Arc<[String]>,
        per_view: Vec<UpdateReport>,
    ) -> Self {
        debug_assert_eq!(names.len(), per_view.len());
        Commit { seq, statements, naive_ops, optimized_ops, reduction, names, per_view }
    }

    /// Number of views this commit reported on — every view of the
    /// database, in declaration order (empty transactions included:
    /// they report default, delta-free entries for every view).
    pub fn len(&self) -> usize {
        self.per_view.len()
    }

    /// True when the commit reported on no view (a database with no
    /// views). For "did this commit change anything", use
    /// [`Self::touched`] — `commit.touched().is_empty()`.
    pub fn is_empty(&self) -> bool {
        self.per_view.is_empty()
    }

    /// Per-view reports in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &UpdateReport)> {
        self.names.iter().map(String::as_str).zip(&self.per_view)
    }

    /// The report of one view. Handles are only meaningful on the
    /// database that issued this commit: a handle from a database with
    /// more views panics (out of range); a same-shape foreign handle
    /// cannot be detected and simply indexes by declaration order.
    pub fn report(&self, view: ViewHandle) -> &UpdateReport {
        &self.per_view[view.index()]
    }

    /// The delta of one view (same addressing rules as
    /// [`Self::report`]).
    pub fn delta(&self, view: ViewHandle) -> &ViewDelta {
        &self.report(view).delta
    }

    /// The report of a view looked up by name.
    pub fn report_by_name(&self, name: &str) -> Option<&UpdateReport> {
        self.iter().find(|(n, _)| *n == name).map(|(_, r)| r)
    }

    /// Names of the views whose delta is non-empty, in declaration
    /// order.
    pub fn touched(&self) -> Vec<&str> {
        self.iter().filter(|(_, r)| !r.delta.is_empty()).map(|(n, _)| n).collect()
    }

    /// Number of views the static analyzer let this commit skip
    /// entirely (their reports carry
    /// [`UpdateReport::statically_skipped`]): no footprint work, no Δ
    /// extraction, no delta harvest. 0 on databases built without
    /// `analyze(..)`.
    pub fn static_skips(&self) -> usize {
        self.per_view.iter().filter(|r| r.statically_skipped).count()
    }

    /// Number of views whose propagation took the dynamic relevance
    /// exit (their reports carry [`UpdateReport::irrelevant`]): the
    /// applied PUL held none of the view's labels and no stored text
    /// lay above it, so the engine returned before any per-view work.
    /// Needs no DTD and no analysis — what [`Self::static_skips`]
    /// proves ahead of the commit, this observes during it.
    pub fn dynamic_skips(&self) -> usize {
        self.per_view.iter().filter(|r| r.irrelevant).count()
    }

    /// The per-view pruning statistics summed over every view —
    /// `(insert side, delete side)`. Benches and tests use this to
    /// assert the Section 3/4 prunings actually fired on a workload
    /// without walking per-view reports.
    pub fn prune_totals(&self) -> (crate::propagate::PruneStats, crate::propagate::PruneStats) {
        let mut ins = crate::propagate::PruneStats::default();
        let mut del = crate::propagate::PruneStats::default();
        for r in &self.per_view {
            ins.absorb(&r.insert_prune);
            del.absorb(&r.delete_prune);
        }
        (ins, del)
    }

    /// True when two commits describe the same observable outcome:
    /// equal sequencing, statement and optimizer counters, reduction
    /// trace, and per-view reports (names in order, tuple /
    /// derivation counters, bit-identical deltas). Timings are
    /// ignored — they legitimately differ between runs. This is the
    /// commit-level comparison of the differential soak harness:
    /// sequential, pooled and pipelined executions of the same
    /// statement stream must produce pairwise `same_outcome` commits.
    pub fn same_outcome(&self, other: &Commit) -> bool {
        self.seq == other.seq
            && self.statements == other.statements
            && self.naive_ops == other.naive_ops
            && self.optimized_ops == other.optimized_ops
            && self.reduction == other.reduction
            && self.names == other.names
            && self.per_view.iter().zip(&other.per_view).all(|(r1, r2)| r1.same_outcome(r2))
    }

    pub(crate) fn per_view(&self) -> &[UpdateReport] {
        &self.per_view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_algebra::Field;
    use xivm_pattern::parse_pattern;
    use xivm_xml::dewey::Step;
    use xivm_xml::{DeweyId, LabelId};

    fn tup(ord: u64) -> Tuple {
        Tuple::new(vec![Field::id_only(DeweyId::from_steps(vec![Step::new(LabelId(0), ord)]))])
    }

    #[test]
    fn replay_applies_removals_insertions_and_modifications() {
        let pattern = parse_pattern("//a{id}").unwrap();
        let mut store = ViewStore::from_counted(&pattern, vec![(tup(1), 2), (tup(2), 1)]);

        let mut patched = tup(2);
        patched.field_mut(0).val = Some("new".into());
        let delta = ViewDelta {
            inserted: vec![(tup(1), 1), (tup(3), 1)],
            removed: vec![(tup(1).id_key(), 2)],
            modified: vec![(tup(2).id_key(), patched.clone())],
        };
        assert_eq!(delta.len(), 4);
        assert!(!delta.is_empty());
        delta.replay(&mut store);

        assert_eq!(store.get(&tup(1).id_key()), Some((&tup(1), 1)), "2 removed, then 1 re-added");
        assert_eq!(store.get(&tup(3).id_key()), Some((&tup(3), 1)));
        assert_eq!(store.get(&tup(2).id_key()), Some((&patched, 1)));
    }

    #[test]
    fn weights_follow_the_snippet_algebra_in_replay_order() {
        let mut patched = tup(2);
        patched.field_mut(0).val = Some("new".into());
        let delta = ViewDelta {
            inserted: vec![(tup(3), 1), (tup(1), 2)],
            removed: vec![(tup(4).id_key(), 3)],
            modified: vec![(tup(2).id_key(), patched.clone())],
        };

        let entries: Vec<(i64, WeightedChange<'_>)> = delta.weights().collect();
        assert_eq!(entries.len(), delta.len());
        assert_eq!(
            entries.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![-3, 1, 2, 0],
            "removals first, then insertions, then modifications"
        );
        for (w, change) in &entries {
            assert_eq!(*w, change.weight(), "pair weight matches the change's own");
        }

        assert_eq!(entries[0].1.key(), tup(4).id_key());
        assert_eq!(entries[0].1.tuple(), None, "removals carry only a key");
        assert_eq!(entries[1].1.tuple(), Some(&tup(3)));
        assert_eq!(entries[2].1.key(), tup(1).id_key());
        assert_eq!(entries[3].1.tuple(), Some(&patched));
        assert_eq!(entries[3].1.key(), tup(2).id_key());

        // The weights sum to the store's net derivation change.
        assert_eq!(entries.iter().map(|(w, _)| *w).sum::<i64>(), 0);
        assert!(ViewDelta::default().weights().next().is_none());
    }

    #[test]
    fn empty_delta_replays_to_identity() {
        let pattern = parse_pattern("//a{id}").unwrap();
        let mut store = ViewStore::from_counted(&pattern, vec![(tup(1), 1)]);
        let snapshot = store.clone();
        ViewDelta::default().replay(&mut store);
        assert!(store.identical_to(&snapshot));
    }
}
