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
//! transactions. Consumers therefore never need to re-read and diff
//! whole stores; they read O(|Δ|) per commit.
//!
//! **The run's invariant.** A delta is one run of `(tuple, weight)`,
//! strictly increasing in [`Tuple::doc_cmp`] with a key's negative
//! entry before its non-negative one — so at most one of each per key.
//! Weight `< 0`: that many derivations lost, the tuple carrying IDs
//! only (`val` / `cont` are `None`). Weight `> 0`: derivations gained.
//! Weight `0`: the stored text of a surviving tuple changed. Every
//! non-negative entry carries the tuple's post-commit contents, and a
//! weight-0 entry names a tuple of the post-commit store.
//!
//! [`Database::apply`]: crate::database::DbInner::apply
//! [`Transaction::commit`]: crate::database::Transaction::commit

use crate::database::ViewHandle;
use crate::engine::UpdateReport;
use crate::view_store::{run_cmp, ViewStore};
use std::sync::Arc;
use xivm_algebra::Tuple;
use xivm_pulopt::ReductionTrace;
use xivm_xml::Work;

/// The net effect of one commit on one materialized view: one signed
/// run (the module's invariant), the Z-set shape — PINT's gains
/// positive, PDDT's losses negative, PIMT / PDMT's text changes at
/// weight 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewDelta {
    /// Private so that only [`Self::new`] and the checking frame
    /// decoder make one: a published delta is a canonical run.
    pub(crate) rows: Vec<(Tuple, i64)>,
}

impl ViewDelta {
    /// The one consolidation: signed changes in any order — a commit
    /// patches its store in several passes (deletions, insertions, text
    /// refresh) — become the canonical run, so
    /// equivalent updates (synchronous vs async, textual vs typed)
    /// publish bit-identical deltas. A key's entries of one side sum
    /// their weights and keep the contents of the last (the sort is
    /// stable: the latest pass read the latest text); negative entries
    /// drop their text.
    pub fn new(mut changes: Vec<(Tuple, i64)>) -> Self {
        changes.sort_by(run_cmp);
        changes.dedup_by(|later, kept| {
            let same = run_cmp(kept, later).is_eq();
            if same {
                *kept = (std::mem::take(&mut later.0), kept.1 + later.1);
            }
            same
        });
        for (tuple, _) in changes.iter_mut().filter(|e| e.1 < 0) {
            for col in 0..tuple.arity() {
                let field = tuple.field_mut(col);
                (field.val, field.cont) = (None, None);
            }
        }
        ViewDelta { rows: changes }
    }

    /// The run: `(tuple, weight)` in document order (the module's
    /// invariant).
    pub fn rows(&self) -> &[(Tuple, i64)] {
        &self.rows
    }

    /// True when the commit did not touch this view at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of delta entries — the O(|Δ|) a consumer processes
    /// instead of re-reading the store.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Applies the delta to a store, through the writer propagation
    /// itself patches it with ([`ViewStore::patch`]). Replaying onto a
    /// snapshot of the pre-commit store yields the post-commit store
    /// exactly.
    pub fn replay(&self, store: &mut ViewStore) {
        store.patch(&self.rows);
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
    pub(crate) names: Arc<[String]>,
    /// One report per view, indexed like [`ViewHandle`].
    pub(crate) per_view: Vec<UpdateReport>,
    /// The commit's own work: its planning's probes, its apply and the
    /// document images it took ([`Self::work`] adds the views').
    pub(crate) work: Work,
}

impl Commit {
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

    /// Always 0: no commit consults the static analyzer, so no view is
    /// skipped ahead of the commit — [`Work::dynamic_skips`] counts the
    /// views that were skipped. Kept only because `benchmark/` calls
    /// it; the ROADMAP's `[benchmark]` item removes it.
    pub fn static_skips(&self) -> usize {
        0
    }

    /// What the commit did, as counts: its apply and the document
    /// images it took, every view's [`UpdateReport::work`], and the
    /// views whose propagation took the dynamic relevance exit (their
    /// reports carry [`UpdateReport::irrelevant`]: the applied PUL held
    /// none of the view's labels and no stored text lay above it, so
    /// the engine returned before any per-view work — which needs no
    /// DTD and holds on every document).
    pub fn work(&self) -> Work {
        let mut work = self.work;
        for report in &self.per_view {
            work += report.work;
            work.dynamic_skips += u64::from(report.irrelevant);
        }
        work
    }

    /// True when two commits describe the same observable outcome:
    /// equal sequencing, statement and optimizer counters, reduction
    /// trace, and per-view reports (names in order, tuple /
    /// derivation counters, bit-identical deltas). Timings and
    /// [`Self::work`] are ignored — they legitimately differ between
    /// runs (a service window's first commit counts its recovery image).
    /// This is the commit-level comparison of the differential soak
    /// harness: sequential and async executions of the same statement
    /// stream must produce pairwise `same_outcome` commits.
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

    fn with_val(ord: u64, val: &str) -> Tuple {
        let mut t = tup(ord);
        t.field_mut(0).val = Some(val.into());
        t
    }

    #[test]
    fn replay_applies_losses_gains_and_text_changes() {
        let pattern = parse_pattern("//a{id}").unwrap();
        let mut store = ViewStore::from_counted(&pattern, vec![(tup(1), 2), (tup(2), 1)]);

        let delta = ViewDelta::new(vec![
            (tup(3), 1),
            (tup(1), 1),
            (with_val(2, "new"), 0),
            (with_val(1, "gone"), -2),
        ]);
        assert_eq!(delta.len(), 4);
        assert!(!delta.is_empty());
        assert_eq!(
            delta.rows,
            vec![(tup(1), -2), (tup(1), 1), (with_val(2, "new"), 0), (tup(3), 1)],
            "document order, a key's loss first and without its text"
        );
        delta.replay(&mut store);

        assert_eq!(store.get(&tup(1)), Some((&tup(1), 1)), "2 lost, then 1 gained");
        assert_eq!(store.get(&tup(3)), Some((&tup(3), 1)));
        assert_eq!(store.get(&tup(2)), Some((&with_val(2, "new"), 1)));
    }

    /// The consolidation: per key and side the weights sum, and the
    /// last contents a commit's passes produced are the ones published.
    #[test]
    fn new_sums_a_keys_entries_per_side_and_keeps_the_latest_contents() {
        let delta = ViewDelta::new(vec![
            (tup(1), -1),
            (with_val(2, "first"), 2),
            (tup(1), -2),
            (with_val(2, "refreshed"), 0),
            (with_val(1, "back"), 3),
        ]);
        assert_eq!(
            delta.rows,
            vec![(tup(1), -3), (with_val(1, "back"), 3), (with_val(2, "refreshed"), 2)]
        );
        assert_eq!(delta.rows.iter().map(|(_, w)| w).sum::<i64>(), 2, "the net derivation change");
        assert_eq!(ViewDelta::new(Vec::new()), ViewDelta::default());
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
