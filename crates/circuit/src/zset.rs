//! Z-sets: weighted row collections, as deltas and as materialized
//! stores — both one run of rows strictly increasing in [`Row`]'s total
//! order.
//!
//! Everything a circuit moves or keeps is a Z-set — a mapping from
//! [`Row`]s to integer weights. A [`RowDelta`] is the *change* one
//! commit induces on one node (weights of either sign, consolidated:
//! one entry per row, no zero weights); a [`DerivedStore`] is the
//! node's current contents (weights strictly positive — the
//! derivation-count generalization of a set). A store is patched in
//! place by the routines the view store is patched by
//! ([`xivm_algebra::ordered`]), so a commit pays for the rows it
//! changes and those behind them, and a read sorts nothing. Applying a
//! node's output delta to its store per commit is the circuit
//! invariant: `store_after = store_before + Δ`, checked against full
//! recomputation by the property suite.

use crate::row::Row;
use xivm_algebra::ordered;

/// The change of one circuit node over one commit: a consolidated
/// Z-set (one entry per row, non-zero weights, in [`Row`]'s total
/// order, so equal deltas compare equal and iteration is
/// deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    entries: Vec<(Row, i64)>,
}

impl RowDelta {
    /// Consolidates raw `(row, weight)` pairs: they sort, the weights
    /// of equal rows sum, and rows whose weights cancel vanish.
    pub fn new(mut raw: Vec<(Row, i64)>) -> Self {
        raw.sort_by(|a, b| a.0.cmp(&b.0));
        raw.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        raw.retain(|e| e.1 != 0);
        RowDelta { entries: raw }
    }

    pub fn empty() -> Self {
        RowDelta::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct rows whose weight changes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[(Row, i64)] {
        &self.entries
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Row, i64)> {
        self.entries.iter().map(|(r, w)| (r, *w))
    }
}

/// The materialized contents of one circuit node: a positive Z-set,
/// kept as one run in [`Row`]'s total order.
///
/// Weights play the role view stores give derivation counts: "the
/// number of reasons the row is in the result". A row with weight 3
/// may be a base tuple with 3 derivations, or a projection image with
/// 3 pre-images — either way, one more reason is `+1`, not a
/// duplicate-eliminating no-op, which is what makes deletion
/// propagate without rescanning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerivedStore {
    rows: Vec<(Row, i64)>,
}

impl DerivedStore {
    pub fn new() -> Self {
        DerivedStore::default()
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The weight of a row, 0 when absent (a binary search).
    pub fn weight_of(&self, row: &Row) -> i64 {
        self.rows.binary_search_by(|(r, _)| r.cmp(row)).map_or(0, |at| self.rows[at].1)
    }

    pub fn contains(&self, row: &Row) -> bool {
        self.weight_of(row) != 0
    }

    /// The contents as they are kept: rows in [`Row`]'s total order,
    /// each with its weight.
    pub fn rows(&self) -> &[(Row, i64)] {
        &self.rows
    }

    /// Borrowing iterator over [`Self::rows`].
    pub fn iter(&self) -> impl Iterator<Item = (&Row, i64)> {
        self.rows.iter().map(|(r, w)| (r, *w))
    }

    /// Applies one commit's delta: the retractions through
    /// [`ordered::remove`], the insertions through [`ordered::absorb`].
    /// Panics if a row's weight would go negative — a sound circuit
    /// never retracts more derivations than it inserted, so a negative
    /// weight is an operator bug, not a data condition.
    pub fn apply(&mut self, delta: &RowDelta) {
        let lost: Vec<&(Row, i64)> = delta.entries.iter().filter(|e| e.1 < 0).collect();
        let mut taken = 0;
        let take = |row: &mut (Row, i64), lost: &&(Row, i64)| {
            taken += 1;
            row.1 += lost.1;
            assert!(row.1 >= 0, "derived store weight went negative for {}", row.0);
            row.1 == 0
        };
        ordered::remove(&mut self.rows, &lost, |row, lost| row.0.cmp(&lost.0), take);
        assert_eq!(
            taken,
            lost.len(),
            "derived store weight went negative: a retracted row is absent"
        );
        let gained = delta.entries.iter().filter(|e| e.1 > 0).cloned().collect();
        ordered::absorb(&mut self.rows, gained, |a, b| a.0.cmp(&b.0), |row, new| row.1 += new.1);
    }

    /// Bit-identical comparison: same rows, same weights. The test
    /// oracle for "incremental == recomputed".
    pub fn same_content_as(&self, other: &DerivedStore) -> bool {
        self == other
    }

    /// Detailed difference description for test failures.
    pub fn diff_description(&self, other: &DerivedStore) -> String {
        let mut out = String::new();
        for (r, w) in self.iter() {
            match other.weight_of(r) {
                0 => out.push_str(&format!("only in left (weight {w}): {r}\n")),
                ow if ow != w => out.push_str(&format!("weight mismatch {w} vs {ow}: {r}\n")),
                _ => {}
            }
        }
        for (r, w) in other.iter().filter(|(r, _)| !self.contains(r)) {
            out.push_str(&format!("only in right (weight {w}): {r}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Datum;

    fn row(i: i64) -> Row {
        Row::new(vec![Datum::Int(i)])
    }

    #[test]
    fn delta_consolidates_sums_drops_zeros_and_sorts() {
        let d =
            RowDelta::new(vec![(row(2), 1), (row(1), 3), (row(2), -1), (row(3), 2), (row(3), 1)]);
        assert_eq!(d.entries(), &[(row(1), 3), (row(3), 3)]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert!(RowDelta::empty().is_empty());
        assert_eq!(d.iter().map(|(_, w)| w).sum::<i64>(), 6);
    }

    #[test]
    fn store_applies_deltas_and_drops_zero_rows() {
        let mut s = DerivedStore::new();
        s.apply(&RowDelta::new(vec![(row(1), 2), (row(2), 1)]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.weight_of(&row(1)), 2);
        s.apply(&RowDelta::new(vec![(row(1), -2)]));
        assert!(!s.contains(&row(1)));
        assert_eq!(s.weight_of(&row(1)), 0);
        assert_eq!(s.rows(), &[(row(2), 1)]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn store_rejects_negative_weights() {
        let mut s = DerivedStore::new();
        s.apply(&RowDelta::new(vec![(row(1), 1)]));
        s.apply(&RowDelta::new(vec![(row(1), -2)]));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn store_rejects_retracting_an_absent_row() {
        let mut s = DerivedStore::new();
        s.apply(&RowDelta::new(vec![(row(2), 1)]));
        s.apply(&RowDelta::new(vec![(row(1), -1)]));
    }

    /// The store stays one strictly ordered run under mixed patches, and
    /// equals the same contents consolidated in one go.
    #[test]
    fn patches_keep_the_rows_in_order_and_agree_with_a_rebuild() {
        let mut s = DerivedStore::new();
        let mut all = Vec::new();
        for round in 0..30i64 {
            let gained: Vec<(Row, i64)> =
                (0..5).map(|k| (row((round * 7 + k * 11) % 50), 1)).collect();
            let gained = RowDelta::new(gained);
            s.apply(&gained);
            all.extend(gained.entries().iter().cloned());
            let lost: Vec<(Row, i64)> = s
                .rows()
                .iter()
                .skip(round as usize % 3)
                .step_by(4)
                .map(|(r, _)| (r.clone(), -1))
                .collect();
            s.apply(&RowDelta::new(lost.clone()));
            all.extend(lost);
            assert!(s.rows().windows(2).all(|w| w[0].0 < w[1].0), "round {round}");
            assert!(s.rows().iter().all(|(_, w)| *w > 0), "round {round}");
            let mut rebuilt = DerivedStore::new();
            rebuilt.apply(&RowDelta::new(all.clone()));
            assert!(
                s.same_content_as(&rebuilt),
                "round {round}:\n{}",
                s.diff_description(&rebuilt)
            );
        }
    }

    #[test]
    fn content_comparison_and_round_trip() {
        let mut a = DerivedStore::new();
        let mut b = DerivedStore::new();
        a.apply(&RowDelta::new(vec![(row(1), 2), (row(2), 1)]));
        b.apply(&RowDelta::new(a.rows().to_vec()));
        assert!(a.same_content_as(&b));
        b.apply(&RowDelta::new(vec![(row(2), 4), (row(3), 4)]));
        assert!(!a.same_content_as(&b));
        assert!(a.diff_description(&b).contains("weight mismatch"));
        assert!(a.diff_description(&b).contains("only in right"));
        assert!(b.diff_description(&a).contains("only in left"));
    }
}
