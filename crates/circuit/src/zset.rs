//! Z-sets: weighted row collections, as deltas and as materialized
//! stores.
//!
//! Everything a circuit moves or keeps is a Z-set — a mapping from
//! [`Row`]s to integer weights. A [`RowDelta`] is the *change* one
//! commit induces on one node (weights of either sign, consolidated:
//! unique rows, no zero weights, sorted); a [`DerivedStore`] is the
//! node's current contents (weights strictly positive — the
//! derivation-count generalization of a set). Applying a node's
//! output delta to its store per commit is the circuit invariant:
//! `store_after = store_before + Δ`, checked against full
//! recomputation by the property suite.

use crate::row::Row;
use std::collections::HashMap;

/// The change of one circuit node over one commit: a consolidated
/// Z-set (unique rows, non-zero weights, sorted by [`Row`]'s total
/// order, so equal deltas compare equal and iteration is
/// deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    entries: Vec<(Row, i64)>,
}

impl RowDelta {
    /// Consolidates raw `(row, weight)` pairs: weights of equal rows
    /// are summed, rows with weight zero vanish, the rest sort.
    pub fn new(raw: Vec<(Row, i64)>) -> Self {
        let mut acc: HashMap<Row, i64> = HashMap::with_capacity(raw.len());
        for (row, weight) in raw {
            *acc.entry(row).or_insert(0) += weight;
        }
        let mut entries: Vec<(Row, i64)> = acc.into_iter().filter(|(_, w)| *w != 0).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        RowDelta { entries }
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

/// The materialized contents of one circuit node: a positive Z-set.
///
/// Weights play the role view stores give derivation counts: "the
/// number of reasons the row is in the result". A row with weight 3
/// may be a base tuple with 3 derivations, or a projection image with
/// 3 pre-images — either way, one more reason is `+1`, not a
/// duplicate-eliminating no-op, which is what makes deletion
/// propagate without rescanning.
#[derive(Debug, Clone, Default)]
pub struct DerivedStore {
    rows: HashMap<Row, i64>,
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

    /// The weight of a row, 0 when absent.
    pub fn weight_of(&self, row: &Row) -> i64 {
        self.rows.get(row).copied().unwrap_or(0)
    }

    pub fn contains(&self, row: &Row) -> bool {
        self.rows.contains_key(row)
    }

    /// Borrowing iterator, arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, i64)> {
        self.rows.iter().map(|(r, w)| (r, *w))
    }

    /// The contents sorted by [`Row`]'s total order — the canonical
    /// external representation.
    pub fn sorted_rows(&self) -> Vec<(Row, i64)> {
        let mut rows: Vec<(Row, i64)> = self.rows.iter().map(|(r, w)| (r.clone(), *w)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Applies one commit's delta. Panics if any row's weight would go
    /// negative — a sound circuit never retracts more derivations than
    /// it inserted, so a negative weight is an operator bug, not a
    /// data condition.
    pub fn apply(&mut self, delta: &RowDelta) {
        for (row, weight) in delta.iter() {
            let w = self.rows.entry(row.clone()).or_insert(0);
            *w += weight;
            assert!(*w >= 0, "derived store weight went negative for {row}");
            if *w == 0 {
                self.rows.remove(row);
            }
        }
    }

    /// Bit-identical comparison: same rows, same weights. The test
    /// oracle for "incremental == recomputed".
    pub fn same_content_as(&self, other: &DerivedStore) -> bool {
        self.rows.len() == other.rows.len()
            && self.rows.iter().all(|(r, w)| other.rows.get(r) == Some(w))
    }

    /// Detailed difference description for test failures.
    pub fn diff_description(&self, other: &DerivedStore) -> String {
        let mut out = String::new();
        for (r, w) in &self.rows {
            match other.rows.get(r) {
                None => out.push_str(&format!("only in left (weight {w}): {r}\n")),
                Some(ow) if ow != w => out.push_str(&format!("weight mismatch {w} vs {ow}: {r}\n")),
                _ => {}
            }
        }
        for (r, w) in &other.rows {
            if !self.rows.contains_key(r) {
                out.push_str(&format!("only in right (weight {w}): {r}\n"));
            }
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
        assert_eq!(s.sorted_rows(), vec![(row(2), 1)]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn store_rejects_negative_weights() {
        let mut s = DerivedStore::new();
        s.apply(&RowDelta::new(vec![(row(1), -1)]));
    }

    #[test]
    fn content_comparison_and_round_trip() {
        let mut a = DerivedStore::new();
        let mut b = DerivedStore::new();
        a.apply(&RowDelta::new(vec![(row(1), 2), (row(2), 1)]));
        b.apply(&RowDelta::new(a.sorted_rows()));
        assert!(a.same_content_as(&b));
        b.apply(&RowDelta::new(vec![(row(2), 4), (row(3), 4)]));
        assert!(!a.same_content_as(&b));
        assert!(a.diff_description(&b).contains("weight mismatch"));
        assert!(a.diff_description(&b).contains("only in right"));
        assert!(b.diff_description(&a).contains("only in left"));
    }
}
