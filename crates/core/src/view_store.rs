//! The materialized view store: projected tuples with derivation
//! counts (Section 2.2), kept in the order the view is read in.
//!
//! **Invariant**: the rows are strictly increasing in
//! [`Tuple::doc_cmp`] — one row per key, in document order over the
//! stored columns left to right — and every derivation count is ≥ 1.
//! `e_v` ends with a sort, so the store *is* the view's value: a read
//! ([`ViewStore::cursor`]) borrows the rows, and the two writers keep
//! the order: [`ViewStore::patch`] through the search-and-shift
//! routines of [`xivm_algebra::ordered`], and `take`, which moves out a
//! deletion's bound losses by range. A commit pays for the rows it
//! changes and those behind them, not for a sort of all of them.
//!
//! Left to right here, mirrored in the snowcaps
//! ([`crate::snowcap::MaterializedSnowcap`]): a view is an *output* —
//! readers, deltas and the wire all want `e_v`'s order; a snowcap is a
//! join *input*, and the joins want the last column first.

use std::cmp::Ordering;
use xivm_algebra::{ordered, Schema, Tuple};
use xivm_pattern::{compile::view_schema, TreePattern};

/// A materialized view: tuples over the stored (annotated) columns,
/// each carrying its derivation count — "the number of reasons why the
/// tuple belongs to the view".
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    schema: Schema,
    rows: Vec<(Tuple, u64)>,
}

/// The store's invariant: strictly increasing keys, and no row without
/// a derivation.
fn well_formed(rows: &[(Tuple, u64)]) -> bool {
    rows.is_sorted_by(|a, b| a.0.doc_cmp(&b.0).is_lt()) && rows.iter().all(|row| row.1 > 0)
}

/// The order of a signed run ([`crate::commit::ViewDelta`]): document
/// order, a key's negative entry before its non-negative one. A run is
/// strictly increasing in it — at most one entry per key and side.
pub(crate) fn run_cmp(a: &(Tuple, i64), b: &(Tuple, i64)) -> Ordering {
    a.0.doc_cmp(&b.0).then((a.1 >= 0).cmp(&(b.1 >= 0)))
}

impl ViewStore {
    /// An empty store with the view's projected schema.
    pub fn new(pattern: &TreePattern) -> Self {
        ViewStore::from_rows(view_schema(pattern), Vec::new())
    }

    /// A store over an explicit schema and rows that already satisfy the
    /// invariant (snapshot decoding checks them as it reads).
    pub(crate) fn from_rows(schema: Schema, rows: Vec<(Tuple, u64)>) -> Self {
        debug_assert!(well_formed(&rows));
        ViewStore { schema, rows }
    }

    /// Builds a store from already-counted tuples, one per key (initial
    /// materialization or full recomputation). `e_v`'s output is in
    /// order already — the sort is then the one pass that finds it so.
    pub fn from_counted(pattern: &TreePattern, mut counted: Vec<(Tuple, u64)>) -> Self {
        counted.sort_by(|a, b| a.0.doc_cmp(&b.0));
        ViewStore::from_rows(view_schema(pattern), counted)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of derivation counts (number of underlying embeddings).
    pub fn total_derivations(&self) -> u64 {
        self.rows.iter().map(|(_, c)| c).sum()
    }

    /// The stored tuple that binds the same nodes as `tuple`, and its
    /// derivation count, found by binary search.
    pub fn get(&self, tuple: &Tuple) -> Option<(&Tuple, u64)> {
        let at = self.rows.binary_search_by(|(t, _)| t.doc_cmp(tuple)).ok()?;
        Some((&self.rows[at].0, self.rows[at].1))
    }

    /// The writer of signed runs: applies one (the shape and order of
    /// [`crate::commit::ViewDelta::rows`]). A negative entry takes
    /// derivations from its tuple, which leaves when none remain
    /// (Algorithm 5's final loop; a key that is no tuple is ignored). A
    /// non-negative one adds its weight and overwrites the stored
    /// `val` / `cont` with the contents it carries — a new tuple enters
    /// at its place (ET-INS's final step), and weight 0 is a text change
    /// alone (PIMT / PDMT), which must name a stored tuple. Returns how
    /// many tuples entered and how many left.
    pub fn patch(&mut self, run: &[(Tuple, i64)]) -> (usize, usize) {
        debug_assert!(run.is_sorted_by(|a, b| run_cmp(a, b).is_lt()), "not a canonical run");
        let lost: Vec<&(Tuple, i64)> = run.iter().filter(|e| e.1 < 0).collect();
        let take = |row: &mut (Tuple, u64), lost: &&(Tuple, i64)| {
            row.1 = row.1.saturating_sub(lost.1.unsigned_abs());
            row.1 == 0
        };
        let left = ordered::remove(&mut self.rows, &lost, |row, lost| row.0.doc_cmp(&lost.0), take);
        let rest = run.iter().filter(|e| e.1 >= 0).map(|(t, w)| (t.clone(), *w as u64)).collect();
        let by_doc_order = |a: &(Tuple, u64), b: &(Tuple, u64)| a.0.doc_cmp(&b.0);
        let add = |row: &mut (Tuple, u64), new: (Tuple, u64)| *row = (new.0, row.1 + new.1);
        let entered = ordered::absorb(&mut self.rows, rest, by_doc_order, add);
        debug_assert!(well_formed(&self.rows), "a weight-0 entry names a stored tuple");
        (entered, left)
    }

    /// The rows in order, for the searches by ID ([`crate::by_id`]).
    pub(crate) fn rows(&self) -> &[(Tuple, u64)] {
        &self.rows
    }

    /// The rows in order, for in-place `val` / `cont` patching (PIMT /
    /// PDMT). IDs and counts must stay as they are: they are the order
    /// and the view.
    pub(crate) fn rows_mut(&mut self) -> &mut [(Tuple, u64)] {
        &mut self.rows
    }

    /// Moves the rows at `ranges` (ascending, disjoint) out of the store
    /// — a deletion's bound losses, found by [`crate::by_id::find`].
    pub(crate) fn take(&mut self, ranges: &[std::ops::Range<usize>]) -> Vec<(Tuple, u64)> {
        crate::by_id::take(&mut self.rows, ranges)
    }

    /// The rows, given up — for a commit that replaced the store and
    /// moves the old tuples into its Δ.
    pub(crate) fn into_rows(self) -> Vec<(Tuple, u64)> {
        self.rows
    }

    /// The view's value: a borrowing cursor over the tuples and their
    /// derivation counts in document order — `e_v`'s output, read off
    /// the rows as they are kept.
    pub fn cursor(&self) -> Cursor<'_> {
        self.rows.iter().map(|(t, c)| (t, *c))
    }

    /// Compares content (keys and counts, position by position) with
    /// another store — the test oracle for "incremental == recomputed".
    pub fn same_content_as(&self, other: &ViewStore) -> bool {
        let same = |(a, b): (&(Tuple, u64), &(Tuple, u64))| a.1 == b.1 && a.0.doc_cmp(&b.0).is_eq();
        self.len() == other.len() && self.rows.iter().zip(&other.rows).all(same)
    }

    /// Strict equality: keys, derivation counts *and* every stored
    /// `val` / `cont` field must match, position by position. The oracle
    /// for "snapshot plus replayed deltas reproduces the post-commit
    /// store exactly".
    pub fn identical_to(&self, other: &ViewStore) -> bool {
        self.rows == other.rows
    }

    /// Detailed difference description for test failures: the tuples
    /// of each side that the other lacks or counts differently.
    pub fn diff_description(&self, other: &ViewStore) -> String {
        let unmatched = |side: &str, a: &ViewStore, b: &ViewStore| -> String {
            a.cursor()
                .filter(|(t, c)| b.get(t).map(|(_, bc)| bc) != Some(*c))
                .map(|(t, c)| format!("{side} only (count {c}): {:?}\n", t.id_key()))
                .collect()
        };
        unmatched("left", self, other) + &unmatched("right", other, self)
    }
}

/// Borrowing document-order iterator over a [`ViewStore`] — see
/// [`ViewStore::cursor`].
pub type Cursor<'a> =
    std::iter::Map<std::slice::Iter<'a, (Tuple, u64)>, fn(&'a (Tuple, u64)) -> (&'a Tuple, u64)>;

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_algebra::Field;
    use xivm_pattern::parse_pattern;
    use xivm_xml::{dewey::Step, DeweyId, LabelId};

    fn tup(ord: u64) -> Tuple {
        Tuple::new(vec![Field::id_only(DeweyId::from_steps(vec![Step::new(LabelId(0), ord)]))])
    }

    fn with_val(ord: u64, val: &str) -> Tuple {
        let mut t = tup(ord);
        t.field_mut(0).val = Some(val.into());
        t
    }

    fn store(rows: &[(u64, u64)]) -> ViewStore {
        let pattern = parse_pattern("//a{id}").unwrap();
        ViewStore::from_counted(&pattern, rows.iter().map(|&(o, c)| (tup(o), c)).collect())
    }

    fn rows(s: &ViewStore) -> Vec<(u64, u64)> {
        s.cursor().map(|(t, c)| (t.field(0).id.steps()[0].ord, c)).collect()
    }

    #[test]
    fn positive_weights_add_counts_and_report_the_tuples_that_entered() {
        let mut s = store(&[]);
        assert_eq!(s.patch(&[(tup(1), 2), (tup(2), 1)]), (2, 0));
        assert_eq!(s.patch(&[(tup(1), 3), (tup(5), 1)]), (1, 0));
        assert_eq!(rows(&s), vec![(1, 5), (2, 1), (5, 1)]);
        assert_eq!(s.get(&tup(1)).unwrap().1, 5);
        assert_eq!(s.total_derivations(), 7);
    }

    #[test]
    fn get_returns_tuple_and_count_together() {
        let s = store(&[(1, 2), (3, 1)]);
        let (t, c) = s.get(&with_val(1, "only the IDs are the key")).unwrap();
        assert_eq!((t, c), (&tup(1), 2));
        assert!(s.get(&tup(2)).is_none());
    }

    #[test]
    fn negative_weights_take_counts_and_a_tuple_leaves_at_zero() {
        let mut s = store(&[(1, 2), (2, 1)]);
        assert_eq!(s.patch(&[(tup(1), -1)]), (0, 0), "part of a count: the tuple stays");
        assert_eq!(s.get(&tup(1)).unwrap().1, 1);
        // a key that is no tuple is ignored; more than the count is all of it
        assert_eq!(s.patch(&[(tup(1), -1), (tup(2), -3), (tup(9), -4)]), (0, 2));
        assert!(s.is_empty());
    }

    /// One run, both signs: a key's loss lands before its gain, so a
    /// tuple can leave and come back with other text in one patch.
    #[test]
    fn a_run_of_both_signs_is_applied_losses_first() {
        let mut s = store(&[(1, 2), (3, 1), (5, 1)]);
        let run = [(tup(1), -2), (with_val(1, "back"), 1), (tup(2), 1), (tup(3), -1), (tup(5), 4)];
        assert_eq!(s.patch(&run), (2, 2), "1 left and re-entered, 2 entered, 3 left");
        assert_eq!(rows(&s), vec![(1, 1), (2, 1), (5, 5)]);
        assert_eq!(s.get(&tup(1)), Some((&with_val(1, "back"), 1)));
        assert_eq!(s.cursor().len(), 3);
    }

    #[test]
    fn weight_zero_overwrites_the_text_and_nothing_else() {
        let mut s = store(&[(1, 3), (2, 1)]);
        assert_eq!(s.patch(&[(with_val(1, "patched"), 0)]), (0, 0));
        assert_eq!(s.get(&tup(1)), Some((&with_val(1, "patched"), 3)));
        assert_eq!(rows(&s), vec![(1, 3), (2, 1)]);
        // a gain carries the post-commit text too
        assert_eq!(s.patch(&[(with_val(1, "again"), 1)]), (0, 0));
        assert_eq!(s.get(&tup(1)), Some((&with_val(1, "again"), 4)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "names a stored tuple")]
    fn weight_zero_for_an_absent_key_is_a_bug() {
        store(&[(1, 1)]).patch(&[(tup(9), 0)]);
    }

    #[test]
    fn from_counted_sorts_its_rows() {
        assert_eq!(rows(&store(&[(5, 1), (1, 2), (3, 1)])), vec![(1, 2), (3, 1), (5, 1)]);
    }

    #[test]
    fn identical_to_sees_field_differences_content_comparison_ignores() {
        let a = store(&[(1, 1)]);
        let mut b = store(&[(1, 1)]);
        assert!(a.identical_to(&b));
        for (t, _) in b.rows_mut() {
            t.field_mut(0).val = Some("changed".into());
        }
        assert!(a.same_content_as(&b), "keys and counts still agree");
        assert!(!a.identical_to(&b), "but the stored fields differ");
    }

    #[test]
    fn content_comparison() {
        let a = store(&[(1, 2)]);
        let mut b = store(&[(1, 2)]);
        assert!(a.same_content_as(&b));
        b.patch(&[(tup(2), 1)]);
        assert!(!a.same_content_as(&b));
        assert!(b.diff_description(&a).contains("left only"));
        assert!(!a.same_content_as(&store(&[(1, 3)])));
    }
}
