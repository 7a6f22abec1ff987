//! The materialized view store: projected tuples with derivation
//! counts (Section 2.2), kept in the order the view is read in.
//!
//! **Invariant**: the rows are strictly increasing in
//! [`Tuple::doc_cmp`] — one row per key, in document order over the
//! stored columns left to right — and every derivation count is ≥ 1
//! (no writer leaves a zero behind; a run to absorb must carry none).
//! `e_v` ends with a sort, so the store *is* the view's value: a read
//! ([`ViewStore::cursor`]) borrows the rows, and the two writers
//! ([`ViewStore::absorb`], [`ViewStore::remove`]) keep the order through
//! the search-and-shift routines of [`xivm_algebra::ordered`], so a
//! commit pays for the rows it changes and those behind them, not for a
//! sort of all of them.
//!
//! Left to right here, mirrored in the snowcaps
//! ([`crate::snowcap::MaterializedSnowcap`]): a view is an *output* —
//! readers, deltas and the wire all want `e_v`'s order; a snowcap is a
//! join *input*, and the joins want the last column first.

use xivm_algebra::{ordered, Schema, Tuple};
use xivm_pattern::{compile::view_schema, TreePattern};
use xivm_xml::DeweyId;

/// Key of a view tuple: the structural IDs of its stored nodes.
pub type TupleKey = Vec<DeweyId>;

/// A materialized view: tuples over the stored (annotated) columns,
/// each carrying its derivation count — "the number of reasons why the
/// tuple belongs to the view".
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    schema: Schema,
    rows: Vec<(Tuple, u64)>,
}

/// One run for a writer, and the store's own invariant: strictly
/// increasing keys.
fn strictly_ordered(rows: &[(Tuple, u64)]) -> bool {
    rows.is_sorted_by(|a, b| a.0.doc_cmp(&b.0).is_lt())
}

impl ViewStore {
    /// An empty store with the view's projected schema.
    pub fn new(pattern: &TreePattern) -> Self {
        ViewStore::from_schema(view_schema(pattern))
    }

    /// An empty store over an explicit schema (snapshot decoding).
    pub fn from_schema(schema: Schema) -> Self {
        ViewStore { schema, rows: Vec::new() }
    }

    /// Builds a store from already-counted tuples (initial
    /// materialization or full recomputation). `e_v`'s output is in
    /// order already — the sort is then the one pass that finds it so.
    pub fn from_counted(pattern: &TreePattern, mut counted: Vec<(Tuple, u64)>) -> Self {
        let mut s = ViewStore::new(pattern);
        counted.sort_by(|a, b| a.0.doc_cmp(&b.0));
        s.absorb(counted);
        s
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

    /// The stored tuple and its derivation count behind a key, found by
    /// binary search.
    pub fn get(&self, key: &[DeweyId]) -> Option<(&Tuple, u64)> {
        let at = self.rows.binary_search_by(|(t, _)| t.key_cmp(key)).ok()?;
        Some((&self.rows[at].0, self.rows[at].1))
    }

    /// Adds derivations (ET-INS's final step): the count of a tuple
    /// already stored grows, a new tuple enters with its count, at its
    /// place. `run` is one strictly ordered run — `e_v`'s output, a
    /// delta's `inserted` section — and is merged in as one; any other
    /// (no engine publishes one) entry by entry. Returns how many
    /// tuples entered.
    pub fn absorb(&mut self, run: Vec<(Tuple, u64)>) -> usize {
        if !strictly_ordered(&run) {
            return run.into_iter().map(|entry| self.absorb(vec![entry])).sum();
        }
        let by_doc_order = |a: &(Tuple, u64), b: &(Tuple, u64)| a.0.doc_cmp(&b.0);
        let entered = ordered::absorb(&mut self.rows, run, by_doc_order, |row, new| row.1 += new.1);
        debug_assert!(strictly_ordered(&self.rows));
        entered
    }

    /// Removes derivations (Algorithm 5's final loop): a tuple leaves
    /// when its count reaches zero; a key that is no tuple is ignored.
    /// `run` is one strictly ordered run — a delta's `removed` section —
    /// and is taken out as one; any other entry by entry. Returns how
    /// many tuples left.
    pub fn remove(&mut self, run: &[(TupleKey, u64)]) -> usize {
        if !run.is_sorted_by(|a, b| a.0 < b.0) {
            return run.iter().map(|entry| self.remove(std::slice::from_ref(entry))).sum();
        }
        let take = |row: &mut (Tuple, u64), lost: &(TupleKey, u64)| {
            row.1 = row.1.saturating_sub(lost.1);
            row.1 == 0
        };
        let left = ordered::remove(&mut self.rows, run, |row, lost| row.0.key_cmp(&lost.0), take);
        debug_assert!(strictly_ordered(&self.rows));
        left
    }

    /// Overwrites the stored tuple that binds the same nodes as `tuple`
    /// (PIMT / PDMT replayed: same IDs, new `val` / `cont`). False when
    /// there is none.
    pub fn replace(&mut self, tuple: &Tuple) -> bool {
        let found = self.rows.binary_search_by(|(t, _)| t.doc_cmp(tuple));
        found.map(|at| self.rows[at].0 = tuple.clone()).is_ok()
    }

    /// The stored tuples in order, for in-place `val` / `cont` patching
    /// (PIMT / PDMT). IDs must stay as they are: they are the order.
    pub(crate) fn tuples_mut(&mut self) -> impl Iterator<Item = &mut Tuple> {
        self.rows.iter_mut().map(|(t, _)| t)
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
                .filter(|(t, c)| b.get(&t.id_key()).map(|(_, bc)| bc) != Some(*c))
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
    use xivm_xml::{dewey::Step, LabelId};

    fn tup(ord: u64) -> Tuple {
        Tuple::new(vec![Field::id_only(DeweyId::from_steps(vec![Step::new(LabelId(0), ord)]))])
    }

    fn store(rows: &[(u64, u64)]) -> ViewStore {
        let pattern = parse_pattern("//a{id}").unwrap();
        ViewStore::from_counted(&pattern, rows.iter().map(|&(o, c)| (tup(o), c)).collect())
    }

    fn rows(s: &ViewStore) -> Vec<(u64, u64)> {
        s.cursor().map(|(t, c)| (t.field(0).id.steps()[0].ord, c)).collect()
    }

    #[test]
    fn absorb_accumulates_counts_and_reports_the_tuples_that_entered() {
        let mut s = store(&[]);
        assert_eq!(s.absorb(vec![(tup(1), 2), (tup(2), 1)]), 2);
        assert_eq!(s.absorb(vec![(tup(1), 3), (tup(5), 1)]), 1);
        assert_eq!(rows(&s), vec![(1, 5), (2, 1), (5, 1)]);
        assert_eq!(s.get(&tup(1).id_key()).unwrap().1, 5);
        assert_eq!(s.total_derivations(), 7);
    }

    #[test]
    fn get_returns_tuple_and_count_together() {
        let s = store(&[(1, 2), (3, 1)]);
        let (t, c) = s.get(&tup(1).id_key()).unwrap();
        assert_eq!((t, c), (&tup(1), 2));
        assert!(s.get(&tup(2).id_key()).is_none());
        assert!(s.get(&[]).is_none(), "a key of another arity is no tuple");
    }

    #[test]
    fn remove_drops_a_tuple_when_its_count_reaches_zero() {
        let mut s = store(&[(1, 2), (2, 1)]);
        assert_eq!(s.remove(&[(tup(1).id_key(), 1)]), 0);
        assert_eq!(s.get(&tup(1).id_key()).unwrap().1, 1);
        // a missing key is a no-op; the same key twice in one run sums
        let run = [(tup(1).id_key(), 1), (tup(2).id_key(), 1), (tup(9).id_key(), 4)];
        assert_eq!(s.remove(&run), 2);
        assert!(s.is_empty());
        let mut s = store(&[(1, 3), (2, 1)]);
        assert_eq!(s.remove(&[(tup(1).id_key(), 2), (tup(1).id_key(), 1)]), 1);
        assert_eq!(rows(&s), vec![(2, 1)]);
    }

    /// The writers are total: a run no engine publishes — out of order,
    /// a key twice — is applied entry by entry.
    #[test]
    fn runs_in_any_order_land_in_document_order() {
        let mut s = store(&[(5, 1), (1, 2), (3, 1), (1, 1)]);
        assert_eq!(rows(&s), vec![(1, 3), (3, 1), (5, 1)]);
        assert_eq!(s.absorb(vec![(tup(4), 1), (tup(2), 1), (tup(4), 1)]), 2);
        assert_eq!(rows(&s), vec![(1, 3), (2, 1), (3, 1), (4, 2), (5, 1)]);
        assert_eq!(s.remove(&[(tup(5).id_key(), 1), (tup(1).id_key(), 3)]), 2);
        assert_eq!(rows(&s), vec![(2, 1), (3, 1), (4, 2)]);
        assert_eq!(s.cursor().len(), 3);
    }

    #[test]
    fn replace_patches_fields_in_place() {
        let mut s = store(&[(1, 1)]);
        let mut patched = tup(1);
        patched.field_mut(0).val = Some("patched".into());
        assert!(s.replace(&patched));
        assert_eq!(s.get(&tup(1).id_key()), Some((&patched, 1)));
        assert!(!s.replace(&tup(9)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn identical_to_sees_field_differences_content_comparison_ignores() {
        let a = store(&[(1, 1)]);
        let mut b = store(&[(1, 1)]);
        assert!(a.identical_to(&b));
        for t in b.tuples_mut() {
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
        b.absorb(vec![(tup(2), 1)]);
        assert!(!a.same_content_as(&b));
        assert!(b.diff_description(&a).contains("left only"));
        assert!(!a.same_content_as(&store(&[(1, 3)])));
    }
}
