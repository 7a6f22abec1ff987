//! The materialized view store: projected tuples with derivation
//! counts (Section 2.2).

use std::collections::HashMap;
use xivm_algebra::{Schema, Tuple};
use xivm_pattern::compile::view_schema;
use xivm_pattern::TreePattern;
use xivm_xml::DeweyId;

/// Key of a view tuple: the structural IDs of its stored nodes.
pub type TupleKey = Vec<DeweyId>;

/// A materialized view: tuples over the stored (annotated) columns,
/// each carrying its derivation count — "the number of reasons why the
/// tuple belongs to the view".
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    schema: Schema,
    tuples: HashMap<TupleKey, (Tuple, u64)>,
}

impl ViewStore {
    /// An empty store with the view's projected schema.
    pub fn new(pattern: &TreePattern) -> Self {
        ViewStore { schema: view_schema(pattern), tuples: HashMap::new() }
    }

    /// An empty store over an explicit schema (snapshot decoding).
    pub fn from_schema(schema: Schema) -> Self {
        ViewStore { schema, tuples: HashMap::new() }
    }

    /// Builds a store from already-counted tuples (initial
    /// materialization or full recomputation).
    pub fn from_counted(pattern: &TreePattern, counted: Vec<(Tuple, u64)>) -> Self {
        let mut s = ViewStore::new(pattern);
        for (t, c) in counted {
            s.add(t, c);
        }
        s
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Sum of derivation counts (number of underlying embeddings).
    pub fn total_derivations(&self) -> u64 {
        self.tuples.values().map(|(_, c)| c).sum()
    }

    pub fn count_of(&self, key: &TupleKey) -> Option<u64> {
        self.tuples.get(key).map(|(_, c)| *c)
    }

    pub fn contains(&self, key: &TupleKey) -> bool {
        self.tuples.contains_key(key)
    }

    /// Adds `count` derivations of a tuple (ET-INS's final step: an
    /// existing tuple's count grows, a new tuple enters with its
    /// count).
    pub fn add(&mut self, tuple: Tuple, count: u64) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        let key = tuple.id_key();
        self.tuples.entry(key).and_modify(|(_, c)| *c += count).or_insert((tuple, count));
    }

    /// Removes `count` derivations; the tuple disappears when its
    /// derivation count reaches zero (Algorithm 5's final loop).
    /// Returns true when the tuple was removed entirely.
    pub fn remove_derivations(&mut self, key: &TupleKey, count: u64) -> bool {
        match self.tuples.get_mut(key) {
            None => false,
            Some((_, c)) => {
                *c = c.saturating_sub(count);
                if *c == 0 {
                    self.tuples.remove(key);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Mutable access for PIMT / PDMT val-and-cont patching.
    pub fn tuple_mut(&mut self, key: &TupleKey) -> Option<&mut Tuple> {
        self.tuples.get_mut(key).map(|(t, _)| t)
    }

    /// The stored tuple behind a key, if present.
    pub fn tuple(&self, key: &TupleKey) -> Option<&Tuple> {
        self.tuples.get(key).map(|(t, _)| t)
    }

    /// The stored tuple *and* its derivation count behind a key — one
    /// lookup where [`Self::tuple`] + [`Self::count_of`] would pay two.
    pub fn get(&self, key: &TupleKey) -> Option<(&Tuple, u64)> {
        self.tuples.get(key).map(|(t, c)| (t, *c))
    }

    /// All current keys (snapshot, so the store can be mutated while
    /// iterating). Prefer [`Self::iter`] / [`Self::tuples_mut`] when
    /// no structural mutation happens mid-walk — they borrow instead
    /// of cloning every key.
    pub fn keys(&self) -> Vec<TupleKey> {
        self.tuples.keys().cloned().collect()
    }

    /// Borrowing iterator over the stored tuples and their derivation
    /// counts, in arbitrary order. Allocation-free.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.tuples.values().map(|(t, c)| (t, *c))
    }

    /// Borrowing mutable walk over the stored tuples (key + tuple),
    /// for in-place `val` / `cont` patching (PIMT / PDMT). Derivation
    /// counts and keys stay fixed — only tuple fields may change.
    pub fn tuples_mut(&mut self) -> impl Iterator<Item = (&TupleKey, &mut Tuple)> {
        self.tuples.iter_mut().map(|(k, (t, _))| (k, t))
    }

    /// Borrowing cursor over the tuples in document order — the
    /// canonical external representation (`e_v` ends with a sort)
    /// without cloning a single tuple. One `Vec` of references is
    /// allocated for the sort; the yielded tuples are borrows.
    pub fn cursor(&self) -> Cursor<'_> {
        let mut refs: Vec<(&Tuple, u64)> = self.iter().collect();
        refs.sort_by(|a, b| a.0.doc_cmp(b.0));
        Cursor { inner: refs.into_iter() }
    }

    /// Tuples with counts, sorted by document order — the owning
    /// (cloning) form of [`Self::cursor`], kept for callers that need
    /// the data to outlive the store borrow.
    pub fn sorted_tuples(&self) -> Vec<(Tuple, u64)> {
        self.cursor().map(|(t, c)| (t.clone(), c)).collect()
    }

    /// Compares content (keys and counts) with another store — the
    /// test oracle for "incremental == recomputed".
    pub fn same_content_as(&self, other: &ViewStore) -> bool {
        self.tuples.len() == other.tuples.len()
            && self
                .tuples
                .iter()
                .all(|(k, (_, c))| other.tuples.get(k).is_some_and(|(_, oc)| oc == c))
    }

    /// Strict equality: keys, derivation counts *and* every stored
    /// `val` / `cont` field must match. The oracle for "snapshot plus
    /// replayed deltas reproduces the post-commit store exactly".
    pub fn identical_to(&self, other: &ViewStore) -> bool {
        self.tuples.len() == other.tuples.len()
            && self
                .tuples
                .iter()
                .all(|(k, (t, c))| other.tuples.get(k).is_some_and(|(ot, oc)| oc == c && ot == t))
    }

    /// Detailed difference description for test failures.
    pub fn diff_description(&self, other: &ViewStore) -> String {
        let mut out = String::new();
        for (k, (_, c)) in &self.tuples {
            match other.tuples.get(k) {
                None => out.push_str(&format!("only in left (count {c}): {k:?}\n")),
                Some((_, oc)) if oc != c => {
                    out.push_str(&format!("count mismatch {c} vs {oc}: {k:?}\n"))
                }
                _ => {}
            }
        }
        for (k, (_, c)) in &other.tuples {
            if !self.tuples.contains_key(k) {
                out.push_str(&format!("only in right (count {c}): {k:?}\n"));
            }
        }
        out
    }
}

/// Borrowing document-order iterator over a [`ViewStore`] — see
/// [`ViewStore::cursor`].
pub struct Cursor<'a> {
    inner: std::vec::IntoIter<(&'a Tuple, u64)>,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = (&'a Tuple, u64);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Cursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_algebra::Field;
    use xivm_pattern::parse_pattern;
    use xivm_xml::{dewey::Step, LabelId};

    fn tup(ord: u64) -> Tuple {
        Tuple::new(vec![Field::id_only(DeweyId::from_steps(vec![Step::new(LabelId(0), ord)]))])
    }

    fn store() -> ViewStore {
        ViewStore::new(&parse_pattern("//a{id}").unwrap())
    }

    #[test]
    fn add_accumulates_counts() {
        let mut s = store();
        s.add(tup(1), 2);
        s.add(tup(1), 3);
        s.add(tup(2), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.count_of(&tup(1).id_key()), Some(5));
        assert_eq!(s.total_derivations(), 6);
    }

    #[test]
    fn get_returns_tuple_and_count_together() {
        let mut s = store();
        s.add(tup(1), 2);
        let (t, c) = s.get(&tup(1).id_key()).unwrap();
        assert_eq!(t, &tup(1));
        assert_eq!(c, 2);
        assert!(s.get(&tup(9).id_key()).is_none());
    }

    #[test]
    fn remove_derivations_until_zero() {
        let mut s = store();
        s.add(tup(1), 2);
        assert!(!s.remove_derivations(&tup(1).id_key(), 1));
        assert_eq!(s.count_of(&tup(1).id_key()), Some(1));
        assert!(s.remove_derivations(&tup(1).id_key(), 1));
        assert!(!s.contains(&tup(1).id_key()));
        // removing a missing tuple is a no-op
        assert!(!s.remove_derivations(&tup(9).id_key(), 4));
    }

    #[test]
    fn sorted_tuples_in_doc_order() {
        let mut s = store();
        s.add(tup(5), 1);
        s.add(tup(1), 1);
        s.add(tup(3), 1);
        let ords: Vec<u64> =
            s.sorted_tuples().iter().map(|(t, _)| t.field(0).id.steps()[0].ord).collect();
        assert_eq!(ords, vec![1, 3, 5]);
    }

    #[test]
    fn cursor_borrows_in_doc_order_and_matches_sorted_tuples() {
        let mut s = store();
        s.add(tup(5), 1);
        s.add(tup(1), 2);
        s.add(tup(3), 1);
        let cursor_ords: Vec<(u64, u64)> =
            s.cursor().map(|(t, c)| (t.field(0).id.steps()[0].ord, c)).collect();
        assert_eq!(cursor_ords, vec![(1, 2), (3, 1), (5, 1)]);
        let cloned: Vec<(u64, u64)> =
            s.sorted_tuples().iter().map(|(t, c)| (t.field(0).id.steps()[0].ord, *c)).collect();
        assert_eq!(cursor_ords, cloned);
        assert_eq!(s.cursor().len(), 3);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn tuples_mut_patches_fields_in_place() {
        let mut s = store();
        s.add(tup(1), 1);
        for (_, t) in s.tuples_mut() {
            t.field_mut(0).val = Some("patched".into());
        }
        let key = tup(1).id_key();
        assert_eq!(s.tuple(&key).unwrap().field(0).val.as_deref(), Some("patched"));
        assert!(s.tuple(&tup(9).id_key()).is_none());
    }

    #[test]
    fn identical_to_sees_field_differences_content_comparison_ignores() {
        let mut a = store();
        let mut b = store();
        a.add(tup(1), 1);
        b.add(tup(1), 1);
        assert!(a.identical_to(&b));
        for (_, t) in b.tuples_mut() {
            t.field_mut(0).val = Some("changed".into());
        }
        assert!(a.same_content_as(&b), "keys and counts still agree");
        assert!(!a.identical_to(&b), "but the stored fields differ");
    }

    #[test]
    fn content_comparison() {
        let mut a = store();
        let mut b = store();
        a.add(tup(1), 2);
        b.add(tup(1), 2);
        assert!(a.same_content_as(&b));
        b.add(tup(2), 1);
        assert!(!a.same_content_as(&b));
        assert!(b.diff_description(&a).contains("only in left"));
    }
}
