//! Tuples and their fields.

use std::cmp::Ordering;
use std::sync::Arc;
use xivm_xml::DeweyId;

/// One tuple field: the data a view stores for one bound pattern node.
///
/// The structural ID is always present (the maintenance algorithms need
/// it to run structural joins and the `PIMT`/`PDMT` ancestor checks);
/// `val` and `cont` are populated only when the view's annotations ask
/// for them. Strings are `Arc`-shared because the same node frequently
/// appears in many tuples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    pub id: DeweyId,
    pub val: Option<Arc<str>>,
    pub cont: Option<Arc<str>>,
}

impl Field {
    pub fn id_only(id: DeweyId) -> Self {
        Field { id, val: None, cont: None }
    }

    pub fn new(id: DeweyId, val: Option<Arc<str>>, cont: Option<Arc<str>>) -> Self {
        Field { id, val, cont }
    }
}

/// A tuple over a view schema: one [`Field`] per view column.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Tuple {
    fields: Vec<Field>,
}

impl Tuple {
    pub fn new(fields: Vec<Field>) -> Self {
        Tuple { fields }
    }

    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    pub fn field_mut(&mut self, i: usize) -> &mut Field {
        &mut self.fields[i]
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Concatenates two tuples (used by products and joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut fields = Vec::with_capacity(self.fields.len() + other.fields.len());
        fields.extend_from_slice(&self.fields);
        fields.extend_from_slice(&other.fields);
        Tuple { fields }
    }

    /// Keeps only the listed columns, in the given order.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple { fields: cols.iter().map(|&c| self.fields[c].clone()).collect() }
    }

    /// The identity key of a tuple: its sequence of structural IDs.
    /// Two tuples binding the same document nodes are the same view
    /// tuple regardless of cached val/cont strings.
    pub fn id_key(&self) -> Vec<DeweyId> {
        self.fields.iter().map(|f| f.id.clone()).collect()
    }

    /// Document-order comparison of two same-arity tuples:
    /// lexicographic over their ID columns, left to right ("the order
    /// dictated by the IDs of the bindings of all nodes"). The one row
    /// order of everything the system hands out — `s`, `e_v`, the view
    /// store's cursor and published deltas all sort by it.
    #[inline]
    pub fn doc_cmp(&self, other: &Tuple) -> Ordering {
        cmp_ids(self.fields.iter().zip(&other.fields).map(|(a, b)| (&a.id, &b.id)))
    }

    /// The mirror of [`Self::doc_cmp`]: the same comparison with the
    /// *last* column the most significant — the order a join leaves its
    /// output in and wants its input in, kept by materialized snowcaps.
    #[inline]
    pub fn doc_cmp_rev(&self, other: &Tuple) -> Ordering {
        cmp_ids(self.fields.iter().zip(&other.fields).rev().map(|(a, b)| (&a.id, &b.id)))
    }
}

/// The first ID pair that differs decides, by [`DeweyId::doc_cmp`].
#[inline]
fn cmp_ids<'a>(pairs: impl Iterator<Item = (&'a DeweyId, &'a DeweyId)>) -> Ordering {
    for (a, b) in pairs {
        let c = a.doc_cmp(b);
        if c.is_ne() {
            return c;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_xml::{dewey::Step, LabelId};

    fn id(parts: &[(u32, u64)]) -> DeweyId {
        DeweyId::from_steps(parts.iter().map(|&(a, b)| Step::new(LabelId(a), b)).collect())
    }

    #[test]
    fn concat_and_project() {
        let t1 = Tuple::new(vec![Field::id_only(id(&[(0, 1)]))]);
        let t2 = Tuple::new(vec![
            Field::id_only(id(&[(0, 1), (1, 2)])),
            Field::id_only(id(&[(0, 1), (2, 3)])),
        ]);
        let t = t1.concat(&t2);
        assert_eq!(t.arity(), 3);
        let p = t.project(&[2, 0]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.field(0).id, id(&[(0, 1), (2, 3)]));
        assert_eq!(p.field(1).id, id(&[(0, 1)]));
    }

    #[test]
    fn doc_cmp_is_lexicographic_over_id_columns() {
        let t = |x: u64, y: u64, val: &str| {
            Tuple::new(vec![
                Field::new(id(&[(0, x)]), Some(val.into()), None),
                Field::id_only(id(&[(1, y)])),
            ])
        };
        assert_eq!(t(1, 2, "z").doc_cmp(&t(2, 1, "a")), Ordering::Less, "column 0 decides");
        assert_eq!(t(1, 2, "a").doc_cmp(&t(1, 1, "a")), Ordering::Greater, "then column 1");
        assert_eq!(t(1, 1, "a").doc_cmp(&t(1, 1, "b")), Ordering::Equal, "IDs only");
        assert_eq!(t(1, 2, "a").doc_cmp_rev(&t(2, 1, "a")), Ordering::Greater, "last column first");
        assert_eq!(t(1, 1, "a").doc_cmp_rev(&t(2, 1, "a")), Ordering::Less, "then column 0");
    }

    #[test]
    fn id_key_ignores_val_and_cont() {
        let a = Tuple::new(vec![Field::new(id(&[(0, 1)]), Some("x".into()), None)]);
        let b = Tuple::new(vec![Field::new(id(&[(0, 1)]), None, Some("<a/>".into()))]);
        assert_eq!(a.id_key(), b.id_key());
        assert_ne!(a, b);
    }
}
