//! Circuit values: [`Datum`] and [`Row`].
//!
//! Operators downstream of a view no longer deal in view [`Tuple`]s —
//! a join's output concatenates columns from two views, an aggregate's
//! output carries a computed integer — so circuits flow a small
//! self-describing value type instead. A [`Row`] is an ordered list of
//! [`Datum`]s; a source node converts each view tuple into one row by
//! flattening the tuple against the view schema (per column: the
//! node's structural ID, then its `val` if the view stores it, then
//! its `cont` if the view stores it — absent annotations contribute
//! nothing, stored-but-missing text becomes [`Datum::Null`]).
//!
//! Rows are plain data: hashable (join/aggregate state keys), cheaply
//! clonable (`Arc`-shared strings, structural IDs), and totally
//! ordered, datum by datum, so every delta and store is one sorted
//! run. The rows of one view's tuples fall in the view's own document
//! order: two rows first differ at a structural ID, because one node
//! carries one `val` / `cont` in one state of the document.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;
use xivm_algebra::{Schema, Tuple};
use xivm_xml::DeweyId;

/// One circuit value: a document node ID, a text value, an integer
/// (aggregate results), or null (a stored annotation the node does not
/// have, e.g. `val` of an element with no text).
///
/// The order is total: variants in declaration order (`Null < Int <
/// Str < Id`), integers numerically, strings lexicographically, IDs in
/// document order ([`DeweyId`]'s `Ord` is [`DeweyId::doc_cmp`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datum {
    Null,
    Int(i64),
    Str(Arc<str>),
    Id(DeweyId),
}

impl Datum {
    /// The integer behind an `Int` datum.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text behind a `Str` datum.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The structural ID behind an `Id` datum.
    pub fn as_id(&self) -> Option<&DeweyId> {
        match self {
            Datum::Id(id) => Some(id),
            _ => None,
        }
    }
}

impl From<i64> for Datum {
    fn from(i: i64) -> Self {
        Datum::Int(i)
    }
}

impl From<&str> for Datum {
    fn from(s: &str) -> Self {
        Datum::Str(s.into())
    }
}

impl From<Arc<str>> for Datum {
    fn from(s: Arc<str>) -> Self {
        Datum::Str(s)
    }
}

impl From<DeweyId> for Datum {
    fn from(id: DeweyId) -> Self {
        Datum::Id(id)
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "null"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Str(s) => write!(f, "{s:?}"),
            Datum::Id(id) => {
                let ords: Vec<String> = id.steps().iter().map(|s| s.ord.to_string()).collect();
                write!(f, "#{}", ords.join("."))
            }
        }
    }
}

/// One row of a circuit node: an ordered list of [`Datum`]s. All rows
/// of one node have the same layout (determined by the node's
/// operator and, for sources, the view schema).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row(Vec<Datum>);

impl Row {
    pub fn new(datums: Vec<Datum>) -> Self {
        Row(datums)
    }

    /// The empty row — the key of a global (ungrouped) aggregate.
    pub fn empty() -> Self {
        Row(Vec::new())
    }

    /// Flattens one view tuple into a row, driven by the view schema:
    /// per column the structural ID, then `val` / `cont` *iff* the
    /// view stores them for that column (missing stored text becomes
    /// [`Datum::Null`], so every row of one source has the same
    /// arity).
    pub fn from_tuple(tuple: &Tuple, schema: &Schema) -> Self {
        let mut datums = Vec::with_capacity(schema.arity());
        for (i, col) in schema.columns.iter().enumerate() {
            let field = tuple.field(i);
            datums.push(Datum::Id(field.id.clone()));
            if col.stores_val {
                datums.push(field.val.clone().map_or(Datum::Null, Datum::Str));
            }
            if col.stores_cont {
                datums.push(field.cont.clone().map_or(Datum::Null, Datum::Str));
            }
        }
        Row(datums)
    }

    /// Orders a row flattened from a view tuple against a tuple of the
    /// same view by their structural IDs alone — [`Tuple::doc_cmp`],
    /// whatever text either side carries.
    pub(crate) fn ids_cmp(&self, tuple: &Tuple) -> Ordering {
        let ids = self.0.iter().filter_map(Datum::as_id);
        let mut pairs = ids.zip(tuple.fields()).map(|(id, field)| id.doc_cmp(&field.id));
        pairs.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    }

    pub fn arity(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The datum at position `i` (panics out of range, like slice
    /// indexing).
    pub fn datum(&self, i: usize) -> &Datum {
        &self.0[i]
    }

    pub fn datums(&self) -> &[Datum] {
        &self.0
    }

    /// Concatenation — a join's output row is `left ++ right`.
    pub fn concat(&self, other: &Row) -> Row {
        let mut datums = Vec::with_capacity(self.0.len() + other.0.len());
        datums.extend_from_slice(&self.0);
        datums.extend_from_slice(&other.0);
        Row(datums)
    }

    /// Keeps only the listed positions, in the given order.
    pub fn project(&self, cols: &[usize]) -> Row {
        Row(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// The row extended by one trailing datum — an aggregate's output
    /// row is `group key ++ aggregate value`.
    pub fn with(&self, datum: Datum) -> Row {
        let mut datums = Vec::with_capacity(self.0.len() + 1);
        datums.extend_from_slice(&self.0);
        datums.push(datum);
        Row(datums)
    }
}

impl From<Vec<Datum>> for Row {
    fn from(datums: Vec<Datum>) -> Self {
        Row(datums)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_algebra::{Column, Field};
    use xivm_xml::dewey::Step;
    use xivm_xml::LabelId;

    fn id(ords: &[u64]) -> DeweyId {
        DeweyId::from_steps(ords.iter().map(|&o| Step::new(LabelId(0), o)).collect())
    }

    #[test]
    fn datum_order_is_total_and_document_ordered() {
        let mut data = vec![
            Datum::Id(id(&[2])),
            Datum::Str("b".into()),
            Datum::Null,
            Datum::Id(id(&[1, 1])),
            Datum::Int(7),
            Datum::Str("a".into()),
            Datum::Id(id(&[1])),
            Datum::Int(-1),
        ];
        data.sort();
        assert_eq!(
            data,
            vec![
                Datum::Null,
                Datum::Int(-1),
                Datum::Int(7),
                Datum::Str("a".into()),
                Datum::Str("b".into()),
                Datum::Id(id(&[1])),
                Datum::Id(id(&[1, 1])),
                Datum::Id(id(&[2])),
            ]
        );
    }

    #[test]
    fn from_tuple_flattens_by_schema_flags() {
        let schema = Schema::new(vec![
            Column::id_only("a"),
            Column::with("b", true, false),
            Column::with("c", true, true),
        ]);
        let tuple = Tuple::new(vec![
            Field::id_only(id(&[1])),
            Field::new(id(&[1, 2]), Some("v".into()), None),
            Field::new(id(&[1, 3]), None, Some("<c/>".into())),
        ]);
        let row = Row::from_tuple(&tuple, &schema);
        assert_eq!(
            row.datums(),
            &[
                Datum::Id(id(&[1])),
                Datum::Id(id(&[1, 2])),
                Datum::Str("v".into()),
                Datum::Id(id(&[1, 3])),
                Datum::Null,
                Datum::Str("<c/>".into()),
            ]
        );
    }

    #[test]
    fn ids_cmp_orders_by_structural_ids_alone() {
        let schema = Schema::new(vec![Column::with("a", true, false), Column::id_only("b")]);
        let tuple = |a: u64, b: u64, val: &str| {
            Tuple::new(vec![
                Field::new(id(&[a]), Some(val.into()), None),
                Field::id_only(id(&[a, b])),
            ])
        };
        let row = Row::from_tuple(&tuple(1, 2, "old"), &schema);
        assert!(row.ids_cmp(&tuple(1, 2, "new")).is_eq(), "the text is no part of the key");
        assert!(row.ids_cmp(&tuple(1, 3, "a")).is_lt(), "then the second column decides");
        assert!(row.ids_cmp(&tuple(0, 9, "z")).is_gt(), "the first column first");
    }

    #[test]
    fn concat_project_and_with() {
        let a = Row::new(vec![Datum::Int(1), Datum::Str("x".into())]);
        let b = Row::new(vec![Datum::Int(2)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.project(&[2, 0]).datums(), &[Datum::Int(2), Datum::Int(1)]);
        assert_eq!(b.with(Datum::Int(9)).datums(), &[Datum::Int(2), Datum::Int(9)]);
        assert_eq!(Row::empty().arity(), 0);
        assert!(Row::empty().is_empty());
        assert_eq!(c.datum(1).as_str(), Some("x"));
        assert_eq!(c.datum(0).as_int(), Some(1));
        assert!(c.datum(0).as_id().is_none());
    }

    #[test]
    fn display_is_compact() {
        let r = Row::new(vec![
            Datum::Id(id(&[1, 2])),
            Datum::Str("x".into()),
            Datum::Int(3),
            Datum::Null,
        ]);
        assert_eq!(r.to_string(), "(#1.2, \"x\", 3, null)");
    }
}
