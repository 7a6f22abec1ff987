//! The remaining operators of the algebra **A**: selection, projection,
//! duplicate elimination (with derivation counts), sort and cartesian
//! product.

use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::HashMap;
use xivm_xml::DeweyId;

/// σ — keeps the tuples satisfying `pred`.
pub fn select(input: &Relation, pred: &Predicate) -> Relation {
    Relation {
        schema: input.schema.clone(),
        rows: input.rows.iter().filter(|t| pred.eval(t)).cloned().collect(),
    }
}

/// π — projects onto the given columns.
pub fn project(input: &Relation, cols: &[usize]) -> Relation {
    Relation {
        schema: input.schema.project(cols),
        rows: input.rows.iter().map(|t| t.project(cols)).collect(),
    }
}

/// δ with derivation counts: collapses duplicate tuples (same ID key)
/// and reports how many input tuples produced each output tuple —
/// exactly the paper's *derivation count* (Section 2.2, last
/// paragraph). Output order is first-occurrence order.
pub fn dupelim_count(input: &Relation) -> Vec<(Tuple, u64)> {
    let mut index: HashMap<Vec<DeweyId>, usize> = HashMap::new();
    let mut out: Vec<(Tuple, u64)> = Vec::new();
    for t in &input.rows {
        let key = t.id_key();
        match index.get(&key) {
            Some(&i) => out[i].1 += 1,
            None => {
                index.insert(key, out.len());
                out.push((t.clone(), 1));
            }
        }
    }
    out
}

/// δ — plain duplicate elimination.
pub fn dupelim(input: &Relation) -> Relation {
    Relation {
        schema: input.schema.clone(),
        rows: dupelim_count(input).into_iter().map(|(t, _)| t).collect(),
    }
}

/// s — sorts by the document order of all ID columns, left to right
/// ("the order dictated by the IDs of the bindings of all nodes").
pub fn sort_all(input: &mut Relation) {
    input.rows.sort_by(Tuple::doc_cmp);
}

/// × — n-ary cartesian product.
pub fn product(inputs: &[&Relation]) -> Relation {
    assert!(!inputs.is_empty(), "product of zero relations");
    let mut schema = inputs[0].schema.clone();
    for r in &inputs[1..] {
        schema = schema.concat(&r.schema);
    }
    let mut rows: Vec<Tuple> = inputs[0].rows.clone();
    for r in &inputs[1..] {
        let mut next = Vec::with_capacity(rows.len() * r.rows.len());
        for a in &rows {
            for b in &r.rows {
                next.push(a.concat(b));
            }
        }
        rows = next;
    }
    Relation { schema, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Axis, Predicate};
    use crate::relation::{Column, Schema};
    use crate::tuple::Field;
    use xivm_xml::{dewey::Step, LabelId};

    fn id(parts: &[(u32, u64)]) -> DeweyId {
        DeweyId::from_steps(parts.iter().map(|&(a, b)| Step::new(LabelId(a), b)).collect())
    }

    fn one_col(name: &str, ids: Vec<DeweyId>) -> Relation {
        Relation::with_rows(
            Schema::new(vec![Column::id_only(name)]),
            ids.into_iter().map(|i| Tuple::new(vec![Field::id_only(i)])).collect(),
        )
    }

    #[test]
    fn select_structural() {
        let r = product(&[
            &one_col("a", vec![id(&[(0, 1)]), id(&[(0, 5)])]),
            &one_col("b", vec![id(&[(0, 1), (1, 2)])]),
        ]);
        let s = select(&r, &Predicate::Structural { upper: 0, lower: 1, axis: Axis::Child });
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0].field(0).id, id(&[(0, 1)]));
    }

    #[test]
    fn dupelim_counts_duplicates() {
        let a = id(&[(0, 1)]);
        let r = one_col("a", vec![a.clone(), a.clone(), id(&[(0, 2)]), a.clone()]);
        let counted = dupelim_count(&r);
        assert_eq!(counted.len(), 2);
        assert_eq!(counted[0].1, 3);
        assert_eq!(counted[1].1, 1);
        assert_eq!(dupelim(&r).len(), 2);
    }

    #[test]
    fn product_sizes_multiply() {
        let r1 = one_col("a", vec![id(&[(0, 1)]), id(&[(0, 2)])]);
        let r2 = one_col("b", vec![id(&[(1, 1)]), id(&[(1, 2)]), id(&[(1, 3)])]);
        let p = product(&[&r1, &r2]);
        assert_eq!(p.len(), 6);
        assert_eq!(p.schema.arity(), 2);
    }

    #[test]
    fn sort_all_orders_lexicographically() {
        let schema = Schema::new(vec![Column::id_only("a"), Column::id_only("b")]);
        let t = |x: u64, y: u64| {
            Tuple::new(vec![Field::id_only(id(&[(0, x)])), Field::id_only(id(&[(1, y)]))])
        };
        let mut r = Relation::with_rows(schema, vec![t(2, 1), t(1, 2), t(1, 1)]);
        sort_all(&mut r);
        let got: Vec<_> = r
            .rows
            .iter()
            .map(|t| (t.field(0).id.steps()[0].ord, t.field(1).id.steps()[0].ord))
            .collect();
        assert_eq!(got, vec![(1, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn project_keeps_selected_columns() {
        let schema = Schema::new(vec![Column::id_only("a"), Column::id_only("b")]);
        let r = Relation::with_rows(
            schema,
            vec![Tuple::new(vec![Field::id_only(id(&[(0, 1)])), Field::id_only(id(&[(1, 2)]))])],
        );
        let p = project(&r, &[1]);
        assert_eq!(p.schema.columns[0].name, "b");
        assert_eq!(p.rows[0].arity(), 1);
    }
}
