//! The operators of `e_v` (Section 3.1) besides the joins: projection
//! and duplicate elimination with derivation counts.

use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::HashMap;
use xivm_xml::DeweyId;

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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn dupelim_counts_duplicates() {
        let a = id(&[(0, 1)]);
        let r = one_col("a", vec![a.clone(), a.clone(), id(&[(0, 2)]), a.clone()]);
        let counted = dupelim_count(&r);
        assert_eq!(counted.len(), 2);
        assert_eq!(counted[0].1, 3);
        assert_eq!(counted[1].1, 1);
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
