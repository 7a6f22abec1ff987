//! Figure 4's plan tree: one scan per pattern node, joined left-deep by
//! the pattern's `/` and `//` edges.
//!
//! The maintenance engine joins its leaves directly; a plan tree is what
//! the recomputation baseline (`pattern::compile::view_tuples`) and the
//! independent oracles of the tests evaluate.

use crate::predicate::Axis;
use crate::relation::Relation;
use crate::structjoin::structural_join;

/// A logical plan over materialized leaf relations.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A materialized leaf (canonical relation or Δ table).
    Scan(Relation),
    /// Structural join: upper side `left` on `left_col`, lower side
    /// `right` on `right_col`.
    StructJoin { left: Box<Plan>, left_col: usize, right: Box<Plan>, right_col: usize, axis: Axis },
}

impl Plan {
    /// Evaluates the plan bottom-up.
    ///
    /// `StructJoin` inputs are re-sorted on their join columns when
    /// needed, so plans stay correct regardless of upstream order.
    pub fn eval(&self) -> Relation {
        match self {
            Plan::Scan(rel) => rel.clone(),
            Plan::StructJoin { left, left_col, right, right_col, axis } => {
                let mut l = left.eval();
                let mut r = right.eval();
                if !l.is_sorted_by_col(*left_col) {
                    l.sort_by_col(*left_col);
                }
                if !r.is_sorted_by_col(*right_col) {
                    r.sort_by_col(*right_col);
                }
                structural_join(&l, *left_col, &r, *right_col, *axis)
            }
        }
    }
}
