//! Static independence: the Figure 15 conflict rules lifted from
//! concrete Dewey targets to label shapes.
//!
//! At runtime, `pulopt::find_conflicts` compares every pair of atomic
//! operations by structural identifier: two `InsertInto` the same
//! target (IO), a `Delete` of an insertion target (LO), a `Delete` of
//! a proper ancestor of an insertion target (NLO); deletions never
//! conflict with each other. Here the same three rules are asked of
//! label sets: if no rule can fire for *any* pair of target nodes in
//! any conforming document, the statements are provably independent:
//! the runtime conflict scan would find nothing. Anything else is
//! [`Independence::Unknown`], which claims nothing — the lifted rules
//! only ever say "safe", never "conflict". The `Database` façade runs
//! the runtime scan on every independent batch all the same: nothing
//! checks that its document conforms.

use crate::shape::StatementShape;

/// Outcome of a static pairwise independence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Independence {
    /// No Figure 15 rule can fire for any target pair: the runtime
    /// conflict scan would provably find nothing.
    Independent,
    /// A rule may fire (or a label set was widened to `Any`): defer to
    /// the dynamic check.
    Unknown,
}

impl Independence {
    pub fn is_independent(self) -> bool {
        matches!(self, Independence::Independent)
    }
}

/// Checks one statement pair against the lifted IO / LO / NLO rules.
pub fn independent(a: &StatementShape, b: &StatementShape) -> Independence {
    if a.dead || b.dead {
        return Independence::Independent;
    }
    // IO: both insert into the same node — possible only if the
    // insertion-point label sets can share a label.
    let io = a.ins_finals.may_intersect(&b.ins_finals);
    // LO: one deletes the exact node the other inserts into.
    let lo = a.del_finals.may_intersect(&b.ins_finals) || b.del_finals.may_intersect(&a.ins_finals);
    // NLO: one deletes a proper ancestor of the other's insertion
    // point (the insertion would land in a doomed subtree).
    let nlo = a.del_finals.may_intersect(&b.ins_ancestors)
        || b.del_finals.may_intersect(&a.ins_ancestors);
    if io || lo || nlo {
        Independence::Unknown
    } else {
        Independence::Independent
    }
}

/// True when *every* pair in the batch is statically independent: on
/// a conforming document the runtime pairwise conflict scan finds
/// nothing.
pub fn pairwise_independent(shapes: &[StatementShape]) -> bool {
    for (i, a) in shapes.iter().enumerate() {
        for b in &shapes[i + 1..] {
            if !independent(a, b).is_independent() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaInfo;
    use xivm_dtd::grammar::figure_5a;
    use xivm_update::UpdateStatement;

    fn shape(s: Option<&SchemaInfo>, text_stmt: &UpdateStatement) -> StatementShape {
        StatementShape::of(s, text_stmt)
    }

    #[test]
    fn deletions_never_conflict() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let d1 = shape(Some(&s), &UpdateStatement::delete("//a").unwrap());
        let d2 = shape(Some(&s), &UpdateStatement::delete("//b").unwrap());
        assert!(independent(&d1, &d2).is_independent());
        assert!(pairwise_independent(&[d1, d2]));
    }

    #[test]
    fn same_label_inserts_may_collide() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let i1 = shape(Some(&s), &UpdateStatement::insert("//b", "<c/>").unwrap());
        let i2 = shape(Some(&s), &UpdateStatement::insert("/d1/a/b", "<c/>").unwrap());
        assert_eq!(independent(&i1, &i2), Independence::Unknown, "IO: same target label b");
        let i3 = shape(Some(&s), &UpdateStatement::insert("/d1/a", "<b/>").unwrap());
        assert!(independent(&i1, &i3).is_independent(), "targets b vs a cannot coincide");
    }

    #[test]
    fn delete_above_insert_is_caught() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let del_a = shape(Some(&s), &UpdateStatement::delete("//a").unwrap());
        let ins_b = shape(Some(&s), &UpdateStatement::insert("//b", "<c/>").unwrap());
        // NLO: a is an ancestor label of any b insertion point.
        assert_eq!(independent(&del_a, &ins_b), Independence::Unknown);
        // LO: delete b == insert-into b.
        let del_b = shape(Some(&s), &UpdateStatement::delete("//b").unwrap());
        assert_eq!(independent(&del_b, &ins_b), Independence::Unknown);
        // Deleting a leaf c cannot shadow an insert into a or b... but
        // inserting into b makes b an insertion point whose ancestors
        // exclude c, and c is no insertion target: independent.
        let del_c = shape(Some(&s), &UpdateStatement::delete("//c").unwrap());
        assert!(independent(&del_c, &ins_b).is_independent());
    }

    #[test]
    fn dead_statements_are_independent_of_everything() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let dead = shape(Some(&s), &UpdateStatement::insert("/d1/zzz", "<b/>").unwrap());
        let live = shape(Some(&s), &UpdateStatement::insert("//b", "<c/>").unwrap());
        assert!(independent(&dead, &live).is_independent());
    }

    #[test]
    fn widened_shapes_stay_unknown() {
        let ins1 = shape(None, &UpdateStatement::insert("//x", "<a/>").unwrap());
        let ins2 = shape(None, &UpdateStatement::insert("//y", "<b/>").unwrap());
        // Without a schema the label sets are still precise ({x}, {y})
        // so disjoint targets remain provable.
        assert!(independent(&ins1, &ins2).is_independent());
        let del = shape(None, &UpdateStatement::delete("//z").unwrap());
        // But a deletion's ancestor relation to //y is unknowable.
        assert_eq!(independent(&del, &ins2), Independence::Unknown);
    }
}
