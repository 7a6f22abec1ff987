//! Aggregation rules A1, A2 and D6 (Figure 16), for PULs to be run
//! sequentially (`Δ1 ; Δ2`).
//!
//! * **A1** — matching `ins↘(v, L1) ∈ Δ1` and `ins↘(v, L2) ∈ Δ2`:
//!   combine into `ins↘(v, [L1, L2])` inside Δ1;
//! * **A2** — A1 in reverse: combine into Δ2;
//! * **D6** — an operation of Δ2 references a node *inside a tree that
//!   Δ1 is about to insert*: splice Δ2's forest into Δ1's parameter
//!   tree and drop the Δ2 operation.
//!
//! D6 resolution: a Δ2 target strictly below a Δ1 insertion target and
//! absent from the current document can only refer to a node of a
//! pending forest. The remaining Dewey steps are resolved against Δ1's
//! forest by *exact ordinal*: forests receive deterministic
//! stride-multiple ordinals when parsed (offset, at the first level,
//! by the ordinals the insertion target has already handed out), so an
//! in-forest target is identified unambiguously and a target that
//! lives elsewhere — under a real intermediate node, or in another
//! operation's pending forest — finds no match. When the walk fails
//! the rule simply does not fire and the Δ2 operation is kept verbatim
//! (its structural ID still resolves once Δ1 has been applied), so
//! aggregation never guesses. This covers the paper's Example 5.3 and
//! implements the ID-projection of Cavalieri et al. for appended
//! forests.

use xivm_update::{AtomicOp, Pul};
use xivm_xml::{parse_document, serialize_node, DeweyId, Document};

/// What the aggregation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregationOutcome {
    pub a1_fired: usize,
    pub d6_fired: usize,
    pub ops_before: usize,
    pub ops_after: usize,
}

/// Aggregates `Δ1 ; Δ2` into a single PUL equivalent to running them
/// in sequence. `doc` is the document *before* Δ1, used to decide
/// whether a Δ2 target already exists (D6 applies only to
/// forest-internal targets).
pub fn aggregate(doc: &Document, first: &Pul, second: &Pul) -> (Pul, AggregationOutcome) {
    let mut outcome =
        AggregationOutcome { ops_before: first.len() + second.len(), ..Default::default() };
    let mut merged: Vec<AtomicOp> = first.ops.clone();
    'second: for op2 in &second.ops {
        match op2 {
            AtomicOp::InsertInto { target: t2, forest: f2 } => {
                // A1 / A2: same-target insertion merges into Δ1's op.
                for op1 in merged.iter_mut() {
                    if let AtomicOp::InsertInto { target: t1, forest: f1 } = op1 {
                        if t1 == t2 {
                            f1.push_str(f2);
                            outcome.a1_fired += 1;
                            continue 'second;
                        }
                    }
                }
                // D6: the target lives inside a pending forest of Δ1.
                if doc.find_node(t2).is_none() {
                    for op1 in merged.iter_mut() {
                        let AtomicOp::InsertInto { target: t1, forest: f1 } = op1 else {
                            continue;
                        };
                        if t1.is_ancestor_of(t2) && chain_is_pending(doc, t1, t2) {
                            if let Some(spliced) = splice_into_forest(doc, f1, t1, t2, f2) {
                                *f1 = spliced;
                                outcome.d6_fired += 1;
                                continue 'second;
                            }
                        }
                    }
                }
                merged.push(op2.clone());
            }
            AtomicOp::Delete { .. } => merged.push(op2.clone()),
        }
    }
    outcome.ops_after = merged.len();
    (Pul::new(merged), outcome)
}

/// True when every node strictly between `t1` and `t2` is absent from
/// the current document. A live intermediate node means `t2` hangs off
/// a *real* descendant of `t1`, not off the pending forest `t1` is
/// about to receive — D6 must not fire there even though `t1` is an
/// ancestor of `t2`.
fn chain_is_pending(doc: &Document, t1: &DeweyId, t2: &DeweyId) -> bool {
    let mut cur = t2.parent();
    while let Some(p) = cur {
        if p.depth() <= t1.depth() {
            break;
        }
        if doc.find_node(&p).is_some() {
            return false;
        }
        cur = p.parent();
    }
    true
}

/// Splices `addition` under the forest node the Dewey steps `t1 → t2`
/// address, returning the re-serialized forest, or `None` when `t2`
/// does not denote a node of this forest.
///
/// Appended forests receive deterministic ordinals: the j-th node
/// parsed under a fresh parent carries ordinal `j · ORD_STRIDE`, and
/// the forest roots themselves continue from `t1`'s highest
/// already-allocated child ordinal. Re-parsing the forest under a
/// scratch root therefore reproduces exactly the ordinals `apply-pul`
/// will assign (modulo that first-level offset), and each step of
/// `t2` can be resolved by ordinal equality — unambiguously, unlike a
/// label-path walk.
fn splice_into_forest(
    doc: &Document,
    forest: &str,
    t1: &DeweyId,
    t2: &DeweyId,
    addition: &str,
) -> Option<String> {
    // The first-level offset is only known for targets that exist in
    // the pre-Δ1 document.
    let offset = doc.max_child_ord(doc.find_node(t1)?);
    // Parse the forest under a scratch root.
    let mut scratch = parse_document(&format!("<scratch-root>{forest}</scratch-root>")).ok()?;
    let root = scratch.root()?;
    let rel_steps = &t2.steps()[t1.depth()..];
    let mut cur = root;
    for (depth, step) in rel_steps.iter().enumerate() {
        // The ordinal this node carries inside the scratch parse; a
        // step that resolves to no forest node (a real sibling, or a
        // node of some other operation's pending forest) refuses the
        // splice.
        let want = if depth == 0 { step.ord.checked_sub(offset)? } else { step.ord };
        let next =
            scratch.children_of(cur).iter().copied().find(|&c| scratch.node(c).ord == want)?;
        if !scratch.node(next).is_element() {
            return None;
        }
        cur = next;
    }
    xivm_xml::parser::parse_forest_into(&mut scratch, cur, addition).ok()?;
    // Serialize children of the scratch root back into a forest.
    let out: String =
        scratch.children_of(root).iter().map(|&c| serialize_node(&scratch, c)).collect();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_update::{apply_pul, compute_pul};
    use xivm_xml::serialize_document;

    fn pul(doc: &Document, stmt: &str) -> Pul {
        let s = xivm_update::statement::parse_statement(stmt).unwrap();
        compute_pul(doc, &s)
    }

    const DOC: &str = "<r><x/><y/></r>";

    /// A1: same-target insertions merge across the two PULs.
    #[test]
    fn a1_merges_same_target() {
        let d = parse_document(DOC).unwrap();
        let p1 = pul(&d, "insert <c><b/></c> into //x");
        let p2 = pul(&d, "insert <b/> into //x");
        let (agg, out) = aggregate(&d, &p1, &p2);
        assert_eq!(out.a1_fired, 1);
        assert_eq!(agg.len(), 1);
        match &agg.ops[0] {
            AtomicOp::InsertInto { forest, .. } => assert_eq!(forest, "<c><b/></c><b/>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// D6 (Example 5.3's third case): Δ2 inserts under a node that only
    /// exists inside Δ1's pending forest.
    #[test]
    fn d6_splices_into_pending_forest() {
        let mut d = parse_document(DOC).unwrap();
        let p1 = pul(&d, "insert <d><b/></d> into //x");
        // Fabricate a Δ2 op addressing the pending d under x: its ID
        // extends the x target by a d step.
        let x_target = p1.ops[0].target().clone();
        let d_label = d.intern_label("d");
        let inner = x_target.child(d_label, xivm_xml::dewey::ORD_STRIDE);
        let p2 = Pul::new(vec![AtomicOp::InsertInto { target: inner, forest: "<b/>".to_owned() }]);
        let (agg, out) = aggregate(&d, &p1, &p2);
        assert_eq!(out.d6_fired, 1);
        assert_eq!(agg.len(), 1);
        match &agg.ops[0] {
            AtomicOp::InsertInto { forest, .. } => assert_eq!(forest, "<d><b/><b/></d>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Aggregation must equal sequential application.
    #[test]
    fn aggregation_preserves_semantics() {
        let d0 = parse_document(DOC).unwrap();
        let p1 = pul(&d0, "insert <a/> into //x");
        let p2 = pul(&d0, "insert <b/> into //x");

        let mut seq = parse_document(DOC).unwrap();
        apply_pul(&mut seq, &p1).unwrap();
        apply_pul(&mut seq, &p2).unwrap();

        let (agg, _) = aggregate(&d0, &p1, &p2);
        let mut once = parse_document(DOC).unwrap();
        apply_pul(&mut once, &agg).unwrap();

        assert_eq!(serialize_document(&seq), serialize_document(&once));
    }

    /// `tests/property.rs` case 1548: the third PUL is spliced (D6)
    /// into the first one's forest in front of the `c` the second PUL
    /// deletes. The `del`'s ID carries the label id `c` got on the
    /// scratch document; a base that interns the spliced forest's
    /// labels by itself meets `d` first, numbers the two the other way
    /// round and skips the `del` as stale. Whoever applies an
    /// aggregated PUL adopts the interner it was computed against.
    #[test]
    fn a_del_into_a_spliced_forest_needs_the_scratch_interner() {
        let base = parse_document("<r><b/></r>").unwrap();
        let mut scratch = base.clone();
        let mut combined = Pul::default();
        for stmt in ["insert <a><b/><c/></a> into //b", "delete //a//c", "insert <d>5</d> into //b"]
        {
            let next = pul(&scratch, stmt);
            apply_pul(&mut scratch, &next).unwrap();
            combined = aggregate(&base, &combined, &next).0;
        }
        let sequential = "<r><b><a><b><d>5</d></b></a><d>5</d></b></r>";
        assert_eq!(serialize_document(&scratch), sequential);
        match &combined.ops[0] {
            AtomicOp::InsertInto { forest, .. } => {
                assert_eq!(forest, "<a><b><d>5</d></b><c/></a><d>5</d>", "D6 then A1");
            }
            other => panic!("unexpected {other:?}"),
        }

        let mut adopting = base.clone();
        adopting.adopt_labels(&scratch.shared_labels());
        apply_pul(&mut adopting, &combined).unwrap();
        assert_eq!(serialize_document(&adopting), sequential);

        let mut alone = base.clone();
        apply_pul(&mut alone, &combined).unwrap();
        assert_eq!(
            serialize_document(&alone),
            "<r><b><a><b><d>5</d></b><c/></a><d>5</d></b></r>",
            "the hazard: own numbering, the del is taken for a stale ID"
        );
    }

    #[test]
    fn unrelated_ops_concatenate() {
        let d = parse_document(DOC).unwrap();
        let p1 = pul(&d, "insert <a/> into //x");
        let p2 = pul(&d, "delete //y");
        let (agg, out) = aggregate(&d, &p1, &p2);
        assert_eq!(agg.len(), 2);
        assert_eq!(out.a1_fired + out.d6_fired, 0);
    }
}
