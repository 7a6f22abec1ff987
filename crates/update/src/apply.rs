//! Applying pending update lists to the document.
//!
//! `apply-insert(n, t)` (Section 3.4) copies the forest into its new
//! context; crucially, the copies receive their Dewey IDs *in the new
//! context* as a side effect, and those IDs are what the Δ⁺ tables are
//! built from. Deletions capture the `(ID, label)` of every removed
//! node before detaching, which is what the Δ⁻ tables are built from.

use crate::pul::{AtomicOp, Pul};
use xivm_xml::{parser::parse_forest_into, DeweyId, Document, NodeId, NodeKind, XmlError};

/// A node removed by a deletion: everything Δ⁻ extraction needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletedNode {
    pub id: DeweyId,
    /// Label name (attributes keep their `@` prefix, text nodes are
    /// `#text`).
    pub label: String,
    pub kind: NodeKind,
}

/// Outcome of applying a PUL.
#[derive(Debug, Clone, Default)]
pub struct ApplyResult {
    /// Every newly created node (roots and descendants), live in the
    /// updated document.
    pub inserted: Vec<NodeId>,
    /// Roots of the inserted forests only.
    pub inserted_roots: Vec<NodeId>,
    /// Every removed node, pre-order within each deleted subtree.
    pub deleted: Vec<DeletedNode>,
    /// IDs of the nodes that received insertions (the `p1 … pk` of
    /// Proposition 3.8).
    pub insert_targets: Vec<DeweyId>,
}

/// Applies every atomic operation of `pul` to `doc`, in order.
///
/// Operations whose target no longer exists (e.g. removed by an
/// earlier `del` in the same PUL — XQuery Update applies deletions of
/// already-deleted nodes as no-ops) are skipped.
pub fn apply_pul(doc: &mut Document, pul: &Pul) -> Result<ApplyResult, XmlError> {
    let mut result = ApplyResult::default();
    for op in &pul.ops {
        match op {
            AtomicOp::InsertInto { target, forest } => {
                let Some(parent) = doc.find_node(target) else {
                    continue; // target vanished: no-op
                };
                let roots = parse_forest_into(doc, parent, forest)?;
                for &r in &roots {
                    result.inserted.extend(doc.descendants_or_self(r));
                }
                result.inserted_roots.extend(roots);
                result.insert_targets.push(target.clone());
            }
            AtomicOp::Delete { node } => {
                let Some(target) = doc.find_node(node) else {
                    continue;
                };
                // Capture (ID, label, kind) for Δ⁻ before detaching.
                let doomed = doc.descendants_or_self(target);
                for &n in &doomed {
                    result.deleted.push(DeletedNode {
                        id: doc.dewey(n),
                        label: doc.label_name(doc.node(n).label).to_owned(),
                        kind: doc.node(n).kind,
                    });
                }
                doc.remove_subtree(target)?;
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pul::compute_pul;
    use crate::statement::UpdateStatement;
    use xivm_xml::{parse_document, serialize_document};

    #[test]
    fn insert_assigns_ids_in_new_context() {
        let mut d = parse_document("<a><c/></a>").unwrap();
        let stmt = UpdateStatement::insert("//c", "<b><x/></b>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        assert_eq!(res.inserted_roots.len(), 1);
        assert_eq!(res.inserted.len(), 2, "b and x");
        let b = res.inserted_roots[0];
        let c_label = d.label_id("c").unwrap();
        assert_eq!(d.dewey(b).label_path()[1], c_label, "b sits under c in its ID");
        assert_eq!(serialize_document(&d), "<a><c><b><x/></b></c></a>");
        d.check_invariants().unwrap();
    }

    #[test]
    fn delete_captures_subtree_preorder() {
        let mut d = parse_document("<a><c><b/><b/></c><f/></a>").unwrap();
        let stmt = UpdateStatement::delete("//c").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        let labels: Vec<_> = res.deleted.iter().map(|n| n.label.clone()).collect();
        assert_eq!(labels, vec!["c", "b", "b"]);
        assert_eq!(serialize_document(&d), "<a><f/></a>");
    }

    #[test]
    fn delete_of_vanished_node_is_noop() {
        // //c//b and //c in one PUL: removing c takes b with it; the
        // later del(b) must be a no-op.
        let mut d = parse_document("<a><c><b/></c></a>").unwrap();
        let s1 = UpdateStatement::delete("//c").unwrap();
        let s2 = UpdateStatement::delete("//b").unwrap();
        let mut pul = compute_pul(&d, &s1);
        pul.ops.extend(compute_pul(&d, &s2).ops);
        let res = apply_pul(&mut d, &pul).unwrap();
        // b is reported once (as part of c's subtree), not twice
        assert_eq!(res.deleted.len(), 2);
        assert_eq!(serialize_document(&d), "<a/>");
    }

    #[test]
    fn multi_target_insert() {
        let mut d = parse_document("<r><p/><p/><p/></r>").unwrap();
        let stmt = UpdateStatement::insert("//p", "<n/>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        assert_eq!(res.inserted.len(), 3);
        assert_eq!(res.insert_targets.len(), 3);
        assert_eq!(serialize_document(&d), "<r><p><n/></p><p><n/></p><p><n/></p></r>");
    }

    #[test]
    fn attributes_in_inserted_forest_are_tracked() {
        let mut d = parse_document("<r><p/></r>").unwrap();
        let stmt = UpdateStatement::insert("//p", "<i k=\"1\">t</i>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        // i, @k, #text
        assert_eq!(res.inserted.len(), 3);
    }

    #[test]
    fn noop_detection() {
        let mut d = parse_document("<r/>").unwrap();
        let stmt = UpdateStatement::delete("//missing").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        assert!(res.inserted.is_empty() && res.deleted.is_empty());
    }
}
