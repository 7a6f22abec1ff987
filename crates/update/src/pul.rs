//! Pending update lists (Section 3.4).
//!
//! `compute-pul(u)` evaluates the statement's target path(s) and turns
//! the statement into a list of *atomic* operations over structural
//! IDs: `ins↘(n, forest)` (insert a forest after the last child of
//! `n`) and `del(n)` — the two fundamental operations of Section 5.2.

use crate::statement::UpdateStatement;
use xivm_pattern::xpath::eval_path_counted;
use xivm_xml::{DeweyId, Document, NodeKind, Work};

/// An atomic update operation, addressed by structural ID so PULs are
/// standalone values (they can be optimized away from the store,
/// Section 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicOp {
    /// `ins↘(target, forest)` — append the parsed forest as children.
    InsertInto { target: DeweyId, forest: String },
    /// `del(node)` — remove the subtree rooted at `node`.
    Delete { node: DeweyId },
}

impl AtomicOp {
    /// The target node the operation is addressed to.
    pub fn target(&self) -> &DeweyId {
        match self {
            AtomicOp::InsertInto { target, .. } => target,
            AtomicOp::Delete { node } => node,
        }
    }

    pub fn is_insert(&self) -> bool {
        matches!(self, AtomicOp::InsertInto { .. })
    }
}

/// A pending update list: the ordered atomic operations a statement
/// expands to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pul {
    pub ops: Vec<AtomicOp>,
}

impl Pul {
    pub fn new(ops: Vec<AtomicOp>) -> Self {
        Pul { ops }
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// IDs of all insertion targets (the `p1 … pk` of Proposition 3.8).
    pub fn insert_targets(&self) -> Vec<&DeweyId> {
        self.ops.iter().filter(|o| o.is_insert()).map(|o| o.target()).collect()
    }
}

/// `compute-pul`: expands a statement against the current document.
pub fn compute_pul(doc: &Document, stmt: &UpdateStatement) -> Pul {
    compute_pul_counted(doc, stmt, &mut Work::default())
}

/// [`compute_pul`], counting its value-index lookups in `work.probes`.
pub fn compute_pul_counted(doc: &Document, stmt: &UpdateStatement, work: &mut Work) -> Pul {
    let mut eval_path = |doc, path| eval_path_counted(doc, path, work);
    let mut ops = Vec::new();
    match stmt {
        UpdateStatement::Delete { target } => {
            for n in eval_path(doc, target) {
                ops.push(AtomicOp::Delete { node: doc.dewey(n) });
            }
        }
        UpdateStatement::Insert { target, xml } => {
            for n in eval_path(doc, target) {
                if doc.node(n).kind == NodeKind::Element {
                    ops.push(AtomicOp::InsertInto { target: doc.dewey(n), forest: xml.clone() });
                }
            }
        }
        UpdateStatement::InsertFrom { source, target } => {
            // Evaluate q1 on the *original* document (Section 2.3),
            // then insert the serialized copies under each q2 result.
            let forest: String =
                eval_path(doc, source).into_iter().map(|n| doc.content(n)).collect();
            if forest.is_empty() {
                return Pul::default();
            }
            for n in eval_path(doc, target) {
                if doc.node(n).kind == NodeKind::Element {
                    ops.push(AtomicOp::InsertInto { target: doc.dewey(n), forest: forest.clone() });
                }
            }
        }
        UpdateStatement::Replace { target, xml } => {
            // Lowered to the two fundamental operations: `del(n)` plus
            // `ins↘(parent(n), forest)`. The root has no parent and is
            // skipped; for nested targets the inner ops become no-ops
            // at apply time (their context vanishes with the outer
            // subtree), so only the outermost occurrence is replaced.
            for n in eval_path(doc, target) {
                let Some(parent) = doc.parent_of(n) else { continue };
                if doc.node(parent).kind != NodeKind::Element {
                    continue;
                }
                ops.push(AtomicOp::Delete { node: doc.dewey(n) });
                ops.push(AtomicOp::InsertInto { target: doc.dewey(parent), forest: xml.clone() });
            }
        }
    }
    Pul::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_xml::parse_document;

    fn doc() -> Document {
        parse_document("<a><c><b/></c><f><b/></f></a>").unwrap()
    }

    #[test]
    fn delete_pul_lists_matching_nodes() {
        let d = doc();
        let stmt = UpdateStatement::delete("//c//b").unwrap();
        let pul = compute_pul(&d, &stmt);
        assert_eq!(pul.len(), 1);
        assert!(!pul.ops[0].is_insert());
    }

    #[test]
    fn insert_pul_one_op_per_target() {
        let d = doc();
        let stmt = UpdateStatement::insert("//b", "<x/>").unwrap();
        let pul = compute_pul(&d, &stmt);
        assert_eq!(pul.len(), 2);
        assert_eq!(pul.insert_targets().len(), 2);
    }

    #[test]
    fn insert_skips_non_element_targets() {
        let d = parse_document("<a>txt<b/></a>").unwrap();
        let stmt = UpdateStatement::insert("//a/text()", "<x/>").unwrap();
        assert!(compute_pul(&d, &stmt).is_empty());
    }

    #[test]
    fn insert_from_copies_source_content() {
        let d = parse_document("<r><tpl><i>1</i></tpl><dst/></r>").unwrap();
        let stmt = UpdateStatement::insert_from("//tpl/i", "//dst").unwrap();
        let pul = compute_pul(&d, &stmt);
        assert_eq!(pul.len(), 1);
        match &pul.ops[0] {
            AtomicOp::InsertInto { forest, .. } => assert_eq!(forest, "<i>1</i>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_source_yields_empty_pul() {
        let d = doc();
        let stmt = UpdateStatement::insert_from("//nothing", "//c").unwrap();
        assert!(compute_pul(&d, &stmt).is_empty());
    }

    #[test]
    fn replace_lowers_to_delete_plus_insert_at_parent() {
        let d = doc();
        let stmt = UpdateStatement::replace("//c//b", "<x/>").unwrap();
        let pul = compute_pul(&d, &stmt);
        assert_eq!(pul.len(), 2);
        let AtomicOp::Delete { node } = &pul.ops[0] else { panic!("expected del first") };
        let AtomicOp::InsertInto { target, forest } = &pul.ops[1] else {
            panic!("expected ins second")
        };
        assert_eq!(forest, "<x/>");
        assert!(target.is_parent_of(node), "insert goes to the deleted node's parent");
    }

    #[test]
    fn replace_of_root_is_skipped() {
        let d = doc();
        let stmt = UpdateStatement::replace("/a", "<z/>").unwrap();
        assert!(compute_pul(&d, &stmt).is_empty());
    }

    #[test]
    fn replace_applies_end_to_end() {
        let mut d = parse_document("<a><c><b/></c><f><b/></f></a>").unwrap();
        let stmt = UpdateStatement::replace("//c", "<g><h/></g>").unwrap();
        let pul = compute_pul(&d, &stmt);
        crate::apply::apply_pul(&mut d, &pul).unwrap();
        assert_eq!(
            xivm_xml::serialize_document(&d),
            "<a><f><b/></f><g><h/></g></a>",
            "old subtree removed, replacement appended under the parent"
        );
    }
}
