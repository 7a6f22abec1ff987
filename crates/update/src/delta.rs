//! Δ⁺ and Δ⁻ tables (Algorithm 2, CD+ / CD−).
//!
//! For every view node labeled `l`, Δ⁺_l holds the `(ID, val, cont)`
//! tuples of the *inserted* nodes matching `l` (with the node's value
//! predicate already applied — the σ(Δ⁺) of Proposition 3.6), and Δ⁻_l
//! holds the IDs of the *deleted* nodes matching `l`. Both are sorted
//! in document order so they can feed structural joins directly.

use std::collections::HashMap;
use xivm_algebra::{Column, Field, Relation, Schema, Tuple};
use xivm_pattern::compile::relation_from_nodes;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_xml::{DeweyId, Document, NodeId, NodeKind};

/// Δ⁺ tables: one relation per pattern node.
#[derive(Debug, Clone, Default)]
pub struct DeltaPlus {
    tables: HashMap<PatternNodeId, Relation>,
}

impl DeltaPlus {
    /// CD+ (Algorithm 2): extracts per-node Δ⁺ relations from the
    /// inserted nodes. `inserted` must be live in `doc` (they are: the
    /// document was just updated).
    pub fn compute(doc: &Document, pattern: &TreePattern, inserted: &[NodeId]) -> Self {
        let mut tables = HashMap::new();
        for pnode in pattern.node_ids() {
            let matching: Vec<NodeId> = inserted
                .iter()
                .copied()
                .filter(|&n| node_matches_test(doc, n, pattern.node(pnode).test.clone()))
                .collect();
            let rel = relation_from_nodes(doc, pattern, pnode, &matching, true);
            tables.insert(pnode, rel);
        }
        DeltaPlus { tables }
    }

    pub fn table(&self, n: PatternNodeId) -> &Relation {
        &self.tables[&n]
    }

    /// σ(Δ⁺_n) = ∅ — the emptiness test of Proposition 3.6.
    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        self.tables.get(&n).is_none_or(|r| r.is_empty())
    }

    /// Total number of Δ⁺ tuples across all view nodes.
    pub fn total_len(&self) -> usize {
        self.tables.values().map(|r| r.len()).sum()
    }
}

/// Δ⁻ tables: per pattern node, the IDs of deleted matching nodes.
#[derive(Debug, Clone, Default)]
pub struct DeltaMinus {
    tables: HashMap<PatternNodeId, Vec<DeweyId>>,
}

impl DeltaMinus {
    /// CD−, predicate-aware because it runs *before* the PUL is applied:
    /// walks each delete target's subtree in the still-intact document,
    /// so value predicates on view nodes can be checked against the data
    /// being removed (after deletion the values are gone). Returns the Δ⁻
    /// tables and the IDs of the deleted subtree roots (the engine's
    /// PDMT only needs the roots: a surviving node's content changed
    /// iff it is a proper ancestor of a deleted root).
    pub fn collect(
        doc: &Document,
        pattern: &TreePattern,
        pul: &crate::pul::Pul,
    ) -> (Self, Vec<DeweyId>) {
        use std::collections::HashSet;
        let mut roots: Vec<DeweyId> = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut tables: HashMap<PatternNodeId, Vec<DeweyId>> = HashMap::new();
        for pnode in pattern.node_ids() {
            tables.insert(pnode, Vec::new());
        }
        // Resolve pattern node tests to interned label ids once, so the
        // per-deleted-node check is an integer comparison.
        enum Resolved {
            Label(Option<xivm_xml::LabelId>),
            Wildcard,
        }
        let resolved: Vec<(PatternNodeId, Resolved, Option<&str>)> = pattern
            .node_ids()
            .map(|pnode| {
                let pn = pattern.node(pnode);
                let r = match &pn.test {
                    NodeTest::Name(name) => Resolved::Label(doc.label_id(name)),
                    NodeTest::Wildcard => Resolved::Wildcard,
                };
                (pnode, r, pn.val_pred.as_deref())
            })
            .collect();
        for op in &pul.ops {
            let crate::pul::AtomicOp::Delete { node } = op else {
                continue;
            };
            let Some(target) = doc.find_node(node) else {
                continue;
            };
            roots.push(node.clone());
            for n in doc.descendants_or_self(target) {
                if !seen.insert(n) {
                    continue; // nested delete targets overlap
                }
                let mut id: Option<DeweyId> = None;
                for (pnode, test, pred) in &resolved {
                    let matches = match test {
                        Resolved::Label(l) => Some(doc.node(n).label) == *l,
                        Resolved::Wildcard => doc.node(n).kind == NodeKind::Element,
                    };
                    if !matches {
                        continue;
                    }
                    if let Some(pred) = pred {
                        if doc.value(n) != *pred {
                            continue;
                        }
                    }
                    let id = id.get_or_insert_with(|| doc.dewey(n));
                    tables.get_mut(pnode).expect("prefilled").push(id.clone());
                }
            }
        }
        for ids in tables.values_mut() {
            ids.sort_by(|a, b| a.doc_cmp(b));
            ids.dedup();
        }
        (DeltaMinus { tables }, roots)
    }

    pub fn ids(&self, n: PatternNodeId) -> &[DeweyId] {
        self.tables.get(&n).map_or(&[], |v| v.as_slice())
    }

    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        self.ids(n).is_empty()
    }

    /// Δ⁻_n as a one-column, ID-only relation for structural joins.
    pub fn relation(&self, pattern: &TreePattern, n: PatternNodeId) -> Relation {
        let schema = Schema::new(vec![Column::id_only(&pattern.node(n).name)]);
        let rows =
            self.ids(n).iter().map(|id| Tuple::new(vec![Field::id_only(id.clone())])).collect();
        Relation::with_rows(schema, rows)
    }

    pub fn total_len(&self) -> usize {
        self.tables.values().map(|v| v.len()).sum()
    }
}

fn node_matches_test(doc: &Document, n: NodeId, test: NodeTest) -> bool {
    let node = doc.node(n);
    match test {
        NodeTest::Name(name) => {
            (node.kind == NodeKind::Element || node.kind == NodeKind::Attribute)
                && doc.label_name(node.label) == name
        }
        NodeTest::Wildcard => node.kind == NodeKind::Element,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_pul;
    use crate::pul::compute_pul;
    use crate::statement::UpdateStatement;
    use xivm_pattern::parse_pattern;
    use xivm_xml::parse_document;

    /// Example 3.1: inserting <a><b/><b><c/></b></a> yields Δ⁺ tables
    /// with one a, two b's and one c.
    #[test]
    fn example_3_1_delta_plus() {
        let mut d = parse_document("<root><t/></root>").unwrap();
        let stmt = UpdateStatement::insert("//t", "<a><b/><b><c/></b></a>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        let v = parse_pattern("//a{id}//b{id}//c{id}").unwrap();
        let dp = DeltaPlus::compute(&d, &v, &res.inserted);
        let order = v.preorder();
        assert_eq!(dp.table(order[0]).len(), 1);
        assert_eq!(dp.table(order[1]).len(), 2);
        assert_eq!(dp.table(order[2]).len(), 1);
        assert_eq!(dp.total_len(), 4);
    }

    /// Example 3.4: xml2 has no c element, so Δ⁺_c = ∅.
    #[test]
    fn example_3_4_missing_label() {
        let mut d = parse_document("<root><t/></root>").unwrap();
        let stmt = UpdateStatement::insert("//t", "<a><b/><b/></a>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        let v = parse_pattern("//a{id}//b{id}//c{id}").unwrap();
        let dp = DeltaPlus::compute(&d, &v, &res.inserted);
        let c = v.preorder()[2];
        assert!(dp.is_empty(c));
    }

    /// Example 3.5: value predicate [val=5] filters the new a out of
    /// σ(Δ⁺_a).
    #[test]
    fn example_3_5_value_predicate() {
        let mut d = parse_document("<root><t/></root>").unwrap();
        let stmt = UpdateStatement::insert("//t", "<a>3<b/><b/></a>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        let v = parse_pattern("//a[val=\"5\"]//b{id}").unwrap();
        let dp = DeltaPlus::compute(&d, &v, &res.inserted);
        assert!(dp.is_empty(v.root()), "new a fails [val=5], σ(Δ⁺_a) is empty");
        assert_eq!(dp.table(v.preorder()[1]).len(), 2);
    }

    /// Example 4.6-style Δ⁻ extraction.
    #[test]
    fn delta_minus_from_deletions() {
        let d = parse_document("<a><c><b/></c><f><b/></f></a>").unwrap();
        let stmt = UpdateStatement::delete("//f").unwrap();
        let pul = compute_pul(&d, &stmt);
        let v = parse_pattern("//c{id}//b{id}").unwrap();
        let (dm, roots) = DeltaMinus::collect(&d, &v, &pul);
        assert_eq!(roots.len(), 1, "f is the one deleted subtree root");
        let b = v.preorder()[1];
        assert_eq!(dm.ids(b).len(), 1);
        assert!(dm.is_empty(v.root()), "no c was deleted");
        // The single deleted b has no c ancestor in its label path.
        let c_lbl = d.label_id("c").unwrap();
        assert!(!dm.ids(b)[0].has_proper_ancestor_labeled(c_lbl));
        let rel = dm.relation(&v, b);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.schema.columns[0].name, "b");
    }

    #[test]
    fn wildcard_delta_matches_elements_only() {
        let mut d = parse_document("<root><t/></root>").unwrap();
        let stmt = UpdateStatement::insert("//t", "<i k=\"9\">txt</i>").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        let v = parse_pattern("//*{id}").unwrap();
        let dp = DeltaPlus::compute(&d, &v, &res.inserted);
        assert_eq!(dp.table(v.root()).len(), 1, "only the i element, not @k or text");
    }
}
