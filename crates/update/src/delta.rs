//! Δ⁺ and Δ⁻ tables (Algorithm 2, CD+ / CD−).
//!
//! For every view node labeled `l`, Δ⁺_l holds the `(ID, val, cont)`
//! tuples of the *inserted* nodes matching `l` (with the node's value
//! predicate already applied — the σ(Δ⁺) of Proposition 3.6), and Δ⁻_l
//! holds the IDs of the *deleted* nodes matching `l`. Both are sorted
//! in document order so they can feed structural joins directly.
//!
//! Both are read from the label buckets [`apply_pul`] leaves behind
//! ([`ApplyResult`]): a table is one bucket lookup per view node. The
//! one thing the buckets cannot answer is a value predicate on a
//! *deleted* node — its text is gone once the PUL is applied — so Δ⁻ of
//! predicate-carrying view nodes is collected before the apply
//! ([`DeltaMinus::collect`]: per such node, the stretch of its label's
//! canonical list under each delete root) and completed after it.
//!
//! [`apply_pul`]: crate::apply::apply_pul

use crate::apply::ApplyResult;
use crate::pul::Pul;
use std::borrow::Cow;
use xivm_algebra::{Column, Field, Relation, Schema, Tuple};
use xivm_pattern::compile::relation_from_nodes;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_xml::{DeweyId, Document, NodeId, NodeKind};

/// Δ⁺ tables: one relation per pattern node.
#[derive(Debug, Clone, Default)]
pub struct DeltaPlus {
    tables: Vec<Relation>,
}

impl DeltaPlus {
    /// CD+ (Algorithm 2): builds per-node Δ⁺ relations from the
    /// inserted nodes' label buckets (live in `doc`: the document was
    /// just updated; a node the same PUL deleted again is skipped).
    pub fn compute(doc: &Document, pattern: &TreePattern, applied: &ApplyResult) -> Self {
        let tables = pattern
            .node_ids()
            .map(|pnode| {
                let matching = applied.inserted.matching(doc, &pattern.node(pnode).test);
                relation_from_nodes(doc, pattern, pnode, &matching, true)
            })
            .collect();
        DeltaPlus { tables }
    }

    pub fn table(&self, n: PatternNodeId) -> &Relation {
        &self.tables[n.index()]
    }

    /// σ(Δ⁺_n) = ∅ — the emptiness test of Proposition 3.6.
    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        self.tables.get(n.index()).is_none_or(|r| r.is_empty())
    }

    /// Total number of Δ⁺ tuples across all view nodes.
    pub fn total_len(&self) -> usize {
        self.tables.iter().map(|r| r.len()).sum()
    }
}

/// Δ⁻ tables: per pattern node, the IDs of deleted matching nodes as
/// a one-column, ID-only relation for structural joins.
#[derive(Debug, Clone, Default)]
pub struct DeltaMinus {
    tables: Vec<Relation>,
}

impl DeltaMinus {
    /// The pre-apply half of CD−: Δ⁻ of the *predicate-carrying* view
    /// nodes only, judged on the still-intact document (after deletion
    /// the values are gone). Reads, per such node, the stretch of its
    /// label's canonical list under each maximal delete root — nested
    /// targets overlap — and walks a subtree only for a wildcard. A
    /// view without value predicates builds nothing.
    pub fn collect(doc: &Document, pattern: &TreePattern, pul: &Pul) -> Self {
        if pattern.node_ids().all(|n| pattern.node(n).val_pred.is_none()) {
            return DeltaMinus::default();
        }
        let mut roots: Vec<(&DeweyId, NodeId)> = pul
            .ops
            .iter()
            .filter(|op| !op.is_insert())
            .filter_map(|op| Some((op.target(), doc.find_node(op.target())?)))
            .collect();
        roots.sort_by(|a, b| a.0.doc_cmp(b.0));
        roots.dedup_by(|inner, outer| outer.0.is_ancestor_or_self_of(inner.0));
        let tables = pattern.node_ids().map(|pnode| {
            let pn = pattern.node(pnode);
            // The others are `complete`'s to fill, from the buckets.
            let Some(pred) = &pn.val_pred else { return Relation::default() };
            let mut ids = Vec::new();
            for &(_, root) in &roots {
                let matching = match &pn.test {
                    NodeTest::Name(name) => Cow::Borrowed(
                        doc.label_id(name).map_or(&[][..], |l| doc.canonical_nodes_within(l, root)),
                    ),
                    NodeTest::Wildcard => {
                        let mut all = doc.descendants_or_self(root);
                        all.retain(|&n| doc.node(n).kind == NodeKind::Element);
                        Cow::Owned(all)
                    }
                };
                let satisfying = matching.iter().filter(|&&n| doc.value(n) == *pred);
                ids.extend(satisfying.map(|&n| doc.dewey(n)));
            }
            id_table(pattern, pnode, ids)
        });
        DeltaMinus { tables: tables.collect() }
    }

    /// The post-apply half: every view node without a value predicate
    /// reads its Δ⁻ from the deleted nodes' label buckets.
    pub fn complete(
        mut self,
        doc: &Document,
        pattern: &TreePattern,
        applied: &ApplyResult,
    ) -> Self {
        self.tables.resize_with(pattern.len(), Relation::default);
        for pnode in pattern.node_ids().filter(|&p| pattern.node(p).val_pred.is_none()) {
            let mut ids = applied.deleted.matching(doc, &pattern.node(pnode).test).into_owned();
            if !ids.is_sorted() {
                ids.sort(); // a wildcard's buckets, concatenated
            }
            self.tables[pnode.index()] = id_table(pattern, pnode, ids);
        }
        self
    }

    pub fn table(&self, n: PatternNodeId) -> &Relation {
        &self.tables[n.index()]
    }

    /// The deleted nodes matching `n`, in document order.
    pub fn ids(&self, n: PatternNodeId) -> impl Iterator<Item = &DeweyId> {
        self.table(n).rows.iter().map(|t| &t.field(0).id)
    }

    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        self.table(n).is_empty()
    }

    pub fn total_len(&self) -> usize {
        self.tables.iter().map(|r| r.len()).sum()
    }
}

/// `ids` as the one-column, ID-only relation of pattern node `n`.
fn id_table(pattern: &TreePattern, n: PatternNodeId, ids: Vec<DeweyId>) -> Relation {
    let schema = Schema::new(vec![Column::id_only(&pattern.node(n).name)]);
    Relation::with_rows(
        schema,
        ids.into_iter().map(|id| Tuple::new(vec![Field::id_only(id)])).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_pul;
    use crate::pul::compute_pul;
    use crate::statement::UpdateStatement;
    use std::collections::HashSet;
    use xivm_pattern::parse_pattern;
    use xivm_pattern::PatternNode;
    use xivm_xml::parse_document;

    /// Per pattern node that `wanted` selects (the others stay empty), the
    /// IDs of the nodes under `pul`'s delete targets that match its test
    /// and value predicate in `doc`, in document order.
    fn walk_deleted(
        doc: &Document,
        pattern: &TreePattern,
        pul: &crate::pul::Pul,
        wanted: impl Fn(&PatternNode) -> bool,
    ) -> Vec<Vec<DeweyId>> {
        let mut tables: Vec<Vec<DeweyId>> = vec![Vec::new(); pattern.len()];
        // Resolve pattern node tests to interned label ids once, so the
        // per-deleted-node check is an integer comparison.
        enum Resolved {
            Label(Option<xivm_xml::LabelId>),
            Wildcard,
        }
        let resolved: Vec<(PatternNodeId, Resolved, Option<&str>)> = pattern
            .node_ids()
            .filter(|&pnode| wanted(pattern.node(pnode)))
            .map(|pnode| {
                let pn = pattern.node(pnode);
                let r = match &pn.test {
                    NodeTest::Name(name) => Resolved::Label(doc.label_id(name)),
                    NodeTest::Wildcard => Resolved::Wildcard,
                };
                (pnode, r, pn.val_pred.as_deref())
            })
            .collect();
        if resolved.is_empty() {
            return tables;
        }
        let mut seen: HashSet<NodeId> = HashSet::new();
        for op in &pul.ops {
            let crate::pul::AtomicOp::Delete { node } = op else {
                continue;
            };
            let Some(target) = doc.find_node(node) else {
                continue;
            };
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
                    if !matches || pred.is_some_and(|pred| doc.value(n) != pred) {
                        continue;
                    }
                    let id = id.get_or_insert_with(|| doc.dewey(n));
                    tables[pnode.index()].push(id.clone());
                }
            }
        }
        for ids in &mut tables {
            ids.sort();
        }
        tables
    }

    /// `doc` after `stmt`, with the extraction the apply left behind.
    fn applied(doc_xml: &str, stmt: &UpdateStatement) -> (Document, Pul, ApplyResult) {
        let mut d = parse_document(doc_xml).unwrap();
        let pul = compute_pul(&d, stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        (d, pul, res)
    }

    /// The reference CD+: scan every inserted node against every view
    /// node's test (what `compute` did before the label buckets).
    fn scanned_plus(doc: &Document, pattern: &TreePattern, res: &ApplyResult) -> Vec<Relation> {
        let inserted: Vec<NodeId> =
            res.inserted_roots.iter().flat_map(|&r| doc.descendants_or_self(r)).collect();
        pattern
            .node_ids()
            .map(|pnode| {
                let matching: Vec<NodeId> = inserted
                    .iter()
                    .copied()
                    .filter(|&n| {
                        let node = doc.node(n);
                        match &pattern.node(pnode).test {
                            NodeTest::Name(name) => {
                                node.kind != NodeKind::Text && doc.label_name(node.label) == name
                            }
                            NodeTest::Wildcard => node.kind == NodeKind::Element,
                        }
                    })
                    .collect();
                relation_from_nodes(doc, pattern, pnode, &matching, true)
            })
            .collect()
    }

    /// Δ⁺ from the buckets, checked against the scan.
    fn delta_plus(doc: &Document, pattern: &TreePattern, res: &ApplyResult) -> DeltaPlus {
        let dp = DeltaPlus::compute(doc, pattern, res);
        assert_eq!(dp.tables, scanned_plus(doc, pattern, res), "buckets ≠ scan");
        dp
    }

    /// Δ⁻ from the pre-apply predicate walk plus the buckets, checked
    /// against the reference CD−: the pre-apply walk over *every* view
    /// node.
    fn delta_minus(doc_xml: &str, pattern: &TreePattern, stmt: &UpdateStatement) -> DeltaMinus {
        let before = parse_document(doc_xml).unwrap();
        let (after, pul, res) = applied(doc_xml, stmt);
        let dm = DeltaMinus::collect(&before, pattern, &pul).complete(&after, pattern, &res);
        let walked = walk_deleted(&before, pattern, &pul, |_| true);
        for (n, ids) in pattern.node_ids().zip(&walked) {
            assert_eq!(&dm.ids(n).cloned().collect::<Vec<_>>(), ids, "buckets ≠ walk");
        }
        dm
    }

    /// Example 3.1: inserting <a><b/><b><c/></b></a> yields Δ⁺ tables
    /// with one a, two b's and one c.
    #[test]
    fn example_3_1_delta_plus() {
        let stmt = UpdateStatement::insert("//t", "<a><b/><b><c/></b></a>").unwrap();
        let (d, _, res) = applied("<root><t/></root>", &stmt);
        let v = parse_pattern("//a{id}//b{id}//c{id}").unwrap();
        let dp = delta_plus(&d, &v, &res);
        let order = v.preorder();
        assert_eq!(dp.table(order[0]).len(), 1);
        assert_eq!(dp.table(order[1]).len(), 2);
        assert_eq!(dp.table(order[2]).len(), 1);
        assert_eq!(dp.total_len(), 4);
    }

    /// Example 3.4: xml2 has no c element, so Δ⁺_c = ∅.
    #[test]
    fn example_3_4_missing_label() {
        let stmt = UpdateStatement::insert("//t", "<a><b/><b/></a>").unwrap();
        let (d, _, res) = applied("<root><t/></root>", &stmt);
        let v = parse_pattern("//a{id}//b{id}//c{id}").unwrap();
        let dp = delta_plus(&d, &v, &res);
        let c = v.preorder()[2];
        assert!(dp.is_empty(c));
    }

    /// Example 3.5: value predicate [val=5] filters the new a out of
    /// σ(Δ⁺_a).
    #[test]
    fn example_3_5_value_predicate() {
        let stmt = UpdateStatement::insert("//t", "<a>3<b/><b/></a>").unwrap();
        let (d, _, res) = applied("<root><t/></root>", &stmt);
        let v = parse_pattern("//a[val=\"5\"]//b{id}").unwrap();
        let dp = delta_plus(&d, &v, &res);
        assert!(dp.is_empty(v.root()), "new a fails [val=5], σ(Δ⁺_a) is empty");
        assert_eq!(dp.table(v.preorder()[1]).len(), 2);
    }

    /// Example 4.6-style Δ⁻ extraction.
    #[test]
    fn delta_minus_from_deletions() {
        let doc_xml = "<a><c><b/></c><f><b/></f></a>";
        let stmt = UpdateStatement::delete("//f").unwrap();
        let v = parse_pattern("//c{id}//b{id}").unwrap();
        let dm = delta_minus(doc_xml, &v, &stmt);
        let b = v.preorder()[1];
        assert_eq!(dm.ids(b).count(), 1);
        assert!(dm.is_empty(v.root()), "no c was deleted");
        // The single deleted b has no c ancestor in its label path.
        let d = parse_document(doc_xml).unwrap();
        let c_lbl = d.label_id("c").unwrap();
        assert!(!dm.ids(b).next().unwrap().has_proper_ancestor_labeled(c_lbl));
        let rel = dm.table(b);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.schema.columns[0].name, "b");
    }

    /// `delete //a` hits an `a` inside an `a`: the inner subtree is
    /// walked once, whichever target the apply meets first, and value
    /// predicates are judged on the text being removed.
    #[test]
    fn overlapping_nested_delete_targets() {
        let doc_xml = "<r><a><b>5</b><a><b>5</b><b>7</b></a></a><b>5</b></r>";
        let stmt = UpdateStatement::delete("//a").unwrap();
        for pattern in ["//a{id}//b{id}", "//a{id}//b{id}[val=\"5\"]", "//*{id}//b{id}"] {
            let v = parse_pattern(pattern).unwrap();
            let dm = delta_minus(doc_xml, &v, &stmt);
            let roots = if pattern.starts_with("//*") { 5 } else { 2 };
            assert_eq!(dm.ids(v.root()).count(), roots, "{pattern}: every node once");
            let bs = if pattern.contains("val") { 2 } else { 3 };
            assert_eq!(dm.ids(v.preorder()[1]).count(), bs, "{pattern}");
        }
    }

    /// A sequential transaction's PUL inserts 800 nodes and deletes
    /// them again, with one old node and a surviving forest beside
    /// them: the two arena chunks the dead forest filled are released
    /// when the apply returns, and Δ⁺ / Δ⁻ hold exactly the survivor
    /// and the old node — the dead ones are still listed in
    /// `inserted`, read as dead, and skipped.
    #[test]
    fn a_pul_that_inserts_and_deletes_again_more_than_a_chunk_keeps_its_delta_exact() {
        let mut d = parse_document("<r><t/><u><b/></u></r>").unwrap();
        let forest: String = (0..200).map(|i| format!("<a k=\"{i}\"><b/>x</a>")).collect();
        let mut pul = compute_pul(&d, &UpdateStatement::insert("//t", &forest).unwrap());
        pul.ops
            .extend(compute_pul(&d, &UpdateStatement::insert("//u", "<a><b/></a>").unwrap()).ops);
        let mut scratch = d.clone();
        apply_pul(&mut scratch, &pul).unwrap();
        for doomed in ["//t/a", "//u/b"] {
            pul.ops.extend(compute_pul(&scratch, &UpdateStatement::delete(doomed).unwrap()).ops);
        }
        let before = d.clone();
        let res = apply_pul(&mut d, &pul).unwrap();
        assert_eq!(xivm_xml::serialize_document(&d), "<r><t/><u><a><b/></a></u></r>");
        assert_eq!((d.chunk_count(), d.released_chunks()), (4, 2), "chunks 1 and 2 held only a");
        assert_eq!(res.inserted.len(), 802, "every created node, dead or alive");
        d.check_invariants().unwrap();

        let v = parse_pattern("//a{id}//b{id}").unwrap();
        let (a, b) = (v.root(), v.preorder()[1]);
        let dp = delta_plus(&d, &v, &res);
        assert_eq!((dp.table(a).len(), dp.table(b).len()), (1, 1), "the survivors only");
        let dm = DeltaMinus::collect(&before, &v, &pul).complete(&d, &v, &res);
        assert_eq!((dm.ids(a).count(), dm.ids(b).count()), (0, 1), "the old u/b only");
    }

    #[test]
    fn wildcard_delta_matches_elements_only() {
        let stmt = UpdateStatement::insert("//t", "<i k=\"9\">txt</i>").unwrap();
        let (d, _, res) = applied("<root><t/></root>", &stmt);
        let v = parse_pattern("//*{id}").unwrap();
        let dp = delta_plus(&d, &v, &res);
        assert_eq!(dp.table(v.root()).len(), 1, "only the i element, not @k or text");
    }
}
