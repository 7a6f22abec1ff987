//! Δ⁺ and Δ⁻ tables (Algorithm 2, CD+ / CD−).
//!
//! For every view node labeled `l`, Δ⁺_l holds the `(ID, val, cont)`
//! tuples of the *inserted* nodes matching `l` (with the node's value
//! predicate already applied — the σ(Δ⁺) of Proposition 3.6), and Δ⁻_l
//! holds the IDs of the *deleted* nodes matching `l`. Both are sorted
//! in document order so they can feed structural joins directly.
//!
//! Both are read from the label buckets [`apply_pul`] leaves behind
//! ([`ApplyResult`]): a table is one bucket lookup per view node, plus
//! σ and the anchored-root filter. An inserted node's entry carries the
//! ID the graft built and the value and content its forest node shares
//! with every copy ([`ApplyResult::added`]), so [`DeltaPlus::compute`]
//! reads no document text. A value predicate on a *deleted* node is
//! judged on the value the removal walk read before the text went
//! ([`ApplyResult::deleted_valued`]), so Δ⁻ is one post-apply
//! [`DeltaMinus::compute`], like Δ⁺. The references they are checked
//! against: `relation_from_nodes` over [`ApplyResult::inserted`] for
//! Δ⁺, which reads every node off the document, and [`walk_deleted`]
//! for Δ⁻, a walk of the intact document under every delete target.
//!
//! [`apply_pul`]: crate::apply::apply_pul

use crate::apply::ApplyResult;
use crate::pul::{AtomicOp, Pul};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::sync::Arc;
use xivm_algebra::{Axis, Column, Field, Relation, Schema, Tuple};
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_xml::{DeweyId, Document, LabelId, NodeId, NodeKind};

/// Δ⁺ tables: one relation per pattern node.
#[derive(Debug, Clone, Default)]
pub struct DeltaPlus {
    tables: Vec<Relation>,
}

impl DeltaPlus {
    /// CD+ (Algorithm 2): builds per-node Δ⁺ relations from the entries
    /// the apply built for the inserted nodes ([`ApplyResult::added`]),
    /// keeping those alive in `doc` — the updated document — that pass
    /// the node's value predicate and, for a `/`-anchored root, sit at
    /// the root. The apply must have been asked for the node's label,
    /// and for its value and content where the node reads them, as
    /// [`DeltaLabels::of`](crate::apply::DeltaLabels::of) asks.
    pub fn compute(doc: &Document, pattern: &TreePattern, applied: &ApplyResult) -> Self {
        let tables = pattern.node_ids().map(|pnode| {
            let pn = pattern.node(pnode);
            let want_val = pn.ann.val || pn.val_pred.is_some();
            let anchored = pnode == pattern.root() && pn.edge == Axis::Child;
            let labels: Vec<_> = match &pn.test {
                NodeTest::Name(name) => doc.label_id(name).into_iter().collect(),
                NodeTest::Wildcard => applied.inserted.element_labels().collect(),
            };
            let mut rows = Vec::new();
            for label in labels {
                let added = applied.added.get(label);
                let asked = added.len() == applied.inserted.get(label).len();
                assert!(asked, "the apply was not asked for {label:?}");
                for entry in added {
                    if !doc.is_alive(entry.node) || (anchored && entry.id.depth() != 1) {
                        continue;
                    }
                    let read = |text: &Option<Arc<str>>| text.clone().expect("asked for");
                    let val = want_val.then(|| read(&entry.val));
                    if pn.val_pred.as_deref().is_some_and(|pred| val.as_deref() != Some(pred)) {
                        continue;
                    }
                    let cont = pn.ann.cont.then(|| read(&entry.cont));
                    rows.push(Tuple::new(vec![Field::new(entry.id.clone(), val, cont)]));
                }
            }
            let schema = Schema::new(vec![Column::with(&pn.name, want_val, pn.ann.cont)]);
            let mut table = Relation::with_rows(schema, rows);
            if !table.is_sorted_by_col(0) {
                table.sort_by_col(0); // a wildcard's buckets, concatenated
            }
            table
        });
        DeltaPlus { tables: tables.collect() }
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

/// Whether `n` is a *witness*: a pattern node at and below which the
/// view stores nothing. The only nodes whose Δ⁻ table the engine builds
/// ([`DeltaMinus::compute`]), so the only labels, besides a value
/// predicate's, whose removed nodes need their IDs
/// ([`DeltaLabels::of`](crate::apply::DeltaLabels::of)).
pub fn is_witness(pattern: &TreePattern, n: PatternNodeId) -> bool {
    let stored = |s| pattern.node(s).ann.any() && (s == n || pattern.is_ancestor(n, s));
    !pattern.node_ids().any(stored)
}

/// Δ⁻ tables: per pattern node, the IDs of deleted matching nodes as
/// a one-column, ID-only relation for structural joins — and whether
/// any deleted node matches it, also where no table is kept. A table is
/// built when it is first read: a term pruned before evaluation reads
/// none of its own.
#[derive(Debug)]
pub struct DeltaMinus<'a> {
    doc: &'a Document,
    pattern: &'a TreePattern,
    applied: &'a ApplyResult,
    /// Per pattern node: whether its table is kept, whether a deleted
    /// node matches it, and the table once read.
    kept: Vec<bool>,
    lost: Vec<bool>,
    tables: Vec<OnceCell<Relation>>,
}

impl<'a> DeltaMinus<'a> {
    /// CD− for the *witness* nodes: the pattern nodes below which the
    /// view stores nothing. Every other node's table is left empty, its
    /// emptiness ([`Self::is_empty`]) still judged. A row that binds a
    /// deleted node at a stored column lost every derivation, and the
    /// engine removes it by range; a Δ-set is descendant-closed, so a
    /// term with a stored node in it finds only such rows. The terms
    /// left — every Δ node a witness — find the derivations a surviving
    /// row lost ([`Self::complete`] keeps every table).
    pub fn compute(doc: &'a Document, pattern: &'a TreePattern, applied: &'a ApplyResult) -> Self {
        Self::new(doc, pattern, applied, |n| is_witness(pattern, n))
    }

    /// CD− for every pattern node: per node, the deleted nodes' IDs from
    /// their label buckets (`doc` is the updated document; it only
    /// resolves names). A predicate-carrying node keeps the deleted nodes
    /// whose pre-apply value satisfies it. The apply must have built the
    /// IDs of every label the pattern names, and valued a predicate's:
    /// [`DeltaLabels::all`](crate::apply::DeltaLabels::all) does,
    /// [`DeltaLabels::of`](crate::apply::DeltaLabels::of) only for the
    /// witnesses. The full Δ⁻ terms over these tables are the reference
    /// the engine's range-plus-witness deletion is checked against.
    pub fn complete(doc: &'a Document, pattern: &'a TreePattern, applied: &'a ApplyResult) -> Self {
        Self::new(doc, pattern, applied, |_| true)
    }

    /// A node's loss is judged on its labels' counts, or for a value
    /// predicate on the values; a kept table's labels must have IDs.
    fn new(
        doc: &'a Document,
        pattern: &'a TreePattern,
        applied: &'a ApplyResult,
        kept: impl Fn(PatternNodeId) -> bool,
    ) -> Self {
        let kept: Vec<bool> = pattern.node_ids().map(kept).collect();
        let tables = vec![OnceCell::new(); pattern.len()];
        let mut minus = DeltaMinus { doc, pattern, applied, kept, lost: Vec::new(), tables };
        let deleted = &applied.deleted;
        for n in pattern.node_ids().filter(|n| minus.kept[n.index()]) {
            for label in minus.labels(n) {
                let asked = deleted.get(label).len() == deleted.count(label);
                assert!(asked, "the apply was not asked for the IDs of {label:?}");
            }
        }
        minus.lost = (pattern.node_ids())
            .map(|n| match pattern.node(n).val_pred {
                Some(_) => minus.matching(n).next().is_some(),
                None => deleted.touches(doc, &pattern.node(n).test),
            })
            .collect();
        minus
    }

    /// The labels `n`'s test ranges over among the deleted nodes.
    fn labels(&self, n: PatternNodeId) -> Vec<LabelId> {
        match &self.pattern.node(n).test {
            NodeTest::Name(name) => self.doc.label_id(name).into_iter().collect(),
            NodeTest::Wildcard => self.applied.deleted.element_labels().collect(),
        }
    }

    /// The deleted nodes that pass `n`'s test and value predicate, by
    /// label bucket.
    fn matching(&self, n: PatternNodeId) -> Box<dyn Iterator<Item = &'a DeweyId> + 'a> {
        let (pn, deleted) = (self.pattern.node(n), &self.applied.deleted);
        let labels = self.labels(n);
        match pn.val_pred.as_deref() {
            None => Box::new(labels.into_iter().flat_map(move |l| deleted.get(l))),
            Some(pred) => Box::new(
                (labels.into_iter().flat_map(|l| self.applied.deleted_valued(l)))
                    .filter(move |(_, value)| *value == pred)
                    .map(|(id, _)| id),
            ),
        }
    }

    /// Δ⁻_n in document order, built on first read — empty where no
    /// table is kept.
    pub fn table(&self, n: PatternNodeId) -> &Relation {
        self.tables[n.index()].get_or_init(|| {
            let mut ids: Vec<DeweyId> = Vec::new();
            if self.kept[n.index()] {
                ids.extend(self.matching(n).cloned());
            }
            if !ids.is_sorted() {
                ids.sort(); // a wildcard's buckets, concatenated
            }
            id_table(self.pattern, n, ids)
        })
    }

    /// The deleted nodes matching `n`, in document order.
    pub fn ids(&self, n: PatternNodeId) -> impl Iterator<Item = &DeweyId> {
        self.table(n).rows.iter().map(|t| &t.field(0).id)
    }

    /// Whether a node of `n`'s kept table passes `test` — read off the
    /// buckets, without building the table.
    pub fn any(&self, n: PatternNodeId, test: impl FnMut(&DeweyId) -> bool) -> bool {
        self.kept[n.index()] && self.matching(n).any(test)
    }

    /// Whether `n`'s table is kept ([`Self::compute`]: `n` is a witness).
    pub fn is_kept(&self, n: PatternNodeId) -> bool {
        self.kept[n.index()]
    }

    /// No deleted node matches `n` — whether or not its table is kept.
    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        !self.lost[n.index()]
    }

    /// Some kept table holds a node — known without building any.
    pub fn kept_any(&self) -> bool {
        self.kept.iter().zip(&self.lost).any(|(&kept, &lost)| kept && lost)
    }

    /// Total number of Δ⁻ tuples in the kept tables (building them all).
    pub fn total_len(&self) -> usize {
        self.pattern.node_ids().map(|n| self.table(n).len()).sum()
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

/// The reference CD−: per pattern node, the IDs of the nodes under
/// `pul`'s delete targets that match its test and value predicate in
/// `doc` — the document *before* the apply — in document order. A
/// walk of every deleted subtree per commit, against which the tables
/// [`DeltaMinus::compute`] reads off the apply are tested.
pub fn walk_deleted(doc: &Document, pattern: &TreePattern, pul: &Pul) -> Vec<Vec<DeweyId>> {
    let mut tables: Vec<Vec<DeweyId>> = vec![Vec::new(); pattern.len()];
    // Names resolved once: `None` for a wildcard, `Some(None)` for a
    // label the document never saw.
    let tests: Vec<_> = pattern
        .node_ids()
        .map(|p| match &pattern.node(p).test {
            NodeTest::Name(name) => Some(doc.label_id(name)),
            NodeTest::Wildcard => None,
        })
        .collect();
    let mut seen: HashSet<NodeId> = HashSet::new();
    for op in &pul.ops {
        let AtomicOp::Delete { node } = op else { continue };
        let Some(target) = doc.find_node(node) else { continue };
        for n in doc.descendants_or_self(target) {
            if !seen.insert(n) {
                continue; // nested delete targets overlap
            }
            let node = doc.node(n);
            for (pnode, test) in pattern.node_ids().zip(&tests) {
                let matches = match test {
                    Some(label) => *label == Some(node.label),
                    None => node.kind == NodeKind::Element,
                };
                let pred = pattern.node(pnode).val_pred.as_ref();
                if matches && pred.is_none_or(|pred| doc.value(n) == *pred) {
                    tables[pnode.index()].push(doc.dewey(n));
                }
            }
        }
    }
    for ids in &mut tables {
        ids.sort();
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_pul, apply_pul_for, DeltaLabels};
    use crate::pul::compute_pul;
    use crate::statement::UpdateStatement;
    use xivm_pattern::compile::relation_from_nodes;
    use xivm_pattern::parse_pattern;
    use xivm_xml::parse_document;

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

    /// Δ⁻ from the buckets, checked against the reference CD−, the
    /// pre-apply walk, under both extractions: the complete one
    /// ([`DeltaLabels::all`]) builds every table the walk builds; the
    /// pattern's own ([`DeltaLabels::of`]) builds the IDs of its
    /// witnesses and predicates alone, so its witness tables equal the
    /// walk's — the other tables are empty — and every node's loss
    /// agrees with the walk. Returns the complete tables, by pattern
    /// node.
    fn delta_minus(doc_xml: &str, pattern: &TreePattern, stmt: &UpdateStatement) -> Vec<Relation> {
        let before = parse_document(doc_xml).unwrap();
        let pul = compute_pul(&before, stmt);
        let walked = walk_deleted(&before, pattern, &pul);
        let (after, _, res) = applied(doc_xml, stmt);
        let complete = DeltaMinus::complete(&after, pattern, &res);
        for (n, ids) in pattern.node_ids().zip(&walked) {
            assert_eq!(&complete.ids(n).cloned().collect::<Vec<_>>(), ids, "buckets ≠ walk");
        }
        let mut after = before.clone();
        let own = apply_pul_for(&mut after, &pul, &DeltaLabels::of(&before, [pattern])).unwrap();
        let witness = DeltaMinus::compute(&after, pattern, &own);
        for (n, ids) in pattern.node_ids().zip(&walked) {
            let stored = |s| pattern.node(s).ann.any() && (s == n || pattern.is_ancestor(n, s));
            let expected = if pattern.node_ids().any(stored) { &[] } else { &ids[..] };
            assert_eq!(witness.ids(n).cloned().collect::<Vec<_>>(), expected, "{n:?}");
            assert_eq!(witness.is_empty(n), ids.is_empty(), "{n:?} lost nodes");
        }
        pattern.node_ids().map(|n| complete.table(n).clone()).collect()
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

    /// Labels the seed never saw, introduced by the forest and named by
    /// the view: the view's own extraction, resolved before the apply,
    /// still gives their copies entries — valued, with content — and
    /// leaves out the label nobody names.
    #[test]
    fn labels_the_forest_introduces_are_extracted_for_the_view_naming_them() {
        let before = parse_document("<r><t/><t/></r>").unwrap();
        let stmt = UpdateStatement::insert("//t", "<e k=\"1\">5<f/></e>").unwrap();
        let pul = compute_pul(&before, &stmt);
        let v = parse_pattern("//e{id,val}[val=\"5\"]//f{id,cont}").unwrap();
        let mut after = before.clone();
        let res = apply_pul_for(&mut after, &pul, &DeltaLabels::of(&before, [&v])).unwrap();
        let dp = delta_plus(&after, &v, &res);
        assert_eq!((dp.table(v.root()).len(), dp.table(v.preorder()[1]).len()), (2, 2));
        assert_eq!(res.added.len(), 4, "e and f, not @k or #text");
    }

    /// Example 4.6-style Δ⁻ extraction; and under a view whose `f`
    /// branch stores nothing, a witness, the deleted `f` has its ID in
    /// the view's own extraction too.
    #[test]
    fn delta_minus_from_deletions() {
        let doc_xml = "<a><c><b/></c><f><b/></f></a>";
        let stmt = UpdateStatement::delete("//f").unwrap();
        let v = parse_pattern("//c{id}//b{id}").unwrap();
        let dm = delta_minus(doc_xml, &v, &stmt);
        let b = v.preorder()[1].index();
        assert_eq!(dm[b].len(), 1);
        assert!(dm[v.root().index()].is_empty(), "no c was deleted");
        // The single deleted b has no c ancestor in its label path.
        let d = parse_document(doc_xml).unwrap();
        let c_lbl = d.label_id("c").unwrap();
        assert!(!dm[b].rows[0].field(0).id.has_proper_ancestor_labeled(c_lbl));
        let rel = &dm[b];
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.schema.columns[0].name, "b");
        let w = parse_pattern("//a{id}[//f]//b{id}").unwrap();
        let f = w.node_ids().find(|&n| w.node(n).name == "f").unwrap();
        assert!(is_witness(&w, f));
        assert_eq!(delta_minus(doc_xml, &w, &stmt)[f.index()].len(), 1, "the deleted f");
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
            assert_eq!(dm[v.root().index()].len(), roots, "{pattern}: every node once");
            let bs = if pattern.contains("val") { 2 } else { 3 };
            assert_eq!(dm[v.preorder()[1].index()].len(), bs, "{pattern}");
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
        let dm = DeltaMinus::complete(&d, &v, &res);
        let walked = walk_deleted(&before, &v, &pul);
        assert_eq!(dm.ids(b).cloned().collect::<Vec<_>>(), walked[b.index()]);
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
