//! IVMA — node-at-a-time incremental view maintenance, after Sawires
//! et al. \[2005\].
//!
//! IVMA propagates updates that add or delete *exactly one node* at a
//! time. A statement-level update therefore turns into as many IVMA
//! calls as it touches nodes: inserted forests are replayed node by
//! node (each insertion immediately propagated by navigating the
//! document around the new node), and deleted subtrees are peeled off
//! leaf-first. There are no Δ tables, no term algebra and no
//! structural joins — this is the per-node baseline Figure 28
//! contrasts with the bulk PINT/PIMT pipeline.
//!
//! Node-level propagation has a subtlety the bulk algorithms avoid: a
//! *text* node insertion or removal changes the string values of all
//! its ancestors, which can flip `[val = c]` predicates on view nodes
//! and thereby add or remove embeddings without any structural change.
//! Each text event therefore diffs predicate truth on the ancestor
//! chain and patches the affected embeddings.

use std::collections::HashMap;
use std::sync::Arc;
use xivm_algebra::{Field, Tuple};
use xivm_core::{ViewDelta, ViewStore};
use xivm_pattern::compile::view_tuples;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::{compute_pul, AtomicOp, UpdateStatement};
use xivm_xml::{parse_document, Document, NodeId, NodeKind, XmlError};

/// Predicate-truth overrides for (pattern position, document node)
/// pairs, used to re-evaluate embeddings "as of before" a text event.
type PredOverride = HashMap<(usize, NodeId), bool>;

/// A materialized view maintained node-at-a-time.
pub struct IvmaView {
    pattern: TreePattern,
    order: Vec<PatternNodeId>,
    /// Positions (into `order`) carrying a value predicate.
    pred_positions: Vec<usize>,
    store: ViewStore,
}

impl IvmaView {
    pub fn new(doc: &Document, pattern: TreePattern) -> Self {
        let store = ViewStore::from_counted(&pattern, view_tuples(doc, &pattern));
        let order = pattern.preorder();
        let pred_positions = order
            .iter()
            .enumerate()
            .filter(|(_, &n)| pattern.node(n).val_pred.is_some())
            .map(|(i, _)| i)
            .collect();
        IvmaView { pattern, order, pred_positions, store }
    }

    pub fn store(&self) -> &ViewStore {
        &self.store
    }

    /// Applies an insertion statement one node at a time. Returns the
    /// number of single-node IVMA propagation calls made.
    pub fn apply_insert(
        &mut self,
        doc: &mut Document,
        stmt: &UpdateStatement,
    ) -> Result<usize, XmlError> {
        let pul = compute_pul(doc, stmt);
        let mut calls = 0;
        for op in &pul.ops {
            let AtomicOp::InsertInto { target, forest } = op else {
                continue;
            };
            let Some(parent) = doc.find_node(target) else {
                continue;
            };
            calls += self.replay_forest(doc, parent, forest)?;
        }
        Ok(calls)
    }

    /// Applies a deletion statement one node at a time (leaf-first).
    /// Returns the number of single-node propagation calls made.
    pub fn apply_delete(
        &mut self,
        doc: &mut Document,
        stmt: &UpdateStatement,
    ) -> Result<usize, XmlError> {
        let pul = compute_pul(doc, stmt);
        let mut calls = 0;
        for op in &pul.ops {
            let AtomicOp::Delete { node } = op else {
                continue;
            };
            let Some(target) = doc.find_node(node) else {
                continue;
            };
            // post-order: children before parents, so every removal is
            // a single (by-then) leaf node
            let mut postorder = doc.descendants_or_self(target);
            postorder.reverse();
            for n in postorder {
                calls += 1;
                if doc.node(n).kind == NodeKind::Text {
                    let parent = doc.parent_of(n).expect("text has a parent");
                    let before = self.pred_truth_on_chain(doc, parent);
                    doc.remove_subtree(n)?;
                    self.apply_pred_flips(doc, parent, before);
                } else {
                    self.propagate_single_delete(doc, n);
                    doc.remove_subtree(n)?;
                }
            }
        }
        Ok(calls)
    }

    /// Copies the forest under `parent` node by node, propagating each
    /// node individually.
    fn replay_forest(
        &mut self,
        doc: &mut Document,
        parent: NodeId,
        forest: &str,
    ) -> Result<usize, XmlError> {
        let scratch = parse_document(&format!("<ivma-scratch>{forest}</ivma-scratch>"))?;
        let sroot = scratch.root().expect("scratch root");
        let mut mapping: Vec<Option<NodeId>> = vec![None; scratch.arena_len()];
        mapping[sroot.index()] = Some(parent);
        let mut calls = 0;
        for sn in scratch.descendants_or_self(sroot) {
            if sn == sroot {
                continue;
            }
            let sparent = scratch.parent_of(sn).expect("non-root");
            let real_parent = mapping[sparent.index()].expect("parents visited first");
            let node = &scratch.node(sn);
            calls += 1;
            match node.kind {
                NodeKind::Element => {
                    let new = doc.append_element(real_parent, scratch.label_name(node.label))?;
                    mapping[sn.index()] = Some(new);
                    self.propagate_single_insert(doc, new);
                }
                NodeKind::Attribute => {
                    let new = doc.append_attribute(
                        real_parent,
                        scratch.label_name(node.label).trim_start_matches('@'),
                        node.text.as_deref().unwrap_or(""),
                    )?;
                    mapping[sn.index()] = Some(new);
                    self.propagate_single_insert(doc, new);
                }
                NodeKind::Text => {
                    let before = self.pred_truth_on_chain(doc, real_parent);
                    let new = doc.append_text(real_parent, node.text.as_deref().unwrap_or(""))?;
                    mapping[sn.index()] = Some(new);
                    self.apply_pred_flips(doc, real_parent, before);
                }
            }
        }
        Ok(calls)
    }

    // ------------------------------------------------------------------
    // Structural single-node propagation
    // ------------------------------------------------------------------

    fn propagate_single_insert(&mut self, doc: &Document, node: NodeId) {
        let gained = self.embeddings_through(doc, node);
        self.patch(gained.iter().map(|emb| (self.project(doc, emb), 1)).collect());
    }

    fn propagate_single_delete(&mut self, doc: &Document, node: NodeId) {
        let lost = self.embeddings_through(doc, node);
        self.patch(lost.iter().map(|emb| (self.key_of(doc, emb), -1)).collect());
    }

    /// Embeddings in any order, many to a tuple: consolidated into one
    /// signed run for the store's writer.
    fn patch(&mut self, changes: Vec<(Tuple, i64)>) {
        ViewDelta::new(changes).replay(&mut self.store);
    }

    /// All embeddings in which `node` is the image of at least one
    /// pattern node, each counted once (anchored at the first pattern
    /// position binding it).
    fn embeddings_through(&self, doc: &Document, node: NodeId) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        for pos in 0..self.order.len() {
            if !self.label_matches(doc, node, self.order[pos])
                || !self.pred_ok(doc, pos, node, None)
            {
                continue;
            }
            let mut assignment = vec![None; self.order.len()];
            assignment[pos] = Some(node);
            let mut found = Vec::new();
            self.extend(doc, 0, pos, node, None, &mut assignment, &mut found);
            for emb in found {
                // dedup: anchored at the FIRST position binding the node
                if emb.iter().position(|&n| n == node) == Some(pos) {
                    out.push(emb);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Value-predicate flips on text events
    // ------------------------------------------------------------------

    /// Truth of every value predicate on the ancestor-or-self chain of
    /// `from`, as of the current document state.
    fn pred_truth_on_chain(&self, doc: &Document, from: NodeId) -> Vec<((usize, NodeId), bool)> {
        let mut out = Vec::new();
        let mut cur = Some(from);
        while let Some(n) = cur {
            for &pos in &self.pred_positions {
                if self.label_matches(doc, n, self.order[pos]) {
                    out.push(((pos, n), self.pred_ok(doc, pos, n, None)));
                }
            }
            cur = doc.parent_of(n);
        }
        out
    }

    /// After a text change below `from`, diffs predicate truth and
    /// patches the embeddings that appeared or disappeared.
    fn apply_pred_flips(
        &mut self,
        doc: &Document,
        _from: NodeId,
        before: Vec<((usize, NodeId), bool)>,
    ) {
        let mut gained: Vec<(usize, NodeId)> = Vec::new();
        let mut lost: Vec<(usize, NodeId)> = Vec::new();
        let mut before_map: PredOverride = HashMap::new();
        for ((pos, n), was) in before {
            before_map.insert((pos, n), was);
            let now = self.pred_ok(doc, pos, n, None);
            if was && !now {
                lost.push((pos, n));
            } else if !was && now {
                gained.push((pos, n));
            }
        }
        // Embeddings that were valid before and use ≥1 lost pair:
        // enumerate in the before-truth world, anchored at their first
        // lost pair.
        for (i, &(pos, n)) in lost.iter().enumerate() {
            let mut assignment = vec![None; self.order.len()];
            assignment[pos] = Some(n);
            let mut found = Vec::new();
            self.extend(doc, 0, pos, n, Some(&before_map), &mut assignment, &mut found);
            for emb in found {
                if first_pair_index(&lost, &emb) == Some(i) {
                    self.patch(vec![(self.key_of(doc, &emb), -1)]);
                }
            }
        }
        // Embeddings valid now that use ≥1 gained pair.
        for (i, &(pos, n)) in gained.iter().enumerate() {
            let mut assignment = vec![None; self.order.len()];
            assignment[pos] = Some(n);
            let mut found = Vec::new();
            self.extend(doc, 0, pos, n, None, &mut assignment, &mut found);
            for emb in found {
                if first_pair_index(&gained, &emb) == Some(i) {
                    self.patch(vec![(self.project(doc, &emb), 1)]);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Anchored backtracking search
    // ------------------------------------------------------------------

    /// Backtracking over pattern pre-order with one pre-assigned
    /// (anchored) position. Candidates for pattern ancestors of the
    /// anchor come from the document ancestors of the anchored node
    /// (upward navigation); everything else navigates downward from
    /// its assigned parent. `overrides` substitutes predicate truth
    /// for re-evaluating the pre-event state.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        &self,
        doc: &Document,
        pos: usize,
        anchor_pos: usize,
        anchor: NodeId,
        overrides: Option<&PredOverride>,
        assignment: &mut Vec<Option<NodeId>>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if pos == self.order.len() {
            out.push(assignment.iter().map(|a| a.expect("complete")).collect());
            return;
        }
        if assignment[pos].is_some() {
            if self.edge_ok(doc, pos, assignment) {
                self.extend(doc, pos + 1, anchor_pos, anchor, overrides, assignment, out);
            }
            return;
        }
        let pnode = self.order[pos];
        let anchor_pnode = self.order[anchor_pos];
        let candidates: Vec<NodeId> = if self.pattern.is_ancestor(pnode, anchor_pnode) {
            // upward navigation
            let mut anc = Vec::new();
            let mut cur = doc.parent_of(anchor);
            while let Some(p) = cur {
                anc.push(p);
                cur = doc.parent_of(p);
            }
            anc
        } else {
            let parent_pnode = self.pattern.node(pnode).parent.expect("non-root or anchored");
            let ppos = self.order.iter().position(|&n| n == parent_pnode).expect("before");
            let base = assignment[ppos].expect("parent assigned first");
            match self.pattern.node(pnode).edge {
                xivm_algebra::Axis::Child => doc.children_of(base).to_vec(),
                xivm_algebra::Axis::Descendant => {
                    doc.descendants_or_self(base).into_iter().filter(|&n| n != base).collect()
                }
            }
        };
        for c in candidates {
            if !self.label_matches(doc, c, pnode) || !self.pred_ok(doc, pos, c, overrides) {
                continue;
            }
            assignment[pos] = Some(c);
            if self.edge_ok(doc, pos, assignment) {
                self.extend(doc, pos + 1, anchor_pos, anchor, overrides, assignment, out);
            }
            assignment[pos] = None;
        }
    }

    /// Checks the structural edge between `pos` and its pattern parent
    /// under the current assignment, plus document-root anchoring.
    fn edge_ok(&self, doc: &Document, pos: usize, assignment: &[Option<NodeId>]) -> bool {
        if pos == 0 {
            let root_edge = self.pattern.node(self.order[0]).edge;
            if root_edge == xivm_algebra::Axis::Child {
                return doc.root() == assignment[0];
            }
            return true;
        }
        let pnode = self.order[pos];
        let parent_pnode = self.pattern.node(pnode).parent.expect("non-root");
        let ppos = self.order.iter().position(|&n| n == parent_pnode).expect("before");
        let (Some(upper), Some(lower)) = (assignment[ppos], assignment[pos]) else {
            return true; // anchor's parent not yet bound: checked when bound
        };
        let upper_id = doc.dewey(upper);
        let lower_id = doc.dewey(lower);
        match self.pattern.node(pnode).edge {
            xivm_algebra::Axis::Child => upper_id.is_parent_of(&lower_id),
            xivm_algebra::Axis::Descendant => upper_id.is_ancestor_of(&lower_id),
        }
    }

    fn label_matches(&self, doc: &Document, n: NodeId, pnode: PatternNodeId) -> bool {
        let p = self.pattern.node(pnode);
        let node = doc.node(n);
        match &p.test {
            NodeTest::Name(name) => {
                (node.kind == NodeKind::Element || node.kind == NodeKind::Attribute)
                    && doc.label_name(node.label) == name
            }
            NodeTest::Wildcard => node.kind == NodeKind::Element,
        }
    }

    fn pred_ok(
        &self,
        doc: &Document,
        pos: usize,
        n: NodeId,
        overrides: Option<&PredOverride>,
    ) -> bool {
        let Some(pred) = &self.pattern.node(self.order[pos]).val_pred else {
            return true;
        };
        if let Some(map) = overrides {
            if let Some(&truth) = map.get(&(pos, n)) {
                return truth;
            }
        }
        doc.value(n) == *pred
    }

    fn key_of(&self, doc: &Document, emb: &[NodeId]) -> Tuple {
        let fields = self
            .pattern
            .stored_nodes()
            .iter()
            .map(|&s| {
                let pos = self.order.iter().position(|&n| n == s).expect("stored in order");
                Field::id_only(doc.dewey(emb[pos]))
            })
            .collect();
        Tuple::new(fields)
    }

    fn project(&self, doc: &Document, emb: &[NodeId]) -> Tuple {
        let fields = self
            .pattern
            .stored_nodes()
            .iter()
            .map(|&s| {
                let pos = self.order.iter().position(|&n| n == s).expect("stored in order");
                let n = emb[pos];
                let ann = self.pattern.node(s).ann;
                Field::new(
                    doc.dewey(n),
                    ann.val.then(|| Arc::from(doc.value(n).as_str())),
                    ann.cont.then(|| Arc::from(doc.content(n).as_str())),
                )
            })
            .collect();
        Tuple::new(fields)
    }
}

/// Index of the first pair `(pos, node)` of `pairs` used by the
/// embedding.
fn first_pair_index(pairs: &[(usize, NodeId)], emb: &[NodeId]) -> Option<usize> {
    pairs.iter().position(|&(pos, node)| emb[pos] == node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;

    fn check_insert(doc_xml: &str, pattern: &str, path: &str, xml: &str) -> usize {
        let mut doc = parse_document(doc_xml).unwrap();
        let p = parse_pattern(pattern).unwrap();
        let mut view = IvmaView::new(&doc, p.clone());
        let stmt = UpdateStatement::insert(path, xml).unwrap();
        let calls = view.apply_insert(&mut doc, &stmt).unwrap();
        let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
        assert!(
            view.store().same_content_as(&expected),
            "{pattern} after insert {xml} into {path}:\n{}",
            view.store().diff_description(&expected)
        );
        calls
    }

    fn check_delete(doc_xml: &str, pattern: &str, path: &str) -> usize {
        let mut doc = parse_document(doc_xml).unwrap();
        let p = parse_pattern(pattern).unwrap();
        let mut view = IvmaView::new(&doc, p.clone());
        let stmt = UpdateStatement::delete(path).unwrap();
        let calls = view.apply_delete(&mut doc, &stmt).unwrap();
        let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
        assert!(
            view.store().same_content_as(&expected),
            "{pattern} after delete {path}:\n{}",
            view.store().diff_description(&expected)
        );
        calls
    }

    #[test]
    fn one_call_per_inserted_node() {
        // the Figure 28 workload: a root with four children = 5 calls
        let calls = check_insert("<a><b/></a>", "//a{id}//b{id}", "//a", "<b><x/><x/><x/><x/></b>");
        assert_eq!(calls, 5);
    }

    #[test]
    fn insert_chain_matches_bulk_semantics() {
        check_insert("<a><b/></a>", "//a{id}//b{id}//c{id}", "//b", "<c><c/></c>");
        check_insert("<a><c><b/></c></a>", "//a{id}[//c]//b{id}", "//c", "<b/>");
    }

    #[test]
    fn repeated_label_patterns_do_not_double_count() {
        // //a//a: a new inner a participates as both pattern positions
        check_insert("<a><a/></a>", "//a{id}//a{id}", "//a", "<a/>");
    }

    #[test]
    fn delete_peels_subtrees_leaf_first() {
        let calls = check_delete("<a><c><b/><b/></c><f><b/></f></a>", "//a{id}//b{id}", "//c");
        assert_eq!(calls, 3, "c and its two b children");
    }

    #[test]
    fn delete_with_existential_branch() {
        check_delete("<a><c><b/></c><f><b/></f></a>", "//a{id}[//b]", "//c");
        check_delete("<a><c><b/></c><f><b/></f></a>", "//a{id}[//b]", "//c//b");
    }

    #[test]
    fn document_rooted_patterns() {
        check_insert(
            "<site><people><person/></people></site>",
            "/site{id}/people{id}/person{id}",
            "/site/people",
            "<person><name>x</name></person>",
        );
    }

    #[test]
    fn value_predicate_flips_true_on_text_arrival() {
        // the inserted <a> matches [val="5"] only once its text lands
        check_insert("<r><a>5</a><t/></r>", "//a{id}[val=\"5\"]", "//t", "<a>5</a>");
    }

    #[test]
    fn value_predicate_flips_false_on_more_text() {
        // appending text to a matched node un-matches it
        check_insert("<r><a>5</a></r>", "//a{id}[val=\"5\"]", "//a", "<x>9</x>");
    }

    #[test]
    fn value_predicate_under_deletion() {
        // removing the text below `a` un-matches [val="5"]
        check_delete("<r><a>5<x><q/></x></a></r>", "//a{id}[val=\"5\"]", "//a/x");
        // removing noise text restores the match
        check_delete("<r><a>5<x>junk</x></a></r>", "//a{id}[val=\"5\"]", "//a/x");
    }

    #[test]
    fn predicate_on_branch_node() {
        check_insert(
            "<r><o><b><i>4.50</i></b></o><o><b><i>1.00</i></b></o></r>",
            "//o{id}[//i[val=\"4.50\"]]//b{id}",
            "//o",
            "<b><i>4.50</i></b>",
        );
    }
}
