//! Algebraic compilation and evaluation of tree patterns (Figure 4).
//!
//! A pattern `v` over nodes `a1 … ak` is evaluated as
//! `e_v(σ_{a1}(R_{a1}) ⋈ … ⋈ σ_{ak}(R_{ak}))` where the joins follow
//! the pattern's `/` / `//` edges and `e_v` is projection onto the
//! stored columns, duplicate elimination (with derivation counts) and
//! sort. This module builds the canonical-relation scans, the join
//! plan, and exposes [`view_tuples`] — the materialized view content.

use crate::pattern::{NodeTest, PatternNodeId, TreePattern};
use std::sync::Arc;
use xivm_algebra::ops;
use xivm_algebra::{Axis, Column, Field, Plan, Relation, Schema, Tuple};
use xivm_xml::{Document, NodeId, NodeKind};

/// Column order of a compiled pattern: pre-order over pattern nodes.
pub fn column_order(pattern: &TreePattern) -> Vec<PatternNodeId> {
    pattern.preorder()
}

/// The document nodes a pattern node's test ranges over: the canonical
/// relation `R_label` for name tests, all elements for wildcards.
pub fn canonical_node_ids(
    doc: &Document,
    pattern: &TreePattern,
    node: PatternNodeId,
) -> Vec<NodeId> {
    match &pattern.node(node).test {
        NodeTest::Name(name) => doc.canonical_nodes_named(name).to_vec(),
        NodeTest::Wildcard => match doc.root() {
            Some(r) => doc
                .descendants_or_self(r)
                .into_iter()
                .filter(|&n| doc.node(n).kind == NodeKind::Element)
                .collect(),
            None => Vec::new(),
        },
    }
}

/// Builds the one-column relation `σ_{n}(R_n)` for a pattern node from
/// the document's canonical relations, materializing `val` / `cont`
/// exactly when the node's annotations (or value predicate) need them.
pub fn canonical_relation(doc: &Document, pattern: &TreePattern, node: PatternNodeId) -> Relation {
    let ids = canonical_node_ids(doc, pattern, node);
    relation_from_nodes(doc, pattern, node, &ids, true)
}

/// Builds the node's relation from an explicit node list (used for the
/// Δ tables, whose contents come from the pending update list).
/// `apply_pred` is the σ of the node's value predicate: callers pass
/// `false` only when they reason about predicate truth themselves
/// (nodes that satisfied the predicate *before* an update).
pub fn relation_from_nodes(
    doc: &Document,
    pattern: &TreePattern,
    node: PatternNodeId,
    ids: &[NodeId],
    apply_pred: bool,
) -> Relation {
    let pnode = pattern.node(node);
    let want_val = pnode.ann.val || pnode.val_pred.is_some();
    let want_cont = pnode.ann.cont;
    let is_root = node == pattern.root();
    let anchored = is_root && pnode.edge == Axis::Child;
    let schema = Schema::new(vec![Column::with(&pnode.name, want_val, want_cont)]);
    let mut rows = Vec::with_capacity(ids.len());
    for &n in ids {
        if !doc.is_alive(n) {
            continue;
        }
        let dewey = doc.dewey(n);
        // A `/`-rooted pattern only matches the document root element.
        if anchored && dewey.depth() != 1 {
            continue;
        }
        let val: Option<Arc<str>> = want_val.then(|| Arc::from(doc.value(n).as_str()));
        if apply_pred && pnode.val_pred.as_deref().is_some_and(|pred| val.as_deref() != Some(pred))
        {
            continue;
        }
        let cont: Option<Arc<str>> = want_cont.then(|| Arc::from(doc.content(n).as_str()));
        rows.push(Tuple::new(vec![Field::new(dewey, val, cont)]));
    }
    let mut rel = Relation::with_rows(schema, rows);
    if !rel.is_sorted_by_col(0) {
        rel.sort_by_col(0);
    }
    rel
}

/// Compiles the pattern into a logical plan joining per-node scans: the
/// algebraic semantics of Figure 4 with products+selections fused into
/// structural joins.
pub fn compile_plan(doc: &Document, pattern: &TreePattern) -> Plan {
    let order = column_order(pattern);
    compile_plan_over(pattern, &order, |n| canonical_relation(doc, pattern, n))
}

/// Same as [`compile_plan`] but with caller-provided leaf relations.
/// Serves the recomputation baseline ([`view_tuples`]) and the tests'
/// oracles, which check the maintenance engine's own left-deep loop
/// without running it.
pub fn compile_plan_over<F>(pattern: &TreePattern, order: &[PatternNodeId], mut leaf: F) -> Plan
where
    F: FnMut(PatternNodeId) -> Relation,
{
    // The pre-order guarantees a node's parent appears before it, so a
    // left-deep join tree over `order` always has the upper column
    // available.
    let mut plan = Plan::Scan(leaf(order[0]));
    let mut placed: Vec<PatternNodeId> = vec![order[0]];
    for &node in &order[1..] {
        let parent = pattern.node(node).parent.expect("non-root has a parent");
        let left_col = placed.iter().position(|&p| p == parent).expect("parent placed first");
        let axis = pattern.node(node).edge;
        plan = Plan::StructJoin {
            left: Box::new(plan),
            left_col,
            right: Box::new(Plan::Scan(leaf(node))),
            right_col: 0,
            axis,
        };
        placed.push(node);
    }
    plan
}

/// Full binding relation of the pattern over the document: one row per
/// embedding, columns in pre-order.
pub fn eval_bindings(doc: &Document, pattern: &TreePattern) -> Relation {
    compile_plan(doc, pattern).eval()
}

/// The materialized view content: bindings projected onto the stored
/// (annotated) columns, duplicate-eliminated with derivation counts,
/// sorted by the IDs of all stored nodes. This is `e_v` of Section 3.1.
pub fn view_tuples(doc: &Document, pattern: &TreePattern) -> Vec<(Tuple, u64)> {
    let bindings = eval_bindings(doc, pattern);
    project_to_view(pattern, &bindings)
}

/// Applies `e_v` (projection + δ with counts + sort) to a binding
/// relation over the full pre-order schema.
pub fn project_to_view(pattern: &TreePattern, bindings: &Relation) -> Vec<(Tuple, u64)> {
    let order = column_order(pattern);
    let stored = pattern.stored_nodes();
    let cols: Vec<usize> = stored
        .iter()
        .map(|&s| order.iter().position(|&n| n == s).expect("stored node in order"))
        .collect();
    let projected = ops::project(bindings, &cols);
    let mut counted = ops::dupelim_count(&projected);
    counted.sort_by(|a, b| a.0.doc_cmp(&b.0));
    counted
}

/// Schema of the *view* (stored columns only).
pub fn view_schema(pattern: &TreePattern) -> Schema {
    Schema::new(
        pattern
            .stored_nodes()
            .iter()
            .map(|&n| {
                let p = pattern.node(n);
                Column::with(&p.name, p.ann.val, p.ann.cont)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_pattern::parse_pattern;
    use xivm_xml::parse_document;

    fn doc() -> Document {
        // Figure 12's document:
        // a { c { b, b }, f { c { b }, b } }
        parse_document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>").unwrap()
    }

    #[test]
    fn figure_12_view_has_eight_bindings() {
        let d = doc();
        let p = parse_pattern("//a{id}[//c{id}]//b{id}").unwrap();
        let bindings = eval_bindings(&d, &p);
        assert_eq!(bindings.len(), 8, "the paper's Figure 12 lists 8 tuples");
    }

    #[test]
    fn derivation_counts_match_embedding_multiplicity() {
        let d = doc();
        // //a[//c]//b with only b stored: each b appears once per
        // (a,c) pair above it.
        let p = parse_pattern("//a[//c]//b{id}").unwrap();
        let view = view_tuples(&d, &p);
        assert_eq!(view.len(), 4);
        let counts: Vec<u64> = view.iter().map(|(_, c)| *c).collect();
        // b1,b2 under a.c have derivations via c1 and c2 (2 each);
        // b3 under a.f.c likewise; b4 under a.f has both c's too.
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn existential_branch_counts() {
        let d = parse_document("<a><c/><b/><f><b/></f></a>").unwrap();
        let p = parse_pattern("//a{id}[//b]").unwrap();
        let view = view_tuples(&d, &p);
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].1, 2, "two b-witnesses for the single a tuple");
    }

    #[test]
    fn value_predicate_filters_scan() {
        let d = parse_document("<r><a>5<b/></a><a>3<b/></a></r>").unwrap();
        let p = parse_pattern("//a[val=\"5\"]//b{id}").unwrap();
        assert_eq!(view_tuples(&d, &p).len(), 1);
        let p2 = parse_pattern("//a[val=\"7\"]//b{id}").unwrap();
        assert!(view_tuples(&d, &p2).is_empty());
    }

    #[test]
    fn child_rooted_pattern_only_matches_document_root() {
        let d = parse_document("<site><site><x/></site><x/></site>").unwrap();
        let anchored = parse_pattern("/site{id}/x{id}").unwrap();
        // only the outer site is the document root; its x child is 1
        assert_eq!(view_tuples(&d, &anchored).len(), 1);
        let floating = parse_pattern("//site{id}/x{id}").unwrap();
        assert_eq!(view_tuples(&d, &floating).len(), 2);
    }

    #[test]
    fn wildcard_matches_all_elements() {
        let d = parse_document("<r><x><item/></x><y><item/></y></r>").unwrap();
        let p = parse_pattern("/r{id}/*/item{id}").unwrap();
        assert_eq!(view_tuples(&d, &p).len(), 2);
    }

    #[test]
    fn attribute_nodes_in_patterns() {
        let d = parse_document("<r><p id=\"1\"/><p/></r>").unwrap();
        let p = parse_pattern("//p{id}[/@id{id,val}]").unwrap();
        let view = view_tuples(&d, &p);
        assert_eq!(view.len(), 1);
        let val = view[0].0.field(1).val.clone().unwrap();
        assert_eq!(val.as_ref(), "1");
    }

    #[test]
    fn cont_annotation_materializes_subtree() {
        let d = parse_document("<r><a><b>x</b></a></r>").unwrap();
        let p = parse_pattern("//a{id,cont}").unwrap();
        let view = view_tuples(&d, &p);
        assert_eq!(view[0].0.field(0).cont.as_deref(), Some("<a><b>x</b></a>"));
    }

    #[test]
    fn view_schema_columns() {
        let p = parse_pattern("//a{id}[//b]//c{id,val}").unwrap();
        let s = view_schema(&p);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.columns[1].name, "c");
        assert!(s.columns[1].stores_val);
    }

    #[test]
    fn column_order_is_preorder() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let order = column_order(&p);
        let names: Vec<_> = order.iter().map(|&n| p.node(n).name.clone()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }
}
