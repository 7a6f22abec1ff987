//! Unit tests for the XML substrate: parser ⇄ serializer round-trips,
//! the document-order laws of [`DeweyId`]'s `Ord`, and
//! [`CanonicalIndex`] consistency across insertions and deletions.

use xivm_xml::dewey::Step;
use xivm_xml::node::{Node, NodeId, NodeKind};
use xivm_xml::{parse_document, serialize_document, Arena, CanonicalIndex, DeweyId, LabelId};

// ---------------------------------------------------------------------
// Parser ⇄ serializer round-trip
// ---------------------------------------------------------------------

/// Fixtures already in the serializer's canonical form (self-closing
/// empty elements, attributes before content, double-quoted values),
/// so `serialize(parse(x)) == x` exactly.
const CANONICAL_FIXTURES: [&str; 8] = [
    "<r/>",
    "<r>text</r>",
    "<r><a/><b/><c/></r>",
    "<site><people><person id=\"person0\"><name>Ada</name></person></people></site>",
    "<r a=\"1\" b=\"2\"><c d=\"3\"/></r>",
    "<r>before<mid/>after</r>",
    "<r><a><b><c><d>deep</d></c></b></a></r>",
    "<r>1 &lt; 2 &amp; 3 &gt; 2</r>",
];

#[test]
fn parse_serialize_roundtrip_on_canonical_fixtures() {
    for fixture in CANONICAL_FIXTURES {
        let doc = parse_document(fixture).unwrap();
        doc.check_invariants().unwrap();
        assert_eq!(serialize_document(&doc), fixture, "round-trip of {fixture}");
    }
}

#[test]
fn serialize_reaches_fixpoint_after_one_parse() {
    // Non-canonical input (whitespace between tags, single-quoted
    // attributes) must stabilize after a single parse/serialize pass.
    let messy = "<r>\n  <a x='1'>hi</a>\n  <b/>\n</r>";
    let once = serialize_document(&parse_document(messy).unwrap());
    let twice = serialize_document(&parse_document(&once).unwrap());
    assert_eq!(once, twice);
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in ["", "<r>", "<r></s>", "</r>", "<r><a></r></a>", "<r", "text only", "<r/><r2/>"] {
        assert!(parse_document(bad).is_err(), "parser accepted malformed input: {bad:?}");
    }
}

// ---------------------------------------------------------------------
// DeweyId document-order `Ord` laws
// ---------------------------------------------------------------------

fn id(parts: &[(u32, u64)]) -> DeweyId {
    DeweyId::from_steps(parts.iter().map(|&(l, o)| Step::new(LabelId(l), o)).collect())
}

/// A small universe of IDs covering roots, siblings, deep chains and
/// label-only differences.
fn universe() -> Vec<DeweyId> {
    let mut ids = Vec::new();
    for l0 in 0..2u32 {
        for o0 in 1..3u64 {
            ids.push(id(&[(l0, o0)]));
            for l1 in 0..2u32 {
                for o1 in 1..3u64 {
                    ids.push(id(&[(l0, o0), (l1, o1)]));
                    ids.push(id(&[(l0, o0), (l1, o1), (0, 1)]));
                }
            }
        }
    }
    ids
}

#[test]
fn ord_is_total_antisymmetric_and_transitive() {
    let ids = universe();
    for a in &ids {
        assert!(a.cmp(a).is_eq(), "reflexivity: {a}");
        for b in &ids {
            // totality + antisymmetry
            let ab = a.cmp(b);
            let ba = b.cmp(a);
            assert_eq!(ab, ba.reverse(), "antisymmetry: {a} vs {b}");
            for c in &ids {
                // transitivity
                if ab.is_le() && b.cmp(c).is_le() {
                    assert!(a.cmp(c).is_le(), "transitivity: {a} <= {b} <= {c}");
                }
            }
        }
    }
}

#[test]
fn ord_matches_doc_cmp_and_ancestors_precede_descendants() {
    let ids = universe();
    for a in &ids {
        for b in &ids {
            assert_eq!(a.cmp(b), a.doc_cmp(b), "Ord must be document order: {a} vs {b}");
            if a.is_ancestor_of(b) {
                assert!(a.doc_cmp(b).is_lt(), "ancestor {a} must precede descendant {b}");
                assert!(!b.is_ancestor_of(a), "ancestry must be asymmetric: {a} vs {b}");
            }
        }
    }
}

#[test]
fn sorting_yields_preorder_of_the_generating_tree() {
    // Sorting shuffled IDs of a known tree must produce its preorder.
    let preorder = [
        id(&[(0, 1)]),
        id(&[(0, 1), (1, 1)]),
        id(&[(0, 1), (1, 1), (2, 1)]),
        id(&[(0, 1), (1, 1), (2, 2)]),
        id(&[(0, 1), (1, 2)]),
        id(&[(0, 1), (2, 3)]),
    ];
    let mut shuffled = preorder.to_vec();
    shuffled.reverse();
    shuffled.swap(1, 4);
    shuffled.sort();
    assert_eq!(shuffled, preorder.to_vec());
}

// ---------------------------------------------------------------------
// CanonicalIndex consistency under insert / delete
// ---------------------------------------------------------------------

/// Builds a throwaway arena directly (all `Node` fields are public) so
/// the index can be exercised standalone: a root with `n` children,
/// alternating labels A and B.
fn arena_with_children(n: usize) -> Arena {
    let mut nodes = vec![Node {
        kind: NodeKind::Element,
        label: LabelId(0),
        ord: 1,
        parent: None,
        depth: 0,
        children: Vec::new(),
        text: None,
        alive: true,
        max_child_ord: 0,
    }];
    for i in 0..n {
        nodes.push(Node {
            kind: NodeKind::Element,
            label: LabelId(1 + (i as u32 % 2)),
            ord: (i as u64 + 1) * 100,
            parent: Some(NodeId(0)),
            depth: 1,
            children: Vec::new(),
            text: None,
            alive: true,
            max_child_ord: 0,
        });
        let child = NodeId(nodes.len() as u32 - 1);
        nodes[0].children.push(child);
    }
    nodes.into_iter().collect()
}

/// One run of one label through the index's one entry point.
fn insert_run(index: &mut CanonicalIndex, nodes: &Arena, run: &[NodeId]) {
    index.edit(nodes, nodes[run[0].index()].label, (&[], &[]), (run, &[0]));
}

fn remove_run(index: &mut CanonicalIndex, nodes: &Arena, run: &[NodeId]) {
    index.edit(nodes, nodes[run[0].index()].label, (run, &[0]), (&[], &[]));
}

#[test]
fn canonical_index_stays_sorted_under_out_of_order_inserts() {
    let nodes = arena_with_children(8);
    let mut index = CanonicalIndex::new();
    insert_run(&mut index, &nodes, &[NodeId(0)]);
    // Insert the children back to front: exercises the non-append
    // binary-search path.
    for i in (0..8).rev() {
        insert_run(&mut index, &nodes, &[NodeId(1 + i as u32)]);
    }
    index.check_sorted(&nodes).unwrap();
    assert_eq!(index.nodes(LabelId(0)), &[NodeId(0)]);
    assert_eq!(index.nodes(LabelId(1)), [1, 3, 5, 7].map(NodeId));
    assert_eq!(index.nodes(LabelId(2)), [2, 4, 6, 8].map(NodeId));
}

#[test]
fn canonical_index_removes_exactly_the_run() {
    let nodes = arena_with_children(6);
    let mut index = CanonicalIndex::new();
    // Label A holds children 1, 3, 5; label B 2, 4, 6.
    insert_run(&mut index, &nodes, &[NodeId(1), NodeId(3), NodeId(5)]);
    insert_run(&mut index, &nodes, &[NodeId(2), NodeId(4), NodeId(6)]);
    remove_run(&mut index, &nodes, &[NodeId(3), NodeId(5)]);
    assert_eq!(index.nodes(LabelId(1)), &[NodeId(1)]);
    assert_eq!(index.nodes(LabelId(2)).len(), 3);
    index.check_sorted(&nodes).unwrap();
    index.edit(&nodes, LabelId(1), (&[], &[]), (&[], &[]));
    assert_eq!(index.nodes(LabelId(1)).len(), 1);
}

/// The index never guesses: nodes that are not one stretch of their
/// label's list (here: already removed) are a caller's bug, reported
/// before anything is drained.
#[test]
#[should_panic(expected = "one run of their canonical relation")]
fn canonical_index_refuses_a_run_it_does_not_hold() {
    let nodes = arena_with_children(6);
    let mut index = CanonicalIndex::new();
    insert_run(&mut index, &nodes, &[NodeId(1), NodeId(3), NodeId(5)]);
    remove_run(&mut index, &nodes, &[NodeId(3)]);
    remove_run(&mut index, &nodes, &[NodeId(3)]);
}

#[test]
fn document_canonical_relations_track_inserts_and_deletes() {
    let mut doc = parse_document("<r><a/><b/><a/></r>").unwrap();
    assert_eq!(doc.canonical_nodes_named("a").len(), 2);

    // Insert: a fresh <a> under <b> must appear, in document order.
    let b = doc.canonical_nodes_named("b")[0];
    let new_a = doc.append_element(b, "a").unwrap();
    doc.check_invariants().unwrap();
    let after_insert = doc.canonical_nodes_named("a").to_vec();
    assert_eq!(after_insert.len(), 3);
    assert!(after_insert.contains(&new_a));
    let deweys: Vec<DeweyId> = after_insert.iter().map(|&n| doc.dewey(n)).collect();
    let mut sorted = deweys.clone();
    sorted.sort();
    assert_eq!(deweys, sorted, "canonical relation must stay in document order");

    // Delete: removing <b> drops its subtree (including the new <a>)
    // from every canonical relation.
    doc.remove_subtree(b).unwrap();
    doc.check_invariants().unwrap();
    assert_eq!(doc.canonical_nodes_named("b").len(), 0);
    let after_delete = doc.canonical_nodes_named("a").to_vec();
    assert_eq!(after_delete.len(), 2);
    assert!(!after_delete.contains(&new_a));
    assert_eq!(serialize_document(&doc), "<r><a/><a/></r>");
}
