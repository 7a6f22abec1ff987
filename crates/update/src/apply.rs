//! Applying pending update lists to the document.
//!
//! `apply-insert(n, t)` (Section 3.4) copies the forest into its new
//! context; crucially, the copies receive their Dewey IDs *in the new
//! context* as a side effect, and those IDs are what the Δ⁺ tables are
//! built from. Deletions capture the ID of every removed node before
//! detaching, which is what the Δ⁻ tables are built from.
//!
//! The apply walks every inserted and every deleted subtree exactly
//! once, so it is also where the commit's Δ is *extracted*: both walks
//! leave their nodes bucketed by label ([`LabelBuckets`]), and every
//! view's Δ⁺ / Δ⁻ tables ([`crate::delta`]) are bucket lookups — one
//! extraction per commit, not one per view.
//!
//! A PUL is one edit of the document ([`xivm_xml::document::DocumentEdit`]):
//! each operation changes the tree at once, so the next one resolves
//! its target against it, and the per-label lists are settled once,
//! when [`apply_pul`] returns.

use crate::pul::{AtomicOp, Pul};
use std::borrow::Cow;
use xivm_pattern::NodeTest;
use xivm_xml::label::LabelMap;
use xivm_xml::{DeweyId, Document, LabelId, NodeId, NodeKind, Step, XmlError};

/// The nodes one applied PUL inserted (or deleted), bucketed by label.
/// A label determines its node kind (attribute labels carry an `@`,
/// text nodes share one pseudo-label), so each bucket has one kind.
#[derive(Debug, Clone)]
pub struct LabelBuckets<T> {
    buckets: LabelMap<(NodeKind, Vec<T>)>,
}

impl<T> Default for LabelBuckets<T> {
    fn default() -> Self {
        LabelBuckets { buckets: LabelMap::default() }
    }
}

impl<T> LabelBuckets<T> {
    fn push(&mut self, label: LabelId, kind: NodeKind, item: T) {
        self.buckets.entry(label).or_insert_with(|| (kind, Vec::new())).1.push(item);
    }

    /// The bucket of `label`.
    pub fn get(&self, label: LabelId) -> &[T] {
        self.buckets.get(&label).map_or(&[], |(_, items)| items.as_slice())
    }

    /// The nodes a pattern node's test ranges over: one bucket for a
    /// name (none if `doc` never saw the label), every element bucket
    /// for a wildcard — those in no order across buckets.
    pub fn matching(&self, doc: &Document, test: &NodeTest) -> Cow<'_, [T]>
    where
        T: Clone,
    {
        match test {
            NodeTest::Name(name) => {
                Cow::Borrowed(doc.label_id(name).map_or(&[][..], |l| self.get(l)))
            }
            NodeTest::Wildcard => self
                .buckets
                .values()
                .filter(|(kind, _)| *kind == NodeKind::Element)
                .flat_map(|(_, items)| items.iter().cloned())
                .collect(),
        }
    }

    /// Whether [`Self::matching`] holds anything, without building it.
    pub fn touches(&self, doc: &Document, test: &NodeTest) -> bool {
        !self.is_empty()
            && match test {
                NodeTest::Name(name) => doc.label_id(name).is_some_and(|l| !self.get(l).is_empty()),
                NodeTest::Wildcard => {
                    self.buckets.values().any(|(kind, _)| *kind == NodeKind::Element)
                }
            }
    }

    /// Every bucket, `(label, nodes)`, in no order across labels.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &[T])> {
        self.buckets.iter().map(|(&label, (_, items))| (label, items.as_slice()))
    }

    /// Total number of bucketed nodes.
    pub fn len(&self) -> usize {
        self.buckets.values().map(|(_, items)| items.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Outcome of applying a PUL: the update roots and the commit's Δ
/// extraction.
#[derive(Debug, Clone, Default)]
pub struct ApplyResult {
    /// Roots of the inserted forests only.
    pub inserted_roots: Vec<NodeId>,
    /// IDs of the nodes that received insertions (the `p1 … pk` of
    /// Proposition 3.8).
    pub insert_targets: Vec<DeweyId>,
    /// IDs of the delete targets that resolved to a node of the *old*
    /// state (a surviving node's text changed iff it is a proper
    /// ancestor of one of these or an insertion target's
    /// ancestor-or-self).
    pub delete_roots: Vec<DeweyId>,
    /// Every newly created node (roots and descendants) in creation
    /// order — document order within each forest. A node a later
    /// operation of the same PUL deleted again stays listed, dead.
    pub inserted: LabelBuckets<NodeId>,
    /// The ID of every removed node of the old state, in document
    /// order. Nodes this same PUL had inserted are *not* listed: they
    /// were never part of the old state, so they belong to no Δ⁻.
    pub deleted: LabelBuckets<DeweyId>,
    /// The arena's length before the apply (`None`: nothing applied).
    /// Nodes are only ever appended, so this PUL created exactly the
    /// nodes at or past it.
    first_created: Option<usize>,
}

impl ApplyResult {
    /// True iff `node` was created by this PUL (old-state relations
    /// exclude such nodes).
    pub fn created(&self, node: NodeId) -> bool {
        self.first_created.is_some_and(|first| node.index() >= first)
    }
}

/// Applies every atomic operation of `pul` to `doc`, in order.
///
/// Operations whose target no longer exists (e.g. removed by an
/// earlier `del` in the same PUL — XQuery Update applies deletions of
/// already-deleted nodes as no-ops) are skipped.
///
/// A PUL that could allocate past the [`NodeId`] index space is
/// refused before its first write ([`XmlError::IndexSpaceExhausted`]).
/// Slots are never reused, but a node takes at least one byte of its
/// forest, so the arena's length plus the forests' bytes bounds the
/// slots the PUL can reach.
pub fn apply_pul(doc: &mut Document, pul: &Pul) -> Result<ApplyResult, XmlError> {
    let wanted: usize = pul
        .ops
        .iter()
        .map(|op| match op {
            AtomicOp::InsertInto { forest, .. } => forest.len(),
            AtomicOp::Delete { .. } => 0,
        })
        .sum();
    let used = doc.arena_len();
    if used as u64 + wanted as u64 > index_space() {
        return Err(XmlError::IndexSpaceExhausted { used, wanted });
    }
    let mut result = ApplyResult { first_created: Some(doc.arena_len()), ..ApplyResult::default() };
    // Dropped — and the lists settled — on every way out, errors too.
    let mut doc = doc.edit();
    for op in &pul.ops {
        match op {
            AtomicOp::InsertInto { target, forest } => {
                let Some(parent) = doc.find_node(target) else {
                    continue; // target vanished: no-op
                };
                // The forest's nodes are exactly the arena slots the
                // parse appended, in document order.
                let first = doc.arena_len();
                let roots = doc.insert_forest(parent, forest)?;
                for n in (first..doc.arena_len()).map(|i| NodeId(i as u32)) {
                    let node = doc.node(n);
                    result.inserted.push(node.label, node.kind, n);
                }
                result.inserted_roots.extend(roots);
                result.insert_targets.push(target.clone());
            }
            AtomicOp::Delete { node } => {
                let Some(target) = doc.find_node(node) else {
                    continue;
                };
                // A sequential transaction can delete what its own PUL
                // inserted: such nodes leave the document but enter no
                // Δ⁻, and such a target is no update root of the old
                // state (its insertion target already is one).
                if !result.created(target) {
                    result.delete_roots.push(node.clone());
                }
                // The removal is the one walk of the doomed subtree;
                // it hands the nodes back in pre-order with parent
                // links, labels and ordinals intact, so the IDs for Δ⁻
                // are built a step at a time: `open` is the chain of
                // old nodes from the target down to the node at hand,
                // `steps` their ID.
                let mut steps = node.steps()[..node.depth() - 1].to_vec();
                let mut open: Vec<NodeId> = Vec::new();
                for n in doc.remove_subtree(target)? {
                    if result.created(n) {
                        continue; // in no Δ⁻, and above no old node
                    }
                    let doomed = doc.node(n);
                    while open.last().is_some_and(|&up| Some(up) != doomed.parent) {
                        open.pop();
                        steps.pop();
                    }
                    open.push(n);
                    steps.push(Step::new(doomed.label, doomed.ord));
                    let id = DeweyId::from_steps(steps.clone());
                    result.deleted.push(doomed.label, doomed.kind, id);
                }
            }
        }
    }
    // Subtrees are walked in pre-order, but the operations of a PUL
    // come in any order.
    for (_, ids) in result.deleted.buckets.values_mut() {
        if !ids.is_sorted() {
            ids.sort();
        }
    }
    Ok(result)
}

/// How many arena slots a document may reach: [`arena::INDEX_SPACE`],
/// or in tests a ceiling small enough to reach.
///
/// [`arena::INDEX_SPACE`]: xivm_xml::arena::INDEX_SPACE
fn index_space() -> u64 {
    #[cfg(test)]
    if let Some(ceiling) = tests::CEILING.get() {
        return ceiling;
    }
    xivm_xml::arena::INDEX_SPACE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pul::compute_pul;
    use crate::statement::UpdateStatement;
    use std::cell::Cell;
    use xivm_xml::{parse_document, serialize_document};

    thread_local! {
        /// Replaces the index space on the calling thread.
        pub(super) static CEILING: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// A PUL that could outgrow the index space fails whole: the
    /// document is untouched, deletions ahead of the insertion
    /// included. One that fits the room left applies.
    #[test]
    fn a_pul_that_could_outgrow_the_index_space_is_refused_before_any_write() {
        const SEED: &str = "<r><a><b/></a><c/></r>";
        let mut d = parse_document(SEED).unwrap();
        let forest = "<x><y/></x>";
        let ops = [delete(&d, "//a"), insert(&d, "//c", forest)].concat();
        let room = (d.arena_len() + forest.len()) as u64;
        CEILING.set(Some(room - 1));
        let refused = apply_pul(&mut d, &Pul::new(ops.clone()));
        assert_eq!(refused.unwrap_err(), XmlError::IndexSpaceExhausted { used: 4, wanted: 11 });
        assert_eq!((serialize_document(&d), d.arena_len()), (SEED.to_owned(), 4));
        d.check_invariants().unwrap();
        CEILING.set(Some(room));
        assert_eq!(apply_pul(&mut d, &Pul::new(ops)).unwrap().inserted.len(), 2);
        assert_eq!(serialize_document(&d), "<r><c><x><y/></x></c></r>");
        CEILING.set(None);
    }

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
    fn delete_buckets_the_subtree_by_label() {
        let mut d = parse_document("<a><c><b/><b/></c><f/></a>").unwrap();
        let stmt = UpdateStatement::delete("//c").unwrap();
        let pul = compute_pul(&d, &stmt);
        let res = apply_pul(&mut d, &pul).unwrap();
        let (c, b) = (d.label_id("c").unwrap(), d.label_id("b").unwrap());
        assert_eq!(res.deleted.get(c).len(), 1);
        assert_eq!(res.deleted.get(b).len(), 2);
        assert!(res.deleted.get(b)[0] < res.deleted.get(b)[1], "document order");
        assert_eq!(res.delete_roots, vec![res.deleted.get(c)[0].clone()]);
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

    /// A sequential transaction's PUL can delete inside the forest it
    /// just inserted: those nodes were never in the old state, so they
    /// enter no Δ⁻ bucket and their root is no delete root — while an
    /// old node deleted together with them still is.
    #[test]
    fn same_pul_insertions_stay_out_of_delta_minus() {
        let mut d = parse_document("<a><c/></a>").unwrap();
        let mut pul = compute_pul(&d, &UpdateStatement::insert("//c", "<b><x/></b>").unwrap());
        let mut scratch = d.clone();
        apply_pul(&mut scratch, &pul).unwrap();
        pul.ops.extend(compute_pul(&scratch, &UpdateStatement::delete("//x").unwrap()).ops);
        let res = apply_pul(&mut d.clone(), &pul).unwrap();
        assert_eq!(res.inserted.len(), 2, "b and x were created");
        assert!(res.deleted.is_empty(), "x was never in the old state");
        assert!(res.delete_roots.is_empty());

        pul.ops.extend(compute_pul(&scratch, &UpdateStatement::delete("//c").unwrap()).ops);
        let res = apply_pul(&mut d, &pul).unwrap();
        assert_eq!(res.deleted.len(), 1, "only the old c, not the b inserted under it");
        assert_eq!(res.delete_roots.len(), 1);
        assert_eq!(serialize_document(&d), "<a/>");
    }

    /// XMark-shaped (the generator lives downstream of this crate): `n`
    /// keyed persons, then a section that holds every label of a person
    /// once more, so that no list is merely appended to. With its size
    /// in bytes.
    #[cfg(debug_assertions)]
    fn site(n: usize) -> (usize, Document) {
        let person = |i: usize| {
            format!(
                "<person id=\"person{i}\"><name>Jim Lee</name><emailaddress>mailto:person{i}\
                 @example.org</emailaddress><homepage>http://www.example.org/~person{i}\
                 </homepage><profile income=\"{}\"><interest category=\"category{}\"/>\
                 </profile><watches/></person>",
                30_000 + i % 977,
                i % 20
            )
        };
        let people: String = (0..n).map(person).collect();
        let xml = format!("<site><people>{people}</people><archive>{}</archive></site>", person(n));
        (xml.len(), parse_document(&xml).unwrap())
    }

    /// Cost follows |Δ|, as counts: the same one-person insert and
    /// delete-by-id cost the same number of canonical-list searches
    /// and value-index probes on a 100 KB and on a 2 MB document — one
    /// search per *label* of the forest (not per node, not per
    /// sibling), one probe per keyed step. The counters exist in debug
    /// builds only (`xivm_xml::canonical::work`).
    #[cfg(debug_assertions)]
    #[test]
    fn a_point_update_costs_the_same_searches_and_probes_at_any_document_size() {
        use xivm_xml::canonical::work;
        let insert = UpdateStatement::insert(
            "/site/people",
            "<person id=\"bench7\"><name>Ann Diaz</name><emailaddress>mailto:bench7@example.org\
             </emailaddress><homepage>h</homepage><homepage>h2</homepage><watches/></person>",
        )
        .unwrap();
        let delete = UpdateStatement::delete("/site/people/person[@id=\"bench7\"]").unwrap();
        let counts = |n: usize| {
            let (bytes, mut d) = site(n);
            let mut run = |stmt: &UpdateStatement| {
                work::take();
                let pul = compute_pul(&d, stmt);
                assert_eq!(pul.len(), 1);
                let res = apply_pul(&mut d, &pul).unwrap();
                (work::take(), res.inserted.len() + res.deleted.len())
            };
            let out = (run(&insert), run(&delete));
            d.check_invariants().unwrap();
            (bytes, out)
        };
        let (small_bytes, small) = counts(400);
        let (large_bytes, large) = counts(9_000);
        assert!(small_bytes < 128 << 10 && large_bytes > 2 << 20, "{small_bytes} {large_bytes}");
        assert_eq!(small, large, "(searches, probes) and |Δ| must not depend on the document");
        // person @id name #text emailaddress homepage watches: seven
        // labels over eleven nodes; the delete finds its person by id.
        let ((insert_work, inserted), (delete_work, deleted)) = small;
        assert_eq!((inserted, deleted), (11, 11));
        assert_eq!(insert_work, (7, 0), "one search per label, no lookup");
        assert_eq!(delete_work, (7, 1), "one search per label, one lookup");
    }

    /// The twin for a PUL of many operations: deleting fifty persons,
    /// spread over the document, is one search per label per person —
    /// the first of a label over its whole list, the others galloping
    /// on from the one before — on 96 KB as on 2.2 MB.
    #[cfg(debug_assertions)]
    #[test]
    fn a_fifty_target_delete_costs_the_same_searches_at_any_document_size() {
        use xivm_xml::canonical::work;
        let searches = |n: usize| {
            let (bytes, mut d) = site(n);
            let persons = d.canonical_nodes_named("person");
            let doomed = (0..50).map(|i| AtomicOp::Delete { node: d.dewey(persons[i * (n / 50)]) });
            let pul = Pul::new(doomed.collect());
            work::take();
            let res = apply_pul(&mut d, &pul).unwrap();
            let (searches, _) = work::take();
            d.check_invariants().unwrap();
            (bytes, searches, res.deleted.len())
        };
        let ((small_bytes, small, small_gone), (large_bytes, large, large_gone)) =
            (searches(400), searches(9_000));
        assert!(small_bytes < 128 << 10 && large_bytes > 2 << 20, "{small_bytes} {large_bytes}");
        assert_eq!((small, small_gone), (large, large_gone));
        // person @id name #text emailaddress homepage profile @income
        // interest @category watches: eleven labels over thirteen nodes.
        assert_eq!((small, small_gone), (50 * 11, 50 * 13));
    }

    /// `check_invariants`, and every canonical list and value lookup
    /// equal to those of a reparse of the serialized document — as
    /// pre-order ranks: the two documents number their nodes apart.
    fn assert_lists_equal_a_reparse(d: &Document) {
        d.check_invariants().unwrap();
        let lists = |d: &Document| {
            let all = d.descendants_or_self(d.root().unwrap());
            let rank: std::collections::HashMap<NodeId, usize> =
                all.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            let ranks = |nodes: &[NodeId]| {
                let mut ranks: Vec<usize> = nodes.iter().map(|n| rank[n]).collect();
                ranks.sort_unstable();
                ranks
            };
            let mut lists = std::collections::BTreeMap::new();
            for (label, name) in d.labels().iter() {
                let nodes = d.canonical_nodes(label);
                assert!(nodes.is_sorted_by_key(|n| rank[n]), "{name} in document order");
                for n in nodes.iter().filter(|&&n| d.node(n).kind == NodeKind::Attribute) {
                    let value = d.value(*n);
                    let hits = ranks(&d.attributes_with_value(label, &value));
                    lists.insert(format!("{name}={value}"), hits);
                }
                if !nodes.is_empty() {
                    lists.insert(name.to_owned(), ranks(nodes));
                }
            }
            lists
        };
        assert_eq!(lists(d), lists(&parse_document(&serialize_document(d)).unwrap()));
    }

    fn delete(d: &Document, path: &str) -> Vec<AtomicOp> {
        compute_pul(d, &UpdateStatement::delete(path).unwrap()).ops
    }

    fn insert(d: &Document, path: &str, forest: &str) -> Vec<AtomicOp> {
        compute_pul(d, &UpdateStatement::insert(path, forest).unwrap()).ops
    }

    const NESTED: &str =
        "<r><n k=\"1\"/><a k=\"1\"><n/><b k=\"2\"><n k=\"1\">x</n></b><n k=\"2\"/>\
        <b><n/></b></a><n k=\"1\"/><c/></r>";

    /// What one edit per PUL has to get right that one edit per subtree
    /// never met. An inner node, then its ancestor: the ancestor's `n`
    /// and `@k` nodes are no longer one stretch of their lists while
    /// the inner ones sit dead among them.
    #[test]
    fn one_pul_deletes_an_inner_node_and_then_its_ancestor() {
        let mut d = parse_document(NESTED).unwrap();
        let pul = Pul::new([delete(&d, "//a/b[@k=\"2\"]"), delete(&d, "//a")].concat());
        let res = apply_pul(&mut d, &pul).unwrap();
        assert_eq!((res.delete_roots.len(), res.deleted.len()), (2, 12));
        assert_eq!(serialize_document(&d), "<r><n k=\"1\"/><n k=\"1\"/><c/></r>");
        assert_lists_equal_a_reparse(&d);
    }

    /// The ancestor first: the inner target no longer resolves.
    #[test]
    fn one_pul_deletes_an_ancestor_and_then_an_inner_node() {
        let mut d = parse_document(NESTED).unwrap();
        let pul = Pul::new([delete(&d, "//a"), delete(&d, "//a/b"), delete(&d, "//c")].concat());
        let res = apply_pul(&mut d, &pul).unwrap();
        assert_eq!((res.delete_roots.len(), res.deleted.len()), (2, 13));
        assert_lists_equal_a_reparse(&d);
    }

    /// A sequential transaction inserts a forest and deletes it again,
    /// whole or in part: what never reached a list is not taken out of
    /// one, and what survives of the forest is indexed once.
    #[test]
    fn one_pul_inserts_a_forest_and_deletes_it_again() {
        let forest = "<a k=\"2\"><n k=\"1\"/><b><n/></b></a><n k=\"2\"/>";
        for (doomed, left) in [
            ("//c/a", "<c><n k=\"2\"/></c>"),
            ("//c/a/b", "<c><a k=\"2\"><n k=\"1\"/></a><n k=\"2\"/></c>"),
        ] {
            let mut d = parse_document(NESTED).unwrap();
            let mut ops = insert(&d, "//c", forest);
            let mut scratch = d.clone();
            apply_pul(&mut scratch, &Pul::new(ops.clone())).unwrap();
            ops.extend(delete(&scratch, doomed));
            ops.extend(delete(&scratch, "//a/b/n"));
            let res = apply_pul(&mut d, &Pul::new(ops)).unwrap();
            assert_eq!(res.deleted.len(), 4, "n, @k, #text and n under the two old b");
            assert!(serialize_document(&d).ends_with(&format!("{left}</r>")), "{doomed}");
            assert_lists_equal_a_reparse(&d);
        }
    }

    /// Forests land beside dead nodes: under a node whose child, and
    /// whose following sibling, the same PUL deleted before.
    #[test]
    fn one_pul_inserts_beside_the_subtrees_it_deleted() {
        let mut d = parse_document(NESTED).unwrap();
        let ops = [
            delete(&d, "//a/b"),
            delete(&d, "/r/n"),
            insert(&d, "//a", "<n k=\"1\"><b k=\"2\"/></n>"),
            insert(&d, "//a/n", "<n/>"),
            delete(&d, "//c"),
            insert(&d, "/r", "<b><n k=\"2\"/></b>"),
        ];
        let res = apply_pul(&mut d, &Pul::new(ops.concat())).unwrap();
        assert_eq!(res.insert_targets.len(), 4);
        assert_eq!(
            serialize_document(&d),
            "<r><a k=\"1\"><n><n/></n><n k=\"2\"><n/></n><n k=\"1\"><b k=\"2\"/></n></a>\
             <b><n k=\"2\"/></b></r>"
        );
        assert_lists_equal_a_reparse(&d);
    }

    /// A forest that stops parsing half way fails the PUL at that
    /// operation: what was applied until then — the part of the forest
    /// that was built included — is in the lists when the error returns.
    #[test]
    fn a_failing_operation_leaves_the_lists_settled() {
        let mut d = parse_document(NESTED).unwrap();
        let ops = [
            delete(&d, "//a/b[@k=\"2\"]"),
            insert(&d, "//a", "<n k=\"1\"/>"),
            insert(&d, "//c", "<b k=\"2\"><n>y</n><n k=\"1\"></b>"),
            delete(&d, "/r/n"),
        ];
        assert!(matches!(apply_pul(&mut d, &Pul::new(ops.concat())), Err(XmlError::Parse { .. })));
        assert_eq!(
            serialize_document(&d),
            "<r><n k=\"1\"/><a k=\"1\"><n/><n k=\"2\"/><b><n/></b><n k=\"1\"/></a><n k=\"1\"/>\
             <c><b k=\"2\"><n>y</n><n k=\"1\"/></b></c></r>"
        );
        assert_lists_equal_a_reparse(&d);
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
