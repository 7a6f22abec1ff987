//! Canonical relations.
//!
//! For a document `d` and label `a`, the paper's *virtual canonical
//! relation* `R_a^d` is the list of `(ID, val, cont)` tuples of all
//! `a`-labeled nodes, sorted in document order (Section 2.2). This
//! module maintains the node-id backbone of those relations
//! incrementally under updates; `val` / `cont` are materialized lazily
//! by the algebra layer when a view actually stores them.
//!
//! Text nodes have no list: no view binds one — a pattern that names
//! `#text` is refused — and text is read through the `val` / `cont` of
//! the nodes above it. An edit never writes a list for them.
//!
//! A label's live nodes are kept in two orders:
//!
//! * **document order**, for every label — the canonical relation
//!   itself. Pre-order is document order, so the nodes of one label
//!   inside one subtree are *adjacent* in that label's list: a deleted
//!   subtree is one *run* per label, and so is an inserted forest
//!   (whose nodes all land just past the insertion target's subtree).
//!   [`doc_cmp`] compares by climbing parent links in lock-step and
//!   allocates nothing.
//! * **value order**, for attribute labels only — `(hash of the value,
//!   node)` pairs, which is what lets the XPath evaluator answer
//!   `[@a = "v"]` by lookup instead of by scan. Every hit is verified
//!   against the node's text, so a hash collision costs a comparison
//!   and can never return a wrong node. Attribute text is immutable
//!   once created: only insertion and deletion maintain the list.
//!
//! # One edit per label per PUL
//!
//! A list changes in one way only, [`CanonicalIndex::edit`]: every run
//! one edit of the document ([`crate::document::DocumentEdit`] — a
//! whole PUL, or a single appended node) removes from a label and
//! every run it adds to it, together. The runs of a PUL nearly always
//! come in document order, so only one of them is found by a binary
//! search of the list — the first removed run, the last added one —
//! and each other by galloping on from its neighbour (runs that come
//! otherwise — a PUL's operations in any order, a subtree deleted
//! around one the same PUL deleted before — are re-cut into single
//! nodes in document order, at a search per node). The list is
//! rewritten once: one forward compaction over the removed runs, one
//! back-to-front merge of the added ones, every surviving element
//! moved at most twice however many runs there are. The value list
//! drops its entries through the same compaction. A *dense* removal —
//! a run for every `DENSE` (8) elements of the list, as a bulk delete of
//! a label makes — searches for none of its runs: the removed nodes
//! are exactly the list's dead ones, so one liveness sweep drops them
//! from both lists. Removed nodes may already be unlinked and dead —
//! their parent links and ordinals outlive deletion until the edit
//! ends, so [`doc_cmp`] still places them — which is what lets the
//! document do its tree surgery at once and settle the lists at the
//! end. Only after that may the arena free a chunk whose nodes all died
//! (`Arena::release_dead`): from then on a dead node has no place, and
//! no list holds it.
//!
//! Like the node [`Arena`], the index is copy-on-write: each list sits
//! behind its own [`Arc`], so cloning the index for a snapshot copies
//! only the list pointers, and a later edit copies exactly the lists
//! it touches ([`Arc::make_mut`]), each once per PUL — the spine of
//! the PUL, never the whole index.

use crate::arena::Arena;
use crate::document::Work;
use crate::label::LabelId;
use crate::node::{NodeId, NodeKind};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::ops::Range;
use std::sync::Arc;

/// Per-label lists of live nodes: every label in document order,
/// attribute labels by value as well.
#[derive(Debug, Default, Clone)]
pub struct CanonicalIndex {
    map: HashMap<LabelId, Arc<Vec<NodeId>>>,
    /// Attribute labels only.
    values: HashMap<LabelId, Arc<ValueList>>,
}

/// One attribute label's `(value hash, node)` pairs as two sorted
/// runs: `entries[..sorted]`, and a short tail of recent insertions
/// that is merged in once it outgrows [`TAIL_MAX`] — so an insertion
/// moves at most the tail, a bulk load orders each list once, and
/// every lookup is two binary searches.
#[derive(Debug, Default, Clone)]
struct ValueList {
    entries: Vec<(u64, NodeId)>,
    sorted: usize,
}

const TAIL_MAX: usize = 64;

impl ValueList {
    fn extend(&mut self, new: impl Iterator<Item = (u64, NodeId)>) {
        self.entries.extend(new);
        self.entries[self.sorted..].sort_unstable();
        if self.entries.len() - self.sorted > TAIL_MAX {
            // Two sorted runs: the stable sort is one merge.
            self.entries.sort();
            self.sorted = self.entries.len();
        }
    }

    /// Where `entry` sits, whichever run holds it.
    fn position(&self, entry: (u64, NodeId)) -> Option<usize> {
        let (head, tail) = self.entries.split_at(self.sorted);
        let in_tail = || tail.binary_search(&entry).map(|pos| head.len() + pos);
        head.binary_search(&entry).or_else(|_| in_tail()).ok()
    }

    /// Drops the entries of dead nodes: a dense removal's sweep.
    fn retain_live(&mut self, nodes: &Arena) {
        let live = |e: &(u64, NodeId)| nodes[e.1.index()].alive;
        self.sorted = self.entries[..self.sorted].iter().filter(|e| live(e)).count();
        self.entries.retain(live);
    }

    fn remove(&mut self, gone: impl Iterator<Item = (u64, NodeId)>) {
        let mut at: Vec<usize> =
            gone.map(|e| self.position(e).expect("a live attribute is indexed")).collect();
        at.sort_unstable();
        self.sorted -= at.partition_point(|&pos| pos < self.sorted);
        let mut at = at.into_iter();
        compact(&mut self.entries, |_, _| at.next().map(|pos| pos..pos + 1));
    }

    /// The nodes filed under `hash`, from both runs.
    fn hits(&self, hash: u64) -> impl Iterator<Item = NodeId> + '_ {
        let (head, tail) = self.entries.split_at(self.sorted);
        [head, tail].into_iter().flat_map(move |run| {
            let start = run.partition_point(|e| e.0 < hash);
            run[start..].iter().take_while(move |e| e.0 == hash).map(|e| e.1)
        })
    }
}

fn value_hash(value: &str) -> u64 {
    #[cfg(test)]
    if let Some(hasher) = tests::HASHER.get() {
        return hasher(value);
    }
    BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
}

fn entry_of(nodes: &Arena, id: NodeId) -> (u64, NodeId) {
    (value_hash(nodes[id.index()].text.as_deref().unwrap_or("")), id)
}

/// Compares two arena nodes in document order: lifts the deeper one by
/// the difference of their depths (each node stores its own), climbs
/// both in lock-step to the children of their lowest common ancestor
/// and compares those ordinals. An ancestor precedes its descendants.
/// Allocation-free; parent links, depths and ordinals outlive deletion
/// until the edit that deleted a node ends, so nodes it killed compare
/// too. A node that died in an earlier edit may read as the arena's
/// tombstone and has no place.
pub fn doc_cmp(nodes: &Arena, a: NodeId, b: NodeId) -> Ordering {
    let parent = |n: NodeId| nodes[n.index()].parent;
    let (da, db) = (nodes[a.index()].depth, nodes[b.index()].depth);
    let (mut x, mut y) =
        (lift(nodes, a, da.saturating_sub(db)), lift(nodes, b, db.saturating_sub(da)));
    if x == y {
        return da.cmp(&db);
    }
    let (mut px, mut py) = (parent(x), parent(y));
    while px != py {
        (x, y) = (px.expect("deep enough"), py.expect("deep enough"));
        (px, py) = (parent(x), parent(y));
    }
    nodes[x.index()].ord.cmp(&nodes[y.index()].ord)
}

/// The ancestor `by` levels above `n`; `n` itself for 0.
pub(crate) fn lift(nodes: &Arena, n: NodeId, by: u16) -> NodeId {
    (0..by).fold(n, |n, _| nodes[n.index()].parent.expect("deep enough"))
}

/// When a removal sweeps its list instead of searching for its runs:
/// one removed run for every `DENSE` elements of the list. A round
/// number, not a tuned one, like the term evaluation's `PREFIX_COST`
/// (`xivm_core::propagate`): a search costs
/// a few `doc_cmp`s for each of ⌈log₂ n⌉ steps, a swept element one
/// liveness read.
const DENSE: usize = 8;

/// Where a search expects its answer.
#[derive(Clone, Copy)]
enum Near {
    Nowhere,
    Front,
    Back,
}

/// Where `id` sits (or would sit) in a document-ordered `list`: a
/// binary search of all of it, or of the window a gallop from the
/// front or the back — for an `id` expected a few places from there —
/// has closed on. Counted in `work`, with its comparisons.
fn search(nodes: &Arena, list: &[NodeId], id: NodeId, near: Near, work: &mut Work) -> usize {
    work.searches += 1;
    let mut before = |n: NodeId| {
        work.comparisons += 1;
        doc_cmp(nodes, n, id) == Ordering::Less
    };
    let (len, mut step) = (list.len(), 1);
    let (start, end) = match near {
        Near::Nowhere => (0, len),
        Near::Front => {
            while step < len && before(list[step - 1]) {
                step *= 2;
            }
            (step / 2, step.min(len))
        }
        Near::Back => {
            while step < len && !before(list[len - step]) {
                step *= 2;
            }
            (len.saturating_sub(step), len - step / 2)
        }
    };
    start + list[start..end].partition_point(|&n| before(n))
}

/// One label's share of an edit, borrowed: the nodes in the order the
/// edit met them, and the offsets at which its runs start — each run
/// adjacent in document order (one subtree's share, one forest's) and
/// not empty.
pub type Runs<'a> = (&'a [NodeId], &'a [usize]);

fn run<'a>((flat, starts): Runs<'a>, k: usize) -> &'a [NodeId] {
    &flat[starts[k]..starts.get(k + 1).map_or(flat.len(), |&end| end)]
}

/// `runs`, if each follows the one before in document order, which is
/// what lets a search go on from the last. Otherwise (the operations of
/// a PUL come in any order; a subtree deleted around one deleted before
/// it is no longer one stretch of the list) the same nodes re-cut into
/// single-node runs, sorted into `store`.
fn in_order<'a>(
    nodes: &Arena,
    runs: Runs<'a>,
    store: &'a mut (Vec<NodeId>, Vec<usize>),
) -> Runs<'a> {
    let follows = |k: usize| {
        let before = run(runs, k - 1);
        doc_cmp(nodes, before[before.len() - 1], run(runs, k)[0]) == Ordering::Less
    };
    if (1..runs.1.len()).all(follows) {
        return runs;
    }
    store.0 = runs.0.to_vec();
    store.0.sort_by(|&a, &b| doc_cmp(nodes, a, b));
    store.1 = (0..store.0.len()).collect();
    (&store.0, &store.1)
}

/// Does a removal of `runs` runs from a list of `len` elements sweep
/// it? In tests, whatever `tests::SWEEP` forces.
fn sweeps(runs: usize, len: usize) -> bool {
    #[cfg(test)]
    if let Some(forced) = tests::SWEEP.get() {
        return forced;
    }
    runs * DENSE >= len
}

/// Drops stretches of `list` in one forward pass. `next` names them
/// in ascending order, disjoint; it is shown the list, of which the
/// part from the end of the stretch before (its second argument) is
/// still as it was.
fn compact<T: Copy>(list: &mut Vec<T>, mut next: impl FnMut(&[T], usize) -> Option<Range<usize>>) {
    // `list[..write]` is settled, `list[read..]` still to be judged.
    let (mut write, mut read) = (0, 0);
    while let Some(gone) = next(list, read) {
        if write != read {
            list.copy_within(read..gone.start, write);
        }
        write += gone.start - read;
        read = gone.end;
    }
    if write != read {
        list.copy_within(read.., write);
        list.truncate(list.len() - (read - write));
    }
}

/// A list for writing: copied first, and counted in `copied`, if an
/// image shares it.
fn own<'l, T: Clone>(list: &'l mut Arc<T>, copied: &mut u64) -> &'l mut T {
    *copied += u64::from(Arc::strong_count(list) > 1);
    Arc::make_mut(list)
}

impl CanonicalIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// The one way a label's lists change: drops the runs `removed`
    /// (still in the list; their nodes may be unlinked and dead
    /// already) and registers the runs `inserted` (new nodes, linked
    /// and live), with one search per run and one rewrite of the list —
    /// a forward compaction, then a back-to-front merge. A dense removal
    /// (see `DENSE`) of dead nodes — as every edit of a document
    /// hands over — is one liveness sweep instead of its searches.
    /// Copy-on-write: a list shared with a snapshot is copied first, once.
    /// Returns what it did: searches and their comparisons, sweep reads
    /// and list copies.
    pub fn edit(&mut self, nodes: &Arena, label: LabelId, removed: Runs, inserted: Runs) -> Work {
        let mut work = Work::default();
        let Some(&any) = removed.0.first().or(inserted.0.first()) else { return work };
        let order = own(self.map.entry(label).or_default(), &mut work.lists);
        let sweep = !removed.0.is_empty()
            && sweeps(removed.1.len(), order.len())
            && removed.0.iter().all(|n| !nodes[n.index()].alive);
        let (mut resorted_out, mut resorted_in) = Default::default();
        let new = in_order(nodes, inserted, &mut resorted_in);

        if sweep {
            // Until the edit ends, the list's dead nodes are exactly the
            // ones it removed.
            let len = order.len();
            work.sweep_reads += len as u64;
            order.retain(|n| nodes[n.index()].alive);
            assert!(
                len - order.len() == removed.0.len(),
                "the {label:?} nodes of a subtree must be one run of their canonical relation"
            );
        } else {
            // Forward over the removed runs: the first by a search of
            // the whole list, each later one galloping on from the one
            // before.
            let gone = in_order(nodes, removed, &mut resorted_out);
            let mut runs = 0..gone.1.len();
            compact(order, |order, from| {
                let (k, run) = runs.next().map(|k| (k, run(gone, k)))?;
                let near = if k == 0 { Near::Nowhere } else { Near::Front };
                let at = from + search(nodes, &order[from..], run[0], near, &mut work);
                assert!(
                    order.get(at..at + run.len()) == Some(run),
                    "the {label:?} nodes of a subtree must be one run of their canonical relation"
                );
                Some(at..at + run.len())
            });
        }

        // Backward over the inserted runs, so that every element moves
        // once: `read` is the end of the old elements not yet placed,
        // `write` the end of the room left for them and the runs among
        // them. The last run is searched for in the whole list, each
        // earlier one galloping back from the one after.
        let mut read = order.len();
        order.resize(read + new.0.len(), any);
        let mut write = order.len();
        for k in (0..new.1.len()).rev() {
            let (run, last) = (run(new, k), k + 1 == new.1.len());
            let old = &order[..read];
            // Appends at document end are the common case when
            // bulk-loading or running XQuery-Update style insertions.
            let at_end =
                last && old.last().is_none_or(|&l| doc_cmp(nodes, l, run[0]) == Ordering::Less);
            let near = if last { Near::Nowhere } else { Near::Back };
            let at = if at_end { read } else { search(nodes, old, run[0], near, &mut work) };
            order.copy_within(at..read, write - (read - at));
            write -= read - at + run.len();
            read = at;
            order[write..write + run.len()].copy_from_slice(run);
        }

        if nodes[any.index()].kind == NodeKind::Attribute {
            let values = own(self.values.entry(label).or_default(), &mut work.lists);
            if sweep {
                work.sweep_reads += values.entries.len() as u64;
                values.retain_live(nodes);
            } else {
                values.remove(removed.0.iter().map(|&n| entry_of(nodes, n)));
            }
            values.extend(inserted.0.iter().map(|&n| entry_of(nodes, n)));
        }
        work
    }

    /// Live members of `R_label` in document order.
    pub fn nodes(&self, label: LabelId) -> &[NodeId] {
        self.map.get(&label).map_or(&[], |v| v.as_slice())
    }

    /// The live `label` attributes whose value is `value`, in no
    /// particular order.
    pub fn with_value(&self, nodes: &Arena, label: LabelId, value: &str) -> Vec<NodeId> {
        let Some(values) = self.values.get(&label) else { return Vec::new() };
        let same = |&n: &NodeId| nodes[n.index()].text.as_deref().unwrap_or("") == value;
        values.hits(value_hash(value)).filter(same).collect()
    }

    /// Validates that every relation is sorted in document order and
    /// that every value list holds exactly its label's attributes,
    /// each under the hash of its text, in two sorted runs.
    pub fn check_sorted(&self, nodes: &Arena) -> Result<(), String> {
        for (label, list) in &self.map {
            for w in list.windows(2) {
                if doc_cmp(nodes, w[0], w[1]) != Ordering::Less {
                    return Err(format!("canonical relation for {label:?} out of order"));
                }
            }
        }
        self.check_values(nodes)
    }

    /// Validates the index against `live`, each label's live nodes in
    /// document order, text nodes excepted — what a pre-order walk of
    /// the document collects: every list is its label's nodes element by
    /// element, no list holds a text node, and the value lists are as
    /// [`Self::check_sorted`] has them. Nothing climbs the tree, so the
    /// check is linear in the document however deep it nests.
    pub fn check_against(
        &self,
        nodes: &Arena,
        live: &HashMap<LabelId, Vec<NodeId>, impl BuildHasher>,
    ) -> Result<(), String> {
        for (label, list) in &self.map {
            if let Some(t) = list.iter().find(|n| nodes[n.index()].kind == NodeKind::Text) {
                return Err(format!("text node {t:?} in the canonical relation for {label:?}"));
            }
        }
        let labels = self.map.keys().chain(live.keys());
        for label in labels {
            if self.nodes(*label) != live.get(label).map_or(&[][..], Vec::as_slice) {
                return Err(format!(
                    "canonical relation for {label:?} is not its live nodes in document order"
                ));
            }
        }
        self.check_values(nodes)
    }

    /// Each attribute label's value list holds each of its list's nodes
    /// once — live, of its label, under the hash of its text — in two
    /// sorted runs; no other label has one.
    fn check_values(&self, nodes: &Arena) -> Result<(), String> {
        for (label, list) in &self.map {
            let attributes =
                list.first().is_some_and(|n| nodes[n.index()].kind == NodeKind::Attribute);
            let indexed = self.values.get(label).map_or(0, |v| v.entries.len());
            if indexed != if attributes { list.len() } else { 0 } {
                return Err(format!("value list for {label:?} has the wrong length"));
            }
        }
        // A node has one label, so one mark per arena slot serves all.
        let mut seen = vec![false; nodes.len()];
        for (label, values) in &self.values {
            let (head, tail) = values.entries.split_at(values.sorted);
            if ![head, tail].iter().all(|run| run.windows(2).all(|w| w[0] < w[1])) {
                return Err(format!("value list for {label:?} out of order"));
            }
            for &(hash, n) in &values.entries {
                let node = &nodes[n.index()];
                if !node.alive || node.label != *label || entry_of(nodes, n).0 != hash {
                    return Err(format!("stale value entry {n:?} for {label:?}"));
                }
                if std::mem::replace(&mut seen[n.index()], true) {
                    return Err(format!("value entry {n:?} for {label:?} twice"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::parser::{parse_document, parse_forest_into};
    use std::cell::Cell;

    type Hash = fn(&str) -> u64;

    thread_local! {
        /// Replaces [`value_hash`] on the calling thread (tests only:
        /// the collision test needs two values in one bucket).
        pub(super) static HASHER: Cell<Option<Hash>> = const { Cell::new(None) };
        /// Forces [`sweeps`]' answer on the calling thread: both arms of
        /// a removal, on one edit.
        pub(super) static SWEEP: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// The per-run maintenance [`CanonicalIndex::edit`] replaced — one
    /// whole-list search and one splice / drain per label of every
    /// subtree, one `Vec::remove` per attribute — kept as the reference
    /// the batched edit is compared with
    /// (`document::tests::a_batched_edit_equals_the_per_run_reference`).
    impl CanonicalIndex {
        pub(crate) fn insert_run(&mut self, nodes: &Arena, run: &[NodeId]) {
            let Some(&first) = run.first() else { return };
            let node = &nodes[first.index()];
            let order = Arc::make_mut(self.map.entry(node.label).or_default());
            let at_end = order.last().is_none_or(|&l| doc_cmp(nodes, l, first) == Ordering::Less);
            let pos = if at_end {
                order.len()
            } else {
                search(nodes, order, first, Near::Nowhere, &mut Work::default())
            };
            order.splice(pos..pos, run.iter().copied());
            if node.kind == NodeKind::Attribute {
                Arc::make_mut(self.values.entry(node.label).or_default())
                    .extend(run.iter().map(|&n| entry_of(nodes, n)));
            }
        }

        pub(crate) fn remove_run(&mut self, nodes: &Arena, run: &[NodeId]) {
            let Some(&first) = run.first() else { return };
            let node = &nodes[first.index()];
            let order = Arc::make_mut(self.map.get_mut(&node.label).expect("a list"));
            let pos = search(nodes, order, first, Near::Nowhere, &mut Work::default());
            assert!(order.get(pos..pos + run.len()) == Some(run), "one run");
            order.drain(pos..pos + run.len());
            if node.kind == NodeKind::Attribute {
                let values = Arc::make_mut(self.values.get_mut(&node.label).expect("a list"));
                for &n in run {
                    let pos = values.position(entry_of(nodes, n)).expect("indexed");
                    values.sorted -= usize::from(pos < values.sorted);
                    values.entries.remove(pos);
                }
            }
        }

        /// Both indexes hold the same lists, and the same value
        /// entries whatever run of its list each sits in.
        pub(crate) fn assert_same_lists(&self, other: &CanonicalIndex) {
            let non_empty = |map: &HashMap<LabelId, Arc<Vec<NodeId>>>| -> HashMap<_, _> {
                map.iter().filter(|(_, l)| !l.is_empty()).map(|(k, l)| (*k, l.clone())).collect()
            };
            assert_eq!(non_empty(&self.map), non_empty(&other.map));
            let entries = |values: &HashMap<LabelId, Arc<ValueList>>| -> HashMap<_, _> {
                let sorted = |v: &Arc<ValueList>| {
                    let mut e = v.entries.clone();
                    e.sort_unstable();
                    e
                };
                values
                    .iter()
                    .filter(|(_, v)| !v.entries.is_empty())
                    .map(|(k, v)| (*k, sorted(v)))
                    .collect()
            };
            assert_eq!(entries(&self.values), entries(&other.values));
        }
    }

    /// How many document-order lists (`.0`) and value lists (`.1`) two
    /// indexes physically share (same `Arc`).
    fn shared(a: &CanonicalIndex, b: &CanonicalIndex) -> (usize, usize) {
        fn count<T>(a: &HashMap<LabelId, Arc<T>>, b: &HashMap<LabelId, Arc<T>>) -> usize {
            a.iter().filter(|(l, x)| b.get(l).is_some_and(|y| Arc::ptr_eq(x, y))).count()
        }
        (count(&a.map, &b.map), count(&a.values, &b.values))
    }

    #[test]
    fn insert_in_middle_keeps_order() {
        let mut d = Document::new();
        let r = d.set_root("a").unwrap();
        let x1 = d.append_element(r, "x").unwrap();
        let x3 = d.append_element(r, "x").unwrap();
        // Insert an x between the two existing ones.
        let x2 = d.insert_element_before(r, x3, "x").unwrap();
        let label = d.label_id("x").unwrap();
        assert_eq!(d.canonical_nodes(label), &[x1, x2, x3]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn nested_before_following_sibling_in_doc_order() {
        let mut d = Document::new();
        let r = d.set_root("a").unwrap();
        let b1 = d.append_element(r, "b").unwrap();
        let deep = d.append_element(b1, "x").unwrap();
        let b2 = d.append_element(r, "b").unwrap();
        let late = d.append_element(b2, "x").unwrap();
        let label = d.label_id("x").unwrap();
        assert_eq!(d.canonical_nodes(label), &[deep, late]);
    }

    #[test]
    fn doc_cmp_agrees_with_dewey_order_on_every_pair() {
        let mut d = parse_document("<a k=\"1\"><b><c/>t<c><e/></c></b><b/><d><b k=\"2\"/></d></a>")
            .unwrap();
        let b = d.canonical_nodes_named("b")[0];
        parse_forest_into(&mut d, b, "<c><b/></c>").unwrap();
        let all = d.descendants_or_self(d.root().unwrap());
        for &x in &all {
            for &y in &all {
                assert_eq!(d.doc_cmp(x, y), d.dewey(x).doc_cmp(&d.dewey(y)), "{x:?} vs {y:?}");
            }
        }
        // Dead nodes keep their place: parent links and ordinals survive.
        let (before, after) = (d.canonical_nodes_named("c")[0], d.canonical_nodes_named("d")[0]);
        d.remove_subtree(b).unwrap();
        assert!(d.doc_cmp(before, after).is_lt() && d.doc_cmp(b, before).is_lt());
    }

    #[test]
    fn empty_relation_for_unknown_label() {
        let idx = CanonicalIndex::new();
        assert!(idx.nodes(LabelId(42)).is_empty());
        assert!(idx.with_value(&Arena::new(), LabelId(42), "v").is_empty());
    }

    #[test]
    fn clone_shares_lists_until_written() {
        let mut d = parse_document("<a><x k=\"1\"/><y k=\"2\"/></a>").unwrap();
        let snap = d.clone();
        // The snapshot shares every list of every label (a, x, y, @k)…
        assert_eq!(shared(d.canonical_index(), snap.canonical_index()), (4, 1));
        // …one more x copies only the x list — no value list at all…
        let root = d.root().unwrap();
        let x = d.append_element(root, "x").unwrap();
        assert_eq!(shared(d.canonical_index(), snap.canonical_index()), (3, 1));
        // …and an attribute copies both lists of its own label.
        d.append_attribute(x, "k", "3").unwrap();
        assert_eq!(shared(d.canonical_index(), snap.canonical_index()), (2, 0));
        // The snapshot answers from its own frozen index.
        let k = d.label_id("@k").unwrap();
        assert_eq!(d.attributes_with_value(k, "3").len(), 1);
        assert!(snap.attributes_with_value(k, "3").is_empty());
        assert_eq!(snap.canonical_nodes(k).len(), 2);
    }

    /// [`clone_shares_lists_until_written`] for an edit of many
    /// subtrees: a k-target delete under a snapshot copies each touched
    /// order / value list exactly once. The edit asks for a list once,
    /// when it ends — until then the live document still shares every
    /// list — so the copy that takes it out from under the snapshot is
    /// the only one.
    #[test]
    fn a_many_target_delete_copies_each_touched_list_once() {
        let people: String = (0..40)
            .map(|i| format!("<p id=\"{}\"><n>x</n><q k=\"{}\"/></p>", i % 7, i % 3))
            .collect();
        let mut d = parse_document(&format!("<r><z id=\"9\"/>{people}<w/></r>")).unwrap();
        let snap = d.clone();
        assert_eq!(
            shared(d.canonical_index(), snap.canonical_index()),
            (8, 2),
            "r z @id p n q @k w: no #text list"
        );
        let lists = |d: &Document| -> Vec<*const Vec<NodeId>> {
            ["p", "@id", "n", "q", "@k"]
                .iter()
                .map(|l| Arc::as_ptr(&d.canonical_index().map[&d.label_id(l).unwrap()]))
                .collect()
        };
        let before = lists(&d);
        let doomed: Vec<NodeId> = d.canonical_nodes_named("p").iter().copied().step_by(2).collect();
        let mut edit = d.edit();
        for p in doomed {
            assert_eq!(edit.remove_subtree(p).unwrap().len(), 6);
            // Nothing is copied, or even touched, until the edit ends.
            assert_eq!(lists(&edit), before);
        }
        drop(edit);
        assert!(lists(&d).iter().zip(&before).all(|(now, then)| now != then));
        assert_eq!(lists(&snap), before, "the snapshot kept the originals");
        // r, z and w were not written; of the value lists, both were.
        assert_eq!(shared(d.canonical_index(), snap.canonical_index()), (3, 0));
        assert_eq!(d.canonical_nodes_named("p").len(), 20);
        assert_eq!(snap.canonical_nodes_named("p").len(), 40);
        d.check_invariants().unwrap();
        snap.check_invariants().unwrap();
    }

    #[test]
    fn a_subtree_delete_touches_exactly_the_lists_of_its_labels() {
        let mut d = parse_document(
            "<r><p id=\"1\"><n>x</n></p><p id=\"2\"><n>y</n><q/></p><z k=\"3\"/><p id=\"4\"/></r>",
        )
        .unwrap();
        let snap = d.clone();
        let all = shared(d.canonical_index(), snap.canonical_index());
        assert_eq!(all, (7, 2), "r p @id n q z @k: no #text list");
        let doomed = d.canonical_nodes_named("p")[1];
        let removed = d.remove_subtree(doomed).unwrap();
        assert_eq!(removed.len(), 5, "p @id n #text q");
        // p, @id, n, q were written; r, z, @k were not — and of the
        // four only @id has a value list to write. The text node is in
        // no list.
        assert_eq!(shared(d.canonical_index(), snap.canonical_index()), (3, 1));
        assert_eq!(d.canonical_nodes_named("p").len(), 2);
        assert!(d.canonical_nodes_named("q").is_empty());
        d.check_invariants().unwrap();
        snap.check_invariants().unwrap();
    }

    #[test]
    fn forests_and_deletes_keep_every_list_sorted() {
        let mut d = parse_document("<r><p><n/></p><p><n/><n/></p><p/></r>").unwrap();
        let p = d.canonical_nodes_named("p").to_vec();
        // In the middle of every list it touches; nested labels.
        let roots =
            parse_forest_into(&mut d, p[0], "<n k=\"v\"><p><n k=\"v\"/></p></n>t<n/>").unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.canonical_nodes_named("n").len(), 6);
        assert_eq!(d.canonical_nodes_named("p")[1], d.children_of(roots[0])[1]);
        // Delete inside the forest just inserted, then around it.
        d.remove_subtree(d.children_of(roots[0])[1]).unwrap();
        d.check_invariants().unwrap();
        d.remove_subtree(p[1]).unwrap();
        d.check_invariants().unwrap();
        d.remove_subtree(p[0]).unwrap();
        d.check_invariants().unwrap();
        assert_eq!(crate::serialize_document(&d), "<r><p/></r>");
        let k = d.label_id("@k").unwrap();
        assert!(d.attributes_with_value(k, "v").is_empty());
    }

    #[test]
    fn value_lists_merge_their_tail_and_remove_from_both_runs() {
        let mut d = Document::new();
        let r = d.set_root("r").unwrap();
        let n = 3 * TAIL_MAX + 7;
        let attrs: Vec<NodeId> =
            (0..n).map(|i| d.append_attribute(r, "k", &format!("v{}", i % 50)).unwrap()).collect();
        d.check_invariants().unwrap();
        let k = d.label_id("@k").unwrap();
        let list = &d.canonical_index().values[&k];
        assert!(list.sorted >= 3 * TAIL_MAX && list.entries.len() == n, "merged thrice");
        assert_eq!(d.attributes_with_value(k, "v7").len(), n.div_ceil(50));
        // One from the merged run, one from the tail.
        d.remove_subtree(attrs[7]).unwrap();
        d.remove_subtree(attrs[n - 1]).unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.attributes_with_value(k, "v7").len(), n.div_ceil(50) - 1);
        assert!(!d.attributes_with_value(k, &format!("v{}", (n - 1) % 50)).contains(&attrs[n - 1]));
    }

    /// The two arms of a removal — the liveness sweep of a dense one,
    /// the search per run of a sparse one — leave identical lists and
    /// value lists, whichever a removal would take by itself: every `b`,
    /// one `a`, attributes, and runs that come out of order (subtrees
    /// backwards, a node deleted before an ancestor of it).
    #[test]
    fn sweep_and_gallop_leave_the_same_lists() {
        let people: String = (0..40)
            .map(|i| format!("<a k=\"{}\"><b j=\"{}\">t</b><c><b/></c></a>", i % 3, i % 5))
            .collect();
        let seed = format!("<r><b/>{people}<c j=\"1\"/></r>");
        type Doomed = fn(&Document) -> Vec<NodeId>;
        fn named(d: &Document, name: &str) -> Vec<NodeId> {
            d.canonical_nodes_named(name).to_vec()
        }
        let cases: [(&str, Doomed); 5] = [
            ("every b", |d| named(d, "b")),
            ("one a", |d| vec![named(d, "a")[20]]),
            ("every other @j", |d| named(d, "@j").into_iter().step_by(2).collect()),
            ("a's backwards", |d| named(d, "a").into_iter().rev().step_by(3).collect()),
            ("a c, then its a", |d| vec![named(d, "c")[7], named(d, "a")[7], named(d, "c")[2]]),
        ];
        for (what, doomed) in cases {
            let lists = |sweep: Option<bool>| {
                let mut d = parse_document(&seed).unwrap();
                let nodes = doomed(&d);
                SWEEP.set(sweep);
                let mut edit = d.edit();
                nodes.into_iter().for_each(|n| assert!(edit.remove_subtree(n).is_ok()));
                drop(edit);
                SWEEP.set(None);
                d.check_invariants().unwrap_or_else(|e| panic!("{what} {sweep:?}: {e}"));
                d
            };
            let (swept, galloped) = (lists(Some(true)), lists(Some(false)));
            swept.canonical_index().assert_same_lists(galloped.canonical_index());
            lists(None).canonical_index().assert_same_lists(swept.canonical_index());
        }
    }

    #[test]
    fn colliding_values_are_told_apart_by_their_text() {
        HASHER.set(Some(|v| v.len() as u64));
        let mut d =
            parse_document("<r><p id=\"ab\"/><p id=\"cd\"/><p id=\"ab\"/><p id=\"xyz\"/></r>")
                .unwrap();
        let (id, p) = (d.label_id("@id").unwrap(), d.canonical_nodes_named("p").to_vec());
        let owners = |d: &Document, v: &str| {
            let mut o: Vec<_> =
                d.attributes_with_value(id, v).iter().map(|&a| d.parent_of(a).unwrap()).collect();
            o.sort();
            o
        };
        assert_eq!(owners(&d, "ab"), vec![p[0], p[2]]);
        assert_eq!(owners(&d, "cd"), vec![p[1]]);
        assert!(owners(&d, "zz").is_empty(), "same bucket, no such text");
        d.remove_subtree(p[0]).unwrap();
        assert_eq!(owners(&d, "ab"), vec![p[2]]);
        assert_eq!(owners(&d, "cd"), vec![p[1]]);
        d.check_invariants().unwrap();
        HASHER.set(None);
    }
}
