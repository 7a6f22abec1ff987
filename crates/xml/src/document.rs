//! The arena-based XML document store.

use crate::arena::Arena;
use crate::canonical::{doc_cmp, lift, CanonicalIndex};
use crate::dewey::{between_ord, next_sibling_ord, DeweyId};
use crate::error::XmlError;
use crate::label::{attribute_label, LabelId, LabelInterner, LabelMap, TEXT_LABEL};
use crate::node::{Node, NodeId, NodeKind};
use crate::serializer::serialize_node;
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

/// An ordered labeled tree of element, attribute and text nodes, with
/// update-stable Dewey identifiers and per-label canonical relations.
///
/// Deletion marks nodes dead, and their slots die for good: a
/// `NodeId` is never handed to another node, so ids held by in-flight
/// operations never dangle, and all traversal APIs skip dead nodes.
/// Until the edit that killed it ends, a dead slot keeps what places
/// it — kind, label, ordinal, parent link — and gives its payload
/// (child list, text) back, so a later copy of its chunk does not copy
/// the dead. Once every slot of an arena chunk is dead, the edit's end
/// frees the whole chunk (`Arena::release_dead`). So a read of a node
/// that died in an earlier edit — [`Self::node`], [`Self::dewey`],
/// [`Self::doc_cmp`], [`Self::parent_of`] — promises only
/// `alive == false`: it may read the tombstone (no parent, label 0,
/// ordinal 0) instead of what the node was.
///
/// `Clone` is a cheap copy-on-write snapshot, not a deep copy: the
/// node [`Arena`] shares its chunks and the [`CanonicalIndex`] its
/// per-label lists via `Arc`, so cloning is O(chunks + labels) and a
/// later mutation copies only the chunks and lists it touches. A held
/// clone is a frozen, immutable image of the document at clone time —
/// the MVCC substrate behind database snapshots and deep pipelining.
#[derive(Debug, Default, Clone)]
pub struct Document {
    nodes: Arena,
    root: Option<NodeId>,
    labels: Arc<LabelInterner>,
    canonical: CanonicalIndex,
    /// What this document's edits counted since [`Self::take_work`]:
    /// an edit settles in `Drop`, which returns nothing.
    work: Work,
}

/// Work done, as counts: the paper's claim that maintenance follows
/// |Δ| and not the document, in a form a test can assert in any build.
/// Plain fields and plain adds. The layer that did the work returns
/// it — `eval_path_counted` (target finding), `ApplyResult::work`
/// (the apply: the list settle and the copies), `UpdateReport::work`
/// (one view) — and `Commit::work` sums a commit's. `ARCHITECTURE.md`
/// states the bound per Δ tuple that `tests/complexity.rs` asserts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Value-index lookups target finding made for `[@a="c"]` steps.
    pub probes: u64,
    /// Searches of a document-order list for a run of an edit.
    pub searches: u64,
    /// Document-order comparisons those searches made.
    pub comparisons: u64,
    /// List entries a dense removal's liveness sweep read.
    pub sweep_reads: u64,
    /// Arena chunks copied because an image still shared them.
    pub chunks: u64,
    /// Canonical and value lists copied for the same reason.
    pub lists: u64,
    /// Copies of the label interner, for the same reason.
    pub interners: u64,
    /// Dead arena chunks released — dropped, not copied.
    pub released: u64,
    /// Document images a commit took: a pre-image for a deferred batch,
    /// a scratch copy for a transaction, a refresh's base, the async
    /// service's recovery image.
    pub images: u64,
    /// Views whose propagation took the dynamic relevance exit.
    pub dynamic_skips: u64,
    /// Store and snowcap rows examined one by one: taken out by range,
    /// stepped through as a block, text-refreshed, or patched.
    pub rows: u64,
    /// Bindings the maintenance terms emitted.
    pub tuples: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, other: Work) {
        self.probes += other.probes;
        self.searches += other.searches;
        self.comparisons += other.comparisons;
        self.sweep_reads += other.sweep_reads;
        self.chunks += other.chunks;
        self.lists += other.lists;
        self.interners += other.interners;
        self.released += other.released;
        self.images += other.images;
        self.dynamic_skips += other.dynamic_skips;
        self.rows += other.rows;
        self.tuples += other.tuples;
    }
}

impl Document {
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Label management
    // ------------------------------------------------------------------

    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// The canonical index itself, read-only (per-label node lists in
    /// document order). Exposed for the copy-on-write diagnostics.
    pub fn canonical_index(&self) -> &CanonicalIndex {
        &self.canonical
    }

    /// How many node-arena chunks this document physically shares with
    /// `other`: a fresh clone shares every chunk; each chunk a
    /// mutation touched after the clone drops out, and so does each
    /// chunk released since. See [`Arena::shared_chunks_with`].
    pub fn shared_chunks_with(&self, other: &Document) -> usize {
        self.nodes.shared_chunks_with(&other.nodes)
    }

    /// Total arena chunk count, released chunks included — the cost
    /// of one [`Clone`] in pointer copies.
    pub fn chunk_count(&self) -> usize {
        self.nodes.chunk_count()
    }

    /// How many of [`Self::chunk_count`] were freed because all their
    /// nodes died (`Arena::release_dead`).
    pub fn released_chunks(&self) -> usize {
        self.nodes.released_chunks()
    }

    /// The work this document's edits did since the last call (a clone
    /// starts from the original's count), reset to zero.
    pub fn take_work(&mut self) -> Work {
        self.work.chunks += std::mem::take(&mut self.nodes.copied);
        std::mem::take(&mut self.work)
    }

    /// The id of `name`, interned if new. A known name is answered
    /// from the shared interner; only a new one copies an interner an
    /// image still holds.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        if let Some(id) = self.labels.get(name) {
            return id;
        }
        self.work.interners += u64::from(Arc::strong_count(&self.labels) > 1);
        Arc::make_mut(&mut self.labels).intern(name)
    }

    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name)
    }

    /// The interner itself, to hand to [`Self::adopt_labels`].
    pub fn shared_labels(&self) -> Arc<LabelInterner> {
        Arc::clone(&self.labels)
    }

    /// Takes over the interner of a document that evolved from a clone
    /// of this one. Structural IDs embed label ids, so IDs computed
    /// against that document resolve here only if labels it interned
    /// on the way get the same ids here — which interning them again,
    /// in whatever order a later parse meets them, does not guarantee.
    /// Panics unless `labels` extends this document's interner.
    pub fn adopt_labels(&mut self, labels: &Arc<LabelInterner>) {
        let extends = Arc::ptr_eq(&self.labels, labels)
            || self.labels.iter().all(|(id, name)| labels.get(name) == Some(id));
        assert!(extends, "an adopted interner must extend the document's own");
        self.labels = Arc::clone(labels);
    }

    pub fn label_name(&self, id: LabelId) -> &str {
        self.labels.name(id)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates the root element. Fails if a root already exists.
    pub fn set_root(&mut self, tag: &str) -> Result<NodeId, XmlError> {
        let label = self.intern_label(tag);
        self.append_node(None, NodeKind::Element, label, None)
    }

    /// Appends a new element child after the current last child.
    pub fn append_element(&mut self, parent: NodeId, tag: &str) -> Result<NodeId, XmlError> {
        let label = self.intern_label(tag);
        self.append_node(Some(parent), NodeKind::Element, label, None)
    }

    /// Appends an attribute node (interned under `@name`).
    pub fn append_attribute(
        &mut self,
        parent: NodeId,
        name: &str,
        value: &str,
    ) -> Result<NodeId, XmlError> {
        let label = self.intern_label(&attribute_label(name));
        self.append_node(Some(parent), NodeKind::Attribute, label, Some(value.into()))
    }

    /// Appends a text node.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> Result<NodeId, XmlError> {
        let label = self.intern_label(TEXT_LABEL);
        self.append_node(Some(parent), NodeKind::Text, label, Some(text.into()))
    }

    /// Inserts a new element *before* an existing child, exercising the
    /// midpoint ordinal allocation (no relabeling of existing nodes).
    pub fn insert_element_before(
        &mut self,
        parent: NodeId,
        before: NodeId,
        tag: &str,
    ) -> Result<NodeId, XmlError> {
        self.check_alive(parent)?;
        self.check_alive(before)?;
        let pos =
            self.nodes[parent.index()].children.iter().position(|&c| c == before).ok_or_else(
                || XmlError::InvalidTarget("`before` is not a child of parent".into()),
            )?;
        let right = self.nodes[before.index()].ord;
        let left = if pos == 0 {
            0
        } else {
            let prev = self.nodes[parent.index()].children[pos - 1];
            self.nodes[prev.index()].ord
        };
        let ord = between_ord(left, right)
            .ok_or_else(|| XmlError::InvalidTarget("sibling ordinal gap exhausted".into()))?;
        let depth = self.child_depth(parent)?;
        let label = self.intern_label(tag);
        let id = self.nodes.push(Node {
            kind: NodeKind::Element,
            label,
            ord,
            parent: Some(parent),
            depth,
            children: Vec::new(),
            text: None,
            alive: true,
            max_child_ord: 0,
        });
        self.nodes.get_mut(parent.index()).children.insert(pos, id);
        self.work += self.canonical.edit(&self.nodes, label, (&[], &[]), (&[id], &[0]));
        Ok(id)
    }

    fn append_node(
        &mut self,
        parent: Option<NodeId>,
        kind: NodeKind,
        label: LabelId,
        text: Option<Arc<str>>,
    ) -> Result<NodeId, XmlError> {
        let id = self.push_node(parent, kind, label, text)?;
        if kind != NodeKind::Text {
            self.work += self.canonical.edit(&self.nodes, label, (&[], &[]), (&[id], &[0]));
        }
        Ok(id)
    }

    /// Appends a node after `parent`'s last child (`None`: as the
    /// root) *without* registering it in the canonical index: only
    /// for the parser, through [`DocumentEdit::appending`], which is
    /// how a parsed forest costs one search per label instead of one
    /// per node.
    pub(crate) fn push_node(
        &mut self,
        parent: Option<NodeId>,
        kind: NodeKind,
        label: LabelId,
        text: Option<Arc<str>>,
    ) -> Result<NodeId, XmlError> {
        let (last, depth) = match parent {
            None if self.root.is_some() => {
                return Err(XmlError::InvalidTarget("document already has a root".into()));
            }
            None => (None, 0),
            Some(p) => {
                self.check_alive(p)?;
                if !self.nodes[p.index()].is_element() {
                    return Err(XmlError::InvalidTarget(
                        "children can only be added to elements".into(),
                    ));
                }
                // Allocate past the highest ordinal *ever* used under
                // this parent (not just the current last child):
                // ordinals of deleted children are never reused, so
                // their IDs stay dead forever.
                let last = Some(self.nodes[p.index()].max_child_ord).filter(|&max| max > 0);
                (last, self.child_depth(p)?)
            }
        };
        let ord = next_sibling_ord(last);
        let id = self.nodes.push(Node {
            kind,
            label,
            ord,
            parent,
            depth,
            children: Vec::new(),
            text,
            alive: true,
            max_child_ord: 0,
        });
        match parent {
            Some(p) => {
                let pnode = self.nodes.get_mut(p.index());
                pnode.children.push(id);
                pnode.max_child_ord = ord;
            }
            None => self.root = Some(id),
        }
        Ok(id)
    }

    /// The depth of a child of `parent`; a document nests at most
    /// `u16::MAX` levels below its root.
    fn child_depth(&self, parent: NodeId) -> Result<u16, XmlError> {
        let depth = self.nodes[parent.index()].depth.checked_add(1);
        depth.ok_or_else(|| XmlError::InvalidTarget("the document nests too deep".into()))
    }

    /// Highest sibling ordinal ever allocated under `parent` (deleted
    /// children included): appended children always receive ordinals
    /// strictly beyond this value, in [`crate::dewey::ORD_STRIDE`]
    /// increments.
    pub fn max_child_ord(&self, parent: NodeId) -> u64 {
        self.nodes[parent.index()].max_child_ord
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Opens an edit: the unit in which the per-label lists change.
    /// See [`DocumentEdit`].
    pub fn edit(&mut self) -> DocumentEdit<'_> {
        let first_created = self.nodes.len();
        DocumentEdit { doc: self, first_created, forests: Vec::new(), lists: LabelMap::default() }
    }

    /// Removes the subtree rooted at `node`: an edit of one subtree
    /// ([`DocumentEdit::remove_subtree`]).
    pub fn remove_subtree(&mut self, node: NodeId) -> Result<Vec<NodeId>, XmlError> {
        self.edit().remove_subtree(node)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// The node in slot `id`; see the type docs for a node that died
    /// in an earlier edit.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn is_alive(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && self.nodes[id.index()].alive
    }

    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Live children in document order.
    pub fn children_of(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// All nodes in the arena (including dead ones); mostly for
    /// debugging and invariant checks.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    // ------------------------------------------------------------------
    // Structure queries
    // ------------------------------------------------------------------

    /// Materializes the full Dewey ID of a node by climbing to the root.
    pub fn dewey(&self, id: NodeId) -> DeweyId {
        let mut steps = Vec::with_capacity(usize::from(self.nodes[id.index()].depth) + 1);
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = &self.nodes[c.index()];
            steps.push(crate::dewey::Step::new(n.label, n.ord));
            cur = n.parent;
        }
        steps.reverse();
        DeweyId::from_steps(steps)
    }

    /// Finds the live node identified by a Dewey ID, if any.
    pub fn find_node(&self, id: &DeweyId) -> Option<NodeId> {
        let root = self.root?;
        let steps = id.steps();
        if steps.is_empty() || self.nodes[root.index()].ord != steps[0].ord {
            return None;
        }
        let mut cur = root;
        for step in &steps[1..] {
            let children = &self.nodes[cur.index()].children;
            let found =
                children.binary_search_by(|c| self.nodes[c.index()].ord.cmp(&step.ord)).ok()?;
            cur = children[found];
            if self.nodes[cur.index()].label != step.label {
                return None; // stale ID from a different document era
            }
        }
        self.nodes[cur.index()].alive.then_some(cur)
    }

    /// Pre-order traversal of the live subtree rooted at `id`
    /// (attributes included, in document order).
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if !self.nodes[n.index()].alive {
                continue;
            }
            out.push(n);
            // push children reversed so pop yields document order
            for &c in self.nodes[n.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The string *value* of a node: concatenation of its text
    /// descendants in document order (XPath string-value). Attribute
    /// subtrees are excluded for elements; attributes and text nodes
    /// yield their own text.
    pub fn value(&self, id: NodeId) -> String {
        let n = &self.nodes[id.index()];
        match n.kind {
            NodeKind::Text | NodeKind::Attribute => n.text.as_deref().unwrap_or("").to_owned(),
            NodeKind::Element => {
                let mut out = String::new();
                self.collect_text(id, &mut out);
                out
            }
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        for &c in &self.nodes[id.index()].children {
            let n = &self.nodes[c.index()];
            if !n.alive {
                continue;
            }
            match n.kind {
                NodeKind::Text => out.push_str(n.text.as_deref().unwrap_or("")),
                NodeKind::Element => self.collect_text(c, out),
                NodeKind::Attribute => {}
            }
        }
    }

    /// The *content* of a node: its full serialized subtree image.
    pub fn content(&self, id: NodeId) -> String {
        serialize_node(self, id)
    }

    /// Live members of the canonical relation `R_label`, in document
    /// order. Text nodes are in no list: `#text`'s is empty, and a view
    /// reads text through its nodes' `val` / `cont`.
    pub fn canonical_nodes(&self, label: LabelId) -> &[NodeId] {
        self.canonical.nodes(label)
    }

    /// Canonical relation by label *name*; empty when the label never
    /// occurred in the document.
    pub fn canonical_nodes_named(&self, name: &str) -> &[NodeId] {
        match self.labels.get(name) {
            Some(l) => self.canonical.nodes(l),
            None => &[],
        }
    }

    /// The part of [`Self::canonical_nodes`] inside the subtree of
    /// `root`, `root` itself included: one stretch of the list, found
    /// by two binary searches that compare by parent links (no ID is
    /// built): a node is inside when it reaches `root` climbing by the
    /// difference of their depths. Empty under a dead root — its nodes
    /// left the list.
    pub fn canonical_nodes_within(&self, label: LabelId, root: NodeId) -> &[NodeId] {
        if !self.is_alive(root) {
            return &[];
        }
        let list = self.canonical.nodes(label);
        let inside = &list[list.partition_point(|&n| self.doc_cmp(n, root) == Ordering::Less)..];
        let top = self.nodes[root.index()].depth;
        let under = |&n: &NodeId| {
            let below = self.nodes[n.index()].depth.checked_sub(top);
            below.is_some_and(|by| lift(&self.nodes, n, by) == root)
        };
        &inside[..inside.partition_point(under)]
    }

    /// The live attributes labeled `label` whose value is `value`, in
    /// no particular order: a lookup in the label's value index, not a
    /// scan.
    pub fn attributes_with_value(&self, label: LabelId, value: &str) -> Vec<NodeId> {
        self.canonical.with_value(&self.nodes, label, value)
    }

    /// Document order of two nodes, without materializing their IDs.
    /// Nodes that died in an earlier edit have no place left to compare.
    pub fn doc_cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        doc_cmp(&self.nodes, a, b)
    }

    fn check_alive(&self, id: NodeId) -> Result<(), XmlError> {
        if self.is_alive(id) {
            Ok(())
        } else {
            Err(XmlError::DeadNode)
        }
    }

    /// Verifies internal invariants (parent/child symmetry, ordinal
    /// monotonicity, depths — 0 at the root, the parent's plus one below
    /// it —, every live node in the tree, canonical-index consistency —
    /// each label's list is its live nodes in document order, and no
    /// list holds a text node —, dead nodes hold no children and no
    /// text, each arena chunk counts its dead). One pass over the arena
    /// and one pre-order walk, which buckets the live nodes by label in
    /// document order for [`CanonicalIndex::check_against`]: linear in
    /// the document, however deep it nests. Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.nodes.check_dead_counts()?;
        let mut live = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive {
                live += 1;
            } else if !n.children.is_empty() || n.text.is_some() {
                return Err(format!(
                    "dead node {:?} still holds children or text",
                    NodeId(i as u32)
                ));
            }
        }
        let mut labels: LabelMap<Vec<NodeId>> = LabelMap::default();
        let mut stack: Vec<NodeId> = self.root.into_iter().collect();
        let mut walked = 0usize;
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id.index()];
            walked += 1;
            if !n.alive || walked > live {
                return Err(format!("dead node {id:?} in the tree, or the tree is not one"));
            }
            let depth = n.parent.map_or(Some(0), |p| self.nodes[p.index()].depth.checked_add(1));
            if Some(n.depth) != depth {
                return Err(format!("node {id:?} at depth {}, not {depth:?}", n.depth));
            }
            let mut last_ord = 0u64;
            for &c in &n.children {
                let cn = &self.nodes[c.index()];
                if !cn.alive {
                    return Err(format!("dead child {c:?} retained under {id:?}"));
                }
                if cn.parent != Some(id) {
                    return Err(format!("child {c:?} does not point back to {id:?}"));
                }
                if cn.ord <= last_ord {
                    return Err(format!("non-monotonic ordinals under {id:?}"));
                }
                last_ord = cn.ord;
            }
            if n.kind != NodeKind::Text {
                labels.entry(n.label).or_default().push(id);
            }
            // reversed, so that pop yields document order
            stack.extend(n.children.iter().rev());
        }
        if walked != live {
            return Err(format!("{} live nodes are not in the tree", live - walked));
        }
        self.canonical.check_against(&self.nodes, &labels)
    }
}

/// One label's share of an edit ([`crate::canonical::Runs`], owned):
/// the nodes, and the offsets at which each subtree's (or forest's)
/// run starts.
#[derive(Debug, Default)]
struct RunList {
    nodes: Vec<NodeId>,
    starts: Vec<usize>,
    /// What the last run was opened for.
    open: usize,
}

impl RunList {
    /// Adds `node` to the run of `key`, opening it if the last node
    /// went to another.
    fn push(&mut self, key: usize, node: NodeId) {
        if self.starts.is_empty() || self.open != key {
            self.starts.push(self.nodes.len());
            self.open = key;
        }
        self.nodes.push(node);
    }
}

/// One edit of a [`Document`] — a whole PUL, or one forest, or one
/// subtree — and the unit in which its per-label lists change.
///
/// The tree itself changes at once: a forest's nodes are pushed and
/// linked, a removed subtree is unlinked and marked dead, so
/// [`Document::find_node`] and every traversal (reachable through
/// `Deref`) see each operation as soon as it is made. The canonical
/// and value lists are settled when the edit is dropped — early
/// returns included — once per label ([`CanonicalIndex::edit`]): until
/// then they still hold the removed nodes and lack the new ones, and
/// nothing should read them through the guard.
pub struct DocumentEdit<'a> {
    doc: &'a mut Document,
    /// The arena's length when the edit opened: it created exactly the
    /// nodes at or past it, none of which the lists hold yet.
    first_created: usize,
    /// The arena offsets at which the forests appended so far start.
    forests: Vec<usize>,
    /// By label: the old nodes removed so far, one run per subtree;
    /// and, once the edit ends, the created nodes still alive, one run
    /// per forest.
    lists: LabelMap<[RunList; 2]>,
}

impl Deref for DocumentEdit<'_> {
    type Target = Document;

    fn deref(&self) -> &Document {
        self.doc
    }
}

impl DocumentEdit<'_> {
    /// [`Document::intern_label`] within the edit.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        self.doc.intern_label(name)
    }

    /// The document, to push a forest of unindexed nodes into
    /// ([`Document::push_node`]) under one live parent: all that is
    /// pushed until the next call — or the end of the edit — is one
    /// forest, adjacent in document order.
    pub(crate) fn appending(&mut self) -> &mut Document {
        self.forests.push(self.doc.nodes.len());
        self.doc
    }

    /// Removes the subtree rooted at `node` (XQuery Update `delete`
    /// semantics: all descendants go too). Returns the removed nodes in
    /// pre-order; their kinds, labels, ordinals, depths, parent links
    /// and an attribute's text stay readable until the edit ends — the
    /// text for the value list to drop it by —, their child lists and a
    /// text node's text do not.
    pub fn remove_subtree(&mut self, node: NodeId) -> Result<Vec<NodeId>, XmlError> {
        let mut removed = Vec::new();
        self.remove_subtree_with(node, |n, _| removed.push(n))?;
        Ok(removed)
    }

    /// [`Self::remove_subtree`], handing each node to `visit` as it
    /// dies, in pre-order — already dead and childless, with its kind,
    /// label, ordinal, depth and text: what Δ⁻ extraction reads, in the
    /// walk that removes them. A text node's text goes once `visit`
    /// returns.
    pub fn remove_subtree_with(
        &mut self,
        node: NodeId,
        mut visit: impl FnMut(NodeId, &Node),
    ) -> Result<(), XmlError> {
        self.doc.check_alive(node)?;
        let nodes = &mut self.doc.nodes;
        match nodes[node.index()].parent {
            Some(p) => {
                let ord = nodes[node.index()].ord;
                let at = nodes[p.index()]
                    .children
                    .binary_search_by_key(&ord, |c| nodes[c.index()].ord)
                    .expect("a live node is among its parent's children");
                nodes.get_mut(p.index()).children.remove(at);
            }
            None => self.doc.root = None,
        }
        // One walk, one write per node: it dies, gives its child list
        // back to the walk, is noted for its label's list and is handed
        // to `visit`. Pre-order is document order: each label's share
        // of the subtree is one run of that label's canonical relation.
        // Nodes this edit created are in no list yet, and never will be;
        // nor is a text node, whose text goes once `visit` has read it.
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let dead = nodes.kill(n.index());
            // reversed, so that pop yields document order
            stack.extend(std::mem::take(&mut dead.children).into_iter().rev());
            let text = dead.kind == NodeKind::Text;
            if n.index() < self.first_created && !text {
                self.lists.entry(dead.label).or_default()[0].push(node.index(), n);
            }
            visit(n, dead);
            if text {
                dead.text = None;
            }
        }
        Ok(())
    }
}

/// Settles the lists: per label, the runs removed and the runs — one
/// per forest — of the created nodes still alive, in one
/// [`CanonicalIndex::edit`], which is the last reader of a removed
/// attribute's text and of the removed nodes' places; then the removed
/// attributes' text goes (a text node's went in the walk that removed
/// it). Text nodes are in no list. Then frees the chunks left all dead
/// (`Arena::release_dead`). Panics only where the index was already
/// broken.
impl Drop for DocumentEdit<'_> {
    fn drop(&mut self) {
        let Document { nodes, canonical, work, .. } = &mut *self.doc;
        let ends = self.forests.iter().skip(1).copied().chain([nodes.len()]);
        for (&start, end) in self.forests.iter().zip(ends) {
            for i in start..end {
                let node = &nodes[i];
                if node.alive && node.kind != NodeKind::Text {
                    self.lists.entry(node.label).or_default()[1].push(start, NodeId(i as u32));
                } else if !node.alive && node.text.is_some() {
                    nodes.get_mut(i).text = None; // an attribute this edit made and removed
                }
            }
        }
        for (&label, [gone, new]) in &self.lists {
            let [removed, inserted] = [gone, new].map(|l| (&l.nodes[..], &l.starts[..]));
            *work += canonical.edit(nodes, label, removed, inserted);
            if gone.nodes.first().is_some_and(|n| nodes[n.index()].kind == NodeKind::Attribute) {
                gone.nodes.iter().for_each(|n| nodes.get_mut(n.index()).text = None);
            }
        }
        work.released += nodes.release_dead();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        // <a><c><b/></c><f><b/></f></a>  (Figure 2 of the paper)
        let mut d = Document::new();
        let a = d.set_root("a").unwrap();
        let c = d.append_element(a, "c").unwrap();
        let b1 = d.append_element(c, "b").unwrap();
        let f = d.append_element(a, "f").unwrap();
        let _b2 = d.append_element(f, "b").unwrap();
        d.check_invariants().unwrap();
        (d, a, c, b1)
    }

    #[test]
    fn structure_matches_figure_2() {
        let (d, a, c, b1) = sample();
        assert!(d.dewey(a).is_parent_of(&d.dewey(c)));
        assert!(d.dewey(a).is_ancestor_of(&d.dewey(b1)));
        assert!(d.dewey(c).is_parent_of(&d.dewey(b1)));
        let b_label = d.label_id("b").unwrap();
        assert_eq!(d.canonical_nodes(b_label).len(), 2);
    }

    #[test]
    fn only_one_root_allowed() {
        let mut d = Document::new();
        d.set_root("a").unwrap();
        assert!(d.set_root("b").is_err());
    }

    #[test]
    fn value_concatenates_text_descendants() {
        let mut d = Document::new();
        let r = d.set_root("a").unwrap();
        d.append_text(r, "x").unwrap();
        let b = d.append_element(r, "b").unwrap();
        d.append_attribute(b, "id", "skip-me").unwrap();
        d.append_text(b, "y").unwrap();
        assert_eq!(d.value(r), "xy");
        assert_eq!(d.value(b), "y");
    }

    #[test]
    fn attribute_value_is_its_own_value() {
        let mut d = Document::new();
        let r = d.set_root("a").unwrap();
        let at = d.append_attribute(r, "id", "person0").unwrap();
        assert_eq!(d.value(at), "person0");
        assert_eq!(d.label_name(d.node(at).label), "@id");
    }

    #[test]
    fn remove_subtree_returns_preorder_and_updates_canonical() {
        let (mut d, _a, c, b1) = sample();
        let removed = d.remove_subtree(c).unwrap();
        assert_eq!(removed, vec![c, b1]);
        assert!(!d.is_alive(c));
        assert!(!d.is_alive(b1));
        let b_label = d.label_id("b").unwrap();
        assert_eq!(d.canonical_nodes(b_label).len(), 1);
        d.check_invariants().unwrap();
    }

    /// A dead node is empty and nobody reads it: a subtree with
    /// attributes removed under a held image leaves slots that hold only
    /// what places them, the image keeps the old text, the value index
    /// loses exactly the removed entries, and what is left reads like a
    /// from-scratch parse of it.
    #[test]
    fn a_removed_subtree_gives_its_payload_back_under_a_held_image() {
        const OLD: &str = "<r><p id=\"1\"><n k=\"x\">one</n></p>\
            <p id=\"2\"><n k=\"x\">two</n><q id=\"1\"/></p><p id=\"3\"/></r>";
        let mut d = crate::parse_document(OLD).unwrap();
        let image = d.clone();
        let removed = d.remove_subtree(d.canonical_nodes_named("p")[1]).unwrap();
        assert_eq!(removed.len(), 7, "p @id n @k #text q @id");
        for &n in &removed {
            let (dead, was) = (d.node(n), image.node(n));
            assert!(!dead.alive && dead.children.is_empty() && dead.text.is_none(), "{n:?}");
            assert_eq!(
                (dead.kind, dead.label, dead.ord, dead.parent),
                (was.kind, was.label, was.ord, was.parent)
            );
        }
        d.check_invariants().unwrap();
        image.check_invariants().unwrap();
        assert_eq!(crate::serialize_document(&image), OLD);
        for (name, value, before, after) in
            [("@id", "1", 2, 1), ("@id", "2", 1, 0), ("@id", "3", 1, 1), ("@k", "x", 2, 1)]
        {
            let label = d.label_id(name).unwrap();
            assert_eq!(image.attributes_with_value(label, value).len(), before, "{name}={value}");
            assert_eq!(d.attributes_with_value(label, value).len(), after, "{name}={value}");
        }
        let left = crate::serialize_document(&d);
        assert_eq!(left, "<r><p id=\"1\"><n k=\"x\">one</n></p><p id=\"3\"/></r>");
        let fresh = crate::parse_document(&left).unwrap();
        let relation = |doc: &Document, name: &str| -> Vec<String> {
            doc.canonical_nodes_named(name).iter().map(|&n| doc.content(n)).collect()
        };
        for (_, name) in d.labels().iter() {
            assert_eq!(relation(&d, name), relation(&fresh, name), "{name}");
        }
    }

    /// The check is one pass: a chain 20 000 elements deep — an
    /// attribute and a text node at every level — passes at once, where
    /// a search per node, each comparison climbing the chain, took
    /// minutes at this depth.
    #[test]
    fn a_deep_chain_passes_the_invariant_check_in_one_pass() {
        let mut d = Document::new();
        let mut at = d.set_root("a").unwrap();
        for i in 0..20_000 {
            d.append_attribute(at, "k", &i.to_string()).unwrap();
            d.append_text(at, "t").unwrap();
            at = d.append_element(at, "a").unwrap();
        }
        d.check_invariants().unwrap();
        assert_eq!(d.canonical_nodes_named("a").len(), 20_001);
        assert!(d.canonical_nodes_named(TEXT_LABEL).is_empty(), "text is in no list");
    }

    /// What the check catches in the index: a text node in a list, a
    /// live node missing from its list, a list out of document order.
    #[test]
    fn the_invariant_check_catches_a_list_that_is_not_its_labels_nodes() {
        let fails = |d: &Document, what: &str| {
            let e = d.check_invariants().expect_err(what);
            assert!(e.contains(what), "{e}");
        };
        let (d, a, c, b1) = sample();
        let mut text = d.clone();
        let t = text.append_text(c, "x").unwrap();
        let label = text.label_id(TEXT_LABEL).unwrap();
        text.canonical.edit(&text.nodes, label, (&[], &[]), (&[t], &[0]));
        fails(&text, "text node");
        let mut missing = d.clone();
        let b = missing.node(b1).label;
        missing.canonical.edit(&missing.nodes, b, (&[b1], &[0]), (&[], &[]));
        fails(&missing, "not its live nodes");
        // two z siblings trade places in the tree, not in their list
        let mut disordered = d.clone();
        let z = [(); 2].map(|_| disordered.append_element(a, "z").unwrap());
        let ords = z.map(|n| disordered.node(n).ord);
        let nodes = &mut disordered.nodes;
        (nodes.get_mut(z[0].index()).ord, nodes.get_mut(z[1].index()).ord) = (ords[1], ords[0]);
        let siblings = &mut nodes.get_mut(a.index()).children;
        let at = siblings.len() - 2;
        siblings.swap(at, at + 1);
        fails(&disordered, "not its live nodes");
        d.check_invariants().unwrap();
    }

    /// Depths are `u16`: under a node `u16::MAX` levels below the root,
    /// the deepest a document holds, no child is pushed.
    #[test]
    fn a_document_nests_at_most_u16_max_levels_below_its_root() {
        let (mut d, a, c, _) = sample();
        d.nodes.get_mut(a.index()).depth = u16::MAX;
        let refused = |r: Result<NodeId, XmlError>| matches!(r, Err(XmlError::InvalidTarget(_)));
        assert!(refused(d.append_element(a, "z")));
        assert!(refused(d.append_text(a, "t")));
        assert!(refused(d.insert_element_before(a, c, "z")));
    }

    #[test]
    fn remove_then_access_is_error() {
        let (mut d, _, c, _) = sample();
        d.remove_subtree(c).unwrap();
        assert_eq!(d.remove_subtree(c), Err(XmlError::DeadNode));
        assert!(d.append_element(c, "z").is_err());
    }

    #[test]
    fn dewey_find_roundtrip() {
        let (d, a, c, b1) = sample();
        for n in [a, c, b1] {
            assert_eq!(d.find_node(&d.dewey(n)), Some(n));
        }
        // deleted node is not found
        let mut d2 = d.clone();
        let id = d2.dewey(b1);
        d2.remove_subtree(b1).unwrap();
        assert_eq!(d2.find_node(&id), None);
    }

    #[test]
    fn insert_before_keeps_existing_ids_stable() {
        let (mut d, a, c, _) = sample();
        let c_id_before = d.dewey(c);
        let f = d.children_of(a)[1];
        let new = d.insert_element_before(a, f, "z").unwrap();
        assert_eq!(d.dewey(c), c_id_before, "existing IDs must not change");
        let ids: Vec<_> = d.children_of(a).to_vec();
        assert_eq!(ids, vec![c, new, f]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn descendants_or_self_is_preorder() {
        let (d, a, c, b1) = sample();
        let all = d.descendants_or_self(a);
        assert_eq!(all[0], a);
        assert_eq!(all[1], c);
        assert_eq!(all[2], b1);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn canonical_relation_in_document_order() {
        let (d, _, _, _) = sample();
        let b = d.label_id("b").unwrap();
        let rel = d.canonical_nodes(b);
        assert!(d.dewey(rel[0]).doc_cmp(&d.dewey(rel[1])).is_lt());
    }

    #[test]
    fn children_can_only_be_added_to_elements() {
        let mut d = Document::new();
        let r = d.set_root("a").unwrap();
        let t = d.append_text(r, "hello").unwrap();
        assert!(d.append_element(t, "b").is_err());
    }

    #[test]
    fn content_serializes_subtree() {
        let (d, _, c, _) = sample();
        assert_eq!(d.content(c), "<c><b/></c>");
    }

    /// The range accessor against its definition — filter the list by
    /// Dewey prefix — on every (label, node) pair, dead roots included.
    #[test]
    fn canonical_nodes_within_is_the_list_filtered_by_dewey_prefix() {
        let mut d = crate::parse_document(
            "<a k=\"1\"><b><c/>t<c k=\"2\"><b/></c></b><b/><d><b k=\"3\"><c/></b>u</d><c/></a>",
        )
        .unwrap();
        let all = d.descendants_or_self(d.root().unwrap());
        let labels: Vec<LabelId> = d.labels().iter().map(|(l, _)| l).collect();
        let check = |d: &Document| {
            for &root in &all {
                let prefix = d.dewey(root);
                for &l in &labels {
                    let filtered: Vec<NodeId> = d
                        .canonical_nodes(l)
                        .iter()
                        .copied()
                        .filter(|&n| prefix.is_ancestor_or_self_of(&d.dewey(n)))
                        .collect();
                    assert_eq!(d.canonical_nodes_within(l, root), filtered, "{l:?} in {root:?}");
                }
            }
        };
        check(&d);
        // Dead roots (the first b and all under it) hold nothing; the
        // ranges around them close up.
        d.remove_subtree(d.canonical_nodes_named("b")[0]).unwrap();
        check(&d);
    }

    /// `<r>` over 300 `<p id><n>x</n></p>`: four nodes each, five
    /// arena chunks. Person `i` holds slots `4i + 1 ..= 4i + 4`.
    const PEOPLE: usize = 300;

    fn people() -> (String, Document) {
        let people: String = (0..PEOPLE).map(|i| format!("<p id=\"{i}\"><n>x</n></p>")).collect();
        let xml = format!("<r>{people}</r>");
        let d = crate::parse_document(&xml).unwrap();
        assert_eq!(d.chunk_count(), 5);
        (xml, d)
    }

    /// Deleting persons 63..=127 in one edit kills every slot of chunk
    /// 1 (256..512) and some of chunks 0 and 2. The lists are settled
    /// from the dead nodes' places first; then chunk 1, and only it, is
    /// freed. Its nodes then read as dead and placeless, the rest of
    /// the document as before, and an image taken before the edit keeps
    /// reading all of them.
    #[test]
    fn a_chunk_whose_nodes_all_died_is_freed_once_the_edit_settles() {
        let (xml, mut d) = people();
        let image = d.clone();
        let doomed = d.canonical_nodes_named("p")[63..128].to_vec();
        let mut edit = d.edit();
        for &p in &doomed {
            assert_eq!(edit.remove_subtree(p).unwrap().len(), 4);
        }
        assert_eq!(edit.released_chunks(), 0, "the lists still read the dead places");
        drop(edit);
        assert_eq!((d.chunk_count(), d.released_chunks()), (5, 1));
        d.check_invariants().unwrap();

        let gone = doomed[10]; // slot 293
        assert!(!d.is_alive(gone) && d.parent_of(gone).is_none());
        assert_eq!(d.node(gone).label, LabelId(0));
        let n = d.label_id("n").unwrap();
        assert!(d.canonical_nodes_within(n, gone).is_empty());
        assert!(d.canonical_nodes_within(n, doomed[0]).is_empty(), "dead, not released");
        assert_eq!(image.parent_of(gone), image.root());
        assert_eq!(image.canonical_nodes_within(n, gone).len(), 1);
        image.check_invariants().unwrap();
        assert_eq!(crate::serialize_document(&image), xml);

        let left: String = (0..PEOPLE)
            .filter(|i| !(63..128).contains(i))
            .map(|i| format!("<p id=\"{i}\"><n>x</n></p>"))
            .collect();
        assert_eq!(crate::serialize_document(&d), format!("<r>{left}</r>"));
        let p = d.append_element(d.root().unwrap(), "p").unwrap();
        assert_eq!(p.index(), 4 * PEOPLE + 1, "slots are never reused");
        d.check_invariants().unwrap();
    }

    /// One edit inserts a 600-node forest and removes it again: the
    /// full chunk it filled is freed when the edit ends, the tail it
    /// left is not, and what is left is the seed.
    #[test]
    fn a_forest_inserted_and_removed_in_one_edit_frees_the_chunks_it_filled() {
        let mut d = crate::parse_document("<r><a/></r>").unwrap();
        let forest: String = (0..200).map(|i| format!("<p k=\"{i}\">x</p>")).collect();
        let mut edit = d.edit();
        let roots = edit.insert_forest(NodeId(1), &forest).unwrap();
        for root in roots {
            edit.remove_subtree(root).unwrap();
        }
        drop(edit);
        assert_eq!((d.arena_len(), d.chunk_count(), d.released_chunks()), (602, 3, 1));
        assert_eq!(crate::serialize_document(&d), "<r><a/></r>");
        d.check_invariants().unwrap();
    }

    /// The batched edit against the per-run maintenance it replaced
    /// (`canonical::tests`): random mixed edits — nested and repeated
    /// delete targets, forests under nodes the edit created or is
    /// about to delete, duplicate attribute values — leave the lists
    /// the reference leaves when it is told of every subtree and forest
    /// at once; a snapshot taken before keeps its own.
    #[test]
    fn a_batched_edit_equals_the_per_run_reference() {
        const SEED: &str = "<r k=\"v0\"><a k=\"v1\"><b j=\"v1\">x</b><a><b k=\"v1\"/><c/></a></a>\
            <c j=\"v0\"><b/><b k=\"v0\"><c k=\"v1\"/></b></c><a/><b j=\"v1\">y</b></r>";
        const FORESTS: [&str; 4] = [
            "<b k=\"v1\"/>",
            "<a k=\"v0\" j=\"v1\"><b k=\"v1\"/>z<c/></a><b/>",
            "<c j=\"v1\"><b k=\"v1\" j=\"v1\"/></c>",
            "w",
        ];
        let by_label = |d: &Document, nodes: &[NodeId]| {
            let mut runs: LabelMap<Vec<NodeId>> = LabelMap::default();
            let indexed = nodes.iter().filter(|n| d.nodes[n.index()].kind != NodeKind::Text);
            indexed.for_each(|&n| runs.entry(d.nodes[n.index()].label).or_default().push(n));
            runs
        };
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |below: usize| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize % below
        };
        for case in 0..300 {
            let mut d = crate::parse_document(SEED).unwrap();
            for _edit in 0..3 {
                let snapshot = d.clone();
                let mut reference = d.canonical.clone();
                let mut edit = d.edit();
                for _op in 0..1 + draw(6) {
                    // Any node ever made, dead ones too (a no-op), the
                    // root excepted.
                    let target = NodeId(1 + draw(edit.arena_len() - 1) as u32);
                    if draw(2) == 0 {
                        let Ok(removed) = edit.remove_subtree(target) else { continue };
                        for run in by_label(&edit, &removed).values() {
                            reference.remove_run(&edit.nodes, run);
                        }
                    } else {
                        let first = edit.arena_len();
                        if edit.insert_forest(target, FORESTS[draw(FORESTS.len())]).is_err() {
                            continue; // a dead or a non-element parent
                        }
                        let made: Vec<NodeId> =
                            (first..edit.arena_len()).map(|i| NodeId(i as u32)).collect();
                        for run in by_label(&edit, &made).values() {
                            reference.insert_run(&edit.nodes, run);
                        }
                    }
                }
                drop(edit);
                d.canonical.assert_same_lists(&reference);
                d.check_invariants().unwrap_or_else(|e| panic!("case {case}: {e}"));
                snapshot
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("case {case}, snapshot: {e}"));
            }
        }
    }
}
