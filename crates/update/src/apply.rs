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
//! extraction per commit, not one per view. [`DeltaLabels`] says which
//! labels the views read; the walks build IDs and values for those
//! alone, and of a removed node only where a Δ⁻ table is read — every
//! other label the views name is counted.
//!
//! An insertion's forest text is parsed once per PUL, into a template
//! that each operation carrying the same text grafts under its target
//! ([`xivm_xml::ForestTemplate`]). The graft builds each copy's ID from
//! the target's and the template path, and a template node's value and
//! content are read once, off its first copy, and shared by every copy
//! ([`Added`]) — unless a later operation of the PUL changes a copy,
//! when the copies are valued as the document holds them.
//!
//! The removal walk is the edit's own: each node is extracted as it
//! dies ([`DocumentEdit::remove_subtree_with`]). It is the last reader
//! of the removed text, so it hands each removed node of a label that
//! carries a value predicate its pre-apply string value: σ(Δ⁻) is a
//! bucket lookup too, and no view reads the document before the apply.
//! Both walks note where text moved ([`ApplyResult::text_moved`]): a
//! value predicate can change its truth only at or above those nodes.
//!
//! A PUL is one edit of the document ([`xivm_xml::document::DocumentEdit`]):
//! each operation changes the tree at once, so the next one resolves
//! its target against it, and the per-label lists are settled once,
//! when [`apply_pul`] returns.

use crate::delta::is_witness;
use crate::pul::{AtomicOp, Pul};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use xivm_pattern::{NodeTest, TreePattern};
use xivm_xml::document::DocumentEdit;
use xivm_xml::label::LabelMap;
use xivm_xml::{
    DeweyId, Document, ForestTemplate, LabelId, LabelInterner, NodeId, NodeKind, Step, Work,
    XmlError,
};

/// The nodes one applied PUL inserted (or deleted), bucketed by label.
/// A label determines its node kind (attribute labels carry an `@`,
/// text nodes share one pseudo-label), so each bucket has one kind.
/// A bucket counts its label's nodes; it holds an item for each, or —
/// a removed node whose ID no view reads — for none.
#[derive(Debug, Clone)]
pub struct LabelBuckets<T> {
    buckets: LabelMap<Bucket<T>>,
}

#[derive(Debug, Clone)]
struct Bucket<T> {
    kind: NodeKind,
    items: Vec<T>,
    count: usize,
}

impl<T> Default for LabelBuckets<T> {
    fn default() -> Self {
        LabelBuckets { buckets: LabelMap::default() }
    }
}

impl<T> LabelBuckets<T> {
    fn bucket(&mut self, label: LabelId, kind: NodeKind) -> &mut Bucket<T> {
        let bucket = self.buckets.entry(label);
        let bucket = bucket.or_insert_with(|| Bucket { kind, items: Vec::new(), count: 0 });
        bucket.count += 1;
        bucket
    }

    fn push(&mut self, label: LabelId, kind: NodeKind, item: T) {
        self.bucket(label, kind).items.push(item);
    }

    /// Counts a node of `label` without an item.
    fn tally(&mut self, label: LabelId, kind: NodeKind) {
        self.bucket(label, kind);
    }

    /// The bucket of `label`: an item per node, or none where the
    /// label's nodes were only counted.
    pub fn get(&self, label: LabelId) -> &[T] {
        self.buckets.get(&label).map_or(&[], |b| b.items.as_slice())
    }

    /// How many nodes of `label` the bucket counts, with or without
    /// their items.
    pub fn count(&self, label: LabelId) -> usize {
        self.buckets.get(&label).map_or(0, |b| b.count)
    }

    /// The labels whose buckets hold elements — a wildcard's.
    pub(crate) fn element_labels(&self) -> impl Iterator<Item = LabelId> + '_ {
        let elements = self.buckets.iter().filter(|(_, b)| b.kind == NodeKind::Element);
        elements.map(|(&label, _)| label)
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
            NodeTest::Wildcard => {
                self.element_labels().flat_map(|l| self.get(l).iter().cloned()).collect()
            }
        }
    }

    /// Whether a node passing `test` was bucketed — counted or not —
    /// without building [`Self::matching`].
    pub fn touches(&self, doc: &Document, test: &NodeTest) -> bool {
        !self.is_empty()
            && match test {
                NodeTest::Name(name) => doc.label_id(name).is_some_and(|l| self.count(l) > 0),
                NodeTest::Wildcard => self.element_labels().next().is_some(),
            }
    }

    /// Every bucket, `(label, items)`, in no order across labels.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &[T])> {
        self.buckets.iter().map(|(&label, b)| (label, b.items.as_slice()))
    }

    /// Total number of bucketed nodes, counted or with items.
    pub fn len(&self) -> usize {
        self.buckets.values().map(|b| b.count).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// What the apply extracts for one label's nodes, as flags.
type Want = u8;
/// A removed node is counted in [`ApplyResult::deleted`].
const REMOVED: Want = 1;
/// ... with a Δ⁻ entry: its ID.
const REMOVED_ID: Want = 2;
/// ... carrying its pre-apply string value.
const REMOVED_VALUE: Want = 4;
/// An inserted node gets a Δ⁺ entry: its ID.
const INSERTED: Want = 8;
/// ... carrying its string value.
const INSERTED_VALUE: Want = 16;
/// ... carrying its content.
const INSERTED_CONTENT: Want = 32;
const EVERYTHING: Want = 63;

/// What the apply extracts, per label: which removed nodes are counted
/// in [`ApplyResult::deleted`], which of those get a Δ⁻ entry — their
/// ID — and which of those carry their pre-apply string value
/// ([`ApplyResult::deleted_valued`]); which inserted nodes get a Δ⁺
/// entry ([`ApplyResult::added`]) and whether it carries the node's
/// value and content. No view reads another label's nodes, so building
/// their IDs is wasted work.
///
/// A removed node's ID is read only by a Δ⁻ table the engine builds —
/// a witness pattern node's ([`crate::DeltaMinus::compute`]) — and by
/// a value predicate's σ; every other label the views name is counted,
/// which is all that whether its label lost nodes asks.
///
/// Resolved against a document when built; a label interned since —
/// one an inserted forest introduces — is looked up by name.
#[derive(Debug, Clone, Default)]
pub struct DeltaLabels {
    /// What every label gets: everything under [`Self::all`], a
    /// wildcard pattern node's share under [`Self::of`].
    every: Want,
    /// By label id, for the labels interned when resolved.
    by_label: Vec<Want>,
    /// By name, the labels the patterns name.
    by_name: HashMap<String, Want>,
}

impl DeltaLabels {
    /// Every label, every removed node with its ID and every removed
    /// element and attribute valued, every inserted node valued and with
    /// its content: what [`apply_pul`] extracts, enough for any view and
    /// for [`crate::DeltaMinus::complete`].
    pub fn all() -> Self {
        DeltaLabels { every: EVERYTHING, ..DeltaLabels::default() }
    }

    /// No label: an apply whose Δ nobody reads (a scratch copy, a
    /// replay).
    pub fn none() -> Self {
        DeltaLabels::default()
    }

    /// What the views of `patterns` read from a PUL applied to `doc`:
    /// the labels their pattern nodes name — every label under a
    /// wildcard — removed nodes counted, and with their IDs where the
    /// node is a witness ([`is_witness`]) or carries a value predicate,
    /// valued where it carries one; inserted ones valued where the node
    /// stores `val` or carries a predicate, and with their content where
    /// it stores `cont`.
    pub fn of<'a>(doc: &Document, patterns: impl IntoIterator<Item = &'a TreePattern>) -> Self {
        let mut wanted = DeltaLabels::none();
        for pattern in patterns {
            for n in pattern.node_ids() {
                let node = pattern.node(n);
                let mut want = REMOVED | INSERTED;
                if is_witness(pattern, n) {
                    want |= REMOVED_ID;
                }
                if node.val_pred.is_some() {
                    want |= REMOVED_ID | REMOVED_VALUE | INSERTED_VALUE;
                }
                if node.ann.val {
                    want |= INSERTED_VALUE;
                }
                if node.ann.cont {
                    want |= INSERTED_CONTENT;
                }
                match &node.test {
                    NodeTest::Wildcard => wanted.every |= want,
                    NodeTest::Name(name) => {
                        *wanted.by_name.entry(name.clone()).or_default() |= want
                    }
                }
            }
        }
        wanted.by_label = vec![0; doc.labels().len()];
        for (name, &want) in &wanted.by_name {
            if let Some(label) = doc.label_id(name) {
                wanted.by_label[label.index()] = want;
            }
        }
        wanted
    }

    /// What `label`'s nodes get; `labels` names a label interned since.
    fn of_label(&self, labels: &LabelInterner, label: LabelId) -> Want {
        let named = match self.by_label.get(label.index()) {
            Some(&want) => want,
            None if self.by_name.is_empty() => 0,
            None => self.by_name.get(labels.name(label)).copied().unwrap_or(0),
        };
        self.every | named
    }
}

/// The pre-apply string values of the removed nodes of valued labels.
#[derive(Debug, Clone, Default)]
struct DeletedValues {
    /// The removed text nodes' text, in the order the walk met them,
    /// while a valued node was open: an element's value is one stretch.
    text: String,
    /// The removed attributes' values, one after another.
    attributes: String,
    /// Per valued label, aligned with its `deleted` bucket: each node's
    /// stretch of `text` (`attributes` for an attribute label).
    ranges: LabelMap<Vec<Range<usize>>>,
}

impl DeletedValues {
    /// Starts the value of a removed node of a valued label: an
    /// attribute's is its text, whole; an element's is the text the walk
    /// meets until it closes the element — true then. A text node gets
    /// no value of its own.
    fn open(&mut self, label: LabelId, kind: NodeKind, text: &str) -> bool {
        let range = match kind {
            NodeKind::Attribute => {
                self.attributes.push_str(text);
                self.attributes.len() - text.len()..self.attributes.len()
            }
            NodeKind::Element => self.text.len()..self.text.len(),
            NodeKind::Text => return false,
        };
        self.ranges.entry(label).or_default().push(range);
        kind == NodeKind::Element
    }

    /// Ends the value of an element `open` started: the `k`th of
    /// `label`'s bucket.
    fn close(&mut self, (label, k): (LabelId, usize)) {
        self.ranges.get_mut(&label).expect("opened with a range")[k].end = self.text.len();
    }
}

/// One inserted node's Δ⁺ entry ([`ApplyResult::added`]). A forest
/// inserted under many targets is one template: its copies' IDs are
/// built from the target's ID and the template path as the graft goes,
/// and the value and content of a template node are read once, off its
/// first copy, and shared by every copy.
#[derive(Debug, Clone)]
pub struct Added {
    pub node: NodeId,
    pub id: DeweyId,
    /// The string value, if the apply was asked for it.
    pub val: Option<Arc<str>>,
    /// The content, if the apply was asked for it.
    pub cont: Option<Arc<str>>,
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
    /// The Δ⁺ entry of every created node whose label the apply was
    /// asked for ([`DeltaLabels`]), in document order: the node, its ID
    /// and — where asked — its value and content in the new state.
    pub added: LabelBuckets<Added>,
    /// Every removed node of the old state whose label the apply was
    /// asked for ([`DeltaLabels`]), counted, with its ID where asked —
    /// in document order. Nodes this same PUL had inserted are *not*
    /// listed: they were never part of the old state, so they belong to
    /// no Δ⁻.
    pub deleted: LabelBuckets<DeweyId>,
    /// Where text moved: each insertion target whose forest holds a text
    /// node, and the parent of each delete root whose removed subtree
    /// held an old one. A surviving node's string value changed only if
    /// it is one of these or an ancestor of one; and a removed node's
    /// [`Self::deleted_valued`] value misses old text only then — when
    /// an earlier operation removed text under it.
    pub text_moved: Vec<DeweyId>,
    /// What the apply did: the list settle's searches, comparisons and
    /// sweep reads, and the chunks, lists and interners it copied or the
    /// chunks it released.
    pub work: Work,
    /// The values of the valued labels' `deleted` entries.
    values: DeletedValues,
    /// True when an operation inserted into, or deleted, a node the PUL
    /// had created: the copies of a forest may then differ from the one
    /// their shared value and content were read off.
    copies_changed: bool,
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

    /// The removed nodes labeled `label`, in document order, each with
    /// its string value in the old state. Panics on a label with removed
    /// nodes that the apply was not asked to value ([`DeltaLabels`]).
    pub fn deleted_valued(&self, label: LabelId) -> impl Iterator<Item = (&DeweyId, &str)> {
        let ids = self.deleted.get(label);
        let ranges = self.values.ranges.get(&label).map_or(&[][..], Vec::as_slice);
        let asked = ranges.len() == self.deleted.count(label);
        assert!(asked, "the apply was not asked to value {label:?}");
        let attribute =
            self.deleted.buckets.get(&label).is_some_and(|b| b.kind == NodeKind::Attribute);
        let text = if attribute { &self.values.attributes } else { &self.values.text };
        ids.iter().zip(ranges).map(move |(id, range)| (id, &text[range.clone()]))
    }
}

/// Applies every atomic operation of `pul` to `doc`, in order, with
/// the complete Δ extraction ([`DeltaLabels::all`]).
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
    apply_pul_for(doc, pul, &DeltaLabels::all())
}

/// [`apply_pul`], extracting Δ entries for the labels `wanted` names
/// alone: a label no view reads gets no ID built, and only a valued
/// label's entries carry values.
pub fn apply_pul_for(
    document: &mut Document,
    pul: &Pul,
    wanted: &DeltaLabels,
) -> Result<ApplyResult, XmlError> {
    // What earlier edits counted is not this apply's.
    document.take_work();
    // Dropped — and the lists settled — on every way out, errors too.
    let mut doc = document.edit();
    let forests: usize = pul
        .ops
        .iter()
        .map(|op| match op {
            AtomicOp::InsertInto { forest, .. } => forest.len(),
            AtomicOp::Delete { .. } => 0,
        })
        .sum();
    let used = doc.arena_len();
    if used as u64 + forests as u64 > index_space() {
        return Err(XmlError::IndexSpaceExhausted { used, wanted: forests });
    }
    let mut result = ApplyResult { first_created: Some(doc.arena_len()), ..ApplyResult::default() };
    // The forest text last parsed, as a template.
    let mut template: Option<Template> = None;
    for op in &pul.ops {
        match op {
            AtomicOp::InsertInto { target, forest } => {
                let Some(parent) = doc.find_node(target) else {
                    continue; // target vanished: no-op
                };
                result.copies_changed |= result.created(parent);
                let first = doc.arena_len();
                if template.as_ref().is_none_or(|t| t.text != *forest) {
                    template = None;
                    // Under a node that is no element, and for a forest
                    // that does not parse, the streaming parse fails as
                    // it always did — having built what it built — or,
                    // for a forest of no nodes, builds nothing.
                    if doc.node(parent).is_element() {
                        if let Ok(parsed) = doc.parse_template(forest) {
                            template = Some(Template::new(&doc, forest, parsed, wanted));
                        }
                    }
                }
                let roots = match &mut template {
                    Some(t) => {
                        let roots = doc.graft(parent, &t.parsed)?;
                        t.extract(&doc, target, first, &mut result);
                        result.text_moved.extend(t.has_text.then(|| target.clone()));
                        roots
                    }
                    None => {
                        let roots = doc.insert_forest(parent, forest)?;
                        debug_assert_eq!(doc.arena_len(), first, "only a failing parse builds");
                        roots
                    }
                };
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
                if result.created(target) {
                    result.copies_changed = true;
                } else {
                    result.delete_roots.push(node.clone());
                }
                if remove_extracting(&mut doc, target, node, wanted, &mut result)? {
                    result.text_moved.extend(node.parent());
                }
            }
        }
    }
    // A copy a later operation changed no longer has its template's
    // text: every copy is valued in the new state, as it stands.
    if result.copies_changed {
        for bucket in result.added.buckets.values_mut() {
            for entry in bucket.items.iter_mut().filter(|e| doc.is_alive(e.node)) {
                if entry.val.is_some() {
                    entry.val = Some(doc.value(entry.node).into());
                }
                if entry.cont.is_some() {
                    entry.cont = Some(doc.content(entry.node).into());
                }
            }
        }
    }
    drop(doc);
    result.work = document.take_work();
    // Subtrees are walked in pre-order, but the operations of a PUL
    // come in any order.
    for Bucket { items: entries, .. } in result.added.buckets.values_mut() {
        if !entries.is_sorted_by(|a, b| a.id <= b.id) {
            entries.sort_by(|a, b| a.id.cmp(&b.id));
        }
    }
    let ApplyResult { deleted, values, .. } = &mut result;
    for (label, Bucket { items: ids, .. }) in &mut deleted.buckets {
        if ids.is_sorted() {
            continue;
        }
        match values.ranges.get_mut(label) {
            None => ids.sort(),
            Some(ranges) => {
                let mut both: Vec<_> =
                    std::mem::take(ids).into_iter().zip(std::mem::take(ranges)).collect();
                both.sort_by(|a, b| a.0.cmp(&b.0));
                (*ids, *ranges) = both.into_iter().unzip();
            }
        }
    }
    Ok(result)
}

/// A forest text parsed once and grafted under each of the targets of
/// the operations that carry it, one after another.
struct Template<'p> {
    text: &'p str,
    parsed: ForestTemplate,
    /// Per template node, what its copies' Δ⁺ entries carry — resolved
    /// after the parse, which interned the labels the forest introduces.
    wants: Vec<Want>,
    /// Per template node, the value and content every copy shares:
    /// read off the first copy, as asked.
    shared: Vec<Texts>,
    /// Whether the forest holds a text node.
    has_text: bool,
}

/// An [`Added`] entry's value and content.
type Texts = (Option<Arc<str>>, Option<Arc<str>>);

impl<'p> Template<'p> {
    fn new(doc: &Document, text: &'p str, parsed: ForestTemplate, wanted: &DeltaLabels) -> Self {
        let wants = parsed.nodes().iter().map(|n| wanted.of_label(doc.labels(), n.label)).collect();
        let has_text = parsed.nodes().iter().any(|n| n.kind == NodeKind::Text);
        Template { text, parsed, wants, shared: Vec::new(), has_text }
    }

    /// Records the copy just grafted at arena slots `first..` under the
    /// node `target` identifies: every node in `inserted`, and a Δ⁺
    /// entry for each of a wanted label, its ID the target's plus the
    /// template path — a step at a time, as the removal walk does.
    fn extract(
        &mut self,
        doc: &Document,
        target: &DeweyId,
        first: usize,
        result: &mut ApplyResult,
    ) {
        let copy = |i: usize| NodeId((first + i) as u32);
        if self.shared.is_empty() {
            let read = |i: usize, flag: Want, of: fn(&Document, NodeId) -> String| {
                (self.wants[i] & flag != 0).then(|| Arc::from(of(doc, copy(i))))
            };
            self.shared = (0..self.wants.len())
                .map(|i| {
                    (
                        read(i, INSERTED_VALUE, Document::value),
                        read(i, INSERTED_CONTENT, Document::content),
                    )
                })
                .collect();
        }
        let mut steps = target.steps().to_vec();
        let base = steps.len();
        for (i, node) in self.parsed.nodes().iter().enumerate() {
            let n = copy(i);
            result.inserted.push(node.label, node.kind, n);
            steps.truncate(base + node.depth);
            steps.push(Step::new(node.label, doc.node(n).ord));
            if self.wants[i] & INSERTED != 0 {
                let (val, cont) = self.shared[i].clone();
                let id = DeweyId::from_steps(steps.clone());
                result.added.push(node.label, node.kind, Added { node: n, id, val, cont });
            }
        }
    }
}

/// The removal walk: removes the subtree rooted at `target`, whose ID
/// is `root`, extracting each old node as it dies. A node of a wanted
/// label is counted and, where asked, gets its ID — built a step at a
/// time: `steps` holds the IDs' steps down to the node's parent, cut
/// back to its depth — and, of a valued label, its string value: the
/// stretch of removed text the walk appends while the node is open,
/// until a node no deeper than it comes. Says whether the subtree held
/// an old text node.
fn remove_extracting(
    doc: &mut DocumentEdit<'_>,
    target: NodeId,
    root: &DeweyId,
    wanted: &DeltaLabels,
    result: &mut ApplyResult,
) -> Result<bool, XmlError> {
    let labels = doc.shared_labels();
    let mut steps = root.steps()[..root.depth() - 1].to_vec();
    // The valued elements open: each one's depth, and its label and
    // index in that label's bucket.
    let mut open: Vec<(u16, (LabelId, usize))> = Vec::new();
    let mut held_text = false;
    let first_created = result.first_created;
    let ApplyResult { deleted, values, .. } = result;
    doc.remove_subtree_with(target, |n, doomed| {
        if first_created.is_some_and(|first| n.index() >= first) {
            return; // in no Δ⁻, and above no old node
        }
        while open.last().is_some_and(|&(depth, _)| depth >= doomed.depth) {
            values.close(open.pop().expect("not empty").1);
        }
        steps.truncate(usize::from(doomed.depth));
        steps.push(Step::new(doomed.label, doomed.ord));
        let (label, kind, text) = (doomed.label, doomed.kind, doomed.text.as_deref().unwrap_or(""));
        if kind == NodeKind::Text {
            held_text = true;
            if !open.is_empty() {
                values.text.push_str(text);
            }
        }
        let want = wanted.of_label(&labels, label);
        if want & REMOVED_ID != 0 {
            deleted.push(label, kind, DeweyId::from_steps(steps.clone()));
            if want & REMOVED_VALUE != 0 && values.open(label, kind, text) {
                open.push((doomed.depth, (label, deleted.get(label).len() - 1)));
            }
        } else if want & REMOVED != 0 {
            deleted.tally(label, kind);
        }
    })?;
    for (_, value) in open {
        values.close(value);
    }
    Ok(held_text)
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
    use crate::pul::{compute_pul, compute_pul_counted};
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
    /// delete-by-id do the same work on a 100 KB and on a 2 MB document
    /// — one canonical-list search per *label* of the forest (not per
    /// node, not per sibling), one value-index probe per keyed step, no
    /// sweep, no copy — but for the comparisons, which each search
    /// makes in proportion to the log of its list.
    #[test]
    fn a_point_update_costs_the_same_work_at_any_document_size() {
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
                let mut work = Work::default();
                let pul = compute_pul_counted(&d, stmt, &mut work);
                assert_eq!(pul.len(), 1);
                let res = apply_pul(&mut d, &pul).unwrap();
                work += res.work;
                assert!(work.comparisons > 0);
                (Work { comparisons: 0, ..work }, res.inserted.len() + res.deleted.len())
            };
            let out = (run(&insert), run(&delete));
            d.check_invariants().unwrap();
            (bytes, out)
        };
        let (small_bytes, small) = counts(400);
        let (large_bytes, large) = counts(9_000);
        assert!(small_bytes < 128 << 10 && large_bytes > 2 << 20, "{small_bytes} {large_bytes}");
        assert_eq!(small, large, "the work and |Δ| must not depend on the document");
        // person @id name #text emailaddress homepage watches: seven
        // labels over eleven nodes; the delete finds its person by id.
        let ((insert_work, inserted), (delete_work, deleted)) = small;
        assert_eq!((inserted, deleted), (11, 11));
        let searches = Work { searches: 7, ..Work::default() };
        assert_eq!(insert_work, searches, "one search per label, no lookup");
        assert_eq!(delete_work, Work { probes: 1, ..searches }, "one search per label, one lookup");
    }

    /// The twin for a PUL of many operations: deleting fifty persons,
    /// spread over the document, is one search per label per person —
    /// the first of a label over its whole list, the others galloping
    /// on from the one before — on 96 KB as on 2.2 MB.
    #[test]
    fn a_fifty_target_delete_costs_the_same_searches_at_any_document_size() {
        let searches = |n: usize| {
            let (bytes, mut d) = site(n);
            let persons = d.canonical_nodes_named("person");
            let doomed = (0..50).map(|i| AtomicOp::Delete { node: d.dewey(persons[i * (n / 50)]) });
            let pul = Pul::new(doomed.collect());
            let res = apply_pul(&mut d, &pul).unwrap();
            d.check_invariants().unwrap();
            (bytes, res.work.searches, res.deleted.len())
        };
        let ((small_bytes, small, small_gone), (large_bytes, large, large_gone)) =
            (searches(400), searches(9_000));
        assert!(small_bytes < 128 << 10 && large_bytes > 2 << 20, "{small_bytes} {large_bytes}");
        assert_eq!((small, small_gone), (large, large_gone));
        // person @id name #text emailaddress homepage profile @income
        // interest @category watches: eleven labels over thirteen nodes.
        assert_eq!((small, small_gone), (50 * 11, 50 * 13));
    }

    /// The same fifty persons deleted for views shaped like Q1
    /// (`person[@id]`) and Q17 (`person[homepage]`): only their witness
    /// branches' labels, `@id` and `homepage`, get IDs; `person` and
    /// `name`, which the views store or lie above, are counted; `#text`,
    /// which no view names, is not even counted — at 96 KB as at 2.2 MB.
    #[test]
    fn a_fifty_target_delete_builds_ids_only_where_a_term_reads_them() {
        let views = ["person[/@id]", "person[/homepage]"]
            .map(|p| xivm_pattern::parse_pattern(&format!("/site/people/{p}/name{{id,val}}")));
        let views = views.map(Result::unwrap);
        let extracted = |n: usize| {
            let (bytes, mut d) = site(n);
            let persons = d.canonical_nodes_named("person");
            let doomed = (0..50).map(|i| AtomicOp::Delete { node: d.dewey(persons[i * (n / 50)]) });
            let pul = Pul::new(doomed.collect());
            let wanted = DeltaLabels::of(&d, &views);
            let res = apply_pul_for(&mut d, &pul, &wanted).unwrap();
            let labels = ["person", "@id", "name", "homepage", "#text"];
            let label = |name| d.label_id(name).unwrap();
            (bytes, labels.map(|l| (res.deleted.count(label(l)), res.deleted.get(label(l)).len())))
        };
        let ((small_bytes, small), (large_bytes, large)) = (extracted(400), extracted(9_000));
        assert!(small_bytes < 128 << 10 && large_bytes > 2 << 20, "{small_bytes} {large_bytes}");
        assert_eq!(small, large);
        // (counted, IDs) for person @id name homepage #text
        assert_eq!(small, [(50, 0), (50, 50), (50, 0), (50, 50), (0, 0)]);
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

    /// `pul` applied as before templates: each forest parsed anew under
    /// its target, in one edit.
    fn parse_per_target(d: &mut Document, pul: &Pul) {
        let mut edit = d.edit();
        for op in &pul.ops {
            match op {
                AtomicOp::InsertInto { target, forest } => {
                    if let Some(parent) = edit.find_node(target) {
                        edit.insert_forest(parent, forest).unwrap();
                    }
                }
                AtomicOp::Delete { node } => {
                    if let Some(n) = edit.find_node(node) {
                        edit.remove_subtree(n).unwrap();
                    }
                }
            }
        }
    }

    /// `pul` applied to `seed` by grafting leaves what parsing each
    /// forest under its target leaves: the serialization, every node's
    /// Dewey ID, the arena and the lists. And every Δ⁺ entry reads what
    /// the document holds: its node's ID, value and content.
    fn assert_grafting_equals_parsing(seed: &str, pul: &Pul) -> (Document, ApplyResult) {
        let mut parsed = parse_document(seed).unwrap();
        parse_per_target(&mut parsed, pul);
        let mut grafted = parse_document(seed).unwrap();
        let res = apply_pul(&mut grafted, pul).unwrap();
        assert_eq!(serialize_document(&grafted), serialize_document(&parsed));
        let ids = |d: &Document| -> Vec<DeweyId> {
            d.descendants_or_self(d.root().unwrap()).into_iter().map(|n| d.dewey(n)).collect()
        };
        assert_eq!(ids(&grafted), ids(&parsed));
        assert_eq!(grafted.arena_len(), parsed.arena_len());
        assert_lists_equal_a_reparse(&grafted);
        assert_lists_equal_a_reparse(&parsed);
        assert_eq!(res.added.len(), res.inserted.len(), "every created node has its entry");
        for (_, entries) in res.added.iter() {
            for e in entries.iter().filter(|e| grafted.is_alive(e.node)) {
                assert_eq!(e.id, grafted.dewey(e.node));
                assert_eq!(e.val.as_deref(), Some(grafted.value(e.node).as_str()), "{}", e.id);
                assert_eq!(e.cont.as_deref(), Some(grafted.content(e.node).as_str()), "{}", e.id);
            }
        }
        (grafted, res)
    }

    /// One forest under three targets, one of them inside another: the
    /// outer copy lands after the inner target, the inner one inside it.
    #[test]
    fn a_forest_grafted_under_nested_targets_equals_parsing_it_under_each() {
        const SEED: &str = "<r><a k=\"1\"><b/><a><c/></a></a><a/></r>";
        let d = parse_document(SEED).unwrap();
        let pul = Pul::new(insert(&d, "//a", "<n k=\"2\"><b>x</b><c/></n><b/>"));
        assert_eq!(pul.len(), 3);
        let (_, res) = assert_grafting_equals_parsing(SEED, &pul);
        assert_eq!((res.inserted_roots.len(), res.inserted.len()), (6, 18));
    }

    /// Attributes (quoted either way, escaped), entities, comments and
    /// whitespace-only text, which makes no node, between and inside
    /// the trees, and character data at the top level.
    #[test]
    fn a_forest_with_attributes_entities_and_blank_text_grafts_as_it_parses() {
        const SEED: &str = "<r><p/><q><p/></q><p>t</p></r>";
        let forest = "\n  <i k=\"a&amp;b\" j='&quot;x&apos;'>\n    <n>1 &lt; 2</n>  <!-- c -->\n\
                      <m/>\t</i>\n <i/>  y &gt; z ";
        let d = parse_document(SEED).unwrap();
        let (_, res) = assert_grafting_equals_parsing(SEED, &Pul::new(insert(&d, "//p", forest)));
        assert_eq!(res.inserted.len(), 3 * 8, "i @k @j n #text m i #text, per target");
    }

    /// Later operations of the PUL insert into a grafted copy, delete
    /// inside another — each alone, then both — and add the same forest
    /// once more: each copy ends as the streaming parse leaves it, and
    /// the entries of the changed copies read their new text, not the
    /// template's.
    #[test]
    fn later_operations_on_grafted_copies_equal_parsing_each_forest() {
        const SEED: &str = "<r><p/><p/><p/></r>";
        let forest = "<a><b>1</b><c>2</c></a>";
        let d = parse_document(SEED).unwrap();
        let grafted = insert(&d, "//p", forest);
        let mut scratch = d.clone();
        apply_pul(&mut scratch, &Pul::new(grafted.clone())).unwrap();
        let (b, c) = (scratch.canonical_nodes_named("b")[0], scratch.canonical_nodes_named("c")[1]);
        let into_b = AtomicOp::InsertInto { target: scratch.dewey(b), forest: "<c>3</c>".into() };
        let c_gone = AtomicOp::Delete { node: scratch.dewey(c) };
        for (later, values) in [
            (vec![into_b.clone()], ["132", "12", "12", "12"]),
            (vec![c_gone.clone()], ["12", "1", "12", "12"]),
            (vec![into_b, c_gone], ["132", "1", "12", "12"]),
        ] {
            let mut ops = grafted.clone();
            ops.extend(later);
            ops.extend(insert(&d, "/r", forest));
            let (d, res) = assert_grafting_equals_parsing(SEED, &Pul::new(ops));
            let a = res.added.get(d.label_id("a").unwrap());
            let got: Vec<_> = a.iter().map(|e| e.val.as_deref().unwrap()).collect();
            assert_eq!(got, values, "document order: three p, then r");
        }
    }

    /// The removal walk values the removed nodes of valued labels with
    /// their pre-apply string value — an element's text descendants, an
    /// attribute's own text — and builds no ID for a label nobody asked
    /// for. Operations out of document order leave the buckets sorted,
    /// values with their IDs; nodes the PUL inserted add no text.
    #[test]
    fn the_removal_walk_values_the_labels_asked_for() {
        let xml = "<r><a k=\"1\">x<b>y<a>z</a></b>w</a><a k=\"2\">v</a><c>u</c></r>";
        let d = parse_document(xml).unwrap();
        let mut ops = insert(&d, "//b", "<t>new</t>");
        ops.extend(delete(&d, "/r/a[@k=\"2\"]"));
        ops.extend(delete(&d, "/r/a[@k=\"1\"]"));
        let pul = Pul::new(ops);
        let pattern = xivm_pattern::parse_pattern("//a{id}[val=\"v\"]//@k{id}[val=\"1\"]").unwrap();
        let own = DeltaLabels::of(&d, [&pattern]);
        for (wanted, ids) in [(DeltaLabels::all(), 11), (own, 5)] {
            let mut d = d.clone();
            let res = apply_pul_for(&mut d, &pul, &wanted).unwrap();
            assert_eq!(
                res.deleted.len(),
                ids,
                "a a a @k @k, and b and five #text when all are asked"
            );
            let (a, k) = (d.label_id("a").unwrap(), d.label_id("@k").unwrap());
            let valued = |l| res.deleted_valued(l).map(|(_, v)| v.to_owned()).collect::<Vec<_>>();
            assert_eq!(valued(a), ["xyzw", "z", "v"], "document order");
            assert_eq!(valued(k), ["1", "2"]);
            assert!(res.deleted.get(a).is_sorted());
            assert_eq!(serialize_document(&d), "<r><c>u</c></r>");
        }
    }

    /// Text moves under an insertion target whose forest holds a text
    /// node and above a delete root whose subtree held old text — never
    /// for a forest or subtree without. Deleting inside a node and then
    /// the node, the pair reduction rule O3 drops, leaves the outer walk
    /// reading the node's value without the inner text: the node is
    /// where the inner delete moved text.
    #[test]
    fn text_moves_under_insertion_targets_and_above_delete_roots() {
        let d = parse_document("<r><a>5<x>1</x><y/></a><c/></r>").unwrap();
        let moved = |ops: &[Vec<AtomicOp>]| {
            let res = apply_pul(&mut d.clone(), &Pul::new(ops.concat())).unwrap();
            let a = d.label_id("a").unwrap();
            let value = res.deleted_valued(a).map(|(_, v)| v.to_owned()).next();
            let name = |id: &DeweyId| d.label_name(id.label().unwrap());
            (res.text_moved.iter().map(name).collect::<Vec<_>>().join(" "), value)
        };
        let a = |v: &str| Some(v.to_owned());
        assert_eq!(moved(&[delete(&d, "//x"), delete(&d, "//a")]), ("a r".into(), a("5")));
        assert_eq!(moved(&[delete(&d, "//a"), delete(&d, "//x")]), ("r".into(), a("51")));
        assert_eq!(moved(&[delete(&d, "//y"), delete(&d, "//c")]), ("".into(), None));
        assert_eq!(moved(&[delete(&d, "//x"), delete(&d, "/r")]), ("a".into(), a("5")));
        let inserts = [insert(&d, "//c", "<t>1</t>"), insert(&d, "//y", "<t/>")];
        assert_eq!(moved(&inserts), ("c".into(), None));
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
