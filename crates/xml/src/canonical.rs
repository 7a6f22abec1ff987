//! Canonical relations.
//!
//! For a document `d` and label `a`, the paper's *virtual canonical
//! relation* `R_a^d` is the list of `(ID, val, cont)` tuples of all
//! `a`-labeled nodes, sorted in document order (Section 2.2). This
//! module maintains the node-id backbone of those relations
//! incrementally under updates; `val` / `cont` are materialized lazily
//! by the algebra layer when a view actually stores them.
//!
//! Like the node [`Arena`], the index is copy-on-write: each per-label
//! list sits behind an [`Arc`], so cloning the index for a snapshot
//! copies only the list pointers, and a later insert or remove copies
//! exactly the one list it touches ([`Arc::make_mut`]) — the spine of
//! the PUL, never the whole index.

use crate::arena::Arena;
use crate::label::LabelId;
use crate::node::NodeId;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-label lists of live nodes in document order.
#[derive(Debug, Default, Clone)]
pub struct CanonicalIndex {
    map: HashMap<LabelId, Arc<Vec<NodeId>>>,
}

/// Compares two arena nodes in document order by climbing to the root
/// (cheaper than materializing both Dewey IDs).
fn doc_cmp(nodes: &Arena, a: NodeId, b: NodeId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let path = |mut n: NodeId| {
        let mut ords = Vec::new();
        loop {
            let node = &nodes[n.index()];
            ords.push(node.ord);
            match node.parent {
                Some(p) => n = p,
                None => break,
            }
        }
        ords.reverse();
        ords
    };
    let (pa, pb) = (path(a), path(b));
    pa.cmp(&pb)
}

impl CanonicalIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a (new) node under its label, preserving document
    /// order via binary search. Copy-on-write: a list shared with a
    /// snapshot is copied before the edit.
    pub fn insert(&mut self, nodes: &Arena, label: LabelId, id: NodeId) {
        let list = Arc::make_mut(self.map.entry(label).or_default());
        // Fast path: appends at document end are the common case when
        // bulk-loading or running XQuery-Update style insertions.
        if list.last().is_some_and(|&l| doc_cmp(nodes, l, id) == Ordering::Less) || list.is_empty()
        {
            list.push(id);
            return;
        }
        let pos = list.partition_point(|&n| doc_cmp(nodes, n, id) == Ordering::Less);
        list.insert(pos, id);
    }

    /// Removes a node from its label's relation (copy-on-write, like
    /// [`Self::insert`]).
    pub fn remove(&mut self, label: LabelId, id: NodeId) {
        if let Some(list) = self.map.get_mut(&label) {
            if list.contains(&id) {
                let list = Arc::make_mut(list);
                if let Some(pos) = list.iter().position(|&n| n == id) {
                    list.remove(pos);
                }
            }
        }
    }

    /// Live members of `R_label` in document order.
    pub fn nodes(&self, label: LabelId) -> &[NodeId] {
        self.map.get(&label).map_or(&[], |v| v.as_slice())
    }

    pub fn contains(&self, label: LabelId, id: NodeId) -> bool {
        self.map.get(&label).is_some_and(|v| v.contains(&id))
    }

    /// Validates that every relation is sorted in document order.
    pub fn check_sorted(&self, nodes: &Arena) -> Result<(), String> {
        for (label, list) in &self.map {
            for w in list.windows(2) {
                if doc_cmp(nodes, w[0], w[1]) != Ordering::Less {
                    return Err(format!("canonical relation for {label:?} out of order"));
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
    fn remove_unknown_is_noop() {
        let mut idx = CanonicalIndex::new();
        idx.remove(LabelId(3), NodeId(9));
        assert!(idx.nodes(LabelId(3)).is_empty());
    }

    #[test]
    fn empty_relation_for_unknown_label() {
        let idx = CanonicalIndex::new();
        assert!(idx.nodes(LabelId(42)).is_empty());
        assert!(!idx.contains(LabelId(42), NodeId(0)));
    }

    #[test]
    fn clone_shares_lists_until_written() {
        let mut d = Document::new();
        let r = d.set_root("a").unwrap();
        d.append_element(r, "x").unwrap();
        d.append_element(r, "y").unwrap();
        let mut live = d.clone();
        // How many per-label lists two indexes physically share (same `Arc`).
        let shared = |a: &CanonicalIndex, b: &CanonicalIndex| {
            a.map.iter().filter(|(l, x)| b.map.get(l).is_some_and(|y| Arc::ptr_eq(x, y))).count()
        };
        // The snapshot shares every per-label list with the original…
        let shared_before = shared(live.canonical_index(), d.canonical_index());
        assert!(shared_before >= 3, "a, x, y lists all shared, got {shared_before}");
        // …and inserting one more x copies only the x list.
        live.append_element(live.root().unwrap(), "x").unwrap();
        let shared_after = shared(live.canonical_index(), d.canonical_index());
        assert_eq!(shared_after, shared_before - 1);
    }
}
