//! Chunked copy-on-write node arena.
//!
//! [`Document`](crate::Document) snapshots need to be cheap: the MVCC
//! layer clones the document once per reader snapshot, deferred batch
//! and async seal window. A flat `Vec<Node>` would make every clone O(nodes),
//! so the arena stores nodes in fixed-size chunks behind [`Arc`]s —
//! cloning an [`Arena`] copies only the chunk *pointers* (O(nodes /
//! [`CHUNK_SIZE`])), and the first mutation of a chunk after a clone
//! copies just that chunk ([`Arc::make_mut`]), never the whole tree.
//! A commit therefore pays a deep copy only for the spine of chunks
//! its PUL actually touches, while every outstanding snapshot keeps
//! reading the frozen originals.

use crate::node::{Node, NodeId};
use std::sync::Arc;

/// log2 of [`CHUNK_SIZE`]; indexing is a shift + mask.
const CHUNK_BITS: usize = 8;
/// Nodes per chunk. Small enough that a copy-on-write of one chunk is
/// cheap, large enough that a snapshot of an XMark-sized document is a
/// few hundred pointer copies.
pub const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_SIZE - 1;

/// What the calling thread copied for document images, for the tests
/// that pin "a commit pays for an image only where something reads it"
/// as counts instead of timings. Debug builds only, like
/// [`crate::canonical::work`].
#[cfg(debug_assertions)]
pub mod work {
    use std::cell::Cell;

    /// Copies since the last [`take`].
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct Copies {
        /// [`Document`](crate::Document) images taken (`clone`).
        pub clones: u64,
        /// Arena chunks copied because an image still shared them…
        pub chunks: u64,
        /// …and the nodes deep-cloned with them.
        pub nodes: u64,
        /// Canonical and value lists copied for the same reason…
        pub lists: u64,
        /// …and their elements.
        pub list_elements: u64,
        /// Copies of the label interner.
        pub interners: u64,
    }

    thread_local!(static COUNTS: Cell<Copies> = Cell::default());

    /// The counts since the last call, reset to zero.
    pub fn take() -> Copies {
        COUNTS.take()
    }

    pub(crate) fn count(add: impl FnOnce(&mut Copies)) {
        let mut counts = COUNTS.get();
        add(&mut counts);
        COUNTS.set(counts);
    }
}

/// A growable node store with O(chunks) clone and per-chunk
/// copy-on-write (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Arena {
    chunks: Vec<Arc<Vec<Node>>>,
    len: usize,
}

impl Arena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots ever allocated (dead nodes included).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared read access; panics on an out-of-range index like a
    /// `Vec` would.
    #[inline]
    pub fn get(&self, index: usize) -> &Node {
        assert!(index < self.len, "node index {index} out of bounds ({})", self.len);
        &self.chunks[index >> CHUNK_BITS][index & CHUNK_MASK]
    }

    /// Mutable access with copy-on-write: when the containing chunk is
    /// shared with a snapshot, it is deep-copied first — the snapshot
    /// keeps the frozen original.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> &mut Node {
        assert!(index < self.len, "node index {index} out of bounds ({})", self.len);
        &mut Self::own(&mut self.chunks[index >> CHUNK_BITS])[index & CHUNK_MASK]
    }

    /// The chunk for writing: copied first if an image shares it.
    #[inline]
    fn own(chunk: &mut Arc<Vec<Node>>) -> &mut Vec<Node> {
        #[cfg(debug_assertions)]
        if Arc::strong_count(chunk) > 1 {
            work::count(|c| (c.chunks, c.nodes) = (c.chunks + 1, c.nodes + chunk.len() as u64));
        }
        Arc::make_mut(chunk)
    }

    /// Appends a node, returning its id. Appending into a shared tail
    /// chunk copies that chunk first (the snapshot must not see the
    /// new node).
    pub fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.len as u32);
        if self.len & CHUNK_MASK == 0 {
            let mut chunk = Vec::with_capacity(CHUNK_SIZE);
            chunk.push(node);
            self.chunks.push(Arc::new(chunk));
        } else {
            Self::own(self.chunks.last_mut().expect("tail chunk exists")).push(node);
        }
        self.len += 1;
        id
    }

    /// All nodes in allocation order (dead ones included).
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// How many chunks two arenas physically share (same `Arc`). A
    /// fresh clone shares everything; each mutated chunk drops out.
    /// Diagnostic for the copy-on-write tests and benches.
    pub fn shared_chunks_with(&self, other: &Arena) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Total chunk count.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl std::ops::Index<usize> for Arena {
    type Output = Node;

    #[inline]
    fn index(&self, index: usize) -> &Node {
        self.get(index)
    }
}

impl FromIterator<Node> for Arena {
    fn from_iter<I: IntoIterator<Item = Node>>(iter: I) -> Self {
        let mut arena = Arena::new();
        for node in iter {
            arena.push(node);
        }
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelId;
    use crate::node::NodeKind;

    fn node(ord: u64) -> Node {
        Node {
            kind: NodeKind::Element,
            label: LabelId(0),
            ord,
            parent: None,
            children: Vec::new(),
            text: None,
            alive: true,
            max_child_ord: 0,
        }
    }

    #[test]
    fn push_and_index_roundtrip_across_chunks() {
        let mut a = Arena::new();
        let n = CHUNK_SIZE * 2 + 7;
        for i in 0..n {
            assert_eq!(a.push(node(i as u64)).index(), i);
        }
        assert_eq!(a.len(), n);
        assert_eq!(a.chunk_count(), 3);
        for i in 0..n {
            assert_eq!(a[i].ord, i as u64);
        }
        assert_eq!(a.iter().count(), n);
    }

    #[test]
    fn clone_shares_all_chunks_until_written() {
        let mut a = Arena::new();
        for i in 0..CHUNK_SIZE * 3 {
            a.push(node(i as u64));
        }
        let snap = a.clone();
        assert_eq!(a.shared_chunks_with(&snap), 3, "a clone shares every chunk");

        // Mutating one node copies exactly its chunk.
        a.get_mut(CHUNK_SIZE + 1).alive = false;
        assert_eq!(a.shared_chunks_with(&snap), 2);
        assert!(snap[CHUNK_SIZE + 1].alive, "the snapshot keeps the frozen original");
        assert!(!a[CHUNK_SIZE + 1].alive);
    }

    #[test]
    fn push_after_clone_leaves_snapshot_fixed() {
        let mut a = Arena::new();
        for i in 0..CHUNK_SIZE + 3 {
            a.push(node(i as u64));
        }
        let snap = a.clone();
        a.push(node(999));
        assert_eq!(snap.len(), CHUNK_SIZE + 3);
        assert_eq!(a.len(), CHUNK_SIZE + 4);
        assert_eq!(a[CHUNK_SIZE + 3].ord, 999);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let a = Arena::new();
        let _ = a.get(0);
    }
}
