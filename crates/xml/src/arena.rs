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
//!
//! Slots are append-only: a [`NodeId`] is the index of the slot its
//! node was pushed into, and no other node ever gets that slot. A dead
//! node's slot dies for good, but whole chunks are freed. Each chunk
//! counts the nodes `Arena::kill` marked dead in it; once all
//! [`CHUNK_SIZE`] are dead and a later chunk has opened,
//! `Arena::release_dead` drops the arena's `Arc` to the chunk and
//! points its slot range at one shared, immutable tombstone chunk. An
//! image that still holds the chunk keeps reading it through its own
//! `Arc`; the last one to go frees it. A released chunk leaves one
//! pointer behind.

use crate::label::LabelId;
use crate::node::{Node, NodeId, NodeKind};
use std::sync::{Arc, OnceLock};

/// log2 of [`CHUNK_SIZE`]; indexing is a shift + mask.
const CHUNK_BITS: usize = 8;
/// Nodes per chunk. Small enough that a copy-on-write of one chunk is
/// cheap, large enough that a snapshot of an XMark-sized document is a
/// few hundred pointer copies.
pub const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_SIZE - 1;

/// How many slots an arena can hold: one per [`NodeId`] (`u32`).
pub const INDEX_SPACE: u64 = 1 << 32;

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
        /// Dead arena chunks released — dropped, not copied.
        pub released: u64,
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

/// One chunk's nodes, and how many of them `Arena::kill` marked dead.
#[derive(Debug, Default, Clone)]
struct Chunk {
    nodes: Vec<Node>,
    dead: usize,
}

/// The chunk every released slot range points at: [`CHUNK_SIZE`] dead
/// nodes without parent, label 0 or ordinal, shared by every arena and
/// never written.
fn tombstone() -> &'static Arc<Chunk> {
    static TOMBSTONE: OnceLock<Arc<Chunk>> = OnceLock::new();
    TOMBSTONE.get_or_init(|| {
        let dead = Node {
            kind: NodeKind::Element,
            label: LabelId(0),
            ord: 0,
            parent: None,
            depth: 0,
            children: Vec::new(),
            text: None,
            alive: false,
            max_child_ord: 0,
        };
        Arc::new(Chunk { nodes: vec![dead; CHUNK_SIZE], dead: CHUNK_SIZE })
    })
}

/// A growable node store with O(chunks) clone, per-chunk
/// copy-on-write and release of dead chunks (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Arena {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
    /// Chunks found all dead since the last `Self::release_dead`; the
    /// tail may be among them.
    releasable: Vec<usize>,
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
        &self.chunks[index >> CHUNK_BITS].nodes[index & CHUNK_MASK]
    }

    /// Mutable access with copy-on-write: when the containing chunk is
    /// shared with a snapshot, it is deep-copied first — the snapshot
    /// keeps the frozen original.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> &mut Node {
        assert!(index < self.len, "node index {index} out of bounds ({})", self.len);
        &mut Self::own(&mut self.chunks[index >> CHUNK_BITS]).nodes[index & CHUNK_MASK]
    }

    /// Marks the live node at `index` dead and returns it, for its
    /// payload to be taken; copy-on-write like [`Self::get_mut`]. Its
    /// chunk counts it, and the kill that leaves the whole chunk dead
    /// notes the chunk for `Self::release_dead`.
    pub(crate) fn kill(&mut self, index: usize) -> &mut Node {
        assert!(index < self.len, "node index {index} out of bounds ({})", self.len);
        let chunk = Self::own(&mut self.chunks[index >> CHUNK_BITS]);
        chunk.dead += 1;
        if chunk.dead == CHUNK_SIZE {
            self.releasable.push(index >> CHUNK_BITS);
        }
        let node = &mut chunk.nodes[index & CHUNK_MASK];
        debug_assert!(node.alive, "node {index} killed twice");
        node.alive = false;
        node
    }

    /// The chunk for writing: copied first if an image shares it.
    #[inline]
    fn own(chunk: &mut Arc<Chunk>) -> &mut Chunk {
        debug_assert!(!Arc::ptr_eq(chunk, tombstone()), "a write to a released chunk");
        #[cfg(debug_assertions)]
        if Arc::strong_count(chunk) > 1 {
            let nodes = chunk.nodes.len() as u64;
            work::count(|c| (c.chunks, c.nodes) = (c.chunks + 1, c.nodes + nodes));
        }
        Arc::make_mut(chunk)
    }

    /// Appends a node, returning its id. Appending into a shared tail
    /// chunk copies that chunk first (the snapshot must not see the
    /// new node). Panics past [`INDEX_SPACE`] slots, which
    /// `xivm_update::apply::apply_pul` refuses to reach.
    pub fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.len).expect("the NodeId index space is exhausted"));
        if self.len & CHUNK_MASK == 0 {
            // The tail moves on, and may leave a dead chunk behind.
            if self.chunks.last().is_some_and(|tail| tail.dead == CHUNK_SIZE) {
                self.releasable.push(self.chunks.len() - 1);
            }
            let mut nodes = Vec::with_capacity(CHUNK_SIZE);
            nodes.push(node);
            self.chunks.push(Arc::new(Chunk { nodes, dead: 0 }));
        } else {
            Self::own(self.chunks.last_mut().expect("tail chunk exists")).nodes.push(node);
        }
        self.len += 1;
        id
    }

    /// Releases every chunk noted since the last call that is all dead
    /// and not the tail: its slots read as the tombstone's from now on
    /// (dead, no parent, label 0). Only for when nothing reads the dead
    /// nodes' places any more — [`crate::document::DocumentEdit`]
    /// calls it once its lists are settled.
    pub(crate) fn release_dead(&mut self) {
        let tail = self.chunks.len().saturating_sub(1);
        for at in self.releasable.drain(..) {
            let chunk = &mut self.chunks[at];
            if at < tail && !Arc::ptr_eq(chunk, tombstone()) {
                *chunk = Arc::clone(tombstone());
                #[cfg(debug_assertions)]
                work::count(|c| c.released += 1);
            }
        }
    }

    /// All nodes in allocation order (dead ones included).
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.chunks.iter().flat_map(|c| c.nodes.iter())
    }

    /// How many chunks two arenas physically share (same `Arc`). A
    /// fresh clone shares everything; each mutated chunk drops out, and
    /// so does each chunk one of them released since (the tombstone a
    /// slot range of both points at counts as shared).
    /// Diagnostic for the copy-on-write tests and benches.
    pub fn shared_chunks_with(&self, other: &Arena) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Total chunk count, released ones included.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many chunks were released: slot ranges at the tombstone.
    pub(crate) fn released_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| Arc::ptr_eq(c, tombstone())).count()
    }

    /// Each chunk's dead count against its nodes.
    pub(crate) fn check_dead_counts(&self) -> Result<(), String> {
        for (at, chunk) in self.chunks.iter().enumerate() {
            let dead = chunk.nodes.iter().filter(|n| !n.alive).count();
            if dead != chunk.dead {
                return Err(format!("chunk {at} counts {} dead of {dead}", chunk.dead));
            }
        }
        Ok(())
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

    fn node(ord: u64) -> Node {
        Node {
            kind: NodeKind::Element,
            label: LabelId(0),
            ord,
            parent: None,
            depth: 0,
            children: Vec::new(),
            text: None,
            alive: true,
            max_child_ord: 0,
        }
    }

    fn arena(len: usize) -> Arena {
        (0..len).map(|i| node(i as u64)).collect()
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

    fn kill_range(a: &mut Arena, range: std::ops::Range<usize>) {
        for i in range {
            a.kill(i);
        }
    }

    /// A full chunk, all dead, behind the tail: its slots read as the
    /// tombstone's, and nothing else moves — ids, length, chunk count,
    /// the live nodes around it.
    #[test]
    fn a_full_dead_chunk_behind_the_tail_is_released() {
        let mut a = arena(CHUNK_SIZE * 2 + 1);
        kill_range(&mut a, CHUNK_SIZE..2 * CHUNK_SIZE);
        a.check_dead_counts().unwrap();
        assert_eq!(a.released_chunks(), 0, "nothing goes before the release");
        assert_eq!(a[CHUNK_SIZE + 5].ord, (CHUNK_SIZE + 5) as u64, "its places stay readable");
        a.release_dead();
        assert_eq!((a.released_chunks(), a.chunk_count(), a.len()), (1, 3, CHUNK_SIZE * 2 + 1));
        let gone = &a[CHUNK_SIZE + 5];
        assert!(!gone.alive && gone.parent.is_none() && gone.label == LabelId(0));
        assert_eq!((a[CHUNK_SIZE - 1].ord, a[2 * CHUNK_SIZE].ord), (255, 512));
        assert_eq!(a.push(node(7)).index(), CHUNK_SIZE * 2 + 1, "ids stay append-only");
        a.check_dead_counts().unwrap();
    }

    /// A dead tail, and a dead chunk but for one node, stay.
    #[test]
    fn a_dead_tail_and_a_chunk_with_one_live_node_stay() {
        let mut a = arena(CHUNK_SIZE * 2);
        kill_range(&mut a, 1..CHUNK_SIZE);
        kill_range(&mut a, CHUNK_SIZE..2 * CHUNK_SIZE);
        a.release_dead();
        assert_eq!(a.released_chunks(), 0, "chunk 0 holds one live node, chunk 1 is the tail");
        assert!(a[0].alive && !a[CHUNK_SIZE].alive);
        a.check_dead_counts().unwrap();
    }

    /// The tail that died whole is released once a push opens the next
    /// chunk, and not before.
    #[test]
    fn the_previous_tail_is_released_once_the_tail_moves_on() {
        let mut a = arena(CHUNK_SIZE * 2);
        kill_range(&mut a, CHUNK_SIZE..2 * CHUNK_SIZE);
        a.release_dead();
        assert_eq!(a.released_chunks(), 0);
        a.push(node(0));
        assert_eq!(a.released_chunks(), 0, "a push releases nothing");
        a.release_dead();
        assert_eq!((a.released_chunks(), a.chunk_count()), (1, 3));
        a.release_dead();
        assert_eq!(a.released_chunks(), 1, "a release is made once");
    }

    /// A clone taken before the release shares the chunk through its
    /// own `Arc` and keeps reading every node of it; the release copies
    /// nothing.
    #[cfg(debug_assertions)]
    #[test]
    fn an_image_keeps_reading_a_chunk_the_arena_released() {
        let mut a = arena(CHUNK_SIZE * 3);
        let image = a.clone();
        work::take();
        kill_range(&mut a, CHUNK_SIZE..2 * CHUNK_SIZE);
        a.release_dead();
        let counts = work::take();
        assert_eq!((counts.chunks, counts.released), (1, 1), "the kill's copy, then the release");
        assert_eq!(a.shared_chunks_with(&image), 2, "chunks 0 and 2");
        for i in CHUNK_SIZE..2 * CHUNK_SIZE {
            assert!(image[i].alive && image[i].ord == i as u64);
            assert!(!a[i].alive);
        }
        let later = a.clone();
        assert_eq!(later.shared_chunks_with(&a), 3, "the tombstone counts as shared");
    }
}
