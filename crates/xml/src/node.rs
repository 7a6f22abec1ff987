//! Arena node representation.

use crate::label::LabelId;
use std::sync::Arc;

/// Index of a node in a [`crate::Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The three node kinds of the paper's document model (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Element,
    Attribute,
    Text,
}

/// One tree node. Nodes store only their *own* Dewey step (label +
/// sibling ordinal); full [`crate::DeweyId`]s are materialized on
/// demand by walking parents, which keeps per-node memory constant.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub label: LabelId,
    /// Gap-allocated ordinal among siblings (see [`crate::dewey`]).
    pub ord: u64,
    pub parent: Option<NodeId>,
    /// How many nodes lie above it: 0 for a root, its parent's depth
    /// plus one otherwise. Set once, when the node is pushed — nodes
    /// never move — so document order compares without climbing to the
    /// root ([`crate::canonical::doc_cmp`]).
    pub depth: u16,
    /// Children in document order. Attribute nodes come first by
    /// construction (they are parsed before element content).
    pub children: Vec<NodeId>,
    /// Text content for [`NodeKind::Text`], attribute value for
    /// [`NodeKind::Attribute`], unused for elements. Shared: the copies
    /// of a grafted forest, and a copy-on-write copy of a chunk, point
    /// at the same string.
    pub text: Option<Arc<str>>,
    /// Deleted nodes stay in the arena but are marked dead; canonical
    /// relations and traversals skip them.
    pub alive: bool,
    /// Highest child ordinal ever allocated under this node, dead
    /// children included — ordinals are never recycled, so stale
    /// structural IDs can never resolve to a different node.
    pub max_child_ord: u64,
}

impl Node {
    pub fn is_element(&self) -> bool {
        self.kind == NodeKind::Element
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_predicates() {
        let n = Node {
            kind: NodeKind::Text,
            label: LabelId(0),
            ord: 1,
            parent: None,
            depth: 0,
            children: vec![],
            text: Some("hi".into()),
            alive: true,
            max_child_ord: 0,
        };
        assert!(!n.is_element());
        assert!(Node { kind: NodeKind::Element, ..n }.is_element());
    }

    /// The fields are laid out in 72 bytes: a node is what a chunk copy
    /// moves, 256 at a time.
    #[test]
    fn a_node_fits_in_72_bytes() {
        assert!(std::mem::size_of::<Node>() <= 72, "{}", std::mem::size_of::<Node>());
    }

    #[test]
    fn node_id_index() {
        assert_eq!(NodeId(7).index(), 7);
    }
}
