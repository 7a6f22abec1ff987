//! Arena node representation.

use crate::label::LabelId;

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
    /// Children in document order. Attribute nodes come first by
    /// construction (they are parsed before element content).
    pub children: Vec<NodeId>,
    /// Text content for [`NodeKind::Text`], attribute value for
    /// [`NodeKind::Attribute`], unused for elements.
    pub text: Option<String>,
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
            children: vec![],
            text: Some("hi".into()),
            alive: true,
            max_child_ord: 0,
        };
        assert!(!n.is_element());
        assert!(Node { kind: NodeKind::Element, ..n }.is_element());
    }

    #[test]
    fn node_id_index() {
        assert_eq!(NodeId(7).index(), 7);
    }
}
