//! The structural comparisons of the algebra **A** (Section 2.2): `≺`
//! (parent) and `≺≺` (ancestor) between two pattern nodes' IDs — the
//! condition a structural join enforces along a pattern edge.

/// Structural axis between two pattern nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Parent-child (`/` edge, `≺` comparison).
    Child,
    /// Ancestor-descendant (`//` edge, `≺≺` comparison).
    Descendant,
}

impl Axis {
    /// Evaluates the axis over two structural IDs (upper vs. lower).
    pub fn holds(self, upper: &xivm_xml::DeweyId, lower: &xivm_xml::DeweyId) -> bool {
        match self {
            Axis::Child => upper.is_parent_of(lower),
            Axis::Descendant => upper.is_ancestor_of(lower),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_xml::{dewey::Step, DeweyId, LabelId};

    fn id(parts: &[(u32, u64)]) -> DeweyId {
        DeweyId::from_steps(parts.iter().map(|&(a, b)| Step::new(LabelId(a), b)).collect())
    }

    #[test]
    fn axis_holds() {
        let a = id(&[(0, 1)]);
        let ab = id(&[(0, 1), (1, 2)]);
        let abc = id(&[(0, 1), (1, 2), (2, 3)]);
        assert!(Axis::Child.holds(&a, &ab));
        assert!(!Axis::Child.holds(&a, &abc));
        assert!(Axis::Descendant.holds(&a, &abc));
    }
}
