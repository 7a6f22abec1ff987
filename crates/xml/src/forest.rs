//! A sorted index over a set of subtree roots (a "forest" of Dewey
//! IDs), answering coverage queries in `O(log n)`.
//!
//! The maintenance engine asks two questions against potentially large
//! root sets (e.g. the targets of `delete /site/people/person`):
//! *is this node inside any of the subtrees?* (snowcap retain
//! filtering) and *does this node's subtree contain any root?*
//! (PIMT / PDMT affectedness). Linear scans make both O(|rel|·|roots|);
//! this index reduces them to binary searches over the maximal roots.

use crate::dewey::DeweyId;
use std::borrow::Cow;

/// An immutable set of subtree roots in document order.
///
/// [`Self::new`] reduces the set to its maximal elements (roots nested
/// under other roots are redundant for *coverage*); [`Self::with_nested`]
/// keeps every root, which the subtree-containment queries need when
/// roots may nest — e.g. insertion targets, where `insert into //a`
/// legitimately targets both an `a` and an `a` inside it.
#[derive(Debug, Clone, Default)]
pub struct DeweyForest {
    /// Roots in document order; maximal (no element an ancestor of
    /// another) iff `reduced`.
    roots: Vec<DeweyId>,
    reduced: bool,
}

impl DeweyForest {
    /// Builds the reduced (maximal-roots) form — the right shape for
    /// [`Self::covers`].
    pub fn new(mut roots: Vec<DeweyId>) -> Self {
        roots.sort_by(|a, b| a.doc_cmp(b));
        let mut maximal: Vec<DeweyId> = Vec::with_capacity(roots.len());
        for r in roots {
            match maximal.last() {
                Some(last) if last.is_ancestor_or_self_of(&r) => {} // nested: drop
                _ => maximal.push(r),
            }
        }
        DeweyForest { roots: maximal, reduced: true }
    }

    /// Keeps every distinct root, including nested ones. Required for
    /// [`Self::has_descendant_or_self_root`] when roots may nest: the
    /// maximal-roots reduction would hide an inner root from a probe
    /// that lies strictly between it and an outer root. Not usable
    /// with [`Self::covers`].
    pub fn with_nested(mut roots: Vec<DeweyId>) -> Self {
        roots.sort_by(|a, b| a.doc_cmp(b));
        roots.dedup();
        DeweyForest { roots, reduced: false }
    }

    /// The maximal elements of `roots`, in document order, as
    /// [`Self::new`] reduces them — `roots` itself, uncopied, when it is
    /// that already (a statement's delete targets usually are).
    pub fn maximal(roots: &[DeweyId]) -> Cow<'_, [DeweyId]> {
        if roots.windows(2).all(|w| w[0] < w[1] && !w[0].is_ancestor_of(&w[1])) {
            Cow::Borrowed(roots)
        } else {
            Cow::Owned(DeweyForest::new(roots.to_vec()).roots)
        }
    }

    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    pub fn len(&self) -> usize {
        self.roots.len()
    }

    pub fn roots(&self) -> &[DeweyId] {
        &self.roots
    }

    /// True iff `id` lies inside (or is) one of the subtrees.
    ///
    /// Because the maximal roots are disjoint subtrees in document
    /// order, the only candidate is the last root ≤ `id`. Only valid
    /// on the reduced form built by [`Self::new`].
    pub fn covers(&self, id: &DeweyId) -> bool {
        debug_assert!(self.reduced, "covers requires the maximal-roots form");
        let pos = self.roots.partition_point(|r| r.doc_cmp(id).is_le());
        pos > 0 && self.roots[pos - 1].is_ancestor_or_self_of(id)
    }

    /// True iff the subtree rooted at `id` contains a root, `id`
    /// itself included (the PIMT / PDMT condition: the stored node is
    /// an update root or an ancestor of one).
    ///
    /// Roots inside `id`'s subtree form a contiguous doc-order range
    /// starting at the first root ≥ `id`.
    pub fn has_descendant_or_self_root(&self, id: &DeweyId) -> bool {
        let pos = self.roots.partition_point(|r| r.doc_cmp(id).is_lt());
        pos < self.roots.len() && id.is_ancestor_or_self_of(&self.roots[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dewey::Step;
    use crate::label::LabelId;

    fn id(parts: &[(u32, u64)]) -> DeweyId {
        DeweyId::from_steps(parts.iter().map(|&(a, b)| Step::new(LabelId(a), b)).collect())
    }

    #[test]
    fn nested_roots_are_reduced() {
        let f = DeweyForest::new(vec![
            id(&[(0, 1), (1, 2)]),
            id(&[(0, 1), (1, 2), (2, 3)]), // nested under the first
            id(&[(0, 1), (1, 9)]),
        ]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn covers_matches_linear_scan() {
        let roots =
            vec![id(&[(0, 1), (1, 2)]), id(&[(0, 1), (1, 7)]), id(&[(0, 1), (1, 9), (2, 1)])];
        let f = DeweyForest::new(roots.clone());
        let probes = [
            id(&[(0, 1)]),
            id(&[(0, 1), (1, 2)]),
            id(&[(0, 1), (1, 2), (5, 5)]),
            id(&[(0, 1), (1, 3)]),
            id(&[(0, 1), (1, 7), (2, 2), (3, 3)]),
            id(&[(0, 1), (1, 9)]),
            id(&[(0, 1), (1, 9), (2, 1), (9, 9)]),
        ];
        for p in &probes {
            let expected = roots.iter().any(|r| r.is_ancestor_or_self_of(p));
            assert_eq!(f.covers(p), expected, "{p}");
        }
    }

    #[test]
    fn subtree_intersection_matches_linear_scan() {
        let roots = vec![id(&[(0, 1), (1, 2), (2, 3)]), id(&[(0, 1), (1, 7)])];
        let f = DeweyForest::with_nested(roots.clone());
        let probes = [
            id(&[(0, 1)]),
            id(&[(0, 1), (1, 2)]),
            id(&[(0, 1), (1, 2), (2, 3)]),
            id(&[(0, 1), (1, 2), (2, 4)]),
            id(&[(0, 1), (1, 3)]),
            id(&[(0, 1), (1, 7), (2, 8)]),
        ];
        for p in &probes {
            let expected = roots.iter().any(|r| p.is_ancestor_or_self_of(r));
            assert_eq!(f.has_descendant_or_self_root(p), expected, "{p}");
        }
    }

    #[test]
    fn nested_form_sees_inner_roots() {
        // outer root a, inner root a.b.c — a probe at a.b lies strictly
        // between them.
        let outer = id(&[(0, 1)]);
        let probe = id(&[(0, 1), (1, 2)]);
        let inner = id(&[(0, 1), (1, 2), (2, 3)]);
        let reduced = DeweyForest::new(vec![outer.clone(), inner.clone()]);
        assert_eq!(reduced.len(), 1, "reduction keeps only the outer root");
        assert!(!reduced.has_descendant_or_self_root(&probe), "inner root was hidden");
        let nested = DeweyForest::with_nested(vec![outer, inner]);
        assert_eq!(nested.len(), 2);
        assert!(nested.has_descendant_or_self_root(&probe));
        assert!(!nested.has_descendant_or_self_root(&id(&[(0, 1), (1, 9)])));
    }

    #[test]
    fn maximal_borrows_reduced_roots_and_reduces_the_others() {
        let (a, b, c) =
            (id(&[(0, 1), (1, 2)]), id(&[(0, 1), (1, 2), (2, 3)]), id(&[(0, 1), (1, 7)]));
        let reduced = [a.clone(), c.clone()];
        assert!(matches!(DeweyForest::maximal(&reduced), Cow::Borrowed(_)));
        for roots in [
            vec![c.clone(), a.clone()],
            vec![a.clone(), b, c.clone()],
            vec![a.clone(), a.clone(), c.clone()],
        ] {
            let maximal = DeweyForest::maximal(&roots);
            assert!(matches!(maximal, Cow::Owned(_)));
            assert_eq!(&maximal[..], &reduced[..]);
        }
    }

    #[test]
    fn nested_form_dedups_exact_duplicates() {
        let r = id(&[(0, 1), (1, 2)]);
        let f = DeweyForest::with_nested(vec![r.clone(), r.clone(), r]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn empty_forest() {
        let f = DeweyForest::new(vec![]);
        assert!(f.is_empty());
        assert!(!f.covers(&id(&[(0, 1)])));
        assert!(!f.has_descendant_or_self_root(&id(&[(0, 1)])));
    }
}
