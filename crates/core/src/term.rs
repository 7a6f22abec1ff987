//! Union / difference terms.
//!
//! A term of the expanded maintenance expression assigns each view
//! node either its base relation `R` or its delta table `Δ`; it is
//! fully described by its set of Δ-nodes. The pure-`R` term (empty
//! Δ-set) is the view itself and never appears among maintenance terms.

use std::collections::BTreeSet;
use xivm_pattern::{PatternNodeId, TreePattern};

/// One maintenance term, identified by the view nodes bound to Δ
/// tables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Term {
    delta: BTreeSet<PatternNodeId>,
}

impl Term {
    pub fn new(delta: BTreeSet<PatternNodeId>) -> Self {
        Term { delta }
    }

    /// Builds a term from its Δ-node set.
    #[allow(clippy::should_implement_trait)] // deliberate: bare collect() would hide the Δ semantics
    pub fn from_iter(nodes: impl IntoIterator<Item = PatternNodeId>) -> Self {
        Term { delta: nodes.into_iter().collect() }
    }

    /// The Δ-bound nodes.
    pub fn delta_nodes(&self) -> &BTreeSet<PatternNodeId> {
        &self.delta
    }

    /// Number of Δ tables in the term (the `k` of Proposition 4.3).
    pub fn delta_count(&self) -> usize {
        self.delta.len()
    }

    pub fn is_delta(&self, n: PatternNodeId) -> bool {
        self.delta.contains(&n)
    }

    /// The `R`-bound nodes, in pattern pre-order (this is the `t_R`
    /// sub-expression of Proposition 3.12).
    pub fn r_part(&self, pattern: &TreePattern) -> Vec<PatternNodeId> {
        pattern.preorder().into_iter().filter(|n| !self.delta.contains(n)).collect()
    }

    /// True iff the Δ-set is *descendant-closed*: every pattern child
    /// of a Δ-node is also a Δ-node. Equivalently, the R-part is a
    /// snowcap (Proposition 3.12) — terms violating this are pruned by
    /// Proposition 3.3 (insertions) / Proposition 4.2 (deletions),
    /// because XQuery updates add or remove whole subtrees.
    pub fn is_delta_descendant_closed(&self, pattern: &TreePattern) -> bool {
        self.delta.iter().all(|&n| pattern.node(n).children.iter().all(|c| self.delta.contains(c)))
    }

    /// `R`-bound proper ancestors of a Δ-node — with it, the pairs
    /// `R_{n1} Δ_{n2}` that the ID-driven prunings (Propositions 3.8 /
    /// 4.7) inspect.
    pub fn r_ancestors_of(&self, pattern: &TreePattern, node: PatternNodeId) -> Vec<PatternNodeId> {
        let mut out = Vec::new();
        let mut cur = pattern.node(node).parent;
        while let Some(p) = cur {
            if !self.delta.contains(&p) {
                out.push(p);
            }
            cur = pattern.node(p).parent;
        }
        out
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Δ{{")?;
        for (i, n) in self.delta.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", n.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;

    fn ids(v: &[usize]) -> BTreeSet<PatternNodeId> {
        v.iter().map(|&i| PatternNodeId(i)).collect()
    }

    #[test]
    fn descendant_closure_on_chain() {
        // //a//b//c : nodes 0,1,2
        let p = parse_pattern("//a//b//c").unwrap();
        assert!(Term::new(ids(&[2])).is_delta_descendant_closed(&p));
        assert!(Term::new(ids(&[1, 2])).is_delta_descendant_closed(&p));
        assert!(Term::new(ids(&[0, 1, 2])).is_delta_descendant_closed(&p));
        // Δ_a R_b violates the XQuery-update semantics (Prop 3.3)
        assert!(!Term::new(ids(&[0])).is_delta_descendant_closed(&p));
        assert!(!Term::new(ids(&[1])).is_delta_descendant_closed(&p));
        assert!(!Term::new(ids(&[0, 2])).is_delta_descendant_closed(&p));
    }

    #[test]
    fn descendant_closure_on_branching() {
        // //a[//b//c]//d : 0=a,1=b,2=c,3=d
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        assert!(Term::new(ids(&[3])).is_delta_descendant_closed(&p));
        assert!(Term::new(ids(&[2, 3])).is_delta_descendant_closed(&p));
        assert!(Term::new(ids(&[1, 2])).is_delta_descendant_closed(&p));
        assert!(!Term::new(ids(&[1, 3])).is_delta_descendant_closed(&p), "b without c");
    }

    #[test]
    fn r_part_complements_delta_in_preorder() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let t = Term::new(ids(&[2, 3]));
        let names: Vec<_> = t.r_part(&p).iter().map(|&n| p.node(n).name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(t.delta_count(), 2);
    }

    #[test]
    fn r_ancestors_skip_delta_bound_nodes() {
        let p = parse_pattern("//a//b//c").unwrap();
        let t = Term::new(ids(&[1, 2]));
        let anc = t.r_ancestors_of(&p, PatternNodeId(2));
        assert_eq!(anc, vec![PatternNodeId(0)]);
        // the all-delta term has no R-bound node at all
        let all = Term::new(ids(&[0, 1, 2]));
        assert!(all.r_ancestors_of(&p, PatternNodeId(2)).is_empty());
    }
}
