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
