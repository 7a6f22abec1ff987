//! Snowcaps (Definition 3.11) and their materialization.
//!
//! A snowcap of a view `v` is a non-empty subtree that contains, with
//! every node, that node's parent — "snow covers mountains from the
//! top downward". Proposition 3.12 identifies the R-parts of surviving
//! insertion terms exactly with snowcaps, and Proposition 3.13 shows
//! snowcaps can be maintained from smaller snowcaps, the lattice
//! leaves and the Δ relations — which is how the engine maintains them,
//! in both directions: the rows a [`MaterializedSnowcap`] gains are the
//! value of its own Δ⁺ terms, the rows it loses are those that bind a
//! deleted node, and its row order lets both be applied without
//! visiting the rows that stay.

use crate::by_id::{self, Near};
use std::collections::BTreeSet;
use xivm_algebra::{ordered, Relation, Tuple};
use xivm_pattern::{PatternNodeId, TreePattern};
use xivm_update::LabelBuckets;
use xivm_xml::{DeweyId, Document, Work};

/// True iff `set` is a snowcap of `pattern`: non-empty and closed
/// under taking parents.
pub fn is_snowcap(pattern: &TreePattern, set: &BTreeSet<PatternNodeId>) -> bool {
    !set.is_empty()
        && set.iter().all(|&n| match pattern.node(n).parent {
            Some(p) => set.contains(&p),
            None => true,
        })
}

/// Enumerates every snowcap of the pattern (including the full
/// pattern itself), in increasing size order.
pub fn enumerate_snowcaps(pattern: &TreePattern) -> Vec<BTreeSet<PatternNodeId>> {
    snowcaps_within(pattern, &|_| true)
}

/// Enumerates the snowcaps of the sub-pattern induced by the nodes
/// `keep` accepts (itself a snowcap), in increasing size order.
///
/// The recursive structure: a snowcap contains the root, and for each
/// child subtree independently either skips it entirely or contains a
/// snowcap of it.
pub fn snowcaps_within(
    pattern: &TreePattern,
    keep: &dyn Fn(PatternNodeId) -> bool,
) -> Vec<BTreeSet<PatternNodeId>> {
    fn rec(
        pattern: &TreePattern,
        keep: &dyn Fn(PatternNodeId) -> bool,
        node: PatternNodeId,
    ) -> Vec<BTreeSet<PatternNodeId>> {
        let mut result: Vec<BTreeSet<PatternNodeId>> = vec![BTreeSet::from([node])];
        for &c in pattern.node(node).children.iter().filter(|&&c| keep(c)) {
            let child_caps = rec(pattern, keep, c);
            let mut extended = Vec::with_capacity(result.len() * (child_caps.len() + 1));
            for base in &result {
                extended.push(base.clone()); // skip this child subtree
                for cc in &child_caps {
                    let mut s = base.clone();
                    s.extend(cc.iter().copied());
                    extended.push(s);
                }
            }
            result = extended;
        }
        result
    }
    let mut caps = rec(pattern, keep, pattern.root());
    caps.sort_by_key(|s| (s.len(), s.iter().map(|n| n.0).collect::<Vec<_>>()));
    caps
}

/// The *minimal chain* used in the experiments (Section 6.7,
/// "Snowcaps"): one snowcap per level, built as pre-order prefixes
/// (pre-order guarantees parents precede children, so every prefix is
/// a snowcap), sizes `1 … k−1`. The full pattern (size `k`) is the
/// view itself and is materialized as the view store.
pub fn minimal_chain(pattern: &TreePattern) -> Vec<BTreeSet<PatternNodeId>> {
    let order = pattern.preorder();
    (1..order.len()).map(|len| order[..len].iter().copied().collect()).collect()
}

/// A materialized snowcap: the full-ID binding relation of the
/// sub-pattern induced by `nodes`, kept up to date by the engine.
///
/// Its rows are in one total order — [`Tuple::doc_cmp_rev`], document
/// order over *all* ID columns with the last column the most
/// significant; one row per binding, so it is strict — established by
/// [`Self::new`], kept by [`Self::absorb`] and [`Self::remove_under`]. That is
/// what lets a commit find the rows it loses or the places of those it
/// gains by binary search instead of visiting every row.
///
/// Why the mirror of the order views and deltas are published in: a
/// snowcap is a join input, not an output. The term that starts from a
/// chain snowcap joins the next pattern node onto the last column or
/// one of its pattern ancestors, and rows in the last column's document
/// order are in that of its ancestors' too (unless same-label nodes
/// nest) — it is the order the structural joins that materialize a
/// snowcap leave it in. Left-to-right order instead costs every such
/// term of a branching view (`a[b]/c`: `c` joins on `a` *after* `b`) a
/// copy and a sort of its cover, 7 µs of a 37 µs `finish` on Q3 over
/// 100 KB; and on XMark rows, whose leading columns are all `/site`, it
/// decides a comparison at the last column anyway.
#[derive(Debug, Clone)]
pub struct MaterializedSnowcap {
    /// The sub-pattern's nodes in pattern pre-order (= column order of
    /// `rel`).
    pub nodes: Vec<PatternNodeId>,
    pub rel: Relation,
}

impl MaterializedSnowcap {
    /// A snowcap over freshly evaluated bindings, in any order.
    pub fn new(nodes: Vec<PatternNodeId>, mut rel: Relation) -> Self {
        rel.rows.sort_by(Tuple::doc_cmp_rev);
        MaterializedSnowcap { nodes, rel }
    }

    /// Adds the snowcap's own new bindings: sorts the few new rows,
    /// then merges them in from the back ([`ordered::absorb`]) — a
    /// handful of comparisons for a point insertion, two per row when a
    /// bulk one rivals the rows behind it. Rows before the first new one
    /// are never touched; an append at the document's end moves nothing.
    pub fn absorb(&mut self, mut new: Relation) {
        new.rows.sort_by(Tuple::doc_cmp_rev);
        let again = |_: &mut Tuple, _| debug_assert!(false, "a binding is gained once");
        ordered::absorb(&mut self.rel.rows, new.rows, Tuple::doc_cmp_rev, again);
    }

    /// Drops every row that binds a node at or under one of `roots` —
    /// the maximal delete roots of a commit, whose removed nodes are in
    /// `deleted` — and returns how many went. A row binds every node of
    /// the snowcap, so it is lost exactly then; the rows are found by
    /// range on the row order (`by_id::find`), keyed on the major
    /// column, without visiting the rows that stay. The rows it
    /// examined are counted in `work`.
    pub fn remove_under(
        &mut self,
        pattern: &TreePattern,
        doc: &Document,
        roots: &[DeweyId],
        deleted: &LabelBuckets<DeweyId>,
        work: &mut Work,
    ) -> usize {
        let near = Near::Under(deleted);
        let lost = by_id::find(&self.rel.rows, &self.cols(), pattern, doc, roots, near, work);
        let taken = ordered::take(&mut self.rel.rows, &lost).len();
        work.rows += taken as u64;
        taken
    }

    /// The columns in the order the rows are sorted by, each with its
    /// pattern node: the last one the most significant.
    pub(crate) fn cols(&self) -> Vec<(usize, PatternNodeId)> {
        self.nodes.iter().copied().enumerate().rev().collect()
    }
}

/// Picks the largest materialized snowcap whose nodes are all within
/// a term's R-part (`in_r`) — the best starting point for evaluating
/// it.
pub fn best_cover(
    materialized: &[MaterializedSnowcap],
    in_r: impl Fn(PatternNodeId) -> bool,
) -> Option<&MaterializedSnowcap> {
    materialized.iter().filter(|m| m.nodes.iter().all(|&n| in_r(n))).max_by_key(|m| m.nodes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    use xivm_pattern::parse_pattern;

    fn names(pattern: &TreePattern, set: &BTreeSet<PatternNodeId>) -> String {
        set.iter().map(|&n| pattern.node(n).base_label()).collect::<Vec<_>>().join("")
    }

    /// Figure 6: the view //a[//b//c]//d has snowcaps
    /// a, ab, ad, abc, abd, acd?? — no: c requires b. The boxed nodes
    /// in Figure 6 are: a, ab, ad, abc, abd, abcd (and abd etc.).
    #[test]
    fn figure_6_snowcaps() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let caps = enumerate_snowcaps(&p);
        let got: Vec<String> = caps.iter().map(|s| names(&p, s)).collect();
        assert_eq!(got, vec!["a", "ab", "ad", "abc", "abd", "abcd"]);
    }

    /// Figure 7: the star view //a[//b][//c]//d has more snowcaps.
    #[test]
    fn figure_7_snowcaps() {
        let p = parse_pattern("//a[//b][//c]//d").unwrap();
        let caps = enumerate_snowcaps(&p);
        let got: Vec<String> = caps.iter().map(|s| names(&p, s)).collect();
        assert_eq!(got, vec!["a", "ab", "ac", "ad", "abc", "abd", "acd", "abcd"]);
    }

    #[test]
    fn every_enumerated_set_is_a_snowcap() {
        let p = parse_pattern("//a[//b[//x]//c]//d//e").unwrap();
        for s in enumerate_snowcaps(&p) {
            assert!(is_snowcap(&p, &s));
        }
    }

    #[test]
    fn non_snowcaps_are_rejected() {
        let p = parse_pattern("//a//b//c").unwrap();
        let no_root: BTreeSet<_> = [PatternNodeId(1), PatternNodeId(2)].into();
        assert!(!is_snowcap(&p, &no_root));
        assert!(!is_snowcap(&p, &BTreeSet::new()));
        let gap: BTreeSet<_> = [PatternNodeId(0), PatternNodeId(2)].into();
        assert!(!is_snowcap(&p, &gap));
    }

    #[test]
    fn minimal_chain_is_nested_snowcaps() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let chain = minimal_chain(&p);
        assert_eq!(chain.len(), 3); // sizes 1, 2, 3
        for (i, s) in chain.iter().enumerate() {
            assert_eq!(s.len(), i + 1);
            assert!(is_snowcap(&p, s));
            if i > 0 {
                assert!(s.is_superset(&chain[i - 1]));
            }
        }
    }

    #[test]
    fn best_cover_picks_largest_contained() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let mats: Vec<MaterializedSnowcap> = minimal_chain(&p)
            .into_iter()
            .map(|s| MaterializedSnowcap {
                nodes: p.preorder().into_iter().filter(|n| s.contains(n)).collect(),
                rel: Relation::default(),
            })
            .collect();
        // r_part = {a, b, c} (term Δ{d}): best cover is abc
        let r: BTreeSet<_> = [PatternNodeId(0), PatternNodeId(1), PatternNodeId(2)].into();
        assert_eq!(best_cover(&mats, |n| r.contains(&n)).unwrap().nodes.len(), 3);
        // r_part = {a, d}: abc not contained, ab not contained; only a
        let r2: BTreeSet<_> = [PatternNodeId(0), PatternNodeId(3)].into();
        assert_eq!(best_cover(&mats, |n| r2.contains(&n)).unwrap().nodes.len(), 1);
    }

    #[test]
    fn snowcap_count_formula() {
        // chain of n nodes has n snowcaps
        let p = parse_pattern("//a//b//c//d//e").unwrap();
        assert_eq!(enumerate_snowcaps(&p).len(), 5);
        // star with 3 children: root + any subset of children = 8
        let p2 = parse_pattern("//a[//b][//c]//d").unwrap();
        assert_eq!(enumerate_snowcaps(&p2).len(), 8);
    }
}
