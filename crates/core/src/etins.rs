//! Bulk term evaluation (Algorithm 3, ET-INS, and its deletion
//! counterpart ET-DEL).
//!
//! A term assigns each node of a (sub-)pattern to `R` or `Δ`; its
//! value is the structural join of the corresponding leaf relations.
//! Evaluation starts from the largest materialized snowcap contained
//! in the term's R-part and joins the remaining leaves in pre-order,
//! one stack-based structural join per pattern edge.
//!
//! The same machinery maintains the materialized snowcaps themselves
//! (Proposition 3.13): a snowcap is just a smaller sub-pattern whose
//! added bindings come from its own terms.

use crate::snowcap::{best_cover, MaterializedSnowcap};
use crate::term::Term;
use std::borrow::Cow;
use std::collections::BTreeSet;
use xivm_algebra::ops;
use xivm_algebra::Relation;
use xivm_pattern::{PatternNodeId, TreePattern};

/// Enumerates the maintenance terms of the sub-pattern induced by
/// `subset`: non-empty Δ-sets closed under pattern children *within
/// the subset* (Propositions 3.3 / 4.2 applied to the sub-pattern).
pub fn subset_terms(pattern: &TreePattern, subset: &BTreeSet<PatternNodeId>) -> Vec<Term> {
    let nodes: Vec<PatternNodeId> = subset.iter().copied().collect();
    let k = nodes.len();
    assert!(k < 31, "term expansion is exponential; sub-pattern too large");
    let mut out = Vec::new();
    'mask: for mask in 1u32..(1 << k) {
        let delta: BTreeSet<PatternNodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &n)| n)
            .collect();
        // descendant-closed within the subset
        for &n in &delta {
            for c in &pattern.node(n).children {
                if subset.contains(c) && !delta.contains(c) {
                    continue 'mask;
                }
            }
        }
        out.push(Term::new(delta));
    }
    out.sort();
    out
}

/// Supplies a leaf relation of a term: shared (a per-commit cache, a
/// Δ table) or built on demand.
pub type Leaf<'a, 'f> = &'f dyn Fn(PatternNodeId) -> Cow<'a, Relation>;

/// Evaluates one term over the sub-pattern `subset_preorder` (pattern
/// pre-order, parent-closed). `r_leaf` / `delta_leaf` supply the leaf
/// relations; `materialized` offers snowcap shortcuts for the R-part.
/// Leaves and snowcaps are joined by reference — none is copied unless
/// it is the whole result.
///
/// Returns the term's bindings with columns in `subset_preorder`
/// order; an empty default relation when any intermediate result is
/// empty.
pub fn eval_term<'a>(
    pattern: &TreePattern,
    subset_preorder: &[PatternNodeId],
    term: &Term,
    materialized: &'a [MaterializedSnowcap],
    r_leaf: Leaf<'a, '_>,
    delta_leaf: Leaf<'a, '_>,
) -> Relation {
    let r_set: BTreeSet<PatternNodeId> =
        subset_preorder.iter().copied().filter(|n| !term.is_delta(*n)).collect();
    let cover = if r_set.is_empty() { None } else { best_cover(materialized, &r_set) };

    let mut placed: Vec<PatternNodeId> = Vec::with_capacity(subset_preorder.len());
    let mut cur: Cow<'a, Relation> = Cow::Owned(Relation::default());
    if let Some(m) = cover {
        placed.extend(m.nodes.iter().copied());
        cur = Cow::Borrowed(&m.rel);
        if cur.is_empty() {
            return Relation::default();
        }
    }
    for &n in subset_preorder {
        if placed.contains(&n) {
            continue;
        }
        let leaf = if term.is_delta(n) { delta_leaf(n) } else { r_leaf(n) };
        if leaf.is_empty() {
            return Relation::default();
        }
        if placed.is_empty() {
            cur = leaf;
            placed.push(n);
            continue;
        }
        let parent =
            pattern.node(n).parent.expect("non-root nodes of a parent-closed subset have parents");
        let pcol = placed
            .iter()
            .position(|&p| p == parent)
            .expect("pre-order placement guarantees the parent is placed");
        if !cur.is_sorted_by_col(pcol) {
            cur.to_mut().sort_by_col(pcol);
        }
        cur = Cow::Owned(xivm_algebra::structural_join(&cur, pcol, &leaf, 0, pattern.node(n).edge));
        placed.push(n);
        if cur.is_empty() {
            return Relation::default();
        }
    }
    // Reorder columns to subset pre-order.
    let cols: Vec<usize> = subset_preorder
        .iter()
        .map(|n| placed.iter().position(|p| p == n).expect("all subset nodes placed"))
        .collect();
    if cols.iter().enumerate().all(|(i, &c)| i == c) {
        cur.into_owned()
    } else {
        ops::project(&cur, &cols)
    }
}

/// Evaluates a list of terms and accumulates their bindings into one
/// bag relation over `subset_preorder` columns.
pub fn eval_terms<'a>(
    pattern: &TreePattern,
    subset_preorder: &[PatternNodeId],
    terms: &[Term],
    materialized: &'a [MaterializedSnowcap],
    r_leaf: Leaf<'a, '_>,
    delta_leaf: Leaf<'a, '_>,
) -> Relation {
    let mut acc = Relation::default();
    for term in terms {
        let rel = eval_term(pattern, subset_preorder, term, materialized, r_leaf, delta_leaf);
        if rel.is_empty() {
            continue;
        }
        if acc.schema.arity() == 0 {
            acc = rel;
        } else {
            acc.rows.extend(rel.rows);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::compile::{canonical_relation, relation_from_nodes};
    use xivm_pattern::parse_pattern;
    use xivm_xml::parse_document;

    #[test]
    fn subset_terms_on_full_pattern_match_expand() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let full: BTreeSet<_> = p.node_ids().collect();
        let got = subset_terms(&p, &full);
        let expected = crate::expand::surviving_terms(&p);
        assert_eq!(got, expected);
    }

    #[test]
    fn subset_terms_on_proper_subset() {
        // subset {a, b} of //a//b//c: Δ-sets {b}, {a,b} (c ignored)
        let p = parse_pattern("//a//b//c").unwrap();
        let subset: BTreeSet<_> = [PatternNodeId(0), PatternNodeId(1)].into();
        let terms = subset_terms(&p, &subset);
        assert_eq!(terms.len(), 2);
        assert!(terms.iter().any(|t| t.delta_count() == 1 && t.is_delta(PatternNodeId(1))));
        assert!(terms.iter().any(|t| t.delta_count() == 2));
    }

    #[test]
    fn eval_term_with_canonical_leaves_matches_direct_join() {
        // With Δ = canonical and R unused, the all-Δ term is just the
        // pattern evaluation.
        let d = parse_document("<a><b><c/></b><b/></a>").unwrap();
        let p = parse_pattern("//a{id}//b{id}//c{id}").unwrap();
        let order = p.preorder();
        let full: BTreeSet<_> = order.iter().copied().collect();
        let all_delta = Term::new(full.clone());
        let rel = eval_term(&p, &order, &all_delta, &[], &|_| unreachable!("no R nodes"), &|n| {
            Cow::Owned(canonical_relation(&d, &p, n))
        });
        let direct = xivm_pattern::compile::eval_bindings(&d, &p);
        assert_eq!(rel.len(), direct.len());
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn eval_term_uses_materialized_cover() {
        let d = parse_document("<a><b><c/></b></a>").unwrap();
        let p = parse_pattern("//a{id}//b{id}//c{id}").unwrap();
        let order = p.preorder();
        let canonical = |n| Cow::Owned(canonical_relation(&d, &p, n));
        // materialize the {a,b} snowcap
        let ab: Vec<PatternNodeId> = order[..2].to_vec();
        let ab_set: BTreeSet<_> = ab.iter().copied().collect();
        let ab_rel = {
            let terms = subset_terms(&p, &ab_set);
            let all = terms.iter().find(|t| t.delta_count() == 2).unwrap(); // all-Δ over {a,b}
            eval_term(&p, &ab, all, &[], &|_| unreachable!(), &canonical)
        };
        let mat = vec![MaterializedSnowcap { nodes: ab, rel: ab_rel }];
        // term Δ{c}: R-part {a,b} should come from the materialization
        let term = Term::from_iter([PatternNodeId(2)]);
        let r_calls = std::cell::Cell::new(0);
        let rel = eval_term(
            &p,
            &order,
            &term,
            &mat,
            &|n| {
                r_calls.set(r_calls.get() + 1);
                canonical(n)
            },
            &canonical,
        );
        assert_eq!(rel.len(), 1);
        assert_eq!(r_calls.get(), 0, "R-part entirely covered by the snowcap");
    }

    #[test]
    fn eval_terms_accumulates() {
        let d = parse_document("<a><b/><b/></a>").unwrap();
        let p = parse_pattern("//a{id}//b{id}").unwrap();
        let order = p.preorder();
        let full: BTreeSet<_> = order.iter().copied().collect();
        let terms = subset_terms(&p, &full); // Δ{b}, Δ{a,b}
        let canonical = |n| Cow::Owned(canonical_relation(&d, &p, n));
        let rel = eval_terms(&p, &order, &terms, &[], &canonical, &canonical);
        // Δ{b}: 2 bindings; Δ{a,b}: 2 bindings — bag accumulation
        assert_eq!(rel.len(), 4);
        // empty delta leaf kills terms
        let empty = eval_terms(&p, &order, &terms, &[], &canonical, &|n| {
            Cow::Owned(relation_from_nodes(&d, &p, n, &[], true))
        });
        assert!(empty.is_empty());
    }
}
