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
//! added bindings come from its own terms. And set-up runs the same
//! loop, [`left_deep`], over canonical leaves: the view's evaluation
//! hands each pre-order prefix it joins to a hook, which keeps the
//! minimal chain's snowcaps.

use crate::snowcap::{snowcaps_within, MaterializedSnowcap};
use crate::term::Term;
use std::borrow::Cow;
use std::collections::BTreeSet;
use xivm_algebra::{ops, structural_join, Relation};
use xivm_pattern::{PatternNodeId, TreePattern};

/// The largest (sub-)pattern [`subset_terms`] expands. The count of
/// terms is the count of snowcaps, exponential in the fan-out of a
/// star-shaped pattern; `DatabaseBuilder::build` rejects larger views
/// with an [`Error`](crate::error::Error), and the assert below stays
/// for hosts that drive a `MaintenanceEngine` directly.
pub const MAX_TERM_NODES: usize = 30;

/// Enumerates the maintenance terms of the sub-pattern induced by
/// `subset` (the full pattern or one of its snowcaps): non-empty
/// Δ-sets closed under pattern children *within the subset*
/// (Propositions 3.3 / 4.2 applied to the sub-pattern). By
/// Proposition 3.12 their R-parts are exactly the sub-pattern's proper
/// snowcaps and ∅, so the Δ-sets are enumerated directly as their
/// complements — a chain of `k` nodes costs `k` sets, not `2^k` masks.
///
/// A pure function of the pattern: the engine builds each table once
/// and [`crate::propagate::terms`] only filters it per commit.
///
/// # Panics
/// If `subset` has more than [`MAX_TERM_NODES`] nodes.
pub fn subset_terms(pattern: &TreePattern, subset: &BTreeSet<PatternNodeId>) -> Vec<Term> {
    assert!(subset.len() <= MAX_TERM_NODES, "term expansion is exponential; sub-pattern too large");
    let mut out: Vec<Term> = snowcaps_within(pattern, &|n| subset.contains(&n))
        .into_iter()
        .filter(|r_part| r_part.len() < subset.len())
        .map(|r_part| Term::new(subset.difference(&r_part).copied().collect()))
        .collect();
    out.push(Term::new(subset.clone()));
    out.sort();
    out
}

/// The left-deep join of Figure 4, which every evaluation of a pattern
/// or of a term runs: the leaves of `order` (pattern pre-order,
/// parent-closed) joined in that order, one stack-based structural join
/// per pattern edge, onto the column of the node's pattern parent.
/// `leaf` supplies the leaf relations; `cover`, a materialized snowcap,
/// if any, stands in for the leaves of its nodes. Leaves and the
/// snowcap are joined by reference — none is copied unless it is the
/// whole result or must be sorted.
///
/// Without `keep`, the first empty leaf or intermediate ends the
/// evaluation with an empty default relation: a term's bag needs no
/// columns. With it, each prefix's relation is handed to `keep` just
/// before the next join replaces it, and the evaluation is whole: every
/// leaf is joined, so every prefix and the result keep their columns,
/// empty or not — a snowcap that is empty at set-up may gain rows later.
///
/// Returns the bindings with columns in `order`.
pub fn left_deep<'a, K: FnMut(Cow<'a, Relation>)>(
    pattern: &TreePattern,
    order: &[PatternNodeId],
    cover: Option<&'a MaterializedSnowcap>,
    leaf: impl Fn(PatternNodeId) -> Cow<'a, Relation>,
    mut keep: Option<K>,
) -> Relation {
    let whole = keep.is_some();
    let mut placed: Vec<PatternNodeId> = Vec::with_capacity(order.len());
    let mut cur: Cow<'a, Relation> = Cow::Owned(Relation::default());
    if let Some(m) = cover {
        placed.extend(m.nodes.iter().copied());
        cur = Cow::Borrowed(&m.rel);
        if cur.is_empty() && !whole {
            return Relation::default();
        }
    }
    for &n in order {
        if placed.contains(&n) {
            continue;
        }
        let leaf = leaf(n);
        if leaf.is_empty() && !whole {
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
        let joined = structural_join(&cur, pcol, &leaf, 0, pattern.node(n).edge);
        let prefix = std::mem::replace(&mut cur, Cow::Owned(joined));
        if let Some(keep) = &mut keep {
            keep(prefix);
        }
        placed.push(n);
        if cur.is_empty() && !whole {
            return Relation::default();
        }
    }
    // Reorder columns to `order`.
    let cols: Vec<usize> = order
        .iter()
        .map(|n| placed.iter().position(|p| p == n).expect("all subset nodes placed"))
        .collect();
    if cols.iter().enumerate().all(|(i, &c)| i == c) {
        cur.into_owned()
    } else {
        ops::project(&cur, &cols)
    }
}

/// The bag union of same-schema relations (empty ones, whatever their
/// schema, contribute nothing).
pub fn bag_union(relations: impl Iterator<Item = Relation>) -> Relation {
    let mut acc = Relation::default();
    for rel in relations.filter(|rel| !rel.is_empty()) {
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
    use crate::snowcap::{enumerate_snowcaps, is_snowcap};

    /// Supplies a leaf relation of a term: shared or built on demand.
    type Leaf<'a, 'f> = &'f dyn Fn(PatternNodeId) -> Cow<'a, Relation>;

    /// One term over the sub-pattern `subset_preorder`: [`left_deep`]
    /// over `delta_leaf` for its Δ nodes and `r_leaf` for the others.
    fn eval_term<'a>(
        pattern: &TreePattern,
        subset_preorder: &[PatternNodeId],
        term: &Term,
        cover: Option<&'a MaterializedSnowcap>,
        r_leaf: Leaf<'a, '_>,
        delta_leaf: Leaf<'a, '_>,
    ) -> Relation {
        let leaf = |n| if term.is_delta(n) { delta_leaf(n) } else { r_leaf(n) };
        left_deep(pattern, subset_preorder, cover, leaf, None::<fn(_)>)
    }
    use xivm_pattern::compile::{canonical_relation, relation_from_nodes};
    use xivm_pattern::parse_pattern;
    use xivm_xml::parse_document;

    // --- The reference expansion (Sections 3.1 and 4.1). Distributing
    // the view's joins over `R_a ∪ Δ⁺_a` (insertions) or `R_a \ Δ⁻_a`
    // (deletions) produces `2^k` terms; dropping the pure-R term (the
    // view itself) leaves `2^k − 1` maintenance terms, of which the
    // update-independent prunings (Propositions 3.3 / 4.2) keep
    // `surviving_terms` — what `subset_terms` enumerates directly.

    /// Builds a term from its Δ-node set.
    fn term_of(nodes: impl IntoIterator<Item = PatternNodeId>) -> Term {
        Term::new(nodes.into_iter().collect())
    }

    /// The `R`-bound nodes, in pattern pre-order (the `t_R`
    /// sub-expression of Proposition 3.12).
    fn r_part(t: &Term, pattern: &TreePattern) -> Vec<PatternNodeId> {
        pattern.preorder().into_iter().filter(|&n| !t.is_delta(n)).collect()
    }

    /// True iff the Δ-set is *descendant-closed*: every pattern child of
    /// a Δ-node is also a Δ-node. Equivalently, the R-part is a snowcap
    /// (Proposition 3.12) — terms violating this are pruned by
    /// Proposition 3.3 (insertions) / Proposition 4.2 (deletions),
    /// because XQuery updates add or remove whole subtrees.
    fn is_delta_descendant_closed(t: &Term, pattern: &TreePattern) -> bool {
        let closed = |n: &PatternNodeId| pattern.node(*n).children.iter().all(|&c| t.is_delta(c));
        t.delta_nodes().iter().all(closed)
    }

    /// All `2^k − 1` maintenance terms (every non-empty Δ-node subset),
    /// before any pruning.
    fn all_terms(pattern: &TreePattern) -> Vec<Term> {
        let nodes: Vec<PatternNodeId> = pattern.preorder();
        let k = nodes.len();
        assert!(k < 31, "term expansion is exponential; view too large");
        let mut out: Vec<Term> = (1u32..(1 << k))
            .map(|mask| {
                let delta = nodes.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0);
                term_of(delta.map(|(_, &n)| n))
            })
            .collect();
        out.sort();
        out
    }

    /// The terms surviving the update-independent pruning: Δ-sets closed
    /// under pattern descendants (Proposition 3.3 for insertions,
    /// Proposition 4.2 for deletions — the criterion is the same because
    /// both XQuery insertion and deletion move whole subtrees).
    fn surviving_terms(pattern: &TreePattern) -> Vec<Term> {
        all_terms(pattern).into_iter().filter(|t| is_delta_descendant_closed(t, pattern)).collect()
    }

    #[test]
    fn expansion_counts() {
        let p = parse_pattern("//a//b//c").unwrap();
        assert_eq!(all_terms(&p).len(), 7, "2^3 - 1");
        // chain: surviving Δ-sets are suffixes {c}, {b,c}, {a,b,c}
        assert_eq!(surviving_terms(&p).len(), 3);
    }

    /// Example 3.2: for v1 = //a//b//c only RaRbΔc, RaΔbΔc and
    /// ΔaΔbΔc survive.
    #[test]
    fn example_3_2_surviving_terms() {
        let p = parse_pattern("//a//b//c").unwrap();
        let surv = surviving_terms(&p);
        let mut sizes: Vec<usize> = surv.iter().map(|t| t.delta_count()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2, 3]);
        // the singleton Δ must be c (node 2)
        let singleton = surv.iter().find(|t| t.delta_count() == 1).unwrap();
        assert!(singleton.is_delta(PatternNodeId(2)));
    }

    /// Proposition 3.12: surviving terms ↔ proper snowcaps ∪ {∅}.
    #[test]
    fn surviving_terms_biject_with_snowcaps() {
        for pat in ["//a//b//c", "//a[//b//c]//d", "//a[//b][//c]//d", "//a"] {
            let p = parse_pattern(pat).unwrap();
            let surv = surviving_terms(&p);
            // snowcaps exclude ∅ but include the full pattern; terms
            // exclude the full-R term but include all-Δ. Counts match.
            assert_eq!(surv.len(), enumerate_snowcaps(&p).len(), "{pat}");
            // and each survivor's R-part is a snowcap or empty
            for t in &surv {
                let r = r_part(t, &p);
                if !r.is_empty() {
                    assert!(is_snowcap(&p, &r.iter().copied().collect()));
                }
            }
        }
    }

    #[test]
    fn single_node_view() {
        let p = parse_pattern("//a{id}").unwrap();
        assert_eq!(all_terms(&p).len(), 1);
        assert_eq!(surviving_terms(&p).len(), 1);
    }

    fn ids(v: &[usize]) -> BTreeSet<PatternNodeId> {
        v.iter().map(|&i| PatternNodeId(i)).collect()
    }

    #[test]
    fn descendant_closure_on_chain() {
        // //a//b//c : nodes 0,1,2
        let p = parse_pattern("//a//b//c").unwrap();
        let closed = |v: &[usize]| is_delta_descendant_closed(&Term::new(ids(v)), &p);
        assert!(closed(&[2]));
        assert!(closed(&[1, 2]));
        assert!(closed(&[0, 1, 2]));
        // Δ_a R_b violates the XQuery-update semantics (Prop 3.3)
        assert!(!closed(&[0]));
        assert!(!closed(&[1]));
        assert!(!closed(&[0, 2]));
    }

    #[test]
    fn descendant_closure_on_branching() {
        // //a[//b//c]//d : 0=a,1=b,2=c,3=d
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let closed = |v: &[usize]| is_delta_descendant_closed(&Term::new(ids(v)), &p);
        assert!(closed(&[3]));
        assert!(closed(&[2, 3]));
        assert!(closed(&[1, 2]));
        assert!(!closed(&[1, 3]), "b without c");
    }

    #[test]
    fn r_part_complements_delta_in_preorder() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let t = Term::new(ids(&[2, 3]));
        let names: Vec<_> = r_part(&t, &p).iter().map(|&n| p.node(n).name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(t.delta_count(), 2);
    }

    #[test]
    fn subset_terms_on_full_pattern_match_expand() {
        let p = parse_pattern("//a[//b//c]//d").unwrap();
        let full: BTreeSet<_> = p.node_ids().collect();
        let got = subset_terms(&p, &full);
        let expected = surviving_terms(&p);
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

    /// The direct enumeration is the mask enumeration, without the
    /// masks: a 30-node chain has 30 terms (and `2^30` masks).
    #[test]
    fn subset_terms_enumerate_complements_of_snowcaps() {
        for text in ["//a[//b//c]//d", "//a[//b][//c]//d", "//a[//b[//x]//c]//d//e", "//a"] {
            let p = parse_pattern(text).unwrap();
            let full: BTreeSet<_> = p.node_ids().collect();
            assert_eq!(subset_terms(&p, &full), surviving_terms(&p), "{text}");
        }
        let chain = parse_pattern(&"//a".repeat(MAX_TERM_NODES)).unwrap();
        let full: BTreeSet<_> = chain.node_ids().collect();
        let terms = subset_terms(&chain, &full);
        assert_eq!(terms.len(), MAX_TERM_NODES);
        assert!(terms.iter().all(|t| is_delta_descendant_closed(t, &chain)));
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
        let rel = eval_term(&p, &order, &all_delta, None, &|_| unreachable!("no R nodes"), &|n| {
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
            eval_term(&p, &ab, all, None, &|_| unreachable!(), &canonical)
        };
        let mat = MaterializedSnowcap { nodes: ab, rel: ab_rel };
        // term Δ{c}: R-part {a,b} should come from the materialization
        let term = term_of([PatternNodeId(2)]);
        let r_calls = std::cell::Cell::new(0);
        let rel = eval_term(
            &p,
            &order,
            &term,
            Some(&mat),
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
    fn bag_union_accumulates_terms() {
        let d = parse_document("<a><b/><b/></a>").unwrap();
        let p = parse_pattern("//a{id}//b{id}").unwrap();
        let order = p.preorder();
        let full: BTreeSet<_> = order.iter().copied().collect();
        let terms = subset_terms(&p, &full); // Δ{b}, Δ{a,b}
        let canonical = |n| -> Cow<'static, Relation> { Cow::Owned(canonical_relation(&d, &p, n)) };
        let eval_all = |delta_leaf: Leaf<'static, '_>| {
            bag_union(terms.iter().map(|t| eval_term(&p, &order, t, None, &canonical, delta_leaf)))
        };
        // Δ{b}: 2 bindings; Δ{a,b}: 2 bindings — bag accumulation
        assert_eq!(eval_all(&canonical).len(), 4);
        // empty delta leaf kills terms
        let empty = eval_all(&|n| Cow::Owned(relation_from_nodes(&d, &p, n, &[], true)));
        assert!(empty.is_empty());
    }
}
