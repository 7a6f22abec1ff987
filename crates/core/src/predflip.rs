//! Value-predicate flips under updates.
//!
//! The view dialect's `[val = c]` predicates compare the *string
//! value* of a node — the concatenation of its text descendants. An
//! update that inserts or deletes text strictly inside such a node
//! changes its value and can therefore flip the predicate, silently
//! invalidating existing view bindings (true → false) or enabling new
//! all-old bindings (false → true), with no structural change at all.
//! The paper's Δ-table machinery does not cover this case (its
//! workloads never flip predicates); handling it is required for the
//! engine to be *exact* on the full dialect.
//!
//! The treatment stays bulk-algebraic:
//!
//! * before the PUL is applied, predicate truth is captured for every
//!   predicate-labeled node on the ancestor chains of the update
//!   targets ([`capture`]);
//! * after application, the surviving captured nodes are re-checked;
//!   the differences form the flip sets F↑ / F↓ ([`diff`]);
//! * lost bindings (old-valid, no deleted node, ≥1 F↓ node) and gained
//!   bindings (now-valid, no inserted node, ≥1 F↑ node) are computed
//!   with the same term evaluator and old-state leaves as the Δ
//!   pipeline ([`crate::propagate`]), partitioning by
//!   *which* predicate positions bind flipped nodes so the term bags
//!   stay disjoint and derivation counts exact.

use crate::etins::eval_terms;
use crate::propagate::{Sign, TermContext, Truth};
use crate::term::Term;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use xivm_algebra::Relation;
use xivm_pattern::compile::relation_from_nodes;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::Pul;
use xivm_xml::{Document, NodeId, NodeKind};

/// Pre-update predicate truth for `(pattern node, document node)`
/// pairs on the update targets' ancestor chains.
pub type PredCapture = Vec<(PatternNodeId, NodeId, bool)>;

/// The flip sets of one update. A pattern node has an entry only when
/// at least one of its document nodes flipped.
#[derive(Debug, Default)]
pub struct Flips {
    /// false → true (per predicate-carrying pattern node).
    pub up: HashMap<PatternNodeId, Vec<NodeId>>,
    /// true → false.
    pub down: HashMap<PatternNodeId, Vec<NodeId>>,
}

impl Flips {
    pub fn any(&self) -> bool {
        !self.up.is_empty() || !self.down.is_empty()
    }
}

/// Captures predicate truth on the ancestor-or-self chains of every
/// update target (for deletions: of the target's parent — the target
/// itself disappears). Runs against the still-intact document.
pub fn capture(doc: &Document, pattern: &TreePattern, pul: &Pul) -> PredCapture {
    let preds: Vec<(PatternNodeId, Option<&str>, &str)> = pattern
        .node_ids()
        .filter_map(|p| {
            let pn = pattern.node(p);
            pn.val_pred.as_ref().map(|v| {
                let label = match &pn.test {
                    NodeTest::Name(n) => Some(n.as_str()),
                    NodeTest::Wildcard => None,
                };
                (p, label, v.as_str())
            })
        })
        .collect();
    if preds.is_empty() {
        return Vec::new();
    }
    let mut seen: HashSet<(PatternNodeId, NodeId)> = HashSet::new();
    let mut out = Vec::new();
    for op in &pul.ops {
        let Some(target) = doc.find_node(op.target()) else {
            continue;
        };
        let start = if op.is_insert() { Some(target) } else { doc.parent_of(target) };
        let mut cur = start;
        while let Some(n) = cur {
            for &(p, label, pred) in &preds {
                let matches = match label {
                    Some(l) => doc.label_name(doc.node(n).label) == l,
                    None => doc.node(n).kind == NodeKind::Element,
                };
                if matches && seen.insert((p, n)) {
                    out.push((p, n, doc.value(n) == pred));
                }
            }
            cur = doc.parent_of(n);
        }
    }
    out
}

/// Re-checks the captured nodes against the updated document and
/// returns the flip sets (deleted nodes are skipped — structural
/// removal is PDDT's business).
pub fn diff(doc: &Document, pattern: &TreePattern, captured: &PredCapture) -> Flips {
    let mut flips = Flips::default();
    for &(p, n, was) in captured {
        if !doc.is_alive(n) {
            continue;
        }
        let pred = pattern.node(p).val_pred.as_deref().expect("captured nodes carry predicates");
        let now = doc.value(n) == pred;
        if was && !now {
            flips.down.entry(p).or_default().push(n);
        } else if !was && now {
            flips.up.entry(p).or_default().push(n);
        }
    }
    flips
}

/// Bindings lost (`Minus`) or gained (`Plus`) *purely by predicate
/// flips*, entirely over surviving old nodes: old-valid and using ≥1
/// F↓ node, resp. now-valid and using ≥1 F↑ node. Columns in pattern
/// pre-order.
pub fn bindings_by_flips(ctx: &TermContext<'_>, sign: Sign) -> Relation {
    let gained = sign == Sign::Plus;
    let table = if gained { &ctx.flips.up } else { &ctx.flips.down };
    let positions: Vec<PatternNodeId> = table.keys().copied().collect();
    // All non-empty subsets of flipped positions; bindings are
    // partitioned by exactly which positions bind flipped nodes.
    let terms: Vec<Term> = (1u32..(1 << positions.len()))
        .map(|mask| {
            Term::from_iter(
                positions.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &p)| p),
            )
        })
        .collect();
    eval_terms(
        ctx.pattern,
        &ctx.pattern.preorder(),
        &terms,
        &|n| Cow::Borrowed(ctx.old_leaf(n, Truth::Stayed, None)),
        // F↑ nodes satisfy the predicate now, so the standard builder
        // keeps them; F↓ nodes fail it now and bypass the filter.
        &|p| Cow::Owned(relation_from_nodes(ctx.doc, ctx.pattern, p, &table[&p], gained)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;
    use xivm_update::{apply_pul, compute_pul, UpdateStatement};
    use xivm_xml::parse_document;

    #[test]
    fn capture_and_diff_detect_a_flip() {
        let mut doc = parse_document("<r><a><d>5</d></a></r>").unwrap();
        let p = parse_pattern("//a{id}[//d[val=\"5\"]]//b{id}").unwrap();
        let stmt = UpdateStatement::insert("//d", "<d>5</d>").unwrap();
        let pul = compute_pul(&doc, &stmt);
        let cap = capture(&doc, &p, &pul);
        assert_eq!(cap.len(), 1, "the outer d is on the target chain");
        assert!(cap[0].2, "outer d satisfied [val=5] before");
        apply_pul(&mut doc, &pul).unwrap();
        let flips = diff(&doc, &p, &cap);
        assert!(flips.any());
        let d_node = p.preorder()[1];
        assert_eq!(flips.down.get(&d_node).map(Vec::len), Some(1), "value became 55");
    }

    #[test]
    fn no_predicates_no_capture() {
        let doc = parse_document("<r><a><b/></a></r>").unwrap();
        let p = parse_pattern("//a{id}//b{id}").unwrap();
        let stmt = UpdateStatement::insert("//b", "<c/>").unwrap();
        let pul = compute_pul(&doc, &stmt);
        assert!(capture(&doc, &p, &pul).is_empty());
    }

    #[test]
    fn deletion_chains_start_at_the_parent() {
        let doc = parse_document("<r><d>5<x>junk</x></d></r>").unwrap();
        let p = parse_pattern("//d{id}[val=\"5\"]").unwrap();
        let stmt = UpdateStatement::delete("//x").unwrap();
        let pul = compute_pul(&doc, &stmt);
        let cap = capture(&doc, &p, &pul);
        assert_eq!(cap.len(), 1);
        assert!(!cap[0].2, "value is 5junk before the deletion");
    }
}
