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
//! Two steps bracket the PUL: before it is applied, predicate truth is
//! captured for every predicate-labeled node on the ancestor chains of
//! the update targets ([`capture`]); after, the surviving captured
//! nodes are re-checked ([`flipped`]). The capture reads the targets'
//! Dewey IDs first — an ID is its root path's labels — and touches the
//! document only for an operation with a predicate's label on that
//! path; a catalog's bulk deletes of persons or items, under views
//! whose predicates sit on other paths, read nothing. The *removed*
//! nodes' truth is no concern here: the apply hands their pre-apply
//! values to Δ⁻ (`xivm_update::DeltaLabels`). A flip is rare — no
//! benchmark workload makes one — so the engine answers a commit with
//! one by recomputing the view from the post-state
//! ([`crate::engine::MaintenanceEngine::finish`]), exact on any PUL.

use std::collections::HashSet;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::Pul;
use xivm_xml::{Document, LabelId, NodeId, NodeKind};

/// Pre-update predicate truth for `(pattern node, document node)`
/// pairs on the update targets' ancestor chains.
pub type PredCapture = Vec<(PatternNodeId, NodeId, bool)>;

/// Captures predicate truth on the ancestor-or-self chains of every
/// update target (for deletions: of the target's parent — the target
/// itself disappears). Runs against the still-intact document, and
/// reads it only for a target whose ID carries a predicate's label on
/// that chain (any element label, under a wildcard predicate).
pub fn capture(doc: &Document, pattern: &TreePattern, pul: &Pul) -> PredCapture {
    // Labels resolved once: `None` for a wildcard. A name the document
    // never saw labels no node.
    let preds: Vec<(PatternNodeId, Option<LabelId>, &str)> = pattern
        .node_ids()
        .filter_map(|p| {
            let pn = pattern.node(p);
            let pred = pn.val_pred.as_deref()?;
            match &pn.test {
                NodeTest::Name(n) => Some((p, Some(doc.label_id(n)?), pred)),
                NodeTest::Wildcard => Some((p, None, pred)),
            }
        })
        .collect();
    if preds.is_empty() {
        return Vec::new();
    }
    let wildcard = preds.iter().any(|&(_, label, _)| label.is_none());
    let mut seen: HashSet<(PatternNodeId, NodeId)> = HashSet::new();
    let mut out = Vec::new();
    for op in &pul.ops {
        let steps = op.target().steps();
        let chain = if op.is_insert() { steps } else { &steps[..steps.len().saturating_sub(1)] };
        let labeled = |s: &xivm_xml::dewey::Step| preds.iter().any(|p| p.1 == Some(s.label));
        if chain.is_empty() || !(wildcard || chain.iter().any(labeled)) {
            continue;
        }
        let Some(target) = doc.find_node(op.target()) else {
            continue;
        };
        let start = if op.is_insert() { Some(target) } else { doc.parent_of(target) };
        let mut cur = start;
        while let Some(n) = cur {
            let node = doc.node(n);
            for &(p, label, pred) in &preds {
                let matches = match label {
                    Some(l) => node.label == l,
                    None => node.kind == NodeKind::Element,
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

/// Did a captured predicate change its truth under the applied PUL?
/// Re-checks the captured nodes against the updated document (deleted
/// nodes are skipped — structural removal is the Δ⁻ terms' business).
pub fn flipped(doc: &Document, pattern: &TreePattern, captured: &PredCapture) -> bool {
    captured.iter().any(|&(p, n, was)| {
        let pred = pattern.node(p).val_pred.as_deref().expect("captured nodes carry predicates");
        doc.is_alive(n) && (doc.value(n) == pred) != was
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;
    use xivm_update::{apply_pul, compute_pul, UpdateStatement};
    use xivm_xml::parse_document;

    #[test]
    fn capture_and_flipped_detect_a_flip() {
        let mut doc = parse_document("<r><a><d>5</d></a></r>").unwrap();
        let p = parse_pattern("//a{id}[//d[val=\"5\"]]//b{id}").unwrap();
        let stmt = UpdateStatement::insert("//d", "<d>5</d>").unwrap();
        let pul = compute_pul(&doc, &stmt);
        let cap = capture(&doc, &p, &pul);
        assert_eq!(cap.len(), 1, "the outer d is on the target chain");
        assert!(cap[0].2, "outer d satisfied [val=5] before");
        apply_pul(&mut doc, &pul).unwrap();
        assert!(flipped(&doc, &p, &cap), "value became 55");
    }

    #[test]
    fn no_predicates_no_capture() {
        let doc = parse_document("<r><a><b/></a></r>").unwrap();
        let p = parse_pattern("//a{id}//b{id}").unwrap();
        let stmt = UpdateStatement::insert("//b", "<c/>").unwrap();
        let pul = compute_pul(&doc, &stmt);
        assert!(capture(&doc, &p, &pul).is_empty());
    }

    /// The label paths first: a target with no predicate label on its
    /// chain is not looked up — a delete of a `d` itself, whose chain
    /// starts at its parent, included — and one with a label is.
    #[test]
    fn only_targets_with_a_predicate_label_on_their_chain_are_read() {
        let doc = parse_document("<r><d>5<x/></d><e><d>5</d></e></r>").unwrap();
        let p = parse_pattern("//d{id}[val=\"5\"]").unwrap();
        let captured = |stmt: &str| {
            let stmt = xivm_update::statement::parse_statement(stmt).unwrap();
            capture(&doc, &p, &compute_pul(&doc, &stmt)).len()
        };
        assert_eq!(captured("delete //d"), 0, "the d's own chain starts above it");
        assert_eq!(captured("delete //e"), 0);
        assert_eq!(captured("insert <y/> into //e"), 0);
        assert_eq!(captured("delete //d/x"), 1);
        assert_eq!(captured("insert <y/> into //d"), 2);
        let wildcard = parse_pattern("//*{id}[val=\"5\"]").unwrap();
        let stmt = UpdateStatement::delete("//e/d").unwrap();
        assert_eq!(capture(&doc, &wildcard, &compute_pul(&doc, &stmt)).len(), 2, "e and r");
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
