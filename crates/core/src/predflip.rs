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
//! nodes are re-checked ([`flipped`]). A flip is rare — no benchmark
//! workload makes one — so the engine answers a commit with one by
//! recomputing the view from the post-state
//! ([`crate::engine::MaintenanceEngine::finish`]), exact on any PUL.

use std::collections::HashSet;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::Pul;
use xivm_xml::{Document, NodeId, NodeKind};

/// Pre-update predicate truth for `(pattern node, document node)`
/// pairs on the update targets' ancestor chains.
pub type PredCapture = Vec<(PatternNodeId, NodeId, bool)>;

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
