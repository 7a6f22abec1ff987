//! Cost-based snowcap selection.
//!
//! Section 3.5 sketches — and defers to future work — how to choose
//! which snowcaps to materialize: combine (i) the expected rate of
//! changes per view node (the *update profile*, "routinely gathered as
//! part of the database server workload"), (ii) the algebraic
//! expression of each snowcap, and (iii) data statistics governing
//! sub-pattern sizes. This module implements that sketch with a
//! deliberately simple, documented cost model:
//!
//! * **statistics** — per-label cardinalities from the canonical
//!   relations ([`DocStats`]);
//! * **update profile** — per-view-node relative update rates, either
//!   given directly or extracted from a log of representative
//!   statements ([`UpdateProfile::from_log`]);
//! * **cost** — evaluating a term with Δ at node `n` costs the sum of
//!   the leaf cardinalities of its R-part that no materialized snowcap
//!   covers (structural joins are linear in their inputs); keeping a
//!   snowcap costs its estimated cardinality once per affecting
//!   update. [`choose_snowcaps`] greedily picks the chain prefixes
//!   whose expected saving exceeds their expected upkeep.

use crate::snowcap::minimal_chain;
use std::collections::{BTreeSet, HashMap};
use xivm_pattern::xpath::eval_path;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::UpdateStatement;
use xivm_xml::Document;

/// Per-label cardinalities of a document.
#[derive(Debug, Clone, Default)]
pub struct DocStats {
    counts: HashMap<String, usize>,
    elements: usize,
}

impl DocStats {
    /// Collects the statistics the canonical relations already hold.
    pub fn collect(doc: &Document) -> Self {
        let mut counts = HashMap::new();
        let mut elements = 0usize;
        for (id, name) in doc.labels().iter() {
            let n = doc.canonical_nodes(id).len();
            if n > 0 {
                counts.insert(name.to_owned(), n);
                if !name.starts_with('@') && !name.starts_with('#') {
                    elements += n;
                }
            }
        }
        DocStats { counts, elements }
    }

    /// Cardinality of the canonical relation a pattern node scans.
    pub fn node_cardinality(&self, pattern: &TreePattern, n: PatternNodeId) -> usize {
        match &pattern.node(n).test {
            NodeTest::Name(name) => self.counts.get(name).copied().unwrap_or(0),
            NodeTest::Wildcard => self.elements,
        }
    }

    /// Crude sub-pattern cardinality estimate: bounded by its rarest
    /// node (every binding embeds that node at one position).
    pub fn subset_cardinality(&self, pattern: &TreePattern, nodes: &[PatternNodeId]) -> usize {
        nodes.iter().map(|&n| self.node_cardinality(pattern, n)).min().unwrap_or(0)
    }
}

/// Relative update rates per view node: how often updates are expected
/// to add or remove matches of each node.
#[derive(Debug, Clone, Default)]
pub struct UpdateProfile {
    rates: HashMap<PatternNodeId, f64>,
}

impl UpdateProfile {
    /// Uniform profile: every node equally likely to be touched.
    pub fn uniform(pattern: &TreePattern) -> Self {
        UpdateProfile { rates: pattern.node_ids().map(|n| (n, 1.0)).collect() }
    }

    /// Extracts a profile from a log of representative statements, the
    /// way a workload monitor would: each statement contributes its
    /// target count to every view node its inserted forest (or deleted
    /// subtree root) can match.
    pub fn from_log(doc: &Document, pattern: &TreePattern, log: &[UpdateStatement]) -> Self {
        let mut rates: HashMap<PatternNodeId, f64> = pattern.node_ids().map(|n| (n, 0.0)).collect();
        for stmt in log {
            let targets = eval_path(doc, stmt.target()).len() as f64;
            if targets == 0.0 {
                continue;
            }
            // A `Replace` lowers to del + ins↘, so it contributes on
            // both sides.
            if let UpdateStatement::Insert { xml, .. } | UpdateStatement::Replace { xml, .. } = stmt
            {
                for n in pattern.node_ids() {
                    if let NodeTest::Name(name) = &pattern.node(n).test {
                        if xml.contains(&format!("<{name}")) {
                            *rates.get_mut(&n).expect("prefilled") += targets;
                        }
                    }
                }
            }
            if let UpdateStatement::Delete { .. }
            | UpdateStatement::InsertFrom { .. }
            | UpdateStatement::Replace { .. } = stmt
            {
                // deletions can remove matches of any node at or
                // below the target label; approximate as uniform
                for n in pattern.node_ids() {
                    *rates.get_mut(&n).expect("prefilled") += targets / pattern.len() as f64;
                }
            }
        }
        UpdateProfile { rates }
    }

    pub fn rate(&self, n: PatternNodeId) -> f64 {
        self.rates.get(&n).copied().unwrap_or(0.0)
    }

    /// Total expected update pressure.
    pub fn total(&self) -> f64 {
        self.rates.values().sum()
    }
}

/// Expected per-update cost of maintaining the view with the given
/// materialized snowcap set (chain prefixes assumed).
pub fn expected_cost(
    pattern: &TreePattern,
    stats: &DocStats,
    profile: &UpdateProfile,
    materialized: &[BTreeSet<PatternNodeId>],
) -> f64 {
    let order = pattern.preorder();
    let mut cost = 0.0;
    for (i, &n) in order.iter().enumerate() {
        let rate = profile.rate(n);
        if rate == 0.0 {
            continue;
        }
        // Dominant term when Δ sits at `n`: R-part = nodes before `n`
        // in pre-order that are not descendants of `n` — approximated
        // by the pre-order prefix (exact for chains).
        let r_part = &order[..i];
        // best cover: the largest materialized set inside the R-part
        let covered = materialized
            .iter()
            .filter(|m| m.iter().all(|x| r_part.contains(x)))
            .map(|m| m.len())
            .max()
            .unwrap_or(0);
        let uncovered: f64 =
            r_part.iter().skip(covered).map(|&x| stats.node_cardinality(pattern, x) as f64).sum();
        let cover_scan = if covered > 0 {
            stats.subset_cardinality(pattern, &order[..covered]) as f64
        } else {
            0.0
        };
        cost += rate * (uncovered + cover_scan);
    }
    // Upkeep: every update touching any node of a materialized snowcap
    // patches it (cost ≈ its cardinality estimate, scaled down: only
    // deltas are written).
    for m in materialized {
        let nodes: Vec<PatternNodeId> = order.iter().copied().filter(|n| m.contains(n)).collect();
        let card = stats.subset_cardinality(pattern, &nodes) as f64;
        let rate: f64 = nodes.iter().map(|&n| profile.rate(n)).sum();
        cost += 0.1 * rate * card;
    }
    cost
}

/// Greedy cost-based choice among the chain snowcaps: keep adding the
/// prefix whose inclusion lowers [`expected_cost`], stop when nothing
/// helps. Returns the chosen node sets (possibly empty — for
/// insert-only-at-the-root profiles, materialization may never pay).
pub fn choose_snowcaps(
    pattern: &TreePattern,
    stats: &DocStats,
    profile: &UpdateProfile,
) -> Vec<BTreeSet<PatternNodeId>> {
    let candidates: Vec<BTreeSet<PatternNodeId>> =
        minimal_chain(pattern).into_iter().filter(|s| s.len() < pattern.len()).collect();
    let mut chosen: Vec<BTreeSet<PatternNodeId>> = Vec::new();
    let mut best = expected_cost(pattern, stats, profile, &chosen);
    loop {
        let mut improvement: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if chosen.contains(c) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(c.clone());
            let cost = expected_cost(pattern, stats, profile, &trial);
            if cost < best && improvement.is_none_or(|(_, b)| cost < b) {
                improvement = Some((i, cost));
            }
        }
        match improvement {
            Some((i, cost)) => {
                chosen.push(candidates[i].clone());
                best = cost;
            }
            None => break,
        }
    }
    chosen.sort_by_key(BTreeSet::len);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;
    use xivm_xml::parse_document;

    fn doc() -> Document {
        // many b's and c's under few a's
        parse_document(
            "<r><a><b><c/><c/><c/></b><b><c/><c/></b></a>\
             <a><b><c/><c/><c/></b></a></r>",
        )
        .unwrap()
    }

    #[test]
    fn stats_reflect_canonical_cardinalities() {
        let d = doc();
        let s = DocStats::collect(&d);
        let p = parse_pattern("//a//b//c").unwrap();
        let order = p.preorder();
        assert_eq!(s.node_cardinality(&p, order[0]), 2);
        assert_eq!(s.node_cardinality(&p, order[1]), 3);
        assert_eq!(s.node_cardinality(&p, order[2]), 8);
        assert_eq!(s.subset_cardinality(&p, &order[..2]), 2, "bounded by the rarer a");
    }

    #[test]
    fn materialization_helps_leaf_heavy_profiles() {
        let d = doc();
        let s = DocStats::collect(&d);
        let p = parse_pattern("//a//b//c").unwrap();
        let order = p.preorder();
        // updates always add c's: terms need the ab snowcap
        let profile = UpdateProfile { rates: [(order[2], 10.0)].into() };
        let none = expected_cost(&p, &s, &profile, &[]);
        let ab: BTreeSet<_> = order[..2].iter().copied().collect();
        let with_ab = expected_cost(&p, &s, &profile, std::slice::from_ref(&ab));
        assert!(with_ab < none, "covering the R-part must be cheaper");
        let chosen = choose_snowcaps(&p, &s, &profile);
        assert!(chosen.contains(&ab));
    }

    #[test]
    fn root_only_profiles_choose_nothing() {
        let d = doc();
        let s = DocStats::collect(&d);
        let p = parse_pattern("//a//b//c").unwrap();
        let order = p.preorder();
        // updates only ever add whole new a-subtrees: the all-Δ term
        // needs no auxiliary structures
        let profile = UpdateProfile { rates: [(order[0], 10.0)].into() };
        let chosen = choose_snowcaps(&p, &s, &profile);
        assert!(chosen.is_empty(), "nothing to cover, upkeep only costs: {chosen:?}");
    }

    #[test]
    fn profile_from_log_counts_targets() {
        let d = doc();
        let p = parse_pattern("//a//b//c").unwrap();
        let log = vec![
            UpdateStatement::insert("//b", "<c/>").unwrap(),
            UpdateStatement::insert("//b", "<c/>").unwrap(),
        ];
        let profile = UpdateProfile::from_log(&d, &p, &log);
        let order = p.preorder();
        assert!(profile.rate(order[2]) > 0.0, "c insertions detected");
        assert_eq!(profile.rate(order[0]), 0.0, "no a's inserted");
        assert!(profile.total() > 0.0);
    }

    #[test]
    fn uniform_profile_covers_all_nodes() {
        let p = parse_pattern("//a//b//c").unwrap();
        let u = UpdateProfile::uniform(&p);
        assert_eq!(u.total(), 3.0);
    }
}
