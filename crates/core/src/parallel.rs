//! The Figure 15 conflict rules lifted to the views of one
//! [`crate::multiview::MultiViewEngine`] pass.
//!
//! Section 3.5's multi-view setting shares the view-independent work
//! of an update (one PUL, one document mutation) and leaves each view
//! its own Δ-table extraction and term evaluation, which
//! `MultiViewEngine::propagate` runs view after view.
//! [`PropagationPlan`] / [`schedule_groups`] are an *analysis* of that
//! pass: each view is projected to the PUL operations whose label
//! footprint can touch it, and two views are grouped exactly when
//! their projections contain two *distinct* operations related by a
//! Figure 15 conflict ([`xivm_pulopt::partition`]). The groups say
//! which views care about order-dependent operations of one PUL;
//! [`MultiViewEngine::partition`](crate::multiview::MultiViewEngine::partition)
//! exposes them and the bench runners report their count.

use std::collections::HashSet;
use xivm_pattern::TreePattern;
use xivm_update::{AtomicOp, Pul};
use xivm_xml::{Document, LabelId};

/// Caps the subtree walk when computing a deletion's label footprint;
/// a larger subtree falls back to "touches everything" so the
/// analysis stays cheap relative to propagation itself.
const FOOTPRINT_WALK_CAP: usize = 4096;

/// The labels an atomic operation can create or destroy.
enum Footprint {
    /// Labels interned in the host document (target path, deleted
    /// subtree) plus label *names* new to the document (insert
    /// forests can introduce labels the document never had).
    Labels { ids: HashSet<LabelId>, new_names: HashSet<String> },
    /// Unknown — treat as intersecting every view.
    All,
}

/// The labels a pattern can bind, or `None` when a wildcard node
/// makes every label bindable.
fn pattern_labels(pattern: &TreePattern) -> Option<HashSet<&str>> {
    let mut labels = HashSet::new();
    for id in pattern.node_ids() {
        match pattern.node(id).test.name() {
            Some(name) => {
                labels.insert(name);
            }
            None => return None, // wildcard: binds anything
        }
    }
    Some(labels)
}

/// The label footprint of one atomic operation: the labels on its
/// target path, plus — for a deletion — every label in the doomed
/// subtree (resolved against the intact document, walk capped), plus
/// — for an insertion — every label in the parsed forest.
fn op_footprint(doc: &Document, op: &AtomicOp) -> Footprint {
    let mut ids: HashSet<LabelId> = op.target().label_path().into_iter().collect();
    let mut new_names = HashSet::new();
    match op {
        AtomicOp::Delete { node } => {
            let Some(root) = doc.find_node(node) else { return Footprint::All };
            let mut stack = vec![root];
            let mut walked = 0usize;
            while let Some(n) = stack.pop() {
                walked += 1;
                if walked > FOOTPRINT_WALK_CAP {
                    return Footprint::All;
                }
                ids.insert(doc.node(n).label);
                stack.extend_from_slice(doc.children_of(n));
            }
        }
        AtomicOp::InsertInto { forest, .. } => {
            // Parse into a scratch document with the same forest
            // parser `apply_pul` uses, and walk only the forest's own
            // subtrees (the scratch root is not inserted content).
            let mut scratch = Document::new();
            let Ok(root) = scratch.set_root("xivm-forest-scan") else { return Footprint::All };
            let Ok(roots) = xivm_xml::parser::parse_forest_into(&mut scratch, root, forest) else {
                return Footprint::All;
            };
            for r in roots {
                for n in scratch.descendants_or_self(r) {
                    let name = scratch.label_name(scratch.node(n).label);
                    match doc.label_id(name) {
                        Some(id) => {
                            ids.insert(id);
                        }
                        None => {
                            new_names.insert(name.to_owned());
                        }
                    }
                }
            }
        }
    }
    Footprint::Labels { ids, new_names }
}

/// Does the op's footprint intersect a view's bindable labels?
fn touches(doc: &Document, footprint: &Footprint, bindable: &HashSet<&str>) -> bool {
    match footprint {
        Footprint::All => true,
        Footprint::Labels { ids, new_names } => {
            ids.iter().any(|&id| bindable.contains(doc.label_name(id)))
                || new_names.iter().any(|n| bindable.contains(n.as_str()))
        }
    }
}

/// Projects the ops named by `op_idxs` onto every view by label
/// footprint: one index list per pattern, restricted to `op_idxs`.
/// Shared by [`PropagationPlan::compute`] (all ops) and
/// [`schedule_groups`] (conflict-involved ops only) so the two can
/// never drift apart.
fn project(
    doc: &Document,
    pul: &Pul,
    op_idxs: &[usize],
    patterns: &[&TreePattern],
) -> Vec<Vec<usize>> {
    let footprints: Vec<(usize, Footprint)> =
        op_idxs.iter().map(|&i| (i, op_footprint(doc, &pul.ops[i]))).collect();
    patterns
        .iter()
        .map(|p| match pattern_labels(p) {
            None => op_idxs.to_vec(),
            Some(bindable) => footprints
                .iter()
                .filter(|(_, fp)| touches(doc, fp, &bindable))
                .map(|(i, _)| *i)
                .collect(),
        })
        .collect()
}

/// How one shared PUL relates to the views of a multi-view host — the
/// reference form of the analysis [`schedule_groups`] short-cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationPlan {
    /// Per-view projections: for each view (declaration order), the
    /// indices of the PUL operations whose label footprint intersects
    /// the view's bindable labels. A heuristic, not a correctness
    /// filter — every view still propagates the full PUL.
    pub projections: Vec<Vec<usize>>,
    /// Declaration-order view indices partitioned into
    /// order-independent groups (see [`xivm_pulopt::partition`]).
    /// Ordered by smallest member, members ascending.
    pub groups: Vec<Vec<usize>>,
}

impl PropagationPlan {
    /// Projects the PUL onto every view (by label footprint, against
    /// the still-intact document) and partitions the views with the
    /// Figure 15 conflict rules.
    pub fn compute(doc: &Document, pul: &Pul, patterns: &[&TreePattern]) -> Self {
        let all: Vec<usize> = (0..pul.ops.len()).collect();
        let projections = project(doc, pul, &all, patterns);
        let groups = xivm_pulopt::partition_projections(pul, &projections);
        PropagationPlan { projections, groups }
    }
}

/// The Figure 15 partition of the views under one PUL — the same
/// groups as [`PropagationPlan::compute`], skipping all footprint work
/// when the PUL has no internal Figure 15 conflicts (the common case
/// for single-statement PULs: no two of its ops can be order-dependent,
/// so every view is its own group). When conflicts exist, footprints
/// are computed only for the ops involved in them — ops outside every
/// conflict pair can never group two views. An analysis only:
/// propagation does not call it.
pub fn schedule_groups(doc: &Document, pul: &Pul, patterns: &[&TreePattern]) -> Vec<Vec<usize>> {
    let pairs = xivm_pulopt::internal_conflict_pairs(pul);
    if pairs.is_empty() {
        return (0..patterns.len()).map(|i| vec![i]).collect();
    }
    let mut involved: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    involved.sort_unstable();
    involved.dedup();
    let projections = project(doc, pul, &involved, patterns);
    xivm_pulopt::partition_projections(pul, &projections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;
    use xivm_update::{compute_pul, statement::parse_statement};
    use xivm_xml::parse_document;

    #[test]
    fn wildcard_patterns_project_to_every_op() {
        let doc = parse_document("<r><x><y/></x><z/></r>").unwrap();
        let pul = compute_pul(&doc, &parse_statement("insert <q/> into //z").unwrap());
        let wild = parse_pattern("/r{id}/*/q{id}").unwrap();
        let plan = PropagationPlan::compute(&doc, &pul, &[&wild]);
        assert_eq!(plan.projections, vec![vec![0]]);
    }

    #[test]
    fn label_disjoint_views_get_empty_projections() {
        let doc = parse_document("<r><x><y/></x><z/></r>").unwrap();
        let pul = compute_pul(&doc, &parse_statement("insert <q/> into //z").unwrap());
        let touched = parse_pattern("//z{id}//q{id}").unwrap();
        let untouched = parse_pattern("//x{id}//y{id}").unwrap();
        let plan = PropagationPlan::compute(&doc, &pul, &[&touched, &untouched]);
        assert_eq!(plan.projections, vec![vec![0], vec![]]);
        // no distinct conflicting ops → every view is its own group
        assert_eq!(plan.groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn delete_footprint_covers_the_doomed_subtree() {
        let doc = parse_document("<r><x><y/></x><z/></r>").unwrap();
        let pul = compute_pul(&doc, &parse_statement("delete //x").unwrap());
        // binds y, which only occurs inside the deleted subtree
        let inner = parse_pattern("//y{id}").unwrap();
        let plan = PropagationPlan::compute(&doc, &pul, &[&inner]);
        assert_eq!(plan.projections, vec![vec![0]]);
    }

    #[test]
    fn order_dependent_projections_share_a_group() {
        // del //x (op 0) NLO-conflicts with ins into //y (op 1): a view
        // caring about op 0 and a view caring about op 1 must co-locate.
        let doc = parse_document("<r><x><y/></x><z/></r>").unwrap();
        let mut ops = compute_pul(&doc, &parse_statement("delete //x").unwrap()).ops;
        ops.extend(compute_pul(&doc, &parse_statement("insert <w/> into //y").unwrap()).ops);
        let pul = Pul::new(ops);
        let vx = parse_pattern("//x{id}").unwrap();
        let vw = parse_pattern("//y{id}//w{id}").unwrap();
        let vz = parse_pattern("//z{id}").unwrap();
        let plan = PropagationPlan::compute(&doc, &pul, &[&vx, &vw, &vz]);
        assert_eq!(plan.projections[2], Vec::<usize>::new());
        assert_eq!(plan.groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn schedule_groups_equals_the_full_plan() {
        // documented equivalence: the fast path must yield the same
        // groups as PropagationPlan::compute — on a conflict-free PUL
        // (fast path short-circuits) and on a conflicting one (fast
        // path computes footprints for involved ops only).
        let doc = parse_document("<r><x><y/></x><z/><w/></r>").unwrap();
        let patterns = [
            parse_pattern("//x{id}").unwrap(),
            parse_pattern("//y{id}//w{id}").unwrap(),
            parse_pattern("//z{id}").unwrap(),
            parse_pattern("/r{id}/*{id}").unwrap(),
        ];
        let refs: Vec<&TreePattern> = patterns.iter().collect();
        let conflict_free = compute_pul(&doc, &parse_statement("insert <q/> into //z").unwrap());
        let mut ops = compute_pul(&doc, &parse_statement("delete //x").unwrap()).ops;
        ops.extend(compute_pul(&doc, &parse_statement("insert <w/> into //y").unwrap()).ops);
        let conflicting = Pul::new(ops);
        for pul in [&conflict_free, &conflicting] {
            assert_eq!(
                schedule_groups(&doc, pul, &refs),
                PropagationPlan::compute(&doc, pul, &refs).groups
            );
        }
    }

    #[test]
    fn forest_scan_wrapper_label_does_not_leak_into_footprints() {
        // a view binding the literal label "xivm-forest-scan" must not
        // be treated as touched by arbitrary inserts
        let doc = parse_document("<r><x><y/></x><z/></r>").unwrap();
        let pul = compute_pul(&doc, &parse_statement("insert <q/> into //z").unwrap());
        let odd = parse_pattern("//xivm-forest-scan{id}").unwrap();
        let plan = PropagationPlan::compute(&doc, &pul, &[&odd]);
        assert_eq!(plan.projections, vec![Vec::<usize>::new()]);
    }
}
