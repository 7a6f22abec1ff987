//! Parallel multi-view propagation: the per-view fan-out of the
//! shared [`crate::multiview::MultiViewEngine`] pass.
//!
//! Section 3.5's multi-view setting shares the view-independent work
//! of an update (one PUL, one document mutation) and leaves each view
//! its own Δ-table extraction and term evaluation — which touch only
//! that view's store and snowcaps and read the document immutably.
//! That makes the per-view phases embarrassingly parallel, and this
//! module supplies the scheduler:
//!
//! * [`effective_workers`] (re-exported from [`crate::runtime`])
//!   resolves the worker count from the `Database` builder knob and
//!   the `XIVM_WORKERS` environment variable;
//! * [`PropagationPlan`] partitions the views into order-independent
//!   groups with the Figure 15 conflict rules
//!   ([`xivm_pulopt::partition`]): each view is projected to the PUL
//!   operations that can touch it, and two views are grouped exactly
//!   when their projections contain two *distinct* conflicting
//!   operations. The partition is the unit of scheduling here and the
//!   shard-assignment function of the ROADMAP's sharding direction —
//!   views in different groups could apply their projections on
//!   different document replicas in any order;
//! * `prepare_all` / `finish_all` (crate-internal) run the per-view
//!   phases on the persistent [`Runtime`] pool: jobs sit behind a
//!   shared atomic cursor and an idle worker claims ("steals") the
//!   next unclaimed one instead of owning a fixed slice. Results are
//!   merged back by declaration-order index, so the outcome is
//!   bit-identical to the sequential pass no matter how the jobs were
//!   interleaved.
//! * `run_window` (crate-internal) is the chain schedule of
//!   `MultiViewEngine::propagate_window`: a window of two or more
//!   consecutive commits is propagated at once, each commit carrying
//!   copy-on-write document snapshots from before and after its
//!   apply (`WindowStep`). The per-commit Figure 15
//!   partitions are merged (union-find) into window-wide *shards*;
//!   one job per shard walks the commits in order running
//!   `prepare(pre₍ⱼ₎)` then `finish(post₍ⱼ₎)` for its views, so
//!   commit *k+d*'s prepare overlaps commit *k*'s finish on every
//!   disjoint shard — for any window depth, not just one commit
//!   ahead. Within a shard each view's store is written by exactly
//!   one job, so shards need no synchronization at all.
//!
//! Determinism does not *depend* on the plan: every view writes only
//! its own state. The plan bounds scheduling (co-locating views that
//! care about order-dependent ops, exactly what a sharded deployment
//! must do) and the merge restores declaration order unconditionally.

use crate::engine::{MaintenanceEngine, PreparedUpdate, UpdateReport};
use crate::executor::CommitPlan;
use crate::runtime::{Job, Runtime};
use std::collections::HashSet;
use std::sync::Mutex;
use xivm_pattern::TreePattern;
use xivm_update::{ApplyResult, AtomicOp, Pul};
use xivm_xml::{Document, LabelId};

pub use crate::runtime::{effective_workers, env_workers};

/// Caps the subtree walk when computing a deletion's label footprint;
/// a larger subtree falls back to "touches everything" so plan
/// computation stays cheap relative to propagation itself.
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

/// How one shared PUL fans out over the views of a multi-view host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationPlan {
    /// Per-view projections: for each view (declaration order), the
    /// indices of the PUL operations whose label footprint intersects
    /// the view's bindable labels. A scheduling heuristic, not a
    /// correctness filter — every view still propagates the full PUL.
    pub projections: Vec<Vec<usize>>,
    /// Declaration-order view indices partitioned into
    /// order-independent groups (see [`xivm_pulopt::partition`]):
    /// groups are the unit of worker scheduling and the shard
    /// assignment of the sharding direction. Ordered by smallest
    /// member, members ascending.
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

    /// A degenerate single-group plan covering `n` views, used for the
    /// sequential path so both paths walk identical structures.
    pub fn single_group(n: usize) -> Self {
        PropagationPlan { projections: Vec::new(), groups: vec![(0..n).collect()] }
    }
}

/// The scheduling partition for one propagation — the same groups as
/// [`PropagationPlan::compute`], skipping all footprint work when the
/// PUL has no internal Figure 15 conflicts (the common case for
/// single-statement PULs: no two of its ops can be order-dependent,
/// so every view is its own group). When conflicts exist, footprints
/// are computed only for the ops involved in them — ops outside every
/// conflict pair can never group two views.
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

/// Is view `i` statically skipped under `skip` (`None` = no mask)?
fn masked(skip: Option<&[bool]>, i: usize) -> bool {
    skip.is_some_and(|m| m.get(i).copied().unwrap_or(false))
}

/// Runs [`MaintenanceEngine::prepare`] for every view against the
/// intact document, one pool job per view. Returns the prepared
/// states in declaration order; a `None` entry is a view the static
/// analyzer proved irrelevant (`skip[i]`), whose prepare was never
/// run and whose finish must be skipped too.
pub(crate) fn prepare_all(
    views: &[MaintenanceEngine],
    doc: &Document,
    pul: &Pul,
    skip: Option<&[bool]>,
    runtime: &Runtime,
) -> Vec<Option<PreparedUpdate>> {
    if runtime.size() <= 1 || views.len() <= 1 {
        return views
            .iter()
            .enumerate()
            .map(|(i, e)| (!masked(skip, i)).then(|| e.prepare(doc, pul)))
            .collect();
    }
    let slots: Vec<Mutex<Option<PreparedUpdate>>> =
        views.iter().map(|_| Mutex::new(None)).collect();
    let jobs: Vec<Job<'_>> = views
        .iter()
        .zip(&slots)
        .enumerate()
        .filter(|(i, _)| !masked(skip, *i))
        .map(|(_, (engine, slot))| {
            Box::new(move || {
                *slot.lock().expect("prepare slot unpoisoned") = Some(engine.prepare(doc, pul));
            }) as Job<'_>
        })
        .collect();
    runtime.run(jobs);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let prep = s.into_inner().expect("prepare slot unpoisoned");
            debug_assert_eq!(prep.is_none(), masked(skip, i), "every unmasked view prepared");
            prep
        })
        .collect()
}

/// Runs [`MaintenanceEngine::finish`] for every view against the
/// updated document, one pool job per Figure 15 group. Per-view
/// reports are merged back by declaration-order index, so the result
/// is bit-identical to the sequential pass. A view whose prepared
/// state is `None` was statically skipped: its engine is not touched
/// and it reports [`UpdateReport::skipped`].
pub(crate) fn finish_all(
    views: &mut [MaintenanceEngine],
    doc: &Document,
    apply_res: &ApplyResult,
    prepared: Vec<Option<PreparedUpdate>>,
    groups: &[Vec<usize>],
    runtime: &Runtime,
) -> Vec<UpdateReport> {
    let n = views.len();
    debug_assert_eq!(prepared.len(), n);
    debug_assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), n);

    // Hand each group exclusive access to its views: the declaration-
    // order slots are taken out once, so the borrow checker sees the
    // per-group &mut engines as disjoint.
    type Slot<'a> = (&'a mut MaintenanceEngine, Option<PreparedUpdate>);
    let mut slots: Vec<Option<Slot<'_>>> = views.iter_mut().zip(prepared).map(Some).collect();
    let group_views: Vec<Vec<(usize, Slot<'_>)>> = groups
        .iter()
        .map(|g| g.iter().map(|&i| (i, slots[i].take().expect("view in one group"))).collect())
        .collect();

    let finished: Vec<Mutex<Option<UpdateReport>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let jobs: Vec<Job<'_>> = group_views
        .into_iter()
        .map(|mut group| {
            let finished = &finished;
            Box::new(move || {
                for (idx, (engine, prep)) in group.drain(..) {
                    let report = match prep {
                        Some(prep) => engine.finish(doc, apply_res, prep),
                        None => UpdateReport::skipped(),
                    };
                    *finished[idx].lock().expect("finish slot unpoisoned") = Some(report);
                }
            }) as Job<'_>
        })
        .collect();
    runtime.run(jobs);

    finished
        .into_iter()
        .map(|s| s.into_inner().expect("finish slot unpoisoned").expect("every view finished"))
        .collect()
}

/// One commit of a chained window: its plan (PUL, skip mask, find
/// time) and schedule, the frozen copy-on-write document snapshots
/// from *before* and *after* its apply, the apply result, and the
/// submitting thread's apply time (stamped onto every per-view report
/// when the window drains).
pub(crate) struct WindowStep<'a> {
    pub(crate) plan: CommitPlan<'a>,
    /// The commit's own Figure 15 partition (view indices).
    pub(crate) groups: Vec<Vec<usize>>,
    /// The document version the commit's `prepare` phase reads.
    pub(crate) pre: Document,
    /// The document version the commit's `finish` phase reads.
    pub(crate) post: Document,
    pub(crate) apply_res: ApplyResult,
    pub(crate) t_apply: std::time::Duration,
}

/// Merges every commit's Figure 15 partition into one window-wide
/// shard assignment (union-find): two views share a shard iff *some*
/// commit in the window co-groups them. A shard's views can then be
/// chained through all commits by a single job with no cross-job
/// ordering constraint — the per-view constraint (finish commit *j*
/// before commit *j+1*) holds inside the chain, and any two views a
/// commit declared order-dependent sit in the same chain.
fn merge_window_shards(steps: &[WindowStep<'_>], n: usize) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for step in steps {
        for group in &step.groups {
            for pair in group.windows(2) {
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    // Canonical order: shards by smallest member, members ascending —
    // the same convention as `partition_projections`.
    let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for v in 0..n {
        by_root.entry(find(&mut parent, v)).or_default().push(v);
    }
    by_root.into_values().collect()
}

/// Propagates a whole window of consecutive commits: one pool job per
/// merged shard (see [`merge_window_shards`]), each chaining
/// `prepare(pre₍ⱼ₎)` → `finish(post₍ⱼ₎)` for its views through every
/// commit *j* in order. Because each chain holds its views' engines
/// exclusively and reads only frozen snapshots, shards proceed fully
/// independently: commit *k+depth−1*'s prepare on one shard overlaps
/// commit *k*'s finish on another, and nothing blocks on anything but
/// job completion.
///
/// Returns per-commit, declaration-ordered reports with the steps'
/// timings already stamped. Bit-identical to the sequential pass: a
/// view's `prepare` reads only the pre-apply document and its pattern,
/// and its `finish` calls happen in commit order within its chain.
pub(crate) fn run_window(
    views: &mut [MaintenanceEngine],
    steps: &[WindowStep<'_>],
    runtime: &Runtime,
) -> Vec<Vec<UpdateReport>> {
    let n = views.len();
    let w = steps.len();
    let shards = merge_window_shards(steps, n);

    let mut slots: Vec<Option<&mut MaintenanceEngine>> = views.iter_mut().map(Some).collect();
    let shard_views: Vec<Vec<(usize, &mut MaintenanceEngine)>> = shards
        .iter()
        .map(|g| g.iter().map(|&i| (i, slots[i].take().expect("view in one shard"))).collect())
        .collect();

    // One slot per (commit, view), commit-major.
    let reports: Vec<Mutex<Option<UpdateReport>>> = (0..n * w).map(|_| Mutex::new(None)).collect();

    let jobs: Vec<Job<'_>> = shard_views
        .into_iter()
        .map(|mut shard| {
            let reports = &reports;
            Box::new(move || {
                for (j, step) in steps.iter().enumerate() {
                    for (idx, engine) in shard.iter_mut() {
                        let report = if masked(step.plan.skip.as_deref(), *idx) {
                            UpdateReport::skipped()
                        } else {
                            let prep = engine.prepare(&step.pre, &step.plan.pul);
                            engine.finish(&step.post, &step.apply_res, prep)
                        };
                        *reports[j * n + *idx].lock().expect("report slot unpoisoned") =
                            Some(report);
                    }
                }
            }) as Job<'_>
        })
        .collect();
    runtime.run(jobs);

    let mut slot_iter = reports.into_iter();
    steps
        .iter()
        .map(|step| {
            (0..n)
                .map(|_| {
                    let mut report = slot_iter
                        .next()
                        .expect("n * w slots")
                        .into_inner()
                        .expect("report slot unpoisoned")
                        .expect("every view finished every commit");
                    report.timings.find_target_nodes = step.plan.t_find;
                    report.timings.apply_document = step.t_apply;
                    report
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;
    use xivm_update::{compute_pul, statement::parse_statement};
    use xivm_xml::parse_document;

    #[test]
    fn explicit_worker_count_wins_and_zero_clamps() {
        assert_eq!(effective_workers(Some(3)), 3);
        assert_eq!(effective_workers(Some(0)), 1);
    }

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
    fn single_group_plan_covers_all_views() {
        let plan = PropagationPlan::single_group(3);
        assert_eq!(plan.groups, vec![vec![0, 1, 2]]);
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
