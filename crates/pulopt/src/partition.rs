//! The Figure 15 conflict rules lifted to *views*, via their
//! projections of one shared PUL.
//!
//! Two operations with no IO / LO / NLO conflict between them can run
//! in either order with the same outcome. [`partition_projections`]
//! lifts that to *projections* of one PUL (per-view subsets of its
//! operations, given as index lists): the finest partition such that
//! any two order-dependent projections share a group. An op index
//! shared by two projections is the *same* operation on both sides and
//! therefore never order-dependent with itself; only a Figure 15
//! conflict between two **distinct** operations makes the projections
//! order-dependent.
//!
//! This is an analysis (`xivm_core::parallel::schedule_groups`,
//! `MultiViewEngine::partition`), not a scheduler input: a view's
//! maintenance writes only that view's store, so `xivm_core`
//! propagates the views in declaration order whatever the groups are.

use xivm_update::Pul;

/// Plain union-find over `0..n`, path-halving, union by index (the
/// smaller root wins so group identity is deterministic).
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }

    /// The groups, ordered by their smallest member; members ascend.
    fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
        for x in 0..n {
            let r = self.find(x);
            by_root[r].push(x);
        }
        by_root.into_iter().filter(|g| !g.is_empty()).collect()
    }
}

/// Partitions projections of one shared PUL into order-independent
/// groups: two projections are connected when they contain two
/// **distinct** operations related by a Figure 15 conflict, and the
/// groups are the connected components — computed without the
/// quadratic pairwise probe (PULs routinely expand to hundreds of
/// ops). Groups come out ordered by their smallest member, members
/// ascending.
///
/// Figure 15 conflicts inside one PUL only arise in two shapes, both
/// enumerable near-linearly:
///
/// * **same target** — two `ins↘` on one target (IO) or a `del` and
///   an `ins↘` on one target (LO): grouped with a target index;
/// * **NLO** — a `del` above an `ins↘`: found by sorting insertion
///   targets in document order, where the descendants of a deleted
///   node form a contiguous run.
///
/// Every conflict edge connects the projections holding its two
/// (distinct) ops; the partition is the connected components of that
/// graph. Out-of-range indices in a projection are a caller bug and
/// panic.
pub fn partition_projections(parent: &Pul, projections: &[Vec<usize>]) -> Vec<Vec<usize>> {
    // op index → projections containing it.
    let mut views_of: Vec<Vec<usize>> = vec![Vec::new(); parent.ops.len()];
    for (v, proj) in projections.iter().enumerate() {
        for &i in proj {
            views_of[i].push(v);
        }
    }
    let mut dsu = Dsu::new(projections.len());
    for_each_internal_conflict(parent, |a, b| {
        // Connect every projection holding op `a` with every one
        // holding op `b`; chaining through the two anchors yields the
        // same connected components as the full biclique.
        let (va, vb) = (&views_of[a], &views_of[b]);
        if !va.is_empty() && !vb.is_empty() {
            for &v in va {
                dsu.union(v, vb[0]);
            }
            for &w in vb {
                dsu.union(w, va[0]);
            }
        }
    });
    dsu.groups()
}

/// Calls `f(i, j)` for every distinct-index Figure 15 conflict pair
/// inside one PUL, enumerated without the quadratic all-pairs probe:
///
/// * **same target** (hash-grouped): two `ins↘` → IO, `del` + `ins↘`
///   → LO (two `del` on one node commute);
/// * **NLO** (sorted scan): the proper descendants of a deleted node
///   form a contiguous run in document order, so each deletion probes
///   a binary-searched range of the insertion targets.
pub fn for_each_internal_conflict(pul: &Pul, mut f: impl FnMut(usize, usize)) {
    use std::collections::HashMap;
    use xivm_update::AtomicOp;

    // Same-target clusters.
    let mut by_target: HashMap<&xivm_xml::DeweyId, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (i, op) in pul.ops.iter().enumerate() {
        let slot = by_target.entry(op.target()).or_default();
        match op {
            AtomicOp::InsertInto { .. } => slot.0.push(i),
            AtomicOp::Delete { .. } => slot.1.push(i),
        }
    }
    for (inserts, deletes) in by_target.values() {
        for (k, &i) in inserts.iter().enumerate() {
            for &j in &inserts[k + 1..] {
                f(i, j); // IO
            }
            for &d in deletes {
                f(d, i); // LO
            }
        }
    }

    // NLO: a delete above an insertion target.
    let mut ins_sorted: Vec<usize> =
        (0..pul.ops.len()).filter(|&i| pul.ops[i].is_insert()).collect();
    ins_sorted.sort_by(|&a, &b| pul.ops[a].target().doc_cmp(pul.ops[b].target()));
    for (d, op) in pul.ops.iter().enumerate() {
        let AtomicOp::Delete { node } = op else { continue };
        let start = ins_sorted
            .partition_point(|&i| pul.ops[i].target().doc_cmp(node) != std::cmp::Ordering::Greater);
        for &i in &ins_sorted[start..] {
            if !node.is_ancestor_of(pul.ops[i].target()) {
                break;
            }
            f(d, i);
        }
    }
}

/// All distinct-index Figure 15 conflict pairs inside one PUL. Empty
/// exactly when every pair of the PUL's operations commutes — the
/// common case for single-statement PULs, which lets the analysis skip
/// projection computation entirely.
pub fn internal_conflict_pairs(pul: &Pul) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for_each_internal_conflict(pul, |i, j| out.push((i, j)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_update::compute_pul;
    use xivm_update::statement::parse_statement;
    use xivm_xml::parse_document;

    const DOC: &str = "<r><x><y/></x><z/><w/></r>";

    #[test]
    fn shared_ops_do_not_make_projections_dependent() {
        // One PUL with two independent inserts; two projections that
        // both contain op 0 — the shared op is the same op, so the
        // projections commute.
        let d = parse_document(DOC).unwrap();
        let s = xivm_update::statement::parse_statement("insert <a/> into //y").unwrap();
        let t = xivm_update::statement::parse_statement("insert <a/> into //z").unwrap();
        let mut ops = compute_pul(&d, &s).ops;
        ops.extend(compute_pul(&d, &t).ops);
        let parent = Pul::new(ops);
        let projections = vec![vec![0], vec![0, 1]];
        assert_eq!(partition_projections(&parent, &projections), vec![vec![0], vec![1]]);
    }

    #[test]
    fn distinct_conflicting_ops_group_their_projections() {
        // ops: del //x (op 0), ins into //y (op 1) — NLO between two
        // distinct ops, so a projection holding op 0 is order-dependent
        // with one holding op 1.
        let d = parse_document(DOC).unwrap();
        let del = xivm_update::statement::parse_statement("delete //x").unwrap();
        let ins = xivm_update::statement::parse_statement("insert <a/> into //y").unwrap();
        let mut ops = compute_pul(&d, &del).ops;
        ops.extend(compute_pul(&d, &ins).ops);
        let parent = Pul::new(ops);
        let projections = vec![vec![0], vec![1], vec![]];
        assert_eq!(partition_projections(&parent, &projections), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn internal_conflicts_enumerate_all_three_kinds() {
        let d = parse_document(DOC).unwrap();
        let mut ops = Vec::new();
        // op 0: del //x — NLO over op 3 (ins into //y, below x)
        ops.extend(compute_pul(&d, &parse_statement("delete //x").unwrap()).ops);
        // ops 1, 2: two inserts into //z — IO; op 1/2 also LO with op 4
        ops.extend(compute_pul(&d, &parse_statement("insert <a/> into //z").unwrap()).ops);
        ops.extend(compute_pul(&d, &parse_statement("insert <b/> into //z").unwrap()).ops);
        // op 3: ins into //y
        ops.extend(compute_pul(&d, &parse_statement("insert <c/> into //y").unwrap()).ops);
        // op 4: del //z — LO with ops 1 and 2
        ops.extend(compute_pul(&d, &parse_statement("delete //z").unwrap()).ops);
        let pul = Pul::new(ops);
        let mut pairs = internal_conflict_pairs(&pul);
        for p in &mut pairs {
            *p = (p.0.min(p.1), p.0.max(p.1));
        }
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 3), (1, 2), (1, 4), (2, 4)]);
    }

    #[test]
    fn conflict_free_pul_has_no_internal_pairs() {
        let d = parse_document(DOC).unwrap();
        let mut ops = compute_pul(&d, &parse_statement("insert <a/> into //y").unwrap()).ops;
        ops.extend(compute_pul(&d, &parse_statement("delete //w").unwrap()).ops);
        assert!(internal_conflict_pairs(&Pul::new(ops)).is_empty());
    }

    #[test]
    fn empty_input_yields_empty_partition() {
        assert!(partition_projections(&Pul::default(), &[]).is_empty());
    }
}
