//! The signed Δ pipeline: PINT (Algorithm 1) and PDDT (Algorithm 5)
//! as one term pipeline, PIMT (Algorithm 4) and PDMT (within
//! Algorithm 6) as one text-refresh pass.
//!
//! Insertion and deletion maintenance come from the same expansion —
//! distribute the view's joins over `R ∪ Δ⁺` or `R \ Δ⁻`, keep the
//! descendant-closed Δ-sets, prune by Δ-emptiness and by IDs, evaluate
//! with structural joins. The directions differ in three answers only,
//! all given by [`DeltaSide`]: whether Δ_n is empty, what Δ_n is as a
//! relation, and which IDs witness an `R_{n1} Δ_{n2}` pair.
//!
//! Every term's R-parts are evaluated against the *old* state: the
//! post-update canonical relations minus the nodes this PUL inserted
//! (deleted nodes are already gone from them), or materialized
//! snowcaps holding the same. That makes the terms pairwise disjoint —
//! a binding appears in exactly the term whose Δ-set is its set of
//! inserted (resp. deleted) nodes — so the bag union of the terms is
//! exactly the multiset of new (resp. lost) embeddings, and adding it
//! to (resp. subtracting it from) the derivation counts is exact,
//! without inclusion–exclusion. On the deletion side this refines the
//! paper's presentation, which evaluates against the pre-update
//! relations and relies on Proposition 4.3 to drop the even-k (∪)
//! terms — sound for membership, while the disjoint form also keeps
//! the counts exact.

use crate::etins::{eval_terms, subset_terms};
use crate::predflip::Flips;
use crate::snowcap::MaterializedSnowcap;
use crate::term::Term;
use crate::view_store::{TupleKey, ViewStore};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use xivm_algebra::Relation;
use xivm_pattern::compile::{canonical_node_ids, relation_from_nodes};
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::{DeltaMinus, DeltaPlus};
use xivm_xml::{DeweyForest, DeweyId, Document, LabelId, NodeId};

/// The direction of a store patch: bindings gained or bindings lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    Plus,
    Minus,
}

/// Statistics of a pruning pass, reported by the engine and checked in
/// the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    pub before: usize,
    pub after_delta_emptiness: usize,
    pub after_id_reasoning: usize,
}

impl PruneStats {
    /// Terms the two prunings dropped together (Propositions 3.6 / 3.8
    /// on the insertion side, Δ⁻-emptiness / 4.7 on the deletion side).
    pub fn pruned(&self) -> usize {
        self.before.saturating_sub(self.after_id_reasoning)
    }

    /// Accumulates another pass's counters — the per-commit aggregation
    /// behind [`Commit::prune_totals`].
    ///
    /// [`Commit::prune_totals`]: crate::commit::Commit::prune_totals
    pub fn absorb(&mut self, other: &PruneStats) {
        self.before += other.before;
        self.after_delta_emptiness += other.after_delta_emptiness;
        self.after_id_reasoning += other.after_id_reasoning;
    }
}

/// Which predicate truth an old-state leaf reflects. The three differ
/// only on nodes whose value predicate flipped under this update (see
/// [`crate::predflip`]); everywhere else they are one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Old nodes satisfying the predicate now — the R-parts of
    /// insertion terms.
    Now,
    /// Satisfying it both before and now (`Now \ F↑`) — the R-parts of
    /// the flip terms.
    Stayed,
    /// Satisfying it before (`Stayed ∪ F↓`) — the R-parts of deletion
    /// terms, so they lose exactly the bindings the old view held.
    Before,
}

/// Everything one view's propagation of one PUL needs to see, both
/// directions: built once per [`finish`], it also owns the commit's
/// cache of old-state R-leaves.
///
/// [`finish`]: crate::engine::MaintenanceEngine::finish
pub struct TermContext<'a> {
    pub doc: &'a Document,
    pub pattern: &'a TreePattern,
    /// Arena ids of every node this PUL inserted: excluded from the
    /// R-leaves so old-state semantics hold (also under mixed PULs).
    pub inserted: &'a HashSet<NodeId>,
    pub flips: &'a Flips,
    /// Ablation switches for the dynamic prunings (Section 6.8 studies
    /// the win of dynamic reasoning).
    pub use_delta_pruning: bool,
    pub use_id_pruning: bool,
    /// Per pattern node, the old-state leaf with no / F↑ / F↑ and F↓
    /// corrections applied.
    leaves: Vec<[OnceCell<Relation>; 3]>,
}

impl<'a> TermContext<'a> {
    pub fn new(
        doc: &'a Document,
        pattern: &'a TreePattern,
        inserted: &'a HashSet<NodeId>,
        flips: &'a Flips,
    ) -> Self {
        TermContext {
            doc,
            pattern,
            inserted,
            flips,
            use_delta_pruning: true,
            use_id_pruning: true,
            leaves: (0..pattern.len()).map(|_| Default::default()).collect(),
        }
    }

    /// The old-state R-leaf of `n`: its current canonical relation
    /// minus same-PUL insertions, minus F↑ unless `truth` is `Now`,
    /// plus F↓ when it is `Before`. Built once per commit; a node no
    /// flip touches has a single old state, whatever `truth` asks.
    pub fn old_leaf(&self, n: PatternNodeId, truth: Truth) -> &Relation {
        let up = self.flips.up.get(&n).filter(|_| truth != Truth::Now);
        let down = self.flips.down.get(&n).filter(|_| truth == Truth::Before);
        let slot = usize::from(up.is_some()) + usize::from(down.is_some());
        self.leaves[n.index()][slot].get_or_init(|| {
            let up: HashSet<NodeId> = up.into_iter().flatten().copied().collect();
            let ids: Vec<NodeId> = canonical_node_ids(self.doc, self.pattern, n)
                .into_iter()
                .filter(|id| !self.inserted.contains(id) && !up.contains(id))
                .collect();
            let mut rel = relation_from_nodes(self.doc, self.pattern, n, &ids, true);
            if let Some(down) = down {
                // F↓ nodes fail the predicate now: bypass the filter.
                rel.rows.extend(relation_from_nodes(self.doc, self.pattern, n, down, false).rows);
                rel.sort_by_col(0);
            }
            rel
        })
    }
}

/// The Δ side of a term pipeline — the three answers on which
/// insertion and deletion differ.
pub enum DeltaSide<'a> {
    /// σ(Δ⁺) tables and the insertion targets `p1 … pk`.
    Plus { tables: &'a DeltaPlus, targets: &'a [DeweyId] },
    /// Δ⁻ ID lists, and their one-column relations per pattern node.
    Minus { ids: &'a DeltaMinus, relations: Vec<OnceCell<Relation>> },
}

impl<'a> DeltaSide<'a> {
    pub fn minus(ids: &'a DeltaMinus, pattern: &TreePattern) -> Self {
        DeltaSide::Minus { ids, relations: vec![OnceCell::new(); pattern.len()] }
    }

    /// Δ_n = ∅ — the emptiness test of Proposition 3.6 and its deletion
    /// analogue (Example 4.5: Δ⁻_a = ∅ removes the ΔaΔbΔc term).
    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        match self {
            DeltaSide::Plus { tables, .. } => tables.is_empty(n),
            DeltaSide::Minus { ids, .. } => ids.is_empty(n),
        }
    }

    /// Δ_n as a relation for structural joins, built once per commit.
    fn relation(&self, pattern: &TreePattern, n: PatternNodeId) -> &Relation {
        match self {
            DeltaSide::Plus { tables, .. } => tables.table(n),
            DeltaSide::Minus { ids, relations } => {
                relations[n.index()].get_or_init(|| ids.relation(pattern, n))
            }
        }
    }

    /// The ID witness of an `R_anc Δ_n` pair. Proposition 3.8: some
    /// insertion target carries `anc`'s label on its root path, self
    /// included (the target itself may match `anc`). Proposition 4.7:
    /// some deleted `n`-node carries it strictly above itself. Reads
    /// only the Compact Dynamic Dewey IDs — no document access — which
    /// is why "Get Update Expression" stays cheap in the Section 6
    /// breakdowns.
    fn witnesses(&self, n: PatternNodeId, anc: LabelId) -> bool {
        match self {
            DeltaSide::Plus { targets, .. } => {
                targets.iter().any(|p| p.has_self_or_ancestor_labeled(anc))
            }
            DeltaSide::Minus { ids, .. } => {
                ids.ids(n).iter().any(|id| id.has_proper_ancestor_labeled(anc))
            }
        }
    }

    /// The truth the R-parts of this side's terms reflect.
    fn truth(&self) -> Truth {
        match self {
            DeltaSide::Plus { .. } => Truth::Now,
            DeltaSide::Minus { .. } => Truth::Before,
        }
    }
}

/// "Get Update Expression": the terms of the sub-pattern `subset`
/// (the full view, or a snowcap when maintaining the lattice) that
/// survive Propositions 3.3 / 4.2 (built into [`subset_terms`]), the
/// Δ-emptiness check (Proposition 3.6) and the ID check
/// (Propositions 3.8 / 4.7).
pub fn terms(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    subset: &BTreeSet<PatternNodeId>,
) -> (Vec<Term>, PruneStats) {
    let mut terms = subset_terms(ctx.pattern, subset);
    let mut stats = PruneStats { before: terms.len(), ..Default::default() };
    if ctx.use_delta_pruning {
        terms.retain(|t| t.delta_nodes().iter().all(|&n| !side.is_empty(n)));
    }
    stats.after_delta_emptiness = terms.len();
    if ctx.use_id_pruning {
        // Keep terms whose every (R-ancestor within `subset`, Δ-node)
        // pair is witnessed.
        terms.retain(|t| {
            t.delta_nodes().iter().all(|&n| {
                t.r_ancestors_of(ctx.pattern, n).into_iter().filter(|a| subset.contains(a)).all(
                    |anc| match &ctx.pattern.node(anc).test {
                        // wildcards match any element: no label to reason on
                        NodeTest::Wildcard => true,
                        // a label never seen in the document: R_anc is empty
                        NodeTest::Name(name) => {
                            ctx.doc.label_id(name).is_some_and(|l| side.witnesses(n, l))
                        }
                    },
                )
            })
        });
    }
    stats.after_id_reasoning = terms.len();
    (terms, stats)
}

/// "Execute Update": evaluates the surviving terms of the sub-pattern
/// `subset_preorder` (pattern pre-order, parent-closed) into the bag
/// of bindings to add (`Plus`) or the bag of lost bindings (`Minus`).
pub fn eval(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    subset_preorder: &[PatternNodeId],
    terms: &[Term],
    materialized: &[MaterializedSnowcap],
) -> Relation {
    eval_terms(
        ctx.pattern,
        subset_preorder,
        terms,
        materialized,
        &|n| Cow::Borrowed(ctx.old_leaf(n, side.truth())),
        &|n| Cow::Borrowed(side.relation(ctx.pattern, n)),
    )
}

/// PIMT / PDMT: an update strictly inside (or, for an insertion, at) a
/// node whose `val` / `cont` the view stores changes that stored text
/// without adding or removing tuples. A stored node is affected iff
/// its ID equals or is an ancestor of one of `roots` — the insertion
/// targets, or the deleted subtree roots (a deleted root itself no
/// longer resolves in the document; its tuples went with PDDT). A pure
/// ID comparison, enabled by storing IDs alongside every `val` /
/// `cont` (Algorithm 4's precondition).
///
/// Patches the affected fields by re-reading the (already updated)
/// document and returns the keys of the modified tuples (for the
/// commit report's Δ), walking the store in place — no tuple is cloned
/// and no key snapshot is taken.
pub fn refresh_text(
    store: &mut ViewStore,
    doc: &Document,
    pattern: &TreePattern,
    roots: &[DeweyId],
) -> Vec<TupleKey> {
    // If cvn is empty, updates cannot modify view tuples (Section 3.6).
    let stored = pattern.stored_nodes();
    let cvn_cols: Vec<(usize, bool, bool)> = stored
        .iter()
        .enumerate()
        .map(|(col, &n)| (col, pattern.node(n).ann.val, pattern.node(n).ann.cont))
        .filter(|&(_, val, cont)| val || cont)
        .collect();
    if cvn_cols.is_empty() || roots.is_empty() {
        return Vec::new();
    }
    // Roots may nest (`insert into //a` hits an `a` inside another
    // `a`): keep every one, or tuples strictly between an outer and an
    // inner root would never be refreshed.
    let forest = DeweyForest::with_nested(roots.to_vec());
    let mut modified = Vec::new();
    for (key, tuple) in store.tuples_mut() {
        let mut touched = false;
        for &(col, want_val, want_cont) in &cvn_cols {
            let id = &key[col];
            if !forest.has_descendant_or_self_root(id) {
                continue;
            }
            let Some(node) = doc.find_node(id) else { continue };
            let field = tuple.field_mut(col);
            if want_val {
                field.val = Some(Arc::from(doc.value(node).as_str()));
            }
            if want_cont {
                field.cont = Some(Arc::from(doc.content(node).as_str()));
            }
            touched = true;
        }
        if touched {
            modified.push(key.clone());
        }
    }
    modified
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::compile::view_tuples;
    use xivm_pattern::parse_pattern;
    use xivm_update::statement::parse_statement;
    use xivm_update::{apply_pul, compute_pul, ApplyResult};
    use xivm_xml::parse_document;

    /// One statement applied to one document under one view: the
    /// updated document plus everything `finish` would hand the
    /// pipeline.
    struct Applied {
        doc: Document,
        pattern: TreePattern,
        dminus: DeltaMinus,
        delete_roots: Vec<DeweyId>,
        res: ApplyResult,
    }

    fn apply(doc_xml: &str, stmt: &str, pattern: &str) -> Applied {
        let mut doc = parse_document(doc_xml).unwrap();
        let pattern = parse_pattern(pattern).unwrap();
        let pul = compute_pul(&doc, &parse_statement(stmt).unwrap());
        let (dminus, delete_roots) = DeltaMinus::collect(&doc, &pattern, &pul);
        let res = apply_pul(&mut doc, &pul).unwrap();
        Applied { doc, pattern, dminus, delete_roots, res }
    }

    /// Expands, prunes and evaluates the full view's terms in one
    /// direction.
    fn run(a: &Applied, sign: Sign, pruning: bool) -> (Relation, Vec<Term>, PruneStats) {
        let inserted: HashSet<NodeId> = a.res.inserted.iter().copied().collect();
        let flips = Flips::default();
        let mut ctx = TermContext::new(&a.doc, &a.pattern, &inserted, &flips);
        ctx.use_delta_pruning = pruning;
        ctx.use_id_pruning = pruning;
        let dplus = DeltaPlus::compute(&a.doc, &a.pattern, &a.res.inserted);
        let side = match sign {
            Sign::Plus => DeltaSide::Plus { tables: &dplus, targets: &a.res.insert_targets },
            Sign::Minus => DeltaSide::minus(&a.dminus, &a.pattern),
        };
        let order = a.pattern.preorder();
        let (terms, stats) = terms(&ctx, &side, &order.iter().copied().collect());
        (eval(&ctx, &side, &order, &terms, &[]), terms, stats)
    }

    #[test]
    fn added_bindings_for_simple_insert() {
        // doc a{b} gains a c under b: //a//b//c gains 1 binding
        let a = apply("<a><b/></a>", "insert <c/> into //b", "//a{id}//b{id}//c{id}");
        let (rel, _, stats) = run(&a, Sign::Plus, true);
        assert_eq!(rel.len(), 1);
        assert_eq!(stats.before, 3);
        // only RaRbΔc survives: Δ⁺_a and Δ⁺_b are empty
        assert_eq!(stats.after_delta_emptiness, 1);
        assert_eq!(stats.after_id_reasoning, 1);
    }

    #[test]
    fn disjointness_no_double_count() {
        // Insert a whole a/b/c chain next to an existing one: terms
        // must count each new embedding exactly once.
        let a = apply(
            "<r><a><b><c/></b></a><t/></r>",
            "insert <a><b><c/></b></a> into //t",
            "//a{id}//b{id}//c{id}",
        );
        // exactly the one new (a,b,c) embedding — the old chain is
        // under r, unrelated to the new one under t
        assert_eq!(run(&a, Sign::Plus, true).0.len(), 1);
    }

    #[test]
    fn pruning_disabled_still_correct() {
        let a = apply("<a><b/></a>", "insert <c/> into //b", "//a{id}//b{id}//c{id}");
        let (rel, _, stats) = run(&a, Sign::Plus, false);
        assert_eq!(rel.len(), 1, "unpruned evaluation is slower but equal");
        assert_eq!(stats.after_id_reasoning, stats.before);
        let d = apply(FIG12, "delete /a/f/c", "//a{id}[//c{id}]//b{id}");
        let (rel, _, stats) = run(&d, Sign::Minus, false);
        assert_eq!(rel.len(), run(&d, Sign::Minus, true).0.len());
        assert_eq!(stats.after_id_reasoning, stats.before);
    }

    /// Example 3.4: inserting <a><b/><b/></a> (no c) empties every
    /// term of v1 = //a//b//c.
    #[test]
    fn example_3_4_all_terms_pruned() {
        let a = apply("<root><t/></root>", "insert <a><b/><b/></a> into //t", "//a//b//c");
        let (_, _, stats) = run(&a, Sign::Plus, true);
        assert_eq!(stats.before, 3);
        assert_eq!(stats.after_delta_emptiness, 0, "Δ⁺_c = ∅ kills all three surviving terms");
    }

    /// Example 3.5: value predicates participate in Δ-emptiness.
    #[test]
    fn example_3_5_value_pruning() {
        let a =
            apply("<root><t/></root>", "insert <a>3<b/><b/></a> into //t", "//a[val=\"5\"]//b{id}");
        let (_, _, stats) = run(&a, Sign::Plus, true);
        // Δ{b} survives Δ-emptiness (two new b's), the new a fails
        // [val=5] …
        assert_eq!(stats.after_delta_emptiness, 1);
        // … but Prop 3.8 kills it: there is no a at all on the
        // target's path.
        assert_eq!(stats.after_id_reasoning, 0);
    }

    /// Example 3.7: inserting <b><c/></b> under an `a` whose path has
    /// no other b: the RaRbΔc term dies, Ra ΔbΔc survives.
    #[test]
    fn example_3_7_id_driven_pruning() {
        let a = apply("<a><x/></a>", "insert <b><c/></b> into //a", "//a//b//c");
        let (_, terms, stats) = run(&a, Sign::Plus, true);
        // Δ⁺_a = ∅ removes the all-Δ term; {c} and {b,c} remain
        assert_eq!(stats.after_delta_emptiness, 2);
        // For Δ{c}: R-ancestors of c are a and b. The target (the a
        // node) has label a on its path but no b → pruned.
        // For Δ{b,c}: R-ancestor is a only → witnessed → survives.
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].delta_count(), 2);
    }

    const FIG12: &str = "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>";

    /// Example 4.1: deleting //c//b from Figure 11's document removes
    /// the (a1, a1.c1.b1) tuple from //a//b.
    #[test]
    fn example_4_1_simple_deletion() {
        let d = apply("<a><c><b/></c><f><b/></f></a>", "delete //c//b", "//a{id}//b{id}");
        assert_eq!(run(&d, Sign::Minus, true).0.len(), 1, "exactly the (a, c/b) embedding is lost");
    }

    /// Example 4.5: deleting //a/f/c from Figure 12's document leaves
    /// tuples 1, 2 and 4 of the 8-tuple view //a[//c]//b.
    #[test]
    fn example_4_5_lost_bindings() {
        let d = apply(FIG12, "delete /a/f/c", "//a{id}[//c{id}]//b{id}");
        let (rel, _, stats) = run(&d, Sign::Minus, true);
        // 8 embeddings before, 3 survive → 5 lost
        assert_eq!(rel.len(), 5);
        assert_eq!(stats.before, 4, "Prop 4.2 leaves Δ-sets b, c, bc, abc");
        assert_eq!(stats.after_delta_emptiness, 3, "Δ⁻_a = ∅ removes the all-Δ term");
    }

    /// Example 4.6: deleting //f removes a b with no c ancestor, so
    /// the Rc Δ⁻b term of //c//b is ID-pruned — no bindings lost.
    #[test]
    fn example_4_6_no_loss() {
        let d = apply("<a><c><b/></c><f><b/></f></a>", "delete //f", "//c{id}//b{id}");
        let (rel, _, stats) = run(&d, Sign::Minus, true);
        assert!(rel.is_empty());
        assert_eq!(stats.after_delta_emptiness, 1, "Δ⁻_c = ∅ kills the all-Δ term; Δb remains");
        assert_eq!(stats.after_id_reasoning, 0, "deleted b has no c ancestor in its ID");
    }

    /// Derivation-exactness: deleting one of two witnesses must lose
    /// exactly one embedding, not two.
    #[test]
    fn partial_witness_loss() {
        let d = apply("<a><c/><b/><f><b/></f></a>", "delete //f", "//a{id}[//b]");
        assert_eq!(run(&d, Sign::Minus, true).0.len(), 1, "only the f/b witness embedding is lost");
    }

    /// The view store of `pattern` over `doc_xml`, then `stmt` applied
    /// and the text refreshed: the store and the modified keys.
    fn refreshed(doc_xml: &str, stmt: &str, pattern: &str) -> (ViewStore, Vec<TupleKey>) {
        let p = parse_pattern(pattern).unwrap();
        let mut store =
            ViewStore::from_counted(&p, view_tuples(&parse_document(doc_xml).unwrap(), &p));
        let a = apply(doc_xml, stmt, pattern);
        let roots = if a.delete_roots.is_empty() { &a.res.insert_targets } else { &a.delete_roots };
        let keys = refresh_text(&mut store, &a.doc, &p, roots);
        (store, keys)
    }

    fn text(store: &ViewStore, row: usize, col: usize) -> (Option<Arc<str>>, Option<Arc<str>>) {
        let f = store.sorted_tuples()[row].0.field(col).clone();
        (f.val, f.cont)
    }

    /// Example 3.14's shape: an insertion that adds no view matches but
    /// lands inside a cont-stored node.
    #[test]
    fn insertion_inside_stored_content() {
        let (store, keys) = refreshed(
            "<a><b><c><d/></c></b></a>",
            "insert <extra>some value</extra> into //d",
            "/a{id}/b{id}//c{id,cont}",
        );
        assert_eq!(keys.len(), 1);
        let cont = text(&store, 0, 2).1.unwrap();
        assert_eq!(cont.as_ref(), "<c><d><extra>some value</extra></d></c>");
    }

    #[test]
    fn val_annotation_updated_on_text_growth() {
        let (store, _) =
            refreshed("<a><name>Jim</name></a>", "insert <x>my</x> into //name", "//name{id,val}");
        assert_eq!(text(&store, 0, 0).0.unwrap().as_ref(), "Jimmy");
    }

    #[test]
    fn unrelated_updates_touch_nothing() {
        let doc = "<r><a>x</a><other/></r>";
        assert!(refreshed(doc, "insert <y>zzz</y> into //other", "//a{id,val}").1.is_empty());
        assert!(refreshed(doc, "delete //other", "//a{id,val}").1.is_empty());
    }

    /// Targets of one statement can nest (`//a` hits an `a` inside an
    /// `a`): the stored node between the two targets must be refreshed
    /// too, not just the outermost one.
    #[test]
    fn nested_targets_refresh_intermediate_tuples() {
        let (store, keys) =
            refreshed("<r><a><a><b/></a></a></r>", "insert <d>5</d> into //a", "//a{id,cont}[//b]");
        assert_eq!(keys.len(), 2, "both the outer and the inner a must refresh");
        for row in 0..2 {
            let cont = text(&store, row, 0).1.unwrap();
            assert!(cont.contains("<d>5</d>"), "stale cont {cont}");
        }
    }

    #[test]
    fn id_only_views_are_never_modified() {
        assert!(refreshed("<a><b/></a>", "insert <c/> into //b", "//a{id}//b{id}").1.is_empty());
    }

    #[test]
    fn content_shrinks_after_inner_deletion() {
        let (store, keys) =
            refreshed("<a><c><x/><y>keep</y></c></a>", "delete //x", "//c{id,cont}");
        assert_eq!(keys.len(), 1);
        assert_eq!(text(&store, 0, 0).1.unwrap().as_ref(), "<c><y>keep</y></c>");
    }

    #[test]
    fn val_shrinks_after_text_subtree_deletion() {
        let (store, _) =
            refreshed("<a><w>hello</w><gone>noise</gone></a>", "delete //gone", "//a{id,val}");
        assert_eq!(text(&store, 0, 0).0.unwrap().as_ref(), "hello");
    }

    /// A stored node that *is* a deleted root no longer resolves: the
    /// pass leaves its tuple alone (PDDT removes it).
    #[test]
    fn deleted_roots_themselves_are_not_refreshed() {
        assert!(refreshed("<r><a>x</a></r>", "delete //a", "//a{id,val}").1.is_empty());
    }
}
