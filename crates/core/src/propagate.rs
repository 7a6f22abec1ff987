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
//!
//! # Δ-restricted leaves (semi-join reduction)
//!
//! A term joins a Δ of a few tuples against R-parts the size of the
//! document; it need not build them whole. Its Δ-set is
//! descendant-closed (Propositions 3.3 / 4.2), so its R nodes form a
//! snowcap, and in any result binding:
//!
//! * an R node *above* a Δ node in the pattern binds a proper ancestor
//!   of that node's Δ tuple (pattern edges are `/` and `//`, and they
//!   compose to "ancestor") — and a Dewey ID *is* its ancestor list:
//!   the candidates are the label-matching proper prefixes of the Δ
//!   IDs, the same reading of the IDs the witnesses of Propositions
//!   3.8 / 4.7 make, then one `find_node` per distinct prefix;
//! * an R node off that path (a side branch such as `name` in
//!   `person[homepage]/name` with Δ = {homepage}) binds a descendant of
//!   what its pattern parent binds: one binary-searched range of the
//!   label's canonical list (document order) per parent candidate.
//!
//! By induction down the snowcap from the root — which is above every Δ
//! node — one anchor Δ node restricts every R node of the term to a
//! superset of what any binding can bind there
//! (`TermContext::reachable`). The leaf is then built from the
//! candidates exactly like a whole leaf (same exclusion of same-PUL
//! insertions, same `relation_from_nodes`), and the unchanged
//! [`eval_term`] joins leaves of |Δ| · depth rows. No binding is lost:
//! a structural join only ever discards rows, and every row the
//! reduction left out would have been discarded by one. The terms stay
//! disjoint for the same reason — their bags are the same bags.
//!
//! Whether a term takes restricted leaves or whole ones (merged onto
//! the largest covering snowcap) is read off its inputs in [`eval`]:
//! prefix sets win while |Δ| is small against the relations the merge
//! would scan, one linear pass wins when a bulk update's Δ rivals
//! them.
//!
//! A commit that may flip a value predicate never reaches this
//! pipeline: one that moved text under a node of the predicate's label
//! is answered by the engine's recomputation instead
//! ([`crate::engine::MaintenanceEngine::finish`]), so every old-state
//! leaf holds one predicate truth — the nodes' truth now, which was
//! their truth before.
//!
//! On the deletion side the pipeline sees only the *witness* terms,
//! whose Δ-set holds no stored node — CD− builds no other table
//! ([`DeltaMinus::compute`]). A binding with a deleted stored node
//! belongs to a row every derivation of which went, and the engine takes
//! such rows out by range (`by_id`); the Δ⁻ terms here find the
//! derivations of the rows that stay.

use crate::by_id::{self, Near, Row};
use crate::etins::{bag_union, eval_term};
use crate::snowcap::{best_cover, MaterializedSnowcap};
use crate::term::Term;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::Arc;
use xivm_algebra::{Relation, Tuple};
use xivm_pattern::compile::{canonical_node_ids, relation_from_nodes};
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::{ApplyResult, DeltaMinus, DeltaPlus};
use xivm_xml::{DeweyForest, DeweyId, Document, LabelId, NodeId, Work};

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

/// Everything one view's propagation of one PUL needs to see, both
/// directions: built once per [`finish`], it also owns the commit's
/// cache of old-state R-leaves.
///
/// [`finish`]: crate::engine::MaintenanceEngine::finish
pub struct TermContext<'a> {
    pub doc: &'a Document,
    pub pattern: &'a TreePattern,
    /// The applied PUL: the nodes it created are excluded from the
    /// R-leaves so old-state semantics hold (also under mixed PULs).
    pub applied: &'a ApplyResult,
    /// Ablation switch for the dynamic prunings, Δ-emptiness and ID
    /// reasoning together (Section 6.8 studies the win of dynamic
    /// reasoning).
    pub dynamic_pruning: bool,
    /// The commit's one cache of old-state leaves. Per pattern node a
    /// row of slots, allocated when the node's first leaf is asked for
    /// (a term touches a few nodes of a large view): the whole leaf,
    /// then per direction and Δ anchor (`2k` slots) the part of it that
    /// anchor's Δ can reach.
    leaves: Vec<OnceCell<Vec<OnceCell<Relation>>>>,
}

impl<'a> TermContext<'a> {
    pub fn new(doc: &'a Document, pattern: &'a TreePattern, applied: &'a ApplyResult) -> Self {
        TermContext {
            doc,
            pattern,
            applied,
            dynamic_pruning: true,
            leaves: vec![OnceCell::new(); pattern.len()],
        }
    }

    /// The old-state R-leaf of `n`: its current canonical relation
    /// minus same-PUL insertions, built once per commit.
    ///
    /// With `reach = (side, anchor)` the leaf holds just the candidates a
    /// term anchored at Δ_`anchor` can bind at `n` (`Self::reachable`),
    /// built the same way from fewer nodes.
    pub fn old_leaf(
        &self,
        n: PatternNodeId,
        reach: Option<(&DeltaSide<'_>, PatternNodeId)>,
    ) -> &Relation {
        let slot = reach.map_or(0, |(side, anchor)| {
            let direction = usize::from(matches!(side, DeltaSide::Minus { .. }));
            1 + direction * self.pattern.len() + anchor.index()
        });
        let row = self.leaves[n.index()]
            .get_or_init(|| vec![OnceCell::new(); 1 + 2 * self.pattern.len()]);
        row[slot].get_or_init(|| {
            let candidates = match reach {
                None => canonical_node_ids(self.doc, self.pattern, n),
                Some((side, anchor)) => self.reachable(n, side, anchor),
            };
            let ids: Vec<NodeId> =
                candidates.into_iter().filter(|id| !self.applied.created(*id)).collect();
            relation_from_nodes(self.doc, self.pattern, n, &ids, true)
        })
    }

    /// The semi-join reduction of R_`n` by Δ_`anchor`: a superset, in
    /// document order, of the nodes `n` binds in any binding that
    /// binds `anchor` to a Δ tuple (see the module docs).
    ///
    /// * `n` above `anchor` in the pattern: the binding's `n`-node is
    ///   an ancestor of its Δ tuple, so the candidates are the
    ///   label-matching proper prefixes of Δ_`anchor`'s IDs — pure ID
    ///   work, then one [`Document::find_node`] per distinct prefix.
    /// * `n` off that path (a side branch): the binding's `n`-node lies
    ///   below its pattern parent's, so the candidates are the
    ///   label-matching descendants of the parent's reach leaf — one
    ///   binary-searched range of the canonical list per maximal
    ///   parent candidate ([`Document::canonical_nodes_within`]).
    fn reachable(
        &self,
        n: PatternNodeId,
        side: &DeltaSide<'_>,
        anchor: PatternNodeId,
    ) -> Vec<NodeId> {
        let doc = self.doc;
        let label = match &self.pattern.node(n).test {
            NodeTest::Wildcard => None,
            NodeTest::Name(name) => match doc.label_id(name) {
                Some(l) => Some(l),
                None => return Vec::new(), // never seen in the document
            },
        };
        let mut out = Vec::new();
        if self.pattern.is_ancestor(n, anchor) {
            // Δ tables are in document order, so a prefix two tuples
            // share is a prefix of every tuple between them: skipping
            // the steps shared with the previous tuple visits each
            // distinct prefix once, in document order.
            let mut previous: &[xivm_xml::dewey::Step] = &[];
            for tuple in &side.relation(anchor).rows {
                let steps = tuple.field(0).id.steps();
                let shared = steps.iter().zip(previous).take_while(|(a, b)| a == b).count();
                for depth in shared + 1..steps.len() {
                    if label.is_none_or(|l| steps[depth - 1].label == l) {
                        out.extend(doc.find_node(&DeweyId::from_steps(steps[..depth].to_vec())));
                    }
                }
                previous = steps;
            }
            return out;
        }
        let parent = self.pattern.node(n).parent.expect("the root is above every Δ anchor");
        let parents = self.old_leaf(parent, Some((side, anchor)));
        let below = DeweyForest::new(parents.rows.iter().map(|t| t.field(0).id.clone()).collect());
        let Some(label) = label else {
            let elements = canonical_node_ids(doc, self.pattern, n);
            return elements.into_iter().filter(|&x| below.covers(&doc.dewey(x))).collect();
        };
        // The root itself comes along when it carries the label: still
        // a superset, and the join drops it.
        for root in below.roots().iter().filter_map(|root| doc.find_node(root)) {
            out.extend_from_slice(doc.canonical_nodes_within(label, root));
        }
        out
    }
}

/// The Δ side of a term pipeline — the three answers on which
/// insertion and deletion differ.
pub enum DeltaSide<'a> {
    /// σ(Δ⁺) tables and the insertion targets `p1 … pk`.
    Plus { tables: &'a DeltaPlus, targets: &'a [DeweyId] },
    /// The Δ⁻ tables: the IDs of the deleted nodes, one column each.
    Minus { tables: &'a DeltaMinus<'a> },
}

impl DeltaSide<'_> {
    /// Δ_n = ∅ — the emptiness test of Proposition 3.6 and its deletion
    /// analogue (Example 4.5: Δ⁻_a = ∅ removes the ΔaΔbΔc term), judged
    /// also for a Δ⁻ node whose table is not built.
    pub fn is_empty(&self, n: PatternNodeId) -> bool {
        match self {
            DeltaSide::Plus { tables, .. } => tables.is_empty(n),
            DeltaSide::Minus { tables } => tables.is_empty(n),
        }
    }

    /// Δ_n as a relation for structural joins.
    fn relation(&self, n: PatternNodeId) -> &Relation {
        match self {
            DeltaSide::Plus { tables, .. } => tables.table(n),
            DeltaSide::Minus { tables } => tables.table(n),
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
            DeltaSide::Minus { tables } => tables.any(n, |id| id.has_proper_ancestor_labeled(anc)),
        }
    }

    /// The Δ node a term's reach leaves are anchored at: the one with
    /// the smallest table. One anchor per term — every R node is then
    /// either above it or below a restricted pattern parent (the root
    /// is above every Δ node).
    fn anchor(&self, term: &Term) -> PatternNodeId {
        let size = |n: &&PatternNodeId| self.relation(**n).len();
        *term.delta_nodes().iter().min_by_key(size).expect("a maintenance term has a Δ node")
    }

    /// What following Δ_n costs, in the Dewey prefixes its tuples have:
    /// |Δ_n| times their depth.
    fn prefixes(&self, n: PatternNodeId) -> usize {
        let delta = self.relation(n);
        delta.len() * delta.rows.first().map_or(0, |t| t.field(0).id.depth())
    }
}

/// "Get Update Expression": the terms of `table` — the engine's
/// once-built [`subset_terms`] of the sub-pattern `subset` (the full
/// view, or a snowcap when maintaining the lattice), Propositions
/// 3.3 / 4.2 built in — that survive the Δ-emptiness check
/// (Proposition 3.6) and the ID check (Propositions 3.8 / 4.7).
///
/// [`subset_terms`]: crate::etins::subset_terms
pub fn terms<'t>(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    table: &'t [Term],
    subset: &[PatternNodeId],
) -> (Vec<&'t Term>, PruneStats) {
    let mut terms: Vec<&Term> = table.iter().collect();
    let before = terms.len();
    let mut after_delta_emptiness = before;
    if ctx.dynamic_pruning {
        terms.retain(|t| t.delta_nodes().iter().all(|&n| !side.is_empty(n)));
        after_delta_emptiness = terms.len();
        // A lost Δ⁻ node without a table is one the view stores at or
        // below: its terms find only rows the engine takes by range. And
        // after a deletion an R node whose label has no node left binds
        // nothing.
        if let DeltaSide::Minus { tables } = side {
            let left: Vec<bool> = (ctx.pattern.node_ids())
                .map(|n| match &ctx.pattern.node(n).test {
                    NodeTest::Name(name) => !ctx.doc.canonical_nodes_named(name).is_empty(),
                    NodeTest::Wildcard => true,
                })
                .collect();
            let bound = |t: &Term, n: PatternNodeId| {
                if t.is_delta(n) {
                    tables.is_kept(n)
                } else {
                    left[n.index()]
                }
            };
            terms.retain(|t| subset.iter().all(|&n| bound(t, n)));
        }
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
    let stats = PruneStats { before, after_delta_emptiness, after_id_reasoning: terms.len() };
    (terms, stats)
}

/// How many merged rows one Δ-tuple prefix may cost before reach
/// leaves stop paying: a prefix is a [`Document::find_node`] descent, a
/// merged row one comparison of a linear pass. An order of magnitude,
/// not a tuned value: the point streams sit a factor of a thousand
/// under the threshold and the bulk updates a factor of ten over it.
const PREFIX_COST: usize = 8;

/// "Execute Update": evaluates the surviving terms of the sub-pattern
/// `subset_preorder` (pattern pre-order, parent-closed) into the bag
/// of bindings to add (`Plus`) or the bag of lost bindings (`Minus`).
///
/// Each term's cover — the largest materialized snowcap within its
/// R-part — is chosen here, once, and the term then picks where its
/// R-leaves come from by what its inputs show: reach leaves
/// (`TermContext::reachable`) when its anchor Δ table, times the depth
/// of its tuples, is small against the largest relation the merge would
/// scan — a point update on a large document — and whole leaves merged
/// onto the cover otherwise, where a bulk update's thousands of Δ
/// tuples make prefix sets dearer than one linear pass. Both arms carry
/// an end-to-end metric (CHANGES.md, PR 16): forcing reach costs
/// `bulk_catalog` 11 % of `commit_p50_us`, forcing the merge costs
/// `point_large` 87 %.
pub fn eval(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    subset_preorder: &[PatternNodeId],
    terms: &[&Term],
    materialized: &[MaterializedSnowcap],
) -> Relation {
    bag_union(terms.iter().map(|term| {
        let in_r = |n| subset_preorder.contains(&n) && !term.is_delta(n);
        let cover = best_cover(materialized, in_r);
        let prefixes = side.prefixes(side.anchor(term));
        let merged = subset_preorder
            .iter()
            .filter(|&&n| in_r(n) && cover.is_none_or(|m| !m.nodes.contains(&n)))
            .map(|&n| match &ctx.pattern.node(n).test {
                NodeTest::Name(name) => ctx.doc.canonical_nodes_named(name).len(),
                NodeTest::Wildcard => ctx.doc.arena_len(),
            })
            .chain(cover.map(|m| m.rel.len()))
            .max();
        let reach = merged.is_some_and(|m| prefixes * PREFIX_COST <= m);
        eval_one(ctx, side, subset_preorder, term, cover, reach)
    }))
}

/// One term of [`eval`] on a given arm: reach leaves for every R node
/// and no snowcap under `reach`, whole leaves joined onto `cover`
/// otherwise — the entry point the equivalence tests drive both arms
/// through.
pub(crate) fn eval_one(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    subset_preorder: &[PatternNodeId],
    term: &Term,
    cover: Option<&MaterializedSnowcap>,
    reach: bool,
) -> Relation {
    let (reach, cover) =
        if reach { (Some((side, side.anchor(term))), None) } else { (None, cover) };
    let r_leaf = |n| Cow::Borrowed(ctx.old_leaf(n, reach));
    let delta_leaf = |n| Cow::Borrowed(side.relation(n));
    eval_term(ctx.pattern, subset_preorder, term, cover, &r_leaf, &delta_leaf)
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
/// Patches the affected fields of `rows` — the view store's rows, or a
/// snowcap's, ordered by the columns `cols` (field and pattern node,
/// the most significant first) — in place by re-reading the (already
/// updated) document, and hands each tuple it refreshed to
/// `refreshed`, in the rows' order. Only the rows a text column of
/// which binds one of the roots' ancestors are visited, found by
/// searching the roots' prefixes ([`by_id::find`]), and counted in
/// `work`. `roots` keeps
/// nested roots ([`DeweyForest::with_nested`]: `insert into //a` hits an
/// `a` inside another `a`), or tuples strictly between an outer and an
/// inner root would never be refreshed.
pub(crate) fn refresh_text<R: Row>(
    rows: &mut [R],
    cols: &[(usize, PatternNodeId)],
    doc: &Document,
    pattern: &TreePattern,
    roots: &DeweyForest,
    work: &mut Work,
    mut refreshed: impl FnMut(&Tuple),
) {
    // If cvn is empty, updates cannot modify view tuples (Section 3.6).
    let cvn_cols: Vec<(usize, bool, bool)> = cols
        .iter()
        .map(|&(col, n)| (col, pattern.node(n).ann.val, pattern.node(n).ann.cont))
        .filter(|&(_, val, cont)| val || cont)
        .collect();
    if cvn_cols.is_empty() || roots.is_empty() {
        return;
    }
    for range in by_id::find(rows, cols, pattern, doc, roots.roots(), Near::Above, work) {
        work.rows += range.len() as u64;
        for row in &mut rows[range] {
            let tuple = row.tuple_mut();
            let mut touched = false;
            for &(col, want_val, want_cont) in &cvn_cols {
                let field = tuple.field_mut(col);
                if !roots.has_descendant_or_self_root(&field.id) {
                    continue;
                }
                let Some(node) = doc.find_node(&field.id) else { continue };
                if want_val {
                    field.val = Some(Arc::from(doc.value(node).as_str()));
                }
                if want_cont {
                    field.cont = Some(Arc::from(doc.content(node).as_str()));
                }
                touched = true;
            }
            if touched {
                refreshed(tuple);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etins::subset_terms;
    use crate::view_store::ViewStore;
    use xivm_pattern::compile::view_tuples;
    use xivm_pattern::parse_pattern;
    use xivm_update::statement::parse_statement;
    use xivm_update::{apply_pul, compute_pul};
    use xivm_xml::parse_document;

    /// One statement applied to one document under one view: the
    /// updated document plus everything `finish` would hand the
    /// pipeline (the tests build the complete Δ⁻ tables from it).
    struct Applied {
        doc: Document,
        pattern: TreePattern,
        res: ApplyResult,
    }

    fn apply(doc_xml: &str, stmt: &str, pattern: &str) -> Applied {
        let mut doc = parse_document(doc_xml).unwrap();
        let pattern = parse_pattern(pattern).unwrap();
        let pul = compute_pul(&doc, &parse_statement(stmt).unwrap());
        let res = apply_pul(&mut doc, &pul).unwrap();
        Applied { doc, pattern, res }
    }

    /// Expands, prunes and evaluates the full view's terms in one
    /// direction. Every surviving term is evaluated on both arms —
    /// whole leaves and reach leaves — and the two bags must be equal.
    fn run(a: &Applied, sign: Sign, pruning: bool) -> (Relation, Vec<Term>, PruneStats) {
        let mut ctx = TermContext::new(&a.doc, &a.pattern, &a.res);
        ctx.dynamic_pruning = pruning;
        let dplus = DeltaPlus::compute(&a.doc, &a.pattern, &a.res);
        let dminus = DeltaMinus::complete(&a.doc, &a.pattern, &a.res);
        let side = match sign {
            Sign::Plus => DeltaSide::Plus { tables: &dplus, targets: &a.res.insert_targets },
            Sign::Minus => DeltaSide::Minus { tables: &dminus },
        };
        let order = a.pattern.preorder();
        let table = subset_terms(&a.pattern, &order.iter().copied().collect());
        let (terms, stats) = terms(&ctx, &side, &table, &order);
        let sorted = |mut rel: Relation| {
            xivm_algebra::ops::sort_all(&mut rel);
            rel.rows
        };
        for term in &terms {
            let on = |reach| sorted(eval_one(&ctx, &side, &order, term, None, reach));
            assert_eq!(on(true), on(false), "{term} of {}", a.pattern.to_text());
        }
        let rel = eval(&ctx, &side, &order, &terms, &[]);
        (rel, terms.into_iter().cloned().collect(), stats)
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

    /// The reach leaves against the whole leaves (`run` compares every
    /// surviving term's bag on both arms) where the reduction has the
    /// most to get wrong: a side branch off the Δ path, a wildcard
    /// above and beside Δ, a value predicate on an R node, nested
    /// same-label ancestors, a mixed replace — both directions, with
    /// and without the prunings (unpruned keeps terms whose R-part has
    /// no witness at all).
    #[test]
    fn reach_leaves_equal_whole_leaves() {
        let doc =
            "<r><a><c><b/><b/></c><f><c><b/></c><b/></f><a><c/><b>5</b></a></a><a>5<b/></a></r>";
        let cases = [
            ("//a{id}[//c{id}]//b{id}", "insert <b/> into //f"),
            ("//a{id}[//c{id}]//b{id}", "insert <c><b/></c> into //a"),
            ("//a{id}[//c{id}]//b{id}", "delete //f//b"),
            ("//a{id}[//c{id}]//b{id}", "delete //c"),
            ("//a{id}[//c{id}]//b{id}", "replace //f/c with <c><b/><b/></c>"),
            ("//r{id}/*{id}//b{id}", "insert <b/> into //c"),
            ("//r{id}/*{id}//b{id}", "delete //f"),
            ("//*{id}[//c{id}]//b{id}", "insert <b/> into //f"),
            ("//a[val=\"5\"]//b{id}", "insert <b/> into //a"),
            ("//a[val=\"5\"]//b{id}", "delete //f"),
            ("/r{id}//a{id}/b{id,val}", "insert <b>7</b> into //a"),
        ];
        for (pattern, stmt) in cases {
            let a = apply(doc, stmt, pattern);
            let order = a.pattern.preorder();
            let expected = xivm_pattern::compile::eval_bindings(&a.doc, &a.pattern).len() as i64
                - xivm_pattern::compile::eval_bindings(&parse_document(doc).unwrap(), &a.pattern)
                    .len() as i64;
            let mut net = 0i64;
            for pruning in [true, false] {
                let (gained, _, _) = run(&a, Sign::Plus, pruning);
                let (lost, _, _) = run(&a, Sign::Minus, pruning);
                assert!(gained.is_empty() || gained.schema.arity() == order.len());
                net = gained.len() as i64 - lost.len() as i64;
            }
            assert_eq!(net, expected, "{pattern} under {stmt}");
        }
    }

    /// The |Δ|-vs-|R| choice: a point update against a long canonical
    /// list takes reach leaves, a bulk one the merge — and a term with
    /// no R-part has nothing to reduce.
    #[test]
    fn arm_follows_delta_size() {
        let big = format!("<r><a><b k=\"1\"/>{}</a></r>", "<b/>".repeat(199));
        let built_whole = |stmt: &str| {
            let a = apply(&big, stmt, "//a{id}//b{id}//c{id}");
            let ctx = TermContext::new(&a.doc, &a.pattern, &a.res);
            let dplus = DeltaPlus::compute(&a.doc, &a.pattern, &a.res);
            let side = DeltaSide::Plus { tables: &dplus, targets: &a.res.insert_targets };
            let order = a.pattern.preorder();
            let table = subset_terms(&a.pattern, &order.iter().copied().collect());
            let (terms, _) = terms(&ctx, &side, &table, &order);
            assert!(!eval(&ctx, &side, &order, &terms, &[]).is_empty());
            // slot 0 of the b leaf is its whole old-state relation
            ctx.leaves[order[1].index()].get().is_some_and(|row| row[0].get().is_some())
        };
        assert!(!built_whole("insert <c/> into //b[@k=\"1\"]"), "1 Δ tuple vs 200 b's: reach");
        assert!(built_whole("insert <c/> into //b"), "200 Δ tuples vs 200 b's: merge");
    }

    /// Lattice upkeep's losses by range are the snowcap's own Δ⁻ terms
    /// over the complete tables, binding for binding, for a point and a
    /// bulk deletion.
    #[test]
    fn snowcap_losses_by_range_equal_its_own_delta_minus_terms() {
        use crate::engine::{MaintenanceEngine, SnowcapStrategy};
        let big = format!("<r><a><b k=\"1\"/>{}</a></r>", "<b/>".repeat(199));
        let pattern = "//a{id}//b{id}//c{id}";
        for (stmt, left) in [("delete //b[@k=\"1\"]", 199), ("delete //b", 0)] {
            let a = apply(&big, stmt, pattern);
            let old = parse_document(&big).unwrap();
            let engine =
                MaintenanceEngine::new(&old, a.pattern.clone(), SnowcapStrategy::MinimalChain);
            let [smaller @ .., ab] = engine.snowcaps() else { panic!("the chain a, ab") };
            assert_eq!(ab.rel.len(), 200);
            let ctx = TermContext::new(&a.doc, &a.pattern, &a.res);
            let dminus = DeltaMinus::complete(&a.doc, &a.pattern, &a.res);
            let side = DeltaSide::Minus { tables: &dminus };
            let table = subset_terms(&a.pattern, &ab.nodes.iter().copied().collect());
            let (own, _) = terms(&ctx, &side, &table, &ab.nodes);
            let lost = eval(&ctx, &side, &ab.nodes, &own, smaller);
            let mut by_range = ab.clone();
            let roots = DeweyForest::new(a.res.delete_roots.clone());
            let (roots, deleted) = (roots.roots(), &a.res.deleted);
            let taken =
                by_range.remove_under(&a.pattern, &a.doc, roots, deleted, &mut Work::default());
            assert_eq!(taken, lost.len(), "{stmt}");
            let mut kept = ab.rel.rows.clone();
            kept.retain(|t| !lost.rows.contains(t));
            assert_eq!(by_range.rel.rows, kept, "{stmt}");
            assert_eq!(kept.len(), left, "{stmt}");
        }
    }

    /// The view store of `pattern` over `doc_xml`, then `stmt` applied
    /// and the text refreshed: the store and the Δ's weight-0 entries.
    fn refreshed(doc_xml: &str, stmt: &str, pattern: &str) -> (ViewStore, Vec<(Tuple, i64)>) {
        let p = parse_pattern(pattern).unwrap();
        let mut store =
            ViewStore::from_counted(&p, view_tuples(&parse_document(doc_xml).unwrap(), &p));
        let a = apply(doc_xml, stmt, pattern);
        let roots =
            if a.res.delete_roots.is_empty() { &a.res.insert_targets } else { &a.res.delete_roots };
        let (roots, mut keys) = (DeweyForest::with_nested(roots.clone()), Vec::new());
        let keep = |t: &Tuple| keys.push((t.clone(), 0));
        let cols: Vec<_> = p.stored_nodes().into_iter().enumerate().collect();
        refresh_text(store.rows_mut(), &cols, &a.doc, &p, &roots, &mut Work::default(), keep);
        (store, keys)
    }

    fn text(store: &ViewStore, row: usize, col: usize) -> (Option<Arc<str>>, Option<Arc<str>>) {
        let f = store.cursor().nth(row).unwrap().0.field(col).clone();
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
