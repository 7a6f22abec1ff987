//! The end-to-end maintenance engine.
//!
//! Wires the whole pipeline of Figures 8 and 9 together: compute the
//! PUL, apply it to the document, build Δ tables (CD±), expand and
//! prune the update expression, evaluate the surviving terms with
//! structural joins (ET-INS / ET-DEL), patch the view store
//! (PINT + PIMT for insertions, PDDT + PDMT for deletions — the
//! combined PINT/MT and PDDT/MT the paper actually runs, here one
//! signed pipeline: [`crate::propagate`]), and keep the materialized
//! snowcaps current — one signed routine too (Proposition 3.13): a
//! snowcap loses and gains the bindings of *its own* Δ⁻ / Δ⁺ terms, and
//! is patched in place through its row order
//! ([`MaterializedSnowcap`]), so a point commit's lattice upkeep
//! follows |Δ|; only a deletion that rivals a snowcap falls back to a
//! pass over its rows. Each phase is timed, producing the breakdowns of
//! the Section 6 experiments.
//!
//! Beside the terms there is one exceptional arm: recomputing the view
//! from the post-state and merging old rows with new into the Δ. Two
//! commits take it. A deletion that rivals the view — most of one of its
//! labels and of its rows gone, as Figure 27's bulk deletes do — reaches
//! nearly all of it through its Δ⁻ terms, and the recomputation is
//! cheaper; `finish` judges that per commit and per view, from the
//! apply's label buckets, the canonical list lengths and the store's
//! rows, with no option to set, and both arms publish the same Δ. A
//! commit that flips a value predicate ([`crate::predflip`]) changes
//! bindings no Δ table holds, which the paper's algorithms never meet;
//! the recomputation answers it exactly (see
//! [`MaintenanceEngine::finish`]).

use crate::commit::ViewDelta;
use crate::error::Error;
use crate::etins::subset_terms;
use crate::propagate::{eval, refresh_text, terms, DeltaSide, PruneStats, Sign, TermContext};
use crate::snowcap::{binds_deleted, enumerate_snowcaps, minimal_chain, MaterializedSnowcap};
use crate::term::Term;
use crate::timing::{timed, Timings};
use crate::view_store::ViewStore;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;
use xivm_pattern::compile::{canonical_relation, compile_plan_over, project_to_view, view_tuples};
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::{
    apply_pul_for, compute_pul, ApplyResult, DeltaLabels, DeltaMinus, DeltaPlus, Pul,
    UpdateStatement,
};
use xivm_xml::{DeweyForest, DeweyId, Document, LabelId};

/// What one propagated update did, and how long each phase took.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    pub timings: Timings,
    /// Term pruning statistics for the insertion side.
    pub insert_prune: PruneStats,
    /// Term pruning statistics for the deletion side.
    pub delete_prune: PruneStats,
    /// Distinct view tuples added / removed / text-modified.
    pub tuples_added: usize,
    pub tuples_removed: usize,
    pub tuples_modified: usize,
    /// Raw embeddings (derivations) added / removed.
    pub derivations_added: u64,
    pub derivations_removed: u64,
    /// True when [`MaintenanceEngine::finish`] found, from the labels
    /// of the applied PUL alone, that this commit cannot touch the view
    /// and returned before any per-view work (no Δ tables, no terms, no
    /// store copy, no text refresh). Needs no DTD and holds on every
    /// document. Excluded from [`Self::same_outcome`], like timings: an
    /// exit and a propagation that found nothing report the same
    /// outcome.
    pub irrelevant: bool,
    /// True when the view is under deferred maintenance and this
    /// commit batched its PUL instead of propagating: the store is
    /// untouched, the delta is empty, and the change lands later as a
    /// refresh commit. Excluded from [`Self::same_outcome`], like
    /// `irrelevant`.
    pub deferred: bool,
    /// `Some(lo..=hi)` on the report a refresh commit makes for its
    /// deferred view: this delta folds the document changes of commits
    /// `lo..=hi` into one propagation. Forwarded onto the view's
    /// [`DeltaEvent::folded`](crate::subscribe::DeltaEvent::folded).
    pub coalesced: Option<std::ops::RangeInclusive<u64>>,
    /// True when [`MaintenanceEngine::finish`] answered this commit by
    /// recomputing the view from the post-state instead of evaluating
    /// its terms: a pure deletion rivalled the view, or a value predicate
    /// flipped — or might have: an unreduced PUL deleted inside a node,
    /// then the node, under a view with one. For such a deletion both
    /// arms publish the same store, delta and counters, so it is
    /// excluded from [`Self::same_outcome`], like the timings. A flip commit's delta is the net change per key,
    /// and so are [`Self::derivations_added`] / [`Self::derivations_removed`]:
    /// a key that lost and gained derivations in one commit nets them.
    pub recomputed: bool,
    /// The view's Δ for this update: every store patch the engine made
    /// as one signed run, complete enough that replaying it on a
    /// pre-update snapshot reproduces the post-update store exactly.
    /// Built once per commit and shared from here on — subscribers and
    /// feeds hold this allocation.
    pub delta: Arc<ViewDelta>,
}

impl UpdateReport {
    /// The report of a deferred (batched, not propagated) view for one
    /// commit: default counters, empty delta, [`Self::deferred`] set.
    pub fn deferred_marker() -> UpdateReport {
        UpdateReport { deferred: true, ..UpdateReport::default() }
    }

    /// True when two reports describe the same propagation outcome:
    /// equal tuple / derivation counters and bit-identical deltas.
    /// Timings and prune statistics are ignored — they legitimately
    /// differ between runs (and between scheduling modes). This is
    /// the per-view half of [`Commit::same_outcome`], the comparison
    /// the differential soak harness makes between sequential and
    /// async executions.
    ///
    /// [`Commit::same_outcome`]: crate::commit::Commit::same_outcome
    pub fn same_outcome(&self, other: &UpdateReport) -> bool {
        self.tuples_added == other.tuples_added
            && self.tuples_removed == other.tuples_removed
            && self.tuples_modified == other.tuples_modified
            && self.derivations_added == other.derivations_added
            && self.derivations_removed == other.derivations_removed
            && self.delta == other.delta
    }
}

/// The materialization strategy for the sub-pattern lattice (Section
/// 3.5; compared experimentally in Section 6.7): which lattice nodes the
/// engine materializes and maintains. Whatever is materialized is kept
/// in full document order and maintained from its own Δ terms, in place
/// ([`MaterializedSnowcap`]): upkeep follows |Δ| under every strategy,
/// so the strategies differ in how many relations a commit patches, not
/// in how each is patched.
///
/// [`MinimalChain`](Self::MinimalChain) is the façade's default because
/// the benchmark says so: with no snowcap materialized under any
/// strategy (a prototype, 4 alternating pairs, seed 1) a `point_large`
/// commit got cheaper (`commit_p50_us` 111 → 62 µs) but
/// `speedup_vs_recompute_insert` fell 2.73 → 2.26 there and 2.57 → 2.25
/// on `bulk_catalog`, and `replica_mixed` `commit_p95_us` rose
/// 177 → 396 µs — six `worse` verdicts. The other two variants are
/// Figures 29–32's alternatives and the references `tests/property.rs`
/// drives the chain against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnowcapStrategy {
    /// The experiments' "Snowcaps" alternative: a minimal chain of
    /// snowcaps, one per level (pre-order prefixes of sizes 1…k−1),
    /// plus the view itself.
    MinimalChain,
    /// Every snowcap of the lattice (the upper bound of Section 3.5's
    /// discussion — expensive to keep, cheapest to read).
    AllSnowcaps,
    /// The experiments' "Leaves" alternative: nothing but the
    /// canonical relations; term R-parts are recomputed on the fly.
    LeavesOnly,
}

impl SnowcapStrategy {
    pub fn name(self) -> &'static str {
        match self {
            SnowcapStrategy::MinimalChain => "snowcaps",
            SnowcapStrategy::AllSnowcaps => "all-snowcaps",
            SnowcapStrategy::LeavesOnly => "leaves",
        }
    }
}

/// A materialized view plus the auxiliary structures needed to
/// maintain it incrementally.
pub struct MaintenanceEngine {
    pattern: TreePattern,
    strategy: SnowcapStrategy,
    /// The materialized view, behind an `Arc` so a database snapshot
    /// can hold it for free: `finish` mutates through
    /// [`Arc::make_mut`], copying the store once iff a snapshot still
    /// holds the previous version (readers never block a commit).
    store: Arc<ViewStore>,
    snowcaps: Vec<MaterializedSnowcap>,
    /// The pattern's term tables, built by the first propagation that
    /// needs them (not at creation: most of a catalog's views are never
    /// reached by a given workload).
    term_tables: Option<TermTables>,
    /// Ablation switch for the dynamic prunings (Section 6.8).
    pub dynamic_pruning: bool,
    /// Test-only override of [`Self::rivalled_by`]: `Some(true)` sends
    /// every pure deletion to the recomputation arm, `Some(false)` none
    /// — how the tests run one deletion through both. A commit that
    /// flipped a predicate recomputes whatever the force says: there is
    /// no terms arm to keep it on.
    #[cfg(test)]
    force_recompute: Option<bool>,
}

impl MaintenanceEngine {
    /// Materializes the view and its auxiliary snowcaps over `doc`.
    pub fn new(doc: &Document, pattern: TreePattern, strategy: SnowcapStrategy) -> Self {
        let sets = Self::default_sets(&pattern, strategy);
        MaintenanceEngine {
            store: Arc::new(ViewStore::from_counted(&pattern, view_tuples(doc, &pattern))),
            snowcaps: Self::materialize_sets(doc, &pattern, sets),
            pattern,
            strategy,
            term_tables: None,
            dynamic_pruning: true,
            #[cfg(test)]
            force_recompute: None,
        }
    }

    fn default_sets(
        pattern: &TreePattern,
        strategy: SnowcapStrategy,
    ) -> Vec<BTreeSet<PatternNodeId>> {
        let k = pattern.len();
        match strategy {
            SnowcapStrategy::MinimalChain => {
                minimal_chain(pattern).into_iter().filter(|s| s.len() < k).collect()
            }
            SnowcapStrategy::AllSnowcaps => {
                enumerate_snowcaps(pattern).into_iter().filter(|s| s.len() < k).collect()
            }
            SnowcapStrategy::LeavesOnly => Vec::new(),
        }
    }

    fn materialize_sets(
        doc: &Document,
        pattern: &TreePattern,
        sets: Vec<BTreeSet<PatternNodeId>>,
    ) -> Vec<MaterializedSnowcap> {
        sets.into_iter()
            .map(|set| {
                let nodes: Vec<PatternNodeId> =
                    pattern.preorder().into_iter().filter(|n| set.contains(n)).collect();
                let plan =
                    compile_plan_over(pattern, &nodes, |n| canonical_relation(doc, pattern, n));
                MaterializedSnowcap::new(nodes, plan.eval())
            })
            .collect()
    }

    /// The maintained snowcaps evaluated from scratch over `doc`.
    fn rematerialized(
        doc: &Document,
        pattern: &TreePattern,
        snowcaps: &[MaterializedSnowcap],
    ) -> Vec<MaterializedSnowcap> {
        let sets = snowcaps.iter().map(|m| m.nodes.iter().copied().collect()).collect();
        Self::materialize_sets(doc, pattern, sets)
    }

    pub fn pattern(&self) -> &TreePattern {
        &self.pattern
    }

    pub fn strategy(&self) -> SnowcapStrategy {
        self.strategy
    }

    pub fn store(&self) -> &ViewStore {
        &self.store
    }

    /// A shared handle to the materialized view, as held by database
    /// snapshots: cloning is O(1) and the engine's
    /// next mutation copies the store out from under it instead of
    /// blocking (see [`crate::snapshot::DatabaseSnapshot`]).
    pub(crate) fn store_arc(&self) -> Arc<ViewStore> {
        Arc::clone(&self.store)
    }

    pub fn snowcaps(&self) -> &[MaterializedSnowcap] {
        &self.snowcaps
    }

    /// Full recomputation (the baseline of Section 6.5); also used to
    /// re-sync in tests.
    pub fn recompute(&mut self, doc: &Document) {
        self.store =
            Arc::new(ViewStore::from_counted(&self.pattern, view_tuples(doc, &self.pattern)));
        self.snowcaps = Self::rematerialized(doc, &self.pattern, &self.snowcaps);
    }

    /// Propagates a statement-level update: computes the PUL ("Find
    /// Target Nodes"), applies it to the document, and maintains the
    /// view.
    pub fn apply_statement(
        &mut self,
        doc: &mut Document,
        stmt: &UpdateStatement,
    ) -> Result<UpdateReport, Error> {
        let (pul, t_find) = timed(|| compute_pul(doc, stmt));
        let mut report = self.propagate_pul(doc, &pul)?;
        report.timings.find_target_nodes = t_find;
        Ok(report)
    }

    /// Pre-update state this view needs before a PUL touches the
    /// document: the truth of its value predicates on the nodes above
    /// the update roots ([`crate::predflip::capture`]) — the one thing
    /// the apply cannot hand over, as the nodes stay. Which deleted
    /// nodes satisfied a predicate is the apply's to say: its removal
    /// walk reads their values ([`xivm_update::DeltaLabels`]). A view
    /// without value predicates, or a PUL none of whose targets has one
    /// of their labels on its path, captures nothing and reads no node.
    /// Produced by [`Self::prepare`] and consumed by [`Self::finish`]; a
    /// multi-view host prepares every view, applies the PUL once, then
    /// finishes every view.
    pub fn prepare(&self, doc: &Document, pul: &Pul) -> PreparedUpdate {
        #[cfg(any(test, feature = "fault-inject"))]
        crate::fault::prepare_point();
        let start = std::time::Instant::now();
        let pred_capture = crate::predflip::capture(doc, &self.pattern, pul);
        PreparedUpdate { pred_capture, prep_time: start.elapsed() }
    }

    /// Propagates an already-computed (possibly optimizer-reduced,
    /// Section 5) pending update list.
    pub fn propagate_pul(&mut self, doc: &mut Document, pul: &Pul) -> Result<UpdateReport, Error> {
        let prepared = self.prepare(doc, pul);
        let wanted = DeltaLabels::of(doc, [&self.pattern]);
        let (apply_res, t_apply) = timed(|| apply_pul_for(doc, pul, &wanted));
        let apply_res = apply_res?;
        let mut report = self.finish(doc, &apply_res, prepared);
        report.timings.apply_document = t_apply;
        Ok(report)
    }

    /// Completes propagation after the PUL was applied to the document
    /// (the counterpart of [`Self::prepare`]). `apply_res` must hold
    /// the Δ⁺ and Δ⁻ entries of this view's labels, valued where a
    /// pattern node reads a value and with content where it stores it:
    /// [`xivm_update::apply_pul`]'s, or those of [`DeltaLabels::of`]
    /// over a set of views including this.
    ///
    /// A commit takes the terms or — when a captured value predicate
    /// flipped, or the view has one and the PUL removed a node from
    /// inside a subtree it removed later ([`ApplyResult::nested_delete`]:
    /// the values the apply read above the first are not the old ones),
    /// or the PUL only deletes and the deletion rivals the view
    /// (`rivalled_by`, from sizes the step already holds) — a
    /// recomputation from the post-state, whose Δ is a merge of the old
    /// rows with the new. [`UpdateReport::recomputed`] says which ran. On
    /// a rivalling deletion the two agree bit for bit: a pure deletion
    /// with no flip only loses bindings, so the merge holds exactly the
    /// losses the Δ⁻ terms would find, and the text refresh is the same
    /// rule over the same rows.
    ///
    /// Takes the document read-only: this phase only mutates the
    /// engine's own store and snowcaps, so a multi-view host runs the
    /// views' `finish` in any order against one applied document
    /// (see [`crate::multiview`]).
    pub fn finish(
        &mut self,
        doc: &Document,
        apply_res: &ApplyResult,
        prepared: PreparedUpdate,
    ) -> UpdateReport {
        #[cfg(any(test, feature = "fault-inject"))]
        crate::fault::finish_point();
        let PreparedUpdate { pred_capture, prep_time } = prepared;
        let mut report = UpdateReport::default();
        let start = std::time::Instant::now();

        // Does a `val`/`cont`-storing pattern node's label lie `above`
        // one of `roots` — on its root path, the root included for an
        // insertion target, excluded for a deleted root (it is gone)?
        // Otherwise no stored text changed under these roots: PIMT /
        // PDMT's condition, judged on labels and Dewey IDs alone. A
        // wildcard is above anything.
        let text_above = |roots: &[DeweyId], above: fn(&DeweyId, LabelId) -> bool| {
            let on_path = |l| roots.iter().any(|r| above(r, l));
            !roots.is_empty()
                && self.pattern.cvn().into_iter().any(|n| match &self.pattern.node(n).test {
                    NodeTest::Wildcard => true,
                    NodeTest::Name(name) => doc.label_id(name).is_some_and(on_path),
                })
        };
        let (targets, delete_roots) = (&apply_res.insert_targets, &apply_res.delete_roots);
        let mut text_roots = Vec::new();
        if text_above(delete_roots, DeweyId::has_proper_ancestor_labeled) {
            text_roots.extend_from_slice(delete_roots);
        }
        if text_above(targets, DeweyId::has_self_or_ancestor_labeled) {
            text_roots.extend_from_slice(targets);
        }
        let text_roots = DeweyForest::with_nested(text_roots);
        let text_changed = !text_roots.is_empty();

        // --- The dynamic relevance exit, before anything per-view is
        // built, expanded, copied or scanned. From labels alone: no
        // pattern node's label among the inserted or deleted nodes (so
        // every Δ table would be empty, every term with it, and every
        // snowcap row stands), no predicate truth captured (so none
        // flipped), no stored text at or above an update root.
        let touched = |n| {
            let test = &self.pattern.node(n).test;
            apply_res.inserted.touches(doc, test) || apply_res.deleted.touches(doc, test)
        };
        if pred_capture.is_empty() && !text_changed && !self.pattern.node_ids().any(touched) {
            report.timings.compute_delta_tables = prep_time + start.elapsed();
            report.irrelevant = true;
            return report;
        }

        // --- The recomputation arm, before any Δ table is built: a
        // commit that flipped a value predicate (see `predflip`) or left
        // Δ⁻ values unread (a nested delete under a view with a value
        // predicate), or a pure deletion that rivals the view, is
        // answered by `e_v` over the post-state, not by its terms.
        let valued = || self.pattern.node_ids().any(|n| self.pattern.node(n).val_pred.is_some());
        let flipped = (apply_res.nested_delete && valued())
            || crate::predflip::flipped(doc, &self.pattern, &pred_capture);
        let rivalled =
            if flipped || !targets.is_empty() { None } else { self.rivalled_by(doc, apply_res) };
        if flipped || rivalled.is_some() {
            report.timings.compute_delta_tables = prep_time + start.elapsed();
            self.recompute_commit(doc, apply_res, rivalled, &text_roots, &mut report);
            return report;
        }

        // --- Compute Delta Tables: CD+ and CD−, both read from the
        // label buckets the apply left behind — IDs, values and contents
        // included.
        let dplus = DeltaPlus::compute(doc, &self.pattern, apply_res);
        let dminus = DeltaMinus::compute(doc, &self.pattern, apply_res);
        report.timings.compute_delta_tables = prep_time + start.elapsed();

        // The same exit, judged on the tables: a touched label whose
        // nodes all fail their value predicate, or left again within
        // the PUL, or captured predicates none of which flipped. The
        // text tests also gate their passes one by one below.
        if dplus.total_len() + dminus.total_len() == 0 && !text_changed {
            report.irrelevant = true;
            return report;
        }

        // Copy-on-write split: if a snapshot still holds this store,
        // clone it now and patch the copy — the snapshot keeps the
        // frozen version, and this commit never waits for readers.
        let store = Arc::make_mut(&mut self.store);

        let has_deletes = !delete_roots.is_empty();
        let has_inserts = !targets.is_empty();

        let tables =
            self.term_tables.get_or_insert_with(|| TermTables::of(&self.pattern, &self.snowcaps));
        let full_order = &self.pattern.preorder();

        let mut ctx = TermContext::new(doc, &self.pattern, apply_res);
        ctx.dynamic_pruning = self.dynamic_pruning;
        let minus = DeltaSide::Minus { tables: &dminus };
        let plus = DeltaSide::Plus { tables: &dplus, targets: &apply_res.insert_targets };

        // --- Update Lattice, part 1: every snowcap loses the bindings
        // of its own Δ⁻ terms, so the R-parts of every term below see
        // the old surviving state.
        let (_, t_lat1) = timed(|| {
            if has_deletes {
                maintain_lattice(&ctx, &minus, &tables.snowcaps, &mut self.snowcaps);
            }
        });

        // --- Get Update Expression: expand and prune both directions.
        let expand = |side, wanted: bool| {
            if wanted {
                terms(&ctx, side, &tables.full, full_order)
            } else {
                Default::default()
            }
        };
        let (((del_terms, del_stats), (ins_terms, ins_stats)), t_expr) =
            timed(|| (expand(&minus, has_deletes), expand(&plus, has_inserts)));
        report.delete_prune = del_stats;
        report.insert_prune = ins_stats;
        report.timings.get_update_expression = t_expr;

        // --- Execute Update: evaluate terms and patch the store.
        // Every patch is mirrored into `changes`, the commit's Δ. The
        // text refresh comes last, over the rows the commit leaves: its
        // weight-0 entries name tuples of the post-commit store, with
        // their final text.
        let mut changes = Vec::new();
        let (_, t_exec) = timed(|| {
            if has_deletes {
                let lost = eval(&ctx, &minus, full_order, &del_terms, &self.snowcaps);
                patch_store(store, &self.pattern, Sign::Minus, &lost, &mut report, &mut changes);
            }
            if has_inserts {
                let gained = eval(&ctx, &plus, full_order, &ins_terms, &self.snowcaps);
                patch_store(store, &self.pattern, Sign::Plus, &gained, &mut report, &mut changes);
            }
            if text_changed {
                let (stored, before) = (self.pattern.stored_nodes(), changes.len());
                let publish = |t: &xivm_algebra::Tuple| changes.push((t.clone(), 0));
                refresh_text(store.tuples_mut(), &stored, doc, &self.pattern, &text_roots, publish);
                report.tuples_modified = changes.len() - before;
            }
        });
        report.timings.execute_update = t_exec;
        report.delta = Arc::new(ViewDelta::new(changes));

        // --- Update Lattice, part 2: every snowcap gains the bindings
        // of its own Δ⁺ terms, and the text its rows carry for the view
        // is refreshed like the store's — a later commit's R-parts hand
        // it to new tuples.
        let (_, t_lat2) = timed(|| {
            if has_inserts {
                maintain_lattice(&ctx, &plus, &tables.snowcaps, &mut self.snowcaps);
            }
            for m in &mut self.snowcaps {
                let rows = m.rel.rows.iter_mut();
                refresh_text(rows, &m.nodes, doc, &self.pattern, &text_roots, |_| ());
            }
        });
        report.timings.update_lattice = t_lat1 + t_lat2;

        report
    }

    /// Does a pure deletion rival the view? If so, whether every row
    /// binds a deleted node. Judged in two steps from sizes the commit
    /// already holds. The labels: some pattern label lost [`RIVAL`] nodes
    /// for each one it kept (the apply's `deleted` bucket against the
    /// post-state canonical list) — a point deletion stops here, at one
    /// list length per label it deleted. Then the rows: one in [`RIVAL`]
    /// binds a deleted node — every one, without a look, once a pattern
    /// label has no node left. That keeps on the terms a deletion that
    /// empties a label elsewhere (every person's `name`, under a view of
    /// items' names), which they answer with nothing, cheaply. A
    /// wildcard's labels are not judged.
    fn rivalled_by(&self, doc: &Document, apply_res: &ApplyResult) -> Option<bool> {
        // The buckets first, without a name lookup: a point deletion
        // leaves a few labels, none of which lost that many.
        let rivalling: Vec<LabelId> = (apply_res.deleted.iter())
            .filter(|&(l, lost)| lost.len() >= RIVAL * doc.canonical_nodes(l).len())
            .map(|(l, _)| l)
            .collect();
        let mut ours = Vec::new();
        for n in self.pattern.node_ids().filter(|_| !rivalling.is_empty()) {
            let NodeTest::Name(name) = &self.pattern.node(n).test else { return None };
            ours.extend(doc.label_id(name).filter(|l| rivalling.contains(l)));
        }
        let lost_most = !ours.is_empty();
        let emptied = ours.into_iter().any(|l| doc.canonical_nodes(l).is_empty());
        #[cfg(test)]
        let lost_most = self.force_recompute.unwrap_or(lost_most);
        if !lost_most {
            return None;
        }
        // A label with no node left leaves no row: no need to look.
        let lost = |(t, _): &(&xivm_algebra::Tuple, u64)| binds_deleted(t, &apply_res.deleted);
        let hit = if emptied { self.store.len() } else { self.store.cursor().filter(lost).count() };
        let rivals = hit * RIVAL >= self.store.len();
        #[cfg(test)]
        let rivals = self.force_recompute.unwrap_or(rivals);
        rivals.then_some(hit == self.store.len())
    }

    /// The recomputation arm of [`Self::finish`]: the store is rebuilt by
    /// `e_v` over the post-state, and the Δ is one merge of the old rows
    /// with the new — each key that lost derivations at `c_new − c_old`
    /// carrying its old tuple (moved into the entry), each key that
    /// gained some at `c_new − c_old` carrying its new contents, and each
    /// post-commit row whose `val` / `cont` column lies at or above a text
    /// root at weight 0 ([`refresh_text`]'s rule). The counters follow
    /// the merge, so they net a key's losses against its gains.
    ///
    /// `deletion` is `Some(emptied)` for a pure deletion that rivals the
    /// view, `None` for a commit that flipped a predicate. Such a deletion
    /// only loses bindings, and the snowcaps lose theirs by
    /// [`MaterializedSnowcap::remove_under`] — exact here — then have
    /// their text refreshed: store, Δ, counters and snowcaps are those of
    /// the Δ⁻ terms, bit for bit. A row binding a deleted node loses every
    /// derivation, so when every row does (`emptied`, an empty view too)
    /// the view is empty without evaluating anything. After a flip the
    /// snowcaps are evaluated afresh.
    fn recompute_commit(
        &mut self,
        doc: &Document,
        apply_res: &ApplyResult,
        deletion: Option<bool>,
        text_roots: &DeweyForest,
        report: &mut UpdateReport,
    ) {
        report.recomputed = true;
        let pattern = &self.pattern;
        let (_, t_exec) = timed(|| {
            let fresh = if deletion == Some(true) { Vec::new() } else { view_tuples(doc, pattern) };
            let fresh = ViewStore::from_counted(pattern, fresh);
            let old = std::mem::replace(&mut self.store, Arc::new(fresh));
            let stored = pattern.stored_nodes();
            let cvn: Vec<usize> =
                (0..stored.len()).filter(|&c| pattern.node(stored[c]).ann.stores_text()).collect();
            let text = |t: &xivm_algebra::Tuple| {
                cvn.iter().any(|&c| text_roots.has_descendant_or_self_root(&t.field(c).id))
            };
            let mut changes = Vec::new();
            let mut old = Arc::unwrap_or_clone(old).into_rows().into_iter().peekable();
            let mut new = self.store.cursor().peekable();
            loop {
                // One key per step: its old row, its new row, or both.
                let order = match (old.peek(), new.peek()) {
                    (Some((o, _)), Some((n, _))) => o.doc_cmp(n),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => break,
                };
                let gone = if order.is_le() { old.next() } else { None };
                let now = if order.is_ge() { new.next() } else { None };
                let (was, is) = (gone.as_ref().map_or(0, |(_, c)| *c), now.map_or(0, |(_, c)| c));
                report.tuples_added += usize::from(was == 0);
                report.tuples_removed += usize::from(is == 0);
                if let Some((tuple, _)) = gone.filter(|_| is < was) {
                    report.derivations_removed += was - is;
                    changes.push((tuple, is as i64 - was as i64));
                }
                let Some((tuple, _)) = now else { continue };
                if is > was {
                    report.derivations_added += is - was;
                    changes.push((tuple.clone(), (is - was) as i64));
                }
                if text(tuple) {
                    changes.push((tuple.clone(), 0));
                    report.tuples_modified += 1;
                }
            }
            debug_assert!(deletion.is_none() || report.derivations_added == 0, "a deletion gains");
            report.delta = Arc::new(ViewDelta::new(changes));
        });
        let (_, t_lat) = timed(|| {
            if deletion.is_none() {
                self.snowcaps = Self::rematerialized(doc, pattern, &self.snowcaps);
                return;
            }
            for m in &mut self.snowcaps {
                m.remove_under(&apply_res.deleted);
                refresh_text(m.rel.rows.iter_mut(), &m.nodes, doc, pattern, text_roots, |_| ());
            }
        });
        report.timings.execute_update = t_exec;
        report.timings.update_lattice = t_lat;
    }
}

/// When a pure deletion rivals a view ([`MaintenanceEngine::finish`]
/// then recomputes it): a pattern label lost `RIVAL` nodes per node it
/// kept, and one store row in `RIVAL` binds a deleted node. A round
/// number, not a tuned one, like `DeltaSide::small_against`'s: on the 21
/// Appendix A deletes × 7 catalog views, 64 KB to 2 MB, the arms it picks
/// cost within 3 % of the cheaper arm per pair (CHANGES.md, PR 26).
const RIVAL: usize = 2;

/// The maintenance terms of the pattern and of each maintained snowcap
/// ([`subset_terms`]): pure functions of the pattern, enumerated once
/// per engine; a commit only filters them by Δ-emptiness and ID
/// witnesses ([`terms`]).
struct TermTables {
    full: Vec<Term>,
    /// Aligned with the engine's snowcaps.
    snowcaps: Vec<Vec<Term>>,
}

impl TermTables {
    fn of(pattern: &TreePattern, snowcaps: &[MaterializedSnowcap]) -> Self {
        let table =
            |nodes: &[PatternNodeId]| subset_terms(pattern, &nodes.iter().copied().collect());
        TermTables {
            full: table(&pattern.preorder()),
            snowcaps: snowcaps.iter().map(|m| table(&m.nodes)).collect(),
        }
    }
}

/// *Update Lattice*, one sign (Proposition 3.13): every snowcap a Δ
/// reaches loses (`Minus`) or gains (`Plus`) the bindings of its own
/// terms, whose R-parts start from the strictly smaller snowcaps. Those
/// must hold the old surviving state — without the deleted bindings,
/// without the inserted ones — so losses are taken in increasing size
/// (every cover a term can pick is already pruned) and gains in
/// decreasing size (none has gained yet): the term bags stay disjoint.
///
/// The rows are dropped or merged in place through the snowcap's row
/// order, so the work follows |Δ| — except for a deletion that rivals
/// the snowcap ([`DeltaSide::small_against`]), which takes one pass over
/// every row instead. Both arms carry an end-to-end metric (CHANGES.md,
/// PR 20): forcing the terms costs `bulk_catalog` and `point_small`,
/// forcing the pass costs `point_large` its whole gain. A deletion's
/// own terms are pruned before either arm: when none survives the ID
/// witnesses — the deleted nodes lie under none of the snowcap's
/// ancestors, as an item's `name` under a person snowcap — the snowcap
/// loses nothing, and neither arm runs.
fn maintain_lattice(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    tables: &[Vec<Term>],
    snowcaps: &mut [MaterializedSnowcap],
) {
    let losing = matches!(side, DeltaSide::Minus { .. });
    let patch = if losing { MaterializedSnowcap::remove } else { MaterializedSnowcap::absorb };
    for k in 0..snowcaps.len() {
        let i = if losing { k } else { snowcaps.len() - 1 - k };
        let (smaller, rest) = snowcaps.split_at_mut(i);
        let m = &mut rest[0];
        if m.nodes.iter().all(|&n| side.is_empty(n)) {
            continue;
        }
        let (own, _) = terms(ctx, side, &tables[i], &m.nodes);
        if own.is_empty() {
            continue;
        }
        if losing && !side.small_against(&m.nodes, m.rel.len()) {
            m.remove_under(&ctx.applied.deleted);
            continue;
        }
        patch(m, eval(ctx, side, &m.nodes, &own, smaller));
    }
}

/// *Execute Update*, the store patch: projects gained (`Plus`) or lost
/// (`Minus`) bindings to the view — `e_v`, so counted and in the store's
/// order — signs the counts and hands the run to the store's writer,
/// mirroring it into the report's counters and the commit's Δ.
fn patch_store(
    store: &mut ViewStore,
    pattern: &TreePattern,
    sign: Sign,
    bindings: &xivm_algebra::Relation,
    report: &mut UpdateReport,
    changes: &mut Vec<(xivm_algebra::Tuple, i64)>,
) {
    if bindings.is_empty() {
        return;
    }
    let (signed, derivations) = match sign {
        Sign::Minus => (-1, &mut report.derivations_removed),
        Sign::Plus => (1, &mut report.derivations_added),
    };
    let at = changes.len();
    changes.extend(
        project_to_view(pattern, bindings).into_iter().map(|(t, c)| (t, signed * c as i64)),
    );
    *derivations += changes[at..].iter().map(|(_, w)| w.unsigned_abs()).sum::<u64>();
    let (entered, left) = store.patch(&changes[at..]);
    report.tuples_added += entered;
    report.tuples_removed += left;
}

/// Pre-update state captured by [`MaintenanceEngine::prepare`]: the
/// predicate truths a flip is judged against, and the time taking them
/// took. Nothing of Δ⁻: that is the apply's to extract.
pub struct PreparedUpdate {
    pred_capture: crate::predflip::PredCapture,
    prep_time: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::parse_pattern;
    use xivm_update::apply_pul;
    use xivm_xml::parse_document;

    /// Oracle: after any propagated update, the store must equal the
    /// from-scratch evaluation on the updated document.
    fn check(
        doc_xml: &str,
        pattern: &str,
        stmts: &[&str],
        strategy: SnowcapStrategy,
    ) -> UpdateReport {
        let mut doc = parse_document(doc_xml).unwrap();
        let p = parse_pattern(pattern).unwrap();
        let mut engine = MaintenanceEngine::new(&doc, p.clone(), strategy);
        let mut last = UpdateReport::default();
        for s in stmts {
            let stmt = xivm_update::statement::parse_statement(s).unwrap();
            last = engine.apply_statement(&mut doc, &stmt).unwrap();
            let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
            assert!(
                engine.store().same_content_as(&expected),
                "{pattern} after {s}:\n{}",
                engine.store().diff_description(&expected)
            );
        }
        last
    }

    const FIG12: &str = "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>";

    #[test]
    fn insert_new_tuples() {
        for strat in [
            SnowcapStrategy::MinimalChain,
            SnowcapStrategy::LeavesOnly,
            SnowcapStrategy::AllSnowcaps,
        ] {
            let r = check(
                "<a><b/></a>",
                "//a{id}//b{id}//c{id}",
                &["insert <c><d/></c> into //b"],
                strat,
            );
            assert_eq!(r.tuples_added, 1, "{strat:?}");
        }
    }

    #[test]
    fn insert_affecting_multiple_terms() {
        check(
            FIG12,
            "//a{id}[//c{id}]//b{id}",
            &["insert <c><b/></c> into //f", "insert <b/> into /a"],
            SnowcapStrategy::MinimalChain,
        );
    }

    #[test]
    fn delete_tuples_and_counts() {
        let r = check(
            FIG12,
            "//a{id}[//c{id}]//b{id}",
            &["delete /a/f/c"],
            SnowcapStrategy::MinimalChain,
        );
        assert_eq!(r.derivations_removed, 5, "Example 4.5: 8 embeddings drop to 3");
    }

    #[test]
    fn derivation_count_decrement_without_removal() {
        // Example 4.8: //a[//b] with two b's — deleting one keeps the
        // tuple at count 1; deleting the second removes it.
        let r = check(
            "<a><c><b/></c><f><b/></f></a>",
            "//a{id}[//b]",
            &["delete //c//b"],
            SnowcapStrategy::MinimalChain,
        );
        assert_eq!(r.tuples_removed, 0);
        assert_eq!(r.derivations_removed, 1);
        let r2 = check(
            "<a><c><b/></c><f><b/></f></a>",
            "//a{id}[//b]",
            &["delete //c//b", "delete //f//b"],
            SnowcapStrategy::MinimalChain,
        );
        assert_eq!(r2.tuples_removed, 1);
    }

    #[test]
    fn value_predicates_respected_on_both_directions() {
        check(
            "<r><a>5<b/></a><a>3<b/></a><t/></r>",
            "//a[val=\"5\"]//b{id}",
            &["insert <b/> into //t", "delete //a//b"],
            SnowcapStrategy::MinimalChain,
        );
    }

    #[test]
    fn modifications_of_stored_content() {
        let r = check(
            "<a><b><c>x</c></b></a>",
            "//b{id,cont}[//c{id,val}]",
            &["insert <extra>y</extra> into //c"],
            SnowcapStrategy::MinimalChain,
        );
        assert_eq!(r.tuples_modified, 1);
        let r2 = check(
            "<a><b><c>x</c><d>z</d></b></a>",
            "//b{id,val}",
            &["delete //d"],
            SnowcapStrategy::MinimalChain,
        );
        assert_eq!(r2.tuples_modified, 1);
    }

    /// Text a snowcap carries is refreshed with the store's: the later
    /// commit's R-part hands `c`'s value to a new tuple (first view) and
    /// onto a stored one whose count grows (second view).
    #[test]
    fn text_reaches_later_tuples_through_the_snowcaps_fresh() {
        for pattern in ["//a{id}[//c{id,val}]//b{id}", "//a{id}[//c{id,val}][//b]"] {
            for strategy in [SnowcapStrategy::MinimalChain, SnowcapStrategy::AllSnowcaps] {
                let mut doc = parse_document("<a><c>x</c><b/></a>").unwrap();
                let p = parse_pattern(pattern).unwrap();
                let mut engine = MaintenanceEngine::new(&doc, p.clone(), strategy);
                for s in ["insert <t>y</t> into //c", "insert <b/> into /a"] {
                    let stmt = xivm_update::statement::parse_statement(s).unwrap();
                    engine.apply_statement(&mut doc, &stmt).unwrap();
                }
                let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
                assert!(engine.store().identical_to(&expected), "{pattern} {strategy:?}");
                let fresh = MaintenanceEngine::new(&doc, p.clone(), strategy);
                for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
                    assert_eq!(m.rel.rows, f.rel.rows, "{pattern} {strategy:?} {:?}", m.nodes);
                }
            }
        }
    }

    #[test]
    fn update_sequences_stay_consistent() {
        check(
            "<site><people><person><name>x</name></person></people></site>",
            "/site{id}/people{id}/person{id}/name{id,val}",
            &[
                "insert <person><name>y</name></person> into /site/people",
                "insert <name>z</name> into /site/people/person",
                "delete /site/people/person/name",
                "insert <person/> into /site/people",
            ],
            SnowcapStrategy::MinimalChain,
        );
    }

    #[test]
    fn deleting_everything_empties_the_view() {
        let r =
            check(FIG12, "//a{id}[//c{id}]//b{id}", &["delete /a"], SnowcapStrategy::MinimalChain);
        assert_eq!(r.derivations_removed, 8);
    }

    #[test]
    fn no_op_updates_cost_nothing() {
        let r = check(
            "<a><b/></a>",
            "//a{id}//b{id}",
            &["delete //zz", "insert <q/> into //zz"],
            SnowcapStrategy::MinimalChain,
        );
        assert_eq!(r.tuples_added + r.tuples_removed + r.tuples_modified, 0);
    }

    #[test]
    fn wildcard_views_are_maintained() {
        check(
            "<r><x><item/></x><y><item/></y></r>",
            "/r{id}/*/item{id}",
            &["insert <item/> into //x", "delete //y"],
            SnowcapStrategy::MinimalChain,
        );
    }

    #[test]
    fn attribute_views_are_maintained() {
        check(
            "<r><p id=\"1\"/><p/></r>",
            "//p{id}[/@id{id,val}]",
            &["insert <p id=\"2\"><q/></p> into /r"],
            SnowcapStrategy::MinimalChain,
        );
    }

    /// After every propagated PUL each snowcap equals its from-scratch
    /// evaluation row for row — content *and* the full document order
    /// the removals search by — under every strategy.
    #[test]
    fn snowcaps_stay_consistent_with_document() {
        // Figure 12's document, then one with two a's, where the {a,c}
        // snowcap has an order to lose: insert → delete → insert under
        // the *first* a, whose new rows belong before the second a's;
        // then a replace (Δ⁻ and Δ⁺ in one PUL).
        let two_as = "<r><a k=\"1\"><c/><b/></a><a><c><b/></c></a></r>";
        let cases: [(&str, &[&str]); 2] = [
            (FIG12, &["insert <c><b/></c> into //f", "delete /a/c"]),
            (
                two_as,
                &[
                    "insert <c><b/></c> into //a[@k=\"1\"]",
                    "delete //a[@k=\"1\"]/c",
                    "insert <c/> into //a[@k=\"1\"]/b",
                    "replace //a[@k=\"1\"]/b with <c><b/><b/></c>",
                ],
            ),
        ];
        let p = parse_pattern("//a{id}[//c{id}]//b{id}").unwrap();
        let stmt = |s: &str| xivm_update::statement::parse_statement(s).unwrap();
        for strategy in [
            SnowcapStrategy::MinimalChain,
            SnowcapStrategy::LeavesOnly,
            SnowcapStrategy::AllSnowcaps,
        ] {
            let check = |engine: &MaintenanceEngine, doc: &Document, after: &str| {
                let fresh = MaintenanceEngine::new(doc, p.clone(), strategy);
                assert_eq!(engine.snowcaps().len(), fresh.snowcaps().len());
                for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
                    assert_eq!(m.rel.rows, f.rel.rows, "{strategy:?} {:?} after {after}", m.nodes);
                }
            };
            for (doc_xml, script) in cases {
                let mut doc = parse_document(doc_xml).unwrap();
                let mut engine = MaintenanceEngine::new(&doc, p.clone(), strategy);
                for s in script {
                    engine.apply_statement(&mut doc, &stmt(s)).unwrap();
                    check(&engine, &doc, s);
                }
                // A sequential transaction's PUL that deletes part of
                // its own insertion: those rows were never gained, so
                // they are not lost either.
                let mut pul = compute_pul(&doc, &stmt("insert <c><b k=\"x\"/><b/></c> into //a"));
                let mut scratch = doc.clone();
                apply_pul(&mut scratch, &pul).unwrap();
                pul.ops.extend(compute_pul(&scratch, &stmt("delete //b[@k=\"x\"]")).ops);
                engine.propagate_pul(&mut doc, &pul).unwrap();
                check(&engine, &doc, "insert, then delete of the inserted");
            }
        }
    }

    /// A sequential transaction's PUL can delete a node it inserted:
    /// the node was never in the old state, so it is in no Δ⁻ — a Δ⁻
    /// holding it would subtract a derivation the view never had.
    #[test]
    fn deleting_a_same_pul_insertion_loses_nothing() {
        let mut doc = parse_document("<r><a><b/></a></r>").unwrap();
        let p = parse_pattern("//a{id}//b{id}").unwrap();
        let mut engine = MaintenanceEngine::new(&doc, p.clone(), SnowcapStrategy::MinimalChain);
        let stmt = |s: &str| xivm_update::statement::parse_statement(s).unwrap();
        let mut pul = compute_pul(&doc, &stmt("insert <x><b/><b/></x> into //a"));
        let mut scratch = doc.clone();
        apply_pul(&mut scratch, &pul).unwrap();
        pul.ops.extend(compute_pul(&scratch, &stmt("delete //x/b")).ops);
        let report = engine.propagate_pul(&mut doc, &pul).unwrap();
        assert_eq!(xivm_xml::serialize_document(&doc), "<r><a><b/><x/></a></r>");
        assert_eq!((report.derivations_added, report.derivations_removed), (0, 0));
        let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
        assert!(engine.store().identical_to(&expected));
    }

    /// The dynamic relevance exit: taken exactly when no pattern label
    /// occurs in the update and no stored text lies above it — and then
    /// nothing of the engine moves, not even a snapshot-shared store.
    #[test]
    fn irrelevant_updates_exit_before_any_per_view_work() {
        let doc_xml = "<r><a><b>x</b><z/></a><q><w/></q></r>";
        let mut doc = parse_document(doc_xml).unwrap();
        let p = parse_pattern("//a{id}//b{id,val}").unwrap();
        let mut engine = MaintenanceEngine::new(&doc, p.clone(), SnowcapStrategy::MinimalChain);
        let held = engine.store_arc();
        let mut apply = |engine: &mut MaintenanceEngine, s: &str| {
            let stmt = xivm_update::statement::parse_statement(s).unwrap();
            let report = engine.apply_statement(&mut doc, &stmt).unwrap();
            let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
            assert!(engine.store().same_content_as(&expected), "after {s}");
            report
        };
        // no a, no b, and no b above the roots: exit
        for s in ["insert <w><y/></w> into //q", "delete //w", "insert <y/> into //z"] {
            let r = apply(&mut engine, s);
            assert!(r.irrelevant && r.delta.is_empty(), "{s}");
            assert_eq!(r.insert_prune.before + r.delete_prune.before, 0, "{s}: no terms");
        }
        assert!(Arc::ptr_eq(&held, &engine.store_arc()), "a held store was not copied");
        assert!(engine.term_tables.is_none(), "no table was built for exits");
        // a pattern label in the forest, in the deleted subtree, or
        // stored text above the root: no exit
        let r = apply(&mut engine, "insert <b>y</b> into //q");
        assert!(!r.irrelevant && r.delta.is_empty(), "a b outside any a: pruned, not exited");
        assert!(!apply(&mut engine, "delete //q").irrelevant);
        let r = apply(&mut engine, "insert <y>z</y> into //a/b");
        assert!(!r.irrelevant);
        assert_eq!(r.tuples_modified, 1, "stored val of b grew");
        assert!(!Arc::ptr_eq(&held, &engine.store_arc()));
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(SnowcapStrategy::MinimalChain.name(), "snowcaps");
        assert_eq!(SnowcapStrategy::LeavesOnly.name(), "leaves");
        assert_eq!(SnowcapStrategy::AllSnowcaps.name(), "all-snowcaps");
    }

    const STRATEGIES: [SnowcapStrategy; 3] =
        [SnowcapStrategy::MinimalChain, SnowcapStrategy::LeavesOnly, SnowcapStrategy::AllSnowcaps];

    /// Runs `pul` over `doc` under `pattern` three times — the Δ⁻ terms
    /// forced, the recomputation forced, and the engine's own choice —
    /// and checks that all three leave the same store (identical to a
    /// fresh one, and to the old one with the Δ replayed), the same Δ
    /// and counters, and the same snowcaps, row for row. Returns whether
    /// the forced recomputation ran and whether the engine chose it.
    fn both_arms(
        doc: &Document,
        pattern: &TreePattern,
        pul: &Pul,
        strategy: SnowcapStrategy,
    ) -> (bool, bool) {
        let run = |force| {
            let mut doc = doc.clone();
            let mut engine = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
            engine.force_recompute = force;
            let held = engine.store_arc();
            let report = engine.propagate_pul(&mut doc, pul).unwrap();
            let mut replayed = (*held).clone();
            report.delta.replay(&mut replayed);
            assert!(replayed.identical_to(engine.store()), "{force:?}: the Δ replays");
            (doc, engine, report)
        };
        let what = format!("{} under {strategy:?}", pattern.to_text());
        let (post, by_terms, terms) = run(Some(false));
        assert!(!terms.recomputed, "{what}");
        let fresh = MaintenanceEngine::new(&post, pattern.clone(), strategy);
        assert!(
            by_terms.store().identical_to(fresh.store()),
            "{what}:\n{}",
            by_terms.store().diff_description(fresh.store())
        );
        let mut recomputed = [false; 2];
        for (arm, force) in [Some(true), None].into_iter().enumerate() {
            let (_, engine, report) = run(force);
            assert!(engine.store().identical_to(by_terms.store()), "{what} {force:?}");
            assert_eq!(report.delta, terms.delta, "{what} {force:?}");
            assert!(report.same_outcome(&terms), "{what} {force:?}: counters");
            for (m, t) in engine.snowcaps().iter().zip(by_terms.snowcaps()) {
                assert_eq!(m.rel.rows, t.rel.rows, "{what} {force:?} {:?}", m.nodes);
            }
            recomputed[arm] = report.recomputed;
        }
        (recomputed[0], recomputed[1])
    }

    fn pul_of(doc: &Document, stmt: &str) -> Pul {
        compute_pul(doc, &xivm_update::statement::parse_statement(stmt).unwrap())
    }

    /// The 21 Appendix A deletes × the 7 catalog views, under every
    /// strategy, on a small XMark document that first took each
    /// update's insertion (nested `name`s and `increase`s, as the
    /// benchmark runs them): both arms agree everywhere, and the
    /// engine's own choice takes the recomputation for some of them.
    #[test]
    fn both_arms_agree_on_the_appendix_a_deletes() {
        let base = xivm_xmark::generate_sized(12 * 1024);
        let (mut forced, mut chosen) = (0, 0);
        for update in xivm_xmark::all_updates() {
            let mut doc = base.clone();
            let insert = compute_pul(&doc, &update.insert_stmt());
            apply_pul(&mut doc, &insert).unwrap();
            let pul = compute_pul(&doc, &update.delete_stmt());
            for view in xivm_xmark::VIEW_NAMES {
                let pattern = xivm_xmark::view_pattern(view);
                for strategy in STRATEGIES {
                    let (f, c) = both_arms(&doc, &pattern, &pul, strategy);
                    (forced, chosen) = (forced + usize::from(f), chosen + usize::from(c));
                }
            }
        }
        assert!(forced > chosen && chosen > 0, "forced {forced}, chosen {chosen}");
    }

    /// Figure 12-sized cases where the merge has the most to get right:
    /// `val` / `cont` columns above the deleted roots (weight-0 entries),
    /// a value predicate, nested text roots, counts that drop without
    /// the tuple leaving.
    #[test]
    fn both_arms_agree_on_small_documents() {
        let nested = "<r><a><a><b>x</b><c>y</c></a><b/><c>z</c></a><a><b/></a></r>";
        let cases = [
            (FIG12, "//a{id}[//c{id}]//b{id}", "delete /a/f/c"),
            (FIG12, "//a{id}[//c{id}]//b{id}", "delete //b"),
            (FIG12, "//a{id,cont}[//b]", "delete //c"),
            (nested, "//a{id,cont}//b{id}", "delete //c"),
            (nested, "//a{id,val}[//b]", "delete //b"),
            (nested, "//r{id}//a{id,val}/b{id,cont}", "delete //a/a"),
            ("<a><b><c>x</c><d>z</d></b></a>", "//b{id,val}[//c{id,val}]", "delete //d"),
            ("<r><a>5<b/></a><a>3<b/></a><t/></r>", "//a{id,val}[val=\"5\"]//b{id}", "delete //b"),
        ];
        for (doc_xml, pattern, stmt) in cases {
            let doc = parse_document(doc_xml).unwrap();
            let pattern = parse_pattern(pattern).unwrap();
            for strategy in STRATEGIES {
                let (forced, _) = both_arms(&doc, &pattern, &pul_of(&doc, stmt), strategy);
                assert!(forced, "{stmt} on {doc_xml}");
            }
        }
    }

    /// A commit that flips a value predicate takes the recomputation
    /// arm, whatever else its PUL does: flipped down or up by an insert,
    /// up by a delete, under a `cont` column above the flipped node, in a
    /// PUL that also inserts structure, and a key that loses a derivation
    /// to the flip while gaining one from an insert (the Δ nets them).
    /// Under every strategy: the store is a fresh engine's, the Δ (of the
    /// length given) replays onto the held pre-commit store, the counters
    /// are the net change, and the snowcaps are fresh ones row for row.
    #[test]
    fn a_flipped_predicate_recomputes_the_view() {
        let two_as = "<r><c><a k=\"1\">5<b/></a><a>5<b/></a></c></r>";
        let cases: [(&str, &str, &[&str], usize); 6] = [
            ("<r><a>5<b/></a></r>", "//a{id}[val=\"5\"]//b{id}", &["insert <t>1</t> into //a"], 1),
            (
                "<r><a><b/></a></r>",
                "//a{id,val}[val=\"5\"]//b{id}",
                &["insert <t>5</t> into //a"],
                1,
            ),
            ("<r><a>5<x>1</x><b/></a></r>", "//a{id}[val=\"5\"]//b{id}", &["delete //x"], 1),
            // (c, b1) lost, (c, b2) kept with c's new content
            (
                two_as,
                "//c{id,cont}//a[val=\"5\"]//b{id}",
                &["insert <t>1</t> into //a[@k=\"1\"]"],
                2,
            ),
            // the outer a's (a, b) lost, the inner a's gained
            (
                "<r><a>5<b/></a></r>",
                "//a{id}[val=\"5\"]//b{id}",
                &["insert <a>5<b/></a> into //a"],
                2,
            ),
            // c loses the old a's derivation and gains the new one's
            (
                "<r><c><a>5</a></c></r>",
                "//c{id}[//a[val=\"5\"]]",
                &["insert <t>1</t> into //a", "insert <a>5</a> into //c"],
                0,
            ),
        ];
        for (doc_xml, pattern, stmts, entries) in cases {
            let pattern = parse_pattern(pattern).unwrap();
            for strategy in STRATEGIES {
                let mut doc = parse_document(doc_xml).unwrap();
                // statements on disjoint targets: one PUL, as a
                // transaction's would be
                let mut pul = Pul::default();
                stmts.iter().for_each(|s| pul.ops.extend(pul_of(&doc, s).ops));
                let mut engine = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
                engine.force_recompute = Some(false);
                let held = engine.store_arc();
                let report = engine.propagate_pul(&mut doc, &pul).unwrap();
                let what = format!("{stmts:?} on {doc_xml} under {strategy:?}");
                assert!(report.recomputed && !report.irrelevant, "{what}");
                assert_eq!(report.delta.len(), entries, "{what}");
                let fresh = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
                assert!(
                    engine.store().identical_to(fresh.store()),
                    "{what}:\n{}",
                    engine.store().diff_description(fresh.store())
                );
                let mut replayed = (*held).clone();
                report.delta.replay(&mut replayed);
                assert!(replayed.identical_to(engine.store()), "{what}: the Δ replays");
                let net = |store: &ViewStore| store.total_derivations() as i64;
                let counted = report.derivations_added as i64 - report.derivations_removed as i64;
                assert_eq!(counted, net(engine.store()) - net(&held), "{what}: net derivations");
                let added = report.tuples_added as i64 - report.tuples_removed as i64;
                assert_eq!(added, engine.store().len() as i64 - held.len() as i64, "{what}");
                assert_eq!(engine.snowcaps().len(), fresh.snowcaps().len());
                for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
                    assert_eq!(m.rel.rows, f.rel.rows, "{what} {:?}", m.nodes);
                }
            }
        }
    }

    /// A Δ⁻ no term of a snowcap survives — its deleted nodes lie under
    /// none of the snowcap's ancestors — costs the snowcap nothing: no
    /// pass over its rows (a snowcap of a few rows would take one), the
    /// rows untouched. The same deletion of the person names the
    /// snowcap holds still takes the pass.
    #[test]
    fn a_witness_less_delta_minus_leaves_the_snowcap_untouched() {
        let person = |i| format!("<person><name>p{i}</name><email/></person>");
        let item = |i| format!("<item><name>i{i}</name></item>");
        let xml = format!(
            "<site><people>{}</people><items>{}</items></site>",
            (0..6).map(person).collect::<String>(),
            (0..6).map(item).collect::<String>()
        );
        let pattern = parse_pattern("//person{id}[//name{id}]//email{id}").unwrap();
        for strategy in [SnowcapStrategy::MinimalChain, SnowcapStrategy::AllSnowcaps] {
            let mut doc = parse_document(&xml).unwrap();
            let mut engine = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
            let before: Vec<_> = engine.snowcaps().iter().map(|m| m.rel.rows.clone()).collect();
            let stmt = |s: &str| xivm_update::statement::parse_statement(s).unwrap();
            crate::snowcap::tests::PASSES.set(0);
            let report = engine.apply_statement(&mut doc, &stmt("delete //item/name")).unwrap();
            assert!(report.delta.is_empty() && !report.irrelevant, "{strategy:?}");
            assert_eq!(crate::snowcap::tests::PASSES.get(), 0, "{strategy:?}: no pass");
            for (m, rows) in engine.snowcaps().iter().zip(&before) {
                assert_eq!(&m.rel.rows, rows, "{strategy:?} {:?}", m.nodes);
            }
            engine.force_recompute = Some(false);
            engine.apply_statement(&mut doc, &stmt("delete //person/name")).unwrap();
            assert!(
                crate::snowcap::tests::PASSES.get() > 0,
                "{strategy:?}: the name snowcap's pass"
            );
            let fresh = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
            for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
                assert_eq!(m.rel.rows, f.rel.rows, "{strategy:?} {:?}", m.nodes);
            }
        }
    }

    /// An unreduced PUL that deletes inside a node and then the node
    /// leaves the apply reading the node's value without the inner text
    /// ("5", not "51"): a view with a value predicate answers the commit
    /// by recomputation, forced terms or not — on the terms it would
    /// keep the row of the deleted `a`, whose Δ⁻ value fails `[val=51]`.
    /// A view without a predicate keeps to its terms.
    #[test]
    fn a_nested_delete_under_a_value_predicate_recomputes_the_view() {
        let doc =
            parse_document("<r><a>5<x>1</x><b/></a><a>51<b/></a><a>51<b/></a><a>5<b/></a></r>")
                .unwrap();
        let mut ops = pul_of(&doc, "delete //a/x").ops;
        ops.push(pul_of(&doc, "delete /r/a").ops.swap_remove(0)); // the a around the x
        let pul = Pul::new(ops);
        for (pattern, recomputed) in
            [("//a{id}[val=\"51\"]//b{id}", true), ("//a{id}//b{id}", false)]
        {
            let pattern = parse_pattern(pattern).unwrap();
            for strategy in STRATEGIES {
                let mut doc = doc.clone();
                let mut engine = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
                engine.force_recompute = Some(false);
                let held = engine.store_arc();
                let report = engine.propagate_pul(&mut doc, &pul).unwrap();
                let what = format!("{} under {strategy:?}", pattern.to_text());
                assert_eq!(report.recomputed, recomputed, "{what}");
                let fresh = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
                assert!(
                    engine.store().identical_to(fresh.store()),
                    "{what}:\n{}",
                    engine.store().diff_description(fresh.store())
                );
                let mut replayed = (*held).clone();
                report.delta.replay(&mut replayed);
                assert!(replayed.identical_to(engine.store()), "{what}: the Δ replays");
            }
        }
    }

    /// Which deletions take the recomputation: one that empties the
    /// view's label and most of its rows does; a point deletion, one
    /// that empties the label only where the view is not, one under a
    /// wildcard view, and a PUL that also inserts do not.
    #[test]
    fn a_deletion_that_rivals_the_view_recomputes_it() {
        let doc = parse_document(&format!(
            "<r><a><b k=\"1\"/>{}</a><z>{}</z><t/></r>",
            "<b/>".repeat(9),
            "<b/><b/>".repeat(20)
        ))
        .unwrap();
        let chosen = |pattern: &str, stmt: &str| {
            let pattern = parse_pattern(pattern).unwrap();
            both_arms(&doc, &pattern, &pul_of(&doc, stmt), SnowcapStrategy::MinimalChain).1
        };
        assert!(chosen("//a{id}//b{id}", "delete //b"), "a mass deletion");
        assert!(chosen("//a{id}[//b]", "delete //a"), "the whole view");
        assert!(!chosen("//a{id}//b{id}", "delete //b[@k=\"1\"]"), "a point deletion");
        assert!(!chosen("//a{id}//b{id}", "delete //z"), "most b's, none of the view's");
        assert!(!chosen("//a{id}/*{id}", "delete //b"), "a wildcard view");
        assert!(!chosen("//a{id}//b{id}", "replace //a with <a/>"), "a PUL that inserts");
    }
}
