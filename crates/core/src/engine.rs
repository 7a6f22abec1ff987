//! The end-to-end maintenance engine.
//!
//! Wires the whole pipeline of Figures 8 and 9 together: compute the
//! PUL, apply it to the document, build Δ tables (CD±), expand and
//! prune the update expression, evaluate the surviving terms with
//! structural joins (ET-INS / ET-DEL), patch the view store
//! (PINT + PIMT for insertions, PDDT + PDMT for deletions — the
//! combined PINT/MT and PDDT/MT the paper actually runs, here one
//! signed pipeline: [`crate::propagate`]), and keep the materialized
//! snowcaps current (Proposition 3.13): a snowcap gains the bindings of
//! *its own* Δ⁺ terms, and is patched in place through its row order
//! ([`MaterializedSnowcap`]), so a point commit's lattice upkeep
//! follows |Δ|. Each phase is timed, producing the breakdowns of the
//! Section 6 experiments.
//!
//! A deletion is decided on IDs first, as PDDT / PDMT decide it. A
//! stored column binds the same node in every derivation of its row, so
//! a row — of the store or of a snowcap, whose rows bind every node —
//! that binds a node at or under a delete root lost every derivation:
//! those *bound* losses are taken out by range, found by binary search
//! on the document-ordered rows (`by_id`). Only the *witness*
//! losses — derivations of a row that stays, through an unstored
//! branch such as a predicate — are evaluated, by the Δ⁻ terms whose
//! Δ-set holds no stored node. The two are disjoint, and together they
//! are the full Δ⁻ terms, row for row.
//!
//! Beside the terms there is one exceptional arm: recomputing the view
//! from the post-state and merging old rows with new into the Δ. A
//! commit that flips a value predicate changes bindings no Δ table
//! holds, which the paper's algorithms never meet; `finish` sends every
//! commit that moved text under a node of a predicate's label — judged,
//! like PIMT / PDMT's condition, on Dewey IDs alone — to the
//! recomputation, which answers it exactly (see
//! [`MaintenanceEngine::finish`]).

use crate::by_id::{self, Near};
use crate::commit::ViewDelta;
use crate::etins::{left_deep, subset_terms};
use crate::propagate::{eval, refresh_text, terms, DeltaSide, PruneStats, Sign, TermContext};
use crate::snowcap::{enumerate_snowcaps, MaterializedSnowcap};
use crate::term::Term;
use crate::timing::{timed, Timings};
use crate::view_store::ViewStore;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;
use xivm_algebra::Relation;
use xivm_pattern::compile::{canonical_relation, project_to_view};
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::{ApplyResult, DeltaMinus, DeltaPlus, Pul};
use xivm_xml::{DeweyForest, DeweyId, Document, LabelId, Work};

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
    /// its terms — only when a value predicate may have flipped: the PUL
    /// moved text under a node of its label
    /// ([`xivm_update::ApplyResult::text_moved`]). Excluded from
    /// [`Self::same_outcome`], like the timings. A flip commit's delta is
    /// the net change per key, and so are [`Self::derivations_added`] /
    /// [`Self::derivations_removed`]: a key that lost and gained
    /// derivations in one commit nets them.
    pub recomputed: bool,
    /// The view's Δ for this update: every store patch the engine made
    /// as one signed run, complete enough that replaying it on a
    /// pre-update snapshot reproduces the post-update store exactly.
    /// Built once per commit and shared from here on — subscribers and
    /// feeds hold this allocation.
    pub delta: Arc<ViewDelta>,
    /// What the view's propagation did: the store and snowcap rows it
    /// examined one by one, and the bindings its terms emitted.
    /// Excluded from [`Self::same_outcome`], like the timings.
    pub work: Work,
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
    /// plus the view itself — all of them the intermediates of one
    /// left-deep evaluation of the view, so set-up costs what
    /// materializing the view alone does. Set-up runs the terms' own
    /// loop ([`left_deep`]), whose hook keeps each prefix.
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
/// maintain it incrementally. It applies no PUL: its host — a
/// [`MultiViewEngine`](crate::MultiViewEngine) of one view or many — applies it once and calls
/// each view's [`Self::finish`].
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
}

impl MaintenanceEngine {
    /// Materializes the view and its auxiliary snowcaps over `doc`.
    pub fn new(doc: &Document, pattern: TreePattern, strategy: SnowcapStrategy) -> Self {
        let (store, snowcaps) = Self::materialize(doc, &pattern, strategy);
        MaintenanceEngine {
            store: Arc::new(store),
            snowcaps,
            pattern,
            strategy,
            term_tables: None,
            dynamic_pruning: true,
        }
    }

    /// The view's store and the snowcaps `strategy` maintains, evaluated
    /// over `doc` by [`left_deep`] with canonical leaves. The view's own
    /// evaluation joins the pattern's nodes in pre-order, so the
    /// relation each join reads on its left is the binding relation of a
    /// pre-order prefix — a chain snowcap (Proposition 3.13: snowcaps
    /// from smaller snowcaps) — and the hook moves it into one once the
    /// join is done: the view and its minimal chain in one evaluation,
    /// each leaf built once. Every other snowcap is its own evaluation.
    fn materialize(
        doc: &Document,
        pattern: &TreePattern,
        strategy: SnowcapStrategy,
    ) -> (ViewStore, Vec<MaterializedSnowcap>) {
        let leaf = |n| Cow::Owned(canonical_relation(doc, pattern, n));
        let order = pattern.preorder();
        let mut snowcaps = Vec::with_capacity(order.len() - 1);
        let chain = |prefix: Cow<Relation>| {
            if strategy == SnowcapStrategy::MinimalChain {
                let nodes = order[..=snowcaps.len()].to_vec();
                snowcaps.push(MaterializedSnowcap::new(nodes, prefix.into_owned()));
            }
        };
        let bindings = left_deep(pattern, &order, None, leaf, Some(chain));
        if strategy == SnowcapStrategy::AllSnowcaps {
            for set in enumerate_snowcaps(pattern).into_iter().filter(|s| s.len() < order.len()) {
                let nodes: Vec<_> = order.iter().copied().filter(|n| set.contains(n)).collect();
                let rel = left_deep(pattern, &nodes, None, leaf, Some(drop));
                snowcaps.push(MaterializedSnowcap::new(nodes, rel));
            }
        }
        (ViewStore::from_counted(pattern, project_to_view(pattern, &bindings)), snowcaps)
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
        let (store, snowcaps) = Self::materialize(doc, &self.pattern, self.strategy);
        self.store = Arc::new(store);
        self.snowcaps = snowcaps;
    }

    /// Accepted and ignored: reads nothing and returns at once. A view
    /// needs nothing of the pre-apply document that the apply does not
    /// hand [`Self::finish`]. Kept only because `benchmark/` calls it;
    /// the ROADMAP's `[benchmark]` item removes it.
    pub fn prepare(&self, _doc: &Document, _pul: &Pul) -> PreparedUpdate {
        PreparedUpdate
    }

    /// Propagates the PUL to the view after it was applied to the
    /// document. `apply_res` must hold the Δ⁺ and Δ⁻ entries of this
    /// view's labels, valued where a pattern node reads a value and with
    /// content where it stores it: [`xivm_update::apply_pul`]'s, or
    /// those of [`xivm_update::DeltaLabels::of`] over a set of views
    /// including this, which is what a
    /// [`MultiViewEngine`](crate::MultiViewEngine) hands it.
    /// `_prepared` is ignored ([`Self::prepare`]).
    ///
    /// A deletion's bound losses — every row, of the store and of each
    /// snowcap, with a stored column at or under a maximal delete root —
    /// leave by range, moved into the Δ at weight −count; the Δ⁻ terms
    /// run only for the witness losses, their Δ-sets free of stored
    /// nodes. A commit takes that path or — when a value predicate's
    /// label lies at or above a node the apply moved text under
    /// ([`ApplyResult::text_moved`]) — a recomputation from the
    /// post-state, whose Δ is a merge of the old rows with the new. Only
    /// there can a node's string value, and so a predicate's truth, have
    /// changed, and only there can a Δ⁻ value be stale: an unreduced PUL
    /// that deleted inside a node, then the node, removed text under it
    /// first. [`UpdateReport::recomputed`] says which arm ran.
    ///
    /// Takes the document read-only: this phase only mutates the
    /// engine's own store and snowcaps, so a multi-view host runs the
    /// views' `finish` in any order against one applied document
    /// (see [`crate::multiview`]).
    pub fn finish(
        &mut self,
        doc: &Document,
        apply_res: &ApplyResult,
        _prepared: PreparedUpdate,
    ) -> UpdateReport {
        #[cfg(any(test, feature = "fault-inject"))]
        crate::fault::finish_point();
        let mut report = UpdateReport::default();
        let start = std::time::Instant::now();

        // Does the label of one of `nodes` lie `above` one of `roots` —
        // on its root path, the root included or not as `above` says?
        // PIMT / PDMT's condition, judged on labels and Dewey IDs alone.
        // A wildcard is above anything.
        let above =
            |nodes: &[PatternNodeId], roots: &[DeweyId], above: fn(&DeweyId, LabelId) -> bool| {
                let on_path = |l| roots.iter().any(|r| above(r, l));
                !roots.is_empty()
                    && nodes.iter().any(|&n| match &self.pattern.node(n).test {
                        NodeTest::Wildcard => true,
                        NodeTest::Name(name) => doc.label_id(name).is_some_and(on_path),
                    })
            };
        // Stored text changed only under a `val` / `cont` column's label
        // at or above an insertion target, or strictly above a deleted
        // root (it is gone).
        let (targets, delete_roots) = (&apply_res.insert_targets, &apply_res.delete_roots);
        let stored = &self.pattern.cvn();
        let mut text_roots = Vec::new();
        if above(stored, delete_roots, DeweyId::has_proper_ancestor_labeled) {
            text_roots.extend_from_slice(delete_roots);
        }
        if above(stored, targets, DeweyId::has_self_or_ancestor_labeled) {
            text_roots.extend_from_slice(targets);
        }
        let text_roots = DeweyForest::with_nested(text_roots);
        let text_changed = !text_roots.is_empty();
        // A value predicate may have flipped, or a Δ⁻ value gone stale,
        // only under a predicate's label at or above where text moved.
        let valued: Vec<_> =
            self.pattern.node_ids().filter(|&n| self.pattern.node(n).val_pred.is_some()).collect();
        let flipped = above(&valued, &apply_res.text_moved, DeweyId::has_self_or_ancestor_labeled);

        // --- The dynamic relevance exit, before anything per-view is
        // built, expanded, copied or scanned. From labels alone: no
        // pattern node's label among the inserted or deleted nodes (so
        // every Δ table would be empty, every term with it, and every
        // snowcap row stands), no predicate that may have flipped, no
        // stored text at or above an update root.
        let touched = |n| {
            let test = &self.pattern.node(n).test;
            apply_res.inserted.touches(doc, test) || apply_res.deleted.touches(doc, test)
        };
        if !flipped && !text_changed && !self.pattern.node_ids().any(touched) {
            report.timings.compute_delta_tables = start.elapsed();
            report.irrelevant = true;
            return report;
        }

        // --- The recomputation arm, before any Δ table is built: a
        // commit that may have flipped a value predicate is answered by
        // `e_v` over the post-state, not by its terms.
        if flipped {
            report.timings.compute_delta_tables = start.elapsed();
            self.recompute_commit(doc, &text_roots, &mut report);
            return report;
        }

        // --- Compute Delta Tables: CD+, and CD− for the witness nodes,
        // both read from the label buckets the apply left behind — IDs,
        // values and contents included. The bound losses are found by
        // range on the store: every row with a stored column at or under
        // a (maximal) delete root.
        let dplus = DeltaPlus::compute(doc, &self.pattern, apply_res);
        let dminus = DeltaMinus::compute(doc, &self.pattern, apply_res);
        let (roots, pattern) = (&DeweyForest::maximal(delete_roots)[..], &self.pattern);
        let cols: Vec<_> = pattern.stored_nodes().into_iter().enumerate().collect();
        let near = Near::Under(&apply_res.deleted);
        let bound =
            by_id::find(self.store.rows(), &cols, pattern, doc, roots, near, &mut report.work);
        report.timings.compute_delta_tables = start.elapsed();

        // --- Update Lattice, part 1: a snowcap row binds every node of
        // its snowcap, so the rows binding a deleted node are all it
        // loses — taken out by range, so the R-parts of every term below
        // see the old surviving state.
        let (deleted, work) = (&apply_res.deleted, &mut report.work);
        let remove =
            |m: &mut MaterializedSnowcap| m.remove_under(pattern, doc, roots, deleted, work);
        let losing = self.snowcaps.iter_mut().filter(|_| !roots.is_empty());
        let (lost_rows, t_lat1) = timed(|| losing.map(remove).sum::<usize>());

        // The same exit, judged on the tables and the ranges: a touched
        // label whose nodes all fail their value predicate, left again
        // within the PUL, or bound by no row. The text tests also gate
        // their passes one by one below.
        let found = dplus.total_len() + usize::from(dminus.kept_any()) + bound.len() + lost_rows;
        if found == 0 && !text_changed {
            report.timings.update_lattice = t_lat1;
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

        // --- Get Update Expression: expand and prune both directions.
        // On the deletion side Δ-emptiness keeps the witness terms alone:
        // a term with a stored node in its Δ-set would find only rows the
        // range took, and a stored node's Δ⁻ table is empty.
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

        // --- Execute Update: move the bound losses out of the store,
        // evaluate terms and patch the store. Every patch is mirrored
        // into `changes`, the commit's Δ — a removed row moves into it at
        // weight −count. The text refresh comes last, over the rows the
        // commit leaves: its weight-0 entries name tuples of the
        // post-commit store, with their final text.
        let mut changes = Vec::new();
        let (_, t_exec) = timed(|| {
            let taken = store.take(&bound);
            report.tuples_removed += taken.len();
            report.work.rows += taken.len() as u64;
            for (tuple, count) in taken {
                report.derivations_removed += count;
                changes.push((tuple, -(count as i64)));
            }
            if has_deletes {
                let lost = eval(&ctx, &minus, full_order, &del_terms, &self.snowcaps);
                patch_store(store, &self.pattern, Sign::Minus, &lost, &mut report, &mut changes);
            }
            if has_inserts {
                let gained = eval(&ctx, &plus, full_order, &ins_terms, &self.snowcaps);
                patch_store(store, &self.pattern, Sign::Plus, &gained, &mut report, &mut changes);
            }
            if text_changed {
                let before = changes.len();
                let publish = |t: &xivm_algebra::Tuple| changes.push((t.clone(), 0));
                let (rows, work) = (store.rows_mut(), &mut report.work);
                refresh_text(rows, &cols, doc, &self.pattern, &text_roots, work, publish);
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
            let work = &mut report.work;
            if has_inserts {
                maintain_lattice(&ctx, &plus, &tables.snowcaps, &mut self.snowcaps, work);
            }
            for m in self.snowcaps.iter_mut().filter(|_| text_changed) {
                let cols = m.cols();
                refresh_text(&mut m.rel.rows, &cols, doc, &self.pattern, &text_roots, work, |_| ());
            }
        });
        report.timings.update_lattice = t_lat1 + t_lat2;

        report
    }

    /// The recomputation arm of [`Self::finish`], for a commit that may
    /// have flipped a value predicate: the store is rebuilt by `e_v` over
    /// the post-state, and the Δ is one merge of the old rows with the
    /// new — each key that lost derivations at `c_new − c_old` carrying
    /// its old tuple (moved into the entry), each key that gained some at
    /// `c_new − c_old` carrying its new contents, and each post-commit
    /// row whose `val` / `cont` column lies at or above a text root at
    /// weight 0 ([`refresh_text`]'s rule). The counters follow the merge,
    /// so they net a key's losses against its gains. The snowcaps are
    /// evaluated afresh with the store, in the same evaluation
    /// ([`Self::materialize`]), all of it timed as the execution.
    fn recompute_commit(
        &mut self,
        doc: &Document,
        text_roots: &DeweyForest,
        report: &mut UpdateReport,
    ) {
        report.recomputed = true;
        let pattern = &self.pattern;
        let (_, t_exec) = timed(|| {
            let (fresh, snowcaps) = Self::materialize(doc, pattern, self.strategy);
            self.snowcaps = snowcaps;
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
            report.delta = Arc::new(ViewDelta::new(changes));
        });
        report.timings.execute_update = t_exec;
    }
}

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

/// *Update Lattice*, the gains (Proposition 3.13): every snowcap a Δ⁺
/// reaches gains the bindings of its own terms, whose R-parts start from
/// the strictly smaller snowcaps. Those must hold the old surviving state
/// — without the inserted bindings — so gains are taken in decreasing
/// size (none has gained yet): the term bags stay disjoint. The rows are
/// merged in place through the snowcap's row order, so the work follows
/// |Δ|. The snowcap's own terms are pruned first: when none survives the
/// ID witnesses — the insertion targets lie under none of the snowcap's
/// ancestors — the snowcap gains nothing. The losses need no terms: a
/// deletion takes out by range every row that binds a deleted node
/// ([`MaterializedSnowcap::remove_under`]). The bindings gained are
/// counted in `work`, as emitted.
fn maintain_lattice(
    ctx: &TermContext<'_>,
    side: &DeltaSide<'_>,
    tables: &[Vec<Term>],
    snowcaps: &mut [MaterializedSnowcap],
    work: &mut Work,
) {
    for i in (0..snowcaps.len()).rev() {
        let (smaller, rest) = snowcaps.split_at_mut(i);
        let m = &mut rest[0];
        if m.nodes.iter().all(|&n| side.is_empty(n)) {
            continue;
        }
        let (own, _) = terms(ctx, side, &tables[i], &m.nodes);
        if !own.is_empty() {
            let gained = eval(ctx, side, &m.nodes, &own, smaller);
            work.tuples += gained.len() as u64;
            m.absorb(gained);
        }
    }
}

/// *Execute Update*, the store patch: projects gained (`Plus`) or lost
/// (`Minus`) bindings to the view — `e_v`, so counted and in the store's
/// order — signs the counts and hands the run to the store's writer,
/// mirroring it into the report's counters and the commit's Δ. The
/// bindings are counted as emitted, the run's rows as patched.
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
    report.work.tuples += bindings.len() as u64;
    report.work.rows += (changes.len() - at) as u64;
    let (entered, left) = store.patch(&changes[at..]);
    report.tuples_added += entered;
    report.tuples_removed += left;
}

/// What [`MaintenanceEngine::prepare`] hands [`MaintenanceEngine::finish`]:
/// nothing. Kept only because `benchmark/` calls the pair.
pub struct PreparedUpdate;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiViewEngine;
    use xivm_pattern::compile::{compile_plan_over, view_tuples};
    use xivm_pattern::parse_pattern;
    use xivm_update::{apply_pul, compute_pul};
    use xivm_xml::{parse_document, NodeId};

    /// One view hosted alone, as every caller outside the façade hosts
    /// it: a one-view [`MultiViewEngine`], the product's step.
    fn hosted(doc: &Document, pattern: &TreePattern, strategy: SnowcapStrategy) -> MultiViewEngine {
        MultiViewEngine::new(doc, [(String::new(), pattern.clone(), strategy)])
    }

    /// The hosted view.
    fn view(host: &MultiViewEngine) -> &MaintenanceEngine {
        host.get(0).expect("one view").1
    }

    /// One commit of `pul` through the host: the view's report.
    fn propagate(host: &mut MultiViewEngine, doc: &mut Document, pul: &Pul) -> UpdateReport {
        host.propagate_pul(doc, pul).unwrap().swap_remove(0).1
    }

    /// One commit of the statement `stmt` through the host.
    fn apply(host: &mut MultiViewEngine, doc: &mut Document, stmt: &str) -> UpdateReport {
        let pul = pul_of(doc, stmt);
        propagate(host, doc, &pul)
    }

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
        let mut host = hosted(&doc, &p, strategy);
        let mut last = UpdateReport::default();
        for s in stmts {
            last = apply(&mut host, &mut doc, s);
            let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
            assert!(
                view(&host).store().same_content_as(&expected),
                "{pattern} after {s}:\n{}",
                view(&host).store().diff_description(&expected)
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
                let mut host = hosted(&doc, &p, strategy);
                for s in ["insert <t>y</t> into //c", "insert <b/> into /a"] {
                    apply(&mut host, &mut doc, s);
                }
                let engine = view(&host);
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
                let mut host = hosted(&doc, &p, strategy);
                for s in script {
                    apply(&mut host, &mut doc, s);
                    check(view(&host), &doc, s);
                }
                // A sequential transaction's PUL that deletes part of
                // its own insertion: those rows were never gained, so
                // they are not lost either.
                let mut pul = compute_pul(&doc, &stmt("insert <c><b k=\"x\"/><b/></c> into //a"));
                let mut scratch = doc.clone();
                apply_pul(&mut scratch, &pul).unwrap();
                pul.ops.extend(compute_pul(&scratch, &stmt("delete //b[@k=\"x\"]")).ops);
                propagate(&mut host, &mut doc, &pul);
                check(view(&host), &doc, "insert, then delete of the inserted");
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
        let mut host = hosted(&doc, &p, SnowcapStrategy::MinimalChain);
        let stmt = |s: &str| xivm_update::statement::parse_statement(s).unwrap();
        let mut pul = compute_pul(&doc, &stmt("insert <x><b/><b/></x> into //a"));
        let mut scratch = doc.clone();
        apply_pul(&mut scratch, &pul).unwrap();
        pul.ops.extend(compute_pul(&scratch, &stmt("delete //x/b")).ops);
        let report = propagate(&mut host, &mut doc, &pul);
        assert_eq!(xivm_xml::serialize_document(&doc), "<r><a><b/><x/></a></r>");
        assert_eq!((report.derivations_added, report.derivations_removed), (0, 0));
        let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
        assert!(view(&host).store().identical_to(&expected));
    }

    /// The dynamic relevance exit: taken exactly when no pattern label
    /// occurs in the update and no stored text lies above it — and then
    /// nothing of the engine moves, not even a snapshot-shared store.
    #[test]
    fn irrelevant_updates_exit_before_any_per_view_work() {
        let doc_xml = "<r><a><b>x</b><z/></a><q><w/></q></r>";
        let mut doc = parse_document(doc_xml).unwrap();
        let p = parse_pattern("//a{id}//b{id,val}").unwrap();
        let mut host = hosted(&doc, &p, SnowcapStrategy::MinimalChain);
        let held = view(&host).store_arc();
        let mut step = |host: &mut MultiViewEngine, s: &str| {
            let report = apply(host, &mut doc, s);
            let expected = ViewStore::from_counted(&p, view_tuples(&doc, &p));
            assert!(view(host).store().same_content_as(&expected), "after {s}");
            report
        };
        // no a, no b, and no b above the roots: exit
        for s in ["insert <w><y/></w> into //q", "delete //w", "insert <y/> into //z"] {
            let r = step(&mut host, s);
            assert!(r.irrelevant && r.delta.is_empty(), "{s}");
            assert_eq!(r.insert_prune.before + r.delete_prune.before, 0, "{s}: no terms");
        }
        assert!(Arc::ptr_eq(&held, &view(&host).store_arc()), "a held store was not copied");
        assert!(view(&host).term_tables.is_none(), "no table was built for exits");
        // a pattern label in the forest, in the deleted subtree, or
        // stored text above the root: no exit
        let r = step(&mut host, "insert <b>y</b> into //q");
        assert!(!r.irrelevant && r.delta.is_empty(), "a b outside any a: pruned, not exited");
        // the b deleted again: no row binds it, and the ranges exit —
        // after the {a} snowcap was searched, which the lattice phase
        // is charged
        let r = step(&mut host, "delete //q");
        assert!(r.irrelevant);
        assert!(!r.timings.update_lattice.is_zero(), "the snowcap search is timed");
        let r = step(&mut host, "insert <y>z</y> into //a/b");
        assert!(!r.irrelevant);
        assert_eq!(r.tuples_modified, 1, "stored val of b grew");
        assert!(!Arc::ptr_eq(&held, &view(&host).store_arc()));
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(SnowcapStrategy::MinimalChain.name(), "snowcaps");
        assert_eq!(SnowcapStrategy::LeavesOnly.name(), "leaves");
        assert_eq!(SnowcapStrategy::AllSnowcaps.name(), "all-snowcaps");
    }

    const STRATEGIES: [SnowcapStrategy; 3] =
        [SnowcapStrategy::MinimalChain, SnowcapStrategy::LeavesOnly, SnowcapStrategy::AllSnowcaps];

    /// Runs `pul` over `doc` under `pattern` and checks what it did
    /// against the references: the store is identical to a recomputation
    /// (`recompute_store`'s) and holds the keys and counts of the
    /// embedding oracle, the Δ replays onto the held store, its weights
    /// and the store's size are the report's counters, each loss is what
    /// its key lost (the commits here only delete), and every snowcap is
    /// a fresh one, row for row. Returns the report.
    fn one_arm(
        doc: &Document,
        pattern: &TreePattern,
        pul: &Pul,
        strategy: SnowcapStrategy,
    ) -> UpdateReport {
        let mut doc = doc.clone();
        let mut host = hosted(&doc, pattern, strategy);
        let held = view(&host).store_arc();
        let report = propagate(&mut host, &mut doc, pul);
        let engine = view(&host);
        let what = format!("{} under {strategy:?}", pattern.to_text());
        let fresh = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
        let store = engine.store();
        assert!(
            store.identical_to(fresh.store()),
            "{what}:\n{}",
            store.diff_description(fresh.store())
        );
        let keys: Vec<_> = store.cursor().map(|(t, c)| (t.id_key(), c)).collect();
        assert_eq!(keys, xivm_pattern::embed::view_tuples_by_embedding(&doc, pattern), "{what}");
        let mut replayed = (*held).clone();
        report.delta.replay(&mut replayed);
        assert!(replayed.identical_to(store), "{what}: the Δ replays");
        let rows = report.delta.rows();
        let weights = |sign: i64| rows.iter().map(|(_, w)| (w * sign).max(0) as u64).sum::<u64>();
        let counted = (report.derivations_added, report.derivations_removed);
        assert_eq!((weights(1), weights(-1)), counted, "{what}: Σ weights");
        let net = report.tuples_added as i64 - report.tuples_removed as i64;
        assert_eq!(net, store.len() as i64 - held.len() as i64, "{what}: tuples");
        // a loss takes at most the derivations its key held, and all of
        // them when the key left
        for (tuple, weight) in rows.iter().filter(|(_, w)| *w < 0) {
            let was = held.get(tuple).map_or(0, |(_, c)| c);
            let is = store.get(tuple).map_or(0, |(_, c)| c);
            assert_eq!(weight.unsigned_abs(), was - is, "{what}: {:?}", tuple.id_key());
        }
        for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
            assert_eq!(m.rel.rows, f.rel.rows, "{what} {:?}", m.nodes);
        }
        report
    }

    fn pul_of(doc: &Document, stmt: &str) -> Pul {
        compute_pul(doc, &xivm_update::statement::parse_statement(stmt).unwrap())
    }

    /// The 21 Appendix A deletes × the 7 catalog views, under every
    /// strategy, on a small XMark document that first took each
    /// update's insertion (nested `name`s and `increase`s, as the
    /// benchmark runs them): every commit agrees with the references —
    /// among them commits that thinned a view by range alone (no witness
    /// term evaluated), and witness terms that survived their pruning.
    #[test]
    fn the_appendix_a_deletes_agree_with_the_references() {
        let base = xivm_xmark::generate_sized(12 * 1024);
        let (mut by_range, mut witnessed) = (0, 0);
        for update in xivm_xmark::all_updates() {
            let mut doc = base.clone();
            let insert = compute_pul(&doc, &update.insert_stmt());
            apply_pul(&mut doc, &insert).unwrap();
            let pul = compute_pul(&doc, &update.delete_stmt());
            for view in xivm_xmark::VIEW_NAMES {
                let pattern = xivm_xmark::view_pattern(view);
                for strategy in STRATEGIES {
                    let report = one_arm(&doc, &pattern, &pul, strategy);
                    let bound_only = report.delete_prune.after_id_reasoning == 0;
                    by_range += usize::from(bound_only && report.tuples_removed > 0);
                    witnessed += report.delete_prune.after_id_reasoning;
                }
            }
        }
        assert!(by_range > 0 && witnessed > 0, "by range {by_range}, witness terms {witnessed}");
    }

    /// Figure 12-sized cases with the most to get right: `val` / `cont`
    /// columns above the deleted roots (weight-0 entries), a value
    /// predicate, nested text roots, counts that drop without the tuple
    /// leaving, a stored column below an unstored one, witness branches
    /// beside stored ones, sibling stored columns (Q13's shape), a
    /// wildcard. None takes the recomputation, and each loses something.
    #[test]
    fn deletions_on_small_documents_agree_with_the_references() {
        let nested = "<r><a><a><b>x</b><c>y</c></a><b/><c>z</c></a><a><b/></a></r>";
        let cases = [
            (FIG12, "//a{id}[//c{id}]//b{id}", "delete /a/f/c"),
            (FIG12, "//a{id}[//c{id}]//b{id}", "delete //b"),
            (FIG12, "//a{id,cont}[//b]", "delete //c"),
            (FIG12, "//a{id}[//c]//b{id}", "delete //c"),
            (FIG12, "//a[//c]//b{id}", "delete /a/f"),
            (nested, "//a{id,cont}//b{id}", "delete //c"),
            (nested, "//a{id,val}[//b]", "delete //b"),
            (nested, "//r{id}//a{id,val}/b{id,cont}", "delete //a/a"),
            (nested, "//r{id}[//b{id,val}][//c{id,cont}]", "delete //a/a/c"),
            (FIG12, "//a{id}[//b{id,val}][//c{id,cont}]", "delete /a/f/c/b"),
            (nested, "//r{id}/*{id}//c{id,val}", "delete //a/a"),
            ("<a><b><c>x</c><d>z</d></b></a>", "//b{id,val}[//c{id,val}]", "delete //d"),
            ("<r><a>5<b/></a><a>3<b/></a><t/></r>", "//a{id,val}[val=\"5\"]//b{id}", "delete //b"),
        ];
        for (doc_xml, pattern, stmt) in cases {
            let doc = parse_document(doc_xml).unwrap();
            let pattern = parse_pattern(pattern).unwrap();
            for strategy in STRATEGIES {
                let report = one_arm(&doc, &pattern, &pul_of(&doc, stmt), strategy);
                assert!(!report.recomputed && !report.delta.is_empty(), "{stmt} on {doc_xml}");
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
                let mut host = hosted(&doc, &pattern, strategy);
                let held = view(&host).store_arc();
                let report = propagate(&mut host, &mut doc, &pul);
                let engine = view(&host);
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

    /// A deletion visits the rows it takes and nothing more: deleting
    /// the items' names, which no row binds, examines no store or
    /// snowcap row one by one (binary searches aside) and leaves every
    /// snowcap as it was; deleting the persons' names examines a block
    /// per person and the rows it takes (a name outside both keeps the
    /// label alive, or every row binding one would go unsearched).
    #[test]
    fn a_deletion_examines_only_the_rows_it_takes() {
        let person = |i| format!("<person><name>p{i}</name><email/></person>");
        let item = |i| format!("<item><name>i{i}</name></item>");
        let xml = format!(
            "<site><name/><people>{}</people><items>{}</items></site>",
            (0..6).map(person).collect::<String>(),
            (0..6).map(item).collect::<String>()
        );
        let pattern = parse_pattern("//person{id}[//name{id}]//email{id}").unwrap();
        let rows = |e: &MaintenanceEngine| {
            e.store().len() + e.snowcaps().iter().map(|m| m.rel.len()).sum::<usize>()
        };
        for strategy in [SnowcapStrategy::MinimalChain, SnowcapStrategy::AllSnowcaps] {
            let mut doc = parse_document(&xml).unwrap();
            let mut host = hosted(&doc, &pattern, strategy);
            let before: Vec<_> =
                view(&host).snowcaps().iter().map(|m| m.rel.rows.clone()).collect();
            let report = apply(&mut host, &mut doc, "delete //item/name");
            assert!(report.delta.is_empty() && report.irrelevant, "{strategy:?}");
            assert_eq!(report.work.rows, 0, "{strategy:?}: no row visited");
            for (m, rows) in view(&host).snowcaps().iter().zip(&before) {
                assert_eq!(&m.rel.rows, rows, "{strategy:?} {:?}", m.nodes);
            }
            let held = rows(view(&host));
            let report = apply(&mut host, &mut doc, "delete //person/name");
            let taken = (held - rows(view(&host))) as u64;
            assert_eq!(taken, 12, "{strategy:?}: six store rows and six snowcap rows");
            // per deleted name, one block of one row in the store: the
            // person's, searched for the name column (the email column
            // lost no node, and is not searched)
            assert_eq!(report.work.rows, taken + 6, "{strategy:?}");
            let fresh = MaintenanceEngine::new(&doc, pattern.clone(), strategy);
            for (m, f) in view(&host).snowcaps().iter().zip(fresh.snowcaps()) {
                assert_eq!(m.rel.rows, f.rel.rows, "{strategy:?} {:?}", m.nodes);
            }
        }
    }

    /// Cost as counts: deleting one person by `@id` from XMark documents
    /// of 16 KB and 256 KB under the seven catalog views examines the
    /// same store and snowcap rows at both sizes — the rows it takes out;
    /// only the binary searches grow with the document.
    #[test]
    fn a_point_deletion_examines_as_many_rows_at_every_size() {
        let examined = |bytes| {
            // the first person without a homepage: one name, in Q1's
            // view and not in Q17's, at every size
            let doc = xivm_xmark::generate_sized(bytes);
            let homepage = doc.label_id("homepage");
            let persons = doc.canonical_nodes_named("person");
            let bare = |&p: &NodeId| {
                doc.children_of(p).iter().all(|&c| Some(doc.node(c).label) != homepage)
            };
            let i = persons.iter().position(bare).unwrap();
            let pul = pul_of(&doc, &format!("delete /site/people/person[@id=\"person{i}\"]"));
            assert_eq!(pul.ops.len(), 1);
            let examined = xivm_xmark::VIEW_NAMES.map(|view| {
                let pattern = xivm_xmark::view_pattern(view);
                let mut doc = doc.clone();
                let mut host = hosted(&doc, &pattern, SnowcapStrategy::MinimalChain);
                propagate(&mut host, &mut doc, &pul).work.rows
            });
            examined.iter().sum::<u64>()
        };
        // Q1: the name row, and the person's rows of the {…, person}
        // and {…, person, @id} snowcaps; Q17: its {…, person} row
        assert_eq!(examined(16 * 1024), 4);
        assert_eq!(examined(256 * 1024), 4);
    }

    /// One evaluation materializes what evaluating each relation on its
    /// own does: the store is `view_tuples` row for row, and each chain
    /// snowcap is its pre-order prefix's own plan, in the snowcap's
    /// order and with the prefix's columns — on the catalog over 64 KB
    /// of XMark, and on `//` edges, a wildcard, value predicates, an
    /// anchored root, `val` / `cont` columns and a label the document
    /// lacks. A fresh engine under the chain equals its recomputation.
    /// A prefix that is empty at set-up keeps its columns: two commits
    /// fill the `{a, x}` snowcap, then start a term from it.
    #[test]
    fn one_evaluation_materializes_the_view_and_each_chain_prefix() {
        let xmark = xivm_xmark::generate_sized(64 * 1024);
        let small =
            parse_document("<r><a>5<b><c>x</c><d/></b><c>y</c></a><a>3<b/><b><c>5</c></b></a></r>")
                .unwrap();
        let mut cases: Vec<_> =
            xivm_xmark::VIEW_NAMES.map(|v| (&xmark, xivm_xmark::view_pattern(v))).into();
        let empty_prefix = parse_pattern("//a{id}//x{id}//c{id,val}").unwrap();
        for pattern in [
            "//a{id}//b{id}//c{id}",
            "//a{id}[//*{id}]//c{id,cont}",
            "//a{id,val}[val=\"5\"]//b{id}[//c{id,val}]",
            "//*{id}[val=\"5\"]",
            "/r{id}/a{id,cont}[//d]/b{id}",
            "//r[//b[//c{val}]]//a{id}",
            "//b{cont}",
        ] {
            cases.push((&small, parse_pattern(pattern).unwrap()));
        }
        cases.push((&small, empty_prefix.clone()));
        let fresh = |doc: &Document, pattern: &TreePattern, engine: &MaintenanceEngine| {
            let what = pattern.to_text();
            let order = pattern.preorder();
            let expected = ViewStore::from_counted(pattern, view_tuples(doc, pattern));
            assert!(engine.store().identical_to(&expected), "{what}: the store");
            assert_eq!(engine.snowcaps().len(), order.len() - 1, "{what}");
            for (i, m) in engine.snowcaps().iter().enumerate() {
                let prefix = &order[..=i];
                let plan =
                    compile_plan_over(pattern, prefix, |n| canonical_relation(doc, pattern, n));
                let mut rows = plan.eval().rows;
                rows.sort_by(xivm_algebra::Tuple::doc_cmp_rev);
                assert_eq!(m.nodes, prefix, "{what}");
                assert_eq!(m.rel.schema.arity(), prefix.len(), "{what}: snowcap {prefix:?}");
                assert!(m.rel.rows == rows, "{what}: snowcap {prefix:?}");
            }
        };
        for (doc, pattern) in cases {
            let mut engine =
                MaintenanceEngine::new(doc, pattern.clone(), SnowcapStrategy::MinimalChain);
            fresh(doc, &pattern, &engine);
            engine.recompute(doc);
            fresh(doc, &pattern, &engine);
        }
        let mut doc = small.clone();
        let mut host = hosted(&doc, &empty_prefix, SnowcapStrategy::MinimalChain);
        assert!(view(&host).snowcaps()[1].rel.is_empty(), "no x: {{a, x}} is empty");
        for stmt in ["insert <x><c>5</c></x> into //a[c = \"y\"]", "insert <c>7</c> into //x"] {
            let report = apply(&mut host, &mut doc, stmt);
            assert_eq!(report.tuples_added, 1, "{stmt}");
            fresh(&doc, &empty_prefix, view(&host));
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
                let mut host = hosted(&doc, &pattern, strategy);
                let held = view(&host).store_arc();
                let report = propagate(&mut host, &mut doc, &pul);
                let engine = view(&host);
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

    /// Which commits the flip rule sends to the recomputation: those that
    /// insert a text node at or under a node of a predicate's label, or
    /// remove an old one from strictly under it — any element's, under a
    /// wildcard predicate. Each row's PUL is its statements' operations,
    /// all read off the seed and unreduced, and the terms forced wherever
    /// the rule lets them run; the store ends as a fresh engine's.
    #[test]
    fn the_flip_rule_recomputes_exactly_where_text_moved_under_a_predicate_label() {
        const D: &str = "//d{id}[val=\"5\"]";
        let rows: [(&str, &str, &[&str], bool); 14] = [
            ("<r><d>5<x/></d></r>", D, &["insert <t>1</t> into //d"], true),
            ("<r><d>5<x/></d></r>", D, &["insert <y/> into //d"], false),
            ("<r><d>5<x>1</x></d></r>", D, &["delete //x"], true),
            (
                "<r><a>5<b/></a><a>3<b/></a><t/></r>",
                "//a{id,val}[val=\"5\"]//b{id}",
                &["delete //b"],
                false,
            ),
            ("<r><d>5<x>1</x></d><d>5</d></r>", D, &["delete //d"], false),
            ("<r><d>5<x>1</x></d><d>5</d></r>", D, &["delete //x", "delete /r/d"], true),
            ("<r><d>5<x/></d><d>5</d></r>", D, &["delete //x", "delete /r/d"], false),
            ("<r><d>5<x/></d><e><d>5</d></e></r>", "//*{id}[val=\"5\"]", &["delete //e/d"], true),
            (
                "<r><d>5<x/></d><e><d>5</d></e></r>",
                "//*{id}[val=\"5\"]",
                &["insert <y/> into //e"],
                false,
            ),
            // the chain cases: no predicate label on a chain, or no text
            ("<r><d>5<x/></d><e><d>5</d></e></r>", D, &["delete //e"], false),
            ("<r><d>5<x/></d><e><d>5</d></e></r>", D, &["insert <y/> into //e"], false),
            ("<r><d>5<x/></d><e><d>5</d></e></r>", D, &["insert <y>5</y> into //e"], false),
            ("<r><d>5<x/></d><e><d>5</d></e></r>", D, &["delete //d/x"], false),
            ("<r><d>5<x/></d><e><d>5</d></e></r>", D, &["insert <y>1</y> into //e/d"], true),
        ];
        for (doc_xml, pattern, stmts, recomputes) in rows {
            let pattern = parse_pattern(pattern).unwrap();
            let mut doc = parse_document(doc_xml).unwrap();
            let pul = Pul::new(stmts.iter().flat_map(|s| pul_of(&doc, s).ops).collect());
            let mut host = hosted(&doc, &pattern, SnowcapStrategy::MinimalChain);
            let report = propagate(&mut host, &mut doc, &pul);
            let engine = view(&host);
            let what = format!("{stmts:?} on {doc_xml} under {}", pattern.to_text());
            assert_eq!(report.recomputed, recomputes, "{what}");
            let fresh = MaintenanceEngine::new(&doc, pattern, SnowcapStrategy::MinimalChain);
            assert!(engine.store().identical_to(fresh.store()), "{what}");
        }
    }
}
