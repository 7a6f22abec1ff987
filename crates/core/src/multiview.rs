//! Maintaining several materialized views over one document.
//!
//! Section 3.5 notes that "in a context where several views are
//! materialized and some snowcaps may be shared, it makes sense to sum
//! up the respective maintenance costs" — the first step of which is
//! sharing the per-update work that does not depend on the view: the
//! PUL is computed once and the document is updated once; each view
//! then runs only its own Δ-table extraction and term evaluation.
//!
//! [`MultiViewEngine`] is the low-level multi-view host; the
//! [`crate::database::Database`] façade owns one (together with the
//! document) and is the recommended entry point. Its one job is the
//! shared step — apply the PUL once, then finish every view; planning,
//! document images and sealing are the executor's (`executor.rs`).

use crate::engine::{MaintenanceEngine, PreparedUpdate, SnowcapStrategy, UpdateReport};
use crate::error::Error;
use crate::parallel;
use crate::timing::timed;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use xivm_pattern::TreePattern;
use xivm_update::{apply_pul_for, DeltaLabels, Pul};
use xivm_xml::{Document, LabelInterner, Work};

/// Is view `i` left out of the step under `skip` (`None` = no mask)?
fn masked(skip: Option<&[bool]>, i: usize) -> bool {
    skip.is_some_and(|m| m.get(i).copied().unwrap_or(false))
}

/// A set of named views maintained together.
///
/// Views are looked up by name through an index map; iteration orders
/// (`names()`, per-view reports) remain the declaration order.
pub struct MultiViewEngine {
    views: Vec<MaintenanceEngine>,
    /// View names, declaration order — shared with every sealed
    /// [`Commit`](crate::commit::Commit) instead of cloned per commit.
    names: Arc<[String]>,
    /// Name → position in `views`. On duplicate names the first
    /// declaration wins, matching the previous linear-scan behavior.
    index: HashMap<String, usize>,
    /// The labels the unmasked views read, as last resolved.
    wanted: Option<Wanted>,
}

/// [`DeltaLabels::of`] the views `skip` leaves in, resolved against the
/// label interner `labels` points at. The `Weak` keeps that allocation
/// from being reused, and while it is held a new label moves the
/// interner (`Arc::make_mut`): the same address is the same labels.
struct Wanted {
    labels: Weak<LabelInterner>,
    skip: Option<Vec<bool>>,
    delta_labels: DeltaLabels,
}

impl MultiViewEngine {
    /// Materializes every view over `doc`.
    pub fn new(
        doc: &Document,
        views: impl IntoIterator<Item = (String, TreePattern, SnowcapStrategy)>,
    ) -> Self {
        Self::from_engines(
            views
                .into_iter()
                .map(|(name, pattern, strategy)| {
                    (name, MaintenanceEngine::new(doc, pattern, strategy))
                })
                .collect(),
        )
    }

    /// Wraps already-materialized engines (used by the `Database`
    /// builder, whose views may mix strategies and cost-based choices).
    pub fn from_engines(views: Vec<(String, MaintenanceEngine)>) -> Self {
        let (names, views): (Vec<String>, Vec<MaintenanceEngine>) = views.into_iter().unzip();
        let mut index = HashMap::with_capacity(views.len());
        for (i, name) in names.iter().enumerate() {
            index.entry(name.clone()).or_insert(i);
        }
        MultiViewEngine { views, names: names.into(), index, wanted: None }
    }

    /// Accepted and ignored: the views propagate one after another on
    /// the calling thread. Kept only because `benchmark/` calls it; the
    /// ROADMAP's `[benchmark]` item removes it.
    pub fn set_workers(&mut self, _workers: usize) {}

    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Position of a view in declaration order.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    pub fn view(&self, name: &str) -> Option<&MaintenanceEngine> {
        self.position(name).map(|i| &self.views[i])
    }

    /// The view at a declaration-order position.
    pub fn get(&self, i: usize) -> Option<(&str, &MaintenanceEngine)> {
        self.views.get(i).map(|e| (self.names[i].as_str(), e))
    }

    /// View names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// The view names behind their shared `Arc` (what every sealed
    /// commit carries).
    pub(crate) fn shared_names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// Every view's store behind its `Arc`, in declaration order —
    /// the capture step of [`crate::snapshot::DatabaseSnapshot`].
    /// O(views): no tuple is copied.
    pub(crate) fn store_arcs(&self) -> Vec<(String, Arc<crate::view_store::ViewStore>)> {
        self.names
            .iter()
            .cloned()
            .zip(self.views.iter().map(MaintenanceEngine::store_arc))
            .collect()
    }

    /// Rebuilds every view's store and snowcaps from scratch against
    /// `doc`. This is the recovery path of last resort: after a panic
    /// mid-window the per-view stores may hold a mix of pre- and
    /// post-fault states, so the async service rolls the document back
    /// to the last sealed commit and recomputes everything.
    pub(crate) fn recompute_all(&mut self, doc: &Document) {
        for engine in &mut self.views {
            engine.recompute(doc);
        }
    }

    /// Propagates an already-computed (possibly optimizer-reduced,
    /// Section 5) PUL to all views in one shared pass: one document
    /// update, then each view's own propagation. Reports come back in
    /// declaration order. The one public way to apply a PUL and finish
    /// views outside the façade: one call of `propagate`, the step every
    /// façade commit takes. A statement's PUL is
    /// [`xivm_update::compute_pul`]'s; stamping its time as
    /// `find_target_nodes` is the caller's.
    pub fn propagate_pul(
        &mut self,
        doc: &mut Document,
        pul: &Pul,
    ) -> Result<Vec<(String, UpdateReport)>, Error> {
        let (reports, _) = self.propagate(doc, pul, None)?;
        Ok(self.named(reports))
    }

    /// Declaration-ordered reports, paired with the view names.
    fn named(&self, reports: Vec<UpdateReport>) -> Vec<(String, UpdateReport)> {
        self.names.iter().cloned().zip(reports).collect()
    }

    /// The one propagation entry: one commit, in place over `doc`. One
    /// `apply_pul_for` on `doc` itself — the commit's one read of the
    /// pre-apply document and the one Δ⁺ and Δ⁻ extraction every view
    /// reads, for the labels the views' patterns name
    /// ([`DeltaLabels::of`], resolved again only when the mask or the
    /// label interner changed) — then every view's `finish` against the
    /// result, one plain loop over the views in declaration order.
    /// `skip[i]` leaves view `i` out: its `finish` never runs, its
    /// labels are not extracted, and it reports
    /// `UpdateReport::default()`, which the executor replaces with the
    /// deferred marker or a refresh's report.
    ///
    /// Takes no document image. Returns the per-view reports, the apply
    /// time stamped, and the apply's work.
    pub(crate) fn propagate(
        &mut self,
        doc: &mut Document,
        pul: &Pul,
        skip: Option<&[bool]>,
    ) -> Result<(Vec<UpdateReport>, Work), Error> {
        #[cfg(any(test, feature = "fault-inject"))]
        crate::fault::prepare_point();
        let (apply_res, t_apply) = timed(|| {
            let fresh = self.wanted.as_ref().is_some_and(|w| {
                std::ptr::eq(w.labels.as_ptr(), doc.labels()) && w.skip.as_deref() == skip
            });
            if !fresh {
                let unmasked = self.views.iter().enumerate().filter(|&(i, _)| !masked(skip, i));
                self.wanted = Some(Wanted {
                    labels: Arc::downgrade(&doc.shared_labels()),
                    skip: skip.map(<[bool]>::to_vec),
                    delta_labels: DeltaLabels::of(
                        doc,
                        unmasked.map(|(_, engine)| engine.pattern()),
                    ),
                });
            }
            let wanted = &self.wanted.as_ref().expect("resolved above").delta_labels;
            apply_pul_for(doc, pul, wanted)
        });
        let apply_res = apply_res?;
        let reports = self
            .views
            .iter_mut()
            .enumerate()
            .map(|(i, engine)| {
                let mut report = if masked(skip, i) {
                    UpdateReport::default()
                } else {
                    engine.finish(doc, &apply_res, PreparedUpdate)
                };
                report.timings.apply_document = t_apply;
                report
            })
            .collect();
        Ok((reports, apply_res.work))
    }

    /// The Figure 15 partition of the views under `pul`: views in
    /// distinct groups have order-independent PUL projections, views
    /// sharing a group care about two distinct conflicting operations
    /// of it ([`crate::parallel::schedule_groups`]; the per-view op
    /// projections are on [`crate::parallel::PropagationPlan`]).
    /// **Analysis only — propagation does not consult it**: every view
    /// writes only its own state, so the views propagate in
    /// declaration order whatever this returns.
    pub fn partition(&self, doc: &Document, pul: &Pul) -> Vec<Vec<usize>> {
        let patterns: Vec<&TreePattern> = self.views.iter().map(|e| e.pattern()).collect();
        parallel::schedule_groups(doc, pul, &patterns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_store::ViewStore;
    use xivm_pattern::compile::view_tuples;
    use xivm_pattern::parse_pattern;
    use xivm_update::statement::parse_statement;
    use xivm_update::{compute_pul, UpdateStatement};
    use xivm_xml::parse_document;

    /// One statement through the host: its PUL, then one propagation.
    fn apply(
        engine: &mut MultiViewEngine,
        doc: &mut Document,
        stmt: &UpdateStatement,
    ) -> Vec<(String, UpdateReport)> {
        let pul = compute_pul(doc, stmt);
        engine.propagate_pul(doc, &pul).unwrap()
    }

    fn multi() -> (Document, MultiViewEngine) {
        let doc = parse_document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>").unwrap();
        let engine = MultiViewEngine::new(
            &doc,
            [
                (
                    "ab".to_owned(),
                    parse_pattern("//a{id}//b{id}").unwrap(),
                    SnowcapStrategy::MinimalChain,
                ),
                (
                    "acb".to_owned(),
                    parse_pattern("//a{id}[//c{id}]//b{id}").unwrap(),
                    SnowcapStrategy::LeavesOnly,
                ),
                (
                    "c_cont".to_owned(),
                    parse_pattern("//c{id,cont}").unwrap(),
                    SnowcapStrategy::MinimalChain,
                ),
            ],
        );
        (doc, engine)
    }

    #[test]
    fn all_views_stay_consistent_under_a_shared_update() {
        let (mut doc, mut engine) = multi();
        assert_eq!(engine.len(), 3);
        for stmt_text in ["delete /a/f/c", "insert <c><b/></c> into /a/f", "delete //b"] {
            let stmt = parse_statement(stmt_text).unwrap();
            let reports = apply(&mut engine, &mut doc, &stmt);
            assert_eq!(reports.len(), 3);
            for name in engine.names() {
                let pattern = engine.view(name).unwrap().pattern().clone();
                let expected = ViewStore::from_counted(&pattern, view_tuples(&doc, &pattern));
                assert!(
                    engine.view(name).unwrap().store().same_content_as(&expected),
                    "view {name} diverged after {stmt_text}"
                );
            }
        }
    }

    #[test]
    fn view_lookup() {
        let (_, engine) = multi();
        assert!(engine.view("ab").is_some());
        assert!(engine.view("nope").is_none());
        assert_eq!(engine.position("c_cont"), Some(2));
        assert_eq!(engine.get(1).map(|(n, _)| n), Some("acb"));
        assert!(!engine.is_empty());
    }

    #[test]
    fn declaration_order_is_preserved_by_names_and_reports() {
        let (mut doc, mut engine) = multi();
        assert_eq!(engine.names(), vec!["ab", "acb", "c_cont"]);
        let stmt = parse_statement("insert <b/> into //c").unwrap();
        let reports = apply(&mut engine, &mut doc, &stmt);
        let order: Vec<&str> = reports.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, vec!["ab", "acb", "c_cont"]);
    }

    /// Three views over a document with two `x` subtrees, for which
    /// [`nlo_pul`] puts the first two views in one Figure 15 group.
    fn grouped() -> (Document, MultiViewEngine) {
        let doc = parse_document("<r><x><y/></x><x><y/></x><z/></r>").unwrap();
        let engine = MultiViewEngine::new(
            &doc,
            ["//x{id}", "//y{id}//w{id}", "//z{id}"]
                .map(|p| (p.to_owned(), parse_pattern(p).unwrap(), SnowcapStrategy::MinimalChain)),
        );
        (doc, engine)
    }

    /// The hand-built PUL of
    /// `parallel::tests::order_dependent_projections_share_a_group`,
    /// on the first `x` of `doc`: `delete //x` (op 0) NLO-conflicts
    /// with `insert <w/> into //y` (op 1) below it.
    fn nlo_pul(doc: &Document) -> Pul {
        let first =
            |text: &str| compute_pul(doc, &parse_statement(text).unwrap()).ops.swap_remove(0);
        Pul::new(vec![first("delete //x"), first("insert <w/> into //y")])
    }

    /// One driven step: mutates the document through the engine and
    /// returns its commits' named, declaration-ordered reports.
    type Drive<'a> =
        Box<dyn Fn(&mut Document, &mut MultiViewEngine) -> Vec<Vec<(String, UpdateReport)>> + 'a>;

    /// Drives a fresh fixture through `steps` and, beside it, each of
    /// its views alone in a one-view engine over its own copy of the
    /// document: documents, reports and stores must agree after every
    /// step — sharing the PUL and the apply changes nothing a view sees.
    fn assert_matches_each_view_alone(
        fixture: fn() -> (Document, MultiViewEngine),
        steps: &[Drive],
    ) {
        let (mut doc, mut shared) = fixture();
        let mut alone: Vec<(Document, MultiViewEngine)> = (0..shared.len())
            .map(|i| {
                let (name, engine) = shared.get(i).unwrap();
                let view = (name.to_owned(), engine.pattern().clone(), engine.strategy());
                (doc.clone(), MultiViewEngine::new(&doc, [view]))
            })
            .collect();
        for (k, step) in steps.iter().enumerate() {
            let reports = step(&mut doc, &mut shared).concat();
            let order: Vec<&str> =
                reports.iter().take(shared.len()).map(|(n, _)| n.as_str()).collect();
            assert_eq!(order, shared.names(), "report order must stay declaration order");
            for (i, (lone_doc, lone)) in alone.iter_mut().enumerate() {
                let lone_reports = step(lone_doc, lone).concat();
                assert_eq!(
                    xivm_xml::serialize_document(&doc),
                    xivm_xml::serialize_document(lone_doc)
                );
                let own = reports.iter().skip(i).step_by(shared.len());
                assert_eq!(own.len(), lone_reports.len());
                for ((n1, r1), (n2, r2)) in own.zip(&lone_reports) {
                    assert_eq!(n1, n2);
                    assert!(r1.same_outcome(r2), "{n1} after step {k}");
                }
                let (name, engine) = lone.get(0).unwrap();
                assert!(
                    shared.view(name).unwrap().store().same_content_as(engine.store()),
                    "view {name} diverged from its lone run after step {k}"
                );
            }
        }
    }

    #[test]
    fn the_shared_pass_matches_each_view_alone() {
        // Single-statement PULs: every view is its own Figure 15 group.
        let statements =
            ["insert <b/> into //c", "delete /a/f/c", "insert <c><b/></c> into /a", "delete //b"]
                .map(|text| parse_statement(text).unwrap());
        let steps: Vec<Drive> = statements
            .iter()
            .map(|stmt| -> Drive { Box::new(move |doc, engine| vec![apply(engine, doc, stmt)]) })
            .collect();
        assert_matches_each_view_alone(multi, &steps);

        // PULs with an internal Figure 15 conflict: `partition` puts the
        // first two views in one group — before the first step and
        // after it — and the view-by-view pass, one step, then two in a
        // row, must not care.
        let (mut doc, mut engine) = grouped();
        for _ in 0..2 {
            let pul = nlo_pul(&doc);
            assert_eq!(engine.partition(&doc, &pul), vec![vec![0, 1], vec![2]]);
            engine.propagate_pul(&mut doc, &pul).unwrap();
        }
        let step = |doc: &mut Document, engine: &mut MultiViewEngine| {
            let pul = nlo_pul(doc);
            engine.propagate_pul(doc, &pul).unwrap()
        };
        let one: Drive = Box::new(move |doc, engine| vec![step(doc, engine)]);
        let two: Drive = Box::new(move |doc, engine| vec![step(doc, engine), step(doc, engine)]);
        assert_matches_each_view_alone(grouped, &[one]);
        assert_matches_each_view_alone(grouped, &[two]);
    }

    #[test]
    fn partition_separates_label_disjoint_views() {
        let (doc, engine) = multi();
        // all three fixture views bind b or c → one shared group for a
        // PUL with distinct conflicting ops is possible, but a plain
        // insert has one op: no distinct conflicting pair, so every
        // view is its own group.
        let stmt = parse_statement("insert <b/> into //c").unwrap();
        let pul = compute_pul(&doc, &stmt);
        let groups = engine.partition(&doc, &pul);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn duplicate_names_keep_the_first_declaration() {
        let doc = parse_document("<a><b/></a>").unwrap();
        let engine = MultiViewEngine::new(
            &doc,
            [
                ("v".to_owned(), parse_pattern("//a{id}").unwrap(), SnowcapStrategy::MinimalChain),
                ("v".to_owned(), parse_pattern("//b{id}").unwrap(), SnowcapStrategy::MinimalChain),
            ],
        );
        assert_eq!(engine.position("v"), Some(0));
        assert_eq!(engine.view("v").unwrap().pattern().to_text(), "//a{id}");
    }
}
