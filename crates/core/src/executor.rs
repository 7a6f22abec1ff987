//! The one commit path: planners turn a submission into a
//! [`CommitPlan`], and one executor — [`DbInner::seal`] — seals it as
//! one commit.
//!
//! [`apply`](DbInner::apply) and
//! [`Transaction::commit`](crate::database::Transaction::commit) seal
//! one batch each, [`refresh`](DbInner::refresh) one over the deferred
//! view's last-maintained image, and the async service
//! ([`crate::service`]) one per submission of each queue it drains, in
//! order. The planners ([`plan_single`], [`plan_sequential`],
//! [`plan_independent`], [`plan_refresh`]) own the paper's §5
//! optimizer — Figure 16 aggregation, Figure 15 conflicts, Figure 14
//! reduction; everything after planning happens here and only here:
//! the deferred mask, the plan's label interner, the pre-image, the
//! in-place propagation
//! ([`MultiViewEngine::propagate`](crate::multiview::MultiViewEngine)),
//! the deferred fold, the deferred markers and the seal. No planner
//! consults the static analyzer: a view a statement cannot touch is
//! skipped by `finish`'s dynamic relevance exit, which needs no DTD.
//!
//! # Who may take a document image
//!
//! A [`Document`] clone held while `apply_pul` runs makes the apply
//! copy every chunk, list and — for a new label — interner it touches,
//! so a commit takes one only for a reader: a deferred batch *being
//! opened* reads the pre-image as its base (one commit per refresh
//! cycle; the image moves into the batch), a refresh replays over a
//! clone of its base, the async service keeps one recovery pre-image
//! per drained queue ([`crate::service`]), and a snapshot is the
//! caller's. Nothing else
//! — not a commit's planning, not a batch already open — holds an image
//! or the live interner across an apply; `executor::tests` pins that
//! as counts.

use crate::commit::Commit;
use crate::database::{DbInner, DeferredPending};
use crate::engine::UpdateReport;
use crate::error::Error;
use crate::subscribe::SubscriptionRegistry;
use crate::timing::timed;
use std::sync::Arc;
use std::time::Duration;
use xivm_pulopt::{aggregate, find_conflicts, integrate, reduce, ConflictPolicy, ReductionTrace};
use xivm_update::{apply_pul_for, compute_pul, DeltaLabels, Pul, UpdateStatement};
use xivm_xml::{serialize_document, Document, LabelInterner};

/// One submission — the unit that seals as one commit — and how its
/// statements compose.
#[derive(Clone, Copy)]
pub(crate) enum Batch<'a> {
    /// One statement, committed without the optimizer (`apply`).
    Single(&'a UpdateStatement),
    /// Statements composed in order, each seeing the previous ones.
    Sequential(&'a [UpdateStatement]),
    /// Statements evaluated against one snapshot under the Figure 15
    /// conflict rules.
    Independent(&'a [UpdateStatement], ConflictPolicy),
    /// The pending batch of the deferred view at this index, folded
    /// over its last-maintained image. Sealed only while one is
    /// pending.
    Refresh(usize),
}

impl<'a> Batch<'a> {
    /// The shape of an async submission: one statement commits like
    /// `apply`, anything else like a sequential transaction.
    pub(crate) fn of(stmts: &'a [UpdateStatement]) -> Self {
        match stmts {
            [stmt] => Batch::Single(stmt),
            many => Batch::Sequential(many),
        }
    }
}

/// What a planner hands the executor: the optimized PUL over the
/// document as of the commit's turn and the commit's counters.
pub(crate) struct CommitPlan {
    pub(crate) pul: Pul,
    pub(crate) statements: usize,
    pub(crate) naive_ops: usize,
    pub(crate) reduction: ReductionTrace,
    /// Find Target Nodes time, stamped on every view's report.
    pub(crate) t_find: Duration,
    /// The interner of the document the PUL's operations were computed
    /// against, when that is not the document they are applied to (a
    /// sequential batch's scratch copy, a refresh's live document).
    /// Structural IDs embed label ids, so the applying document adopts
    /// it first ([`Document::adopt_labels`]): left to intern the new
    /// labels itself, in the order the *aggregated* forests mention
    /// them, it can number them differently and take a later `del` of
    /// the same PUL for a stale ID.
    pub(crate) labels: Option<Arc<LabelInterner>>,
}

impl CommitPlan {
    /// A plan that propagates `pul` as it stands.
    fn of(pul: Pul) -> Self {
        CommitPlan {
            naive_ops: pul.len(),
            pul,
            statements: 0,
            reduction: ReductionTrace::default(),
            t_find: Duration::ZERO,
            labels: None,
        }
    }
}

/// Plans one statement: its PUL (the target lookup, timed once for
/// every view).
fn plan_single(doc: &Document, stmt: &UpdateStatement) -> CommitPlan {
    let (pul, t_find) = timed(|| compute_pul(doc, stmt));
    CommitPlan { statements: 1, t_find, ..CommitPlan::of(pul) }
}

/// Plans a batch with sequential composition: each statement's targets
/// are found on a scratch copy reflecting the previous statements, the
/// per-statement PULs are folded with the Figure 16 aggregation rules
/// into one PUL over the pre-transaction document and reduced
/// (Figure 14).
fn plan_sequential(doc: &Document, stmts: &[UpdateStatement]) -> Result<CommitPlan, Error> {
    // The scratch copy exists only to give *later* statements the
    // evolved state, so it is cloned lazily and never advanced past
    // the second-to-last statement.
    let mut naive_ops = 0usize;
    let mut scratch: Option<Document> = None;
    let mut combined = Pul::default();
    for (i, stmt) in stmts.iter().enumerate() {
        let pul = compute_pul(scratch.as_ref().unwrap_or(doc), stmt);
        if i + 1 < stmts.len() {
            apply_pul_for(scratch.get_or_insert_with(|| doc.clone()), &pul, &DeltaLabels::none())?;
        }
        naive_ops += pul.len();
        combined = if i == 0 { pul } else { aggregate(doc, &combined, &pul).0 };
    }
    let (optimized, reduction) = reduce(&combined);
    Ok(CommitPlan {
        statements: stmts.len(),
        naive_ops,
        reduction,
        labels: scratch.map(|s| s.shared_labels()),
        ..CommitPlan::of(optimized)
    })
}

/// Plans a batch in independent mode: every statement's PUL is
/// computed against the same snapshot, the Figure 15 conflict rules
/// (IO / LO / NLO) are checked under `policy`, and the surviving
/// operations integrate into one reduced PUL.
fn plan_independent(
    doc: &Document,
    stmts: &[UpdateStatement],
    policy: ConflictPolicy,
) -> Result<CommitPlan, Error> {
    let puls: Vec<Pul> = stmts.iter().map(|s| compute_pul(doc, s)).collect();
    let naive_ops = puls.iter().map(Pul::len).sum();
    if policy == ConflictPolicy::Fail {
        let mut conflicts = Vec::new();
        for i in 0..puls.len() {
            for j in i + 1..puls.len() {
                conflicts.extend(find_conflicts(&puls[i], &puls[j]));
            }
        }
        if !conflicts.is_empty() {
            return Err(Error::Conflict(conflicts));
        }
    }
    let mut iter = puls.into_iter();
    let first = iter.next().unwrap_or_default();
    let combined =
        iter.try_fold(first, |acc, next| integrate(&acc, &next, policy).map_err(Error::Conflict))?;
    let (optimized, reduction) = reduce(&combined);
    Ok(CommitPlan { statements: stmts.len(), naive_ops, reduction, ..CommitPlan::of(optimized) })
}

/// Plans a refresh: the deferred batch's PULs reduced (Figure 14),
/// over the batch's base image. The batch was computed commit by
/// commit against the live document, whose interner (`live`) the image
/// therefore adopts.
fn plan_refresh(p: &DeferredPending, live: &Arc<LabelInterner>) -> CommitPlan {
    let (optimized, reduction) = reduce(&p.pul);
    CommitPlan {
        naive_ops: p.naive_ops,
        reduction,
        labels: Some(Arc::clone(live)),
        ..CommitPlan::of(optimized)
    }
}

impl DbInner {
    /// Seals one batch as one commit and returns it with the PUL it
    /// applied. The only place that masks the deferred views, adopts a
    /// plan's label interner, captures a pre-image, propagates, folds
    /// deferred batches and seals.
    ///
    /// Plan against the live document, propagate in place, fold or mark
    /// the deferred views, seal. A batch that fails to plan (a conflict)
    /// or to apply leaves the database untouched (up to `apply_pul`'s
    /// own non-atomicity, which statement validation rules out) and
    /// the error comes back. A [`Batch::Refresh`] is sealed only while
    /// its view has a batch pending.
    pub(crate) fn seal(&mut self, batch: Batch<'_>) -> Result<(Pul, Commit), Error> {
        let DbInner { doc, views, commits, subs, deferred, pending, .. } = self;
        // A refresh replays its batch over the view's last-maintained
        // image, not the live document, masked to exactly its view; a
        // live commit leaves the deferred views out (and folds its PUL
        // into their batches below).
        let (plan, mut image, mask) = match batch {
            Batch::Single(stmt) => (plan_single(doc, stmt), None, None),
            Batch::Sequential(stmts) => (plan_sequential(doc, stmts)?, None, None),
            Batch::Independent(stmts, policy) => {
                (plan_independent(doc, stmts, policy)?, None, None)
            }
            Batch::Refresh(view) => {
                let p = pending[view].as_ref().expect("a refresh seals a pending batch");
                let mask = (0..deferred.len()).map(|j| j != view).collect::<Vec<_>>();
                (plan_refresh(p, &doc.shared_labels()), Some(p.base.clone()), Some(mask))
            }
        };
        let folds = image.is_none() && deferred.contains(&true);
        let skip = if folds { Some(&deferred[..]) } else { mask.as_deref() };
        let target = image.as_mut().unwrap_or(&mut *doc);
        // Structural IDs embed label ids: the applying document takes
        // the interner the PUL was computed under (`CommitPlan::labels`).
        if let Some(labels) = &plan.labels {
            target.adopt_labels(labels);
        }
        // Only a batch this commit opens reads its pre-image: a
        // deferred slot empty now, and a PUL to fold into it.
        let pre = (folds
            && !plan.pul.is_empty()
            && deferred.iter().zip(&*pending).any(|(d, p)| *d && p.is_none()))
        .then(|| target.clone());
        let mut reports = views.propagate(target, &plan.pul, skip)?;
        for report in &mut reports {
            report.timings.find_target_nodes = plan.t_find;
        }
        if let Batch::Refresh(view) = batch {
            // Transaction equivalence (Section 5): replaying the
            // aggregated batch over the base must reconstruct the live
            // document bit-identically, Dewey assignment included.
            debug_assert_eq!(
                image.as_ref().map(serialize_document),
                Some(serialize_document(doc)),
                "aggregated deferred batch must reconstruct the live document"
            );
            let p = pending[view].take().expect("planned from it");
            for (j, report) in reports.iter_mut().enumerate() {
                if j == view {
                    report.coalesced = Some(p.first_seq..=*commits);
                } else {
                    *report = UpdateReport::default();
                }
            }
        } else {
            fold_pending(pending, deferred, pre, &plan.pul, *commits + 1);
            mark_deferred(&mut reports, deferred);
        }
        let commit = seal_commit(commits, subs, views.shared_names(), &plan, reports);
        Ok((plan.pul, commit))
    }
}

/// Folds one sealing commit's PUL into every deferred view's pending
/// batch (Figure 16 aggregation over the batch's base document).
/// `pre` is the document *before* this commit's PUL applied — which
/// the last batch opened here keeps as its base — and `seq` the
/// sequence number the commit is sealing as.
fn fold_pending(
    pending: &mut [Option<DeferredPending>],
    deferred: &[bool],
    mut pre: Option<Document>,
    pul: &Pul,
    seq: u64,
) {
    if pul.is_empty() {
        return; // nothing to replay; the view's store is already right
    }
    let mut empty = pending.iter().zip(deferred).filter(|(p, d)| **d && p.is_none()).count();
    for (slot, _) in pending.iter_mut().zip(deferred).filter(|(_, d)| **d) {
        match slot {
            Some(p) => {
                p.pul = aggregate(&p.base, &p.pul, pul).0;
                p.naive_ops += pul.len();
                p.commits += 1;
            }
            None => {
                empty -= 1;
                let base = if empty == 0 { pre.take() } else { pre.clone() };
                *slot = Some(DeferredPending {
                    base: base.expect("the commit took its pre-image: this slot was empty"),
                    pul: pul.clone(),
                    naive_ops: pul.len(),
                    first_seq: seq,
                    commits: 1,
                });
            }
        }
    }
}

/// Replaces deferred views' reports (the propagation pass saw them as
/// skipped) with the honest [`UpdateReport::deferred_marker`]: store
/// untouched, delta empty, maintenance postponed.
fn mark_deferred(reports: &mut [UpdateReport], deferred: &[bool]) {
    for (report, _) in reports.iter_mut().zip(deferred).filter(|(_, d)| **d) {
        *report = UpdateReport::deferred_marker();
    }
}

/// Seals one propagated commit: bumps the sequence counter, builds the
/// [`Commit`] and fans its deltas out to the subscriptions. Sealing
/// strictly in commit order is what keeps subscription streams
/// gapless under overlap.
fn seal_commit(
    commits: &mut u64,
    subs: &mut SubscriptionRegistry,
    names: &Arc<[String]>,
    plan: &CommitPlan,
    reports: Vec<UpdateReport>,
) -> Commit {
    *commits += 1;
    let commit = Commit::new(
        *commits,
        plan.statements,
        plan.naive_ops,
        plan.pul.len(),
        plan.reduction,
        Arc::clone(names),
        reports,
    );
    subs.record(&commit);
    commit
}

#[cfg(test)]
mod tests {
    use crate::database::{Database, MaintenanceMode};
    use crate::view_store::ViewStore;
    use xivm_pattern::compile::view_tuples;

    const FIG12: &str = "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>";
    const VIEWS: [(&str, &str); 3] = [
        ("ab", "//a{id}//b{id}"),
        ("acb", "//a{id}[//c{id}]//b{id}"),
        ("cb", "//c{id}//b{id,val}"),
    ];
    const SCRIPT: [&str; 4] = [
        "insert <b/> into /a/c",
        "insert <c><b/></c> into /a/f",
        "delete /a/f/c/b",
        "insert <b>x</b> into /a",
    ];
    /// A statement whose target path selects nothing: an empty PUL,
    /// which seals a commit and leaves every deferred slot as it was.
    const NOTHING: &str = "delete //zzz";

    /// The three views over Figure 12, those named in `deferred`
    /// declared deferred.
    fn db(deferred: &[&str]) -> Database {
        let mut b = Database::builder().document(FIG12);
        for (name, pattern) in VIEWS {
            b = if deferred.contains(&name) {
                b.view_deferred(name, pattern)
            } else {
                b.view(name, pattern)
            };
        }
        b.build().unwrap()
    }

    /// Deferred refresh equals immediate maintenance: once everything
    /// pending is refreshed, `deferred` holds the document and the
    /// stores of `immediate` — which ran the same statements with no
    /// view deferred — and both are sound.
    fn assert_converged(deferred: &mut Database, immediate: &Database) {
        deferred.refresh_all().unwrap();
        assert_eq!(deferred.serialize(), immediate.serialize());
        deferred.document().check_invariants().unwrap();
        for (d, i) in deferred.handles().into_iter().zip(immediate.handles()) {
            let name = deferred.name(d);
            assert_eq!(deferred.deferred_commits(d), 0, "{name}");
            assert!(deferred.store(d).same_content_as(immediate.store(i)), "{name}");
            let pattern = deferred.pattern(d);
            let fresh = ViewStore::from_counted(pattern, view_tuples(deferred.document(), pattern));
            assert!(deferred.store(d).same_content_as(&fresh), "{name} vs recomputation");
        }
    }

    /// A view deferred between two commits has an empty slot the next
    /// step must seed — whatever the other slots hold.
    #[test]
    fn a_view_deferred_between_two_commits_seeds_its_batch() {
        let (mut deferred, mut immediate) = (db(&["acb"]), db(&[]));
        let cb = deferred.view("cb").unwrap();
        for (k, s) in SCRIPT.into_iter().enumerate() {
            if k == 2 {
                assert!(deferred.set_maintenance(cb, MaintenanceMode::Deferred).unwrap().is_none());
            }
            deferred.apply(s).unwrap();
            immediate.apply(s).unwrap();
        }
        assert_eq!(deferred.deferred_commits(deferred.view("acb").unwrap()), 4);
        assert_eq!(deferred.deferred_commits(cb), 2);
        assert_converged(&mut deferred, &immediate);
    }

    /// The first commit after a refresh targets nothing: its empty PUL
    /// leaves the slot empty, and the commit after it — a later
    /// submission of the same async window, or a later `apply` — still
    /// finds a pre-image.
    #[test]
    fn an_empty_commit_after_a_refresh_leaves_the_seeding_to_the_next() {
        let (mut deferred, mut immediate) = (db(&["acb"]), db(&[]));
        let acb = deferred.view("acb").unwrap();
        deferred.apply(SCRIPT[0]).unwrap();
        deferred.refresh(acb).unwrap().expect("a batch was pending");
        // Submissions the service seals in order, under one recovery
        // image…
        for s in [NOTHING, SCRIPT[1], NOTHING, SCRIPT[2]] {
            deferred.apply_async([s]).unwrap();
        }
        deferred.flush().unwrap();
        assert_eq!(deferred.last_seq(), 6);
        assert_eq!(deferred.deferred_commits(acb), 2, "the empty commits fold nothing");
        // …and separate `apply` calls.
        deferred.refresh(acb).unwrap().expect("a batch was pending");
        deferred.apply(NOTHING).unwrap();
        assert_eq!(deferred.deferred_commits(acb), 0);
        deferred.apply(SCRIPT[3]).unwrap();
        for s in [SCRIPT[0], NOTHING, SCRIPT[1], NOTHING, SCRIPT[2], NOTHING, SCRIPT[3]] {
            immediate.apply(s).unwrap();
        }
        assert_converged(&mut deferred, &immediate);
    }

    /// Two deferred views refreshed at different times: one slot empty,
    /// one full, in either order, and both empty at once (the image is
    /// shared out to every batch the commit opens).
    #[test]
    fn deferred_views_refreshed_at_different_times_each_keep_their_base() {
        let (mut deferred, mut immediate) = (db(&["acb", "cb"]), db(&[]));
        let (acb, cb) = (deferred.view("acb").unwrap(), deferred.view("cb").unwrap());
        deferred.apply(SCRIPT[0]).unwrap();
        deferred.refresh(acb).unwrap().expect("a batch was pending");
        for s in [SCRIPT[1], SCRIPT[2]] {
            deferred.apply(s).unwrap();
        }
        assert_eq!((deferred.deferred_commits(acb), deferred.deferred_commits(cb)), (2, 3));
        deferred.refresh(cb).unwrap().expect("a batch was pending");
        deferred.apply(SCRIPT[3]).unwrap();
        assert_eq!((deferred.deferred_commits(acb), deferred.deferred_commits(cb)), (3, 1));
        for s in SCRIPT {
            immediate.apply(s).unwrap();
        }
        assert_converged(&mut deferred, &immediate);
    }

    // -----------------------------------------------------------------
    // The image tax, as counts (`xivm_xml::arena::work`: debug builds)
    // -----------------------------------------------------------------

    /// `<site>` over `n` people of four nodes each — several arena
    /// chunks — under one immediate view, and `deferred` if asked.
    #[cfg(debug_assertions)]
    fn people(n: usize, deferred: bool) -> Database {
        let people: String = (0..n).map(|i| format!("<p id=\"p{i}\"><n>x</n></p>")).collect();
        let b = Database::builder()
            .document(format!("<site>{people}</site>").as_str())
            .view("pn", "//p{id}//n{id,val}");
        let b = if deferred { b.view_deferred("late", "//site{id}//n{id}") } else { b };
        b.build().unwrap()
    }

    #[cfg(debug_assertions)]
    fn into(person: usize, forest: &str) -> String {
        format!("insert {forest} into /site/p[@id=\"p{person}\"]")
    }

    /// (a) Nothing reads an image — no snapshot, no deferred view, no
    /// subscription — so a commit takes none and copies nothing for
    /// one: inserts (known labels and new ones), deletes, a
    /// transaction.
    #[cfg(debug_assertions)]
    #[test]
    fn a_commit_nobody_watches_takes_no_image_and_copies_nothing() {
        use xivm_xml::arena::work::{self, Copies};
        let mut db = people(400, false);
        work::take();
        for s in [
            into(7, "<n>y</n>"),
            into(300, "<fresh k=\"1\"><n>z</n></fresh>"),
            "delete /site/p[@id=\"p7\"]/n".to_owned(),
            "delete /site/p[@id=\"p300\"]".to_owned(),
        ] {
            db.apply(s.as_str()).unwrap();
            assert_eq!(work::take(), Copies::default(), "{s}");
        }
        db.transaction().statement(into(8, "<n>y</n>").as_str()).commit().unwrap();
        assert_eq!(work::take(), Copies::default(), "a transaction of one statement");
        db.document().check_invariants().unwrap();
    }

    /// (b) Under one deferred view, only the commit that opens a batch
    /// takes an image — one, which the batch keeps as its base — and
    /// every later one copies exactly the chunks the base still shared
    /// with the live document.
    #[cfg(debug_assertions)]
    #[test]
    fn only_the_commit_that_opens_a_deferred_batch_takes_an_image() {
        use xivm_xml::arena::work;
        let mut db = people(400, true);
        let late = db.view("late").unwrap();
        for round in 0..2 {
            work::take();
            db.apply(into(7, "<n>y</n>").as_str()).unwrap();
            assert_eq!(work::take().clones, 1, "round {round}: the pre-image, moved into the base");
            let shared = |db: &Database| {
                let base = &db.pending[late.index()].as_ref().expect("a batch is open").base;
                base.shared_chunks_with(db.document())
            };
            let mut copied = Vec::new();
            for person in [7, 7, 300, 200, 200] {
                let before = shared(&db);
                db.apply(into(person, "<n>y</n>").as_str()).unwrap();
                let counts = work::take();
                assert_eq!(counts.clones, 0, "round {round}, p{person}");
                assert_eq!(
                    counts.chunks as usize,
                    before - shared(&db),
                    "round {round}, p{person}"
                );
                copied.push(counts.chunks);
            }
            assert_eq!(copied, [0, 0, 1, 1, 0], "round {round}: one chunk per new place");
            assert_eq!(db.deferred_commits(late), 6);
            db.refresh(late).unwrap().expect("a batch was pending");
        }
    }

    /// (c) An async window of three submissions walks them in place:
    /// on top of the service's one recovery image it takes an image
    /// only to open a deferred batch — one, whichever submission opens
    /// it — and none if the batch was open before the window.
    /// `fault::SEAL_DELAY` holds the drain off until all three are
    /// queued.
    #[cfg(debug_assertions)]
    #[test]
    fn an_async_window_takes_an_image_only_to_open_a_batch() {
        use crate::fault;
        let _guard = fault::exclusive();
        let window = [7, 100, 200].map(|p| into(p, "<n>y</n>"));
        let mut nothing_first = window.clone();
        nothing_first[0] = NOTHING.to_owned();
        for (deferred, open_before, stmts, opens) in [
            (false, false, &window, 0),
            (true, false, &window, 1),
            (true, true, &window, 0),
            (true, false, &nothing_first, 1),
        ] {
            let mut db = people(400, deferred);
            if open_before {
                db.apply(into(1, "<n>y</n>").as_str()).unwrap();
            }
            fault::WINDOW_CLONES.lock().unwrap().clear();
            fault::arm(fault::SEAL_DELAY);
            for s in stmts {
                db.apply_async([s.as_str()]).unwrap();
            }
            db.flush().unwrap();
            let case = format!("deferred: {deferred}, open before: {open_before}, {}", stmts[0]);
            assert_eq!(db.last_seq(), 3 + open_before as u64, "{case}");
            let clones = fault::WINDOW_CLONES.lock().unwrap().clone();
            assert_eq!(clones, [1 + opens], "{case}: one window");
        }
        fault::disarm_all();
    }

    /// (d) Under a held image an insert whose labels all exist leaves
    /// the interner shared; one that interns new labels copies it once.
    #[cfg(debug_assertions)]
    #[test]
    fn the_interner_is_copied_only_for_a_new_label_under_a_held_image() {
        use std::sync::Arc;
        use xivm_xml::arena::work;
        let mut db = people(400, false);
        let held = db.snapshot();
        let before = db.document().shared_labels();
        work::take();
        db.apply(into(7, "<n>y</n><p id=\"q\"/>").as_str()).unwrap();
        assert!(Arc::ptr_eq(&before, &db.document().shared_labels()));
        let counts = work::take();
        assert_eq!(counts.interners, 0);
        assert!(counts.chunks > 0 && counts.lists > 0, "the image is held: {counts:?}");
        db.apply(into(7, "<fresh k=\"1\"><other/></fresh>").as_str()).unwrap();
        assert!(!Arc::ptr_eq(&before, &db.document().shared_labels()));
        assert_eq!(work::take().interners, 1, "three new labels, one copy");
        assert_eq!(held.document().label_id("fresh"), None);
    }

    /// (e) Deleting every person kills every node of arena chunks 1–5
    /// (chunk 0 keeps `<site>`, chunk 6 is the tail): the commit
    /// releases them. A release is not a copy — with nobody watching
    /// the commit copies nothing — and under a held snapshot the kill
    /// copies each chunk it writes once, the release drops the copies,
    /// and the snapshot keeps reading its own.
    #[cfg(debug_assertions)]
    #[test]
    fn a_commit_that_kills_whole_chunks_releases_them() {
        use xivm_xml::arena::work::{self, Copies};
        for held in [false, true] {
            let mut db = people(400, false);
            assert_eq!(db.document().chunk_count(), 7);
            let (seed, snapshot) = (db.serialize(), held.then(|| db.snapshot()));
            work::take();
            db.apply("delete /site/p").unwrap();
            let counts = work::take();
            assert_eq!(db.document().released_chunks(), 5);
            match &snapshot {
                None => assert_eq!(counts, Copies { released: 5, ..Copies::default() }),
                Some(snapshot) => {
                    assert_eq!((counts.clones, counts.chunks, counts.released), (0, 7, 5));
                    assert_eq!(snapshot.serialize(), seed);
                    snapshot.document().check_invariants().unwrap();
                }
            }
            assert_eq!(db.serialize(), "<site/>");
            db.document().check_invariants().unwrap();
        }
    }
}
