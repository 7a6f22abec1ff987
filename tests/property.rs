//! Property-based tests over random documents, views and updates.

use proptest::prelude::*;
use xivm::pattern::compile::view_tuples;
use xivm::pattern::PatternNodeId;
use xivm::prelude::*;
use xivm::xml::dewey::Step;
use xivm::xml::{DeweyId, LabelId, NodeId, NodeKind};

// ---------------------------------------------------------------------
// Random document generation (small alphabets so patterns hit)
// ---------------------------------------------------------------------

fn arb_tree(depth: u32) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("<b/>".to_owned()),
        Just("<c/>".to_owned()),
        Just("<d>5</d>".to_owned()),
        Just("x".to_owned()),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")],
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, kids)| {
                if kids.is_empty() {
                    format!("<{tag}/>")
                } else {
                    format!("<{tag}>{}</{tag}>", kids.join(""))
                }
            })
    })
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_tree(3), 1..5).prop_map(|kids| format!("<r>{}</r>", kids.join("")))
}

const PATTERNS: [&str; 6] = [
    "//a{id}//b{id}",
    "//a{id}[//c{id}]//b{id}",
    "//a{id}//b{id}//c{id}",
    "//r{id}//d{id,val}",
    "//a{id}[//d[val=\"5\"]]//b{id}",
    "//a{id,cont}[//b]",
];

const TARGETS: [&str; 4] = ["//a", "//b", "//a//c", "//d"];
const FORESTS: [&str; 4] = ["<b/>", "<a><b/><c/></a>", "<c><b/></c>", "<d>5</d>"];

const STRATEGIES: [SnowcapStrategy; 3] =
    [SnowcapStrategy::MinimalChain, SnowcapStrategy::AllSnowcaps, SnowcapStrategy::LeavesOnly];

fn script_statement(t: usize, f: usize, is_insert: bool) -> String {
    if is_insert {
        format!("insert {} into {}", FORESTS[f], TARGETS[t])
    } else {
        format!("delete {}", TARGETS[t])
    }
}

/// A label-name-rendered, document-order form of a view's tuples.
///
/// Tuples store raw Dewey steps whose `LabelId`s are private to the
/// owning document's interner; two databases that went through
/// different (but equivalent) operation orders may intern the same
/// label names at different ids. Comparing across databases therefore
/// has to go through label *names*.
fn fingerprint(db: &Database, h: ViewHandle) -> Vec<String> {
    db.cursor(h)
        .map(|(t, c)| {
            let fields: Vec<String> = t
                .fields()
                .iter()
                .map(|f| {
                    format!(
                        "{}|{:?}|{:?}",
                        f.id.display_with(|l| db.document().label_name(l).to_owned()),
                        f.val,
                        f.cont
                    )
                })
                .collect();
            format!("({})x{c}", fields.join(","))
        })
        .collect()
}

/// Every view of `db` must equal its from-scratch evaluation.
fn consistent(db: &Database) -> Result<(), TestCaseError> {
    for h in db.handles() {
        let pattern = db.pattern(h).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
        prop_assert!(
            db.store(h).identical_to(&expected),
            "view {} diverged:\n{}",
            db.name(h),
            db.store(h).diff_description(&expected)
        );
    }
    Ok(())
}

/// The invariant of a published delta, checked on every view of a
/// commit just sealed on `db`: one run in document order with at most
/// one entry per key and side, a key's loss first and ID-only, every
/// other entry the post-commit stored tuple, the weights the report's
/// derivation counters — and a frame that decodes to the same delta.
fn run_invariant(db: &Database, commit: &Commit) -> Result<(), TestCaseError> {
    use std::sync::Arc;
    use xivm::core::snapshot::{decode_event, encode_event};
    for h in db.handles() {
        let (report, name) = (commit.report(h), db.name(h));
        let rows = report.delta.rows();
        let in_order = |w: &[(xivm::algebra::Tuple, i64)]| {
            w[0].0.doc_cmp(&w[1].0).then((w[0].1 >= 0).cmp(&(w[1].1 >= 0))).is_lt()
        };
        prop_assert!(rows.windows(2).all(in_order), "{name}: not a canonical run: {rows:?}");
        for (tuple, weight) in rows {
            if *weight < 0 {
                let bare = tuple.fields().iter().all(|f| f.val.is_none() && f.cont.is_none());
                prop_assert!(bare, "{name}: a negative entry carries text: {tuple:?}");
            } else {
                let stored = db.store(h).get(tuple).map(|(t, _)| t);
                prop_assert_eq!(stored, Some(tuple), "{}: not the post-commit tuple", name);
            }
        }
        let sum = |sign: i64| rows.iter().map(|(_, w)| (w * sign).max(0) as u64).sum::<u64>();
        prop_assert_eq!(sum(1), report.derivations_added, "{}: Σ positive", name);
        prop_assert_eq!(sum(-1), report.derivations_removed, "{}: Σ |negative|", name);

        let delta = Arc::clone(&report.delta);
        let event = FeedEvent::Delta(DeltaEvent { seq: commit.seq, folded: None, delta });
        match decode_event(&encode_event(&event)) {
            Ok(FeedEvent::Delta(back)) => prop_assert_eq!(&back.delta, &report.delta),
            other => prop_assert!(false, "{name}: the delta's frame decoded to {other:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The central invariant: incrementally maintained views ==
    /// from-scratch evaluation, for random docs and update sequences
    /// streamed through the `Database` façade one statement at a time.
    #[test]
    fn database_equals_recompute(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..PATTERNS.len(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..4
        ),
        strategy_idx in 0usize..3,
    ) {
        let mut db = Database::builder()
            .document(doc_xml.as_str())
            .view_with_strategy("v", PATTERNS[pattern_idx], STRATEGIES[strategy_idx])
            .build()
            .unwrap();
        for (t, f, is_insert) in script {
            let stmt = script_statement(t, f, is_insert);
            db.apply(stmt.as_str()).unwrap();
            consistent(&db)?;
            db.document().check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// Order is part of the oracle: after every commit of a random
    /// stream, under every snowcap strategy, the view is read in strict
    /// document order and equals its recomputation row for row —
    /// neither side sorted by the test.
    #[test]
    fn the_store_is_read_in_document_order_row_for_row(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..PATTERNS.len(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..6
        ),
    ) {
        let mut b = Database::builder().document(doc_xml.as_str());
        for strategy in STRATEGIES {
            b = b.view_with_strategy(format!("{strategy:?}"), PATTERNS[pattern_idx], strategy);
        }
        let mut db = b.build().unwrap();
        for (t, f, is_insert) in script {
            let stmt = script_statement(t, f, is_insert);
            db.apply(stmt.as_str()).unwrap();
            for h in db.handles() {
                let read: Vec<_> = db.cursor(h).collect();
                prop_assert!(
                    read.windows(2).all(|w| w[0].0.doc_cmp(w[1].0).is_lt()),
                    "{} out of order after {stmt}", db.name(h)
                );
                let fresh = xivm::ivma::recompute::recompute_store(db.document(), db.pattern(h));
                prop_assert!(
                    db.cursor(h).eq(fresh.cursor()),
                    "{} after {stmt}:\n{}", db.name(h), db.store(h).diff_description(&fresh)
                );
            }
        }
    }

    /// Transaction semantics: a sequential transaction of N statements
    /// leaves the document and every view's tuple set identical to
    /// applying the N statements one by one via `apply`.
    #[test]
    fn transaction_equals_sequential_apply(
        doc_xml in arb_doc(),
        view_idx in 0usize..PATTERNS.len(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..5
        ),
        strategy_idx in 0usize..3,
    ) {
        // two views so the shared propagation pass is exercised
        let other = (view_idx + 1) % PATTERNS.len();
        let build = || Database::builder()
            .document(doc_xml.as_str())
            .view_with_strategy("primary", PATTERNS[view_idx], STRATEGIES[strategy_idx])
            .view("secondary", PATTERNS[other])
            .build()
            .unwrap();

        let mut one_by_one = build();
        for &(t, f, is_insert) in &script {
            one_by_one.apply(script_statement(t, f, is_insert).as_str()).unwrap();
        }

        let mut batched = build();
        let mut tx = batched.transaction();
        for &(t, f, is_insert) in &script {
            tx = tx.statement(script_statement(t, f, is_insert).as_str());
        }
        let report = tx.commit().unwrap();
        prop_assert_eq!(report.statements, script.len());
        prop_assert!(report.optimized_ops <= report.naive_ops);

        prop_assert!(
            one_by_one.serialize() == batched.serialize(),
            "doc={doc_xml} script={script:?}\nseq={}\nbat={}",
            one_by_one.serialize(),
            batched.serialize()
        );
        for (a, b) in one_by_one.handles().into_iter().zip(batched.handles()) {
            prop_assert!(
                fingerprint(&one_by_one, a) == fingerprint(&batched, b),
                "view {} diverged: doc={doc_xml} script={script:?}\nseq={:?}\nbat={:?}",
                one_by_one.name(a),
                fingerprint(&one_by_one, a),
                fingerprint(&batched, b)
            );
        }
        consistent(&batched)?;
        batched.document().check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The delta-first contract: for random documents, view sets (up
    /// to five views, duplicate patterns included: names differ) and
    /// update scripts — applied one by one or batched through a
    /// transaction — replaying each commit's per-view deltas onto snapshots
    /// of the pre-commit stores reproduces the post-commit stores
    /// *exactly* (keys, derivation counts and stored text), the commit
    /// sequence numbers are gapless, and every delta is a canonical run
    /// ([`run_invariant`]) — under every snowcap strategy.
    #[test]
    fn deltas_replay_to_store(
        doc_xml in arb_doc(),
        view_idxs in prop::collection::vec((0usize..PATTERNS.len(), 0usize..3), 1..6),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..4
        ),
        batched in prop::bool::ANY,
    ) {
        let mut b = Database::builder().document(doc_xml.as_str());
        for (i, &(p, strategy)) in view_idxs.iter().enumerate() {
            b = b.view_with_strategy(format!("v{i}"), PATTERNS[p], STRATEGIES[strategy]);
        }
        let mut db = b.build().unwrap();
        // replicas start as snapshots; from here on only deltas flow
        let mut replicas: Vec<ViewStore> =
            db.handles().into_iter().map(|h| db.store(h).clone()).collect();
        let subs: Vec<Subscription> =
            db.handles().into_iter().map(|h| db.subscribe(h)).collect();

        let mut expected_commits = 0u64;
        if batched {
            let mut tx = db.transaction();
            for &(t, f, is_insert) in &script {
                tx = tx.statement(script_statement(t, f, is_insert).as_str());
            }
            let commit = tx.commit().unwrap();
            expected_commits += 1;
            prop_assert_eq!(commit.seq, expected_commits);
            run_invariant(&db, &commit)?;
        } else {
            for &(t, f, is_insert) in &script {
                let commit = db.apply(script_statement(t, f, is_insert).as_str()).unwrap();
                expected_commits += 1;
                prop_assert_eq!(commit.seq, expected_commits, "gapless sequence numbers");
                run_invariant(&db, &commit)?;
                // per-commit replay of the commit's own deltas
                for (replica, h) in replicas.iter_mut().zip(db.handles()) {
                    commit.delta(h).replay(replica);
                }
            }
        }
        // In batched mode the single commit's deltas are replayed from
        // the subscription feed below, exercising that path too.
        for ((replica, h), sub) in replicas.iter_mut().zip(db.handles()).zip(&subs) {
            let events = db.drain(sub);
            prop_assert_eq!(events.len() as u64, expected_commits, "one event per commit");
            let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            prop_assert_eq!(seqs, (1..=expected_commits).collect::<Vec<u64>>(), "gapless");
            if batched {
                for event in &events {
                    event.delta.replay(replica);
                }
            }
            prop_assert!(
                replica.identical_to(db.store(h)),
                "snapshot + Σ deltas must equal the final store exactly \
                 (doc={doc_xml} script={script:?} batched={batched})"
            );
            prop_assert!(replica.cursor().eq(db.cursor(h)), "and row for row, in its order");
        }
        consistent(&db)?;
    }

    /// A typed-builder statement must produce bit-identical results to
    /// its textual equivalent: same document, same stores, same
    /// commit deltas.
    #[test]
    fn typed_builders_equal_text(
        doc_xml in arb_doc(),
        view_idx in 0usize..PATTERNS.len(),
        t in 0usize..TARGETS.len(),
        f in 0usize..FORESTS.len(),
        kind in 0usize..3,
    ) {
        use xivm::update::builder::{delete, insert, replace, UpdateBuilder};
        let build = || Database::builder()
            .document(doc_xml.as_str())
            .view("v", PATTERNS[view_idx])
            .build()
            .unwrap();
        let (builder, text): (UpdateBuilder, String) = match kind {
            0 => (delete(TARGETS[t]), format!("delete {}", TARGETS[t])),
            1 => (
                insert(FORESTS[f]).into(TARGETS[t]),
                format!("insert {} into {}", FORESTS[f], TARGETS[t]),
            ),
            _ => (
                replace(TARGETS[t]).with(FORESTS[f]),
                format!("replace {} with {}", TARGETS[t], FORESTS[f]),
            ),
        };
        let mut typed = build();
        let mut textual = build();
        let ct = typed.apply(builder).unwrap();
        let cx = textual.apply(text.as_str()).unwrap();
        prop_assert_eq!(typed.serialize(), textual.serialize());
        let (h1, h2) = (typed.view("v").unwrap(), textual.view("v").unwrap());
        prop_assert!(typed.store(h1).identical_to(textual.store(h2)), "{}", text);
        prop_assert_eq!(ct.delta(h1), cx.delta(h2), "deltas must be bit-identical: {}", text);
        consistent(&typed)?;
        consistent(&textual)?;
    }

    /// Independent (order-independent) transactions either reject with
    /// `Error::Conflict` — leaving the database untouched — or commit
    /// to a state where every view equals recomputation.
    #[test]
    fn independent_transaction_rejects_or_commits_consistently(
        doc_xml in arb_doc(),
        view_idx in 0usize..PATTERNS.len(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..4
        ),
    ) {
        let mut db = Database::builder()
            .document(doc_xml.as_str())
            .view("v", PATTERNS[view_idx])
            .build()
            .unwrap();
        let before = db.serialize();
        let mut tx = db.transaction().independent();
        for &(t, f, is_insert) in &script {
            tx = tx.statement(script_statement(t, f, is_insert).as_str());
        }
        match tx.commit() {
            Err(Error::Conflict(conflicts)) => {
                prop_assert!(!conflicts.is_empty());
                prop_assert_eq!(db.serialize(), before, "rejected batch must be a no-op");
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(_) => {}
        }
        consistent(&db)?;
    }

    /// Algebraic evaluation == embedding semantics on random documents.
    #[test]
    fn algebra_equals_embeddings(doc_xml in arb_doc(), pattern_idx in 0usize..PATTERNS.len()) {
        let doc = parse_document(&doc_xml).unwrap();
        let pattern = parse_pattern(PATTERNS[pattern_idx]).unwrap();
        let algebraic: Vec<(Vec<DeweyId>, u64)> = view_tuples(&doc, &pattern)
            .into_iter()
            .map(|(t, c)| (t.id_key(), c))
            .collect();
        let by_embedding = xivm::pattern::embed::view_tuples_by_embedding(&doc, &pattern);
        prop_assert_eq!(algebraic, by_embedding);
    }

    /// Dewey encode/decode roundtrip on arbitrary step sequences.
    #[test]
    fn dewey_roundtrip(steps in prop::collection::vec((0u32..500, 1u64..u64::MAX / 2), 0..12)) {
        let id = DeweyId::from_steps(
            steps.into_iter().map(|(l, o)| Step::new(LabelId(l), o)).collect(),
        );
        let decoded = DeweyId::decode(&id.encode());
        prop_assert_eq!(decoded, Some(id));
    }

    /// Document order is a total order consistent with the ancestor
    /// relation.
    #[test]
    fn dewey_order_laws(
        a in prop::collection::vec((0u32..4, 1u64..6), 1..5),
        b in prop::collection::vec((0u32..4, 1u64..6), 1..5),
    ) {
        let x = DeweyId::from_steps(a.into_iter().map(|(l, o)| Step::new(LabelId(l), o)).collect());
        let y = DeweyId::from_steps(b.into_iter().map(|(l, o)| Step::new(LabelId(l), o)).collect());
        // antisymmetry (over ordinal paths: labels don't affect order)
        if x.doc_cmp(&y).is_eq() && y.doc_cmp(&x).is_eq() {
            // same ordinal path: ancestor of each other only if equal length
            prop_assert_eq!(x.depth(), y.depth());
        }
        // ancestors precede descendants
        if x.is_ancestor_of(&y) {
            prop_assert!(x.doc_cmp(&y).is_lt());
            prop_assert!(!y.is_ancestor_of(&x));
        }
    }

    /// PUL reduction preserves the final document.
    #[test]
    fn reduction_is_semantics_preserving(
        doc_xml in arb_doc(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..5
        ),
    ) {
        let d0 = parse_document(&doc_xml).unwrap();
        let mut ops = Vec::new();
        for (t, f, is_insert) in script {
            let stmt = if is_insert {
                UpdateStatement::insert(TARGETS[t], FORESTS[f]).unwrap()
            } else {
                UpdateStatement::delete(TARGETS[t]).unwrap()
            };
            ops.extend(xivm::update::compute_pul(&d0, &stmt).ops);
        }
        let pul = xivm::update::Pul::new(ops);
        let (reduced, trace) = xivm::pulopt::reduce(&pul);
        prop_assert!(trace.ops_after <= trace.ops_before);

        let mut plain = parse_document(&doc_xml).unwrap();
        xivm::update::apply_pul(&mut plain, &pul).unwrap();
        let mut optimized = parse_document(&doc_xml).unwrap();
        xivm::update::apply_pul(&mut optimized, &reduced).unwrap();
        prop_assert_eq!(
            serialize_document(&plain),
            serialize_document(&optimized)
        );
    }

    /// View snapshots roundtrip for arbitrary documents and patterns.
    #[test]
    fn snapshot_roundtrip(doc_xml in arb_doc(), pattern_idx in 0usize..PATTERNS.len()) {
        use xivm::core::snapshot::{decode_store, encode_store};
        let doc = parse_document(&doc_xml).unwrap();
        let pattern = parse_pattern(PATTERNS[pattern_idx]).unwrap();
        let store = ViewStore::from_counted(&pattern, view_tuples(&doc, &pattern));
        let back = decode_store(&encode_store(&store)).unwrap();
        prop_assert!(store.same_content_as(&back));
        prop_assert_eq!(store.schema(), back.schema());
    }

    /// Parser/serializer roundtrip stability: serialize(parse(x))
    /// serializes to itself again.
    #[test]
    fn serializer_fixpoint(doc_xml in arb_doc()) {
        let d = parse_document(&doc_xml).unwrap();
        let s1 = serialize_document(&d);
        let d2 = parse_document(&s1).unwrap();
        prop_assert_eq!(s1, serialize_document(&d2));
    }

    /// The sign law: the insertion half and the deletion half of the
    /// engine are one pipeline run with opposite signs. Commit *k*
    /// inserts a forest tagged with a fresh attribute, commit *k+1*
    /// deletes exactly that forest: what *k+1* removes is what *k*
    /// inserted (and, under predicate flips, the other way round),
    /// derivation for derivation, and every store — stored `val` /
    /// `cont` included — is back at its pre-*k* snapshot.
    #[test]
    fn delete_of_an_insert_is_its_signed_inverse(
        doc_xml in arb_doc(),
        prefix in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            0..3
        ),
        t in 0usize..TARGETS.len(),
        f in 0usize..FORESTS.len(),
    ) {
        let mut b = Database::builder().document(doc_xml.as_str());
        for (i, p) in PATTERNS.iter().enumerate() {
            b = b.view(format!("v{i}"), *p);
        }
        let mut db = b.build().unwrap();
        for (t, f, is_insert) in prefix {
            db.apply(script_statement(t, f, is_insert).as_str()).unwrap();
        }
        let before: Vec<ViewStore> =
            db.handles().into_iter().map(|h| db.store(h).clone()).collect();

        // FORESTS[f] is `<x…`: tag its root element with sl="k".
        let label = &FORESTS[f][1..2];
        let tagged = format!("<{label} sl=\"k\"{}", &FORESTS[f][2..]);
        let ins = db.apply(format!("insert {tagged} into {}", TARGETS[t]).as_str()).unwrap();
        consistent(&db)?;
        let del = db.apply(format!("delete //{label}[@sl=\"k\"]").as_str()).unwrap();

        // A run's derivation changes of one sign, as IDs and |weight|,
        // in the run's order (its weight-0 text entries aside).
        let signed = |d: &ViewDelta, sign: i64| -> Vec<(Vec<DeweyId>, i64)> {
            let of_sign = d.rows().iter().filter(|(_, w)| w * sign > 0);
            of_sign.map(|(t, w)| (t.id_key(), w * sign)).collect()
        };
        for (h, snapshot) in db.handles().into_iter().zip(&before) {
            let (i, d) = (ins.report(h), del.report(h));
            let (lost, gained) = (-1, 1);
            prop_assert_eq!(
                signed(&d.delta, lost), signed(&i.delta, gained), "{}: −Δ(k+1) ≠ +Δ(k)", db.name(h)
            );
            prop_assert_eq!(
                signed(&d.delta, gained), signed(&i.delta, lost), "{}: +Δ(k+1) ≠ −Δ(k)", db.name(h)
            );
            prop_assert_eq!(d.derivations_removed, i.derivations_added);
            prop_assert_eq!(d.derivations_added, i.derivations_removed);
            prop_assert!(
                db.store(h).identical_to(snapshot),
                "view {} did not return to its pre-insert store (doc={doc_xml} \
                 insert {tagged} into {}):\n{}",
                db.name(h),
                TARGETS[t],
                db.store(h).diff_description(snapshot)
            );
        }
    }
}

// ---------------------------------------------------------------------
// The dynamic relevance exit against its references
// ---------------------------------------------------------------------

/// One commit of the exit property: a single statement of any kind, or
/// a sequential transaction that deletes inside the forest it inserts.
fn exit_commit(db: &mut Database, kind: usize, t: usize, f: usize) -> Commit {
    let (target, forest) = (TARGETS[t], FORESTS[f]);
    match kind {
        0 => db.apply(format!("insert {forest} into {target}").as_str()),
        1 => db.apply(format!("delete {target}").as_str()),
        2 => db.apply(format!("replace {target} with {forest}").as_str()),
        // a label no pattern mentions, under nested `//` targets
        3 => db.apply(format!("insert <e><e/></e> into {target}").as_str()),
        4 => db.apply("delete //e"),
        _ => db
            .transaction()
            .statement(format!("insert <a m=\"1\"><c><b/></c>{forest}</a> into {target}").as_str())
            .statement("delete //a[@m=\"1\"]/c")
            .commit(),
    }
    .unwrap()
}

/// Every snowcap of every engine equals its from-scratch evaluation
/// over the current document, row for row: the same bindings in the
/// same full document order.
fn snowcaps_fresh(db: &Database) -> Result<(), TestCaseError> {
    for h in db.handles() {
        let engine = db.engine(h);
        let fresh = MaintenanceEngine::new(db.document(), db.pattern(h).clone(), engine.strategy());
        prop_assert_eq!(engine.snowcaps().len(), fresh.snowcaps().len());
        for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
            prop_assert!(
                m.rel.rows == f.rel.rows,
                "view {} snowcap {:?} diverged, rows or their order, from its recomputation",
                db.name(h),
                m.nodes
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The exit is invisible: a view whose report says `irrelevant` has
    /// a store identical to its pre-commit snapshot and an empty delta,
    /// and every view — exited or not — equals recomputation, store and
    /// snowcaps, after every commit.
    #[test]
    fn irrelevant_reports_leave_the_view_exactly_as_recomputation_has_it(
        doc_xml in arb_doc(),
        script in prop::collection::vec(
            (0usize..6, 0usize..TARGETS.len(), 0usize..FORESTS.len()),
            1..5
        ),
    ) {
        let mut b = Database::builder().document(doc_xml.as_str());
        for (i, p) in PATTERNS.iter().enumerate() {
            b = b.view_with_strategy(format!("v{i}"), *p, STRATEGIES[i % STRATEGIES.len()]);
        }
        let mut db = b.build().unwrap();
        for (kind, t, f) in script {
            let before: Vec<ViewStore> =
                db.handles().into_iter().map(|h| db.store(h).clone()).collect();
            let commit = exit_commit(&mut db, kind, t, f);
            for (h, snapshot) in db.handles().into_iter().zip(&before) {
                let report = commit.report(h);
                if report.irrelevant {
                    prop_assert!(report.delta.is_empty(), "{}: an exit reports no delta", db.name(h));
                    prop_assert!(
                        db.store(h).identical_to(snapshot),
                        "{}: an exited view moved (doc={doc_xml} kind={kind} t={t} f={f})",
                        db.name(h)
                    );
                }
            }
            prop_assert_eq!(
                commit.work().dynamic_skips,
                db.handles().into_iter().filter(|&h| commit.report(h).irrelevant).count() as u64
            );
            consistent(&db)?;
            snowcaps_fresh(&db)?;
        }
    }
}

/// The property above is not vacuous: on this catalog the exit is
/// taken, and by exactly the views with no label in the update and no
/// stored text above it.
#[test]
fn the_dynamic_exit_fires_on_this_catalog() {
    let mut b = Database::builder().document("<r><a><b/><d>5</d></a><d><c/></d></r>");
    for (i, p) in PATTERNS.iter().enumerate() {
        b = b.view(format!("v{i}"), *p);
    }
    let mut db = b.build().unwrap();
    let handles = db.handles();
    let exited = |commit: &Commit| -> Vec<usize> {
        (0..PATTERNS.len()).filter(|&i| commit.report(handles[i]).irrelevant).collect()
    };
    // an `e` under b: no pattern names e; only //a{cont} stores text above it
    let commit = db.apply("insert <e/> into //a/b").unwrap();
    assert_eq!(exited(&commit), vec![0, 1, 2, 3, 4]);
    assert_eq!(commit.work().dynamic_skips, 5);
    // a c under the top-level d: patterns 1 and 2 name c, 3 stores d's val
    let commit = db.apply("insert <c/> into /r/d").unwrap();
    assert_eq!(exited(&commit), vec![0, 4, 5]);
    assert_eq!(commit.work().dynamic_skips, 3);
}

// ---------------------------------------------------------------------
// Mass deletions: the recomputation arm against the oracles
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Deleting every node of one label, then of each other label in a
    /// random order — every one of them, or those under a random label —
    /// under every view plus two that store text above the deleted
    /// nodes (random strategies): after each commit every delta is a
    /// canonical run that replays onto the previous store to the new
    /// one, and every store and snowcap equals its recomputation,
    /// whichever arm `finish` took. Not vacuous: the document holds every
    /// label, so the first deletion empties a view without predicates
    /// that stores it, and that view takes the recomputation arm.
    #[test]
    fn mass_deletions_equal_recomputation(
        doc_xml in arb_doc(),
        order in prop::collection::vec((0u32..1000, 0usize..5), 4..5),
        strategies in prop::collection::vec(0usize..3, 8..9),
    ) {
        let doc_xml = doc_xml.replace("</r>", "<a><b/><c/><d>5</d></a></r>");
        let mut b = Database::builder().document(doc_xml.as_str());
        let patterns = PATTERNS.iter().chain(&["//a{id,cont}//b{id}", "//c{id,val}//b{id}"]);
        for (i, p) in patterns.enumerate() {
            b = b.view_with_strategy(format!("v{i}"), *p, STRATEGIES[strategies[i]]);
        }
        let mut db = b.build().unwrap();
        let mut labels = [0, 1, 2, 3];
        labels.sort_by_key(|&l| order[l].0);
        let mut emptied = 0;
        for (k, l) in labels.into_iter().enumerate() {
            let label = ["a", "b", "c", "d"][l];
            let statement = match ["a", "b", "c", "d"].get(order[l].1) {
                Some(above) if k > 0 => format!("delete //{above}//{label}"),
                _ => format!("delete //{label}"),
            };
            let mut replicas: Vec<ViewStore> =
                db.handles().into_iter().map(|h| db.store(h).clone()).collect();
            let commit = db.apply(statement.as_str()).unwrap();
            run_invariant(&db, &commit)?;
            for (replica, h) in replicas.iter_mut().zip(db.handles()) {
                // a commit that evaluated no witness term lost by range alone
                let report = commit.report(h);
                let by_range = !report.recomputed && report.delete_prune.after_id_reasoning == 0;
                emptied += usize::from(by_range && !replica.is_empty() && db.store(h).is_empty());
                commit.delta(h).replay(replica);
                prop_assert!(replica.identical_to(db.store(h)), "{}: the Δ replays", db.name(h));
                let pattern = db.pattern(h);
                let fresh = ViewStore::from_counted(pattern, view_tuples(db.document(), pattern));
                prop_assert!(
                    db.store(h).identical_to(&fresh),
                    "{} after {statement} (doc={doc_xml}):\n{}",
                    db.name(h),
                    db.store(h).diff_description(&fresh)
                );
            }
            snowcaps_fresh(&db)?;
        }
        prop_assert!(emptied > 0, "no commit emptied a non-empty view by range (doc={doc_xml})");
    }
}

// ---------------------------------------------------------------------
// Δ⁻ read off the apply against the pre-apply walk
// ---------------------------------------------------------------------

/// Views with value predicates over `arb_doc`'s text ("5", "x" and
/// their concatenations), on the deleted nodes, above them and under a
/// wildcard — each maintained beside a predicate-free one.
const VALUED_PATTERNS: [&str; 5] = [
    "//a{id}[val=\"5\"]//b{id}",
    "//a{id}[//d[val=\"5\"]]//b{id}",
    "//d{id,val}[val=\"5\"]",
    "//*{id}[val=\"x\"]//c{id}",
    "//r{id}//a{id}[val=\"5x\"]",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One unreduced PUL — random statements' operations, all read off
    /// the seed, so targets nest, repeat and follow in any order, and
    /// with `nested` a text node deleted before the element around it,
    /// the pair rule O3 would drop — applied once: per pattern node,
    /// the Δ⁻ the apply extracts (every label, and the labels of the
    /// views alone) equals `walk_deleted` over the intact document; a
    /// predicate-carrying node is exempt only when delete roots nest and
    /// the flip rule fires (a nested delete that removed text under the
    /// node first). The complete extraction builds every table; the
    /// views' own builds only the witnesses' and predicates' IDs, so
    /// there the witness tables equal the walk's and every node's loss
    /// agrees with it. Propagated through a multi-view engine, every store
    /// equals its recomputation, and every commit the rule flags is
    /// answered by recomputing the view with the predicate.
    #[test]
    fn delta_minus_from_the_apply_equals_the_pre_apply_walk(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..VALUED_PATTERNS.len(),
        steps in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), 0usize..3),
            1..4
        ),
        nested in (0usize..3, 0usize..64),
        strategy in 0usize..3,
    ) {
        use xivm::core::MultiViewEngine;
        use xivm::update::{
            apply_pul, apply_pul_for, compute_pul, walk_deleted, AtomicOp, DeltaLabels, DeltaMinus,
            Pul,
        };
        let seed = parse_document(&doc_xml).unwrap();
        let mut ops = Vec::new();
        for &(t, f, insert) in &steps {
            let stmt = parse_statement(&script_statement(t, f, insert == 0)).unwrap();
            ops.extend(compute_pul(&seed, &stmt).ops);
        }
        let texts = seed.canonical_nodes_named(xivm::xml::TEXT_LABEL);
        if nested.0 > 0 && !texts.is_empty() {
            let text = texts[nested.1 % texts.len()];
            let around = seed.parent_of(text).unwrap();
            let (text, around) = (seed.dewey(text), seed.dewey(around));
            let at = ops.len().min(nested.1 % (ops.len() + 1));
            ops.insert(at, AtomicOp::Delete { node: around });
            ops.insert(at, AtomicOp::Delete { node: text });
        }
        let pul = Pul::new(ops);
        let valued = parse_pattern(VALUED_PATTERNS[pattern_idx]).unwrap();
        let plain = parse_pattern("//a{id}//b{id}").unwrap();
        let walked = walk_deleted(&seed, &valued, &pul);
        let mut post = seed.clone();
        let moved = apply_pul(&mut post, &pul).unwrap().text_moved;
        let fires = flip_rule_fires(&post, &valued, &moved);
        for (wanted, every) in
            [(DeltaLabels::all(), true), (DeltaLabels::of(&seed, [&valued, &plain]), false)]
        {
            let mut post = seed.clone();
            let applied = apply_pul_for(&mut post, &pul, &wanted).unwrap();
            prop_assert_eq!(&applied.text_moved, &moved, "whatever the labels asked");
            let stale = fires && nests(&applied.delete_roots);
            let dminus = every.then(|| DeltaMinus::complete(&post, &valued, &applied));
            let witness = DeltaMinus::compute(&post, &valued, &applied);
            for n in valued.node_ids() {
                if stale && valued.node(n).val_pred.is_some() {
                    continue;
                }
                let walked = &walked[n.index()];
                let what = format!("{n:?} of {} (doc={doc_xml})", valued.to_text());
                if let Some(dminus) = &dminus {
                    let ids: Vec<_> = dminus.ids(n).cloned().collect();
                    prop_assert_eq!(&ids, walked, "{}", what);
                }
                // the witness tables: the walk's below which the view
                // stores nothing, empty elsewhere; every loss as walked
                let stored = |s| valued.node(s).ann.any() && (s == n || valued.is_ancestor(n, s));
                let kept = if valued.node_ids().any(stored) { 0 } else { walked.len() };
                let ids: Vec<_> = witness.ids(n).cloned().collect();
                prop_assert_eq!(&ids[..], &walked[..kept], "witness {}", what);
                prop_assert_eq!(witness.is_empty(n), walked.is_empty(), "loss {}", what);
            }
        }

        let mut doc = seed.clone();
        let views = [("valued", &valued), ("plain", &plain)]
            .map(|(name, p)| (name.to_owned(), p.clone(), STRATEGIES[strategy]));
        let mut engine = MultiViewEngine::new(&doc, views);
        let reports = engine.propagate_pul(&mut doc, &pul).unwrap();
        prop_assert_eq!(serialize_document(&doc), serialize_document(&post));
        for (name, report) in &reports {
            let view = engine.view(name).unwrap();
            let fresh = xivm::ivma::recompute_store(&doc, view.pattern());
            prop_assert!(
                view.store().identical_to(&fresh),
                "{} after {:?} (doc={}):\n{}",
                name,
                pul.ops,
                doc_xml,
                view.store().diff_description(&fresh)
            );
            if name == "valued" && fires {
                prop_assert!(report.recomputed, "a flagged commit recomputes (doc={})", doc_xml);
            }
        }
    }
}

// ---------------------------------------------------------------------
// A deletion's losses by range plus witness terms against the full Δ⁻
// ---------------------------------------------------------------------

/// Views whose deletions lose rows both ways: stored columns beside
/// unstored predicate branches (the witnesses), two stored columns on
/// sibling branches under an unstored node (Q13's shape), a wildcard.
const WITNESS_PATTERNS: [&str; 6] = [
    "//a{id}[//d]//b{id}",
    "//a[/@k]//b{id,val}",
    "//a[/b{id,val}][/c{id,cont}]",
    "//r{id}/*{id}[//d]//b{id}",
    "//a{id}[//d[val=\"5\"]]//c{id,cont}",
    "//*{id}[/c]",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random subtree deletes — one unreduced PUL of up to five
    /// operations read off the seed, so roots nest and repeat — under
    /// views with witness branches: the losses the engine publishes (the
    /// rows bound to a deleted node, taken by range, plus the witness
    /// terms) equal the full Δ⁻ terms over every pattern node's table,
    /// evaluated on whole leaves, row for row with the counts; the store
    /// and every snowcap are identical to their recomputation. A commit
    /// the flip rule sends to the recomputation is checked against
    /// recomputation alone.
    #[test]
    fn range_plus_witness_equals_the_full_delta_minus_terms(
        doc_xml in arb_doc(),
        keyed in 0usize..4,
        pattern_idx in 0usize..WITNESS_PATTERNS.len(),
        picks in prop::collection::vec(0usize..1000, 1..6),
        strategy in 0usize..3,
    ) {
        use xivm::core::etins::subset_terms;
        use xivm::core::propagate::{eval, terms, DeltaSide, TermContext};
        use xivm::pattern::compile::project_to_view;
        use xivm::update::{apply_pul, AtomicOp, DeltaMinus, Pul};
        let doc_xml = doc_xml.replacen("<a>", "<a k=\"1\">", keyed);
        let seed = parse_document(&doc_xml).unwrap();
        let nodes = seed.descendants_or_self(seed.root().unwrap());
        let pick = |p: usize| seed.dewey(nodes[1 + p % (nodes.len() - 1)]);
        let pul = Pul::new(picks.iter().map(|&p| AtomicOp::Delete { node: pick(p) }).collect());
        if nodes.len() < 2 {
            return Ok(());
        }
        let pattern = parse_pattern(WITNESS_PATTERNS[pattern_idx]).unwrap();

        let mut post = seed.clone();
        let applied = apply_pul(&mut post, &pul).unwrap();
        let complete = DeltaMinus::complete(&post, &pattern, &applied);
        let ctx = TermContext::new(&post, &pattern, &applied);
        let side = DeltaSide::Minus { tables: &complete };
        let order = pattern.preorder();
        let table = subset_terms(&pattern, &order.iter().copied().collect());
        let (full, _) = terms(&ctx, &side, &table, &order);
        let lost = eval(&ctx, &side, &order, &full, &[]);
        let reference: Vec<_> = if lost.is_empty() { Vec::new() } else { project_to_view(&pattern, &lost) }
            .into_iter()
            .map(|(t, c)| (t.id_key(), c))
            .collect();

        let mut doc = seed.clone();
        let view = (String::new(), pattern.clone(), STRATEGIES[strategy]);
        let mut host = MultiViewEngine::new(&doc, [view]);
        let report = host.propagate_pul(&mut doc, &pul).unwrap().swap_remove(0).1;
        let engine = host.get(0).unwrap().1;
        let what = format!("{} after {:?} (doc={doc_xml})", pattern.to_text(), pul.ops);
        if !report.recomputed {
            let lost: Vec<_> = report.delta.rows().iter()
                .filter(|(_, w)| *w < 0)
                .map(|(t, w)| (t.id_key(), w.unsigned_abs()))
                .collect();
            prop_assert_eq!(lost, reference, "{}", what);
        }
        let fresh = MaintenanceEngine::new(&doc, pattern.clone(), STRATEGIES[strategy]);
        prop_assert!(
            engine.store().identical_to(fresh.store()),
            "{}:\n{}",
            what,
            engine.store().diff_description(fresh.store())
        );
        for (m, f) in engine.snowcaps().iter().zip(fresh.snowcaps()) {
            prop_assert!(m.rel.rows == f.rel.rows, "{} snowcap {:?}", what, m.nodes);
        }
    }
}

/// Does one of `roots` lie inside another?
fn nests(roots: &[DeweyId]) -> bool {
    roots.iter().any(|r| roots.iter().any(|s| r.is_ancestor_of(s)))
}

/// The flip rule as the engine states it: a value predicate's label —
/// any element's, for a wildcard — at or above a node the apply moved
/// text under.
fn flip_rule_fires(doc: &Document, pattern: &TreePattern, moved: &[DeweyId]) -> bool {
    use xivm::pattern::NodeTest;
    let valued = pattern.node_ids().filter(|&n| pattern.node(n).val_pred.is_some());
    valued.into_iter().any(|n| match &pattern.node(n).test {
        NodeTest::Wildcard => !moved.is_empty(),
        NodeTest::Name(name) => doc
            .label_id(name)
            .is_some_and(|l| moved.iter().any(|r| r.has_self_or_ancestor_labeled(l))),
    })
}

// ---------------------------------------------------------------------
// Predicate flips against the capture they replaced
// ---------------------------------------------------------------------

/// The reference the flip rule replaced: every node of `doc` a value
/// predicate of `pattern` ranges over, with the predicate's truth there.
fn predicate_truths(doc: &Document, pattern: &TreePattern) -> Vec<(PatternNodeId, NodeId, bool)> {
    use xivm::pattern::NodeTest;
    let mut truths = Vec::new();
    for p in pattern.node_ids() {
        let node = pattern.node(p);
        let Some(pred) = node.val_pred.as_deref() else { continue };
        for n in doc.descendants_or_self(doc.root().unwrap()) {
            let ranged = match &node.test {
                NodeTest::Name(name) => doc.label_id(name) == Some(doc.node(n).label),
                NodeTest::Wildcard => doc.node(n).kind == NodeKind::Element,
            };
            if ranged {
                truths.push((p, n, doc.value(n) == pred));
            }
        }
    }
    truths
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One unreduced PUL of up to four statements, each read off the
    /// seed or off the document the statements before it left — so
    /// forests land under nodes the PUL inserted — and with `nested` a
    /// text node deleted before the element around it. For every old
    /// node a value predicate ranges over that survives, the truth of
    /// the predicate before and after is compared (the capture the flip
    /// rule replaced, over every such node, not only those above the
    /// targets): a change comes with `recomputed` on the view's report.
    /// Every store equals its recomputation.
    #[test]
    fn every_predicate_flip_recomputes_its_view(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..VALUED_PATTERNS.len(),
        steps in prop::collection::vec(
            (0usize..PLUS_TARGETS.len(), 0usize..PLUS_FORESTS.len(), 0usize..3, 0usize..2),
            1..5
        ),
        nested in (0usize..3, 0usize..64),
        strategy in 0usize..3,
    ) {
        use xivm::core::MultiViewEngine;
        use xivm::update::{apply_pul, compute_pul, AtomicOp, Pul};
        let seed = parse_document(&doc_xml).unwrap();
        let mut evolved = seed.clone();
        let mut ops = Vec::new();
        for &(t, f, delete, evolving) in &steps {
            let stmt = if delete == 0 {
                format!("delete {}", PLUS_TARGETS[t])
            } else {
                format!("insert {} into {}", PLUS_FORESTS[f], PLUS_TARGETS[t])
            };
            let stmt = parse_statement(&stmt).unwrap();
            let step = compute_pul(if evolving == 0 { &seed } else { &evolved }, &stmt);
            apply_pul(&mut evolved, &step).unwrap();
            ops.extend(step.ops);
        }
        let texts = seed.canonical_nodes_named(xivm::xml::TEXT_LABEL);
        if nested.0 > 0 && !texts.is_empty() {
            let text = texts[nested.1 % texts.len()];
            let around = seed.dewey(seed.parent_of(text).unwrap());
            let at = ops.len().min(nested.1 % (ops.len() + 1));
            ops.insert(at, AtomicOp::Delete { node: around });
            ops.insert(at, AtomicOp::Delete { node: seed.dewey(text) });
        }
        let pul = Pul::new(ops);
        let valued = parse_pattern(VALUED_PATTERNS[pattern_idx]).unwrap();
        let plain = parse_pattern("//a{id}//b{id}").unwrap();
        let before = predicate_truths(&seed, &valued);

        let mut doc = seed.clone();
        let views = [("valued", &valued), ("plain", &plain)]
            .map(|(name, p)| (name.to_owned(), p.clone(), STRATEGIES[strategy]));
        let mut engine = MultiViewEngine::new(&doc, views);
        let reports = engine.propagate_pul(&mut doc, &pul).unwrap();
        let flipped = before.iter().any(|&(p, n, was)| {
            let pred = valued.node(p).val_pred.as_deref().unwrap();
            doc.is_alive(n) && (doc.value(n) == pred) != was
        });
        for (name, report) in &reports {
            let view = engine.view(name).unwrap();
            let fresh = xivm::ivma::recompute_store(&doc, view.pattern());
            prop_assert!(
                view.store().identical_to(&fresh),
                "{} after {:?} (doc={}):\n{}",
                name,
                pul.ops,
                doc_xml,
                view.store().diff_description(&fresh)
            );
            if name == "valued" && flipped {
                prop_assert!(
                    report.recomputed,
                    "a flip on {} after {:?} went unseen (doc={})",
                    valued.to_text(),
                    pul.ops,
                    doc_xml
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Δ⁺ read off the apply against the per-view tables
// ---------------------------------------------------------------------

/// Views over `arb_doc` and the forests below: `val` and `cont` on
/// inserted nodes and above them, value predicates, a wildcard, a
/// `/`-anchored root, and `e`, a label only the forests introduce.
const PLUS_PATTERNS: [&str; 7] = [
    "//a{id,val}//b{id}",
    "//a{id,cont}[//b]",
    "//a{id}[val=\"5\"]//b{id,val}",
    "//*{id,val}//c{id,cont}",
    "/r{id}//a{id,cont}",
    "//e{id,val}//b{id,cont}",
    "//a{id}//e{id}[val=\"x\"]",
];

/// `FORESTS`, and two that introduce `e`, one with an attribute.
const PLUS_FORESTS: [&str; 6] = [
    "<b/>",
    "<a><b/><c/></a>",
    "<c><b/></c>",
    "<d>5</d>",
    "<e k=\"1\">5<b/></e>",
    "<a><e>x</e>5</a>",
];

/// `TARGETS`, and the `e` nodes a forest inserted.
const PLUS_TARGETS: [&str; 5] = ["//a", "//b", "//a//c", "//d", "//e"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One unreduced PUL of up to three statements, each read off the
    /// seed or — as a sequential transaction does — off the document the
    /// statements before it left: so forests land under many targets,
    /// under nested ones, under nodes the PUL inserted, and lose nodes
    /// to a later delete. Applied once, per pattern node, the Δ⁺ the
    /// apply extracts (every label, and the views' own labels resolved
    /// against the seed) equals `relation_from_nodes` over the created
    /// nodes. Propagated through a multi-view engine, every store
    /// equals its recomputation.
    #[test]
    fn delta_plus_from_the_apply_equals_the_per_view_tables(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..PLUS_PATTERNS.len(),
        steps in prop::collection::vec(
            (0usize..PLUS_TARGETS.len(), 0usize..PLUS_FORESTS.len(), 0usize..3, 0usize..2),
            1..4
        ),
        strategy in 0usize..3,
    ) {
        use xivm::core::MultiViewEngine;
        use xivm::pattern::compile::relation_from_nodes;
        use xivm::update::{apply_pul, apply_pul_for, compute_pul, DeltaLabels, DeltaPlus, Pul};
        let seed = parse_document(&doc_xml).unwrap();
        let mut evolved = seed.clone();
        let mut ops = Vec::new();
        for &(t, f, delete, evolving) in &steps {
            let stmt = if delete == 0 {
                format!("delete {}", PLUS_TARGETS[t])
            } else {
                format!("insert {} into {}", PLUS_FORESTS[f], PLUS_TARGETS[t])
            };
            let stmt = parse_statement(&stmt).unwrap();
            let step = compute_pul(if evolving == 0 { &seed } else { &evolved }, &stmt);
            apply_pul(&mut evolved, &step).unwrap();
            ops.extend(step.ops);
        }
        let pul = Pul::new(ops);
        let view = parse_pattern(PLUS_PATTERNS[pattern_idx]).unwrap();
        let plain = parse_pattern("//a{id}//b{id}").unwrap();
        for wanted in [DeltaLabels::all(), DeltaLabels::of(&seed, [&view, &plain])] {
            let mut post = seed.clone();
            let applied = apply_pul_for(&mut post, &pul, &wanted).unwrap();
            let dplus = DeltaPlus::compute(&post, &view, &applied);
            for n in view.node_ids() {
                let created = applied.inserted.matching(&post, &view.node(n).test);
                let reference = relation_from_nodes(&post, &view, n, &created, true);
                let what = format!("{n:?} of {} after {:?} (doc={doc_xml})", view.to_text(), pul.ops);
                prop_assert_eq!(dplus.table(n), &reference, "{}", what);
            }
        }

        let mut doc = seed.clone();
        let views = [("view", &view), ("plain", &plain)]
            .map(|(name, p)| (name.to_owned(), p.clone(), STRATEGIES[strategy]));
        let mut engine = MultiViewEngine::new(&doc, views);
        engine.propagate_pul(&mut doc, &pul).unwrap();
        prop_assert_eq!(serialize_document(&doc), serialize_document(&evolved));
        for name in ["view", "plain"] {
            let view = engine.view(name).unwrap();
            let fresh = xivm::ivma::recompute_store(&doc, view.pattern());
            prop_assert!(
                view.store().identical_to(&fresh),
                "{} after {:?} (doc={}):\n{}",
                name,
                pul.ops,
                doc_xml,
                view.store().diff_description(&fresh)
            );
        }
    }
}

/// Subscriptions across `independent()` transactions: a rejected
/// batch consumes no sequence number and emits no event; committed
/// batches (conflict-free, or resolved by policy) stream replayable
/// deltas with consecutive sequence numbers.
#[test]
fn deltas_subscription_across_independent_transactions() {
    let mut db = Database::builder()
        .document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>")
        .view("acb", "//a{id}[//c{id}]//b{id}")
        .view("ab", "//a{id}//b{id}")
        .build()
        .unwrap();
    let acb = db.view("acb").unwrap();
    let feed = db.subscribe(acb);
    let mut replica = db.store(acb).clone();

    // 1. a conflict-free independent batch commits and streams
    db.transaction()
        .independent()
        .statement("insert <b/> into /a/c")
        .statement("delete /a/f")
        .commit()
        .unwrap();

    // 2. a conflicting batch is rejected: no commit, no event
    let err = db
        .transaction()
        .independent()
        .statement("delete /a/c")
        .statement("insert <b/> into /a/c")
        .commit()
        .unwrap_err();
    assert!(matches!(err, Error::Conflict(_)));
    assert_eq!(db.pending(&feed), 1, "rejected batches must not emit events");
    assert_eq!(db.last_seq(), 1, "rejected batches must not consume sequence numbers");

    // 3. the same conflict under a resolving policy commits
    db.transaction()
        .independent()
        .on_conflict(ConflictPolicy::FirstWins)
        .statement("delete /a/c")
        .statement("insert <b/> into /a/c")
        .commit()
        .unwrap();

    let events = db.drain(&feed);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![1, 2], "gapless across the rejected batch");
    for event in &events {
        event.delta.replay(&mut replica);
    }
    assert!(replica.identical_to(db.store(acb)), "snapshot + Σ deltas == final store");
    db.unsubscribe(feed);
}

/// Unsubscribing between two batches of commits: the cancelled feed
/// stops cleanly at a commit boundary, the surviving feed keeps a
/// gapless, replayable stream across both batches, and a subscriber
/// added between batches sees exactly the later commits.
#[test]
fn unsubscribe_between_overlapped_commits() {
    let mut db = Database::builder()
        .document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>")
        .view("ab", "//a{id}//b{id}")
        .view("acb", "//a{id}[//c{id}]//b{id}")
        .view("c_cont", "//c{id,cont}")
        .build()
        .unwrap();
    let ab = db.view("ab").unwrap();
    let early = db.subscribe(ab);
    let survivor = db.subscribe(ab);
    assert_eq!(db.subscriptions(), 2);
    let mut replica = db.store(ab).clone();

    for s in ["insert <b/> into /a/c", "delete /a/f/c", "insert <c><b/></c> into /a"] {
        db.apply(s).unwrap();
    }

    // drop one feed between the two batches: its events are
    // discarded with it, the other feed is untouched
    let drained_early = db.drain(&early);
    assert_eq!(drained_early.len(), 3);
    db.unsubscribe(early);
    assert_eq!(db.subscriptions(), 1);

    let late = db.subscribe(ab);
    for s in ["insert <b/> into //c", "delete //c//b"] {
        db.apply(s).unwrap();
    }

    let events = db.drain(&survivor);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5], "gapless across both batches");
    for e in &events {
        e.delta.replay(&mut replica);
    }
    assert!(replica.identical_to(db.store(ab)), "snapshot + Σ deltas == final store");

    let late_events = db.drain(&late);
    let late_seqs: Vec<u64> = late_events.iter().map(|e| e.seq).collect();
    assert_eq!(late_seqs, vec![4, 5], "a mid-stream subscriber sees exactly the later commits");
    db.unsubscribe(survivor);
    db.unsubscribe(late);
    assert_eq!(db.subscriptions(), 0);
}

/// N subscribers of one view cost one delta allocation per commit
/// (`Arc`-shared) — and subscribers of *different* views never alias.
#[test]
fn multiple_subscribers_on_one_view_share_the_delta_allocation() {
    let mut db = Database::builder()
        .document("<a><c><b/><b/></c><f><b/></f></a>")
        .view("ab", "//a{id}//b{id}")
        .view("ac", "//a{id}//c{id}")
        .build()
        .unwrap();
    let ab = db.view("ab").unwrap();
    let ac = db.view("ac").unwrap();
    let s1 = db.subscribe(ab);
    let s2 = db.subscribe(ab);
    let other = db.subscribe(ac);

    let commits: Vec<Commit> =
        ["insert <b/> into /a/c", "insert <c><b/></c> into /a", "delete /a/f/b"]
            .map(|s| db.apply(s).unwrap())
            .into();

    let (e1, e2, eo) = (db.drain(&s1), db.drain(&s2), db.drain(&other));
    assert_eq!(e1.len(), 3);
    assert_eq!(e2.len(), 3);
    for ((a, b), commit) in e1.iter().zip(&e2).zip(&commits) {
        assert_eq!((a.seq, b.seq), (commit.seq, commit.seq));
        assert!(
            std::sync::Arc::ptr_eq(&a.delta, &b.delta),
            "same-view subscribers must share one allocation per commit"
        );
        assert!(
            std::sync::Arc::ptr_eq(&a.delta, &commit.report(ab).delta),
            "and it is the commit's own delta, not a copy of it"
        );
    }
    for (a, o) in e1.iter().zip(&eo) {
        assert!(!std::sync::Arc::ptr_eq(&a.delta, &o.delta), "different views never share a delta");
    }
    db.unsubscribe(s1);
    db.unsubscribe(s2);
    db.unsubscribe(other);
}

/// A rejected async submission is a perfect no-op: a malformed
/// statement (parse error or unparseable insert forest) rejects the
/// *whole* batch before anything is scheduled — no ticket, no sequence
/// number, no event, no document or view change.
#[test]
fn rejected_async_submission_emits_nothing() {
    let mut db = Database::builder()
        .document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>")
        .view("acb", "//a{id}[//c{id}]//b{id}")
        .build()
        .unwrap();
    let acb = db.view("acb").unwrap();
    let feed = db.subscribe(acb);
    let before = db.serialize();

    let parse_err = db.apply_async(["insert <b/> into /a/c", "frobnicate //a", "delete /a/f"]);
    assert!(matches!(parse_err, Err(Error::Statement(_))));
    let forest_err = db.apply_async(["delete /a/f", "insert <b><broken> into /a/c"]);
    assert!(matches!(forest_err, Err(Error::Xml(_))));

    assert_eq!(db.serialize(), before, "rejected batches must touch nothing");
    assert_eq!(db.last_seq(), 0, "no sequence number is consumed");
    assert_eq!(db.pending(&feed), 0, "no event is emitted");

    // and the database still works afterwards
    let tickets = ["insert <b/> into /a/c", "delete /a/f"].map(|s| db.apply_async([s]).unwrap());
    assert_eq!(tickets.map(|t| t.seq), [1, 2]);
    db.flush().unwrap();
    let events = db.drain(&feed);
    assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
    db.unsubscribe(feed);
}

// ---------------------------------------------------------------------
// Slow-consumer policies (bounded subscription queues)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// [`SlowConsumerPolicy::DropAndMark`]: overflowing a capacity-k
    /// queue by n commits drops the n *oldest* events and marks the
    /// stream with the exact missed range `1..=n`; the documented
    /// recovery recipe — re-seed a mirror from [`Database::snapshot`]
    /// and replay only events newer than the snapshot — reconverges
    /// bit-identically with the live store.
    #[test]
    fn drop_and_mark_reports_exact_lag_and_snapshot_reseed_reconverges(
        capacity in 1usize..4,
        overflow in 1usize..5,
    ) {
        let mut db = Database::builder()
            .document("<r><a><b/></a><a><c/></a></r>")
            .view("ab", PATTERNS[0])
            .build()
            .unwrap();
        let h = db.view("ab").unwrap();
        let sub = db.subscribe_with(h, Some(capacity), SlowConsumerPolicy::DropAndMark);

        let total = capacity + overflow;
        for i in 0..total {
            db.apply(script_statement(i % 2, i % FORESTS.len(), true).as_str()).unwrap();
        }

        let events = sub.drain();
        prop_assert_eq!(events.len(), capacity + 1, "lag marker + the retained tail");
        match &events[0] {
            FeedEvent::Lagged(lag) => prop_assert_eq!(
                lag.missed_range.clone(),
                1..=(overflow as u64),
                "the missed range names exactly the dropped commits"
            ),
            other => prop_assert!(false, "expected the lag marker first, got {:?}", other),
        }
        let tail: Vec<u64> = events[1..].iter().filter_map(|e| e.delta()).map(|d| d.seq).collect();
        prop_assert_eq!(
            tail,
            ((overflow as u64 + 1)..=total as u64).collect::<Vec<u64>>(),
            "the retained tail is the newest `capacity` events, gapless"
        );

        // The recovery recipe: freeze a snapshot, seed the mirror from
        // it, and from here on replay only events newer than its seq.
        let snap = db.snapshot();
        let resume = snap.seq();
        let mut mirror = snap.store(h).clone();
        for i in 0..2 {
            db.apply(script_statement(i % 2, (i + 1) % FORESTS.len(), true).as_str()).unwrap();
            // a keeping-up consumer: drained every commit, so even a
            // capacity-1 queue never drops again
            for ev in sub.drain() {
                match ev {
                    FeedEvent::Delta(d) => {
                        prop_assert!(d.seq > resume, "post-reseed events resume gaplessly");
                        d.delta.replay(&mut mirror);
                    }
                    FeedEvent::Lagged(lag) => {
                        prop_assert!(false, "a drained queue never lags: {:?}", lag.missed_range)
                    }
                }
            }
        }
        prop_assert!(
            mirror.identical_to(db.store(h)),
            "snapshot re-seed + replayed tail must equal the live store"
        );
        db.unsubscribe(sub);
    }
}

/// [`SlowConsumerPolicy::Block`]: a full queue makes the *producer*
/// (the async service sealing commits, not the submitting thread)
/// wait for the consumer — observably, via the flush that cannot
/// complete before the sleeping consumer starts draining — and not a
/// single event is lost or reordered.
#[test]
fn block_policy_backpressure_waits_and_loses_nothing() {
    use std::time::{Duration, Instant};

    const PAUSE: Duration = Duration::from_millis(50);
    let mut db =
        Database::builder().document("<r><a><b/></a></r>").view("ab", PATTERNS[0]).build().unwrap();
    let h = db.view("ab").unwrap();
    let sub = db.subscribe_with(h, Some(1), SlowConsumerPolicy::Block);

    let consumer = std::thread::spawn(move || {
        std::thread::sleep(PAUSE);
        let mut seqs: Vec<u64> = Vec::new();
        while seqs.len() < 4 {
            for ev in sub.drain() {
                match ev {
                    FeedEvent::Delta(d) => seqs.push(d.seq),
                    FeedEvent::Lagged(lag) => {
                        panic!("Block never drops (missed {:?})", lag.missed_range)
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        (seqs, sub)
    });

    let start = Instant::now();
    let tickets: Vec<Ticket> =
        (0..4).map(|_| db.apply_async(["insert <b/> into //a"]).unwrap()).collect();
    let submitted = start.elapsed();
    db.flush().unwrap();
    let flushed = start.elapsed();

    assert!(submitted < PAUSE, "submission never blocks on backpressure ({submitted:?})");
    assert!(flushed >= PAUSE, "sealing had to wait for the sleeping consumer ({flushed:?})");
    for t in tickets {
        t.wait().unwrap();
    }
    let (seqs, sub) = consumer.join().unwrap();
    assert_eq!(seqs, vec![1, 2, 3, 4], "nothing lost, nothing reordered");
    db.unsubscribe(sub);
}

/// [`SlowConsumerPolicy::Disconnect`]: overflowing the queue drops the
/// subscription — its queue empties, the registry forgets it at the
/// next commit (so later commits stop paying for it), and surviving
/// subscriptions are untouched.
#[test]
fn disconnect_policy_drops_the_subscription() {
    let mut db =
        Database::builder().document("<r><a><b/></a></r>").view("ab", PATTERNS[0]).build().unwrap();
    let h = db.view("ab").unwrap();
    let keeper = db.subscribe(h);
    let fragile = db.subscribe_with(h, Some(1), SlowConsumerPolicy::Disconnect);
    assert_eq!(db.subscriptions(), 2);

    db.apply("insert <b/> into //a").unwrap(); // fills the queue
    db.apply("insert <b/> into //a").unwrap(); // overflows: disconnect
    assert!(fragile.is_disconnected());
    assert_eq!(fragile.pending(), 0, "the queue is emptied on disconnect");
    assert!(fragile.drain().is_empty(), "no events and no lag marker survive");

    db.apply("insert <b/> into //a").unwrap(); // registry sweep
    assert_eq!(db.subscriptions(), 1, "later commits do not pay for the dead feed");
    assert!(fragile.drain().is_empty(), "nothing is delivered after the disconnect");

    let seqs: Vec<u64> = db.drain(&keeper).iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![1, 2, 3], "survivors keep a gapless stream");

    db.unsubscribe(fragile); // tolerated: already swept
    db.unsubscribe(keeper);
    assert_eq!(db.subscriptions(), 0);
}

// ---------------------------------------------------------------------
// Lagged resume contract across sealing modes (feed wire depends on it)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The resume contract the socket replication layer builds on:
    /// whatever sealed the commits — a loop of `apply` or the async
    /// service thread — a [`DropAndMark`] overflow delivers the
    /// `Lagged` marker first, the very next delta's `seq` is exactly
    /// `missed_range.end() + 1`, and the tail runs gapless to the last
    /// commit. A consumer that re-seeds at the marker never replays a
    /// hole and never skips a live event.
    #[test]
    fn lagged_marker_resumes_exactly_past_the_missed_range(
        capacity in 1usize..4,
        overflow in 2usize..6,
        use_async in prop::bool::ANY,
    ) {
        let mut db = Database::builder()
            .document("<r><a><b/></a><a><c/></a></r>")
            .view("ab", PATTERNS[0])
            .build()
            .unwrap();
        let h = db.view("ab").unwrap();
        let sub = db.subscribe_with(h, Some(capacity), SlowConsumerPolicy::DropAndMark);

        let total = capacity + overflow;
        let stmts: Vec<String> =
            (0..total).map(|i| script_statement(i % 2, i % FORESTS.len(), true)).collect();
        if use_async {
            for s in &stmts {
                db.apply_async([s.as_str()]).unwrap();
            }
            db.flush().unwrap();
        } else {
            for s in &stmts {
                db.apply(s.as_str()).unwrap();
            }
        }
        prop_assert_eq!(db.last_seq(), total as u64);

        let events = sub.drain();
        let lag = match &events[0] {
            FeedEvent::Lagged(lag) => lag.missed_range.clone(),
            other => return Err(TestCaseError::fail(format!("expected marker first, got {other:?}"))),
        };
        let tail: Vec<u64> = events[1..].iter().filter_map(|e| e.delta()).map(|d| d.seq).collect();
        prop_assert_eq!(
            tail.first().copied(),
            Some(lag.end() + 1),
            "first delta after the marker resumes exactly past the missed range"
        );
        prop_assert_eq!(
            tail,
            (lag.end() + 1..=total as u64).collect::<Vec<u64>>(),
            "the retained tail is gapless through the last commit"
        );
        db.unsubscribe(sub);
    }
}

// ---------------------------------------------------------------------
// Snapshot / event codec hardening (adversarial single-byte corruption)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Flipping any single byte of an encoded store or event frame
    /// must never panic or over-allocate: `decode_*` either rejects
    /// the blob, or accepts it into a value whose canonical
    /// re-encoding is a decode fixpoint (decode → encode → decode is
    /// stable). This is the property the feed's `read_frame` +
    /// `decode_event` path relies on against a corrupted peer.
    #[test]
    fn single_byte_corruption_is_rejected_or_decodes_stably(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..PATTERNS.len(),
        pos_seed in 0usize..65536,
        xor in 1u8..255,
    ) {
        use xivm::core::snapshot::{decode_event, decode_store, encode_event, encode_store};

        let mut db = Database::builder()
            .document(doc_xml.as_str())
            .view("v", PATTERNS[pattern_idx])
            .build()
            .unwrap();
        let h = db.view("v").unwrap();
        let sub = db.subscribe(h);
        db.apply("insert <a><b/><d>5</d></a> into /r").unwrap();
        let event = sub.drain().into_iter().next().unwrap();
        db.unsubscribe(sub);

        // Store blob: corrupt one byte, decode, check the contract.
        let store_bytes = encode_store(db.store(h));
        let mut corrupt = store_bytes.clone();
        let pos = pos_seed % corrupt.len();
        corrupt[pos] ^= xor;
        if let Ok(decoded) = decode_store(&corrupt) {
            let re = encode_store(&decoded);
            let again = decode_store(&re).map_err(|e| {
                TestCaseError::fail(format!("accepted store must re-decode: {e:?}"))
            })?;
            prop_assert_eq!(encode_store(&again), re, "decode→encode must reach a fixpoint");
        }

        // Event frame: same contract on the feed path.
        let event_bytes = encode_event(&event);
        let mut corrupt = event_bytes.clone();
        let pos = pos_seed % corrupt.len();
        corrupt[pos] ^= xor;
        if let Ok(decoded) = decode_event(&corrupt) {
            let re = encode_event(&decoded);
            let again = decode_event(&re).map_err(|e| {
                TestCaseError::fail(format!("accepted event must re-decode: {e:?}"))
            })?;
            prop_assert_eq!(encode_event(&again), re, "decode→encode must reach a fixpoint");
        }
    }
}

// ---------------------------------------------------------------------
// Deferred maintenance ≡ immediate maintenance (random refresh points)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Differential proof for deferred views: the same random script
    /// with refreshes interleaved at random points converges to the
    /// immediately-maintained store, the changefeed stays gapless
    /// (deferred commits carry empty deltas, each refresh commit folds
    /// exactly the batch since the previous refresh), and replaying
    /// the whole stream on a mirror reproduces the store byte for
    /// byte.
    #[test]
    fn deferred_refresh_at_random_points_equals_immediate(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..PATTERNS.len(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..8
        ),
        refresh_mask in prop::collection::vec(prop::bool::ANY, 8..9),
    ) {
        let mut immediate = Database::builder()
            .document(doc_xml.as_str())
            .view("v", PATTERNS[pattern_idx])
            .view("anchor", PATTERNS[0])
            .build()
            .unwrap();
        let mut deferred = Database::builder()
            .document(doc_xml.as_str())
            .view_deferred("v", PATTERNS[pattern_idx])
            .view("anchor", PATTERNS[0])
            .build()
            .unwrap();
        let hv = deferred.view("v").unwrap();
        let sub = deferred.subscribe_with(hv, None, SlowConsumerPolicy::Block);
        let mut mirror = deferred.store(hv).clone();

        for (k, (t, f, is_insert)) in script.iter().enumerate() {
            let stmt = script_statement(*t, *f, *is_insert);
            let a = immediate.apply(stmt.as_str());
            let b = deferred.apply(stmt.as_str());
            prop_assert_eq!(a.is_ok(), b.is_ok(), "both modes accept/reject identically");
            if refresh_mask[k] {
                deferred.refresh(hv).unwrap();
            }
        }
        deferred.refresh(hv).unwrap();
        prop_assert_eq!(deferred.deferred_commits(hv), 0, "nothing left pending after refresh");
        consistent(&deferred)?;
        prop_assert_eq!(
            fingerprint(&deferred, hv),
            fingerprint(&immediate, immediate.view("v").unwrap()),
            "deferred-then-refreshed must equal immediate maintenance"
        );

        // The stream: gapless seqs, refresh events carry the exact
        // folded range, and a replayed mirror lands byte-identical.
        let mut next_fold_start = 1u64;
        for (expect, ev) in (1u64..).zip(sub.drain()) {
            let d = match ev {
                FeedEvent::Delta(d) => d,
                FeedEvent::Lagged(lag) => {
                    return Err(TestCaseError::fail(format!(
                        "unbounded feed never lags: {:?}", lag.missed_range
                    )))
                }
            };
            prop_assert_eq!(d.seq, expect, "deferred commits never leave a hole");
            if let Some(folded) = &d.folded {
                // Empty-PUL commits fold nothing, so a range may start
                // after the previous refresh — but never before it.
                prop_assert!(*folded.start() >= next_fold_start, "fold ranges never overlap");
                prop_assert_eq!(*folded.end() + 1, d.seq, "a refresh folds everything before it");
                next_fold_start = d.seq + 1;
            }
            d.delta.replay(&mut mirror);
        }
        prop_assert!(
            mirror.identical_to(deferred.store(hv)),
            "replaying the stream (folds included) reproduces the store"
        );
        db_cleanup(deferred, sub);
    }
}

fn db_cleanup(mut db: Database, sub: Subscription) {
    db.unsubscribe(sub);
}

// ---------------------------------------------------------------------
// The attribute-value index against the scan it replaced
// ---------------------------------------------------------------------

/// The XPath evaluator as it was before the value index, as the
/// reference: label *names* compared per candidate, every step a scan
/// of the context's children or subtrees, every step's output sorted
/// and deduplicated by Dewey ID. (`crates/pattern` keeps the same
/// reference under `#[cfg(test)]`, out of this suite's reach.)
mod scan {
    use xivm::algebra::Axis;
    use xivm::pattern::xpath::{LocationPath, XNodeTest, XPred, XStep};
    use xivm::xml::{Document, NodeId, NodeKind};

    pub fn eval_path_scan(doc: &Document, path: &LocationPath) -> Vec<NodeId> {
        let Some(root) = doc.root() else { return Vec::new() };
        let (first, rest) = path.steps.split_first().expect("paths have steps");
        let mut context = match first.axis {
            Axis::Child => vec![root],
            Axis::Descendant => doc.descendants_or_self(root),
        };
        context.retain(|&n| test(doc, n, &first.test) && preds(doc, n, &first.preds));
        steps(doc, context, rest)
    }

    fn steps(doc: &Document, mut context: Vec<NodeId>, steps: &[XStep]) -> Vec<NodeId> {
        for step in steps {
            let mut out: Vec<NodeId> = Vec::new();
            for &ctx in &context {
                match (&step.test, step.axis) {
                    (XNodeTest::SelfNode, _) => out.push(ctx),
                    (_, Axis::Child) => out.extend(doc.children_of(ctx)),
                    (_, Axis::Descendant) => out.extend(&doc.descendants_or_self(ctx)[1..]),
                }
            }
            out.retain(|&n| test(doc, n, &step.test));
            let mut keyed: Vec<_> = out.into_iter().map(|n| (doc.dewey(n), n)).collect();
            keyed.sort_by(|a, b| a.0.doc_cmp(&b.0));
            keyed.dedup_by(|a, b| a.1 == b.1);
            context = keyed.into_iter().map(|(_, n)| n).collect();
            context.retain(|&n| preds(doc, n, &step.preds));
        }
        context
    }

    fn test(doc: &Document, node: NodeId, test: &XNodeTest) -> bool {
        let n = doc.node(node);
        match test {
            XNodeTest::Name(name) => n.kind == NodeKind::Element && doc.label_name(n.label) == name,
            XNodeTest::Wildcard => n.kind == NodeKind::Element,
            XNodeTest::Attribute(name) => {
                n.kind == NodeKind::Attribute && doc.label_name(n.label) == format!("@{name}")
            }
            XNodeTest::Text => n.kind == NodeKind::Text,
            XNodeTest::SelfNode => true,
        }
    }

    fn preds(doc: &Document, node: NodeId, preds: &[XPred]) -> bool {
        preds.iter().all(|p| pred(doc, node, p))
    }

    fn pred(doc: &Document, node: NodeId, p: &XPred) -> bool {
        let from_here = |path: &LocationPath| steps(doc, vec![node], &path.steps);
        match p {
            XPred::Exists(path) => !from_here(path).is_empty(),
            XPred::ValEq(path, c) => from_here(path).iter().any(|&n| doc.value(n) == *c),
            XPred::And(a, b) => pred(doc, node, a) && pred(doc, node, b),
            XPred::Or(a, b) => pred(doc, node, a) || pred(doc, node, b),
        }
    }
}

/// `eval_path == eval_path_scan` on `doc` for every path of `paths`,
/// and the document's own invariants (the value index checked both
/// ways among them).
fn index_equals_scan(doc: &Document, paths: &[&str], when: &str) -> Result<(), TestCaseError> {
    use xivm::pattern::xpath::{eval_path, parse_xpath};
    for xp in paths {
        let path = parse_xpath(xp).expect("probe paths parse");
        prop_assert_eq!(
            eval_path(doc, &path),
            scan::eval_path_scan(doc, &path),
            "{} {}: {}",
            xp,
            when,
            serialize_document(doc)
        );
    }
    doc.check_invariants().map_err(TestCaseError::fail)
}

/// [`arb_doc`] with attributes: every start tag draws none, `k`, `j`
/// or both, with values from a set of three — so values repeat, across
/// labels and across attribute names.
fn arb_keyed_doc() -> impl Strategy<Value = String> {
    (arb_doc(), prop::collection::vec(0usize..12, 48..49)).prop_map(|(xml, picks)| {
        let mut out = String::with_capacity(xml.len() * 2);
        let mut tags = 0;
        let mut rest = xml.as_str();
        while let Some(lt) = rest.find('<') {
            let end = lt + rest[lt..].find(['>', '/']).expect("tags close");
            out.push_str(&rest[..end]);
            if end > lt + 1 {
                // a start tag: `end` sits right after its name
                let pick = picks[tags % picks.len()];
                tags += 1;
                if pick % 4 == 1 || pick % 4 == 3 {
                    out.push_str(&format!(" k=\"v{}\"", pick % 3));
                }
                if pick % 4 >= 2 {
                    out.push_str(&format!(" j=\"v{}\"", (pick / 4) % 3));
                }
            }
            rest = &rest[end..];
            let gt = rest.find('>').expect("tags close") + 1;
            out.push_str(&rest[..gt]);
            rest = &rest[gt..];
        }
        out + rest
    })
}

/// What the evaluator may and may not ask the index: keyed steps on
/// both axes and from every kind of context, keys beside and under
/// `and` / `or`, a value no node has, an attribute name no document
/// ever saw, and unkeyed paths whose order is by construction or not.
const KEYED_PROBES: &[&str] = &[
    "//a[@k=\"v1\"]",
    "//*[@k=\"v0\"]",
    "/r[@k=\"v1\"]",
    "/r/a[@k=\"v0\"]",
    "/r/a[@k=\"v0\"]/b[@k=\"v1\"]",
    "//a[@k=\"v1\" and b]",
    "//a[b and @k=\"v1\"]",
    "//a[@k=\"v1\" or b]",
    "//a[(@k=\"v1\" or b) and @j=\"v0\"]",
    "//b[@k=\"v1\"][@j=\"v1\"]",
    "//a//b[@k=\"v2\"]",
    "//a[@k=\"v1\"]//c[@j=\"v2\"]",
    "//a//a/b[@j=\"v0\"]",
    "//a[@k=\"v9\"]",
    "//a[@zz=\"v1\"]",
    "//zz[@k=\"v1\"]",
    "//a[b/@k=\"v1\"]",
    "//a[//@j=\"v2\"]",
    "//c/.[@j=\"v0\"]",
    "//@k",
    "//a/b",
    "//a//a//b",
    "//a//b/c",
];

const KEYED_TARGETS: [&str; 6] = [
    "//a[@k=\"v1\"]",
    "//b[@k=\"v0\" and c]",
    "//c[@j=\"v2\" or b]",
    "//a//b[@k=\"v2\"]",
    "/r/a[@j=\"v0\"]",
    "//d",
];
const KEYED_FORESTS: [&str; 4] = [
    "<b k=\"v1\"/>",
    "<a k=\"v0\" j=\"v2\"><b k=\"v2\"/><c/></a>",
    "<c j=\"v1\"><b k=\"v1\" j=\"v1\"/></c>",
    "<d k=\"v1\">5</d>",
];

fn keyed_statement(&(t, f, op): &(usize, usize, usize)) -> String {
    match op {
        0 => format!("insert {} into {}", KEYED_FORESTS[f], KEYED_TARGETS[t]),
        1 => format!("delete {}", KEYED_TARGETS[t]),
        _ => format!("replace {} with {}", KEYED_TARGETS[t], KEYED_FORESTS[f]),
    }
}

proptest! {
    /// The index only narrows: on random keyed documents, before and
    /// after random insert / delete / replace scripts and a sequential
    /// transaction, every probe path evaluates to exactly what the
    /// scan evaluator finds, and the value index matches the document.
    #[test]
    fn indexed_xpath_equals_the_scan_it_replaced(
        doc_xml in arb_keyed_doc(),
        script in prop::collection::vec(
            (0usize..KEYED_TARGETS.len(), 0usize..KEYED_FORESTS.len(), 0usize..3),
            1..6
        ),
        batch in prop::collection::vec(
            (0usize..KEYED_TARGETS.len(), 0usize..KEYED_FORESTS.len(), 0usize..3),
            2..5
        ),
    ) {
        let mut db = Database::builder()
            .document(doc_xml.as_str())
            .view("ab", "//a{id}//b{id}")
            .build()
            .unwrap();
        index_equals_scan(db.document(), KEYED_PROBES, "on the seed")?;
        for step in &script {
            let stmt = keyed_statement(step);
            db.apply(stmt.as_str()).unwrap();
            index_equals_scan(db.document(), KEYED_PROBES, &format!("after `{stmt}`"))?;
        }
        let snapshot = db.snapshot();
        let frozen = snapshot.serialize();
        let mut tx = db.transaction();
        for step in &batch {
            tx = tx.statement(keyed_statement(step).as_str());
        }
        tx.commit().unwrap();
        index_equals_scan(db.document(), KEYED_PROBES, "after the transaction")?;
        consistent(&db)?;
        // The snapshot answers from its own frozen index.
        prop_assert_eq!(snapshot.serialize(), frozen);
        index_equals_scan(snapshot.document(), KEYED_PROBES, "in the snapshot")?;
    }
}

/// Every canonical list of `doc` is the pre-order walk filtered by
/// label, and every value lookup the attributes the walk finds — the
/// lists by their definition, whoever maintained them.
fn lists_equal_the_walk(doc: &Document, when: &str) -> Result<(), TestCaseError> {
    use std::collections::BTreeMap;
    use xivm::xml::{NodeId, NodeKind};
    let walk = doc.root().map(|r| doc.descendants_or_self(r)).unwrap_or_default();
    let mut by_label: BTreeMap<LabelId, Vec<NodeId>> = BTreeMap::new();
    let mut by_value: BTreeMap<(LabelId, String), Vec<NodeId>> = BTreeMap::new();
    for &n in &walk {
        by_label.entry(doc.node(n).label).or_default().push(n);
        if doc.node(n).kind == NodeKind::Attribute {
            by_value.entry((doc.node(n).label, doc.value(n))).or_default().push(n);
        }
    }
    for (label, _) in doc.labels().iter() {
        let expected = by_label.remove(&label).unwrap_or_default();
        prop_assert_eq!(doc.canonical_nodes(label), &expected[..], "{:?} {}", label, when);
        for value in ["v0", "v1", "v2", "5"] {
            let mut hits = doc.attributes_with_value(label, value);
            hits.sort();
            let mut expected = by_value.remove(&(label, value.to_owned())).unwrap_or_default();
            expected.sort();
            prop_assert_eq!(hits, expected, "{:?}={} {}", label, value, when);
        }
    }
    prop_assert!(by_value.is_empty(), "values outside the probe set: {:?}", by_value);
    doc.check_invariants().map_err(TestCaseError::fail)
}

proptest! {
    /// A PUL is one edit: applied whole — its lists settled once, at
    /// the end — a random mixed PUL (targets that nest and repeat,
    /// forests under nodes an earlier operation created or a later one
    /// deletes, attribute values that repeat) leaves the canonical and
    /// value lists exactly as applying its operations one edit each
    /// does, both as the pre-order walk defines them; the snapshot
    /// taken before keeps its own.
    #[test]
    fn a_pul_applied_as_one_edit_equals_its_operations_one_by_one(
        doc_xml in arb_keyed_doc(),
        steps in prop::collection::vec(
            (0usize..KEYED_TARGETS.len(), 0usize..KEYED_FORESTS.len(), 0usize..3, 0usize..2),
            1..7
        ),
    ) {
        use xivm::update::{apply_pul, compute_pul, statement::parse_statement, Pul};
        let seed = parse_document(&doc_xml).unwrap();
        // `stale` steps read their targets off the seed, the others off
        // the document as the steps before left it.
        let mut evolved = seed.clone();
        let mut ops = Vec::new();
        for &(t, f, op, stale) in &steps {
            let stmt = parse_statement(&keyed_statement(&(t, f, op))).unwrap();
            let pul = compute_pul(if stale == 1 { &seed } else { &evolved }, &stmt);
            apply_pul(&mut evolved, &pul).unwrap();
            ops.extend(pul.ops);
        }
        let (mut whole, mut one_by_one) = (seed.clone(), seed.clone());
        whole.adopt_labels(&evolved.shared_labels());
        one_by_one.adopt_labels(&evolved.shared_labels());
        apply_pul(&mut whole, &Pul::new(ops.clone())).unwrap();
        for op in ops {
            apply_pul(&mut one_by_one, &Pul::new(vec![op])).unwrap();
        }
        prop_assert_eq!(serialize_document(&whole), serialize_document(&evolved));
        lists_equal_the_walk(&whole, "as one edit")?;
        lists_equal_the_walk(&one_by_one, "one by one")?;
        for (label, _) in whole.labels().iter() {
            // Node for node: both made the same nodes in the same order.
            prop_assert_eq!(whole.canonical_nodes(label), one_by_one.canonical_nodes(label));
        }
        prop_assert_eq!(serialize_document(&seed), doc_xml.as_str());
        lists_equal_the_walk(&seed, "in the snapshot")?;
    }
}

/// The same equation on the benchmark's document: every Appendix A
/// target path and the point stream's seven statement shapes
/// (`benchmark/src/stream.rs`), before and after each statement.
#[test]
fn indexed_xpath_equals_scan_on_xmark_appendix_a_and_the_point_stream() {
    let doc = xivm::xmark::generate_sized(60 * 1024);
    let catalog = xivm::xmark::all_updates();
    let mut paths: Vec<&str> = catalog.iter().map(|u| u.path).collect();
    let stream = [
        "insert <person id=\"bench7\"><name>Jim Lee</name><emailaddress>mailto:bench7@example.org\
         </emailaddress><homepage>http://www.example.org/~bench7</homepage><watches/></person> \
         into /site/people",
        "replace /site/people/person[@id=\"bench7\"]/name with <name>Ann Diaz</name>",
        "insert <bidder><date>01/02/2009</date><time>12:00:00</time>\
         <personref person=\"bench7\"/><increase>4.50</increase></bidder> \
         into /site/open_auctions/open_auction[@id=\"open_auction1\"]",
        "insert <item id=\"bench8\"><location>Internal</location><quantity>1</quantity>\
         <name>gold mint</name><payment>Cash</payment><description><parlist>rare boxed\
         </parlist></description></item> into /site/regions/namerica",
        "delete /site/open_auctions/open_auction[@id=\"open_auction1\"]\
         /bidder[personref/@person=\"bench7\"]",
        "delete /site/regions/namerica/item[@id=\"bench8\"]",
        "delete /site/people/person[@id=\"bench7\"]",
    ];
    let statements: Vec<UpdateStatement> =
        stream.iter().map(|s| parse_statement(s).expect("stream statements parse")).collect();
    let targets: Vec<String> = [
        "/site/people/person[@id=\"bench7\"]/name",
        "/site/people/person[@id=\"bench7\"]",
        "/site/people/person[@id=\"person3\"]",
        "/site/open_auctions/open_auction[@id=\"open_auction1\"]",
        "/site/open_auctions/open_auction[@id=\"open_auction1\"]/bidder[personref/@person=\"bench7\"]",
        "/site/regions/namerica/item[@id=\"bench8\"]",
        "/site/regions/namerica/item[@id=\"item0\"]",
        "/site/people",
        "/site/regions/namerica",
        "//*[@id=\"bench7\"]",
        "//personref[@person=\"bench7\"]",
    ]
    .map(str::to_owned)
    .to_vec();
    paths.extend(targets.iter().map(String::as_str));

    let mut db =
        Database::builder().document(doc).view("q1", "//person{id}//name{id,val}").build().unwrap();
    index_equals_scan(db.document(), &paths, "on the seed").unwrap();
    assert_eq!(db.snapshot().xpath("/site/people/person[@id=\"person3\"]").unwrap().len(), 1);
    for (stmt, text) in statements.iter().zip(stream) {
        let commit = db.apply(stmt.clone()).unwrap();
        assert!(commit.optimized_ops > 0, "`{text}` must find its target");
        index_equals_scan(db.document(), &paths, &format!("after `{text}`")).unwrap();
    }
}
