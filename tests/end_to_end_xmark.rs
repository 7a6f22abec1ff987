//! Full-workload oracle: every catalog view × every paired catalog
//! update, insertion and deletion, across materialization strategies —
//! the incrementally maintained [`Database`] must always equal the
//! from-scratch evaluation, and the IVMA baseline must agree too.

use xivm::ivma::IvmaView;
use xivm::pattern::compile::view_tuples;
use xivm::prelude::*;
use xivm::xmark::{generate_sized, update_by_name, updates_for_view, view_pattern, VIEW_NAMES};

/// Source-document size for the oracle runs. `XIVM_TEST_DOC_BYTES`
/// shrinks (or grows) it without editing the test, so CI can bound
/// runtime the same way `PROPTEST_CASES` bounds the property suite.
fn doc_bytes() -> usize {
    std::env::var("XIVM_TEST_DOC_BYTES").ok().and_then(|v| v.parse().ok()).unwrap_or(40 * 1024)
}

/// A label-name-rendered form of a view's tuples, for comparisons
/// *across* databases: raw `LabelId`s are private to each document's
/// interner, and two equivalent update orders (sequential vs batched)
/// may intern the same names at different ids.
fn fingerprint(db: &Database, h: xivm::ViewHandle) -> Vec<String> {
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

/// Oracle: every view of `db` equals its from-scratch evaluation over
/// the database's current document.
fn assert_consistent(db: &Database, context: &str) {
    for h in db.handles() {
        let pattern = db.pattern(h).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
        assert!(
            db.store(h).same_content_as(&expected),
            "{context}: view {} diverged:\n{}",
            db.name(h),
            db.store(h).diff_description(&expected)
        );
    }
}

#[test]
fn database_matches_recomputation_on_all_pairs_inserts() {
    let doc0 = generate_sized(doc_bytes());
    for view in VIEW_NAMES {
        for u in updates_for_view(view) {
            let mut db = Database::builder()
                .document(doc0.clone())
                .view(view, view_pattern(view))
                .build()
                .unwrap();
            db.apply(u.insert_stmt()).unwrap();
            assert_consistent(&db, &format!("{view} + insert {}", u.name));
        }
    }
}

#[test]
fn database_matches_recomputation_on_all_pairs_deletes() {
    let doc0 = generate_sized(doc_bytes());
    for view in VIEW_NAMES {
        for u in updates_for_view(view) {
            let mut db = Database::builder()
                .document(doc0.clone())
                .view(view, view_pattern(view))
                .build()
                .unwrap();
            db.apply(u.delete_stmt()).unwrap();
            assert_consistent(&db, &format!("{view} + delete {}", u.name));
        }
    }
}

#[test]
fn strategies_agree_with_each_other() {
    let doc0 = generate_sized(doc_bytes() / 2);
    for view in ["Q1", "Q3", "Q6"] {
        let pattern = view_pattern(view);
        for u in updates_for_view(view).into_iter().take(2) {
            for stmt in [u.insert_stmt(), u.delete_stmt()] {
                // Same pattern under all three strategies in ONE
                // database: one shared propagation pass must leave
                // identical stores.
                let mut db = Database::builder()
                    .document(doc0.clone())
                    .view_with_strategy("mc", pattern.clone(), SnowcapStrategy::MinimalChain)
                    .view_with_strategy("all", pattern.clone(), SnowcapStrategy::AllSnowcaps)
                    .view_with_strategy("leaves", pattern.clone(), SnowcapStrategy::LeavesOnly)
                    .build()
                    .unwrap();
                db.apply(&stmt).unwrap();
                let handles = db.handles();
                for w in handles.windows(2) {
                    assert!(
                        db.store(w[0]).same_content_as(db.store(w[1])),
                        "{view} {}: {} vs {} disagree",
                        u.name,
                        db.name(w[0]),
                        db.name(w[1])
                    );
                }
            }
        }
    }
}

#[test]
fn ivma_agrees_with_database_on_small_workloads() {
    // IVMA is node-at-a-time; keep the workload small but real.
    let doc0 = generate_sized(20 * 1024);
    for view in ["Q1", "Q6"] {
        let pattern = view_pattern(view);
        for u in updates_for_view(view).into_iter().take(2) {
            // insertion
            let mut db = Database::builder()
                .document(doc0.clone())
                .view(view, pattern.clone())
                .build()
                .unwrap();
            db.apply(u.insert_stmt()).unwrap();

            let mut d2 = doc0.clone();
            let mut ivma = IvmaView::new(&d2, pattern.clone());
            ivma.apply_insert(&mut d2, &u.insert_stmt()).unwrap();

            let h = db.view(view).unwrap();
            assert!(
                db.store(h).same_content_as(ivma.store()),
                "{view} + insert {}: database vs IVMA:\n{}",
                u.name,
                db.store(h).diff_description(ivma.store())
            );
        }
    }
}

#[test]
fn sequences_of_mixed_updates_stay_in_sync() {
    let mut db = Database::builder()
        .document(generate_sized(doc_bytes() / 2))
        .view("Q2", view_pattern("Q2"))
        .build()
        .unwrap();
    let script = [
        updates_for_view("Q2")[0].insert_stmt(),
        updates_for_view("Q2")[1].delete_stmt(),
        updates_for_view("Q2")[2].insert_stmt(),
        updates_for_view("Q2")[3].delete_stmt(),
        updates_for_view("Q2")[4].insert_stmt(),
    ];
    for (i, stmt) in script.iter().enumerate() {
        db.apply(stmt).unwrap();
        assert_consistent(&db, &format!("step {i}"));
    }
    db.document().check_invariants().unwrap();
}

#[test]
fn transactions_match_sequential_application_on_xmark() {
    let doc0 = generate_sized(doc_bytes() / 2);
    let script = [
        updates_for_view("Q2")[0].insert_stmt(),
        updates_for_view("Q2")[1].delete_stmt(),
        updates_for_view("Q6")[0].insert_stmt(),
        updates_for_view("Q2")[2].insert_stmt(),
    ];
    let build = || {
        Database::builder()
            .document(doc0.clone())
            .view("Q2", view_pattern("Q2"))
            .view("Q6", view_pattern("Q6"))
            .build()
            .unwrap()
    };

    let mut one_by_one = build();
    for stmt in &script {
        one_by_one.apply(stmt).unwrap();
    }

    let mut batched = build();
    let mut tx = batched.transaction();
    for stmt in &script {
        tx = tx.statement(stmt);
    }
    let report = tx.commit().unwrap();
    assert_eq!(report.statements, script.len());
    assert!(report.optimized_ops <= report.naive_ops);

    assert_eq!(one_by_one.serialize(), batched.serialize(), "documents diverged");
    for (a, b) in one_by_one.handles().into_iter().zip(batched.handles()) {
        assert_eq!(
            fingerprint(&one_by_one, a),
            fingerprint(&batched, b),
            "view {} diverged between transaction and sequential apply",
            one_by_one.name(a)
        );
    }
    assert_consistent(&batched, "post-transaction");
}

#[test]
fn q1_annotation_variants_maintained_correctly() {
    let doc0 = generate_sized(20 * 1024);
    let del = format!("delete {}", xivm::xmark::X1_L_PRED);
    let ins = "insert <phone>+1</phone> into /site/people/person";
    for variant in xivm::xmark::Q1Variant::ALL {
        let mut db = Database::builder()
            .document(doc0.clone())
            .view(variant.name(), xivm::xmark::q1_variant(variant))
            .build()
            .unwrap();
        for stmt in [ins, del.as_str()] {
            db.apply(stmt).unwrap();
            assert_consistent(&db, &format!("variant {}", variant.name()));
        }
    }
}

#[test]
fn multi_view_database_on_xmark_workload() {
    let mut builder = Database::builder().document(generate_sized(20 * 1024));
    for v in VIEW_NAMES {
        builder = builder.view(v, view_pattern(v));
    }
    let mut db = builder.build().unwrap();
    assert_eq!(db.view_names(), VIEW_NAMES.to_vec());
    for u in ["X1_L", "E6_L", "X4_O"] {
        let upd = update_by_name(u);
        for stmt in [upd.insert_stmt(), upd.delete_stmt()] {
            db.apply(stmt).unwrap();
            assert_consistent(&db, &format!("multi-view after {u}"));
        }
    }
}
