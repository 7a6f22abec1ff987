//! Criterion micro-benchmarks for the substrate operators: Dewey ID
//! operations, the stack-based structural join, XPath target finding,
//! full pattern evaluation, the application of a bulk PUL, the
//! engine's half of a point commit, the view store's share of it and
//! what a held document image adds to its apply.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::cell::RefCell;
use std::hint::black_box;
use xivm_algebra::{structural_join, Axis, Column, Field, Relation, Schema, Tuple};
use xivm_bench::{host, propagate_statement};
use xivm_core::{MaintenanceEngine, SnowcapStrategy, ViewDelta, ViewStore};
use xivm_pattern::compile::view_tuples;
use xivm_pattern::xpath::{eval_path, parse_xpath};
use xivm_pattern::TreePattern;
use xivm_update::{
    apply_pul, apply_pul_for, compute_pul, DeltaLabels, DeltaPlus, Pul, UpdateStatement,
};
use xivm_xmark::{generate_sized, update_by_name, view_pattern, VIEW_NAMES};
use xivm_xml::{dewey::Step, DeweyId, Document, LabelId};

fn dewey_ops(c: &mut Criterion) {
    let deep =
        DeweyId::from_steps((0..12).map(|i| Step::new(LabelId(i), 7 + u64::from(i))).collect());
    let mid = deep.parent().unwrap().parent().unwrap();
    c.bench_function("dewey/is_ancestor_of", |b| {
        b.iter(|| black_box(mid.is_ancestor_of(black_box(&deep))))
    });
    c.bench_function("dewey/doc_cmp", |b| b.iter(|| black_box(mid.doc_cmp(black_box(&deep)))));
    c.bench_function("dewey/encode_decode", |b| {
        b.iter(|| {
            let enc = deep.encode();
            black_box(DeweyId::decode(&enc))
        })
    });
}

fn one_col(name: &str, ids: Vec<DeweyId>) -> Relation {
    let mut r = Relation::with_rows(
        Schema::new(vec![Column::id_only(name)]),
        ids.into_iter().map(|i| Tuple::new(vec![Field::id_only(i)])).collect(),
    );
    r.sort_by_col(0);
    r
}

fn struct_join(c: &mut Criterion) {
    // a synthetic two-level tree: 1000 parents × 10 children
    let parents: Vec<DeweyId> = (0..1000u64)
        .map(|i| DeweyId::from_steps(vec![Step::new(LabelId(0), 1), Step::new(LabelId(1), i + 1)]))
        .collect();
    let children: Vec<DeweyId> =
        parents.iter().flat_map(|p| (0..10u64).map(move |j| p.child(LabelId(2), j + 1))).collect();
    let left = one_col("p", parents);
    let right = one_col("c", children);
    c.bench_function("structjoin/1000x10000_descendant", |b| {
        b.iter(|| black_box(structural_join(&left, 0, &right, 0, Axis::Descendant).len()))
    });
    c.bench_function("structjoin/1000x10000_child", |b| {
        b.iter(|| black_box(structural_join(&left, 0, &right, 0, Axis::Child).len()))
    });
}

fn xpath_and_views(c: &mut Criterion) {
    let doc = generate_sized(200 * 1024);
    let path = parse_xpath("/site/people/person[phone and homepage]").unwrap();
    c.bench_function("xpath/find_targets_200KB", |b| {
        b.iter(|| black_box(eval_path(&doc, &path).len()))
    });
    // The point-update shape: one step keyed by `@id`, answered from
    // the attribute-value index instead of a scan of every person.
    let by_id = parse_xpath("/site/people/person[@id=\"person40\"]").unwrap();
    assert_eq!(eval_path(&doc, &by_id).len(), 1);
    c.bench_function("xpath/find_target_by_id_200KB", |b| {
        b.iter(|| black_box(eval_path(&doc, &by_id).len()))
    });
    let q1 = view_pattern("Q1");
    c.bench_function("pattern/eval_q1_200KB", |b| {
        b.iter_batched(|| (), |_| black_box(view_tuples(&doc, &q1).len()), BatchSize::SmallInput)
    });
}

fn chained_joins(c: &mut Criterion) {
    // three-level chain: 200 a's × 5 b's × 4 c's
    let a: Vec<DeweyId> = (0..200u64)
        .map(|i| DeweyId::from_steps(vec![Step::new(LabelId(0), 1), Step::new(LabelId(1), i + 1)]))
        .collect();
    let b: Vec<DeweyId> =
        a.iter().flat_map(|p| (0..5u64).map(move |j| p.child(LabelId(2), j + 1))).collect();
    let cs: Vec<DeweyId> =
        b.iter().flat_map(|p| (0..4u64).map(move |j| p.child(LabelId(3), j + 1))).collect();
    let (ra, rb, rc) = (one_col("a", a), one_col("b", b), one_col("c", cs));
    c.bench_function("twig/binary_joins_chain3", |bch| {
        bch.iter(|| {
            let mut ab = structural_join(&ra, 0, &rb, 0, Axis::Descendant);
            ab.sort_by_col(1);
            black_box(structural_join(&ab, 1, &rc, 0, Axis::Descendant).len())
        })
    });
}

/// The bulk shapes of the Appendix A catalog on the 1 MB document:
/// one PUL with an operation per person — one edit of the document —
/// applied to a copy-on-write image of it, as a commit under a
/// snapshot is. And a dense delete that keeps half of each list: every
/// other person, a removed run per two elements of the person labels'
/// lists, which the edit sweeps instead of searching run by run.
fn apply_puls(c: &mut Criterion) {
    let doc = generate_sized(1 << 20);
    let persons = doc.canonical_nodes_named("person").len();
    let delete = compute_pul(&doc, &UpdateStatement::delete("/site/people/person").unwrap());
    let forest =
        "<watches><watch open_auction=\"open_auction0\"/></watches><phone>+0 (0) 0</phone>";
    let insert =
        compute_pul(&doc, &UpdateStatement::insert("/site/people/person", forest).unwrap());
    assert_eq!((delete.len(), insert.len()), (persons, persons));
    c.bench_function("apply/delete_every_person_1MB", |b| {
        let applied = |mut d| apply_pul(&mut d, &delete).unwrap().delete_roots.len();
        b.iter_batched(|| doc.clone(), applied, BatchSize::LargeInput)
    });
    let every_other = Pul::new(delete.ops.iter().step_by(2).cloned().collect());
    c.bench_function("apply/delete_every_other_person_1MB", |b| {
        let applied = |mut d| apply_pul(&mut d, &every_other).unwrap().delete_roots.len();
        b.iter_batched(|| doc.clone(), applied, BatchSize::LargeInput)
    });
    c.bench_function("apply/insert_under_every_person_1MB", |b| {
        let applied = |mut d| apply_pul(&mut d, &insert).unwrap().inserted_roots.len();
        b.iter_batched(|| doc.clone(), applied, BatchSize::LargeInput)
    });
    // X2_L's insert under every bidder as the catalog's seven views
    // take it: the apply extracts their labels, then each view reads
    // its Δ⁺ tables.
    let views: Vec<TreePattern> = VIEW_NAMES.iter().map(|v| view_pattern(v)).collect();
    let wanted = DeltaLabels::of(&doc, &views);
    let x2_l = compute_pul(&doc, &update_by_name("X2_L").insert_stmt());
    c.bench_function("apply/insert_under_every_bidder_1MB_seven_views", |b| {
        let applied = |mut d| {
            let applied = apply_pul_for(&mut d, &x2_l, &wanted).unwrap();
            views.iter().map(|v| DeltaPlus::compute(&d, v, &applied).total_len()).sum::<usize>()
        };
        b.iter_batched(|| doc.clone(), applied, BatchSize::LargeInput)
    });
}

/// The point commit of the 2 MB targets: one bidder into, and out of,
/// the document's middle open auction.
fn middle_bidder(doc: &Document) -> (UpdateStatement, UpdateStatement) {
    let auction = format!(
        "/site/open_auctions/open_auction[@id=\"open_auction{}\"]",
        doc.canonical_nodes_named("open_auction").len() / 2
    );
    let bidder = "<bidder><date>01/01/2009</date><time>12:00:00</time>\
                  <personref person=\"bench0\"/><increase>4.50</increase></bidder>";
    let insert = UpdateStatement::insert(&auction, bidder).unwrap();
    let delete =
        UpdateStatement::delete(&format!("{auction}/bidder[personref/@person=\"bench0\"]"))
            .unwrap();
    (insert, delete)
}

/// `MaintenanceEngine::finish` for one bidder leaving / entering the
/// middle open auction of the 2 MB document under Q2 — the point commit
/// whose lattice upkeep must follow |Δ|, not the snowcaps (the largest
/// holds a row per bidder of the document). Only `finish` is timed: the
/// statement that restores the state, the PUL, `prepare` and the apply
/// are the batch's setup.
fn lattice_upkeep(c: &mut Criterion) {
    let doc = generate_sized(2 << 20);
    let (insert, delete) = middle_bidder(&doc);
    let engine = MaintenanceEngine::new(&doc, view_pattern("Q2"), SnowcapStrategy::MinimalChain);
    let state = RefCell::new((engine, doc));
    for (id, undo, timed) in [
        ("lattice/point_delete_2MB", &insert, &delete),
        ("lattice/point_insert_2MB", &delete, &insert),
    ] {
        c.bench_function(id, |b| {
            let staged = || {
                let (engine, doc) = &mut *state.borrow_mut();
                commit(engine, doc, undo);
                let pul = compute_pul(doc, timed);
                assert_eq!(pul.len(), 1, "{id}: one bidder");
                let prepared = engine.prepare(doc, &pul);
                (apply_pul(doc, &pul).unwrap(), prepared)
            };
            let finish = |(applied, prepared)| {
                let (engine, doc) = &mut *state.borrow_mut();
                let report = engine.finish(doc, &applied, prepared);
                report.tuples_added + report.tuples_removed
            };
            b.iter_batched(staged, finish, BatchSize::SmallInput)
        });
        let (engine, doc) = &mut *state.borrow_mut();
        commit(engine, doc, undo);
    }
}

/// One statement committed to `engine`'s view as the timed step above
/// takes it: the PUL applied, every label's Δ extracted, then `finish`.
fn commit(engine: &mut MaintenanceEngine, doc: &mut Document, stmt: &UpdateStatement) {
    let pul = compute_pul(doc, stmt);
    let prepared = engine.prepare(doc, &pul);
    let applied = apply_pul(doc, &pul).unwrap();
    engine.finish(doc, &applied, prepared);
}

/// The view store alone under that commit: the bidder's Q2 rows merged
/// into and taken out of the 2 MB store by the two commits' own deltas
/// (the one writer every commit and every replay goes through), and the
/// read — a full cursor, every row's count summed.
fn store_patches(c: &mut Criterion) {
    let mut doc = generate_sized(2 << 20);
    let (insert, delete) = middle_bidder(&doc);
    let mut host =
        host(MaintenanceEngine::new(&doc, view_pattern("Q2"), SnowcapStrategy::MinimalChain));
    let gained = propagate_statement(&mut host, &mut doc, &insert).delta;
    let lost = propagate_statement(&mut host, &mut doc, &delete).delta;
    assert!(!gained.is_empty() && !lost.is_empty(), "the bidder is in Q2");
    // Between targets the store is without the bidder's rows.
    let store = RefCell::new(host.get(0).unwrap().1.store().clone());
    let patch = |delta: &ViewDelta| store.borrow_mut().patch(delta.rows());
    c.bench_function("store/point_insert_2MB", |b| {
        b.iter_batched(|| patch(&lost), |_| patch(&gained), BatchSize::SmallInput)
    });
    patch(&lost);
    c.bench_function("store/point_delete_2MB", |b| {
        b.iter_batched(|| patch(&gained), |_| patch(&lost), BatchSize::SmallInput)
    });
    // (`count()` alone is the slice's length: sum the counts to visit the rows.)
    let scan = |store: &ViewStore| store.cursor().map(|(_, count)| count).sum::<u64>();
    c.bench_function("store/scan_2MB", |b| b.iter(|| scan(black_box(&store.borrow()))));
}

/// The image tax at the document layer: that point commit's PULs —
/// the bidder in, then out, alternating — applied to the 2 MB document
/// alone and under a held `Document::clone`, whose every touched chunk
/// and list the apply then copies; the clone, and the drop of an image
/// the document has moved away from, each timed by itself.
fn image_tax(c: &mut Criterion) {
    let doc = generate_sized(2 << 20);
    let (insert, delete) = middle_bidder(&doc);
    // The document, the image held of it, and whether the bidder is in.
    let state = RefCell::new((doc, None::<Document>, false));
    // The alternation's next PUL over the document as it stands, the
    // old image let go and — to `hold` — a new one taken.
    let next = |hold: bool| {
        let (doc, image, present) = &mut *state.borrow_mut();
        *image = None;
        let pul = compute_pul(doc, if *present { &delete } else { &insert });
        assert_eq!(pul.len(), 1, "one bidder");
        *present = !*present;
        *image = hold.then(|| doc.clone());
        pul
    };
    let apply = |pul: Pul| {
        let applied = apply_pul(&mut state.borrow_mut().0, &pul).unwrap();
        applied.inserted.len() + applied.deleted.len()
    };
    c.bench_function("image/apply_free_2MB", |b| {
        b.iter_batched(|| next(false), apply, BatchSize::SmallInput)
    });
    c.bench_function("image/apply_held_2MB", |b| {
        b.iter_batched(|| next(true), apply, BatchSize::SmallInput)
    });
    c.bench_function("image/clone_2MB", |b| {
        let clone = |_| {
            let (doc, image, _) = &mut *state.borrow_mut();
            *image = Some(doc.clone());
        };
        b.iter_batched(|| state.borrow_mut().1 = None, clone, BatchSize::SmallInput)
    });
    c.bench_function("image/drop_held_2MB", |b| {
        let drop_image = |_| state.borrow_mut().1 = None;
        b.iter_batched(|| apply(next(true)), drop_image, BatchSize::SmallInput)
    });
}

criterion_group!(
    benches,
    dewey_ops,
    struct_join,
    xpath_and_views,
    chained_joins,
    apply_puls,
    lattice_upkeep,
    store_patches,
    image_tax
);
criterion_main!(benches);
