//! Soundness of the static analyzer against the dynamic engine.
//!
//! Every verdict `xivm_analyze` emits is a claim about *all*
//! DTD-conforming documents. No commit consults one: `.analyze(..)` is
//! a build-time lint, and a commit leaves a view out only through the
//! engine's dynamic relevance exit, which needs no DTD. This suite
//! checks the claims against the runtime on random conforming documents
//! and random conformance-preserving update scripts, and checks that
//! the exit already takes every skip they would allow:
//!
//! * **relevance** — a view proved `Irrelevant` to a statement has an
//!   empty dynamic delta, and takes the dynamic exit, on a database
//!   built with `.analyze(Warn)` and on one built without a DTD alike;
//! * **independence** — a batch proved pairwise independent has zero
//!   dynamic `find_conflicts` hits between any two of its PULs;
//! * **transparency** — a database built with `.analyze(Warn)` commits
//!   exactly what one built without analysis does;
//! * **conformance** — nothing checks a document or a statement against
//!   the DTD, so an analyzing database whose document breaks it must
//!   still equal its recomputation, stored text included.

use proptest::prelude::*;
use xivm::analyze::{Analyzer, Verdict};
use xivm::pattern::compile::view_tuples;
use xivm::prelude::*;
use xivm::pulopt::find_conflicts;
use xivm::update::compute_pul;

// ---------------------------------------------------------------------
// A hierarchical DTD and a generator for conforming documents
// ---------------------------------------------------------------------

/// Star-only content models: deleting any node or inserting any
/// allowed child preserves conformance, so every intermediate document
/// a script produces stays inside the analyzer's soundness domain.
const DTD: &str = "r -> (a | d)*\n\
                   a -> (a | b | c)*\n\
                   b -> (b | c)*\n\
                   c -> c*\n\
                   d -> d*";

fn allowed_children(tag: &str) -> &'static [&'static str] {
    match tag {
        "r" => &["a", "d"],
        "a" => &["a", "b", "c"],
        "b" => &["b", "c"],
        "c" => &["c"],
        _ => &["d"],
    }
}

/// Decodes a byte seed into a DTD-conforming document: child tags are
/// only ever drawn from the parent's content model.
fn grow(tag: &str, seeds: &mut std::vec::IntoIter<u8>, depth: u32, out: &mut String) {
    let n = seeds.next().map_or(0, |s| s % 4);
    if depth == 0 || n == 0 {
        out.push_str(&format!("<{tag}/>"));
        return;
    }
    out.push_str(&format!("<{tag}>"));
    for _ in 0..n {
        let kids = allowed_children(tag);
        let pick = seeds.next().map_or(0, |s| s as usize % kids.len());
        grow(kids[pick], seeds, depth - 1, out);
    }
    out.push_str(&format!("</{tag}>"));
}

fn arb_conforming_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..255, 8..64).prop_map(|seeds| {
        let mut out = String::new();
        grow("r", &mut seeds.into_iter(), 4, &mut out);
        out
    })
}

const VIEWS: [(&str, &str); 5] = [
    ("ab", "//a{id}//b{id}"),
    ("d_only", "//d{id}"),
    ("b_text", "//b{val}"),
    ("ac", "//a{id}//c{id}"),
    ("rd", "//r{id}//d{id,val}"),
];

/// Conformance-preserving statement pool: every insert adds children
/// the target's content model allows.
const STATEMENTS: [&str; 10] = [
    "insert <c/> into //b",
    "insert <b><c/></b> into //a",
    "insert <d/> into /r",
    "insert <c/> into //a//c",
    "insert <a><b/></a> into /r/a",
    "insert <d><d/></d> into //d",
    "delete //c",
    "delete //b//c",
    "delete //a//b",
    "delete //d//d",
];

fn make_analyzer() -> Analyzer {
    let dtd = xivm::dtd::parse_dtd(DTD).unwrap();
    let patterns: Vec<(&str, TreePattern)> =
        VIEWS.iter().map(|&(n, p)| (n, parse_pattern(p).unwrap())).collect();
    Analyzer::new(Some(&dtd), patterns.iter().map(|(n, p)| (*n, p)))
}

fn build_db(doc: &str, analyze: bool) -> Database {
    let mut b = Database::builder().document(doc);
    if analyze {
        b = b.dtd(DTD).analyze(AnalyzeMode::Warn);
    }
    for (name, pattern) in VIEWS {
        b = b.view(name, pattern);
    }
    b.build().unwrap()
}

/// Every view of `db` must equal its from-scratch evaluation, stored
/// `val` / `cont` text included.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Relevance soundness and transparency: a view the analyzer
    /// proves `Irrelevant` to a statement has an *empty dynamic
    /// delta* (measured on a database built without a DTD), and the
    /// analyzing database — which consults no verdict when it commits —
    /// stays bit-identical to the plain one.
    #[test]
    fn static_verdicts_are_sound(
        doc in arb_conforming_doc(),
        script in prop::collection::vec(0usize..STATEMENTS.len(), 1..5),
    ) {
        let analyzer = make_analyzer();
        let mut on = build_db(&doc, true);
        let mut off = build_db(&doc, false);
        for &s in &script {
            let text = STATEMENTS[s];
            let stmt = parse_statement(text).unwrap();
            let verdicts = analyzer.verdicts(&analyzer.statement_shape(&stmt));
            let c_on = on.apply(text).unwrap();
            let c_off = off.apply(text).unwrap();
            prop_assert!(c_on.same_outcome(&c_off), "outcomes diverged under `{text}`");
            prop_assert_eq!(c_on.static_skips(), 0, "no commit skips on a static verdict");
            for (i, h) in off.handles().into_iter().enumerate() {
                if verdicts[i].can_skip() {
                    prop_assert!(
                        c_off.delta(h).is_empty(),
                        "view {} was proved irrelevant to `{text}` on doc {} \
                         but its dynamic delta is non-empty",
                        off.name(h),
                        doc
                    );
                    let r = c_off.report(h);
                    prop_assert_eq!(
                        r.tuples_added + r.tuples_removed + r.tuples_modified,
                        0,
                        "irrelevant views must see no dynamic tuple change"
                    );
                    prop_assert_eq!(
                        r.derivations_added + r.derivations_removed,
                        0,
                        "irrelevant views must see no dynamic derivation change"
                    );
                }
            }
            consistent(&on)?;
        }
        prop_assert_eq!(on.serialize(), off.serialize());
    }

    /// An `Irrelevant` verdict is a dynamic exit: every view the
    /// analyzer proves irrelevant to a statement takes the engine's
    /// relevance exit at that commit, on the analyzing database and on
    /// the one built without a DTD alike — the exit, which needs no
    /// conformance, already skips everything a static verdict would.
    /// Every exit has an empty delta.
    #[test]
    fn dynamic_exits_agree_with_the_analyzed_database(
        doc in arb_conforming_doc(),
        script in prop::collection::vec(0usize..STATEMENTS.len(), 1..5),
    ) {
        let analyzer = make_analyzer();
        let mut on = build_db(&doc, true);
        let mut off = build_db(&doc, false);
        for &s in &script {
            let text = STATEMENTS[s];
            let stmt = parse_statement(text).unwrap();
            let verdicts = analyzer.verdicts(&analyzer.statement_shape(&stmt));
            let c_on = on.apply(text).unwrap();
            let c_off = off.apply(text).unwrap();
            for (h, verdict) in off.handles().into_iter().zip(verdicts) {
                for (side, commit) in [("analyzed", &c_on), ("plain", &c_off)] {
                    let r = commit.report(h);
                    prop_assert!(
                        !verdict.can_skip() || r.irrelevant,
                        "view {} is irrelevant to `{text}` but the {side} database did not \
                         exit on doc {}",
                        off.name(h),
                        doc
                    );
                    prop_assert!(!r.irrelevant || r.delta.is_empty(), "an exit has no delta");
                }
            }
            prop_assert_eq!(
                c_off.work().dynamic_skips,
                off.handles().into_iter().filter(|&h| c_off.report(h).irrelevant).count() as u64
            );
            consistent(&on)?;
            consistent(&off)?;
        }
    }

    /// Independence soundness: a batch the analyzer proves pairwise
    /// independent has zero dynamic conflicts — checked directly on
    /// the raw PULs with `find_conflicts`.
    #[test]
    fn static_independence_implies_no_dynamic_conflicts(
        doc in arb_conforming_doc(),
        picks in prop::collection::vec(0usize..STATEMENTS.len(), 2..4),
    ) {
        let analyzer = make_analyzer();
        let stmts: Vec<UpdateStatement> =
            picks.iter().map(|&i| parse_statement(STATEMENTS[i]).unwrap()).collect();
        if !analyzer.batch_independent(&stmts) {
            return Ok(()); // nothing claimed, nothing to check
        }
        // the dynamic oracle: no Figure 15 conflict between any pair
        let d = parse_document(&doc).unwrap();
        let puls: Vec<_> = stmts.iter().map(|s| compute_pul(&d, s)).collect();
        for i in 0..puls.len() {
            for j in i + 1..puls.len() {
                let conflicts = find_conflicts(&puls[i], &puls[j]);
                prop_assert!(
                    conflicts.is_empty(),
                    "statically independent batch {:?} has dynamic conflicts {:?} on doc {}",
                    picks.iter().map(|&i| STATEMENTS[i]).collect::<Vec<_>>(),
                    conflicts,
                    doc
                );
            }
        }
    }
}

/// The suite is not vacuous: on this catalog the analyzer does prove
/// skips (d_only × subtree-of-a statements), and the dynamic exit takes
/// every one of them, with or without a DTD on the builder.
#[test]
fn skips_actually_fire_on_this_catalog() {
    let analyzer = make_analyzer();
    let stmt = parse_statement("insert <c/> into //b").unwrap();
    let verdicts = analyzer.verdicts(&analyzer.statement_shape(&stmt));
    assert!(verdicts.iter().any(|v| v.can_skip()), "the catalog must exercise Irrelevant");
    for analyze in [true, false] {
        let mut db = build_db("<r><a><b/><c/></a><d/></r>", analyze);
        let commit = db.apply(&stmt).unwrap();
        for (h, verdict) in db.handles().into_iter().zip(&verdicts) {
            let exited = commit.report(h).irrelevant;
            assert!(!verdict.can_skip() || exited, "{}: a proved skip is an exit", db.name(h));
        }
        // `c` under `b` holds no label of d_only or rd, no text of theirs
        assert!(
            commit.work().dynamic_skips >= 2,
            "d_only and rd must exit, got {}",
            commit.work().dynamic_skips
        );
    }
}

/// On the paper's seven-view XMark catalog under its DTD, every view
/// slot the analyzer calls `Irrelevant` is a dynamic exit — on a
/// database built without a DTD and on one built with
/// `.dtd(XMARK_DTD).analyze(Warn)` alike — over the 21 Appendix A
/// updates, each inserted then deleted. A stream drawn from one view's
/// update set exits on at least four of the seven views at every
/// commit: the share a skewed workload saves, with no DTD needed.
#[test]
fn static_irrelevance_on_the_xmark_catalog_is_a_dynamic_exit() {
    use xivm::xmark::{
        all_updates, generate_sized, updates_for_view, view_pattern, xmark_dtd, VIEW_NAMES,
        XMARK_DTD,
    };
    let doc = generate_sized(40 * 1024);
    let patterns = VIEW_NAMES.map(view_pattern);
    let analyzer = Analyzer::new(Some(&xmark_dtd()), VIEW_NAMES.into_iter().zip(&patterns));
    let build = |analyze: bool| {
        let mut b = Database::builder().document(doc.clone());
        if analyze {
            b = b.dtd(XMARK_DTD).analyze(AnalyzeMode::Warn);
        }
        for (v, p) in VIEW_NAMES.into_iter().zip(&patterns) {
            b = b.view(v, p.clone());
        }
        b.build().expect("catalog database builds")
    };
    let streams = [("all", all_updates()), ("Q1", updates_for_view("Q1"))]
        .into_iter()
        .chain(["Q4", "Q17"].map(|v| (v, updates_for_view(v))));
    let mut proved = 0;
    for (stream, updates) in streams {
        let mut dbs = [build(false), build(true)];
        for u in &updates {
            for stmt in [u.insert_stmt(), u.delete_stmt()] {
                let verdicts = analyzer.verdicts(&analyzer.statement_shape(&stmt));
                for db in &mut dbs {
                    let commit = db.apply(&stmt).expect("catalog update applies");
                    for (h, verdict) in db.handles().into_iter().zip(&verdicts) {
                        if *verdict == Verdict::Irrelevant {
                            proved += 1;
                            assert!(
                                commit.report(h).irrelevant,
                                "{stream}, {} on {}: an Irrelevant slot is an exit",
                                u.name,
                                db.name(h)
                            );
                        }
                    }
                    if stream != "all" {
                        let exits = commit.work().dynamic_skips;
                        assert!(exits >= 4, "{stream}-only, {}: {exits} of 7 views exit", u.name);
                    }
                }
            }
        }
    }
    assert!(proved > 0, "the catalog must exercise Irrelevant");
}

// ---------------------------------------------------------------------
// Documents that break the DTD: the analyzing database still equals
// its recomputation
// ---------------------------------------------------------------------

/// `seed` under the suite's DTD with `.analyze(Warn)` and the one view
/// `pattern`, after `statements`: the view equals its recomputation,
/// stored text included.
fn stays_recomputed(seed: &str, pattern: &str, statements: &[&str]) {
    let mut db = Database::builder()
        .document(seed)
        .dtd(DTD)
        .analyze(AnalyzeMode::Warn)
        .view("v", pattern)
        .build()
        .unwrap();
    for s in statements {
        db.apply(*s).unwrap();
    }
    let h = db.view("v").unwrap();
    let expected =
        ViewStore::from_counted(db.pattern(h), view_tuples(db.document(), db.pattern(h)));
    assert!(
        db.store(h).identical_to(&expected),
        "{seed} after {statements:?}: {:?} vs recomputed {:?}",
        db.cursor(h).collect::<Vec<_>>(),
        expected.cursor().collect::<Vec<_>>()
    );
}

/// A `b` under a `d` breaks `d -> d*`, so the analyzer calls the view
/// irrelevant to `delete //b`; but the deleted `x` was part of the `d`'s
/// stored value.
#[test]
fn a_deletion_under_a_non_conforming_node_refreshes_stored_text() {
    stays_recomputed("<r><d><b>x</b></d></r>", "//r{id}//d{id,val}", &["delete //b"]);
}

/// An `a` under a `d` in the seed: no conforming document has an `a`
/// below a `d`, so the analyzer calls the view irrelevant to an insert
/// there — and the insert makes a row.
#[test]
fn a_non_conforming_seed_is_maintained() {
    stays_recomputed("<r><d><a/></d></r>", "//a{id}//b{id}", &["insert <b/> into //d/a"]);
}

/// The same `a` under a `d`, put there by an insert nothing checks.
#[test]
fn a_non_conforming_insert_is_maintained() {
    stays_recomputed(
        "<r><d/></r>",
        "//a{id}//b{id}",
        &["insert <a/> into /r/d", "insert <b/> into //d/a"],
    );
}
