//! Soundness of the static analyzer against the dynamic engine.
//!
//! Every verdict `xivm_analyze` emits is a claim about *all*
//! DTD-conforming documents; this suite checks those claims against
//! the runtime on random conforming documents and random
//! conformance-preserving update scripts:
//!
//! * **relevance** — a view proved `Irrelevant` to a statement has an
//!   empty dynamic delta when the statement runs without any static
//!   machinery;
//! * **independence** — a batch proved pairwise independent has zero
//!   dynamic `find_conflicts` hits between any two of its PULs;
//! * **transparency** — a database built with `.analyze(Warn)` (skip
//!   masks and the conflict-scan fast path active) produces commits
//!   bit-identical to one built without analysis, on the plain,
//!   pipelined and transactional paths.

use proptest::prelude::*;
use xivm::analyze::Analyzer;
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

fn build_db(doc: &str, pipeline: usize, analyze: bool) -> Database {
    let mut b = Database::builder().document(doc).pipeline(pipeline);
    if analyze {
        b = b.dtd(DTD).analyze(AnalyzeMode::Warn);
    }
    for (name, pattern) in VIEWS {
        b = b.view(name, pattern);
    }
    b.build().unwrap()
}

/// Every view of `db` must equal its from-scratch evaluation.
fn consistent(db: &Database) -> Result<(), TestCaseError> {
    for h in db.handles() {
        let pattern = db.pattern(h).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
        prop_assert!(
            db.store(h).same_content_as(&expected),
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
    /// delta* (measured on a database with no static machinery at
    /// all), and the analyzing database — which skips exactly those
    /// views — stays bit-identical to the plain one.
    #[test]
    fn static_verdicts_are_sound(
        doc in arb_conforming_doc(),
        script in prop::collection::vec(0usize..STATEMENTS.len(), 1..5),
    ) {
        let analyzer = make_analyzer();
        let mut on = build_db(&doc, 1, true);
        let mut off = build_db(&doc, 1, false);
        for &s in &script {
            let text = STATEMENTS[s];
            let stmt = parse_statement(text).unwrap();
            let verdicts = analyzer.verdicts(&analyzer.statement_shape(&stmt));
            let c_on = on.apply(text).unwrap();
            let c_off = off.apply(text).unwrap();
            prop_assert!(c_on.same_outcome(&c_off), "outcomes diverged under `{text}`");
            prop_assert_eq!(c_off.static_skips(), 0, "no skips without analyze(..)");
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

    /// The dynamic relevance exit is the analyzer's per-commit twin and
    /// needs neither DTD nor conformance: on the *unanalyzed* database
    /// every report it marks `irrelevant` has an empty delta and is the
    /// same outcome as the analyzed database's report for that view
    /// and commit — whether that one was skipped statically, exited
    /// dynamically or propagated.
    #[test]
    fn dynamic_exits_agree_with_the_analyzed_database(
        doc in arb_conforming_doc(),
        script in prop::collection::vec(0usize..STATEMENTS.len(), 1..5),
    ) {
        let mut on = build_db(&doc, 1, true);
        let mut off = build_db(&doc, 1, false);
        for &s in &script {
            let text = STATEMENTS[s];
            let c_on = on.apply(text).unwrap();
            let c_off = off.apply(text).unwrap();
            for h in off.handles() {
                let (r_on, r_off) = (c_on.report(h), c_off.report(h));
                prop_assert!(!(r_on.statically_skipped && r_on.irrelevant), "one reason per skip");
                if r_off.irrelevant {
                    prop_assert!(r_off.delta.is_empty(), "{}: an exit has no delta", off.name(h));
                    prop_assert!(
                        r_off.same_outcome(r_on),
                        "view {} exited dynamically under `{text}` on doc {} but the \
                         analyzed database reports another outcome",
                        off.name(h),
                        doc
                    );
                }
            }
            prop_assert_eq!(
                c_off.dynamic_skips(),
                off.handles().into_iter().filter(|&h| c_off.report(h).irrelevant).count()
            );
            consistent(&off)?;
        }
    }

    /// Independence soundness: a batch the analyzer proves pairwise
    /// independent has zero dynamic conflicts — checked directly on
    /// the raw PULs with `find_conflicts` — and the user-facing
    /// `independent()` transaction commits identically with the scan
    /// skipped (analysis on) or run (analysis off).
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
        // and through the façade: scan skipped, outcome identical
        let mut on = build_db(&doc, 1, true);
        let mut off = build_db(&doc, 1, false);
        let commit_with = |db: &mut Database| {
            let mut tx = db.transaction().independent();
            for &i in &picks {
                tx = tx.statement(STATEMENTS[i]);
            }
            tx.commit().unwrap()
        };
        let c_on = commit_with(&mut on);
        let c_off = commit_with(&mut off);
        prop_assert!(c_on.same_outcome(&c_off));
        prop_assert_eq!(on.conflict_scans_skipped(), 1, "the provable batch skips the scan");
        prop_assert_eq!(off.conflict_scans_skipped(), 0);
        prop_assert_eq!(on.serialize(), off.serialize());
        consistent(&on)?;
    }

    /// Transparency on the overlapped path: with pipelining at depth 4
    /// the per-commit skip masks ride the window steps, and every
    /// commit stays bit-identical to the unanalyzed database.
    #[test]
    fn pipelined_masks_are_bit_identical(
        doc in arb_conforming_doc(),
        script in prop::collection::vec(0usize..STATEMENTS.len(), 2..6),
    ) {
        let mut on = build_db(&doc, 4, true);
        let mut off = build_db(&doc, 4, false);
        let stmts: Vec<&str> = script.iter().map(|&i| STATEMENTS[i]).collect();
        let cs_on = on.apply_pipelined(stmts.clone()).unwrap();
        let cs_off = off.apply_pipelined(stmts).unwrap();
        prop_assert_eq!(cs_on.len(), cs_off.len());
        for (a, b) in cs_on.iter().zip(&cs_off) {
            prop_assert!(a.same_outcome(b), "pipelined outcomes diverged at seq {}", a.seq);
        }
        prop_assert_eq!(on.serialize(), off.serialize());
        consistent(&on)?;
    }
}

/// The suite is not vacuous: on this catalog the analyzer does prove
/// skips (d_only × subtree-of-a statements) and the engine does take
/// them.
#[test]
fn skips_actually_fire_on_this_catalog() {
    let analyzer = make_analyzer();
    let stmt = parse_statement("insert <c/> into //b").unwrap();
    let verdicts = analyzer.verdicts(&analyzer.statement_shape(&stmt));
    assert!(verdicts.iter().any(|v| v.can_skip()), "the catalog must exercise Irrelevant");

    let mut db = build_db("<r><a><b/><c/></a><d/></r>", 1, true);
    let commit = db.apply("insert <c/> into //b").unwrap();
    assert!(commit.static_skips() > 0, "the engine must take the proved skips");

    // and without any analysis the dynamic exit recovers skips of its
    // own: `c` under `b` holds no label of d_only or rd, no text of theirs
    let mut plain = build_db("<r><a><b/><c/></a><d/></r>", 1, false);
    let commit = plain.apply("insert <c/> into //b").unwrap();
    assert_eq!(commit.static_skips(), 0);
    assert!(commit.dynamic_skips() >= 2, "d_only and rd must exit, got {}", commit.dynamic_skips());
}

/// On the paper's seven-view XMark catalog under its DTD, a stream
/// drawn from one view's Appendix A update set is statically skipped
/// on four of the seven views at every commit: 40 of each stream's 70
/// (commit, view) slots, the share a skewed workload saves.
#[test]
fn skewed_xmark_streams_skip_four_of_seven_views() {
    use xivm::xmark::{generate_sized, updates_for_view, view_pattern, VIEW_NAMES, XMARK_DTD};
    let doc = generate_sized(40 * 1024);
    for view in ["Q1", "Q4", "Q17"] {
        let mut b =
            Database::builder().document(doc.clone()).dtd(XMARK_DTD).analyze(AnalyzeMode::Warn);
        for v in VIEW_NAMES {
            b = b.view(v, view_pattern(v));
        }
        let mut db = b.build().expect("catalog database builds");
        let mut commits = 0;
        for u in updates_for_view(view) {
            for stmt in [u.insert_stmt(), u.delete_stmt()] {
                let commit = db.apply(stmt).expect("catalog update applies");
                assert!(commit.static_skips() >= 4, "{view}-only, {}: 4 of 7 views", u.name);
                commits += 1;
            }
        }
        assert_eq!(commits * VIEW_NAMES.len(), 70, "{view}-only: ten commits over seven views");
    }
}
