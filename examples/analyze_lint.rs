//! CI lint gate: static analysis of the XMark view catalog.
//!
//! Runs the `xivm_analyze` checks the `Database` builder applies under
//! `.analyze(AnalyzeMode::Strict)`, but standalone — no document, no
//! materialization — over the paper's seven XMark views and the
//! Appendix A update catalog:
//!
//! * **deadness** — a view pattern unsatisfiable against the XMark
//!   DTD is a catalog defect (error); a statement whose target selects
//!   nothing in any conforming document is a no-op (warning);
//! * **relevance** — the static (view × statement) matrix; the engine
//!   skips no view on it (its commits skip through the dynamic
//!   relevance exit, which takes every `Irrelevant` entry);
//! * **independence** — the Figure 15 rules lifted to label shapes.
//!
//! Exits non-zero on any error-severity finding, so CI fails when a
//! dead view lands in the catalog:
//!
//! ```sh
//! cargo run --example analyze_lint
//! ```

use xivm::analyze::{AnalysisReport, Analyzer, Severity, Verdict};
use xivm::pattern::{parse_pattern, TreePattern};
use xivm::xmark::{all_updates, view_pattern, xmark_dtd, VIEW_NAMES};

fn main() {
    let dtd = xmark_dtd();
    let views: Vec<(String, TreePattern)> =
        VIEW_NAMES.iter().map(|n| (n.to_string(), view_pattern(n))).collect();
    let analyzer = Analyzer::new(Some(&dtd), views.iter().map(|(n, p)| (n.as_str(), p)));

    // The Appendix A workload, both variants of every entry.
    let mut statements = Vec::new();
    for u in all_updates() {
        statements.push((format!("{}+", u.name), u.insert_stmt()));
        statements.push((format!("{}-", u.name), u.delete_stmt()));
    }
    let report = analyzer.report(statements.iter().map(|(n, s)| (n.as_str(), s)));

    println!(
        "xivm_analyze lint: XMark catalog ({} views, {} statements)",
        VIEW_NAMES.len(),
        statements.len()
    );
    println!("schema informed: {}\n", report.schema_informed);
    print_matrix(&report);
    print_findings(&report);

    // Demonstrate the warning class on a statement that can never
    // select anything in a conforming auction document.
    let dead = xivm::update::statement::parse_statement("delete /site/nonexistent").unwrap();
    let demo = analyzer.report([("dead-target-demo", &dead)]);
    let warnings = demo.findings.iter().filter(|f| f.severity == Severity::Warning).count();
    println!("\ndead-statement demo: {warnings} warning(s) for `delete /site/nonexistent`");

    // Independence spot check: two inserts under disjoint subtrees.
    let a = xivm::update::statement::parse_statement(
        "insert <watch/> into /site/people/person/watches",
    )
    .unwrap();
    let b = xivm::update::statement::parse_statement(
        "insert <bidder/> into /site/open_auctions/open_auction",
    )
    .unwrap();
    println!(
        "independence: watches-insert || bidder-insert provably independent: {}",
        analyzer.batch_independent(&[a, b])
    );

    // The gate itself. A deliberately dead view shows what a failure
    // looks like without failing the real catalog's run.
    let zombie = parse_pattern("//no_such_element{id}").unwrap();
    let with_zombie = Analyzer::new(
        Some(&dtd),
        views.iter().map(|(n, p)| (n.as_str(), p)).chain(std::iter::once(("zombie", &zombie))),
    );
    let zombie_report =
        with_zombie.report(std::iter::empty::<(&str, &xivm::update::UpdateStatement)>());
    println!(
        "\ngate self-test: catalog + dead view yields {} error(s) (expected 1)",
        zombie_report.errors().count()
    );
    if zombie_report.errors().count() != 1 {
        eprintln!("lint self-test failed: the analyzer missed a dead view");
        std::process::exit(2);
    }

    if report.has_errors() {
        eprintln!("\nFAIL: the XMark catalog has error-severity findings");
        std::process::exit(1);
    }
    println!("\nPASS: no error-severity findings in the XMark catalog");
}

/// Prints the relevance matrix with one row per view, summarizing the
/// per-statement verdicts as counts (the full matrix is 7 × 54).
fn print_matrix(report: &AnalysisReport) {
    println!("relevance matrix (per view: irrelevant / relevant / unknown):");
    for (name, row) in report.matrix.views.iter().zip(&report.matrix.verdicts) {
        let count = |v: Verdict| row.iter().filter(|&&x| x == v).count();
        println!(
            "  {:4}  {:3} irrelevant  {:3} relevant  {:3} unknown",
            name,
            count(Verdict::Irrelevant),
            count(Verdict::Relevant),
            count(Verdict::Unknown),
        );
    }
    println!("  overall static skip rate: {:.1}%", report.matrix.skip_rate() * 100.0);
}

fn print_findings(report: &AnalysisReport) {
    if report.findings.is_empty() {
        println!("\nfindings: none");
    } else {
        println!("\nfindings:");
        for f in &report.findings {
            println!("  {f}");
        }
    }
}
