//! Shared plumbing for the experiment runners (Section 6).
//!
//! Every figure of the paper's evaluation has a dedicated runner under
//! `benches/` (plain `harness = false` binaries, so `cargo bench`
//! regenerates every figure); this crate holds the measurement and
//! table-printing helpers they share. Every runner propagates through
//! the product's own step — a [`MultiViewEngine`] hosting the view, the
//! `propagate` a façade commit takes ([`propagate_statement`]) — or
//! times a layer of it alone (`micro`). The runners are the reproduction
//! artifact only: what the product costs end to end and layer by layer
//! is measured by the standalone `benchmark/` package (contract in
//! `BENCHMARK.json`), not here.
//!
//! Runner ↔ figure map: `fig18_19_breakdown` (phase breakdowns),
//! `fig20_21_all_views` (all view/update pairs), `fig22_23_path_depth`
//! (deletion path depth), `fig24_annotations` (annotation impact),
//! `fig25_scalability` (document-size ladder), `fig26_27_vs_full`
//! (vs. recomputation), `fig28_vs_ivma` (vs. node-at-a-time IVMA),
//! `fig29_32_snowcaps` (snowcaps vs. leaves only), `fig33_35_pul_rules`
//! (PUL reduction rules), plus `tablea_testset`, `ablation` and the
//! `micro` criterion benches. Environment knobs (`XIVM_FULL`,
//! `XIVM_BENCH_MS`) and the committed-baseline workflow are documented
//! in the README's **Benchmarks** section; the `xivm_bench` row of
//! `ARCHITECTURE.md` (repository root) places the runners in the
//! workspace-wide picture.

#![forbid(unsafe_code)]

use std::time::Duration;
use xivm_core::timing::timed;
use xivm_core::{MaintenanceEngine, MultiViewEngine, SnowcapStrategy, Timings, UpdateReport};
use xivm_pattern::TreePattern;
use xivm_update::{compute_pul, UpdateStatement};
use xivm_xml::Document;

/// Milliseconds with two decimals — the unit of the paper's plots.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a figure header in a stable, greppable format.
pub fn figure_header(figure: &str, caption: &str) {
    println!();
    println!("## {figure}: {caption}");
}

/// Prints one CSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join(","));
}

/// The five measured phases, as column labels (Section 6.1).
pub const PHASE_COLUMNS: [&str; 6] = [
    "find_target_nodes_ms",
    "compute_delta_tables_ms",
    "get_update_expression_ms",
    "execute_update_ms",
    "update_lattice_ms",
    "maintenance_total_ms",
];

/// Formats a [`Timings`] into the phase columns.
pub fn phase_cells(t: &Timings) -> Vec<String> {
    vec![
        format!("{:.3}", ms(t.find_target_nodes)),
        format!("{:.3}", ms(t.compute_delta_tables)),
        format!("{:.3}", ms(t.get_update_expression)),
        format!("{:.3}", ms(t.execute_update)),
        format!("{:.3}", ms(t.update_lattice)),
        format!("{:.3}", ms(t.maintenance_total())),
    ]
}

/// Runs one (document, view, statement) propagation on fresh copies
/// and returns the report ([`propagate_statement`]). The document build
/// and view materialization are excluded from the measured phases by
/// construction.
pub fn run_once(
    doc: &Document,
    pattern: &TreePattern,
    stmt: &UpdateStatement,
    strategy: SnowcapStrategy,
) -> UpdateReport {
    let mut doc = doc.clone();
    let mut host = host(MaintenanceEngine::new(&doc, pattern.clone(), strategy));
    propagate_statement(&mut host, &mut doc, stmt)
}

/// `engine`'s view hosted alone: a one-view [`MultiViewEngine`], the
/// host every `Database` commit propagates through.
pub fn host(engine: MaintenanceEngine) -> MultiViewEngine {
    MultiViewEngine::from_engines(vec![(String::new(), engine)])
}

/// One statement committed to the first view of `host` as the façade
/// commits it: the PUL computed, its time stamped as `find_target_nodes`
/// on the report, then one [`MultiViewEngine::propagate_pul`] — the step
/// every `Database` commit takes.
pub fn propagate_statement(
    host: &mut MultiViewEngine,
    doc: &mut Document,
    stmt: &UpdateStatement,
) -> UpdateReport {
    let (pul, t_find) = timed(|| compute_pul(doc, stmt));
    let mut reports = host.propagate_pul(doc, &pul).expect("propagation succeeds");
    let mut report = reports.swap_remove(0).1;
    report.timings.find_target_nodes = t_find;
    report
}

/// Averages a measurement over `n` runs (the paper averages over five
/// executions).
pub fn averaged<F: FnMut() -> Timings>(n: usize, mut f: F) -> Timings {
    let mut acc = Timings::default();
    for _ in 0..n {
        acc.accumulate(&f());
    }
    Timings {
        find_target_nodes: acc.find_target_nodes / n as u32,
        compute_delta_tables: acc.compute_delta_tables / n as u32,
        get_update_expression: acc.get_update_expression / n as u32,
        execute_update: acc.execute_update / n as u32,
        update_lattice: acc.update_lattice / n as u32,
        apply_document: acc.apply_document / n as u32,
    }
}

/// Number of repetitions per measurement (5 in the paper; 3 in quick
/// mode to keep `cargo bench` short).
pub fn repetitions() -> usize {
    if xivm_xmark::sizes::full_scale() {
        5
    } else {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_converts() {
        assert!((ms(Duration::from_millis(1500)) - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn averaged_divides() {
        let t = averaged(2, || Timings {
            execute_update: Duration::from_millis(10),
            ..Default::default()
        });
        assert_eq!(t.execute_update, Duration::from_millis(10));
    }

    #[test]
    fn run_once_is_side_effect_free() {
        let doc = xivm_xmark::generate_sized(30 * 1024);
        let p = xivm_xmark::view_pattern("Q1");
        let stmt = xivm_xmark::update_by_name("X1_L").insert_stmt();
        let before = xivm_xml::serialize_document(&doc);
        let _ = run_once(&doc, &p, &stmt, SnowcapStrategy::MinimalChain);
        assert_eq!(xivm_xml::serialize_document(&doc), before);
    }

    /// The figures measure what the product computes: `run_once` on an
    /// Appendix A pair reports the outcome `Database::apply` commits for
    /// the same document, view, statement and strategy, and leaves the
    /// same store.
    #[test]
    fn run_once_commits_what_the_database_commits() {
        use xivm_core::Database;
        let doc = xivm_xmark::generate_sized(30 * 1024);
        for (view, update) in [("Q1", "X1_L"), ("Q2", "X2_L")] {
            let pattern = xivm_xmark::view_pattern(view);
            let update = xivm_xmark::update_by_name(update);
            for stmt in [update.insert_stmt(), update.delete_stmt()] {
                for strategy in [
                    SnowcapStrategy::MinimalChain,
                    SnowcapStrategy::AllSnowcaps,
                    SnowcapStrategy::LeavesOnly,
                ] {
                    let mut d = doc.clone();
                    let mut lone = host(MaintenanceEngine::new(&d, pattern.clone(), strategy));
                    propagate_statement(&mut lone, &mut d, &stmt);
                    let mut db = Database::builder()
                        .document(doc.clone())
                        .view_with_strategy(view, pattern.clone(), strategy)
                        .build()
                        .unwrap();
                    let h = db.view(view).unwrap();
                    let commit = db.apply(&stmt).unwrap();
                    let what = format!("{view} × {stmt:?} under {strategy:?}");
                    let report = run_once(&doc, &pattern, &stmt, strategy);
                    assert!(!report.delta.is_empty(), "{what}: the pair reaches the view");
                    assert!(report.same_outcome(commit.report(h)), "{what}");
                    assert!(lone.get(0).unwrap().1.store().identical_to(db.store(h)), "{what}");
                    assert_eq!(xivm_xml::serialize_document(&d), db.serialize(), "{what}");
                }
            }
        }
    }
}
