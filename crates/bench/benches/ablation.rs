//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **dynamic pruning** (Propositions 3.6 / 3.8 / 4.7) on vs. off —
//!    the "dynamic reasoning" whose benefit Section 6.8 frames;
//! 2. **snowcap materialization strategy**: minimal chain vs. every
//!    snowcap vs. leaves only (extends Section 6.7's two-way
//!    comparison with the third corner).

use xivm_bench::{figure_header, host, ms, propagate_statement, repetitions, row};
use xivm_core::{MaintenanceEngine, SnowcapStrategy};
use xivm_xmark::sizes::small_size;
use xivm_xmark::{generate_sized, update_by_name, view_pattern};
use xivm_xml::Document;

fn main() {
    let size = small_size();
    let doc = generate_sized(size.bytes);
    let reps = repetitions();

    figure_header("Ablation 1", "dynamic term pruning on/off (view Q1, delete X1_L)");
    row(&["pruning".to_owned(), "terms_surviving".to_owned(), "total_maintenance_ms".to_owned()]);
    for pruning in [true, false] {
        let (t, terms) = run_pruned(&doc, pruning, reps);
        row(&[
            if pruning { "on".to_owned() } else { "off".to_owned() },
            terms.to_string(),
            format!("{t:.3}"),
        ]);
    }

    figure_header(
        "Ablation 2",
        "materialization strategies (view Q6, insert E6_L): chain vs all-snowcaps vs leaves",
    );
    row(&["strategy".to_owned(), "total_maintenance_ms".to_owned()]);
    let pattern = view_pattern("Q6");
    let stmt = update_by_name("E6_L").insert_stmt();
    for strategy in
        [SnowcapStrategy::MinimalChain, SnowcapStrategy::AllSnowcaps, SnowcapStrategy::LeavesOnly]
    {
        let mut total = 0.0;
        for _ in 0..reps {
            let report = xivm_bench::run_once(&doc, &pattern, &stmt, strategy);
            total += ms(report.timings.maintenance_total());
        }
        row(&[strategy.name().to_owned(), format!("{:.3}", total / reps as f64)]);
    }
}

fn run_pruned(doc: &Document, pruning: bool, reps: usize) -> (f64, usize) {
    let pattern = view_pattern("Q1");
    let stmt = update_by_name("X1_L").delete_stmt();
    let mut total = 0.0;
    let mut terms = 0;
    for _ in 0..reps {
        let mut d = doc.clone();
        let mut engine = MaintenanceEngine::new(&d, pattern.clone(), SnowcapStrategy::MinimalChain);
        engine.dynamic_pruning = pruning;
        let report = propagate_statement(&mut host(engine), &mut d, &stmt);
        total += ms(report.timings.maintenance_total());
        terms = report.delete_prune.after_id_reasoning;
    }
    (total / reps as f64, terms)
}
