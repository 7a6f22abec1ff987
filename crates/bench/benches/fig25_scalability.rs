//! Figure 25: scalability with source-document size — insert (a) and
//! delete (b) propagation of update A6_A to view Q1 across the size
//! ladder, with the full phase breakdown. A6_A's targets grow with the
//! document, so each row also prints their number and the maintenance
//! cost per target: the paper's claim is that this one stays flat.

use xivm_bench::{averaged, figure_header, ms, phase_cells, repetitions, row, PHASE_COLUMNS};
use xivm_core::SnowcapStrategy;
use xivm_update::compute_pul;
use xivm_xmark::sizes::ladder;
use xivm_xmark::{generate_sized, update_by_name, view_pattern};

fn main() {
    let reps = repetitions();
    let pattern = view_pattern("Q1");
    let update = update_by_name("A6_A");
    for (figure, is_insert) in [("Figure 25a", true), ("Figure 25b", false)] {
        let kind = if is_insert { "insert" } else { "delete" };
        figure_header(figure, &format!("scalability of view {kind} (view Q1, update A6_A)"));
        let mut header = vec!["doc_size".to_owned()];
        header.extend(PHASE_COLUMNS.iter().map(|s| s.to_string()));
        header.extend(["targets", "per_target_ms"].map(str::to_owned));
        row(&header);
        for size in ladder() {
            let doc = generate_sized(size.bytes);
            let stmt = if is_insert { update.insert_stmt() } else { update.delete_stmt() };
            let targets = compute_pul(&doc, &stmt).ops.len();
            let t = averaged(reps, || {
                xivm_bench::run_once(&doc, &pattern, &stmt, SnowcapStrategy::MinimalChain).timings
            });
            let mut cells = vec![size.label.to_owned()];
            cells.extend(phase_cells(&t));
            cells.push(targets.to_string());
            cells.push(format!("{:.4}", ms(t.maintenance_total()) / targets.max(1) as f64));
            row(&cells);
        }
    }
}
