//! Figures 26 and 27: incremental maintenance vs. full recomputation
//! for the XMark views Q1, Q2 and Q4 and their update classes —
//! insertions (Figure 26) and deletions (Figure 27).
//!
//! Expected shape: full recomputation is prohibitive in most
//! scenarios; incremental maintenance wins, and by more on deletions.
//!
//! Both sides are charged the same work: finding the update's targets
//! (`compute_pul`), then either the five maintenance phases or `e_v`
//! over the updated document; applying the PUL is charged to neither.
//! Per pair the runner prints the phases, the incremental side's apply
//! (`apply_document_ms`: the apply also builds the view's Δ⁺ and Δ⁻
//! entries, so part of what "Compute Delta Tables" once held runs
//! there), the share of the view the update's Δ reaches (tuples added
//! or removed ÷ the view's tuples before) and the arm `finish` took:
//! `terms` (the Δ terms — on a deletion, the bound rows by range plus
//! the witness terms) or `recompute` (a commit that may have flipped a
//! value predicate, `UpdateReport::recomputed`).

use std::time::Instant;
use xivm_bench::{averaged, figure_header, ms, phase_cells, repetitions, row, PHASE_COLUMNS};
use xivm_core::{MaintenanceEngine, SnowcapStrategy, UpdateReport};
use xivm_ivma::recompute_store;
use xivm_update::{apply_pul, compute_pul};
use xivm_xmark::sizes::reference_size;
use xivm_xmark::{generate_sized, updates_for_view, view_pattern};

fn main() {
    let size = reference_size();
    let doc = generate_sized(size.bytes);
    let reps = repetitions();
    for (figure, is_insert) in [("Figure 26", true), ("Figure 27", false)] {
        let algo = if is_insert { "PINT/PIMT" } else { "PDDT/PDMT" };
        figure_header(
            figure,
            &format!("{algo} versus full re-computation, {} document", size.label),
        );
        let mut header = vec!["pair".to_owned()];
        header.extend(PHASE_COLUMNS.iter().map(|s| s.to_string()));
        header.extend(
            ["apply_document_ms", "full_recompute_ms", "speedup", "delta_share", "arm"]
                .map(str::to_owned),
        );
        row(&header);
        for view in ["Q1", "Q2", "Q4"] {
            let pattern = view_pattern(view);
            // the catalog pairs plus a low-selectivity variant: the
            // paper's updates touch large document fractions, where
            // incremental and full costs converge by necessity; the
            // narrow variant shows the incremental win when the
            // update's footprint is small relative to the document
            let narrow = narrow_update(view, is_insert);
            let stmts = updates_for_view(view)
                .iter()
                .map(|u| {
                    (u.name.to_owned(), if is_insert { u.insert_stmt() } else { u.delete_stmt() })
                })
                .chain(std::iter::once(narrow))
                .collect::<Vec<_>>();
            for (uname, stmt) in stmts {
                // incremental: target finding plus the five phases
                let mut last: Option<(usize, UpdateReport)> = None;
                let inc = averaged(reps, || {
                    let mut d = doc.clone();
                    let mut engine =
                        MaintenanceEngine::new(&d, pattern.clone(), SnowcapStrategy::MinimalChain);
                    let rows = engine.store().len();
                    let report = engine.apply_statement(&mut d, &stmt).expect("propagation");
                    let timings = report.timings;
                    last = Some((rows, report));
                    timings
                });
                let inc_ms = ms(inc.maintenance_total());
                // full recomputation: target finding plus `e_v` over
                // the updated document
                let mut full_ms = 0.0;
                for _ in 0..reps {
                    let mut d = doc.clone();
                    let start = Instant::now();
                    let pul = compute_pul(&d, &stmt);
                    full_ms += ms(start.elapsed());
                    apply_pul(&mut d, &pul).expect("update applies");
                    let start = Instant::now();
                    let store = recompute_store(&d, &pattern);
                    full_ms += ms(start.elapsed());
                    std::hint::black_box(store.len());
                }
                full_ms /= reps as f64;
                let (rows, report) = last.expect("at least one repetition");
                let reached = report.tuples_added + report.tuples_removed;
                let mut cells = vec![format!("{view}_{uname}")];
                cells.extend(phase_cells(&inc));
                cells.extend([
                    format!("{:.3}", ms(inc.apply_document)),
                    format!("{full_ms:.3}"),
                    format!("{:.2}", full_ms / inc_ms.max(1e-6)),
                    format!("{:.3}", reached as f64 / rows.max(1) as f64),
                    if report.recomputed { "recompute" } else { "terms" }.to_owned(),
                ]);
                row(&cells);
            }
        }
    }
}

/// A low-selectivity update for each view's subject area: one person
/// (or one auction's bidders) instead of all of them.
fn narrow_update(view: &str, is_insert: bool) -> (String, xivm_update::UpdateStatement) {
    use xivm_update::UpdateStatement;
    let path = match view {
        "Q1" => "/site/people/person[@id=\"person3\"]",
        _ => "/site/open_auctions/open_auction[@id=\"open_auction3\"]/bidder",
    };
    let stmt = if is_insert {
        UpdateStatement::insert(path, "<name>narrow<name>x</name></name>").unwrap()
    } else {
        UpdateStatement::delete(path).unwrap()
    };
    ("narrow".to_owned(), stmt)
}
