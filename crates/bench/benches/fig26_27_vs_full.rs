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
//! The incremental side runs the product's step: one statement through
//! a one-view `MultiViewEngine` (`xivm_bench::propagate_statement`).
//! Per pair the runner prints the phases, the incremental side's apply
//! (`apply_document_ms`), what of it is the view's Δ extraction
//! (`delta_in_apply_ms`: that apply minus the same PUL applied to a
//! fresh copy under `DeltaLabels::none()`, which builds no Δ entry —
//! part of what "Compute Delta Tables" once held runs there; clamped
//! at 0), the speedup with it charged to the incremental side
//! (`speedup_charged`: `full_recompute_ms` ÷ (`maintenance_total_ms` +
//! `delta_in_apply_ms`); `speedup` leaves it out, as the history
//! does), the share of the view the update's Δ reaches (tuples added or
//! removed ÷ the view's tuples before) and the arm `finish` took:
//! `terms` (the Δ terms — on a deletion, the bound rows by range plus
//! the witness terms) or `recompute` (a commit that may have flipped a
//! value predicate, `UpdateReport::recomputed`).

use std::time::Instant;
use xivm_bench::{averaged, figure_header, host, ms, phase_cells, propagate_statement};
use xivm_bench::{repetitions, row, PHASE_COLUMNS};
use xivm_core::{MaintenanceEngine, SnowcapStrategy, Timings, UpdateReport};
use xivm_ivma::recompute_store;
use xivm_update::{apply_pul, apply_pul_for, compute_pul, DeltaLabels, UpdateStatement};
use xivm_xmark::sizes::reference_size;
use xivm_xmark::{generate_sized, updates_for_view, view_pattern};
use xivm_xml::Document;

fn main() {
    let size = reference_size();
    let doc = generate_sized(size.bytes);
    let reps = repetitions();
    // Both figures are measured before any bare apply behind
    // `delta_in_apply_ms` runs: the two sides of every pair then start
    // from the allocator state they always started from, and `speedup`
    // stays comparable with its history.
    let figures = [("Figure 26", true), ("Figure 27", false)]
        .map(|(figure, is_insert)| (figure, is_insert, measure(&doc, is_insert, reps)));
    for (figure, is_insert, pairs) in figures {
        let algo = if is_insert { "PINT/PIMT" } else { "PDDT/PDMT" };
        figure_header(
            figure,
            &format!(
                "{algo} versus full re-computation, {} document; speedup_charged also charges \
                 the view's Δ extraction the apply runs",
                size.label
            ),
        );
        let mut header = vec!["pair".to_owned()];
        header.extend(PHASE_COLUMNS.iter().map(|s| s.to_string()));
        header.extend(
            [
                "apply_document_ms",
                "full_recompute_ms",
                "speedup",
                "delta_in_apply_ms",
                "speedup_charged",
                "delta_share",
                "arm",
            ]
            .map(str::to_owned),
        );
        row(&header);
        for m in pairs {
            // the bare apply: the same PUL on a fresh copy, no Δ entry
            // built
            let mut bare_apply_ms = 0.0;
            for _ in 0..reps {
                let mut d = doc.clone();
                let pul = compute_pul(&d, &m.stmt);
                let start = Instant::now();
                apply_pul_for(&mut d, &pul, &DeltaLabels::none()).expect("update applies");
                bare_apply_ms += ms(start.elapsed());
            }
            let apply_ms = ms(m.inc.apply_document);
            let delta_in_apply_ms = (apply_ms - bare_apply_ms / reps as f64).max(0.0);
            let inc_ms = ms(m.inc.maintenance_total());
            let mut cells = vec![m.pair];
            cells.extend(phase_cells(&m.inc));
            cells.extend([
                format!("{apply_ms:.3}"),
                format!("{:.3}", m.full_ms),
                format!("{:.2}", m.full_ms / inc_ms.max(1e-6)),
                format!("{delta_in_apply_ms:.3}"),
                format!("{:.2}", m.full_ms / (inc_ms + delta_in_apply_ms).max(1e-6)),
                format!("{:.3}", m.delta_share),
                m.arm.to_owned(),
            ]);
            row(&cells);
        }
    }
}

/// One pair's two sides, measured; its row waits for the bare apply.
struct Measured {
    pair: String,
    stmt: UpdateStatement,
    /// The incremental side's phases and apply, averaged.
    inc: Timings,
    full_ms: f64,
    /// Tuples added or removed ÷ the view's tuples before.
    delta_share: f64,
    arm: &'static str,
}

/// Measures every pair of one figure: each statement of the views'
/// catalog classes, incremental side first, then full recomputation.
fn measure(doc: &Document, is_insert: bool, reps: usize) -> Vec<Measured> {
    let mut pairs = Vec::new();
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
            .map(|u| (u.name.to_owned(), if is_insert { u.insert_stmt() } else { u.delete_stmt() }))
            .chain(std::iter::once(narrow))
            .collect::<Vec<_>>();
        for (uname, stmt) in stmts {
            // incremental: target finding plus the five phases
            let mut last: Option<(usize, UpdateReport)> = None;
            let inc = averaged(reps, || {
                let mut d = doc.clone();
                let engine =
                    MaintenanceEngine::new(&d, pattern.clone(), SnowcapStrategy::MinimalChain);
                let rows = engine.store().len();
                let report = propagate_statement(&mut host(engine), &mut d, &stmt);
                let timings = report.timings;
                last = Some((rows, report));
                timings
            });
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
            let (rows, report) = last.expect("at least one repetition");
            let reached = report.tuples_added + report.tuples_removed;
            pairs.push(Measured {
                pair: format!("{view}_{uname}"),
                stmt,
                inc,
                full_ms: full_ms / reps as f64,
                delta_share: reached as f64 / rows.max(1) as f64,
                arm: if report.recomputed { "recompute" } else { "terms" },
            });
        }
    }
    pairs
}

/// A low-selectivity update for each view's subject area: one person
/// (or one auction's bidders) instead of all of them.
fn narrow_update(view: &str, is_insert: bool) -> (String, UpdateStatement) {
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
