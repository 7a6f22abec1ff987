//! Parallel multi-view propagation sweep: the full XMark view catalog
//! maintained together under one shared update stream, at 1/2/4/8
//! workers (`XIVM_WORKERS` at runtime picks the same knob).
//!
//! Every propagation runs on the persistent
//! `xivm_core::runtime::Runtime` pool: threads come up on the first
//! propagation and are reused for the rest of the stream (steady state
//! spawns nothing).
//!
//! The catalog sweep carries a lot of per-view work; the
//! **tiny-update** sweep that follows is the workload the pool exists
//! for — single-statement commits, measured per update in
//! microseconds, where the fan-out's fixed cost is what shows.
//!
//! Worker counts beyond the machine's core count cannot speed
//! anything up — on a single-core host every row measures scheduler
//! overhead only, so the sweep prints the available parallelism
//! alongside the results, reports the per-repetition spread
//! (min/median/stddev, not a bare mean), and on a 1-core host
//! **refuses to print a `speedup_vs_1_worker` column at all**: OS
//! time-slicing cannot produce wall-clock speedup, so that label
//! would be a lie — the column degrades to `relative_vs_1_worker`.

use std::time::Instant;
use xivm_bench::{figure_header, ms, rep_stats, repetitions, row};
use xivm_core::{MultiViewEngine, SnowcapStrategy};
use xivm_update::UpdateStatement;
use xivm_xmark::sizes::reference_size;
use xivm_xmark::{generate_sized, updates_for_view, view_pattern, VIEW_NAMES};
use xivm_xml::Document;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn catalog_engine(doc: &Document) -> MultiViewEngine {
    MultiViewEngine::new(
        doc,
        VIEW_NAMES.iter().map(|v| (v.to_string(), view_pattern(v), SnowcapStrategy::MinimalChain)),
    )
}

/// One insert and one delete per catalog view: a stream that touches
/// every view at least once, so the per-view phases carry real work.
fn update_stream() -> Vec<UpdateStatement> {
    let mut stream = Vec::new();
    for view in VIEW_NAMES {
        if let Some(u) = updates_for_view(view).first() {
            stream.push(u.insert_stmt());
            stream.push(u.delete_stmt());
        }
    }
    stream
}

/// The tiny-update workload: one single-statement commit at a time
/// (an insert, then the matching delete, repeated), the shape that
/// dominates heavy-traffic streams and where per-propagation fixed
/// cost is pure loss.
fn tiny_stream(rounds: usize) -> Vec<UpdateStatement> {
    let u = updates_for_view(VIEW_NAMES[0]).into_iter().next().expect("catalog has updates");
    let mut stream = Vec::with_capacity(rounds * 2);
    for _ in 0..rounds {
        stream.push(u.insert_stmt());
        stream.push(u.delete_stmt());
    }
    stream
}

/// Runs `stream` through a fresh catalog engine at `workers`,
/// returning (total propagate ms, avg Figure 15 groups per statement —
/// the `partition` analysis, which the scheduler does not consult).
fn run_stream(doc: &Document, stream: &[UpdateStatement], workers: usize) -> (f64, f64) {
    let mut d = doc.clone();
    let mut engine = catalog_engine(&d);
    engine.set_workers(workers);
    let mut total = 0.0;
    let mut groups_total = 0usize;
    for stmt in stream {
        let pul = xivm_update::compute_pul(&d, stmt);
        groups_total += engine.partition(&d, &pul).len();
        let start = Instant::now();
        engine.propagate_pul(&mut d, &pul).expect("propagation succeeds");
        total += ms(start.elapsed());
    }
    (total, groups_total as f64 / stream.len() as f64)
}

fn main() {
    let size = reference_size();
    let doc = generate_sized(size.bytes);
    let stream = update_stream();
    let reps = repetitions();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    figure_header(
        "Parallel sweep (persistent pool)",
        &format!(
            "multi-view propagation, {} views x {} statements, {} document, {cores} core(s)",
            VIEW_NAMES.len(),
            stream.len(),
            size.label
        ),
    );
    // On a single-core host a "speedup" column would be a lie — OS
    // time-slicing cannot produce wall-clock speedup, so the ratio
    // only measures scheduler overhead. Refuse the label there.
    let ratio_label = if cores > 1 { "speedup_vs_1_worker" } else { "relative_vs_1_worker" };
    if cores == 1 {
        println!(
            "# single-core host: refusing the speedup_vs_1_worker label; \
             the ratio column below measures scheduler overhead only"
        );
    }
    row(&[
        "workers".to_owned(),
        "warm_ms".to_owned(),
        "warm_min_ms".to_owned(),
        "warm_median_ms".to_owned(),
        "warm_stddev_ms".to_owned(),
        ratio_label.to_owned(),
        "groups_avg".to_owned(),
    ]);

    let mut baseline_ms = None;
    for workers in WORKER_SWEEP {
        let mut warm_runs = Vec::new();
        let mut groups_avg = 0.0;
        for _ in 0..reps {
            let (w, g) = run_stream(&doc, &stream, workers);
            warm_runs.push(w);
            groups_avg = g;
        }
        let warm = rep_stats(&warm_runs);
        let baseline = *baseline_ms.get_or_insert(warm.mean);
        row(&[
            workers.to_string(),
            format!("{:.3}", warm.mean),
            format!("{:.3}", warm.min),
            format!("{:.3}", warm.median),
            format!("{:.3}", warm.stddev),
            format!("{:.2}", baseline / warm.mean),
            format!("{groups_avg:.1}"),
        ]);
    }

    // --- tiny updates: the workload the persistent pool exists for.
    // A small document keeps per-update propagation in the tens of
    // microseconds, so the fan-out's fixed cost is visible rather
    // than noise on top of heavy per-view work.
    let tiny_doc_bytes = 32 * 1024;
    let tiny_doc = generate_sized(tiny_doc_bytes);
    let rounds = 200;
    let tiny = tiny_stream(rounds);
    figure_header(
        "Tiny updates (1-statement commits)",
        &format!(
            "per-update propagation cost, {} single-statement updates, {}KB document",
            tiny.len(),
            tiny_doc_bytes / 1024
        ),
    );
    row(&[
        "workers".to_owned(),
        "warm_us_per_update".to_owned(),
        "warm_min_us".to_owned(),
        "warm_median_us".to_owned(),
        "warm_stddev_us".to_owned(),
    ]);
    for workers in WORKER_SWEEP {
        let per_update = 1000.0 / tiny.len() as f64;
        let warm_runs: Vec<f64> =
            (0..reps).map(|_| run_stream(&tiny_doc, &tiny, workers).0 * per_update).collect();
        let warm = rep_stats(&warm_runs);
        row(&[
            workers.to_string(),
            format!("{:.1}", warm.mean),
            format!("{:.1}", warm.min),
            format!("{:.1}", warm.median),
            format!("{:.1}", warm.stddev),
        ]);
    }
}
