//! One run of one workload: generate the inputs from the seed, measure
//! set-up, run the stages, assemble the result line.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stages::{run_stage, setup_once, Cx, Plan, Seed, StageKind};
use crate::stats::{median, quiet_time, us};
use std::path::PathBuf;
use std::time::Instant;
use xivm::pattern::compile::view_tuples;
use xivm::xml::{parse_document, serialize_document};
use xivm_xmark::{generate, XmarkConfig};

/// The `--seconds` every operation count below is calibrated for, on
/// the 2-core reference host; other values scale the counts linearly.
pub const REFERENCE_SECONDS: f64 = 15.0;
/// `--quick` runs this fraction of the operations (all oracles on).
const QUICK_FRACTION: f64 = 1.0 / 50.0;
/// The traced run's stages run this fraction of the untraced run's
/// operations, and an untraced segment of the main stage of half that
/// first (the two medians give `trace.overhead_pct`).
const TRACED_FRACTION: f64 = 0.25;
/// The untraced run goes through its stages this many times, a share
/// of the operations each time, and reads every metric from all rounds
/// together. The host's speed drifts by up to 1.7x over seconds to
/// minutes (its memory system is shared); run once, a probe stage of
/// two seconds landed wholly inside a slow stretch in some runs and a
/// quiet one in others, and its metrics spread by 25-60 % over ten
/// seeds while the main stage's, ten seconds long, spread by 10 %.
const ROUNDS: usize = 3;
/// The XMark generator's seed. Fixed: `--seed` drives the statement
/// streams (ids, order, targets, values) and the order of the bulk
/// catalog, not the document. Ten documents from ten seeds differ in
/// how many bidders, homepages and descriptions they hold, which
/// moved every metric by 4-12 % from seed to seed - more than the
/// bounds - while ten streams over one document agree to the noise of
/// the host.
const DOCUMENT_SEED: u64 = 2011;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `XmarkConfig::target_bytes` of the seed document.
    pub doc_bytes: usize,
    pub main: StageKind,
    /// Operations at [`REFERENCE_SECONDS`]: the main stage's, and the
    /// probe-sized bulk (in passes over its five-update catalog),
    /// async and replica stages'.
    pub main_ops: usize,
    pub bulk_probe_passes: usize,
    pub fanout_probe_ops: usize,
    pub replica_probe_ops: usize,
    /// Set-up repetitions, rounded up to whole batches.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "point_small",
        why: "1-5 tuple deltas on a 100 KB document: per-commit fixed cost (parse, facade, \
              prepare/finish on untouched views) dominates; the bypass workload for anything that \
              removes O(document) terms",
        doc_bytes: 100 * 1024,
        main: StageKind::Point,
        main_ops: 30_000,
        bulk_probe_passes: 9,
        fanout_probe_ops: 2_000,
        replica_probe_ops: 12_000,
        setup_reps: 41,
    },
    Workload {
        name: "point_large",
        why:
            "the same deltas on a 2 MB document: target lookup, compute_pul, COW copies and delta \
              extraction become the cost; with point_small it is the paper's headline claim as two \
              rows",
        doc_bytes: 2 * 1024 * 1024,
        main: StageKind::Point,
        main_ops: 5_000,
        bulk_probe_passes: 3,
        fanout_probe_ops: 400,
        replica_probe_ops: 1_200,
        setup_reps: 9,
    },
    Workload {
        name: "bulk_catalog",
        why: "the 21 Appendix A updates on 1 MB, insert under every target then delete every \
              target: deltas of hundreds of tuples, so structural joins, PINT/PDDT and lattice \
              upkeep do the work",
        doc_bytes: 1024 * 1024,
        main: StageKind::Bulk,
        main_ops: 21 * 3,
        bulk_probe_passes: 0,
        fanout_probe_ops: 600,
        replica_probe_ops: 3_000,
        setup_reps: 11,
    },
    Workload {
        name: "async_fanout",
        why: "apply_async under static analysis, 2 workers, depth-4 windows, 8 bounded Block \
              subscriptions, 1-in-8 four-statement commits: service thread, pipeline, fan-out and \
              PUL optimizer on the path",
        doc_bytes: 256 * 1024,
        main: StageKind::Fanout,
        main_ops: 20_000,
        bulk_probe_passes: 6,
        fanout_probe_ops: 0,
        replica_probe_ops: 8_000,
        setup_reps: 21,
    },
    Workload {
        name: "replica_mixed",
        why: "tiny maintenance on 64 KB so delta harvest, encode, socket, replica replay, circuit \
              sync, snapshot reads and deferred refresh carry the time: writes beside reads",
        doc_bytes: 64 * 1024,
        main: StageKind::Replica,
        main_ops: 30_000,
        bulk_probe_passes: 9,
        fanout_probe_ops: 2_000,
        replica_probe_ops: 0,
        setup_reps: 41,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub sabotage: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The metrics of this run's kind (end-to-end or per-layer), or
    /// why they are incomplete.
    pub metrics: Result<Json, String>,
    pub stage_ops: Vec<(String, usize, f64)>,
    /// Traced runs: the main stage's layers by total self time (µs),
    /// largest first.
    pub self_time_us: Vec<(&'static str, f64)>,
    pub wall_s: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.is_ok()
    }

    /// The one-line result the benchmark contract asks for.
    pub fn line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.clone().unwrap_or_else(|_| Json::Obj(Vec::new()))),
        ])
        .render()
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(args: &RunArgs) -> RunResult {
    let started = Instant::now();
    let w = args.workload;
    let mut cx = Cx { sabotage: args.sabotage, ..Cx::default() };
    let scale = args.seconds / REFERENCE_SECONDS
        * if args.quick { QUICK_FRACTION } else { 1.0 }
        * if args.traced { TRACED_FRACTION } else { 1.0 };
    let scaled = |ops: usize, kind: StageKind| {
        ((ops as f64 * scale).round() as usize).max(kind.least_ops(kind == w.main))
    };

    // Inputs: a fixed document, statement streams from the seed.
    let config = XmarkConfig { target_bytes: w.doc_bytes, seed: DOCUMENT_SEED };
    let mut generate_us = Vec::new();
    let mut generated = None;
    // Only the traced run reports the generator's time.
    for _ in 0..if args.traced { 3 } else { 1 } {
        let t = Instant::now();
        generated = Some(generate(&config));
        generate_us.push(us(t.elapsed()));
    }
    let text = serialize_document(&generated.expect("generated above"));
    let t = Instant::now();
    let doc = parse_document(&text).expect("the generator's own serialization parses");
    let mut parse_us = vec![us(t.elapsed())];
    let auctions = doc.canonical_nodes_named("open_auction").len();
    let seed = Seed { seed: args.seed, text, doc, auctions };

    // A stage may run 1.5x its calibrated time before it stops opening
    // work; the counts, not the clock, end a run on the reference host.
    let cap_s = args.seconds * 1.5;

    // Set-up, several times over, in batches spread across the run
    // (before every round of stages and after the last): repetitions
    // taken back to back would all sample one stretch of the host.
    let (mut setup_s, mut build_us) = (Vec::new(), Vec::new());
    let mut setup_batch = |cx: &mut Cx| {
        for _ in 0..w.setup_reps.div_ceil(ROUNDS + 1) {
            match setup_once(&seed, w.main) {
                Ok((whole, build)) => {
                    setup_s.push(whole.as_secs_f64());
                    build_us.push(us(build));
                }
                Err(e) => cx.fail(format!("set-up failed: {e}")),
            }
        }
    };
    setup_batch(&mut cx);

    let probes = [
        (StageKind::Bulk, w.bulk_probe_passes * StageKind::Bulk.least_ops(false)),
        (StageKind::Fanout, w.fanout_probe_ops),
        (StageKind::Replica, w.replica_probe_ops),
    ]
    .map(|(kind, ops)| (kind, scaled(ops, kind)));
    let main_ops = scaled(w.main_ops, w.main);
    let mut self_time_us = Vec::new();

    if args.traced {
        for _ in 0..4 {
            let t = Instant::now();
            std::hint::black_box(parse_document(&seed.text).expect("parsed above"));
            parse_us.push(us(t.elapsed()));
        }
        let (mut clone_us, mut materialize_us) = (Vec::new(), Vec::new());
        for _ in 0..101 {
            let t = Instant::now();
            std::hint::black_box(seed.doc.clone());
            clone_us.push(us(t.elapsed()));
        }
        for _ in 0..3 {
            let t = Instant::now();
            for p in crate::rig::catalog_patterns() {
                std::hint::black_box(view_tuples(&seed.doc, &p));
            }
            materialize_us.push(us(t.elapsed()));
        }
        cx.metrics.set("xmark.generate_us", median(&generate_us));
        cx.metrics.set("xml.parse_document_us", median(&parse_us));
        cx.metrics.set("xml.doc_clone_us", median(&clone_us));
        cx.metrics.set("pattern.materialize_us", median(&materialize_us));

        for (kind, ops) in probes {
            if kind != w.main {
                let probe = Plan { ops, round: 0, traced: true, main: false, cap_s: cap_s / 4.0 };
                run_stage(&mut cx, &seed, kind, &probe);
            }
        }
        setup_batch(&mut cx);
        // The main stage after the probes: both of its segments run on
        // the heap a `bulk` stage leaves (see the rounds below), and
        // its commit-path metrics are the workload's, whatever a probe
        // stage set before.
        let half = (main_ops / 2).max(w.main.least_ops(true));
        let plain = Plan { ops: half, round: 0, traced: false, main: true, cap_s };
        let untraced_p50 = run_stage(&mut cx, &seed, w.main, &plain);
        let main = Plan { ops: main_ops, round: 0, traced: true, main: true, cap_s };
        let traced_p50 = run_stage(&mut cx, &seed, w.main, &main);
        setup_batch(&mut cx);
        let overhead =
            if untraced_p50 > 0.0 { (traced_p50 / untraced_p50 - 1.0) * 100.0 } else { 0.0 };
        cx.metrics.set("trace.overhead_pct", overhead);
        self_time_us = cx.traces.last().map(|t| t.self_time_us()).unwrap_or_default();
        write_trace(&mut cx, w.name);
    } else {
        // A round's share of a stage, never less than the stage's
        // least.
        let share =
            |ops: usize, kind: StageKind| ops.div_ceil(ROUNDS).max(kind.least_ops(kind == w.main));
        let cap_s = cap_s / ROUNDS as f64;
        // The stages of a round: the probes (the async stage owns no
        // end-to-end metric of its own), then the main stage - but
        // `bulk` first, main or not. It churns the heap (a database
        // built and dropped per episode), and what runs on the heap it
        // leaves is slower than on a fresh one: on `point_large` the
        // commits before the first `bulk` stage were 15 % quicker than
        // all later ones, so the quiet slices all came from the first
        // seconds of a run.
        let mut stages: Vec<(StageKind, usize, bool)> = probes
            .iter()
            .filter(|(kind, _)| *kind != w.main && *kind != StageKind::Fanout)
            .map(|(kind, ops)| (*kind, share(*ops, *kind), false))
            .collect();
        stages.push((w.main, share(main_ops, w.main), true));
        stages.sort_by_key(|(kind, ..)| *kind != StageKind::Bulk);
        for round in 0..ROUNDS as u64 {
            for &(kind, ops, main) in &stages {
                let cap_s = if main { cap_s } else { cap_s / 4.0 };
                let plan = Plan { ops, round, traced: false, main, cap_s };
                run_stage(&mut cx, &seed, kind, &plan);
            }
            setup_batch(&mut cx);
        }
        cx.emit_end_to_end(w.main);
        cx.metrics.set("peak_rss_mb", peak_rss_mb());
    }

    cx.metrics.set("setup_s", quiet_time(&setup_s));
    cx.metrics.set("core.database.build_us", median(&build_us));
    let defs: &[_] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let metrics = cx.metrics.to_json(defs);
    if let Err(e) = &metrics {
        cx.fail(e.clone());
    }
    RunResult {
        attempted: cx.attempted,
        failed: cx.failed,
        failures: cx.failures,
        metrics,
        stage_ops: cx.stage_ops,
        self_time_us,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Writes the run's spans to `benchmark/out/trace-<workload>.json`.
fn write_trace(cx: &mut Cx, workload: &str) {
    let dir = out_dir();
    let body = Json::Arr(cx.traces.iter().map(|t| t.to_json()).collect()).render();
    let path = dir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        cx.fail(format!("cannot write {}: {e}", path.display()));
    }
}
