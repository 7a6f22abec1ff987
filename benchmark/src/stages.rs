//! The four stages a run is made of.
//!
//! Each stage drives one part of the product the way a user would —
//! synchronous point commits, bulk Appendix A commits against a
//! recompute baseline, asynchronous commits fanned out to
//! subscribers, and the commit → feed → replica → circuit chain beside
//! snapshot reads. A workload runs one stage at full size (its *main*
//! stage: the commit metrics come from it) and the stages that own
//! the remaining metrics at probe size on the same document, so every
//! metric is measured on every workload.
//!
//! A traced stage additionally replays every commit on the decomposed
//! [`Rig`] and compares stores at every oracle point.

use crate::metrics::Metrics;
use crate::rig::{is_probe_commit, Rig, RigCommit, RigOptions};
use crate::stats::{mean, median, quantile, quiet_time, sliced, sliced_rate, us, LoopClock};
use crate::stream::PointStream;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xivm::circuit::{CircuitExt, Node};
use xivm::core::database::DocumentSource;
use xivm::core::snapshot::{encode_event, encode_store};
use xivm::prelude::*;
use xivm::xml::Document;
use xivm_ivma::recompute::recompute_store;
use xivm_xmark::{update_by_name, view_pattern, xmark_dtd, BenchUpdate, VIEW_NAMES};

/// Samples a slice needs at least for its median, and for its p95 (so
/// that a slice's p95 has five samples beyond it).
const P50_SLICE: usize = 20;
const P95_SLICE: usize = 100;
/// Traced runs check every oracle this often (in commits), not only
/// at the end of the stage.
const ORACLE_EVERY: usize = 256;
/// Tickets outstanding at most on the async stage (wait on the oldest).
const MAX_OUTSTANDING: usize = 64;
/// One async submission in this many carries [`TX_STATEMENTS`]
/// statements and commits through `pulopt::aggregate` / `reduce`.
const TX_EVERY: usize = 8;
const TX_STATEMENTS: usize = 4;
const SUBSCRIPTIONS: usize = 8;
const SUBSCRIPTION_CAPACITY: usize = 256;
const REPLICAS: usize = 2;
const RETAINED_WINDOW: usize = 1024;
const READ_EVERY: usize = 8;
const REFRESH_EVERY: usize = 64;
const _: () = assert!(ORACLE_EVERY % REFRESH_EVERY == 0, "oracle points follow a refresh");
const SERVED_VIEW: &str = "Q2";
const DEFERRED_VIEW: &str = "Q17";
/// Bytes `xivm_feed::wire::write_frame` puts before every payload.
const FRAME_HEADER_BYTES: usize = 5;
/// The read every `READ_EVERY`-th iteration evaluates on its snapshot.
const READ_XPATH: &str = "/site/open_auctions/open_auction[@id=\"open_auction0\"]/bidder";
/// Probe-sized bulk stages run one Appendix A update per target
/// family instead of all 21.
const BULK_PROBE_UPDATES: [&str; 5] = ["X1_L", "X2_L", "E6_L", "A6_A", "X4_O"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// `Database::apply(&str)`, analysis off, one worker, no
    /// subscribers.
    Point,
    /// Appendix A insert-everywhere / delete-everything commits on a
    /// fresh database per update, each followed by a recompute of all
    /// views (baseline and oracle).
    Bulk,
    /// `apply_async` under analysis, two workers, pipeline depth 4,
    /// eight bounded `Block` subscriptions drained by one thread.
    Fanout,
    /// `apply` → `FeedServer::pump` → two TCP replicas → circuit, Q17
    /// deferred, with snapshot reads and refreshes interleaved.
    Replica,
}

impl StageKind {
    /// The fewest operations a stage is run with, however short the
    /// run: one pass over the bulk catalog, or enough commits for two
    /// refreshes, a full ticket window and a few transactions.
    pub fn least_ops(self, main: bool) -> usize {
        match self {
            StageKind::Bulk => bulk_catalog(main).len(),
            _ => 160,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StageKind::Point => "point",
            StageKind::Bulk => "bulk",
            StageKind::Fanout => "fanout",
            StageKind::Replica => "replica",
        }
    }
}

/// The generated inputs of a run.
pub struct Seed {
    pub seed: u64,
    /// The serialized seed document: what set-up parses.
    pub text: String,
    /// `parse_document(text)`; stages start from copy-on-write clones.
    pub doc: Document,
    /// Open auctions in the document (`open_auction0..`).
    pub auctions: usize,
}

pub struct Plan {
    /// Commits (point), episodes (bulk), submissions (fanout) or
    /// iterations (replica).
    pub ops: usize,
    /// Which of the run's rounds this is: every round gets a stream
    /// and a bulk order of its own.
    pub round: u64,
    pub traced: bool,
    /// The workload's main stage: it reports the commit metrics.
    pub main: bool,
    /// Stop opening work after this many seconds on the loop clock (a
    /// slow host ends early instead of overrunning the run's cap).
    pub cap_s: f64,
}

impl Plan {
    /// `--seed` and the round, as one seed.
    fn seed_of(&self, seed: &Seed) -> u64 {
        seed.seed.wrapping_add(self.round << 32)
    }
}

/// Everything a run accumulates across its stages.
#[derive(Default)]
pub struct Cx {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub traces: Vec<Trace>,
    pub pool: Pool,
    /// Operations each stage ran and the wall time it took, for the
    /// results file.
    pub stage_ops: Vec<(String, usize, f64)>,
    /// Test-only: break the first point stream (see
    /// `PointStream::skip_delete_of`); the run must then fail.
    pub sabotage: bool,
}

impl Cx {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn stream(&mut self, seed: &Seed, plan: &Plan, statements: usize) -> PointStream {
        let s = PointStream::new(plan.seed_of(seed), seed.auctions, statements);
        if std::mem::take(&mut self.sabotage) {
            s.skip_delete_of(2)
        } else {
            s
        }
    }
}

/// Runs one stage; returns its median commit latency in µs (the traced
/// run compares its untraced and traced segments through this).
pub fn run_stage(cx: &mut Cx, seed: &Seed, kind: StageKind, plan: &Plan) -> f64 {
    let before = cx.attempted;
    let started = Instant::now();
    let out = match kind {
        StageKind::Point => point(cx, seed, plan),
        StageKind::Bulk => bulk(cx, seed, plan),
        StageKind::Fanout => fanout(cx, seed, plan),
        StageKind::Replica => replica(cx, seed, plan),
    };
    let role = match (plan.main, plan.traced) {
        (true, true) => "main, traced",
        (true, false) => "main",
        (false, true) => "probe, traced",
        (false, false) => "probe",
    };
    // One entry per stage and role: the rounds of a run add up.
    let label = format!("{} ({role})", kind.name());
    let (ops, secs) = ((cx.attempted - before) as usize, started.elapsed().as_secs_f64());
    match cx.stage_ops.iter_mut().find(|(l, ..)| *l == label) {
        Some(entry) => {
            entry.1 += ops;
            entry.2 += secs;
        }
        None => cx.stage_ops.push((label, ops, secs)),
    }
    out
}

// ---------------------------------------------------------------------
// Building the product and the rig
// ---------------------------------------------------------------------

pub fn build_db(doc: impl Into<DocumentSource>, kind: StageKind) -> Result<Database, Error> {
    // Every knob the environment could set is pinned, so
    // XIVM_WORKERS / XIVM_PIPELINE / XIVM_SUB_CAPACITY cannot change
    // what a workload measures.
    let mut b = Database::builder().document(doc).subscription_capacity(0);
    b = match kind {
        StageKind::Fanout => b.dtd(xmark_dtd()).analyze(AnalyzeMode::Warn).workers(2).pipeline(4),
        _ => b.workers(1).pipeline(1),
    };
    for v in VIEW_NAMES {
        b = if kind == StageKind::Replica && v == DEFERRED_VIEW {
            b.view_deferred(v, view_pattern(v))
        } else {
            b.view(v, view_pattern(v))
        };
    }
    b.build()
}

fn build_rig(seed: &Seed, kind: StageKind) -> Rig {
    let options = match kind {
        StageKind::Fanout => {
            let patterns = crate::rig::catalog_patterns();
            RigOptions {
                analyzer: Some(Analyzer::new(
                    Some(&xmark_dtd()),
                    VIEW_NAMES.iter().copied().zip(patterns.iter()),
                )),
                multiview_workers: Some(2),
                ..RigOptions::default()
            }
        }
        StageKind::Replica => RigOptions { deferred: Some(DEFERRED_VIEW), ..RigOptions::default() },
        _ => RigOptions::default(),
    };
    Rig::new(seed.doc.clone(), options)
}

/// The replica stage's apparatus around its database.
struct ReplicaSet {
    server: FeedServer,
    replicas: Vec<ReplicaClient>,
    circuit: Circuit,
    /// Circuit nodes whose contents the oracle compares.
    outputs: Vec<Node>,
    /// Per-replica connect + bootstrap time.
    bootstrap_us: Vec<f64>,
}

/// Project → count → join → sum over the catalog (the shape of
/// `examples/derived_views.rs`, whose own base views are not in the
/// catalog): bids per open auction from Q2, joined with the 4.50 bids
/// of Q3, summed per auction.
fn build_circuit(db: &mut Database) -> Result<(Circuit, Vec<Node>), Error> {
    fn auction_of(r: &Row) -> Row {
        // [increase id, ..] → [open_auction id]: two levels up.
        let id = r.datum(0).as_id().and_then(|i| i.parent()).and_then(|b| b.parent());
        Row::new(vec![id.map_or(Datum::Null, Datum::Id)])
    }
    let mut b = db.circuit();
    let q2 = b.source("Q2")?;
    let q3 = b.source("Q3")?;
    let bids = b.project(q2, vec![0]);
    let per_auction = b.count(bids, auction_of);
    let hot = b.map(q3, auction_of);
    let joined = b.join(per_auction, hot, |r| r.project(&[0]), |r| r.project(&[0]));
    let hot_bids = b.sum(joined, |r| r.project(&[0]), |r| r.datum(1).as_int().unwrap_or(0));
    Ok((b.build(), vec![per_auction, hot_bids]))
}

fn attach_replicas(db: &mut Database) -> Result<ReplicaSet, String> {
    let served = db.view(SERVED_VIEW).map_err(|e| e.to_string())?;
    let server =
        FeedServer::bind("127.0.0.1:0", db, served, RETAINED_WINDOW).map_err(|e| e.to_string())?;
    let mut replicas = Vec::with_capacity(REPLICAS);
    let mut bootstrap_us = Vec::with_capacity(REPLICAS);
    for _ in 0..REPLICAS {
        let t = Instant::now();
        let mut r =
            ReplicaClient::connect(server.local_addr(), SERVED_VIEW).map_err(|e| e.to_string())?;
        r.sync_to(db.last_seq()).map_err(|e| e.to_string())?;
        bootstrap_us.push(us(t.elapsed()));
        replicas.push(r);
    }
    let (circuit, outputs) = build_circuit(db).map_err(|e| e.to_string())?;
    Ok(ReplicaSet { server, replicas, circuit, outputs, bootstrap_us })
}

impl ReplicaSet {
    fn detach(self, db: &mut Database) {
        drop(self.replicas);
        self.server.close(db);
        self.circuit.detach(db);
    }
}

fn subscribe_all(db: &mut Database) -> Vec<Subscription> {
    (0..SUBSCRIPTIONS)
        .map(|i| {
            let view = db.view(VIEW_NAMES[i % VIEW_NAMES.len()]).expect("catalog view");
            db.subscribe_with(view, Some(SUBSCRIPTION_CAPACITY), SlowConsumerPolicy::Block)
        })
        .collect()
}

/// What set-up costs a user of `kind`: parse the serialized seed,
/// build the database (materialize the catalog, run the analysis) and
/// attach whatever the stage runs with. Returns the whole and the
/// `build()` part.
pub fn setup_once(seed: &Seed, kind: StageKind) -> Result<(Duration, Duration), String> {
    let t = Instant::now();
    let doc = parse_document(&seed.text).map_err(|e| e.to_string())?;
    let tb = Instant::now();
    let mut db = build_db(doc, kind).map_err(|e| e.to_string())?;
    let build = tb.elapsed();
    let whole = match kind {
        StageKind::Fanout => {
            let subs = subscribe_all(&mut db);
            let whole = t.elapsed();
            drop(subs);
            whole
        }
        StageKind::Replica => {
            let set = attach_replicas(&mut db)?;
            let whole = t.elapsed();
            set.detach(&mut db);
            whole
        }
        StageKind::Point | StageKind::Bulk => t.elapsed(),
    };
    Ok((whole, build))
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Every view store equals its recomputation and the document's
/// structural invariants hold.
fn check_views(cx: &mut Cx, db: &Database, at: &str) {
    for h in db.handles() {
        let fresh = recompute_store(db.document(), db.pattern(h));
        cx.check(db.store(h).identical_to(&fresh), || {
            format!("{at}: view {} differs from its recomputation", db.name(h))
        });
    }
    if let Err(e) = db.document().check_invariants() {
        cx.fail(format!("{at}: document invariants: {e}"));
    }
}

/// The rig's stores equal the façade's: the decomposition is faithful.
fn check_rig(cx: &mut Cx, db: &Database, rig: &Rig, at: &str) {
    for (i, h) in db.handles().into_iter().enumerate() {
        cx.check(rig.engine(i).store().identical_to(db.store(h)), || {
            format!("{at}: rig store {} differs from the façade's", db.name(h))
        });
    }
    if let Some(mv) = rig.multiview() {
        for (i, h) in db.handles().into_iter().enumerate() {
            let store = mv.get(i).expect("catalog view").1.store();
            cx.check(store.identical_to(db.store(h)), || {
                format!("{at}: multi-view rig store {} differs", db.name(h))
            });
        }
    }
}

/// A closed stream leaves the seed serialization behind.
fn check_restored(cx: &mut Cx, db: &Database, seed: &Seed, at: &str) {
    cx.check(db.serialize() == seed.text, || {
        format!("{at}: the closed stream did not restore the seed document")
    });
}

// ---------------------------------------------------------------------
// Per-commit accounting shared by the stages
// ---------------------------------------------------------------------

/// Commit latencies of a timed loop with the loop clock at each
/// completion.
#[derive(Default)]
struct Samples {
    lat_us: Vec<f64>,
    clock_s: Vec<f64>,
}

impl Samples {
    fn push(&mut self, lat: Duration, clock: &LoopClock) {
        self.lat_us.push(us(lat));
        self.clock_s.push(clock.secs());
    }

    /// Appends a later round's samples; its loop clock goes on where
    /// this one's stopped.
    fn extend(&mut self, later: &Samples) {
        let base = self.clock_s.last().copied().unwrap_or(0.0);
        self.lat_us.extend_from_slice(&later.lat_us);
        self.clock_s.extend(later.clock_s.iter().map(|c| base + c));
    }

    fn p50(&self) -> f64 {
        sliced(&self.lat_us, P50_SLICE, median)
    }
}

/// Repeated timings (µs) of one incremental step and of the
/// recomputation it is compared with.
type IncrementalVsFresh = (Vec<f64>, Vec<f64>);

/// What the stages of an untraced run measured, all rounds together:
/// the end-to-end metrics are read from the whole of it, so each sees
/// the whole length of the run and not only its stage's stretch of it.
#[derive(Default)]
pub struct Pool {
    /// The main stage's commits (`point`, `fanout`, `replica`).
    commits: Samples,
    lag_us: Vec<f64>,
    read_us: Vec<f64>,
    /// `bulk`: (update, is_delete) → commit latency and
    /// recompute-all-views time, one sample per pass over the catalog.
    bulk: BTreeMap<(usize, bool), IncrementalVsFresh>,
}

/// One quiet latency and one quiet recompute time per bulk commit:
/// the passes repeat the same commits, so each is read through the
/// quiet side of its repeats. `(is_delete, commit µs, recompute µs)`.
fn quiet_bulk(commits: &BTreeMap<(usize, bool), IncrementalVsFresh>) -> Vec<(bool, f64, f64)> {
    commits
        .iter()
        .map(|((_, is_delete), (lat, fresh))| (*is_delete, quiet_time(lat), quiet_time(fresh)))
        .collect()
}

impl Cx {
    /// The end-to-end metrics of an untraced run whose main stage was
    /// `main`, from everything its rounds pooled.
    pub fn emit_end_to_end(&mut self, main: StageKind) {
        let (m, pool) = (&mut self.metrics, &self.pool);
        m.set("replica_lag_p50_us", sliced(&pool.lag_us, P50_SLICE, median));
        m.set("replica_lag_p95_us", sliced(&pool.lag_us, P95_SLICE, |s| quantile(s, 0.95)));
        m.set("read_p50_us", sliced(&pool.read_us, P50_SLICE, median));
        // Σ recompute-all-views ÷ Σ commit, over the insert commits
        // and over the delete commits (Figures 26 and 27 at catalog
        // level).
        let quiet = quiet_bulk(&pool.bulk);
        let speedup = |deletes: bool| {
            let of = |f: fn(&(bool, f64, f64)) -> f64| -> f64 {
                quiet.iter().filter(|q| q.0 == deletes).map(f).sum()
            };
            of(|q| q.2) / of(|q| q.1)
        };
        m.set("speedup_vs_recompute_insert", speedup(false));
        m.set("speedup_vs_recompute_delete", speedup(true));
        if main == StageKind::Bulk {
            let lat_us: Vec<f64> = quiet.iter().map(|q| q.1).collect();
            m.set("commits_per_s", lat_us.len() as f64 / (lat_us.iter().sum::<f64>() / 1e6));
            m.set("commit_p50_us", median(&lat_us));
            m.set("commit_p95_us", quantile(&lat_us, 0.95));
        } else {
            let c = &pool.commits;
            m.set("commits_per_s", sliced_rate(&c.clock_s, P50_SLICE));
            m.set("commit_p50_us", c.p50());
            m.set("commit_p95_us", sliced(&c.lat_us, P95_SLICE, |s| quantile(s, 0.95)));
        }
    }
}

/// Per-commit values read at the layer boundaries: from the façade's
/// `Commit` (the program's own counters and timings) and from the rig.
#[derive(Default)]
struct LayerAcc {
    delta_tables_us: Vec<f64>,
    expression_us: Vec<f64>,
    execute_us: Vec<f64>,
    lattice_us: Vec<f64>,
    terms_before: Vec<f64>,
    terms_evaluated: Vec<f64>,
    delta_entries: Vec<f64>,
    static_skips: usize,
    view_slots: usize,
    tx_ops_before: Vec<f64>,
    tx_ops_after: Vec<f64>,
    pul_ops: Vec<f64>,
    targets: Vec<f64>,
    cow_chunks: Vec<f64>,
    shards: Vec<f64>,
    propagations: usize,
    empty_propagations: usize,
}

impl LayerAcc {
    fn on_commit(&mut self, commit: &Commit) {
        let (mut dt, mut ex, mut xu, mut la) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut before, mut evaluated, mut entries) = (0usize, 0usize, 0usize);
        for (_, r) in commit.iter() {
            dt += r.timings.compute_delta_tables;
            ex += r.timings.get_update_expression;
            xu += r.timings.execute_update;
            la += r.timings.update_lattice;
            before += r.insert_prune.before + r.delete_prune.before;
            evaluated += r.insert_prune.after_id_reasoning + r.delete_prune.after_id_reasoning;
            entries += r.delta.len();
        }
        self.delta_tables_us.push(us(dt));
        self.expression_us.push(us(ex));
        self.execute_us.push(us(xu));
        self.lattice_us.push(us(la));
        self.terms_before.push(before as f64);
        self.terms_evaluated.push(evaluated as f64);
        self.delta_entries.push(entries as f64);
        self.static_skips += commit.static_skips();
        self.view_slots += commit.len();
        if commit.statements > 1 {
            self.tx_ops_before.push(commit.naive_ops as f64);
            self.tx_ops_after.push(commit.optimized_ops as f64);
        }
    }

    fn on_rig(&mut self, rc: &RigCommit) {
        self.pul_ops.push(rc.pul_ops as f64);
        if let Some(t) = rc.targets {
            self.targets.push(t as f64);
        }
        if let Some(c) = rc.cow_chunks {
            self.cow_chunks.push(c as f64);
        }
        if let Some(s) = rc.shards {
            self.shards.push(s as f64);
        }
        self.propagations += rc.propagations;
        self.empty_propagations += rc.empty_propagations;
    }

    /// The commit-path layer metrics of the main stage. `apply_us[k]`
    /// is the façade's wall time of commit `k`, whose rig spans carry
    /// commit id `k`.
    fn emit_commit_path(&self, m: &mut Metrics, tr: &Trace, apply_us: &[f64]) {
        // Medians over the commits the rig ran no probe on; the probes'
        // own spans exist on the other commits only.
        let med = |name: &str| {
            let clean: Vec<f64> = tr
                .per_commit_us(name)
                .into_iter()
                .filter(|(id, _)| !is_probe_commit(*id as usize))
                .map(|(_, v)| v)
                .collect();
            median(&clean)
        };
        m.set("update.parse_statement_us", med("update.parse_statement"));
        m.set("pattern.find_targets_us", median_of(tr, "pattern.find_targets"));
        m.set("update.compute_pul_us", med("update.compute_pul"));
        m.set("update.apply_pul_us", med("update.apply_pul"));
        m.set("core.engine.prepare_us", med("core.engine.prepare"));
        m.set("core.engine.finish_us", med("core.engine.finish"));
        m.set("update.pul_ops", mean(&self.pul_ops));
        m.set("update.targets", mean(&self.targets));
        m.set("xml.cow_chunks_copied", mean(&self.cow_chunks));
        m.set("core.engine.delta_tables_us", median(&self.delta_tables_us));
        m.set("core.engine.expression_us", median(&self.expression_us));
        m.set("core.engine.execute_us", median(&self.execute_us));
        m.set("core.engine.lattice_us", median(&self.lattice_us));
        m.set("core.engine.terms_before", mean(&self.terms_before));
        m.set("core.engine.terms_evaluated", mean(&self.terms_evaluated));
        m.set("core.engine.delta_entries", mean(&self.delta_entries));
        m.set(
            "core.engine.empty_propagation_share",
            self.empty_propagations as f64 / self.propagations.max(1) as f64,
        );
        m.set("core.database.apply_us", median(apply_us));
        m.set("core.database.commit_p99_us", quantile(apply_us, 0.99));
        let covered = tr.covered_us();
        let (mut rig_total, mut facade_total) = (0.0, 0.0);
        let mut overhead = Vec::with_capacity(apply_us.len());
        for (k, facade) in apply_us.iter().enumerate() {
            if is_probe_commit(k) {
                continue;
            }
            if let Some(rig) = covered.get(&(k as u32)) {
                rig_total += rig;
                facade_total += facade;
                overhead.push(facade - rig);
            }
        }
        m.set("core.database.facade_overhead_us", median(&overhead));
        m.set("trace.coverage", if facade_total > 0.0 { rig_total / facade_total } else { 0.0 });
    }
}

/// Median over the commits that have a span called `name`.
fn median_of(tr: &Trace, name: &str) -> f64 {
    median(&tr.per_commit_us(name).into_values().collect::<Vec<_>>())
}

/// The traced half of a stage: the rig, its trace and the oracle
/// schedule.
struct Lockstep {
    rig: Rig,
    tr: Trace,
    acc: LayerAcc,
    apply_us: Vec<f64>,
}

impl Lockstep {
    fn new(seed: &Seed, kind: StageKind) -> Self {
        let rig = build_rig(seed, kind);
        Lockstep {
            rig,
            tr: Trace::new(kind.name()),
            acc: LayerAcc::default(),
            apply_us: Vec::new(),
        }
    }

    /// Replays commit `texts` (façade wall `apply`) on the rig.
    fn replay(
        &mut self,
        cx: &mut Cx,
        texts: &[&str],
        commit: Option<&Commit>,
        apply: Duration,
    ) -> Option<RigCommit> {
        let id = self.apply_us.len();
        self.tr.set_commit(id);
        self.apply_us.push(us(apply));
        if let Some(c) = commit {
            self.acc.on_commit(c);
        }
        match self.rig.commit(&mut self.tr, texts, is_probe_commit(id)) {
            Ok(rc) => {
                self.acc.on_rig(&rc);
                Some(rc)
            }
            Err(e) => {
                cx.fail(format!("rig commit failed: {e}"));
                None
            }
        }
    }

    fn oracle_due(&self) -> bool {
        !self.apply_us.is_empty() && self.apply_us.len() % ORACLE_EVERY == 0
    }

    fn finish(self, cx: &mut Cx, main: bool) {
        if main {
            self.acc.emit_commit_path(&mut cx.metrics, &self.tr, &self.apply_us);
        }
        cx.traces.push(self.tr);
    }
}

// ---------------------------------------------------------------------
// Stage: synchronous point commits
// ---------------------------------------------------------------------

fn point(cx: &mut Cx, seed: &Seed, plan: &Plan) -> f64 {
    let mut db = match build_db(seed.doc.clone(), StageKind::Point) {
        Ok(db) => db,
        Err(e) => {
            cx.fail(format!("point: build failed: {e}"));
            return 0.0;
        }
    };
    let mut lock = plan.traced.then(|| Lockstep::new(seed, StageKind::Point));
    let mut stream = cx.stream(seed, plan, plan.ops);
    let mut samples = Samples::default();
    let mut clock = LoopClock::started();
    while let Some(s) = stream.next() {
        let t = Instant::now();
        let res = db.apply(s.text.as_str());
        let lat = t.elapsed();
        samples.push(lat, &clock);
        cx.attempted += 1;
        if let Err(e) = &res {
            cx.fail(format!("point: {}: {e}", s.text));
        }
        if let Some(lock) = &mut lock {
            clock.pause();
            lock.replay(cx, &[s.text.as_str()], res.as_ref().ok(), lat);
            if lock.oracle_due() {
                check_views(cx, &db, "point");
                check_rig(cx, &db, &lock.rig, "point");
            }
            clock.resume();
        }
        if clock.secs() > plan.cap_s {
            stream.close();
        }
    }
    clock.pause();
    check_views(cx, &db, "point end");
    check_restored(cx, &db, seed, "point end");
    if plan.main && !plan.traced {
        cx.pool.commits.extend(&samples);
    }
    if let Some(lock) = lock {
        check_rig(cx, &db, &lock.rig, "point end");
        lock.finish(cx, plan.main);
    }
    samples.p50()
}

// ---------------------------------------------------------------------
// Stage: bulk Appendix A commits against the recompute baseline
// ---------------------------------------------------------------------

fn bulk_catalog(main: bool) -> Vec<BenchUpdate> {
    if main {
        xivm_xmark::all_updates()
    } else {
        BULK_PROBE_UPDATES.iter().map(|n| update_by_name(n)).collect()
    }
}

fn bulk(cx: &mut Cx, seed: &Seed, plan: &Plan) -> f64 {
    let catalog = bulk_catalog(plan.main);
    let mut clock = LoopClock::started();
    clock.pause();
    // (update, is_delete) → commit latency and recompute-all-views
    // time, one sample per pass over the catalog.
    let mut commits: BTreeMap<(usize, bool), IncrementalVsFresh> = BTreeMap::new();
    // (update, is_delete, view) → incremental and recompute samples.
    let mut pairs: BTreeMap<(usize, bool, usize), IncrementalVsFresh> = BTreeMap::new();
    let mut lock = plan.traced.then(|| Lockstep::new(seed, StageKind::Bulk));

    // The seed decides the order of the updates within a round.
    let mut rng = StdRng::seed_from_u64(plan.seed_of(seed));
    let mut order: Vec<usize> = (0..catalog.len()).collect();
    for episode in 0..plan.ops {
        if clock.secs() > plan.cap_s {
            break;
        }
        if episode % catalog.len() == 0 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..i + 1));
            }
        }
        let which = order[episode % catalog.len()];
        let u = &catalog[which];
        // Each episode starts from the seed's copy-on-write image: the
        // delete variant removes every target, so nothing is left to
        // run the next update on.
        let mut db = match build_db(seed.doc.clone(), StageKind::Bulk) {
            Ok(db) => db,
            Err(e) => {
                cx.fail(format!("bulk: build failed: {e}"));
                continue;
            }
        };
        if let Some(lock) = &mut lock {
            lock.rig = build_rig(seed, StageKind::Bulk);
        }
        let statements = [
            (false, format!("insert {} into {}", u.insert_xml, u.path)),
            (true, format!("delete {}", u.path)),
        ];
        for (is_delete, text) in &statements {
            clock.resume();
            let t = Instant::now();
            let res = db.apply(text.as_str());
            let lat = t.elapsed();
            clock.pause();
            cx.attempted += 1;
            if let Err(e) = &res {
                let variant = if *is_delete { "delete" } else { "insert" };
                cx.fail(format!("bulk: {} {variant}: {e}", u.name));
            }
            // Recompute every view: the baseline and the oracle.
            let mut fresh_us = Vec::with_capacity(VIEW_NAMES.len());
            for h in db.handles() {
                let t = Instant::now();
                let fresh = recompute_store(db.document(), db.pattern(h));
                fresh_us.push(us(t.elapsed()));
                cx.check(db.store(h).identical_to(&fresh), || {
                    format!("bulk: {} left view {} unlike its recomputation", u.name, db.name(h))
                });
            }
            let slot = commits.entry((which, *is_delete)).or_default();
            slot.0.push(us(lat));
            slot.1.push(fresh_us.iter().sum());

            if let Some(lock) = &mut lock {
                if let Some(rc) = lock.replay(cx, &[text.as_str()], res.as_ref().ok(), lat) {
                    for (view, inc) in rc.per_view_us.iter().enumerate() {
                        let slot = pairs.entry((which, *is_delete, view)).or_default();
                        slot.0.push(*inc);
                        slot.1.push(fresh_us[view]);
                    }
                }
                check_rig(cx, &db, &lock.rig, "bulk");
            }
        }
        if let Err(e) = db.document().check_invariants() {
            cx.fail(format!("bulk: {}: document invariants: {e}", u.name));
        }
    }

    let quiet = quiet_bulk(&commits);
    let lat_us: Vec<f64> = quiet.iter().map(|q| q.1).collect();
    if !plan.traced {
        for (commit, (lat, fresh)) in commits {
            let slot = cx.pool.bulk.entry(commit).or_default();
            slot.0.extend(lat);
            slot.1.extend(fresh);
        }
    }
    if let Some(lock) = lock {
        let m = &mut cx.metrics;
        m.set("ivma.recompute_us", median(&quiet.iter().map(|q| q.2).collect::<Vec<_>>()));
        let below =
            pairs.values().filter(|(inc, fresh)| quiet_time(inc) > quiet_time(fresh)).count();
        m.set("core.engine.pairs_below_recompute", below as f64);
        lock.finish(cx, plan.main);
    }
    median(&lat_us)
}

// ---------------------------------------------------------------------
// Stage: asynchronous commits fanned out to subscribers
// ---------------------------------------------------------------------

#[derive(Default)]
struct Drained {
    drain_us: Vec<f64>,
    events: u64,
    lagged: u64,
    gaps: u64,
}

/// The one consumer thread: drains every subscription until told to
/// stop and the queues are empty, checking that each feed is gapless.
fn consume(subs: Vec<Subscription>, stop: Arc<AtomicBool>) -> Drained {
    let mut out = Drained::default();
    let mut next_seq = vec![1u64; subs.len()];
    loop {
        // Read the flag first: whatever was sealed before it was set
        // is drained by the pass below.
        let stopping = stop.load(Ordering::SeqCst);
        let mut got = 0;
        for (sub, next) in subs.iter().zip(&mut next_seq) {
            let t = Instant::now();
            let events = sub.drain();
            if events.is_empty() {
                continue;
            }
            out.drain_us.push(us(t.elapsed()));
            got += events.len();
            for e in &events {
                match e {
                    FeedEvent::Delta(d) => {
                        out.gaps += u64::from(d.seq != *next);
                        *next = d.seq + 1;
                        out.events += 1;
                    }
                    FeedEvent::Lagged(l) => {
                        out.lagged += 1;
                        *next = l.missed_range.end() + 1;
                    }
                }
            }
        }
        if got == 0 {
            if stopping {
                return out;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn fanout(cx: &mut Cx, seed: &Seed, plan: &Plan) -> f64 {
    let mut db = match build_db(seed.doc.clone(), StageKind::Fanout) {
        Ok(db) => db,
        Err(e) => {
            cx.fail(format!("fanout: build failed: {e}"));
            return 0.0;
        }
    };
    let subs = subscribe_all(&mut db);
    let stop = Arc::new(AtomicBool::new(false));
    let consumer = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("bench-consumer".into())
            .spawn(move || consume(subs, stop))
            .expect("spawn the consumer thread")
    };
    let mut lock = plan.traced.then(|| Lockstep::new(seed, StageKind::Fanout));
    // The stream counts statements; a submission takes one or four.
    let per_submission = (TX_EVERY - 1 + TX_STATEMENTS) as f64 / TX_EVERY as f64;
    let mut stream = cx.stream(seed, plan, (plan.ops as f64 * per_submission) as usize);

    struct InFlight {
        ticket: Ticket,
        submitted: Instant,
        texts: Vec<String>,
    }
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(MAX_OUTSTANDING + 1);
    let mut samples = Samples::default();
    let (mut submit_us, mut wait_us, mut tx_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut outstanding = Vec::new();
    let mut submissions = 0usize;
    let mut clock = LoopClock::started();

    // Waits for the oldest ticket and accounts for its commit.
    let mut settle = |cx: &mut Cx,
                      lock: &mut Option<Lockstep>,
                      samples: &mut Samples,
                      clock: &mut LoopClock,
                      f: InFlight| {
        let t = Instant::now();
        let res = f.ticket.wait();
        wait_us.push(us(t.elapsed()));
        let lat = f.submitted.elapsed();
        samples.push(lat, clock);
        if f.texts.len() > 1 {
            tx_us.push(us(lat));
        }
        match &res {
            Ok(c) => {
                cx.check(c.seq == f.ticket.seq, || "fanout: ticket sealed out of order".into())
            }
            Err(e) => cx.fail(format!("fanout: ticket {}: {e}", f.ticket.seq)),
        }
        if let Some(lock) = lock {
            clock.pause();
            let texts: Vec<&str> = f.texts.iter().map(String::as_str).collect();
            lock.replay(cx, &texts, res.as_ref().ok(), lat);
            clock.resume();
        }
    };

    while let Some(first) = stream.next() {
        let mut texts = vec![first.text];
        if submissions % TX_EVERY == TX_EVERY - 1 {
            texts.extend(stream.by_ref().take(TX_STATEMENTS - 1).map(|s| s.text));
        }
        let submitted = Instant::now();
        let res = db.apply_async(texts.iter().map(String::as_str));
        submit_us.push(us(submitted.elapsed()));
        cx.attempted += 1;
        submissions += 1;
        match res {
            Ok(ticket) => window.push_back(InFlight { ticket, submitted, texts }),
            Err(e) => cx.fail(format!("fanout: submission rejected: {e}")),
        }
        outstanding.push(window.len() as f64);
        if window.len() >= MAX_OUTSTANDING {
            let oldest = window.pop_front().expect("window is full");
            settle(cx, &mut lock, &mut samples, &mut clock, oldest);
        }
        if lock.as_ref().is_some_and(|l| l.oracle_due()) && !window.is_empty() {
            // An oracle point needs a sealed state on both sides.
            while let Some(f) = window.pop_front() {
                settle(cx, &mut lock, &mut samples, &mut clock, f);
            }
            clock.pause();
            check_views(cx, &db, "fanout");
            check_rig(cx, &db, &lock.as_ref().expect("traced").rig, "fanout");
            clock.resume();
        }
        if clock.secs() > plan.cap_s {
            stream.close();
        }
    }
    while let Some(f) = window.pop_front() {
        settle(cx, &mut lock, &mut samples, &mut clock, f);
    }
    let t = Instant::now();
    if let Err(e) = db.flush() {
        cx.fail(format!("fanout: flush: {e}"));
    }
    let flush_us = us(t.elapsed());
    clock.pause();

    check_views(cx, &db, "fanout end");
    check_restored(cx, &db, seed, "fanout end");
    let threads_spawned = db.threads_spawned();
    let commits = db.last_seq();
    stop.store(true, Ordering::SeqCst);
    let drained = consumer.join().unwrap_or_else(|_| {
        cx.fail("fanout: the consumer thread panicked");
        Drained::default()
    });
    cx.check(drained.gaps == 0, || format!("fanout: {} sequence gaps in the feeds", drained.gaps));
    cx.check(drained.lagged == 0, || {
        format!("fanout: {} Lagged markers under the Block policy", drained.lagged)
    });
    cx.check(drained.events == commits * SUBSCRIPTIONS as u64, || {
        format!("fanout: {} events for {} commits", drained.events, commits)
    });

    if plan.main && !plan.traced {
        cx.pool.commits.extend(&samples);
    }
    if let Some(lock) = lock {
        check_rig(cx, &db, &lock.rig, "fanout end");
        let m = &mut cx.metrics;
        let med = |name: &str| median_of(&lock.tr, name);
        m.set("pulopt.aggregate_us", med("pulopt.aggregate"));
        m.set("pulopt.reduce_us", med("pulopt.reduce"));
        m.set("pulopt.find_conflicts_us", med("pulopt.find_conflicts"));
        m.set("pulopt.ops_before", mean(&lock.acc.tx_ops_before));
        m.set("pulopt.ops_after", mean(&lock.acc.tx_ops_after));
        m.set("analyze.skip_mask_us", med("analyze.skip_mask"));
        m.set(
            "analyze.skip_share",
            lock.acc.static_skips as f64 / lock.acc.view_slots.max(1) as f64,
        );
        m.set("core.multiview.propagate_us", med("core.multiview.propagate"));
        m.set("core.parallel.shards", mean(&lock.acc.shards));
        m.set("core.runtime.threads_spawned", threads_spawned as f64);
        m.set("core.database.transaction_us", median(&tx_us));
        m.set("core.service.submit_us", median(&submit_us));
        m.set("core.service.ticket_wait_us", median(&wait_us));
        m.set("core.service.flush_us", flush_us);
        m.set("core.service.outstanding", mean(&outstanding));
        m.set("core.subscribe.drain_us", median(&drained.drain_us));
        m.set("core.subscribe.events", drained.events as f64 / commits.max(1) as f64);
        m.set("core.subscribe.lagged", drained.lagged as f64);
        lock.finish(cx, plan.main);
    }
    samples.p50()
}

// ---------------------------------------------------------------------
// Stage: commit → feed → replicas → circuit, beside snapshot reads
// ---------------------------------------------------------------------

fn replica(cx: &mut Cx, seed: &Seed, plan: &Plan) -> f64 {
    let mut db = match build_db(seed.doc.clone(), StageKind::Replica) {
        Ok(db) => db,
        Err(e) => {
            cx.fail(format!("replica: build failed: {e}"));
            return 0.0;
        }
    };
    let mut set = match attach_replicas(&mut db) {
        Ok(set) => set,
        Err(e) => {
            cx.fail(format!("replica: attach failed: {e}"));
            return 0.0;
        }
    };
    let served = db.view(SERVED_VIEW).expect("catalog view");
    let deferred = db.view(DEFERRED_VIEW).expect("catalog view");
    let circuit_sources = [served, db.view("Q3").expect("catalog view")];
    let mut lock = plan.traced.then(|| Lockstep::new(seed, StageKind::Replica));
    // The traced run encodes the served view's events itself to size
    // the codec; the server's own subscription is not observable.
    let tap = plan.traced.then(|| db.subscribe(served));

    let mut stream = cx.stream(seed, plan, plan.ops);
    let mut samples = Samples::default();
    let (mut lag_us, mut read_us) = (Vec::new(), Vec::new());
    let (mut pump_us, mut sync_us, mut circuit_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut take_us, mut scan_us, mut xpath_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut refresh_us, mut folded) = (Vec::new(), Vec::new());
    let (mut encode_event_us, mut event_bytes, mut encode_store_us) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut delta_rows = Vec::new();
    let mut wire_bytes = 0usize;
    let mut scanned = 0usize;
    let mut iterations = 0usize;
    let mut clock = LoopClock::started();

    // One refresh of the deferred view, mirrored on the rig.
    let mut refresh = |cx: &mut Cx, db: &mut Database, lock: &mut Option<Lockstep>| {
        let t = Instant::now();
        match db.refresh(deferred) {
            Ok(Some(c)) => {
                refresh_us.push(us(t.elapsed()));
                if let Some(range) = &c.report(deferred).coalesced {
                    folded.push((range.end() - range.start() + 1) as f64);
                }
            }
            Ok(None) => {}
            Err(e) => cx.fail(format!("replica: refresh: {e}")),
        }
        cx.attempted += 1;
        if let Some(lock) = lock {
            // Outside the per-commit id space: a refresh is its own
            // commit on the façade, with no `apply` to cover.
            lock.tr.set_commit(u32::MAX as usize / 2 + refresh_us.len());
            if let Err(e) = lock.rig.refresh(&mut lock.tr) {
                cx.fail(format!("replica: rig refresh failed: {e}"));
            }
        }
    };

    while let Some(s) = stream.next() {
        let t0 = Instant::now();
        let res = db.apply(s.text.as_str());
        let lat = t0.elapsed();
        cx.attempted += 1;
        let seq = match &res {
            Ok(c) => {
                delta_rows
                    .push(circuit_sources.iter().map(|h| c.delta(*h).len()).sum::<usize>() as f64);
                c.seq
            }
            Err(e) => {
                cx.fail(format!("replica: {}: {e}", s.text));
                db.last_seq()
            }
        };
        let t = Instant::now();
        set.server.pump(&db);
        pump_us.push(us(t.elapsed()));
        let t = Instant::now();
        for r in &mut set.replicas {
            if let Err(e) = r.sync_to(seq) {
                cx.fail(format!("replica: sync_to({seq}): {e}"));
            }
        }
        sync_us.push(us(t.elapsed()));
        // Just before `apply` → the slower replica has the commit.
        lag_us.push(us(t0.elapsed()));
        let t = Instant::now();
        set.circuit.sync(&mut db);
        circuit_us.push(us(t.elapsed()));
        samples.push(lat, &clock);
        iterations += 1;

        // The rig replays the commit before any refresh below folds it.
        if let Some(l) = &mut lock {
            clock.pause();
            if let Some(tap) = &tap {
                for e in tap.drain() {
                    let t = Instant::now();
                    let bytes = encode_event(&e);
                    encode_event_us.push(us(t.elapsed()));
                    event_bytes.push(bytes.len() as f64);
                    wire_bytes += (bytes.len() + FRAME_HEADER_BYTES) * REPLICAS;
                }
            }
            l.replay(cx, &[s.text.as_str()], res.as_ref().ok(), lat);
            clock.resume();
        }

        if iterations % READ_EVERY == 0 {
            let t = Instant::now();
            let snap = db.snapshot();
            let took = t.elapsed();
            let t = Instant::now();
            scanned += snap.cursor(served).count();
            let scan = t.elapsed();
            let t = Instant::now();
            match snap.xpath(READ_XPATH) {
                Ok(nodes) => scanned += nodes.len(),
                Err(e) => cx.fail(format!("replica: snapshot xpath: {e}")),
            }
            let xpath = t.elapsed();
            cx.attempted += 1;
            read_us.push(us(took + scan + xpath));
            take_us.push(us(took));
            scan_us.push(us(scan));
            xpath_us.push(us(xpath));
            if plan.traced {
                let t = Instant::now();
                std::hint::black_box(encode_store(db.store(served)));
                encode_store_us.push(us(t.elapsed()));
            }
        }
        if iterations % REFRESH_EVERY == 0 {
            refresh(cx, &mut db, &mut lock);
        }

        // ORACLE_EVERY is a multiple of REFRESH_EVERY, so the deferred
        // view was refreshed just above and compares.
        if let Some(l) = lock.as_ref().filter(|l| l.oracle_due()) {
            clock.pause();
            check_views(cx, &db, "replica");
            check_rig(cx, &db, &l.rig, "replica");
            clock.resume();
        }
        if clock.secs() > plan.cap_s {
            stream.close();
        }
    }
    clock.pause();

    // Settle everything, then check every consumer against its source.
    refresh(cx, &mut db, &mut lock);
    set.server.pump(&db);
    let last = db.last_seq();
    for r in &mut set.replicas {
        if let Err(e) = r.sync_to(last) {
            cx.fail(format!("replica: final sync_to({last}): {e}"));
        }
    }
    set.circuit.sync(&mut db);
    check_views(cx, &db, "replica end");
    check_restored(cx, &db, seed, "replica end");
    for (i, r) in set.replicas.iter().enumerate() {
        cx.check(r.identical_to(db.store(served)), || {
            format!("replica: replica {i} differs from its source store")
        });
    }
    let reconnects: u64 = set.replicas.iter().map(ReplicaClient::reconnects).sum();
    cx.check(reconnects == 0, || format!("replica: {reconnects} reconnects"));
    let fresh = set.circuit.recompute(&db);
    for node in &set.outputs {
        cx.check(set.circuit.store(*node).same_content_as(&fresh[node.index()]), || {
            format!("replica: circuit node {} differs from its recomputation", node.index())
        });
    }
    let rescans: u64 = set.circuit.nodes().iter().filter_map(|n| set.circuit.rescans(*n)).sum();
    std::hint::black_box(scanned);

    if !plan.traced {
        cx.pool.lag_us.append(&mut lag_us);
        cx.pool.read_us.append(&mut read_us);
        if plan.main {
            // An iteration counts once and includes pump, sync and
            // circuit: the loop clock ran through all of them.
            cx.pool.commits.extend(&samples);
        }
    }
    if let Some(lock) = lock {
        check_rig(cx, &db, &lock.rig, "replica end");
        let m = &mut cx.metrics;
        m.set("core.snapshot.take_us", median(&take_us));
        m.set("core.snapshot.scan_us", median(&scan_us));
        m.set("core.snapshot.xpath_us", median(&xpath_us));
        m.set("core.snapshot.encode_event_us", median(&encode_event_us));
        m.set("core.snapshot.event_bytes", mean(&event_bytes));
        m.set("core.snapshot.encode_store_us", median(&encode_store_us));
        m.set("core.database.refresh_us", median(&refresh_us));
        m.set("core.database.deferred_folded", mean(&folded));
        m.set("feed.bootstrap_us", median(&set.bootstrap_us));
        m.set("feed.pump_us", median(&pump_us));
        m.set("feed.sync_us", median(&sync_us));
        m.set("feed.wire_bytes_per_commit", wire_bytes as f64 / iterations.max(1) as f64);
        m.set("feed.reconnects", reconnects as f64);
        m.set("circuit.sync_us", median(&circuit_us));
        m.set("circuit.delta_rows", mean(&delta_rows));
        m.set("circuit.rescans", rescans as f64);
        lock.finish(cx, plan.main);
    }
    if let Some(tap) = tap {
        db.unsubscribe(tap);
    }
    set.detach(&mut db);
    samples.p50()
}
