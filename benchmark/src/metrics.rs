//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names (the smoke test keeps
//! the two in step); README.md says which end-to-end metric each
//! per-layer metric should move, and on which workload.

use crate::json::Json;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read from the program's own public `UpdateReport.timings` /
    /// `Commit` fields rather than timed by the harness; flagged in
    /// the results file because a later change may redefine them.
    pub from_program: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, from_program: false }
}

const fn program(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, from_program: true }
}

/// Measured with tracing off.
pub const END_TO_END: [MetricDef; 10] = [
    timed("setup_s", "s"),
    timed("commits_per_s", "1/s"),
    timed("commit_p50_us", "us"),
    timed("commit_p95_us", "us"),
    timed("speedup_vs_recompute_insert", "ratio"),
    timed("speedup_vs_recompute_delete", "ratio"),
    timed("replica_lag_p50_us", "us"),
    timed("replica_lag_p95_us", "us"),
    timed("read_p50_us", "us"),
    timed("peak_rss_mb", "MB"),
];

/// From the traced run. Times are per-commit medians unless the name
/// says otherwise; counts are per-commit means.
pub const PER_LAYER: [MetricDef; 63] = [
    timed("xmark.generate_us", "us"),
    timed("xml.parse_document_us", "us"),
    timed("xml.doc_clone_us", "us"),
    timed("xml.cow_chunks_copied", "count"),
    timed("pattern.find_targets_us", "us"),
    timed("pattern.materialize_us", "us"),
    timed("update.parse_statement_us", "us"),
    timed("update.compute_pul_us", "us"),
    timed("update.apply_pul_us", "us"),
    timed("update.pul_ops", "count"),
    timed("update.targets", "count"),
    timed("pulopt.aggregate_us", "us"),
    timed("pulopt.reduce_us", "us"),
    timed("pulopt.find_conflicts_us", "us"),
    program("pulopt.ops_before", "count"),
    program("pulopt.ops_after", "count"),
    timed("analyze.skip_mask_us", "us"),
    program("analyze.skip_share", "ratio"),
    timed("core.engine.prepare_us", "us"),
    timed("core.engine.finish_us", "us"),
    program("core.engine.delta_tables_us", "us"),
    program("core.engine.expression_us", "us"),
    program("core.engine.execute_us", "us"),
    program("core.engine.lattice_us", "us"),
    program("core.engine.terms_before", "count"),
    program("core.engine.terms_evaluated", "count"),
    program("core.engine.delta_entries", "count"),
    timed("core.engine.empty_propagation_share", "ratio"),
    timed("core.engine.pairs_below_recompute", "count"),
    timed("core.multiview.propagate_us", "us"),
    timed("core.parallel.shards", "count"),
    program("core.runtime.threads_spawned", "count"),
    timed("core.database.build_us", "us"),
    timed("core.database.apply_us", "us"),
    timed("core.database.facade_overhead_us", "us"),
    timed("core.database.commit_p99_us", "us"),
    timed("core.database.transaction_us", "us"),
    timed("core.database.refresh_us", "us"),
    program("core.database.deferred_folded", "count"),
    timed("core.service.submit_us", "us"),
    timed("core.service.ticket_wait_us", "us"),
    timed("core.service.flush_us", "us"),
    timed("core.service.outstanding", "count"),
    timed("core.subscribe.drain_us", "us"),
    timed("core.subscribe.events", "count"),
    timed("core.subscribe.lagged", "count"),
    timed("core.snapshot.take_us", "us"),
    timed("core.snapshot.scan_us", "us"),
    timed("core.snapshot.xpath_us", "us"),
    timed("core.snapshot.encode_event_us", "us"),
    timed("core.snapshot.event_bytes", "bytes"),
    timed("core.snapshot.encode_store_us", "us"),
    timed("feed.bootstrap_us", "us"),
    timed("feed.pump_us", "us"),
    timed("feed.sync_us", "us"),
    timed("feed.wire_bytes_per_commit", "bytes"),
    program("feed.reconnects", "count"),
    timed("circuit.sync_us", "us"),
    program("circuit.delta_rows", "count"),
    program("circuit.rescans", "count"),
    timed("ivma.recompute_us", "us"),
    timed("trace.coverage", "ratio"),
    timed("trace.overhead_pct", "pct"),
];

/// Values measured so far in a run, by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `defs`, in
    /// catalogue order. A metric nobody measured is reported by name:
    /// the result line must carry every one.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut pairs = Vec::with_capacity(defs.len());
        for d in defs {
            let v =
                self.get(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            pairs
                .push((d.name, Json::obj([("value", Json::Num(v)), ("unit", Json::from(d.unit))])));
        }
        Ok(Json::obj(pairs))
    }
}
