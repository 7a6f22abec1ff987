//! Spans around the calls into each layer.
//!
//! The harness records one span per call it makes into a layer's
//! public functions — name, start, end, the span that caused it, and
//! the commit it belongs to — keeps them in memory, and writes them
//! out when the run ends. Nothing inside the program is instrumented
//! (ROADMAP `[observe]` is a later change): a layer's *self time* is
//! its span minus the part its child spans cover.

use crate::json::Json;
use crate::stats::us;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    commit: u32,
    /// A probe span repeats work that a sibling span already contains
    /// (e.g. the target lookup inside `compute_pul`), to size it. It
    /// counts towards its own layer metric, never towards coverage.
    probe: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The spans of one stage of a run.
pub struct Trace {
    pub stage: &'static str,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
    commit: u32,
}

impl Trace {
    pub fn new(stage: &'static str) -> Self {
        Trace {
            stage,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            commit: 0,
        }
    }

    /// Spans opened from here on belong to commit `id`.
    pub fn set_commit(&mut self, id: usize) {
        self.commit = id as u32;
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn open_span(&mut self, name: &'static str, probe: bool) -> SpanId {
        let name = self.name_id(name);
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        // Read the clock last so bookkeeping stays outside the span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            commit: self.commit,
            probe,
        });
        SpanId(id)
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.open_span(name, false)
    }

    pub fn begin_probe(&mut self, name: &'static str) -> SpanId {
        self.open_span(name, true)
    }

    pub fn end(&mut self, id: SpanId) -> Duration {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Per commit id, the summed duration (µs) of the spans called
    /// `name` — one entry per commit that has any.
    pub fn per_commit_us(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        if let Some(want) = self.names.iter().position(|n| *n == name) {
            for s in self.spans.iter().filter(|s| s.name as usize == want) {
                *sums.entry(s.commit).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
            }
        }
        sums
    }

    /// Per commit, the summed duration (µs) of its top-level non-probe
    /// spans: what the decomposed rig spent on that commit in total.
    pub fn covered_us(&self) -> BTreeMap<u32, f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent == NO_PARENT && !s.probe) {
            *sums.entry(s.commit).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        sums
    }

    /// Total self time (µs) per span name: each span's duration minus
    /// its direct children's. Probe spans are left out on both sides.
    pub fn self_time_us(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<i128> =
            self.spans.iter().map(|s| (s.end_ns - s.start_ns) as i128).collect();
        for s in self.spans.iter().filter(|s| s.parent != NO_PARENT && !s.probe) {
            own[s.parent as usize] -= (s.end_ns - s.start_ns) as i128;
        }
        let mut by_name = vec![0i128; self.names.len()];
        for (s, ns) in self.spans.iter().zip(own).filter(|(s, _)| !s.probe) {
            by_name[s.name as usize] += ns;
        }
        let mut out: Vec<(&'static str, f64)> = self
            .names
            .iter()
            .zip(by_name)
            .map(|(n, ns)| (*n, us(Duration::from_nanos(ns.max(0) as u64))))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// `{"stage", "names", "spans": [[name, start_ns, end_ns, parent,
    /// commit, probe], ...]}` — parent is −1 for a root span.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(s.name as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(if s.parent == NO_PARENT { -1.0 } else { s.parent as f64 }),
                    Json::Num(s.commit as f64),
                    Json::Num(u8::from(s.probe) as f64),
                ])
            })
            .collect();
        Json::obj([
            ("stage", Json::from(self.stage)),
            ("names", Json::Arr(self.names.iter().map(|n| Json::from(*n)).collect())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes_stay_out_of_coverage() {
        let mut t = Trace::new("test");
        t.set_commit(1);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let probe = t.begin_probe("probe");
        std::thread::sleep(Duration::from_millis(1));
        t.end(probe);

        let outer_us = t.per_commit_us("outer")[&1];
        let inner_us = t.per_commit_us("inner")[&1];
        assert!(inner_us >= 2000.0 && outer_us >= inner_us);
        assert_eq!(t.covered_us()[&1], outer_us, "only the root non-probe span is covered");
        let selfs: BTreeMap<_, _> = t.self_time_us().into_iter().collect();
        assert!((selfs["outer"] - (outer_us - inner_us)).abs() < 1.0);
        assert!(!selfs.contains_key("probe") || selfs["probe"] == 0.0);
        assert_eq!(t.to_json().get("spans").unwrap().as_arr().len(), 3);
    }
}
