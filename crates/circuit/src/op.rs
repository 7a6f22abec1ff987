//! The incremental operators: per-node state and the O(|Δ|) step
//! functions.
//!
//! Every operator consumes its inputs' [`RowDelta`]s for one commit
//! and emits its own output delta, touching only state reachable from
//! the changed rows:
//!
//! * **source** — mirrors one view store and converts each
//!   [`ViewDelta`] into a row Z-set change: for every affected tuple
//!   key, retract the pre-commit row with its old derivation count and
//!   insert the post-commit row with the new one (so count changes
//!   *and* `val`/`cont` modifications both become row replacements);
//! * **filter** / **map** — stateless; a map's output is consolidated
//!   because distinct inputs may collapse onto one image row;
//! * **join** — bilinear: `Δout = ΔL ⋈ R ∪ L′ ⋈ ΔR` (with `L′ = L +
//!   ΔL`), over two per-side hash indexes keyed by the extracted join
//!   key;
//! * **count** / **sum** — one state entry per group; a changed group
//!   retracts its old aggregate row and inserts the new one;
//! * **min** / **max** — per group a support multiset of values plus
//!   the cached extremum. Insertions only *improve* the extremum
//!   (cheap compare); retracting the extremum itself forces a re-scan
//!   of the group's surviving support — the unavoidable fallback, paid
//!   only when the current best disappears.

use crate::row::{Datum, Row};
use crate::zset::RowDelta;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use xivm_algebra::Tuple;
use xivm_core::{DeltaEvent, Subscription, ViewDelta, ViewHandle, ViewStore};

/// A row predicate (filter condition).
pub type Predicate = Arc<dyn Fn(&Row) -> bool + Send + Sync>;
/// A row transformer (map body, join key extractor, group key
/// extractor).
pub type RowFn = Arc<dyn Fn(&Row) -> Row + Send + Sync>;
/// An integer extractor (sum / min / max argument).
pub type ValueFn = Arc<dyn Fn(&Row) -> i64 + Send + Sync>;

/// A circuit source: one subscribed view, mirrored tuple-for-tuple so
/// each incoming [`ViewDelta`] can be re-expressed as old-row
/// retractions plus new-row insertions.
pub(crate) struct SourceState {
    pub(crate) view: ViewHandle,
    pub(crate) sub: Option<Subscription>,
    pub(crate) mirror: ViewStore,
    /// Events drained from the database but not yet consumed by a
    /// `sync_to` barrier (their seq exceeds the requested target).
    pub(crate) buffer: VecDeque<DeltaEvent>,
}

impl SourceState {
    pub(crate) fn new(view: ViewHandle) -> Self {
        SourceState { view, sub: None, mirror: ViewStore::default(), buffer: VecDeque::new() }
    }

    /// The mirror's full contents as one delta — the seed that runs
    /// the initial materialization through the same incremental code
    /// path (incremental from empty ≡ full evaluation).
    pub(crate) fn seed_delta(&self) -> RowDelta {
        let schema = self.mirror.schema();
        RowDelta::new(
            self.mirror.cursor().map(|(t, c)| (Row::from_tuple(t, schema), c as i64)).collect(),
        )
    }

    /// Folds one commit's view delta into the mirror and returns the
    /// equivalent row Z-set change, in O(|Δ|): only the tuples the
    /// delta's run names are looked up, before and after its replay.
    pub(crate) fn advance(&mut self, delta: &ViewDelta) -> RowDelta {
        // A key's negative and non-negative entries are neighbours.
        let mut keys: Vec<&Tuple> = delta.rows().iter().map(|(t, _)| t).collect();
        keys.dedup_by(|b, a| a.doc_cmp(b).is_eq());
        let mut raw = Vec::with_capacity(keys.len() * 2);
        let mut rows_of = |mirror: &ViewStore, sign: i64| {
            let stored = keys.iter().filter_map(|key| mirror.get(key));
            raw.extend(stored.map(|(t, c)| (Row::from_tuple(t, mirror.schema()), sign * c as i64)));
        };
        rows_of(&self.mirror, -1);
        delta.replay(&mut self.mirror);
        rows_of(&self.mirror, 1);
        RowDelta::new(raw)
    }
}

/// A hash join's per-side state: input rows with their weights,
/// bucketed by extracted join key.
pub(crate) struct JoinState {
    pub(crate) left: usize,
    pub(crate) right: usize,
    pub(crate) left_key: RowFn,
    pub(crate) right_key: RowFn,
    left_index: HashMap<Row, HashMap<Row, i64>>,
    right_index: HashMap<Row, HashMap<Row, i64>>,
}

impl JoinState {
    pub(crate) fn new(left: usize, right: usize, left_key: RowFn, right_key: RowFn) -> Self {
        JoinState {
            left,
            right,
            left_key,
            right_key,
            left_index: HashMap::new(),
            right_index: HashMap::new(),
        }
    }

    /// The bilinear delta rule: `ΔL` joins the right side *before*
    /// `ΔR` lands, `ΔR` joins the left side *after* `ΔL` landed — so
    /// the `ΔL ⋈ ΔR` cross term is produced exactly once.
    fn step(&mut self, left_delta: &RowDelta, right_delta: &RowDelta) -> RowDelta {
        let mut raw = Vec::new();
        for (r, w) in left_delta.iter() {
            if let Some(matches) = self.right_index.get(&(self.left_key)(r)) {
                for (s, w2) in matches {
                    raw.push((r.concat(s), w * w2));
                }
            }
        }
        apply_to_index(&mut self.left_index, &self.left_key, left_delta);
        for (s, w) in right_delta.iter() {
            if let Some(matches) = self.left_index.get(&(self.right_key)(s)) {
                for (r, w2) in matches {
                    raw.push((r.concat(s), w2 * w));
                }
            }
        }
        apply_to_index(&mut self.right_index, &self.right_key, right_delta);
        RowDelta::new(raw)
    }
}

fn apply_to_index(index: &mut HashMap<Row, HashMap<Row, i64>>, key: &RowFn, delta: &RowDelta) {
    for (row, weight) in delta.iter() {
        let k = key(row);
        let bucket = index.entry(k.clone()).or_default();
        let w = bucket.entry(row.clone()).or_insert(0);
        *w += weight;
        if *w == 0 {
            bucket.remove(row);
        }
        if bucket.is_empty() {
            index.remove(&k);
        }
    }
}

/// Which extremum a min/max node maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extremum {
    Min,
    Max,
}

impl Extremum {
    pub(crate) fn pick(self, a: i64, b: i64) -> i64 {
        match self {
            Extremum::Min => a.min(b),
            Extremum::Max => a.max(b),
        }
    }

    fn scan(self, values: impl Iterator<Item = i64>) -> i64 {
        match self {
            Extremum::Min => values.min().expect("non-empty support"),
            Extremum::Max => values.max().expect("non-empty support"),
        }
    }
}

/// One min/max group: the multiset of argument values currently
/// derivable (value → total weight) plus the cached extremum.
pub(crate) struct ExtremeGroup {
    support: HashMap<i64, i64>,
    best: i64,
}

/// One circuit node's operator and its incremental state.
pub(crate) enum OpState {
    Source(SourceState),
    Filter {
        input: usize,
        pred: Predicate,
    },
    Map {
        input: usize,
        f: RowFn,
    },
    Join(JoinState),
    Count {
        input: usize,
        key: RowFn,
        groups: HashMap<Row, i64>,
    },
    Sum {
        input: usize,
        key: RowFn,
        value: ValueFn,
        groups: HashMap<Row, (i64, i64)>,
    },
    Extreme {
        input: usize,
        key: RowFn,
        value: ValueFn,
        kind: Extremum,
        groups: HashMap<Row, ExtremeGroup>,
        rescans: u64,
    },
}

impl OpState {
    /// Input node indices, left before right.
    pub(crate) fn inputs(&self) -> Vec<usize> {
        match self {
            OpState::Source(_) => Vec::new(),
            OpState::Filter { input, .. }
            | OpState::Map { input, .. }
            | OpState::Count { input, .. }
            | OpState::Sum { input, .. }
            | OpState::Extreme { input, .. } => vec![*input],
            OpState::Join(j) => vec![j.left, j.right],
        }
    }

    /// Consumes this commit's upstream deltas (indexed by node) and
    /// returns the node's own output delta. Sources are fed directly
    /// by the circuit and never stepped.
    pub(crate) fn step(&mut self, deltas: &[RowDelta]) -> RowDelta {
        match self {
            OpState::Source(_) => unreachable!("source deltas are fed, not stepped"),
            OpState::Filter { input, pred } => RowDelta::new(
                deltas[*input]
                    .iter()
                    .filter(|(r, _)| pred(r))
                    .map(|(r, w)| (r.clone(), w))
                    .collect(),
            ),
            OpState::Map { input, f } => {
                RowDelta::new(deltas[*input].iter().map(|(r, w)| (f(r), w)).collect())
            }
            OpState::Join(j) => {
                let (left, right) = (j.left, j.right);
                j.step(&deltas[left], &deltas[right])
            }
            OpState::Count { input, key, groups } => step_count(groups, key, &deltas[*input]),
            OpState::Sum { input, key, value, groups } => {
                step_sum(groups, key, value, &deltas[*input])
            }
            OpState::Extreme { input, key, value, kind, groups, rescans } => {
                step_extreme(groups, key, value, *kind, &deltas[*input], rescans)
            }
        }
    }

    /// Number of re-scan fallbacks a min/max node has paid (`None`
    /// for every other operator).
    pub(crate) fn rescans(&self) -> Option<u64> {
        match self {
            OpState::Extreme { rescans, .. } => Some(*rescans),
            _ => None,
        }
    }

    /// Discards all incremental state so the node can be re-seeded
    /// from scratch — the snapshot-recovery path a [`Lagged`] source
    /// triggers. Source mirrors/buffers are reset by the circuit (it
    /// holds the snapshot); the `rescans` odometer survives, it counts
    /// work actually paid.
    ///
    /// [`Lagged`]: xivm_core::Lagged
    pub(crate) fn reset(&mut self) {
        match self {
            OpState::Source(_) | OpState::Filter { .. } | OpState::Map { .. } => {}
            OpState::Join(j) => {
                j.left_index.clear();
                j.right_index.clear();
            }
            OpState::Count { groups, .. } => groups.clear(),
            OpState::Sum { groups, .. } => groups.clear(),
            OpState::Extreme { groups, .. } => groups.clear(),
        }
    }
}

fn step_count(groups: &mut HashMap<Row, i64>, key: &RowFn, delta: &RowDelta) -> RowDelta {
    let mut touched: HashMap<Row, i64> = HashMap::new();
    for (r, w) in delta.iter() {
        *touched.entry(key(r)).or_insert(0) += w;
    }
    let mut raw = Vec::new();
    for (k, dw) in touched {
        if dw == 0 {
            continue;
        }
        let old = groups.get(&k).copied().unwrap_or(0);
        let new = old + dw;
        assert!(new >= 0, "count aggregate went negative for group {k}");
        if old > 0 {
            raw.push((k.with(Datum::Int(old)), -1));
        }
        if new > 0 {
            raw.push((k.with(Datum::Int(new)), 1));
            groups.insert(k, new);
        } else {
            groups.remove(&k);
        }
    }
    RowDelta::new(raw)
}

fn step_sum(
    groups: &mut HashMap<Row, (i64, i64)>,
    key: &RowFn,
    value: &ValueFn,
    delta: &RowDelta,
) -> RowDelta {
    let mut touched: HashMap<Row, (i64, i64)> = HashMap::new();
    for (r, w) in delta.iter() {
        let e = touched.entry(key(r)).or_insert((0, 0));
        e.0 += w;
        e.1 += w * value(r);
    }
    let mut raw = Vec::new();
    for (k, (dc, ds)) in touched {
        if dc == 0 && ds == 0 {
            continue;
        }
        let (oc, os) = groups.get(&k).copied().unwrap_or((0, 0));
        let (nc, ns) = (oc + dc, os + ds);
        assert!(nc >= 0, "sum aggregate count went negative for group {k}");
        if oc > 0 {
            raw.push((k.with(Datum::Int(os)), -1));
        }
        if nc > 0 {
            raw.push((k.with(Datum::Int(ns)), 1));
            groups.insert(k, (nc, ns));
        } else {
            groups.remove(&k);
        }
    }
    RowDelta::new(raw)
}

fn step_extreme(
    groups: &mut HashMap<Row, ExtremeGroup>,
    key: &RowFn,
    value: &ValueFn,
    kind: Extremum,
    delta: &RowDelta,
    rescans: &mut u64,
) -> RowDelta {
    let mut touched: HashMap<Row, Vec<(i64, i64)>> = HashMap::new();
    for (r, w) in delta.iter() {
        touched.entry(key(r)).or_default().push((value(r), w));
    }
    let mut raw = Vec::new();
    for (k, changes) in touched {
        let (old_best, new_best) = {
            let group = groups
                .entry(k.clone())
                .or_insert_with(|| ExtremeGroup { support: HashMap::new(), best: 0 });
            let old_best = (!group.support.is_empty()).then_some(group.best);
            let mut changed: Vec<i64> = Vec::with_capacity(changes.len());
            for (v, w) in changes {
                let e = group.support.entry(v).or_insert(0);
                *e += w;
                assert!(*e >= 0, "extremum support went negative for group {k}");
                if *e == 0 {
                    group.support.remove(&v);
                }
                changed.push(v);
            }
            let new_best = if group.support.is_empty() {
                None
            } else if let Some(ob) = old_best {
                if group.support.contains_key(&ob) {
                    // The standing extremum survived: only the
                    // changed values can beat it.
                    let mut best = ob;
                    for v in changed.into_iter().filter(|v| group.support.contains_key(v)) {
                        best = kind.pick(best, v);
                    }
                    Some(best)
                } else {
                    // The extremum itself was retracted — re-scan
                    // the surviving support (the fallback).
                    *rescans += 1;
                    Some(kind.scan(group.support.keys().copied()))
                }
            } else {
                // Fresh group: the extremum of the values this delta
                // inserted (all of the support), still O(|Δ|).
                Some(kind.scan(group.support.keys().copied()))
            };
            if let Some(n) = new_best {
                group.best = n;
            }
            (old_best, new_best)
        };
        if new_best.is_none() {
            groups.remove(&k);
        }
        if old_best != new_best {
            if let Some(o) = old_best {
                raw.push((k.with(Datum::Int(o)), -1));
            }
            if let Some(n) = new_best {
                raw.push((k.with(Datum::Int(n)), 1));
            }
        }
    }
    RowDelta::new(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(i64, i64, i64)]) -> RowDelta {
        // (group, value, weight) triples
        RowDelta::new(
            pairs
                .iter()
                .map(|&(g, v, w)| (Row::new(vec![Datum::Int(g), Datum::Int(v)]), w))
                .collect(),
        )
    }

    fn group_key() -> RowFn {
        Arc::new(|r: &Row| r.project(&[0]))
    }

    fn value_fn() -> ValueFn {
        Arc::new(|r: &Row| r.datum(1).as_int().expect("int value"))
    }

    fn agg_row(g: i64, v: i64) -> Row {
        Row::new(vec![Datum::Int(g), Datum::Int(v)])
    }

    #[test]
    fn count_retracts_old_and_inserts_new_group_rows() {
        let mut groups = HashMap::new();
        let key = group_key();
        let d1 = step_count(&mut groups, &key, &rows(&[(1, 10, 1), (1, 11, 1), (2, 20, 1)]));
        assert_eq!(d1.entries(), &[(agg_row(1, 2), 1), (agg_row(2, 1), 1)]);
        let d2 = step_count(&mut groups, &key, &rows(&[(1, 10, -1), (2, 20, -1)]));
        assert_eq!(d2.entries(), &[(agg_row(1, 1), 1), (agg_row(1, 2), -1), (agg_row(2, 1), -1)]);
        assert!(!groups.contains_key(&Row::new(vec![Datum::Int(2)])), "empty group dropped");
    }

    #[test]
    fn sum_tracks_group_totals() {
        let mut groups = HashMap::new();
        let (key, value) = (group_key(), value_fn());
        let d1 = step_sum(&mut groups, &key, &value, &rows(&[(1, 10, 2), (1, 5, 1)]));
        assert_eq!(d1.entries(), &[(agg_row(1, 25), 1)]);
        let d2 = step_sum(&mut groups, &key, &value, &rows(&[(1, 10, -1)]));
        assert_eq!(d2.entries(), &[(agg_row(1, 15), 1), (agg_row(1, 25), -1)]);
        let d3 = step_sum(&mut groups, &key, &value, &rows(&[(1, 10, -1), (1, 5, -1)]));
        assert_eq!(d3.entries(), &[(agg_row(1, 15), -1)]);
        assert!(groups.is_empty());
    }

    #[test]
    fn min_rescans_only_when_the_extremum_is_retracted() {
        let mut groups = HashMap::new();
        let (key, value) = (group_key(), value_fn());
        let mut rescans = 0;
        let d1 = step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Min,
            &rows(&[(1, 5, 1), (1, 9, 1)]),
            &mut rescans,
        );
        assert_eq!(d1.entries(), &[(agg_row(1, 5), 1)]);
        assert_eq!(rescans, 0);

        // Inserting a better value: cheap path.
        let d2 = step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Min,
            &rows(&[(1, 3, 1)]),
            &mut rescans,
        );
        assert_eq!(d2.entries(), &[(agg_row(1, 3), 1), (agg_row(1, 5), -1)]);
        assert_eq!(rescans, 0);

        // Removing a non-extremum value: no output, no rescan.
        let d3 = step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Min,
            &rows(&[(1, 9, -1)]),
            &mut rescans,
        );
        assert!(d3.is_empty());
        assert_eq!(rescans, 0);

        // Removing the minimum forces the re-scan fallback.
        let d4 = step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Min,
            &rows(&[(1, 3, -1)]),
            &mut rescans,
        );
        assert_eq!(d4.entries(), &[(agg_row(1, 3), -1), (agg_row(1, 5), 1)]);
        assert_eq!(rescans, 1);

        // Removing the last value drops the group entirely.
        let d5 = step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Min,
            &rows(&[(1, 5, -1)]),
            &mut rescans,
        );
        assert_eq!(d5.entries(), &[(agg_row(1, 5), -1)]);
        assert!(groups.is_empty());
    }

    #[test]
    fn max_mirrors_min() {
        let mut groups = HashMap::new();
        let (key, value) = (group_key(), value_fn());
        let mut rescans = 0;
        step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Max,
            &rows(&[(1, 5, 1), (1, 9, 1)]),
            &mut rescans,
        );
        let d = step_extreme(
            &mut groups,
            &key,
            &value,
            Extremum::Max,
            &rows(&[(1, 9, -1)]),
            &mut rescans,
        );
        assert_eq!(d.entries(), &[(agg_row(1, 5), 1), (agg_row(1, 9), -1)]);
        assert_eq!(rescans, 1);
    }

    #[test]
    fn join_produces_the_cross_term_exactly_once() {
        let mut j = JoinState::new(
            0,
            1,
            Arc::new(|r: &Row| r.project(&[0])),
            Arc::new(|r: &Row| r.project(&[0])),
        );
        // Both sides change in the same commit: (k=1, "l") meets
        // (k=1, "r") even though neither was present before.
        let dl = RowDelta::new(vec![(Row::new(vec![Datum::Int(1), Datum::Str("l".into())]), 1)]);
        let dr = RowDelta::new(vec![(Row::new(vec![Datum::Int(1), Datum::Str("r".into())]), 1)]);
        let out = j.step(&dl, &dr);
        assert_eq!(out.len(), 1);
        let (row, w) = out.iter().next().unwrap();
        assert_eq!(w, 1);
        assert_eq!(row.arity(), 4);

        // Retracting one side retracts the pair.
        let out2 = j.step(
            &RowDelta::new(vec![(Row::new(vec![Datum::Int(1), Datum::Str("l".into())]), -1)]),
            &RowDelta::empty(),
        );
        assert_eq!(out2.iter().next().unwrap().1, -1);
        assert!(j.left_index.is_empty(), "retracted rows leave no index residue");
    }

    #[test]
    fn weighted_join_multiplies_weights() {
        let mut j = JoinState::new(
            0,
            1,
            Arc::new(|r: &Row| r.project(&[0])),
            Arc::new(|r: &Row| r.project(&[0])),
        );
        let dl = RowDelta::new(vec![(Row::new(vec![Datum::Int(1)]), 2)]);
        let dr = RowDelta::new(vec![(Row::new(vec![Datum::Int(1)]), 3)]);
        let out = j.step(&dl, &dr);
        assert_eq!(out.iter().next().unwrap().1, 6);
    }
}
