//! The incremental operators: per-node state and the O(|Δ|) step
//! functions.
//!
//! Every operator consumes its inputs' [`RowDelta`]s for one commit
//! and emits its own output delta, touching only state reachable from
//! the changed rows:
//!
//! * **source** — converts each [`ViewDelta`] into a row Z-set change
//!   against its own store, the view's one copy in the circuit: for
//!   every affected tuple key, retract the pre-commit row with its old
//!   derivation count and insert the post-commit row with the new one
//!   (so count changes *and* `val`/`cont` modifications both become row
//!   replacements);
//! * **filter** / **map** — stateless; a map's output is consolidated
//!   because distinct inputs may collapse onto one image row;
//! * **join** — bilinear: `Δout = ΔL ⋈ R ∪ L′ ⋈ ΔR` (with `L′ = L +
//!   ΔL`), over two per-side hash indexes keyed by the extracted join
//!   key;
//! * **sum** — one state entry per group (derivations, total); a
//!   changed group retracts its old aggregate row and inserts the new
//!   one. A **count** is the sum of 1 per derivation;
//! * **min** / **max** — per group a support multiset of values plus
//!   the cached extremum. Insertions only *improve* the extremum
//!   (cheap compare); retracting the extremum itself forces a re-scan
//!   of the group's surviving support — the unavoidable fallback, paid
//!   only when the current best disappears.

use crate::row::{Datum, Row};
use crate::zset::{DerivedStore, RowDelta};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use xivm_algebra::Schema;
use xivm_core::{DeltaEvent, Subscription, ViewDelta, ViewHandle, ViewStore};

/// A row predicate (filter condition).
pub type Predicate = Arc<dyn Fn(&Row) -> bool + Send + Sync>;
/// A row transformer (map body, join key extractor, group key
/// extractor).
pub type RowFn = Arc<dyn Fn(&Row) -> Row + Send + Sync>;
/// An integer extractor (sum / min / max argument).
pub type ValueFn = Arc<dyn Fn(&Row) -> i64 + Send + Sync>;

/// A circuit source: one subscribed view. It keeps no copy of the
/// view — its node's [`DerivedStore`] holds the view's tuples as rows,
/// in the view's own order — and re-expresses each incoming
/// [`ViewDelta`] against that store as old-row retractions plus
/// new-row insertions.
pub(crate) struct SourceState {
    pub(crate) view: ViewHandle,
    schema: Schema,
    pub(crate) sub: Option<Subscription>,
    /// Events drained from the database but not yet consumed by a
    /// `sync_to` barrier (their seq exceeds the requested target).
    pub(crate) buffer: VecDeque<DeltaEvent>,
}

impl SourceState {
    pub(crate) fn new(view: ViewHandle, schema: Schema) -> Self {
        SourceState { view, schema, sub: None, buffer: VecDeque::new() }
    }

    /// The row change of one commit's view delta, read against `rows`,
    /// the node's store before the commit, in O(|Δ| log |rows|): each
    /// key the run names is found once by its IDs, and
    /// [`ViewStore::patch`]'s rules give its row after the commit — a
    /// loss takes from the count, a gain adds to it and brings the
    /// post-commit text, and weight 0 is that text alone. A changed
    /// count or text retracts the old row and inserts the new one.
    pub(crate) fn advance(&self, delta: &ViewDelta, rows: &DerivedStore) -> RowDelta {
        let mut raw = Vec::with_capacity(2 * delta.len());
        let mut run = delta.rows().iter().peekable();
        while let Some(entry @ (tuple, weight)) = run.next() {
            // A key's negative entry comes right before its non-negative one.
            let (lost, gained) = match *weight {
                w if w < 0 => (-w, run.next_if(|(next, _)| next.doc_cmp(tuple).is_eq())),
                _ => (0, Some(entry)),
            };
            let old = rows.rows().binary_search_by(|(row, _)| row.ids_cmp(tuple));
            let old = old.ok().map(|at| &rows.rows()[at]);
            let count = old.map_or(0, |(_, c)| (c - lost).max(0)) + gained.map_or(0, |(_, w)| *w);
            if let Some((row, c)) = old {
                raw.push((row.clone(), -c));
            }
            if count > 0 {
                let row = match gained {
                    Some((t, _)) => Row::from_tuple(t, &self.schema),
                    None => old.expect("a count kept is a row kept").0.clone(),
                };
                raw.push((row, count));
            }
        }
        RowDelta::new(raw)
    }
}

/// A view store's tuples as rows, in its order — what a source node
/// holds, and the seed that runs a materialization through the same
/// incremental code path (incremental from empty ≡ full evaluation).
pub(crate) fn view_rows(store: &ViewStore) -> Vec<(Row, i64)> {
    store.cursor().map(|(t, c)| (Row::from_tuple(t, store.schema()), c as i64)).collect()
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
    /// triggers. Source buffers are reset by the circuit (it holds the
    /// snapshot); the `rescans` odometer survives, it counts
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
            OpState::Sum { groups, .. } => groups.clear(),
            OpState::Extreme { groups, .. } => groups.clear(),
        }
    }
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
    use xivm_algebra::{Field, Tuple};
    use xivm_core::Database;
    use xivm_xml::{dewey::Step, DeweyId, LabelId};

    /// The source's only state is its rows: each run read against them
    /// leaves them equal to the view store the same run is replayed
    /// onto, row for row — the losses that take part of a count, all of
    /// it or more, a key that is no tuple, a text change alone, and a
    /// tuple that leaves and comes back with other text in one run.
    #[test]
    fn a_source_reads_each_run_against_its_own_rows() {
        let db = Database::builder().document("<r/>").view("v", "//a{id,val}").build().unwrap();
        let view = db.view("v").unwrap();
        let mut store = db.store(view).clone();
        let schema = store.schema().clone();
        let source = SourceState::new(view, schema.clone());
        let t = |ord: u64, val: Option<&str>| {
            let id = DeweyId::from_steps(vec![Step::new(LabelId(0), ord)]);
            Tuple::new(vec![Field::new(id, val.map(Into::into), None)])
        };
        let row = |ord: u64, val: &str| Row::from_tuple(&t(ord, Some(val)), &schema);
        let runs = [
            vec![(t(1, Some("a")), 2), (t(2, Some("b")), 1), (t(3, None), 1)],
            vec![(t(1, Some("z")), 0), (t(2, None), -1), (t(3, None), 2), (t(9, None), -4)],
            vec![(t(1, None), -5), (t(1, Some("back")), 1), (t(3, None), -1)],
            vec![(t(1, None), -1), (t(3, None), -2), (t(4, Some("d")), 1)],
        ];
        let mut rows = DerivedStore::new();
        for (i, run) in runs.into_iter().enumerate() {
            let delta = ViewDelta::new(run);
            let change = source.advance(&delta, &rows);
            if i == 1 {
                let text_change = &change.entries()[..2];
                assert_eq!(text_change, &[(row(1, "a"), -2), (row(1, "z"), 2)]);
            }
            rows.apply(&change);
            delta.replay(&mut store);
            assert_eq!(rows.rows(), view_rows(&store), "after run {i}");
        }
        assert_eq!(rows.rows(), &[(row(4, "d"), 1)]);
    }

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
        let (key, one): (_, ValueFn) = (group_key(), Arc::new(|_: &Row| 1));
        let step_count = |groups: &mut _, delta| step_sum(groups, &key, &one, &delta);
        let d1 = step_count(&mut groups, rows(&[(1, 10, 1), (1, 11, 1), (2, 20, 1)]));
        assert_eq!(d1.entries(), &[(agg_row(1, 2), 1), (agg_row(2, 1), 1)]);
        let d2 = step_count(&mut groups, rows(&[(1, 10, -1), (2, 20, -1)]));
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
