//! Building and running circuits: [`CircuitBuilder`], [`Circuit`],
//! and the [`CircuitExt`] entry point on [`Database`].
//!
//! A circuit is a DAG of operator nodes over one database. Sources
//! subscribe to views; every other node names already-built nodes as
//! inputs, so creation order is a topological order and one in-order
//! pass per commit propagates every delta. [`CircuitBuilder::build`]
//! seeds the circuit by pushing each source's full current contents
//! through the same incremental step functions (incremental from
//! empty ≡ full evaluation), then [`Circuit::sync`] /
//! [`Circuit::sync_to`] replay committed deltas — gapless, in commit
//! order — keeping every node's [`DerivedStore`] exact, at a cost that
//! follows |Δ|: a change is found by a search, and only the rows behind
//! it move.

use crate::op::{view_rows, Extremum, JoinState, OpState, RowFn, SourceState, ValueFn};
use crate::row::Row;
use crate::zset::{DerivedStore, RowDelta};
use std::collections::HashMap;
use std::sync::Arc;
use xivm_core::{
    Database, DatabaseSnapshot, Error, FeedEvent, SlowConsumerPolicy, ViewHandle, ViewStore,
};

/// A reference to one node of a [`Circuit`] (or a circuit under
/// construction). Like [`ViewHandle`], a node is only meaningful on
/// the circuit that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) usize);

impl Node {
    /// Creation-order position inside the circuit.
    pub fn index(self) -> usize {
        self.0
    }
}

struct NodeSlot {
    op: OpState,
    store: DerivedStore,
    label: String,
}

/// Starts building a delta circuit over a database's views.
///
/// Implemented for [`Database`]; bring the trait into scope (it is in
/// the `xivm` prelude) and call `db.circuit()`.
pub trait CircuitExt {
    fn circuit(&mut self) -> CircuitBuilder<'_>;
}

impl CircuitExt for Database {
    fn circuit(&mut self) -> CircuitBuilder<'_> {
        CircuitBuilder::new(self)
    }
}

/// Builds a [`Circuit`] node by node. Holds the database exclusively,
/// so no commit can land between node creation and [`Self::build`] —
/// the seeded stores and the first subscribed event are guaranteed to
/// be adjacent.
pub struct CircuitBuilder<'db> {
    db: &'db mut Database,
    nodes: Vec<NodeSlot>,
}

impl<'db> CircuitBuilder<'db> {
    pub fn new(db: &'db mut Database) -> Self {
        CircuitBuilder { db, nodes: Vec::new() }
    }

    fn push(&mut self, op: OpState, label: String) -> Node {
        self.nodes.push(NodeSlot { op, store: DerivedStore::new(), label });
        Node(self.nodes.len() - 1)
    }

    fn check(&self, input: Node) {
        assert!(input.0 < self.nodes.len(), "input node from this circuit");
    }

    /// A source node over a view, by name.
    pub fn source(&mut self, view: &str) -> Result<Node, Error> {
        let handle = self.db.view(view)?;
        let source = SourceState::new(handle, self.db.store(handle).schema().clone());
        Ok(self.push(OpState::Source(source), format!("source({view})")))
    }

    /// Keeps the input rows satisfying `pred`.
    pub fn filter(
        &mut self,
        input: Node,
        pred: impl Fn(&Row) -> bool + Send + Sync + 'static,
    ) -> Node {
        self.check(input);
        self.push(OpState::Filter { input: input.0, pred: Arc::new(pred) }, "filter".into())
    }

    /// Transforms every input row through `f` (weights follow the
    /// rows; images that collide sum their weights).
    pub fn map(&mut self, input: Node, f: impl Fn(&Row) -> Row + Send + Sync + 'static) -> Node {
        self.check(input);
        self.push(OpState::Map { input: input.0, f: Arc::new(f) }, "map".into())
    }

    /// Keeps only the listed row positions, in the given order — a
    /// [`Self::map`] over [`Row::project`].
    pub fn project(&mut self, input: Node, cols: Vec<usize>) -> Node {
        self.check(input);
        let label = format!("project{cols:?}");
        self.push(OpState::Map { input: input.0, f: Arc::new(move |r| r.project(&cols)) }, label)
    }

    /// Hash-joins two nodes on extracted keys; output rows are
    /// `left ++ right`, output weights multiply. `left` and `right`
    /// may be the same node (self-join).
    pub fn join(
        &mut self,
        left: Node,
        right: Node,
        left_key: impl Fn(&Row) -> Row + Send + Sync + 'static,
        right_key: impl Fn(&Row) -> Row + Send + Sync + 'static,
    ) -> Node {
        self.check(left);
        self.check(right);
        self.push(
            OpState::Join(JoinState::new(left.0, right.0, Arc::new(left_key), Arc::new(right_key))),
            "join".into(),
        )
    }

    /// Counts derivations per group — a [`Self::sum`] of 1 per
    /// derivation; output rows are `key ++ count`. Group by
    /// [`Row::empty`] for a global count.
    pub fn count(
        &mut self,
        input: Node,
        key: impl Fn(&Row) -> Row + Send + Sync + 'static,
    ) -> Node {
        self.aggregate(input, Arc::new(key), Arc::new(|_| 1), "count")
    }

    /// Sums `value` per group (weighted by derivations); output rows
    /// are `key ++ sum`.
    pub fn sum(
        &mut self,
        input: Node,
        key: impl Fn(&Row) -> Row + Send + Sync + 'static,
        value: impl Fn(&Row) -> i64 + Send + Sync + 'static,
    ) -> Node {
        self.aggregate(input, Arc::new(key), Arc::new(value), "sum")
    }

    fn aggregate(&mut self, input: Node, key: RowFn, value: ValueFn, label: &str) -> Node {
        self.check(input);
        let groups = HashMap::new();
        self.push(OpState::Sum { input: input.0, key, value, groups }, label.into())
    }

    /// Minimum of `value` per group; output rows are `key ++ min`.
    /// Retracting a group's current minimum re-scans that group's
    /// surviving values (the fallback); every other change is O(1)
    /// per entry.
    pub fn min(
        &mut self,
        input: Node,
        key: impl Fn(&Row) -> Row + Send + Sync + 'static,
        value: impl Fn(&Row) -> i64 + Send + Sync + 'static,
    ) -> Node {
        self.extreme(input, Extremum::Min, Arc::new(key), Arc::new(value))
    }

    /// Maximum of `value` per group — see [`Self::min`].
    pub fn max(
        &mut self,
        input: Node,
        key: impl Fn(&Row) -> Row + Send + Sync + 'static,
        value: impl Fn(&Row) -> i64 + Send + Sync + 'static,
    ) -> Node {
        self.extreme(input, Extremum::Max, Arc::new(key), Arc::new(value))
    }

    fn extreme(&mut self, input: Node, kind: Extremum, key: RowFn, value: ValueFn) -> Node {
        self.check(input);
        let label = if kind == Extremum::Min { "min" } else { "max" };
        self.push(
            OpState::Extreme {
                input: input.0,
                key,
                value,
                kind,
                groups: HashMap::new(),
                rescans: 0,
            },
            label.into(),
        )
    }

    /// Subscribes every source, seeds every derived store from the
    /// views' current contents, and returns the running circuit,
    /// synced to
    /// [`Database::last_seq`](xivm_core::database::DbInner::last_seq).
    ///
    /// The source subscriptions are **unbounded**
    /// ([`SlowConsumerPolicy::Block`] without a capacity), whatever the
    /// database's default subscription capacity: only [`Circuit::sync`]
    /// drains them, and it runs on the thread that commits, so a bound
    /// would block that thread's next commit on a queue only it can
    /// empty.
    pub fn build(self) -> Circuit {
        let CircuitBuilder { db, mut nodes } = self;
        for slot in &mut nodes {
            if let OpState::Source(src) = &mut slot.op {
                src.sub = Some(db.subscribe_with(src.view, None, SlowConsumerPolicy::Block));
            }
        }
        let mut circuit = Circuit { nodes, synced: db.last_seq() };
        circuit.seed(&|view| db.store(view));
        circuit
    }
}

/// A running delta circuit: one [`DerivedStore`] per node, maintained
/// from the subscribed views' changefeeds.
///
/// A circuit holds live subscriptions on its database; call
/// [`Self::detach`] when done with it so the database stops queueing
/// events for it. It is only meaningful with the database that built
/// it — syncing against another panics on the first sequence-number
/// mismatch.
pub struct Circuit {
    nodes: Vec<NodeSlot>,
    synced: u64,
}

impl Circuit {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The commit sequence number the derived stores reflect: every
    /// commit `1..=synced()` is folded in, nothing later.
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// Every node of the circuit, in creation (= topological) order —
    /// aligned with [`Self::recompute`]'s output by
    /// [`Node::index`].
    pub fn nodes(&self) -> Vec<Node> {
        (0..self.nodes.len()).map(Node).collect()
    }

    /// A node's materialized contents.
    pub fn store(&self, node: Node) -> &DerivedStore {
        &self.nodes[node.0].store
    }

    /// A node's contents in [`Row`]'s total order, as the store keeps
    /// them.
    pub fn rows(&self, node: Node) -> &[(Row, i64)] {
        self.nodes[node.0].store.rows()
    }

    /// A node's display label (`source(name)`, `filter`, `join`, …).
    pub fn label(&self, node: Node) -> &str {
        &self.nodes[node.0].label
    }

    /// Number of re-scan fallbacks a `min`/`max` node has paid so far
    /// (`None` for other operators) — the observable cost of
    /// extremum retraction.
    pub fn rescans(&self, node: Node) -> Option<u64> {
        self.nodes[node.0].op.rescans()
    }

    /// One line per node: index, label, inputs — a textual picture of
    /// the DAG.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, slot) in self.nodes.iter().enumerate() {
            let inputs = slot.op.inputs();
            if inputs.is_empty() {
                out.push_str(&format!("n{i}: {}\n", slot.label));
            } else {
                let from: Vec<String> = inputs.iter().map(|j| format!("n{j}")).collect();
                out.push_str(&format!("n{i}: {} <- {}\n", slot.label, from.join(", ")));
            }
        }
        out
    }

    /// Catches up with every commit the database has sealed:
    /// equivalent to `sync_to(db, db.last_seq())`.
    pub fn sync(&mut self, db: &mut Database) -> u64 {
        self.sync_to(db, db.last_seq())
    }

    /// A commit barrier: folds in every pending commit with sequence
    /// number ≤ `seq` (later commits stay buffered), so the derived
    /// stores are readable *at* a known commit boundary — e.g. the
    /// [`DatabaseSnapshot::seq`] of a snapshot taken earlier, pairing
    /// frozen base-view reads with derived stores at the same seq.
    /// Commits seal strictly in order, so after any number of commits
    /// a barrier at any intermediate seq reproduces exactly that
    /// prefix; the source subscriptions are unbounded
    /// ([`CircuitBuilder::build`]), so those commits never wait for the
    /// sync. Returns the new [`Self::synced`] (which
    /// never exceeds
    /// [`Database::last_seq`](xivm_core::database::DbInner::last_seq),
    /// nor moves backwards).
    ///
    /// If any source subscription *lagged* — the sources subscribe with
    /// [`SlowConsumerPolicy::Block`], so
    /// the one cause is recovery from a panicked async window, which
    /// marks the feeds of a deferred view whose pending batch its
    /// recomputed store absorbed — the incremental replay is
    /// impossible, so the whole circuit re-seeds from a fresh
    /// [`Database::snapshot`](xivm_core::database::DbInner::snapshot)
    /// instead: every derived store
    /// is rebuilt at the snapshot boundary, and the returned
    /// [`Self::synced`] is the snapshot's seq — which may *overshoot*
    /// the requested `seq`, the price of the dropped prefix.
    pub fn sync_to(&mut self, db: &mut Database, seq: u64) -> u64 {
        let mut lagged = false;
        for slot in &mut self.nodes {
            if let OpState::Source(src) = &mut slot.op {
                let sub = src.sub.as_ref().expect("circuit not detached");
                for event in sub.drain() {
                    match event {
                        FeedEvent::Delta(e) => src.buffer.push_back(e),
                        FeedEvent::Lagged(_) => lagged = true,
                    }
                }
            }
        }
        if lagged {
            return self.reseed_from_snapshot(db);
        }
        let target = seq.min(db.last_seq());
        while self.synced < target {
            let next = self.synced + 1;
            let mut seeds: Vec<Option<RowDelta>> = Vec::with_capacity(self.nodes.len());
            for slot in &mut self.nodes {
                seeds.push(match &mut slot.op {
                    OpState::Source(src) => {
                        let event = src.buffer.pop_front().unwrap_or_else(|| {
                            panic!("no event for commit {next}: circuit synced against a database that did not build it")
                        });
                        assert_eq!(
                            event.seq, next,
                            "subscription feed out of sequence: circuit synced against a database that did not build it"
                        );
                        Some(src.advance(&event.delta, &slot.store))
                    }
                    _ => None,
                });
            }
            self.propagate(seeds);
            self.synced = next;
        }
        self.synced
    }

    /// Lag recovery: rebuilds the whole circuit at a fresh snapshot
    /// boundary, through [`Self::seed`] — so the recovered circuit is
    /// bit-identical to one built at that seq.
    fn reseed_from_snapshot(&mut self, db: &mut Database) -> u64 {
        let snap = db.snapshot();
        for slot in &mut self.nodes {
            if let OpState::Source(src) = &mut slot.op {
                src.buffer.clear();
                // Anything still queued at or below the snapshot seq
                // is already inside the snapshot; a second Lagged
                // marker is subsumed by the reseed.
                if let Some(sub) = src.sub.as_ref() {
                    for event in sub.drain() {
                        if let FeedEvent::Delta(e) = event {
                            if e.seq > snap.seq() {
                                src.buffer.push_back(e);
                            }
                        }
                    }
                }
            }
        }
        self.seed(&|view| snap.store(view));
        self.synced = snap.seq();
        self.synced
    }

    /// Discards every node's store and incremental state, then pushes
    /// each source view's full contents through the same incremental
    /// step functions a commit takes (incremental from empty ≡ full
    /// evaluation).
    fn seed<'a>(&mut self, store_of: &dyn Fn(ViewHandle) -> &'a ViewStore) {
        let mut seeds = Vec::with_capacity(self.nodes.len());
        for slot in &mut self.nodes {
            slot.store = DerivedStore::new();
            slot.op.reset();
            seeds.push(match &slot.op {
                OpState::Source(src) => Some(RowDelta::new(view_rows(store_of(src.view)))),
                _ => None,
            });
        }
        self.propagate(seeds);
    }

    /// One in-order pass: every node consumes its inputs' deltas for
    /// this commit, applies its own output delta to its store, and
    /// hands it downstream. Creation order is a topological order, so
    /// a single pass settles the whole DAG.
    fn propagate(&mut self, mut seeds: Vec<Option<RowDelta>>) {
        let mut deltas: Vec<RowDelta> = Vec::with_capacity(self.nodes.len());
        for (slot, seed) in self.nodes.iter_mut().zip(&mut seeds) {
            let delta = match &mut slot.op {
                OpState::Source(_) => seed.take().unwrap_or_default(),
                op => op.step(&deltas),
            };
            slot.store.apply(&delta);
            deltas.push(delta);
        }
    }

    /// Evaluates every node from scratch against the database's
    /// current stores — the non-incremental oracle the property suite
    /// compares [`Self::store`] against (bit-identical at every
    /// commit).
    pub fn recompute(&self, db: &Database) -> Vec<DerivedStore> {
        self.recompute_with(&|view| db.store(view))
    }

    /// Like [`Self::recompute`], but against a frozen
    /// [`DatabaseSnapshot`] — pair with `sync_to(db, snapshot.seq())`
    /// to check derived stores at a snapshot boundary.
    pub fn recompute_at(&self, snapshot: &DatabaseSnapshot) -> Vec<DerivedStore> {
        self.recompute_with(&|view| snapshot.store(view))
    }

    fn recompute_with<'a>(
        &self,
        store_of: &dyn Fn(ViewHandle) -> &'a ViewStore,
    ) -> Vec<DerivedStore> {
        let mut out: Vec<DerivedStore> = Vec::with_capacity(self.nodes.len());
        for slot in &self.nodes {
            let raw: Vec<(Row, i64)> = match &slot.op {
                OpState::Source(src) => view_rows(store_of(src.view)),
                OpState::Filter { input, pred } => out[*input]
                    .iter()
                    .filter(|(r, _)| pred(r))
                    .map(|(r, w)| (r.clone(), w))
                    .collect(),
                OpState::Map { input, f } => out[*input].iter().map(|(r, w)| (f(r), w)).collect(),
                OpState::Join(j) => {
                    let mut by_key: HashMap<Row, Vec<(&Row, i64)>> = HashMap::new();
                    for (s, w) in out[j.right].iter() {
                        by_key.entry((j.right_key)(s)).or_default().push((s, w));
                    }
                    let mut raw = Vec::new();
                    for (r, w) in out[j.left].iter() {
                        if let Some(matches) = by_key.get(&(j.left_key)(r)) {
                            for (s, w2) in matches {
                                raw.push((r.concat(s), w * w2));
                            }
                        }
                    }
                    raw
                }
                OpState::Sum { input, key, value, .. } => {
                    let mut groups: HashMap<Row, (i64, i64)> = HashMap::new();
                    for (r, w) in out[*input].iter() {
                        let e = groups.entry(key(r)).or_insert((0, 0));
                        e.0 += w;
                        e.1 += w * value(r);
                    }
                    groups
                        .into_iter()
                        .filter(|(_, (c, _))| *c > 0)
                        .map(|(k, (_, s))| (k.with(crate::row::Datum::Int(s)), 1))
                        .collect()
                }
                OpState::Extreme { input, key, value, kind, .. } => {
                    let mut groups: HashMap<Row, i64> = HashMap::new();
                    for (r, w) in out[*input].iter() {
                        debug_assert!(w > 0, "store weights are positive");
                        let v = value(r);
                        groups
                            .entry(key(r))
                            .and_modify(|best| *best = kind.pick(*best, v))
                            .or_insert(v);
                    }
                    groups
                        .into_iter()
                        .map(|(k, best)| (k.with(crate::row::Datum::Int(best)), 1))
                        .collect()
                }
            };
            let mut store = DerivedStore::new();
            store.apply(&RowDelta::new(raw));
            out.push(store);
        }
        out
    }

    /// Cancels the circuit's subscriptions so the database stops
    /// queueing events for it. The derived stores remain readable but
    /// frozen at [`Self::synced`].
    pub fn detach(mut self, db: &mut Database) {
        for slot in &mut self.nodes {
            if let OpState::Source(src) = &mut slot.op {
                if let Some(sub) = src.sub.take() {
                    db.unsubscribe(sub);
                }
            }
        }
    }
}
