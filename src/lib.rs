//! # xivm — incremental maintenance of XML materialized views
//!
//! A reproduction of the EDBT'11 algebraic view-maintenance engine,
//! fronted by one owned façade: [`Database`] holds the document and
//! every named view, and keeps them in sync under XQuery-Update
//! statements without recomputation.
//!
//! ```
//! use xivm::prelude::*;
//! use xivm::update::builder::{element, insert};
//!
//! let mut db = Database::builder()
//!     .document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>")
//!     .view("acb", "//a{id}[//c{id}]//b{id}")
//!     .build()?;
//!
//! let acb = db.view("acb")?;
//! assert_eq!(db.store(acb).len(), 8);
//!
//! // Subscribe before committing: every commit appends this view's
//! // delta (tagged with the commit sequence number) to the feed.
//! let feed = db.subscribe(acb);
//!
//! // One statement: parsed, propagated to every view incrementally.
//! // The returned `Commit` carries the exact per-view delta.
//! let commit = db.apply("delete /a/f/c")?;
//! assert_eq!(commit.seq, 1);
//! assert_eq!(commit.delta(acb).rows().iter().map(|(_, w)| w).sum::<i64>(), -5);
//! assert_eq!(db.store(acb).len(), 3);
//!
//! // Typed statements: no stringly-typed round-trip.
//! db.apply(insert(element("b")).into("/a/c"))?;
//!
//! // Many statements: batched through the Section 5 PUL optimizer
//! // into one optimized PUL and a single propagation pass.
//! let commit = db
//!     .transaction()
//!     .statement("insert <b/> into /a/c")
//!     .statement("delete /a/c")
//!     .commit()?;
//! assert!(commit.optimized_ops < commit.naive_ops);
//!
//! // Or one commit per submission through the async commit service:
//! // `apply_async` returns a ticket at once, `flush` waits until
//! // everything submitted has sealed, in order.
//! for s in ["insert <b/> into /a/f", "delete /a/f"] {
//!     db.apply_async([s])?;
//! }
//! db.flush()?;
//! assert_eq!(db.last_seq(), 5);
//!
//! // The changefeed: one event per commit, gapless sequence numbers,
//! // O(|delta|) per event — never a store clone.
//! let events = db.drain(&feed);
//! assert_eq!(events.len(), 5);
//! assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
//! # Ok::<(), xivm::Error>(())
//! ```
//!
//! Everything the façade returns is typed: views are addressed by
//! [`ViewHandle`], mutations report as [`Commit`]s carrying per-view
//! [`ViewDelta`]s, failures are the workspace-wide [`Error`] enum
//! (`Xml`, `Pattern`, `Statement`, `Conflict`, `UnknownView`, …).
//!
//! Every commit — one
//! [`Database::apply`](xivm_core::database::DbInner::apply), one
//! transaction, or each submission the async service drains — is
//! planned, propagated in place and sealed before the next is planned:
//! one PUL, one document apply, then each view's own phases one view
//! after another on the committing thread (see [`core::multiview`]).
//! Async commits are bit-identical to the same submissions committed
//! synchronously, which the differential soak harness
//! (`tests/soak.rs`) verifies.
//! [`Database::snapshot`](xivm_core::database::DbInner::snapshot)
//! freezes the document as a copy-on-write image into
//! a [`DatabaseSnapshot`] readers can hold — cursors, stores and
//! XPath against a gapless commit boundary — without ever blocking a
//! commit.
//!
//! For a server front-end, `Database::apply_async` decouples
//! submission from sealing: it validates, reserves a sequence number
//! and returns a [`Ticket`] immediately while a background service
//! thread seals commits strictly in order through the same commit
//! executor every synchronous front-end uses — each time it wakes it
//! seals its whole drained queue as one window, under one recovery
//! image, whatever the submissions' shapes, so single-,
//! multi-statement and empty submissions share windows.
//! Await one commit with [`Ticket::wait`], everything with
//! `Database::flush`, or a specific seq with
//! `Database::commit_barrier`. Subscription queues can be bounded
//! (`.subscription_capacity(n)` / `XIVM_SUB_CAPACITY`) with a
//! per-subscription [`SlowConsumerPolicy`] — block the producer, drop
//! oldest and mark the stream with an exact [`Lagged`] range, or
//! disconnect — so a stalled reader never wedges the commit path
//! (see [`core::service`] and [`core::subscribe`]).
//!
//! ## Migrating from the low-level engine API
//!
//! The plumbing stays public (the bench targets and the paper's
//! figure runners use it), but applications should not need it:
//!
//! | pre-`Database` call | façade equivalent |
//! |---|---|
//! | `parse_document(xml)?` + owning a `Document` | `Database::builder().document(xml)` |
//! | `parse_pattern(p)?` + `MaintenanceEngine::new(&doc, p, strat)` | `.view(name, p)` / `.view_with_strategy(name, p, strat)` |
//! | `MultiViewEngine::new(&doc, views)` | one builder with several `.view(..)` calls |
//! | `engine.apply_statement(&mut doc, &parse_statement(s)?)?` | `db.apply(s)?` |
//! | `compute_pul` + `pulopt::reduce` + `propagate_pul` | `db.transaction().statement(..)...commit()?` |
//! | `engine.store()` | `db.store(db.view(name)?)` |
//! | `XmlError` for every failure | [`Error`] with per-class variants |
//!
//! | removed propagation entry | what to do instead |
//! |---|---|
//! | `MaintenanceEngine::apply_statement(&mut doc, &stmt)` | `compute_pul(&doc, &stmt)` + a one-view `MultiViewEngine::propagate_pul`, or `db.apply(stmt)?` |
//! | `MaintenanceEngine::propagate_pul(&mut doc, &pul)` | a one-view `MultiViewEngine::propagate_pul(&mut doc, &pul)` (`MultiViewEngine::from_engines` wraps an engine), or `db.apply(..)?` |
//! | `MultiViewEngine::apply_statement(&mut doc, &stmt)` | `compute_pul(&doc, &stmt)` + `MultiViewEngine::propagate_pul`, or `db.apply(stmt)?` |
//!
//! `MultiViewEngine::propagate_pul` is the one public propagation entry
//! point left outside the façade: one call of the same in-place step
//! the façade's commit executor drives, so a façade commit is
//! bit-identical to it. `MaintenanceEngine` is one view's state and its
//! `finish`; it applies no PUL.
//!
//! | changed in the substrate | what to do |
//! |---|---|
//! | `Node::text: Option<String>` is `Option<Arc<str>>` (copies share one string) | nothing for readers that use `node.text.as_deref()`; build one with `Some(s.into())` |
//! | `Node` has a new field, `depth: u16` (0 at the root, the parent's + 1 below it) | set it in a hand-built `Node` literal; nodes the `Document` builds get it at push |
//! | `ApplyResult::deleted` under `DeltaLabels::of` counts every named label's removed nodes but holds IDs only for witness and predicate labels | `deleted.count(label)` for how many; `apply_pul` (`DeltaLabels::all()`) still builds every ID, and `DeltaMinus::complete` needs it |
//! | `DocumentEdit::graft(parent, &mut template, last)` | `graft(parent, &template)`: every copy shares the template's strings |
//!
//! | removed knob | what to do instead |
//! |---|---|
//! | `runtime::MAX_PIPELINE_DEPTH`, `runtime::clamp_pipeline`, `runtime::env_pipeline`, `runtime::effective_pipeline`, `XIVM_PIPELINE` | nothing: there is no pipeline depth |
//! | `Database::pipeline_depth()`, `Database::set_pipeline(depth)` | nothing: the async service seals each drained queue as one window; `.pipeline(depth)` is still accepted and ignored |
//! | `Database::apply_pipelined(statements)` | a loop of `db.apply(s)?` — the same commits, one per statement — or one `db.apply_async([s])?` per statement and a `db.flush()?` |
//! | `XIVM_WORKERS` | nothing: the views propagate one after another on the committing thread |
//! | `core::runtime::{Runtime, effective_workers, env_workers}` (and `parallel::{effective_workers, env_workers}`) | nothing: there is no worker pool |
//! | `Database::workers()`, `MultiViewEngine::workers()` | nothing: `.workers(n)` / `set_workers(n)` are still accepted and ignored, and `threads_spawned()` is always 0 |
//! | `MaintenanceEngine::{use_delta_pruning, use_id_pruning}`, `TermContext::{use_delta_pruning, use_id_pruning}` | `dynamic_pruning`, both prunings at once |
//! | `UpdateReport::statically_skipped`, `UpdateReport::skipped()` | `UpdateReport::irrelevant`: no commit skips a view on a static verdict; the dynamic exit skips it |
//! | `Database::conflict_scans_skipped()` | nothing: `transaction().independent()` always runs the Figure 15 pairwise scan |
//! | `Commit::static_skips()` (still accepted, always 0) | `Commit::work().dynamic_skips` |
//! | `Commit::dynamic_skips()`, `Commit::prune_totals()` | `Commit::work().dynamic_skips`; the per-view `UpdateReport::{insert_prune, delete_prune}` |
//!
//! ## Migrating from the string-first façade (pre-delta API)
//!
//! | pre-delta call | delta-first equivalent |
//! |---|---|
//! | `db.apply(s)? : Vec<(String, UpdateReport)>` | `db.apply(s)? : Commit` — per-view reports via `commit.report(h)` / `commit.iter()` |
//! | `db.report_for(&reports, h)` | `commit.report(h)` / `commit.report_by_name(name)` |
//! | `tx.commit()? : TransactionReport` | `tx.commit()? : Commit` (same counters, plus `seq` and per-view deltas) |
//! | re-reading `db.store(h)` and diffing after a commit | `commit.delta(h)` — replayable, O(\|Δ\|) |
//! | polling stores for changes | `db.subscribe(h)` + `db.drain(&sub)` |
//! | `db.store(h).sorted_tuples()` / `.iter()` / `.keys()` (gone: the store is kept in document order) | `db.cursor(h)` — a borrow of the rows, nothing sorted or cloned |
//! | `store.add(t, c)` / `store.remove_derivations(&k, c)` / `store.tuple_mut(&k)`, then `store.absorb(run)` / `store.remove(&run)` / `store.replace(&t)` | `store.patch(&run)` — the one writer, what `delta.replay(&mut store)` calls |
//! | `delta.inserted` / `delta.removed` / `delta.modified` (and the weighted iterator and the ID-vector key type that read them) | `delta.rows(): &[(Tuple, i64)]` — one run in document order: weight `> 0` derivations gained, `< 0` lost (the tuple carries IDs only), `0` stored text changed; `store.get(&tuple)` looks a key up by a tuple's IDs |
//! | `format!("insert {xml} into {path}")` | `insert(element(..)).into(path)` — see [`update::builder`] |
//!
//! ## Static analysis
//!
//! With a DTD on the builder (`.dtd(text)`) and `.analyze(mode)`,
//! [`analyze`] lints the catalog once at `build()`: dead views
//! (unsatisfiable against the schema) become findings that fail
//! `AnalyzeMode::Strict` builds, and the static relevance matrix is
//! recorded on `analysis_report()`. No commit consults the analyzer.
//! Its verdicts hold only for DTD-conforming documents, and nothing
//! checks conformance; a view an update cannot touch is skipped by the
//! engine's dynamic relevance exit instead (`Commit::work().dynamic_skips`),
//! which needs no DTD and is exact on every document.
//! `tests/analyze_soundness.rs` checks that the exit takes every skip a
//! verdict would allow. `cargo run --example analyze_lint` runs the
//! same checks as a CI gate over the XMark catalog.
//!
//! ## Replication & deferred views
//!
//! [`feed`] replicates a view's changefeed over a socket: a
//! [`FeedServer`] frames every commit's [`DeltaEvent`] with the
//! snapshot codec and a [`ReplicaClient`] in another process
//! maintains a byte-identical copy of the store, resuming after
//! disconnects from its high-water mark (bounded replay window, full
//! snapshot fallback). Views declared with `.view_deferred(..)` (or
//! switched with `set_maintenance`) batch their maintenance out of
//! the commit path entirely: `db.refresh(view)` folds the
//! accumulated PULs in one propagation pass sealed as its own
//! commit, whose event carries the coalesced delta plus the exact
//! [`DeltaEvent::folded`] commit range — feeds, circuits and
//! replicas stay gapless throughout.
//!
//! The member crates remain available under their re-exported names:
//! [`xml`], [`algebra`], [`pattern`], [`update`], [`core`],
//! [`pulopt`], [`dtd`], [`xmark`], [`ivma`], [`analyze`], [`feed`].

#![forbid(unsafe_code)]

pub use xivm_algebra as algebra;
pub use xivm_analyze as analyze;
pub use xivm_circuit as circuit;
pub use xivm_core as core;
pub use xivm_dtd as dtd;
pub use xivm_feed as feed;
pub use xivm_ivma as ivma;
pub use xivm_pattern as pattern;
pub use xivm_pulopt as pulopt;
pub use xivm_update as update;
pub use xivm_xmark as xmark;
pub use xivm_xml as xml;

pub use xivm_core::{
    AnalysisReport, AnalyzeMode, Analyzer, Commit, Database, DatabaseBuilder, DatabaseSnapshot,
    DeltaEvent, Error, FeedEvent, Lagged, MaintenanceMode, SlowConsumerPolicy, Subscription,
    Ticket, Transaction, ViewDelta, ViewHandle,
};
pub use xivm_feed::{FeedServer, ReplicaClient};

/// One-stop imports for applications built on the [`Database`] façade.
///
/// ```
/// use xivm::prelude::*;
/// ```
pub mod prelude {
    pub use xivm_circuit::{
        Circuit, CircuitBuilder, CircuitExt, Datum, DerivedStore, Row, RowDelta,
    };
    pub use xivm_core::database::{Database, DatabaseBuilder, Transaction, ViewHandle};
    pub use xivm_core::{
        AnalysisReport, AnalyzeMode, Analyzer, Commit, DatabaseSnapshot, DeltaEvent, Error,
        FeedEvent, Lagged, MaintenanceEngine, MaintenanceMode, MultiViewEngine, SlowConsumerPolicy,
        SnowcapStrategy, Subscription, Ticket, UpdateReport, ViewDelta, ViewStore,
    };
    pub use xivm_feed::{FeedError, FeedServer, ReplicaClient};
    pub use xivm_pattern::{parse_pattern, TreePattern};
    pub use xivm_pulopt::ConflictPolicy;
    pub use xivm_update::builder::{element, UpdateBuilder};
    pub use xivm_update::statement::parse_statement;
    pub use xivm_update::UpdateStatement;
    pub use xivm_xml::{parse_document, serialize_document, Document};
}
