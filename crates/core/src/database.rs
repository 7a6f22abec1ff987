//! The `Database` façade: one owned document, many named views,
//! batched transactions through the PUL optimizer, and deltas as
//! first-class outputs.
//!
//! The lower layers expose the paper's plumbing — callers thread a
//! `&mut Document` through every [`MaintenanceEngine`] call and hold
//! the view stores themselves. [`Database`] owns both sides: the
//! document and every materialized view live inside it, updates go in
//! as statement text or typed builders, and each view is addressed
//! through a typed [`ViewHandle`] or its name.
//!
//! Every mutation returns a [`Commit`]: a sequence number plus, per
//! view, the [`UpdateReport`](crate::engine::UpdateReport) and the exact
//! [`ViewDelta`](crate::commit::ViewDelta) propagation computed —
//! consumers read O(|Δ|) per commit instead of re-diffing stores, and
//! [`Database::subscribe`] turns that into a changefeed.
//!
//! ```
//! use xivm_core::database::Database;
//! use xivm_update::builder::{element, insert};
//!
//! let mut db = Database::builder()
//!     .document("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>")
//!     .view("acb", "//a{id}[//c{id}]//b{id}")
//!     .build()
//!     .unwrap();
//! let acb = db.view("acb").unwrap();
//! assert_eq!(db.store(acb).len(), 8);
//!
//! let commit = db.apply("delete /a/f/c").unwrap();
//! assert_eq!(commit.seq, 1);
//! assert_eq!(commit.delta(acb).rows().iter().map(|(_, w)| w).sum::<i64>(), -5);
//! assert_eq!(db.store(acb).len(), 3);
//!
//! // Typed statements skip the stringly round-trip entirely:
//! db.apply(insert(element("b")).into("/a/c")).unwrap();
//!
//! // Several statements batched through the Section 5 PUL optimizer:
//! // one optimized PUL, one shared propagation pass over all views.
//! let commit = db
//!     .transaction()
//!     .statement("insert <b/> into /a/c")
//!     .statement("delete /a/c")
//!     .commit()
//!     .unwrap();
//! assert!(commit.optimized_ops < commit.naive_ops);
//! assert_eq!(commit.seq, 3);
//! ```

use crate::commit::Commit;
use crate::engine::{MaintenanceEngine, SnowcapStrategy};
use crate::error::Error;
use crate::executor::Batch;
use crate::multiview::MultiViewEngine;
use crate::service::{ServiceHandle, Ticket};
use crate::snapshot::DatabaseSnapshot;
use crate::subscribe::{DeltaEvent, SlowConsumerPolicy, Subscription, SubscriptionRegistry};
use crate::view_store::{Cursor, ViewStore};
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;
use xivm_analyze::{AnalysisReport, AnalyzeMode, Analyzer};
use xivm_dtd::{parse_dtd, Dtd};
use xivm_pattern::{parse_pattern, TreePattern};
use xivm_pulopt::ConflictPolicy;
use xivm_update::builder::UpdateBuilder;
use xivm_update::statement::parse_statement;
use xivm_update::{Pul, UpdateStatement};
use xivm_xml::{check_forest, parse_document, serialize_document, Document};

// ---------------------------------------------------------------------
// Deferred inputs: the builder accepts text or ready-made values and
// parses at `build()` time, so chaining stays `?`-free.
// ---------------------------------------------------------------------

/// A document given to the builder: XML text or an already-parsed
/// [`Document`] (e.g. from the XMark generator). Converts via
/// `From<&str>`, `From<String>` and `From<Document>`.
pub enum DocumentSource {
    Xml(String),
    Ready(Box<Document>),
}

impl From<&str> for DocumentSource {
    fn from(xml: &str) -> Self {
        DocumentSource::Xml(xml.to_owned())
    }
}

impl From<String> for DocumentSource {
    fn from(xml: String) -> Self {
        DocumentSource::Xml(xml)
    }
}

impl From<Document> for DocumentSource {
    fn from(doc: Document) -> Self {
        DocumentSource::Ready(Box::new(doc))
    }
}

/// A DTD given to the builder: grammar text (the [`parse_dtd`] rule
/// dialect) or an already-parsed [`Dtd`]. Converts via `From<&str>`,
/// `From<String>` and `From<Dtd>`.
pub enum DtdSource {
    Text(String),
    Ready(Box<Dtd>),
}

impl From<&str> for DtdSource {
    fn from(text: &str) -> Self {
        DtdSource::Text(text.to_owned())
    }
}

impl From<String> for DtdSource {
    fn from(text: String) -> Self {
        DtdSource::Text(text)
    }
}

impl From<Dtd> for DtdSource {
    fn from(dtd: Dtd) -> Self {
        DtdSource::Ready(Box::new(dtd))
    }
}

/// A view pattern given to the builder: pattern text (the
/// [`parse_pattern()`] dialect) or a ready-made [`TreePattern`].
/// Converts via `From<&str>`, `From<String>` and `From<TreePattern>`.
pub enum PatternSource {
    Text(String),
    Ready(TreePattern),
}

impl From<&str> for PatternSource {
    fn from(text: &str) -> Self {
        PatternSource::Text(text.to_owned())
    }
}

impl From<String> for PatternSource {
    fn from(text: String) -> Self {
        PatternSource::Text(text)
    }
}

impl From<TreePattern> for PatternSource {
    fn from(pattern: TreePattern) -> Self {
        PatternSource::Ready(pattern)
    }
}

/// A statement given to [`Database::apply`](DbInner::apply) or
/// [`Transaction::statement`]: statement text (the [`parse_statement`]
/// forms), a ready-made [`UpdateStatement`], or a typed
/// [`UpdateBuilder`] from [`xivm_update::builder`]. Converts via
/// `From<&str>`, `From<String>`, `From<UpdateStatement>`,
/// `From<&UpdateStatement>` and `From<UpdateBuilder>`.
pub enum StatementSource {
    Text(String),
    Ready(UpdateStatement),
    Built(UpdateBuilder),
}

impl From<&str> for StatementSource {
    fn from(text: &str) -> Self {
        StatementSource::Text(text.to_owned())
    }
}

impl From<String> for StatementSource {
    fn from(text: String) -> Self {
        StatementSource::Text(text)
    }
}

impl From<UpdateStatement> for StatementSource {
    fn from(stmt: UpdateStatement) -> Self {
        StatementSource::Ready(stmt)
    }
}

impl From<&UpdateStatement> for StatementSource {
    fn from(stmt: &UpdateStatement) -> Self {
        StatementSource::Ready(stmt.clone())
    }
}

impl From<UpdateBuilder> for StatementSource {
    fn from(builder: UpdateBuilder) -> Self {
        StatementSource::Built(builder)
    }
}

fn resolve_statement(source: StatementSource) -> Result<UpdateStatement, Error> {
    let stmt = match source {
        StatementSource::Text(text) => parse_statement(&text)?,
        StatementSource::Ready(stmt) => stmt,
        StatementSource::Built(builder) => builder.build()?,
    };
    // An insertion's forest is raw XML carried until apply time, and
    // `apply-pul` is not atomic: a forest that fails to parse midway
    // would leave the document mutated with no view maintained.
    // Rejecting it here keeps the façade's no-drift guarantee on every
    // path (`apply`, sequential and independent transactions).
    if let UpdateStatement::Insert { xml, .. } | UpdateStatement::Replace { xml, .. } = &stmt {
        check_forest(xml)?;
    }
    Ok(stmt)
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

struct ViewSpec {
    name: String,
    pattern: PatternSource,
    strategy: SnowcapStrategy,
    deferred: bool,
}

/// When a view's maintenance runs relative to the commit that changes
/// the document — see [`DbInner::set_maintenance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// The view is maintained inside the committing transaction: its
    /// store reflects every commit the moment the commit seals. The
    /// default.
    #[default]
    Immediate,
    /// The view's maintenance is *deferred*: commits leave its store
    /// untouched (their events carry an empty delta for it, honestly —
    /// the store did not change) while the per-commit PULs accumulate
    /// through the Figure 16 aggregation rules. A later
    /// [`DbInner::refresh`] folds the whole batch in **one**
    /// propagation pass and seals it as its own commit, whose single
    /// [`DeltaEvent`] carries the coalesced delta plus
    /// [`DeltaEvent::folded`] naming exactly the commits it covers.
    /// Commit latency drops because the view leaves the commit path;
    /// reads of its store are stale until the next refresh.
    Deferred,
}

/// The accumulated state of one deferred view between refreshes: the
/// document version its last-maintained store corresponds to, plus
/// the aggregated PUL (Figure 16) that replays every commit since.
pub(crate) struct DeferredPending {
    /// The document as of the last commit this view was maintained
    /// against (copy-on-write clone — O(chunks), shares all nodes).
    pub(crate) base: Document,
    /// Aggregation of every deferred commit's PUL over `base`.
    pub(crate) pul: Pul,
    /// Sum of the folded commits' optimized op counts (becomes the
    /// refresh commit's `naive_ops`, so its reduction ratio is
    /// honest).
    pub(crate) naive_ops: usize,
    /// Sequence number of the first commit in the batch.
    pub(crate) first_seq: u64,
    /// Commits folded so far ([`DbInner::deferred_commits`]).
    pub(crate) commits: u64,
}

/// Builder for [`Database`] — see [`Database::builder`]. Views use
/// [`SnowcapStrategy::MinimalChain`] unless declared through
/// [`Self::view_with_strategy`].
pub struct DatabaseBuilder {
    document: Option<DocumentSource>,
    views: Vec<ViewSpec>,
    sub_capacity: Option<usize>,
    dtd: Option<DtdSource>,
    analyze: AnalyzeMode,
}

impl Default for DatabaseBuilder {
    fn default() -> Self {
        DatabaseBuilder {
            document: None,
            views: Vec::new(),
            sub_capacity: None,
            dtd: None,
            analyze: AnalyzeMode::Off,
        }
    }
}

impl DatabaseBuilder {
    /// Sets the document (XML text or a parsed [`Document`]). Required.
    pub fn document(mut self, doc: impl Into<DocumentSource>) -> Self {
        self.document = Some(doc.into());
        self
    }

    /// Declares the DTD the catalog is linted against (grammar text or
    /// a parsed [`Dtd`]). Optional; it sharpens the build-time lint
    /// [`Self::analyze`] enables — a view pattern no conforming
    /// document can match is found only with one — but the analyzer
    /// degrades gracefully to label-alphabet reasoning without it.
    /// Nothing checks the document or a statement against it, and no
    /// commit reads it. Parse errors surface at [`Self::build`].
    pub fn dtd(mut self, dtd: impl Into<DtdSource>) -> Self {
        self.dtd = Some(dtd.into());
        self
    }

    /// Lints the (DTD, view catalog) pair once, at [`Self::build`] —
    /// see [`xivm_analyze`]. Under [`AnalyzeMode::Warn`] the findings
    /// are recorded on [`DbInner::analysis_report`];
    /// [`AnalyzeMode::Strict`] additionally fails the build with
    /// [`Error::Analysis`] on error-severity findings (views that can
    /// never hold a tuple). The default is [`AnalyzeMode::Off`]: no
    /// lint.
    ///
    /// The lint is all it does: no commit consults the analyzer. A
    /// view a statement cannot touch is skipped by the engine's
    /// dynamic relevance exit ([`Commit::work`]'s `dynamic_skips`), which needs
    /// no DTD and holds whether or not the document conforms, so
    /// commits, stores and subscription streams are the same in every
    /// mode.
    pub fn analyze(mut self, mode: AnalyzeMode) -> Self {
        self.analyze = mode;
        self
    }

    fn push_view(
        mut self,
        name: impl Into<String>,
        pattern: impl Into<PatternSource>,
        strategy: SnowcapStrategy,
        deferred: bool,
    ) -> Self {
        self.views.push(ViewSpec {
            name: name.into(),
            pattern: pattern.into(),
            strategy,
            deferred,
        });
        self
    }

    /// Declares a named view under [`SnowcapStrategy::MinimalChain`].
    /// Pattern text errors surface at [`Self::build`].
    pub fn view(self, name: impl Into<String>, pattern: impl Into<PatternSource>) -> Self {
        self.push_view(name, pattern, SnowcapStrategy::MinimalChain, false)
    }

    /// Declares a named view that starts in
    /// [`MaintenanceMode::Deferred`]: commits accumulate its PULs
    /// instead of maintaining it, and [`DbInner::refresh`] folds the
    /// batch in one pass, on the caller's own cadence. Equivalent to `.view(..)` followed by
    /// [`DbInner::set_maintenance`] before the first commit.
    pub fn view_deferred(self, name: impl Into<String>, pattern: impl Into<PatternSource>) -> Self {
        self.push_view(name, pattern, SnowcapStrategy::MinimalChain, true)
    }

    /// Declares a named view with an explicit snowcap strategy.
    pub fn view_with_strategy(
        self,
        name: impl Into<String>,
        pattern: impl Into<PatternSource>,
        strategy: SnowcapStrategy,
    ) -> Self {
        self.push_view(name, pattern, strategy, false)
    }

    /// Accepted and ignored: the views propagate one after another on
    /// the committing thread. Kept only because `benchmark/` calls it;
    /// the ROADMAP's `[benchmark]` item removes it.
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Accepted and ignored: the commit service seals each drained
    /// queue of [`Database::apply_async`] submissions in order under
    /// one recovery image (see [`crate::service`]), whatever its
    /// length. Kept only because `benchmark/` calls it; the ROADMAP's
    /// `[benchmark]` item removes it.
    pub fn pipeline(self, _depth: usize) -> Self {
        self
    }

    /// Sets the default queue capacity for [`Database::subscribe`]:
    /// every subscription opened without an explicit capacity
    /// ([`Database::subscribe_with`]) gets a queue bounded to `n`
    /// events, and a full queue triggers its
    /// [`SlowConsumerPolicy`] (the default, `Block`, backpressures
    /// the commit path). `0` means explicitly unbounded. An explicit
    /// setting overrides the `XIVM_SUB_CAPACITY` environment
    /// variable, which is the default when this is never called
    /// (`0` / unset / unparsable = unbounded).
    pub fn subscription_capacity(mut self, n: usize) -> Self {
        self.sub_capacity = Some(n);
        self
    }

    /// Parses everything, materializes every view and hands back the
    /// owning [`Database`].
    pub fn build(self) -> Result<Database, Error> {
        let doc = match self.document.ok_or(Error::NoDocument)? {
            DocumentSource::Xml(text) => parse_document(&text)?,
            DocumentSource::Ready(doc) => *doc,
        };
        let mut engines: Vec<(String, MaintenanceEngine)> = Vec::with_capacity(self.views.len());
        let mut deferred: Vec<bool> = Vec::with_capacity(self.views.len());
        for spec in self.views {
            if engines.iter().any(|(n, _)| *n == spec.name) {
                return Err(Error::DuplicateView(spec.name));
            }
            deferred.push(spec.deferred);
            let pattern = match spec.pattern {
                PatternSource::Text(text) => parse_pattern(&text)?,
                PatternSource::Ready(p) => p,
            };
            // Term expansion asserts this bound inside the first commit
            // that reaches the view; fail here, with a name, instead.
            if pattern.len() > crate::etins::MAX_TERM_NODES {
                return Err(Error::PatternTooLarge { view: spec.name, nodes: pattern.len() });
            }
            engines.push((spec.name, MaintenanceEngine::new(&doc, pattern, spec.strategy)));
        }
        // The DTD is validated whenever supplied (catching grammar
        // typos early), the catalog linted only when analysis is on;
        // the analyzer does not outlive the build.
        let dtd = match self.dtd {
            Some(DtdSource::Text(text)) => Some(parse_dtd(&text)?),
            Some(DtdSource::Ready(dtd)) => Some(*dtd),
            None => None,
        };
        let analysis = if self.analyze == AnalyzeMode::Off {
            None
        } else {
            let analyzer =
                Analyzer::new(dtd.as_ref(), engines.iter().map(|(n, e)| (n.as_str(), e.pattern())));
            let report = analyzer.report(std::iter::empty::<(&str, &UpdateStatement)>());
            if self.analyze == AnalyzeMode::Strict && report.has_errors() {
                return Err(Error::Analysis(report.errors().cloned().collect()));
            }
            Some(report)
        };
        let views = MultiViewEngine::from_engines(engines);
        let pending = deferred.iter().map(|_| None).collect();
        Ok(Database {
            service: ServiceHandle::new(),
            inner: OnceLock::from(Box::new(DbInner {
                views,
                doc,
                commits: 0,
                subs: SubscriptionRegistry::default(),
                sub_capacity: effective_sub_capacity(self.sub_capacity),
                analysis,
                deferred,
                pending,
            })),
        })
    }
}

/// `XIVM_SUB_CAPACITY`, if set and parsable.
fn env_sub_capacity() -> Option<usize> {
    std::env::var("XIVM_SUB_CAPACITY").ok()?.trim().parse().ok()
}

/// Default subscription queue bound: the builder's explicit setting
/// wins (0 = explicitly unbounded), else `XIVM_SUB_CAPACITY`, else
/// unbounded.
fn effective_sub_capacity(configured: Option<usize>) -> Option<usize> {
    configured.or_else(env_sub_capacity).filter(|&n| n > 0)
}

// ---------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------

/// A typed, copyable reference to one view of a [`Database`].
///
/// Handles are only meaningful on the database that issued them
/// (they index its declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewHandle(pub(crate) usize);

impl ViewHandle {
    /// Declaration-order position (shared with [`Commit`] and the
    /// subscription registry).
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// The synchronous core of a [`Database`]: the document, the view
/// engines, the commit counter and the subscription registry.
///
/// [`Database`] derefs here, so every method below is reachable
/// directly on a `Database` and always observes a fully sealed state.
/// The core is *moved*, never shared: [`Database::apply_async`] hands
/// it to the commit service with the submission, the service thread
/// owns it while it drains the queue, and the deref takes it back
/// once the service is idle — so the asynchronous and the synchronous
/// API are mutually exclusive by ownership (see [`crate::service`]).
pub struct DbInner {
    pub(crate) doc: Document,
    pub(crate) views: MultiViewEngine,
    /// Commits so far; the next commit gets `commits + 1` as its
    /// sequence number.
    pub(crate) commits: u64,
    pub(crate) subs: SubscriptionRegistry,
    /// Default queue bound for [`Database::subscribe`] (`None` =
    /// unbounded), from `subscription_capacity` / `XIVM_SUB_CAPACITY`.
    pub(crate) sub_capacity: Option<usize>,
    /// The build-time lint report, when the builder enabled analysis
    /// (`None` = [`AnalyzeMode::Off`]).
    pub(crate) analysis: Option<AnalysisReport>,
    /// `deferred[i]` = view `i` is under
    /// [`MaintenanceMode::Deferred`]: the mask every live commit
    /// propagates under, kept here (and changed only by
    /// [`Self::set_maintenance`]) rather than rebuilt per commit.
    pub(crate) deferred: Vec<bool>,
    /// Per-view accumulated deferred batch (`None` = nothing pending;
    /// always `None` for [`MaintenanceMode::Immediate`] views).
    pub(crate) pending: Vec<Option<DeferredPending>>,
}

/// An XML document plus a set of named materialized views, maintained
/// incrementally under statement-level updates.
///
/// All synchronous methods live on [`DbInner`] and are reached
/// through `Deref`. After an [`Self::apply_async`] the core is with
/// the commit service; the deref first waits for every in-flight
/// submission to seal and *takes the core back*, so synchronous and
/// asynchronous mutation can never interleave mid-commit (through
/// `&self` too, and from several threads: one caller takes it back,
/// the others wait for that). While the value holds the core — always,
/// for a database that never calls `apply_async` — the deref is one
/// atomic load. If the service is poisoned (a failed commit's
/// recovery itself panicked, see [`crate::service`]) there is no core
/// to take back and the deref **panics** with the original message.
/// Methods defined directly on `Database` ([`Self::drain`],
/// [`Self::pending`]) deliberately never touch the core: they only
/// reach the subscription's own queue, which is exactly what lets a
/// consumer drain while the service is sealing.
pub struct Database {
    service: ServiceHandle,
    /// The core while this value holds it; empty from an
    /// [`Self::apply_async`] until the next synchronous access takes
    /// it back from the service.
    inner: OnceLock<Box<DbInner>>,
}

impl Deref for Database {
    type Target = DbInner;

    fn deref(&self) -> &DbInner {
        self.inner.get_or_init(|| self.service.reclaim())
    }
}

impl DerefMut for Database {
    fn deref_mut(&mut self) -> &mut DbInner {
        // `Deref` takes the core back if the service has it.
        let _: &DbInner = self;
        self.inner.get_mut().expect("the core was just taken back")
    }
}

impl Database {
    /// Starts building a database: `.document(..)`, `.view(..)`
    /// declarations, then `.build()`.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    // -----------------------------------------------------------------
    // Async commits: submission decoupled from sealing
    // -----------------------------------------------------------------

    /// Validates a batch of statements and schedules it as **one
    /// commit**, returning a [`Ticket`] immediately — before any
    /// propagation runs. The commit seals in the background, strictly
    /// in submission order, through the same commit executor as every
    /// synchronous front-end: each time the service thread wakes it
    /// drains its whole queue — whatever the submissions' shapes — and
    /// seals it submission by submission under one recovery image. A
    /// one-statement submission commits like [`DbInner::apply`], a
    /// multi-statement (or empty) one like a sequential
    /// [`DbInner::transaction`], and both share drained queues with
    /// their neighbours.
    ///
    /// The ticket carries the reserved sequence number; await the
    /// sealed [`Commit`] with [`Ticket::wait`], or everything at once
    /// with [`Self::flush`]. Parse/validation errors surface here
    /// synchronously (no ticket, no sequence number consumed); errors
    /// during background sealing surface on `wait()`/`flush()`, and
    /// submissions queued behind a failed one abort with
    /// [`Error::Aborted`] so sequence numbers stay gapless.
    ///
    /// Subscriptions observe async commits exactly as synchronous
    /// ones — same events, same order. With a bounded queue under
    /// [`SlowConsumerPolicy::Block`] the *service thread* (not this
    /// call) waits for the consumer; drain from another thread via
    /// [`Subscription::drain`] or the non-waiting [`Self::drain`].
    ///
    /// This call moves the database core to the commit service (if it
    /// is not there already); the next synchronous call on the
    /// `Database` waits for everything submitted to seal and takes it
    /// back. Once the service is poisoned (see [`crate::service`])
    /// every call returns the [`Error::Panic`] that poisoned it.
    pub fn apply_async<I>(&mut self, statements: I) -> Result<Ticket, Error>
    where
        I: IntoIterator,
        I::Item: Into<StatementSource>,
    {
        let stmts: Vec<UpdateStatement> = statements
            .into_iter()
            .map(|s| resolve_statement(s.into()))
            .collect::<Result<_, _>>()?;
        self.service.submit(self.inner.take(), stmts)
    }

    /// Waits until every queued [`Self::apply_async`] submission has
    /// sealed, then reports the **first** background failure since the
    /// last `flush()` (later submissions in that queue aborted with
    /// [`Error::Aborted`]; their tickets carry the details). `Ok(())`
    /// means the database, its views and every subscription feed
    /// reflect all submitted commits.
    pub fn flush(&mut self) -> Result<(), Error> {
        self.service.flush()
    }

    /// Waits until commit `seq` has sealed, or until it becomes known
    /// that it never will (its submission failed or was aborted, or no
    /// such submission exists). Returns the sealed high-water mark: a
    /// value `>= seq` means commit `seq` (and everything before it) is
    /// visible to reads and subscriptions; a smaller value means `seq`
    /// was never reached.
    pub fn commit_barrier(&self, seq: u64) -> u64 {
        let sealed = self.service.barrier(seq);
        if sealed >= seq {
            return sealed;
        }
        // Not sealed by the service: either it was sealed
        // synchronously before the service ever ran, or it failed.
        // `last_seq` takes the core back, so this is the
        // authoritative answer.
        self.last_seq()
    }

    // -----------------------------------------------------------------
    // Subscriptions (`drain` / `pending` never touch the core)
    // -----------------------------------------------------------------

    /// Registers interest in one view's deltas. Every subsequent
    /// commit appends a [`DeltaEvent`] (commit sequence number + the
    /// view's delta, empty if the commit did not touch it) to the
    /// subscription; read them with [`Self::drain`] or
    /// [`Subscription::drain`]. The queue is bounded by the builder's
    /// [`DatabaseBuilder::subscription_capacity`] / `XIVM_SUB_CAPACITY`
    /// default (unbounded if neither is set) with
    /// [`SlowConsumerPolicy::Block`]; use [`Self::subscribe_with`] to
    /// choose per subscription. See [`crate::subscribe`].
    pub fn subscribe(&mut self, view: ViewHandle) -> Subscription {
        let cap = self.sub_capacity;
        self.subscribe_with(view, cap, SlowConsumerPolicy::Block)
    }

    /// [`Self::subscribe`] with an explicit queue bound (`None` =
    /// unbounded) and slow-consumer policy for this subscription.
    pub fn subscribe_with(
        &mut self,
        view: ViewHandle,
        capacity: Option<usize>,
        policy: SlowConsumerPolicy,
    ) -> Subscription {
        let inner = &mut **self;
        assert!(view.index() < inner.views.len(), "handle from this database");
        inner.subs.subscribe(view, capacity, policy)
    }

    /// Takes every delta event accumulated since the last drain
    /// (oldest first, consecutive sequence numbers) and wakes a
    /// producer blocked on a full queue. Does **not** wait for
    /// in-flight async commits — this is the call that releases a
    /// [`SlowConsumerPolicy::Block`] backpressure stall, so it must
    /// stay reachable while the service is mid-seal. Panics if the
    /// subscription lagged ([`SlowConsumerPolicy::DropAndMark`]);
    /// lag-aware consumers use [`Subscription::drain`], which yields
    /// the [`crate::subscribe::Lagged`] marker instead.
    pub fn drain(&mut self, sub: &Subscription) -> Vec<DeltaEvent> {
        sub.queue.drain_deltas()
    }

    /// Events currently queued on a subscription (does not wait for
    /// in-flight async commits: counts what has been sealed and
    /// fanned out so far).
    pub fn pending(&self, sub: &Subscription) -> usize {
        sub.queue.pending()
    }

    /// Cancels a subscription and drops its queued events.
    pub fn unsubscribe(&mut self, sub: Subscription) {
        // Disconnect first: this wakes a service thread blocked on the
        // subscription's full queue, which must happen *before* the
        // deref below waits for that same thread to park the core.
        sub.queue.disconnect();
        let inner = &mut **self;
        inner.subs.unsubscribe(sub);
    }
}

impl DbInner {
    /// The owned document, read-only. All mutation goes through
    /// [`Self::apply`] / [`Self::transaction`] so the views can never
    /// drift from the document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// Serializes the current document.
    pub fn serialize(&self) -> String {
        serialize_document(&self.doc)
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Resolves a view name to its handle.
    pub fn view(&self, name: &str) -> Result<ViewHandle, Error> {
        self.views.position(name).map(ViewHandle).ok_or_else(|| Error::UnknownView(name.into()))
    }

    /// Handles of every view, in declaration order.
    pub fn handles(&self) -> Vec<ViewHandle> {
        (0..self.views.len()).map(ViewHandle).collect()
    }

    /// View names in declaration order.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.names()
    }

    /// The name behind a handle.
    pub fn name(&self, view: ViewHandle) -> &str {
        self.views.get(view.0).expect("handle from this database").0
    }

    /// The materialized tuples of a view.
    pub fn store(&self, view: ViewHandle) -> &ViewStore {
        self.views.get(view.0).expect("handle from this database").1.store()
    }

    /// The pattern a view materializes.
    pub fn pattern(&self, view: ViewHandle) -> &TreePattern {
        self.views.get(view.0).expect("handle from this database").1.pattern()
    }

    /// Read-only access to a view's low-level maintenance engine
    /// (timings, snowcaps, prune statistics).
    pub fn engine(&self, view: ViewHandle) -> &MaintenanceEngine {
        self.views.get(view.0).expect("handle from this database").1
    }

    /// Always 0: propagation spawns no threads. Kept only because
    /// `benchmark/` calls it; the ROADMAP's `[benchmark]` item removes
    /// it.
    pub fn threads_spawned(&self) -> u64 {
        0
    }

    /// Number of live subscriptions (every commit fans its deltas out
    /// to exactly these).
    pub fn subscriptions(&self) -> usize {
        self.subs.live()
    }

    /// The build-time static analysis report (dead-view findings and
    /// the relevance matrix over an empty workload), when the builder
    /// enabled [`DatabaseBuilder::analyze`].
    pub fn analysis_report(&self) -> Option<&AnalysisReport> {
        self.analysis.as_ref()
    }

    /// Applies one update statement (text, an [`UpdateStatement`], or
    /// a typed [`UpdateBuilder`]) and propagates it to every view in
    /// one shared pass. Returns the [`Commit`] carrying each view's
    /// report and exact delta.
    pub fn apply(&mut self, statement: impl Into<StatementSource>) -> Result<Commit, Error> {
        let stmt = resolve_statement(statement.into())?;
        Ok(self.seal(Batch::Single(&stmt))?.1)
    }

    /// Starts a batched transaction: statements are collected and, at
    /// [`Transaction::commit`], funneled through the Section 5 PUL
    /// optimizer into one optimized PUL, then propagated to all views
    /// in a single shared pass.
    pub fn transaction(&mut self) -> Transaction<'_> {
        Transaction {
            db: self,
            statements: Vec::new(),
            isolation: Isolation::Sequential,
            policy: ConflictPolicy::Fail,
        }
    }

    /// The sequence number of the last successful commit (0 before the
    /// first one).
    pub fn last_seq(&self) -> u64 {
        self.commits
    }

    // -----------------------------------------------------------------
    // MVCC snapshots
    // -----------------------------------------------------------------

    /// Freezes the current state into a [`DatabaseSnapshot`]: the
    /// document (copy-on-write clone, O(chunks)) plus every view store
    /// behind its `Arc`, stamped with [`Self::last_seq`]. No tuple and
    /// no node is copied.
    ///
    /// The snapshot is a gapless image of commits `1..=seq`: reads
    /// through it (stores, cursors, XPath) are unaffected by any
    /// commit applied afterwards, and those commits never wait for the
    /// snapshot — the first write to a shared chunk or store copies it
    /// on the writer's side.
    pub fn snapshot(&self) -> DatabaseSnapshot {
        DatabaseSnapshot::new(self.commits, self.doc.clone(), self.views.store_arcs())
    }

    // -----------------------------------------------------------------
    // Change consumption: cursors and subscriptions
    // -----------------------------------------------------------------

    /// Borrowing document-order cursor over a view's tuples — the
    /// cheap way to read a view (no tuple is cloned; see
    /// [`ViewStore::cursor`]).
    pub fn cursor(&self, view: ViewHandle) -> Cursor<'_> {
        self.store(view).cursor()
    }

    // -----------------------------------------------------------------
    // Deferred maintenance
    // -----------------------------------------------------------------

    /// The maintenance mode of a view.
    pub fn maintenance(&self, view: ViewHandle) -> MaintenanceMode {
        if self.deferred[view.index()] {
            MaintenanceMode::Deferred
        } else {
            MaintenanceMode::Immediate
        }
    }

    /// Switches a view's [`MaintenanceMode`]. Entering `Deferred`
    /// takes effect at the next commit. Leaving it refreshes first —
    /// the returned commit, if any, is that refresh — so an
    /// `Immediate` view is never stale.
    pub fn set_maintenance(
        &mut self,
        view: ViewHandle,
        mode: MaintenanceMode,
    ) -> Result<Option<Commit>, Error> {
        assert!(view.index() < self.views.len(), "handle from this database");
        let commit = if mode == MaintenanceMode::Immediate { self.refresh(view)? } else { None };
        self.deferred[view.index()] = mode == MaintenanceMode::Deferred;
        Ok(commit)
    }

    /// Commits accumulated against a deferred view since its last
    /// refresh (0 = the view is current).
    pub fn deferred_commits(&self, view: ViewHandle) -> u64 {
        self.pending[view.index()].as_ref().map_or(0, |p| p.commits)
    }

    /// Folds a deferred view's accumulated batch in **one**
    /// propagation pass and seals it as its own commit (0 statements,
    /// like an empty transaction): the batched PULs are reduced
    /// (Figure 14), the view maintained from its last-refreshed base
    /// to the live document, and the commit's [`DeltaEvent`] carries
    /// the whole coalesced delta with [`DeltaEvent::folded`] naming
    /// exactly the commit range it covers — so changefeeds stay
    /// gapless and replicas can fold the batch atomically.
    ///
    /// Returns `Ok(None)` when nothing is pending (also for
    /// `Immediate` views): no commit, no sequence number.
    pub fn refresh(&mut self, view: ViewHandle) -> Result<Option<Commit>, Error> {
        assert!(view.index() < self.views.len(), "handle from this database");
        if self.pending[view.index()].is_none() {
            return Ok(None);
        }
        Ok(Some(self.seal(Batch::Refresh(view.index()))?.1))
    }

    /// [`Self::refresh`] for every view with a pending batch, in
    /// declaration order — one commit per refreshed view.
    pub fn refresh_all(&mut self) -> Result<Vec<Commit>, Error> {
        let mut out = Vec::new();
        for i in 0..self.views.len() {
            if let Some(commit) = self.refresh(ViewHandle(i))? {
                out.push(commit);
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------

/// How a transaction's statements compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isolation {
    /// Statements compose in order: each sees the effects of the
    /// previous ones, exactly as if they had been applied one by one.
    Sequential,
    /// Statements must be order-independent: every statement's PUL is
    /// computed against the transaction's snapshot, and any IO / LO /
    /// NLO conflict between two statements is resolved by the
    /// transaction's [`ConflictPolicy`] (rejected under the default
    /// [`ConflictPolicy::Fail`]).
    Independent,
}

/// A batch of update statements committed as one optimized PUL.
///
/// Created by [`Database::transaction`](DbInner::transaction).
/// Nothing touches the document
/// or the views until [`Self::commit`]; a failed commit (parse error,
/// conflict) leaves the database untouched.
pub struct Transaction<'db> {
    db: &'db mut DbInner,
    statements: Vec<StatementSource>,
    isolation: Isolation,
    policy: ConflictPolicy,
}

impl<'db> Transaction<'db> {
    /// Adds a statement (text, an [`UpdateStatement`], or a typed
    /// [`UpdateBuilder`]) to the batch. Parse errors surface at
    /// [`Self::commit`].
    pub fn statement(mut self, statement: impl Into<StatementSource>) -> Self {
        self.statements.push(statement.into());
        self
    }

    /// Declares the batch order-independent: all statements are
    /// evaluated against the same snapshot and committing fails with
    /// [`Error::Conflict`] if the Figure 15 rules (IO / LO / NLO) find
    /// any order-dependence — unless [`Self::on_conflict`] installed a
    /// resolving policy.
    pub fn independent(mut self) -> Self {
        self.isolation = Isolation::Independent;
        self
    }

    /// Sets the conflict policy used in [`Self::independent`] mode
    /// (default: [`ConflictPolicy::Fail`]).
    pub fn on_conflict(mut self, policy: ConflictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of statements batched so far.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Optimizes the batch into one PUL (reduce → aggregate →
    /// conflict-check, Section 5), propagates it to every view in a
    /// single shared pass, and returns the [`Commit`] with each view's
    /// report and delta. An empty batch still commits (and gets a
    /// sequence number), so changefeeds stay gapless.
    pub fn commit(self) -> Result<Commit, Error> {
        let Transaction { db, statements, isolation, policy } = self;
        let parsed: Vec<UpdateStatement> =
            statements.into_iter().map(resolve_statement).collect::<Result<_, _>>()?;
        let batch = match isolation {
            Isolation::Sequential => Batch::Sequential(&parsed),
            Isolation::Independent => Batch::Independent(&parsed, policy),
        };
        Ok(db.seal(batch)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::compile::view_tuples;
    use xivm_xml::XmlError;

    const FIG12: &str = "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>";

    fn db() -> Database {
        Database::builder()
            .document(FIG12)
            .view("ab", "//a{id}//b{id}")
            .view("acb", "//a{id}[//c{id}]//b{id}")
            .build()
            .unwrap()
    }

    /// Oracle: every view equals its from-scratch evaluation.
    fn check_consistent(db: &Database) {
        for h in db.handles() {
            let pattern = db.pattern(h).clone();
            let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
            assert!(
                db.store(h).same_content_as(&expected),
                "view {} diverged:\n{}",
                db.name(h),
                db.store(h).diff_description(&expected)
            );
        }
    }

    #[test]
    fn builder_materializes_views() {
        let db = db();
        assert_eq!(db.len(), 2);
        assert_eq!(db.view_names(), vec!["ab", "acb"]);
        let acb = db.view("acb").unwrap();
        assert_eq!(db.store(acb).len(), 8, "Figure 12 lists 8 embeddings");
        assert_eq!(db.pattern(acb).to_text(), "//a{id}[//c{id}]//b{id}");
        assert_eq!(db.name(acb), "acb");
    }

    /// A view too large for term expansion is a build error naming the
    /// view, not a panic inside its first commit; the largest accepted
    /// chain commits at once (30 terms, not 2^30 masks).
    #[test]
    fn oversized_patterns_are_rejected_at_build() {
        let chain = |nodes: usize| "//a".repeat(nodes);
        let build = |nodes| {
            Database::builder().document("<a><a/></a>").view("chain", chain(nodes).as_str()).build()
        };
        match build(31) {
            Err(Error::PatternTooLarge { view, nodes }) => {
                assert_eq!((view.as_str(), nodes), ("chain", 31));
            }
            other => panic!("expected PatternTooLarge, got {:?}", other.map(|_| ())),
        }
        let mut db = build(30).unwrap();
        let commit = db.apply("insert <a/> into //a").unwrap();
        assert_eq!(commit.work().dynamic_skips, 0);
        let h = db.view("chain").unwrap();
        assert_eq!(commit.report(h).insert_prune.before, 30);
    }

    #[test]
    fn builder_errors() {
        assert!(matches!(Database::builder().build(), Err(Error::NoDocument)));
        assert!(matches!(
            Database::builder().document("<a/>").view("v", "//a{id").build(),
            Err(Error::Pattern(_))
        ));
        assert!(matches!(
            Database::builder().document("<a><b").view("v", "//a{id}").build(),
            Err(Error::Xml(XmlError::Parse { .. }))
        ));
        assert!(matches!(
            Database::builder().document("<a/>").view("v", "//a{id}").view("v", "//a{id}").build(),
            Err(Error::DuplicateView(_))
        ));
        let db = db();
        assert!(matches!(db.view("nope"), Err(Error::UnknownView(_))));
    }

    #[test]
    fn apply_propagates_to_all_views() {
        let mut db = db();
        let commit = db.apply("delete /a/f/c").unwrap();
        assert_eq!(commit.len(), 2);
        assert_eq!(commit.seq, 1);
        assert_eq!(db.last_seq(), 1);
        check_consistent(&db);
        assert_eq!(db.store(db.view("acb").unwrap()).len(), 3, "Example 4.5");
        // statement parse errors are typed
        assert!(matches!(db.apply("frobnicate //a"), Err(Error::Statement(_))));
    }

    /// The target lookup runs once per commit, and every view's report
    /// carries its time.
    #[test]
    fn a_commit_stamps_one_find_time_on_every_view() {
        let mut db = db();
        let commit = db.apply("insert <b/> into //c").unwrap();
        let t0 = commit.report(db.view("ab").unwrap()).timings.find_target_nodes;
        assert!(!t0.is_zero());
        assert!(db.handles().into_iter().all(|h| commit.report(h).timings.find_target_nodes == t0));
    }

    /// `apply-pul` is not atomic, so a malformed insert forest must be
    /// rejected *before* anything touches the document — on every
    /// mutation path.
    #[test]
    fn malformed_forest_is_rejected_before_touching_anything() {
        let mut db = db();
        let before = db.serialize();
        assert!(matches!(db.apply("insert <b><x/> into /a/c"), Err(Error::Xml(_))));
        assert_eq!(db.serialize(), before, "apply must not leave a half-applied forest");
        check_consistent(&db);
        for tx_mode in [false, true] {
            let mut tx = db.transaction();
            if tx_mode {
                tx = tx.independent();
            }
            let err = tx
                .statement("insert <ok/> into /a/c")
                .statement("insert <b><x/> into /a/c")
                .commit();
            assert!(matches!(err, Err(Error::Xml(_))));
            assert_eq!(db.serialize(), before, "failed commits must be no-ops");
            check_consistent(&db);
        }
        // the same guard applies to pre-built statements
        let stmt = UpdateStatement::insert("/a/c", "<broken>").unwrap();
        assert!(matches!(db.apply(stmt), Err(Error::Xml(_))));
        assert_eq!(db.serialize(), before);
    }

    #[test]
    fn transaction_batches_through_the_optimizer() {
        let mut db = Database::builder()
            .document("<r><x><w/></x><y/><z/></r>")
            .view("rb", "//r{id}//b{id}")
            .build()
            .unwrap();
        let report = db
            .transaction()
            .statement("insert <b/> into //w") // killed by O3
            .statement("insert <b/> into //x") // killed by O1
            .statement("delete //x")
            .statement("insert <b>1</b> into //z") // merged by I5/A1
            .statement("insert <b>2</b> into //z")
            .commit()
            .unwrap();
        assert_eq!(report.statements, 5);
        assert!(
            report.optimized_ops < report.naive_ops,
            "optimizer must shrink the batch: {} -> {}",
            report.naive_ops,
            report.optimized_ops
        );
        assert!(report.optimized_ops < report.statements);
        check_consistent(&db);
    }

    #[test]
    fn sequential_transaction_equals_sequential_apply() {
        let script = ["insert <c><b/></c> into /a/f", "delete //c//b", "insert <b/> into //f"];
        let mut one_by_one = db();
        for s in script {
            one_by_one.apply(s).unwrap();
        }
        let mut batched = db();
        let mut tx = batched.transaction();
        for s in script {
            tx = tx.statement(s);
        }
        tx.commit().unwrap();
        assert_eq!(one_by_one.serialize(), batched.serialize());
        for (h1, h2) in one_by_one.handles().into_iter().zip(batched.handles()) {
            assert!(one_by_one.store(h1).same_content_as(batched.store(h2)));
        }
        check_consistent(&batched);
    }

    /// `tests/property.rs` case 1548 of `transaction_equals_sequential_apply`:
    /// the third statement is spliced (D6) into the first one's pending
    /// forest *in front of* the `c` the second deletes, so a document
    /// left to intern the forest's labels by itself meets `d` before
    /// `c`, numbers them the other way round than the scratch copy the
    /// `del` was computed on, and drops the `del` as a stale ID. The
    /// applying document adopts the planning document's interner — in
    /// a transaction, and in a deferred view's replay over its base.
    #[test]
    fn a_delete_inside_a_spliced_forest_survives_the_batch() {
        let script =
            ["insert <a><b/><c/></a> into //b", "delete //a//c", "insert <d>5</d> into //b"];
        let build = |deferred: bool| {
            let b = Database::builder().document("<r><b/></r>").view("ab", "//a{id}//b{id}");
            let b = if deferred {
                b.view_deferred("ac", "//a{id}//c{id}")
            } else {
                b.view("ac", "//a{id}//c{id}")
            };
            b.build().unwrap()
        };
        let mut one_by_one = build(false);
        for s in script {
            one_by_one.apply(s).unwrap();
        }
        assert_eq!(one_by_one.serialize(), "<r><b><a><b><d>5</d></b></a><d>5</d></b></r>");

        let mut batched = build(false);
        let mut tx = batched.transaction();
        for s in script {
            tx = tx.statement(s);
        }
        tx.commit().unwrap();
        assert_eq!(batched.serialize(), one_by_one.serialize());
        check_consistent(&batched);

        let mut replayed = build(true);
        for s in script {
            replayed.apply(s).unwrap();
        }
        let ac = replayed.view("ac").unwrap();
        replayed.refresh(ac).unwrap().expect("a batch is pending");
        check_consistent(&replayed);
        for db in [&batched, &replayed] {
            assert!(db.store(ac).same_content_as(one_by_one.store(ac)));
            db.document().check_invariants().unwrap();
        }
    }

    #[test]
    fn later_statements_see_earlier_effects() {
        // The second statement targets a node the first one inserts:
        // only sequential composition can express this.
        let mut db = Database::builder()
            .document("<r><x/></r>")
            .view("rq", "//r{id}//q{id}")
            .build()
            .unwrap();
        db.transaction()
            .statement("insert <p/> into //x")
            .statement("insert <q/> into //p")
            .commit()
            .unwrap();
        assert_eq!(db.serialize(), "<r><x><p><q/></p></x></r>");
        check_consistent(&db);
    }

    #[test]
    fn independent_transaction_rejects_conflicts() {
        let mut db = db();
        let err = db
            .transaction()
            .independent()
            .statement("delete /a/f")
            .statement("insert <b/> into /a/f")
            .commit()
            .unwrap_err();
        let Error::Conflict(conflicts) = err else { panic!("expected a conflict") };
        assert!(!conflicts.is_empty());
        // a failed commit leaves everything untouched
        assert_eq!(db.serialize(), FIG12);
        check_consistent(&db);
        // conflict-free independent batches commit fine
        db.transaction()
            .independent()
            .statement("insert <b/> into /a/c")
            .statement("delete /a/f")
            .commit()
            .unwrap();
        check_consistent(&db);
    }

    #[test]
    fn independent_transaction_with_resolving_policy() {
        let mut db = db();
        let report = db
            .transaction()
            .independent()
            .on_conflict(ConflictPolicy::FirstWins)
            .statement("delete /a/f")
            .statement("insert <b/> into /a/f")
            .commit()
            .unwrap();
        assert_eq!(report.optimized_ops, 1, "the overridden insertion is dropped");
        check_consistent(&db);
    }

    #[test]
    fn empty_transaction_is_a_noop_but_still_sequences() {
        let mut db = db();
        let commit = db.transaction().commit().unwrap();
        assert_eq!(commit.statements, 0);
        assert!(commit.touched().is_empty(), "no view was touched");
        assert_eq!(commit.len(), 2, "but every view still gets a report entry");
        assert!(!commit.is_empty(), "is_empty mirrors len, not touchedness");
        assert_eq!(commit.seq, 1, "even a no-op commit gets a sequence number");
        // the accessors work uniformly on no-op commits
        let acb = db.view("acb").unwrap();
        assert!(commit.delta(acb).is_empty());
        assert_eq!(commit.report(acb).tuples_added, 0);
        assert_eq!(db.serialize(), FIG12);
    }

    /// `.workers(n)`, `.pipeline(depth)`, `set_workers(n)` and
    /// `threads_spawned()` are kept only for `benchmark/` and change
    /// nothing: under `.workers(4).pipeline(4)` a database commits,
    /// stores and streams what the default build does — through
    /// `apply`, a transaction and `apply_async` — and an
    /// engine told `set_workers(4)` reports and stores what the default
    /// engine does. No thread is spawned.
    #[test]
    fn the_benchmark_shims_change_nothing() {
        // Its commit service must not take another test's armed
        // `fault::SEAL_DELAY`.
        let _guard = crate::fault::exclusive();
        const VIEWS: [(&str, &str); 3] = [
            ("ab", "//a{id}//b{id}"),
            ("acb", "//a{id}[//c{id}]//b{id}"),
            ("c_cont", "//c{id,cont}"),
        ];
        let drive = |b: DatabaseBuilder| {
            let mut db =
                VIEWS.iter().fold(b.document(FIG12), |b, (n, p)| b.view(*n, *p)).build().unwrap();
            let subs: Vec<Subscription> = db
                .handles()
                .into_iter()
                .map(|h| db.subscribe_with(h, None, SlowConsumerPolicy::Block))
                .collect();
            let mut commits: Vec<Commit> =
                ["insert <b/> into //c", "delete /a/f", "insert <c><b/></c> into /a"]
                    .map(|s| db.apply(s).unwrap())
                    .into();
            let tx = db.transaction().statement("insert <b/> into /a/c").statement("delete /a/c/b");
            commits.push(tx.commit().unwrap());
            commits.push(db.apply_async(["insert <f><b/></f> into /a"]).unwrap().wait().unwrap());
            db.flush().unwrap();
            let streams: Vec<Vec<_>> = subs
                .iter()
                .map(|s| db.drain(s).into_iter().map(|e| (e.seq, e.delta)).collect())
                .collect();
            (db, commits, streams)
        };
        let (shimmed, shimmed_commits, shimmed_streams) =
            drive(Database::builder().workers(4).pipeline(4));
        let (default, commits, streams) = drive(Database::builder());
        assert_eq!(shimmed_commits.len(), commits.len());
        for (a, b) in shimmed_commits.iter().zip(&commits) {
            assert!(a.same_outcome(b), "commit {} diverged", a.seq);
        }
        assert_eq!(shimmed_streams, streams);
        assert_eq!(shimmed.serialize(), default.serialize());
        for (a, b) in shimmed.handles().into_iter().zip(default.handles()) {
            assert!(shimmed.store(a).identical_to(default.store(b)), "{}", shimmed.name(a));
        }
        assert_eq!(shimmed.threads_spawned(), 0);
        check_consistent(&shimmed);

        let engine = |doc: &Document| {
            let views = VIEWS.map(|(n, p)| {
                (n.to_owned(), parse_pattern(p).unwrap(), SnowcapStrategy::MinimalChain)
            });
            MultiViewEngine::new(doc, views)
        };
        let mut shimmed_doc = parse_document(FIG12).unwrap();
        let mut default_doc = shimmed_doc.clone();
        let (mut shimmed_mv, mut default_mv) = (engine(&shimmed_doc), engine(&default_doc));
        shimmed_mv.set_workers(4);
        for text in ["insert <b/> into //c", "delete /a/f", "insert <c><b/></c> into /a"] {
            let stmt = parse_statement(text).unwrap();
            let pul = xivm_update::compute_pul(&default_doc, &stmt);
            let a = shimmed_mv.propagate_pul(&mut shimmed_doc, &pul).unwrap();
            let b = default_mv.propagate_pul(&mut default_doc, &pul).unwrap();
            assert_eq!(a.len(), b.len());
            for ((n1, r1), (n2, r2)) in a.iter().zip(&b) {
                assert!(n1 == n2 && r1.same_outcome(r2), "{n1} diverged after {text}");
            }
        }
        assert_eq!(serialize_document(&shimmed_doc), serialize_document(&default_doc));
        for name in default_mv.names() {
            let (a, b) = (shimmed_mv.view(name).unwrap(), default_mv.view(name).unwrap());
            assert!(a.store().identical_to(b.store()), "{name}");
        }
    }

    #[test]
    fn report_lookup_by_handle_and_name() {
        let mut db = db();
        let ab = db.view("ab").unwrap();
        let commit = db.apply("delete /a/f/c").unwrap();
        let r = commit.report(ab);
        assert!(r.tuples_removed > 0);
        assert_eq!(commit.report_by_name("ab").unwrap().tuples_removed, r.tuples_removed);
        assert!(commit.report_by_name("nope").is_none());
        assert_eq!(commit.touched(), vec!["ab", "acb"]);
        let order: Vec<&str> = commit.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec!["ab", "acb"]);
    }

    #[test]
    fn commit_sequence_numbers_are_monotonic_and_gapless() {
        let mut db = db();
        for expected in 1..=4u64 {
            let commit = db.apply("insert <b/> into /a/c").unwrap();
            assert_eq!(commit.seq, expected);
        }
        // a failed apply consumes no sequence number
        assert!(db.apply("frobnicate //a").is_err());
        let commit = db.transaction().statement("delete //b").commit().unwrap();
        assert_eq!(commit.seq, 5);
    }

    #[test]
    fn apply_returns_replayable_deltas() {
        let mut db = db();
        let acb = db.view("acb").unwrap();
        let mut snapshot = db.store(acb).clone();
        let commit = db.apply("delete /a/f/c").unwrap();
        let delta = commit.delta(acb);
        assert!(!delta.is_empty());
        assert_eq!(delta.rows().iter().map(|(_, w)| w).sum::<i64>(), -5, "Example 4.5");
        delta.replay(&mut snapshot);
        assert!(snapshot.identical_to(db.store(acb)), "snapshot + delta == post-commit store");
    }

    #[test]
    fn typed_builder_statements_match_their_textual_equivalents() {
        use xivm_update::builder::{delete, element, insert, replace};
        let cases: [(UpdateBuilder, &str); 3] = [
            (insert(element("b")).into("/a/c"), "insert <b/> into /a/c"),
            (delete("/a/f/c"), "delete /a/f/c"),
            (
                replace("/a/c").with(element("g").child(element("b"))),
                "replace /a/c with <g><b/></g>",
            ),
        ];
        for (builder, text) in cases {
            let mut typed = db();
            let mut textual = db();
            let ct = typed.apply(builder).unwrap();
            let cx = textual.apply(text).unwrap();
            assert_eq!(typed.serialize(), textual.serialize(), "{text}");
            for (h1, h2) in typed.handles().into_iter().zip(textual.handles()) {
                assert!(typed.store(h1).identical_to(textual.store(h2)), "{text}");
                assert_eq!(ct.delta(h1), cx.delta(h2), "{text}: deltas must be bit-identical");
            }
            check_consistent(&typed);
        }
    }

    #[test]
    fn subscriptions_accumulate_deltas_across_commits() {
        let mut db = db();
        let acb = db.view("acb").unwrap();
        let ab = db.view("ab").unwrap();
        let sub = db.subscribe(acb);
        let mut snapshot = db.store(acb).clone();

        db.apply("delete /a/f/c").unwrap();
        db.transaction()
            .statement("insert <b/> into /a/c")
            .statement("insert <c><b/></c> into /a")
            .commit()
            .unwrap();
        db.apply("delete //zz").unwrap(); // touches nothing

        assert_eq!(db.pending(&sub), 3);
        let events = db.drain(&sub);
        assert_eq!(events.len(), 3);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "one event per commit, gapless");
        assert!(events[2].delta.is_empty(), "no-op commits still appear, with empty deltas");
        for e in &events {
            e.delta.replay(&mut snapshot);
        }
        assert!(snapshot.identical_to(db.store(acb)));
        assert_eq!(db.pending(&sub), 0, "drain empties the queue");

        // a second, later subscription only sees later commits
        let sub2 = db.subscribe(ab);
        db.apply("delete //b").unwrap();
        assert_eq!(db.drain(&sub).len(), 1);
        let ev2 = db.drain(&sub2);
        assert_eq!(ev2.len(), 1);
        assert_eq!(ev2[0].seq, 4);
        db.unsubscribe(sub);
        db.unsubscribe(sub2);
    }

    /// A DTD the `FIG12` document conforms to.
    const FIG12_DTD: &str = "a -> (c | f | b)*\nc -> b*\nf -> (c | b)*\nb -> ()";

    fn analyzing_db(mode: AnalyzeMode) -> Database {
        Database::builder()
            .document(FIG12)
            .dtd(FIG12_DTD)
            .analyze(mode)
            .view("ab", "//a{id}//b{id}")
            .view("f_only", "//f{id}")
            .build()
            .unwrap()
    }

    #[test]
    fn analyze_strict_rejects_dead_views_and_warn_records_them() {
        let strict = Database::builder()
            .document(FIG12)
            .dtd(FIG12_DTD)
            .analyze(AnalyzeMode::Strict)
            .view("dead", "//zzz{id}")
            .build();
        assert!(matches!(strict, Err(Error::Analysis(ref f)) if f.len() == 1));
        let warn = Database::builder()
            .document(FIG12)
            .dtd(FIG12_DTD)
            .analyze(AnalyzeMode::Warn)
            .view("dead", "//zzz{id}")
            .build()
            .unwrap();
        assert!(warn.analysis_report().unwrap().has_errors());
        // a live catalog passes Strict, and its commits skip `f_only`
        // through the dynamic exit, not through a static verdict
        let mut ok = analyzing_db(AnalyzeMode::Strict);
        assert!(!ok.analysis_report().unwrap().has_errors());
        let commit = ok.apply("insert <b/> into /a/c").unwrap();
        assert_eq!((commit.work().dynamic_skips, commit.static_skips()), (1, 0));
        // no analysis by default
        assert!(db().analysis_report().is_none());
        // a malformed DTD errors regardless of mode
        assert!(matches!(
            Database::builder().document(FIG12).dtd("nonsense").view("v", "//a{id}").build(),
            Err(Error::Dtd(_))
        ));
    }

    #[test]
    fn cursor_reads_sorted_without_cloning() {
        let mut db = db();
        let ab = db.view("ab").unwrap();
        db.apply("insert <b/> into /a/c").unwrap();
        let read: Vec<_> = db.cursor(ab).collect();
        assert!(read.windows(2).all(|w| w[0].0.doc_cmp(w[1].0).is_lt()), "document order");
        let pattern = db.pattern(ab).clone();
        let fresh = view_tuples(db.document(), &pattern);
        assert_eq!(read, fresh.iter().map(|(t, c)| (t, *c)).collect::<Vec<_>>());
    }

    // -----------------------------------------------------------------
    // Deferred maintenance
    // -----------------------------------------------------------------

    fn deferred_db() -> Database {
        Database::builder()
            .document(FIG12)
            .view("ab", "//a{id}//b{id}")
            .view_deferred("acb", "//a{id}[//c{id}]//b{id}")
            .build()
            .unwrap()
    }

    const SCRIPT: [&str; 4] = [
        "insert <b/> into /a/c",
        "insert <c><b/></c> into /a/f",
        "delete /a/f/c/b",
        "insert <b>x</b> into /a",
    ];

    #[test]
    fn deferred_view_is_left_out_of_the_seal_and_refresh_converges() {
        let mut immediate = db();
        let mut deferred = deferred_db();
        let acb = deferred.view("acb").unwrap();
        let ab = deferred.view("ab").unwrap();
        assert_eq!(deferred.maintenance(acb), MaintenanceMode::Deferred);
        assert_eq!(deferred.maintenance(ab), MaintenanceMode::Immediate);
        let stale = deferred.store(acb).clone();

        for s in SCRIPT {
            let ci = immediate.apply(s).unwrap();
            let cd = deferred.apply(s).unwrap();
            assert_eq!(cd.seq, ci.seq);
            // The deferred view's report is the honest marker: store
            // untouched, delta empty.
            assert!(cd.report(acb).deferred);
            assert!(cd.delta(acb).is_empty());
            // The immediate view is maintained as always.
            assert!(!cd.report(ab).deferred);
            assert!(deferred
                .store(ab)
                .identical_to(immediate.store(immediate.view("ab").unwrap())));
        }
        assert!(deferred.store(acb).identical_to(&stale), "deferred store must not move");
        assert_eq!(deferred.deferred_commits(acb), SCRIPT.len() as u64);

        // The refresh seals its own commit with the coalesced range.
        let seq_before = deferred.last_seq();
        let refresh = deferred.refresh(acb).unwrap().expect("batch pending");
        assert_eq!(refresh.seq, seq_before + 1);
        assert_eq!(refresh.statements, 0, "a refresh commits no statements");
        assert_eq!(refresh.report(acb).coalesced, Some(1..=seq_before));
        assert!(!refresh.delta(acb).is_empty());
        assert_eq!(deferred.deferred_commits(acb), 0);
        check_consistent(&deferred);
        assert!(
            deferred.store(acb).identical_to(immediate.store(immediate.view("acb").unwrap())),
            "refresh must be bit-identical to immediate maintenance"
        );

        // Nothing pending: refresh is a no-op, no commit.
        assert!(deferred.refresh(acb).unwrap().is_none());
        assert_eq!(deferred.last_seq(), seq_before + 1);
    }

    /// A consumer thread that panics while holding its queue's lock
    /// (the plain-delta drain of a lagged feed does) poisons that one
    /// mutex. The next commit must not die on it: the poisoned
    /// subscription reads as disconnected and is pruned, everyone
    /// else keeps receiving.
    #[test]
    fn a_consumer_panicking_inside_its_queue_does_not_take_the_commit_down() {
        let mut db = db();
        let ab = db.view("ab").unwrap();
        let healthy = db.subscribe(ab);
        let doomed = db.subscribe_with(ab, Some(1), SlowConsumerPolicy::DropAndMark);
        db.apply(SCRIPT[0]).unwrap();
        db.apply(SCRIPT[1]).unwrap();
        let queue = std::sync::Arc::clone(&doomed.queue);
        let consumer = std::thread::spawn(move || queue.drain_deltas());
        assert!(consumer.join().is_err(), "a lagged feed refuses the plain drain, lock held");

        let commit = db.apply(SCRIPT[2]).unwrap();
        assert_eq!(commit.seq, 3);
        assert!(doomed.is_disconnected());
        assert_eq!((doomed.pending(), doomed.drain().len()), (0, 0));
        let seqs: Vec<u64> = db.drain(&healthy).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        db.apply(SCRIPT[3]).unwrap();
        assert_eq!(db.drain(&healthy).len(), 1);
        db.unsubscribe(doomed);
        check_consistent(&db);
    }

    #[test]
    fn deferred_events_stay_gapless_and_fold_metadata_marks_the_refresh() {
        let mut db = deferred_db();
        let acb = db.view("acb").unwrap();
        let sub = db.subscribe(acb);
        for s in SCRIPT {
            db.apply(s).unwrap();
        }
        db.refresh_all().unwrap();
        let events = db.drain(&sub);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "one event per seq, refresh included");
        for e in &events[..4] {
            assert!(e.folded.is_none());
            assert!(e.delta.is_empty(), "deferred commits carry empty deltas");
        }
        assert_eq!(events[4].folded, Some(1..=4));
        assert!(!events[4].delta.is_empty());
        db.unsubscribe(sub);
    }

    #[test]
    fn transactions_and_applies_defer_identically() {
        let mut immediate = db();
        let mut deferred = deferred_db();
        let acb = deferred.view("acb").unwrap();
        for s in SCRIPT {
            deferred.apply(s).unwrap();
            immediate.apply(s).unwrap();
        }
        let tx = ["insert <b/> into /a/c", "delete //f//b"];
        immediate.transaction().statement(tx[0]).statement(tx[1]).commit().unwrap();
        deferred.transaction().statement(tx[0]).statement(tx[1]).commit().unwrap();

        deferred.refresh(acb).unwrap().expect("pending");
        check_consistent(&deferred);
        assert!(deferred.store(acb).identical_to(immediate.store(immediate.view("acb").unwrap())));
    }

    #[test]
    fn set_maintenance_back_to_immediate_refreshes_first() {
        let mut db = deferred_db();
        let acb = db.view("acb").unwrap();
        db.apply(SCRIPT[0]).unwrap();
        let commit = db.set_maintenance(acb, MaintenanceMode::Immediate).unwrap();
        assert!(commit.is_some(), "leaving Deferred folds the batch");
        assert_eq!(db.maintenance(acb), MaintenanceMode::Immediate);
        check_consistent(&db);
        // Subsequent commits maintain immediately again.
        let c = db.apply(SCRIPT[1]).unwrap();
        assert!(!c.report(acb).deferred);
        check_consistent(&db);
        // Entering Deferred never commits.
        assert!(db.set_maintenance(acb, MaintenanceMode::Deferred).unwrap().is_none());
    }
}
