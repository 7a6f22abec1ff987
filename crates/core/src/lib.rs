//! Algebraic incremental maintenance of XML materialized views — the
//! paper's primary contribution.
//!
//! Given a view `v` (a tree pattern with stored attributes) over a
//! document `d`, and a statement-level update `u`, the engine
//! transforms the materialized `v(d)` into `v(d')` without
//! recomputation:
//!
//! * [`term`] — the union (resp. difference) terms obtained by
//!   distributing joins over `R ∪ Δ⁺` (`R \ Δ⁻`), Sections 3.1 / 4.1;
//! * [`snowcap`] — snowcap enumeration over the sub-pattern lattice
//!   (Definition 3.11); the materialization strategies (Section 3.5 /
//!   experiment 6.7) are [`engine::SnowcapStrategy`];
//! * [`etins`] — term enumeration (Propositions 3.3 / 4.2, tested
//!   against the full `2^k − 1` expansion) and term evaluation with
//!   structural joins (Algorithm 3 and its deletion counterpart);
//! * [`propagate`] — the signed Δ pipeline: the four propagation
//!   algorithms (Algorithms 1, 4, 5, 6) as one term pipeline with a
//!   [`propagate::DeltaSide`] (Propositions 3.6, 3.8 / 4.7) and one
//!   text-refresh pass, over one cache of old-state leaves;
//! * [`view_store`] — the materialized view with derivation counts;
//! * [`engine`] — the end-to-end [`engine::MaintenanceEngine`] with the
//!   per-phase [`timing::Timings`] breakdown reported in Section 6, and
//!   its one exceptional arm: the recomputation that answers a commit
//!   which may have flipped a value predicate — one that moved text
//!   under a node of the predicate's label, read off the apply's Dewey
//!   IDs — or whose deletion rivals the view;
//! * [`multiview`] / [`parallel`] — the shared multi-view pass
//!   (Section 3.5: one PUL, one document apply, then each view's own
//!   phases in a plain loop) and the Figure 15 conflict rules lifted
//!   to views, an analysis the pass does not consult;
//! * [`database`] — the [`database::Database`] façade owning the
//!   document and all named views, with batched
//!   [`database::Transaction`]s through the Section 5 PUL optimizer;
//!   every front-end (apply, transaction, refresh, and the async
//!   service once per submission it drains) hands one batch at a time
//!   to the one crate-internal commit executor (`executor`: planners →
//!   `CommitPlan` → `seal`);
//! * [`commit`] / [`subscribe`] — the delta-first client surface:
//!   every apply / commit returns a [`commit::Commit`] carrying each
//!   view's exact [`commit::ViewDelta`], and
//!   [`database::Database::subscribe`] accumulates those deltas into a
//!   changefeed with gapless commit sequence numbers, bounded queues
//!   and per-subscription [`subscribe::SlowConsumerPolicy`]s;
//! * [`service`] — the async commit service behind
//!   [`database::Database::apply_async`]: submission decoupled from
//!   sealing, with [`service::Ticket`]s, `flush()` barriers and
//!   panic containment (and, under `cfg(test)` / the `fault-inject`
//!   feature, the `fault` failpoints that prove it).
//!
//! The crate is `forbid(unsafe_code)`.

#![forbid(unsafe_code)]

pub mod commit;
pub mod database;
pub mod engine;
pub mod error;
pub mod etins;
mod executor;
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod multiview;
pub mod parallel;
pub mod propagate;
pub mod service;
pub mod snapshot;
pub mod snowcap;
pub mod subscribe;
pub mod term;
pub mod timing;
pub mod view_store;

pub use commit::{Commit, ViewDelta};
pub use database::{Database, DatabaseBuilder, MaintenanceMode, Transaction, ViewHandle};
pub use engine::{MaintenanceEngine, PreparedUpdate, SnowcapStrategy, UpdateReport};
pub use error::Error;
pub use multiview::MultiViewEngine;
pub use service::Ticket;
pub use snapshot::DatabaseSnapshot;
pub use subscribe::{DeltaEvent, FeedEvent, Lagged, SlowConsumerPolicy, Subscription};
pub use term::Term;
pub use timing::Timings;
pub use view_store::{Cursor, ViewStore};
// The build-time lint the `analyze(..)` builder knob runs (the analyses
// themselves live in `xivm_analyze`).
pub use xivm_analyze::{AnalysisReport, AnalyzeMode, Analyzer};
