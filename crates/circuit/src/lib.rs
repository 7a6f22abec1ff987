//! Delta circuits: composable incremental operators over view
//! changefeeds.
//!
//! The engine's contract is that a materialized view is maintained
//! from update deltas instead of recomputation; this crate extends
//! that contract *past* the view boundary. A [`Circuit`] subscribes
//! to one or more [`Database`](xivm_core::Database) views as source
//! nodes and composes a DAG of incremental operators on top —
//! [`CircuitBuilder::filter`], [`CircuitBuilder::map`] /
//! [`CircuitBuilder::project`], hash [`CircuitBuilder::join`],
//! grouped [`CircuitBuilder::count`] / [`CircuitBuilder::sum`], and
//! [`CircuitBuilder::min`] / [`CircuitBuilder::max`] with a
//! re-scan-on-retraction fallback. Every node materializes its result
//! as a [`DerivedStore`] — one run of rows in order, patched in place
//! by the routines the view store is patched by — and maintains it per
//! commit by consuming upstream [`RowDelta`]s and emitting its own:
//! views over views, all the way up, in the Z-set weight algebra the
//! changefeed already speaks (insert `+count`, delete `−count`, modify
//! `0`; see [`xivm_core::ViewDelta::rows`]). A source node's store is
//! the one copy of its view the circuit holds: each view delta is read
//! against it, key by key, with no mirror of the view beside it.
//!
//! ```
//! use xivm_core::Database;
//! use xivm_circuit::{CircuitExt, Datum, Row};
//!
//! let mut db = Database::builder()
//!     .document("<shop><order><sku>tea</sku><qty>2</qty></order>\
//!                <order><sku>tea</sku><qty>1</qty></order></shop>")
//!     .view("skus", "//order{id}/sku{id,val}")
//!     .build()?;
//!
//! // source → filter → count: how many orders per sku text.
//! let mut b = db.circuit();
//! let skus = b.source("skus")?;
//! let teas = b.filter(skus, |row| row.datum(2).as_str() == Some("tea"));
//! let per_sku = b.count(teas, |row| row.project(&[2]));
//! let mut circuit = b.build();
//!
//! let tea_count = Row::new(vec![Datum::Str("tea".into()), Datum::Int(2)]);
//! assert_eq!(circuit.store(per_sku).weight_of(&tea_count), 1);
//!
//! // Commits flow through the subscription; sync folds them in.
//! db.apply("delete //order[sku = \"tea\"]")?;
//! circuit.sync(&mut db);
//! assert!(circuit.store(per_sku).is_empty());
//! # circuit.detach(&mut db);
//! # Ok::<(), xivm_core::Error>(())
//! ```
//!
//! [`Circuit::sync_to`] is a commit barrier: it folds in exactly the
//! commits up to a requested sequence number, so derived stores can
//! be read at the same boundary as a
//! [`DatabaseSnapshot`](xivm_core::DatabaseSnapshot) (whose
//! recomputation oracle is [`Circuit::recompute_at`]) and replay
//! deterministically however many commits landed since the last sync. The `xivm_circuit` row
//! of `ARCHITECTURE.md` (repository root) places the crate in the
//! workspace-wide picture; `tests/circuit.rs` of the umbrella crate
//! holds the `circuit_equals_recompute` property suite.

#![forbid(unsafe_code)]

mod circuit;
mod op;
mod row;
mod zset;

pub use circuit::{Circuit, CircuitBuilder, CircuitExt, Node};
pub use op::{Predicate, RowFn, ValueFn};
pub use row::{Datum, Row};
pub use zset::{DerivedStore, RowDelta};
