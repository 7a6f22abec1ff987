//! Optimizing the propagation of XML update sequences (Section 5).
//!
//! Re-implements, for the two fundamental operations `ins↘(v, P)` and
//! `del(v)` (Section 5.2), the rule set of Cavalieri et al. \[2011\]:
//!
//! * **Reduction rules** ([`mod@reduce`]): O1, O3 and I5 (Figure 14) —
//!   simplify one PUL by dropping operations made useless by later
//!   deletions and merging repeated insertions;
//! * **Conflict rules** ([`conflict`]): IO, LO and NLO (Figure 15) —
//!   detect order-dependence between two PULs to be run in parallel,
//!   with pluggable resolution policies;
//! * **Partitioning** ([`partition`]): the Figure 15 rules lifted to
//!   per-view op projections of one shared PUL — which views care
//!   about order-dependent operations of it (an analysis; propagation
//!   runs the views in declaration order regardless);
//! * **Aggregation rules** ([`mod@aggregate`]): A1, A2 and D6 (Figure 16)
//!   — merge two PULs to be run sequentially into one.
//!
//! The optimized PUL is then handed to the maintenance engine instead
//! of the original (Figure 13's CP → OR → PINT/PDDT pipeline).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod conflict;
pub mod partition;
pub mod reduce;

pub use aggregate::{aggregate, AggregationOutcome};
pub use conflict::{
    find_conflicts, integrate, op_conflict, Conflict, ConflictKind, ConflictPolicy,
};
pub use partition::{internal_conflict_pairs, partition_projections};
pub use reduce::{reduce, ReductionTrace};
