//! DTDs as extended context-free grammars, and the runtime
//! schema-violation checks of Section 3.3.
//!
//! A DTD is a set of rules `symbol → regular expression` over
//! terminals (element labels) and non-terminals (Figure 5). From the
//! rules we derive constraints on the Δ⁺ tables of an insertion —
//! e.g. Example 3.9's `Δ⁺_c = ∅ ⇒ Δ⁺_b = ∅` (every inserted `b`
//! requires a `c` below it) and Example 3.10's
//! `Δ⁺_a ≠ ∅ ⇒ Δ⁺_b ≠ ∅ ∧ Δ⁺_c ≠ ∅` (siblings grouped under a
//! repetition must be inserted together) — and check them before an
//! update is applied.
//!
//! Module map: [`grammar`] (Figure 5 grammars), [`regex`] (rule
//! right-hand sides), [`analysis`] (deriving Δ⁺ constraints),
//! [`check`] (the runtime check of Section 3.3). See the
//! `xivm_dtd` table in `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod check;
pub mod grammar;
pub mod regex;

pub use analysis::{
    child_label_map, cooccurrence_groups, mandatory_descendants, mandatory_descendants_checked,
    reachable_label_map, MandatoryReport,
};
pub use check::{check_insert, implications, Implication, SchemaViolation};
pub use grammar::{parse_dtd, Dtd, DtdParseError};
pub use regex::Rx;
