//! XMark-like workloads (Section 6.1).
//!
//! The paper evaluates on XMark [Schmidt et al. 2002] documents,
//! XMark queries as views, and XPathMark-derived updates
//! (Appendix A). This crate re-creates that workload deterministically:
//!
//! * [`generator`] — a seeded generator emitting the XMark auction
//!   schema subset the views and updates touch, scaled by a byte
//!   target;
//! * [`views`] — the view catalog (Q1, Q2, Q3, Q4, Q6, Q13, Q17 of
//!   Appendix A.6, parsed from their XQuery text) and the Q1
//!   annotation variants of Figure 24;
//! * [`updates`] — the update catalog of Appendix A (classes L, LB,
//!   A, O, AO), each usable as an insertion or a deletion;
//! * [`sizes`] — the document-size ladder of the experiments;
//! * [`dtd`] — the auction schema as a Figure 5 grammar, matching the
//!   generator exactly (the static analyzer's schema input).
//!
//! Scale knobs: `XIVM_FULL=1` switches [`sizes`] to the paper's
//! 100 KB – 50 MB ladder; the quick-mode defaults keep `cargo bench`
//! in minutes. The `xivm_xmark` table in `ARCHITECTURE.md`
//! (repository root) maps every module to its Appendix A anchor.

#![forbid(unsafe_code)]

pub mod dtd;
pub mod generator;
pub mod sizes;
pub mod updates;
pub mod views;

pub use dtd::{xmark_dtd, XMARK_DTD};
pub use generator::{generate, generate_sized, XmarkConfig};
pub use updates::{
    all_updates, update_by_name, updates_for_view, BenchUpdate, UpdateClass, DEPTH_LADDER,
    X1_L_PRED,
};
pub use views::{q1_variant, view_pattern, view_query, Q1Variant, VIEW_NAMES};
