//! Comparison baselines for the Section 6 experiments.
//!
//! * [`recompute`] — re-evaluating the view from scratch on the
//!   updated document (Section 6.5, Figures 26–27);
//! * [`ivma`] — a re-implementation of the node-at-a-time IVMA
//!   algorithm of Sawires et al. \[2005\] (Section 6.6, Figure 28):
//!   updates are applied one node at a time and each node is
//!   propagated individually by navigating the document, with no
//!   structural joins and no bulk Δ tables.
//!
//! Both baselines are driven by the Figure 26–28 runners in
//! `xivm_bench`; their rows in `ARCHITECTURE.md` (repository root)
//! place them in the workspace-wide picture.

#![forbid(unsafe_code)]

pub mod ivma;
pub mod recompute;

pub use ivma::IvmaView;
pub use recompute::recompute_store;
