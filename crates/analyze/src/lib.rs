//! Static analysis over (DTD, view catalog, statement shapes).
//!
//! The runtime engine decides *per commit* which views an update can
//! touch (label footprints, Figure 15 conflict scans, term pruning).
//! Much of that is decidable *once*, ahead of execution, from the
//! schema and the catalog alone. This crate implements three such
//! analyses:
//!
//! 1. **Satisfiability / deadness** — each view pattern and each
//!    statement target path is checked against the DTD (reachability,
//!    child alphabets, required-cycle empty languages from
//!    [`xivm_dtd::mandatory_descendants_checked`]): a pattern that can
//!    match no valid document is *dead* and reported as a finding.
//! 2. **Static relevance** — for every (view, statement label-shape)
//!    pair a [`Verdict`]: *irrelevant* / *relevant* / *unknown*,
//!    derived from label alphabets, axes and DTD reachability.
//! 3. **Static independence** — the Figure 15 IO / LO / NLO rules
//!    lifted from concrete Dewey targets to path/label shapes
//!    ([`independence`]): a batch proved independent cannot conflict,
//!    *unknown* claims nothing.
//!
//! Every verdict is **conservative for DTD-conforming documents**:
//! static *irrelevant* implies the runtime [`ViewDelta`] is empty and
//! static *independent* implies `pulopt::conflict` finds nothing —
//! property-tested against the dynamic oracle in the workspace's
//! `analyze_soundness` suite. Without a DTD the analyses degrade
//! gracefully: only label-alphabet reasoning applies (absolute
//! child-axis paths stay precise, descendant axes and deletions widen
//! to *unknown*).
//!
//! Nothing skips work on a verdict. Nothing checks that a document or
//! an insert conforms, so a verdict can be wrong about the document a
//! database actually holds. The `Database` façade runs the analyzer
//! once, as a lint at `build()` (dead views, the matrix on its
//! `AnalysisReport`), and its commits skip a view only through the
//! engine's dynamic relevance exit, which needs no DTD; the
//! `analyze_soundness` suite checks that the exit takes every slot the
//! matrix calls *irrelevant*.
//!
//! [`ViewDelta`]: https://docs.rs/xivm_core
//!
//! Module map: [`schema`] (DTD-derived label relations), [`labels`]
//! (may-intersect label sets), [`shape`] (path and statement shapes),
//! [`view`] (view summaries and deadness), [`mod@relevance`] (the
//! matrix), [`independence`] (shape-level Figure 15), [`report`]
//! (findings and severities), [`analyzer`] (the façade).
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod independence;
pub mod labels;
pub mod relevance;
pub mod report;
pub mod schema;
pub mod shape;
pub mod view;

pub use analyzer::Analyzer;
pub use independence::{independent, pairwise_independent, Independence};
pub use labels::Labels;
pub use relevance::{relevance, RelevanceMatrix, Verdict};
pub use report::{AnalysisReport, AnalyzeMode, Finding, Severity};
pub use schema::SchemaInfo;
pub use shape::{PathShape, StatementShape};
pub use view::ViewSummary;
