//! The decomposed rig of the traced run.
//!
//! The traced run keeps two states in lockstep on the same
//! statements: the product path (`Database`, timed as a whole) and
//! this rig — one `Document` plus one `MaintenanceEngine` per view —
//! driven only through the public functions of each layer, every call
//! wrapped in a span. The rig repeats exactly the steps the façade's
//! commit paths take (`apply`, the sequential transaction, deferred
//! fold and refresh), so its stores must stay `identical_to` the
//! façade's at every oracle point; that equality is what shows the
//! decomposition is faithful, and the rig's span total over the
//! façade's wall time is `trace.coverage`.

use crate::trace::Trace;
use xivm::core::{MaintenanceEngine, MultiViewEngine, SnowcapStrategy, UpdateReport};
use xivm::pattern::xpath::eval_path;
use xivm::pattern::TreePattern;
use xivm::pulopt::{aggregate, find_conflicts, reduce};
use xivm::update::statement::parse_statement;
use xivm::update::{apply_pul, compute_pul, Pul, UpdateStatement};
use xivm::xml::Document;
use xivm::Analyzer;
use xivm_xmark::{view_pattern, VIEW_NAMES};

/// What the façade's options make the rig mirror.
#[derive(Default)]
pub struct RigOptions {
    /// Mirror `.analyze(Warn)`: single statements skip the views the
    /// analyzer proves irrelevant.
    pub analyzer: Option<Analyzer>,
    /// Mirror `.view_deferred(name)`: the view's PULs are folded, not
    /// propagated, until [`Rig::refresh`].
    pub deferred: Option<&'static str>,
    /// Keep a third state, a `MultiViewEngine` with this many
    /// workers, to time `propagate_pul` and count Figure 15 shards.
    pub multiview_workers: Option<usize>,
}

struct Deferred {
    view: usize,
    /// The document as of the last refresh and the aggregated PUL
    /// since, exactly the façade's `DeferredPending`.
    pending: Option<(Document, Pul)>,
}

pub struct Rig {
    pub doc: Document,
    engines: Vec<MaintenanceEngine>,
    analyzer: Option<Analyzer>,
    deferred: Option<Deferred>,
    multiview: Option<(Document, MultiViewEngine)>,
}

/// One commit in this many is a *probe commit*: the rig repeats parts
/// of the path on their own to size them (the target lookup inside
/// `compute_pul`, the copy-on-write footprint of the apply, the
/// conflict scan). A probe leaves the caches warm for the span that
/// follows it, so probe commits stay out of the commit-path medians
/// and out of `trace.coverage`; the other commits run no probe at all.
const PROBE_EVERY: usize = 5;

/// Whether the stage's `id`-th commit is a probe commit.
pub fn is_probe_commit(id: usize) -> bool {
    id % PROBE_EVERY == PROBE_EVERY - 1
}

/// Counts taken at the layer boundaries of one rig commit.
#[derive(Default)]
pub struct RigCommit {
    pub pul_ops: usize,
    /// Nodes the statements' target paths select (probe commits).
    pub targets: Option<usize>,
    /// Chunks a copy-on-write apply of this PUL copies (probe commits,
    /// or every commit when a view is deferred).
    pub cow_chunks: Option<usize>,
    pub shards: Option<usize>,
    /// `prepare` + `finish` time per view (µs), 0 for a skipped view.
    pub per_view_us: Vec<f64>,
    /// `(commit, view)` propagations that ran, and how many of those
    /// produced an empty delta.
    pub propagations: usize,
    pub empty_propagations: usize,
}

pub fn catalog_patterns() -> Vec<TreePattern> {
    VIEW_NAMES.iter().map(|v| view_pattern(v)).collect()
}

impl Rig {
    /// Materializes the catalog over `doc` (the same seed image the
    /// façade was built from).
    pub fn new(doc: Document, options: RigOptions) -> Rig {
        let engines = catalog_patterns()
            .into_iter()
            .map(|p| MaintenanceEngine::new(&doc, p, SnowcapStrategy::MinimalChain))
            .collect();
        let multiview = options.multiview_workers.map(|workers| {
            let mut mv = MultiViewEngine::new(
                &doc,
                VIEW_NAMES
                    .iter()
                    .map(|v| ((*v).to_owned(), view_pattern(v), SnowcapStrategy::MinimalChain)),
            );
            mv.set_workers(workers);
            (doc.clone(), mv)
        });
        let deferred = options.deferred.map(|name| Deferred {
            view: VIEW_NAMES.iter().position(|v| *v == name).expect("catalog view"),
            pending: None,
        });
        Rig { doc, engines, analyzer: options.analyzer, deferred, multiview }
    }

    pub fn engine(&self, view: usize) -> &MaintenanceEngine {
        &self.engines[view]
    }

    pub fn multiview(&self) -> Option<&MultiViewEngine> {
        self.multiview.as_ref().map(|(_, mv)| mv)
    }

    /// One commit of `texts` (one statement, or several composed
    /// sequentially like `Transaction::commit`); `probing` makes it a
    /// probe commit (see [`PROBE_EVERY`]).
    pub fn commit(
        &mut self,
        tr: &mut Trace,
        texts: &[&str],
        probing: bool,
    ) -> Result<RigCommit, String> {
        let mut out = RigCommit::default();
        let mut stmts: Vec<UpdateStatement> = Vec::with_capacity(texts.len());
        for text in texts {
            let span = tr.begin("update.parse_statement");
            let parsed = parse_statement(text);
            tr.end(span);
            stmts.push(parsed.map_err(|e| e.to_string())?);
        }

        // Static skip mask: single statements only, like the façade.
        let mut skip = vec![false; self.engines.len()];
        if let (Some(analyzer), [stmt]) = (&self.analyzer, stmts.as_slice()) {
            let span = tr.begin("analyze.skip_mask");
            skip = analyzer.skip_mask(&analyzer.statement_shape(stmt));
            tr.end(span);
        }

        let pul = match stmts.as_slice() {
            [stmt] => {
                // compute_pul contains the target lookup; the probe
                // sizes that share by running it alone first.
                if probing {
                    let probe = tr.begin_probe("pattern.find_targets");
                    out.targets = Some(eval_path(&self.doc, stmt.target()).len());
                    tr.end(probe);
                }
                let span = tr.begin("update.compute_pul");
                let pul = compute_pul(&self.doc, stmt);
                tr.end(span);
                pul
            }
            many => self.sequential_pul(tr, many, probing, &mut out)?,
        };
        out.pul_ops = pul.len();

        if let Some((mv_doc, mv)) = &mut self.multiview {
            out.shards = Some(mv.partition(mv_doc, &pul).len());
            let probe = tr.begin_probe("core.multiview.propagate");
            let res = mv.propagate_pul(mv_doc, &pul);
            tr.end(probe);
            res.map_err(|e| e.to_string())?;
        }

        // The pre-image. The façade clones one only when a view is
        // deferred, and then every chunk the PUL touches is copied
        // before it is written; the rig does the same. Without a
        // deferred view the façade writes in place, so the rig must
        // not hold a clone across its own apply: it sizes the copy on
        // a scratch image instead, on the probe commits.
        let mut pre = None;
        if let Some(d) = &self.deferred {
            skip[d.view] = true;
            let span = tr.begin("xml.doc_clone");
            pre = Some(self.doc.clone());
            tr.end(span);
        } else if probing {
            let probe = tr.begin_probe("xml.cow_probe");
            let mut scratch = self.doc.clone();
            let res = apply_pul(&mut scratch, &pul);
            tr.end(probe);
            res.map_err(|e| e.to_string())?;
            out.cow_chunks = Some(scratch.chunk_count() - scratch.shared_chunks_with(&self.doc));
        }

        out.per_view_us = vec![0.0; self.engines.len()];
        let mut prepared = Vec::with_capacity(self.engines.len());
        for (i, engine) in self.engines.iter().enumerate() {
            if skip[i] {
                prepared.push(None);
                continue;
            }
            let span = tr.begin("core.engine.prepare");
            prepared.push(Some(engine.prepare(&self.doc, &pul)));
            out.per_view_us[i] += crate::stats::us(tr.end(span));
        }

        let span = tr.begin("update.apply_pul");
        let applied = apply_pul(&mut self.doc, &pul);
        tr.end(span);
        let applied = applied.map_err(|e| e.to_string())?;
        if let Some(pre) = &pre {
            out.cow_chunks = Some(self.doc.chunk_count() - self.doc.shared_chunks_with(pre));
        }

        for (i, (engine, prepared)) in self.engines.iter_mut().zip(prepared).enumerate() {
            let Some(prepared) = prepared else { continue };
            let span = tr.begin("core.engine.finish");
            let report: UpdateReport = engine.finish(&self.doc, &applied, prepared);
            out.per_view_us[i] += crate::stats::us(tr.end(span));
            out.propagations += 1;
            out.empty_propagations += usize::from(report.delta.is_empty());
        }

        if let (Some(d), false) = (&mut self.deferred, pul.is_empty()) {
            let span = tr.begin("pulopt.aggregate");
            d.pending = Some(match d.pending.take() {
                Some((base, folded)) => {
                    let folded = aggregate(&base, &folded, &pul).0;
                    (base, folded)
                }
                None => (pre.expect("cloned above for the deferred view"), pul),
            });
            tr.end(span);
        }
        Ok(out)
    }

    /// The façade's `commit_sequential`: each statement's targets are
    /// found on a scratch copy reflecting the previous ones, the PULs
    /// are folded (Figure 16) and the result reduced (Figure 14).
    fn sequential_pul(
        &mut self,
        tr: &mut Trace,
        stmts: &[UpdateStatement],
        probing: bool,
        out: &mut RigCommit,
    ) -> Result<Pul, String> {
        let mut scratch: Option<Document> = None;
        let mut combined: Option<Pul> = None;
        for (i, stmt) in stmts.iter().enumerate() {
            let doc = scratch.as_ref().unwrap_or(&self.doc);
            if probing {
                let probe = tr.begin_probe("pattern.find_targets");
                *out.targets.get_or_insert(0) += eval_path(doc, stmt.target()).len();
                tr.end(probe);
            }
            let span = tr.begin("update.compute_pul");
            let pul = compute_pul(doc, stmt);
            tr.end(span);
            if i + 1 < stmts.len() {
                if scratch.is_none() {
                    let span = tr.begin("xml.doc_clone");
                    scratch = Some(self.doc.clone());
                    tr.end(span);
                }
                let span = tr.begin("update.apply_pul");
                let res = apply_pul(scratch.as_mut().expect("cloned above"), &pul);
                tr.end(span);
                res.map_err(|e| e.to_string())?;
            }
            combined = Some(match combined {
                None => pul,
                Some(prev) => {
                    // Not on the sequential path (only independent
                    // batches scan for conflicts): sized as a probe.
                    if probing {
                        let probe = tr.begin_probe("pulopt.find_conflicts");
                        std::hint::black_box(find_conflicts(&prev, &pul));
                        tr.end(probe);
                    }
                    let span = tr.begin("pulopt.aggregate");
                    let merged = aggregate(&self.doc, &prev, &pul).0;
                    tr.end(span);
                    merged
                }
            });
        }
        let span = tr.begin("pulopt.reduce");
        let (optimized, _) = reduce(&combined.unwrap_or_default());
        tr.end(span);
        Ok(optimized)
    }

    /// The façade's `refresh` for the deferred view: one propagation
    /// of the folded batch from its base to the live document.
    pub fn refresh(&mut self, tr: &mut Trace) -> Result<(), String> {
        let Some(d) = &mut self.deferred else { return Ok(()) };
        let Some((base, folded)) = d.pending.take() else { return Ok(()) };
        let span = tr.begin("pulopt.reduce");
        let (optimized, _) = reduce(&folded);
        tr.end(span);
        let span = tr.begin("xml.doc_clone");
        let mut post = base.clone();
        tr.end(span);
        let span = tr.begin("update.apply_pul");
        let applied = apply_pul(&mut post, &optimized);
        tr.end(span);
        let applied = applied.map_err(|e| e.to_string())?;
        let engine = &mut self.engines[d.view];
        let span = tr.begin("core.engine.prepare");
        let prepared = engine.prepare(&base, &optimized);
        tr.end(span);
        let span = tr.begin("core.engine.finish");
        engine.finish(&post, &applied, prepared);
        tr.end(span);
        Ok(())
    }
}
