//! The analysis façade: one [`Analyzer`] per (DTD, view catalog).
//!
//! Build it once, then ask it about statements: a [`StatementShape`]
//! costs one path walk (no document access), a skip mask one relevance
//! check per view. The `Database` façade builds one behind its
//! `analyze(Strict|Warn)` builder knob only to lint the catalog at
//! `build()` ([`Analyzer::report`]) and then drops it — no commit asks
//! it anything; the `analyze_lint` example drives the same API as a CI
//! gate.

use crate::independence;
use crate::relevance::{relevance, RelevanceMatrix, Verdict};
use crate::report::{AnalysisReport, Finding, Severity};
use crate::schema::SchemaInfo;
use crate::shape::StatementShape;
use crate::view::ViewSummary;
use xivm_dtd::Dtd;
use xivm_pattern::TreePattern;
use xivm_update::UpdateStatement;

/// Static analyses over one (DTD, view catalog) pair.
#[derive(Debug, Clone)]
pub struct Analyzer {
    schema: Option<SchemaInfo>,
    views: Vec<ViewSummary>,
}

impl Analyzer {
    /// Summarizes `views` against `dtd` (pass `None` to analyze from
    /// label alphabets alone).
    pub fn new<'a, I>(dtd: Option<&Dtd>, views: I) -> Analyzer
    where
        I: IntoIterator<Item = (&'a str, &'a TreePattern)>,
    {
        let schema = dtd.and_then(SchemaInfo::from_dtd);
        let views = views
            .into_iter()
            .map(|(name, p)| ViewSummary::from_pattern(name, p, schema.as_ref()))
            .collect();
        Analyzer { schema, views }
    }

    /// The schema relations, when a usable DTD was supplied.
    pub fn schema(&self) -> Option<&SchemaInfo> {
        self.schema.as_ref()
    }

    /// The view summaries, in catalog order.
    pub fn views(&self) -> &[ViewSummary] {
        &self.views
    }

    /// Abstracts one statement (one path walk; no document access).
    pub fn statement_shape(&self, stmt: &UpdateStatement) -> StatementShape {
        StatementShape::of(self.schema.as_ref(), stmt)
    }

    /// Per-view verdicts for one statement shape, in catalog order.
    pub fn verdicts(&self, shape: &StatementShape) -> Vec<Verdict> {
        self.views.iter().map(|v| relevance(v, shape)).collect()
    }

    /// Skip mask for one statement shape: `mask[i] == true` means view
    /// `i` is statically irrelevant — on a DTD-conforming document the
    /// statement cannot change it.
    pub fn skip_mask(&self, shape: &StatementShape) -> Vec<bool> {
        self.views.iter().map(|v| relevance(v, shape).can_skip()).collect()
    }

    /// Are the statements of a batch provably pairwise independent
    /// (Figure 15 lifted to shapes)? `true` means the runtime pairwise
    /// conflict scan finds nothing on any DTD-conforming document.
    pub fn batch_independent(&self, statements: &[UpdateStatement]) -> bool {
        let shapes: Vec<StatementShape> =
            statements.iter().map(|s| self.statement_shape(s)).collect();
        independence::pairwise_independent(&shapes)
    }

    /// Full report over the catalog and a statement workload: dead
    /// views (errors), dead statements (warnings) and the relevance
    /// matrix.
    pub fn report<'a, I>(&self, statements: I) -> AnalysisReport
    where
        I: IntoIterator<Item = (&'a str, &'a UpdateStatement)>,
    {
        let mut findings = Vec::new();
        for v in &self.views {
            if v.dead {
                findings.push(Finding {
                    severity: Severity::Error,
                    subject: v.name.clone(),
                    message: "view pattern matches no DTD-conforming document; \
                              the view is always empty"
                        .to_owned(),
                });
            }
        }
        let mut shaped = Vec::new();
        for (name, stmt) in statements {
            let shape = self.statement_shape(stmt);
            if shape.dead {
                findings.push(Finding {
                    severity: Severity::Warning,
                    subject: name.to_owned(),
                    message: "statement target selects nothing in any \
                              DTD-conforming document; the statement is a no-op"
                        .to_owned(),
                });
            }
            shaped.push((name.to_owned(), shape));
        }
        AnalysisReport {
            findings,
            matrix: RelevanceMatrix::build(&self.views, &shaped),
            schema_informed: self.schema.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_dtd::grammar::figure_5a;
    use xivm_pattern::parse_pattern;

    fn analyzer() -> Analyzer {
        let dtd = figure_5a();
        let views = [
            ("live", parse_pattern("/d1/a{id}").unwrap()),
            ("dead", parse_pattern("//zzz{id}").unwrap()),
            ("textual", parse_pattern("//b{val}").unwrap()),
        ];
        Analyzer::new(Some(&dtd), views.iter().map(|(n, p)| (*n, p)))
    }

    #[test]
    fn dead_views_become_errors() {
        let a = analyzer();
        let stmt = UpdateStatement::insert("//b", "<c/>").unwrap();
        let report = a.report([("ins", &stmt)]);
        assert!(report.has_errors());
        assert_eq!(report.errors().count(), 1);
        assert!(report.schema_informed);
        assert_eq!(report.matrix.views.len(), 3);
    }

    #[test]
    fn dead_statements_become_warnings() {
        let a = analyzer();
        let stmt = UpdateStatement::insert("/d1/zzz", "<c/>").unwrap();
        let report = a.report([("noop", &stmt)]);
        let warn: Vec<_> =
            report.findings.iter().filter(|f| f.severity == Severity::Warning).collect();
        assert_eq!(warn.len(), 1);
        assert_eq!(warn[0].subject, "noop");
    }

    #[test]
    fn skip_masks_follow_the_matrix() {
        let a = analyzer();
        // An element-only insert below b: irrelevant to "live" (no c
        // in its labels, no text stored), irrelevant to "dead", but
        // text-relevant to "textual" (b's value changes).
        let shape = a.statement_shape(&UpdateStatement::insert("//b", "<c>t</c>").unwrap());
        assert_eq!(a.skip_mask(&shape), vec![true, true, false]);
        assert_eq!(
            a.verdicts(&shape),
            vec![Verdict::Irrelevant, Verdict::Irrelevant, Verdict::Relevant]
        );
    }

    #[test]
    fn batch_independence() {
        let a = analyzer();
        let ins_a = UpdateStatement::insert("/d1/a", "<b/>").unwrap();
        let ins_b = UpdateStatement::insert("//b", "<c/>").unwrap();
        assert!(a.batch_independent(&[ins_a.clone(), ins_b.clone()]));
        let del_a = UpdateStatement::delete("//a").unwrap();
        assert!(!a.batch_independent(&[del_a, ins_b]));
    }
}
