//! The static relevance matrix: which statements can touch which
//! views.
//!
//! The runtime engine answers this per commit, from the labels the
//! applied PUL touched (the dynamic relevance exit of
//! `MaintenanceEngine::finish`); here the same question is answered
//! *once*, from shapes alone. A verdict of [`Verdict::Irrelevant`] is a
//! proof obligation: for every DTD-conforming document, applying the
//! statement leaves the view's extent — tuples *and* stored text —
//! unchanged. It is a claim, not a schedule: nothing checks that a
//! document conforms, so the engine skips on the dynamic exit alone,
//! which takes every slot this matrix calls irrelevant.

use crate::shape::StatementShape;
use crate::view::ViewSummary;
use std::fmt;

/// Outcome of one (view, statement) relevance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Provably no effect on the view, on any DTD-conforming document.
    Irrelevant,
    /// The label sets overlap with both sides precisely known; the
    /// statement plausibly affects the view.
    Relevant,
    /// Overlap forced by an `Any` widening (wildcard, missing schema,
    /// unparseable forest): no static claim either way.
    Unknown,
}

impl Verdict {
    /// Only [`Verdict::Irrelevant`] claims the view unchanged;
    /// `Relevant` and `Unknown` claim nothing.
    pub fn can_skip(self) -> bool {
        matches!(self, Verdict::Irrelevant)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Irrelevant => "irrelevant",
            Verdict::Relevant => "relevant",
            Verdict::Unknown => "unknown",
        })
    }
}

/// Decides whether `stmt` can affect `view`.
///
/// Three channels can carry an effect, each checked conservatively:
///
/// * **creation** — a created label may be bindable by the pattern;
/// * **destruction** — a destroyed label may be bindable, or the view
///   has a `//@attr` node (whose owner element the destroyed subtree
///   may contain under *any* label — [`ViewSummary::desc_attr`]);
/// * **text** — a surviving node whose string value changes may be
///   bound by a `val` / `cont` / `[val = c]` node.
///
/// All three silent ⇒ [`Verdict::Irrelevant`]. A dead statement
/// changes nothing; a dead view has nothing to change.
pub fn relevance(view: &ViewSummary, stmt: &StatementShape) -> Verdict {
    if stmt.dead || view.dead {
        return Verdict::Irrelevant;
    }
    let creation = view.labels.may_intersect(&stmt.creates);
    let destruction = if view.desc_attr && !stmt.destroys.is_none() {
        true
    } else {
        view.labels.may_intersect(&stmt.destroys)
    };
    let text = view.text_labels.may_intersect(&stmt.touch_scope);
    if !creation && !destruction && !text {
        return Verdict::Irrelevant;
    }
    let widened = view.labels.is_any()
        || stmt.creates.is_any()
        || stmt.destroys.is_any()
        || (text && (view.text_labels.is_any() || stmt.touch_scope.is_any()))
        || (view.desc_attr && destruction);
    if widened {
        Verdict::Unknown
    } else {
        Verdict::Relevant
    }
}

/// The full (view × statement) verdict matrix, row-major by view.
#[derive(Debug, Clone)]
pub struct RelevanceMatrix {
    /// View names, one per row.
    pub views: Vec<String>,
    /// Statement display strings, one per column.
    pub statements: Vec<String>,
    /// `verdicts[view][statement]`.
    pub verdicts: Vec<Vec<Verdict>>,
}

impl RelevanceMatrix {
    /// Builds the matrix from summaries and shapes.
    pub fn build(
        views: &[ViewSummary],
        statements: &[(String, StatementShape)],
    ) -> RelevanceMatrix {
        RelevanceMatrix {
            views: views.iter().map(|v| v.name.clone()).collect(),
            statements: statements.iter().map(|(d, _)| d.clone()).collect(),
            verdicts: views
                .iter()
                .map(|v| statements.iter().map(|(_, s)| relevance(v, s)).collect())
                .collect(),
        }
    }

    /// Fraction of (view, statement) pairs proved irrelevant.
    pub fn skip_rate(&self) -> f64 {
        let total: usize = self.verdicts.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let skipped = self.verdicts.iter().flatten().filter(|v| v.can_skip()).count();
        skipped as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaInfo;
    use xivm_dtd::grammar::figure_5a;
    use xivm_pattern::parse_pattern;
    use xivm_update::UpdateStatement;

    fn view(text: &str, s: Option<&SchemaInfo>) -> ViewSummary {
        ViewSummary::from_pattern("v", &parse_pattern(text).unwrap(), s)
    }

    fn shape(s: Option<&SchemaInfo>, stmt: &UpdateStatement) -> StatementShape {
        StatementShape::of(s, stmt)
    }

    #[test]
    fn disjoint_labels_are_irrelevant() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let v = view("/d1/a{id}", Some(&s));
        // Inserting below b creates nothing the view binds and only
        // changes string values of b and its ancestors a, d1 — but the
        // view stores no text.
        let ins = shape(Some(&s), &UpdateStatement::insert("//b", "<c/>").unwrap());
        assert_eq!(relevance(&v, &ins), Verdict::Irrelevant);
        // Deleting a c can change nothing structural the view binds.
        let del = shape(Some(&s), &UpdateStatement::delete("//b/c").unwrap());
        assert_eq!(relevance(&v, &del), Verdict::Irrelevant);
    }

    #[test]
    fn text_sensitivity_blocks_the_skip() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let v = view("/d1/a{val}", Some(&s));
        // a is in the insert's touch scope (an ancestor of b).
        let ins = shape(Some(&s), &UpdateStatement::insert("//b", "<c>t</c>").unwrap());
        assert_eq!(relevance(&v, &ins), Verdict::Relevant);
    }

    #[test]
    fn destruction_closure_fires() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let v = view("//b{id}", Some(&s));
        // Deleting an a deletes the b's inside it.
        let del = shape(Some(&s), &UpdateStatement::delete("//a").unwrap());
        assert_eq!(relevance(&v, &del), Verdict::Relevant);
    }

    #[test]
    fn dead_sides_are_irrelevant() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let dead_view = view("//zzz{id}", Some(&s));
        let ins = shape(Some(&s), &UpdateStatement::insert("//b", "<zzz/>").unwrap());
        assert_eq!(relevance(&dead_view, &ins), Verdict::Irrelevant);
        let live_view = view("//b{id}", Some(&s));
        let dead_stmt = shape(Some(&s), &UpdateStatement::insert("/d1/zzz", "<b/>").unwrap());
        assert_eq!(relevance(&live_view, &dead_stmt), Verdict::Irrelevant);
    }

    #[test]
    fn widening_yields_unknown_not_relevant() {
        let v = view("//a//*{id}", None);
        let ins = shape(None, &UpdateStatement::insert("//b", "<c/>").unwrap());
        assert_eq!(relevance(&v, &ins), Verdict::Unknown);
        // desc-attr views can lose tuples to any deletion.
        let va = view("//a//@id{val}", None);
        let del = shape(None, &UpdateStatement::delete("//q/@w").unwrap());
        assert_eq!(relevance(&va, &del), Verdict::Unknown);
    }

    #[test]
    fn matrix_counts_skips() {
        let s = SchemaInfo::from_dtd(&figure_5a()).unwrap();
        let views = vec![view("/d1/a{id}", Some(&s)), view("//c{id}", Some(&s))];
        let stmts = vec![(
            "delete //b/c".to_owned(),
            shape(Some(&s), &UpdateStatement::delete("//b/c").unwrap()),
        )];
        let m = RelevanceMatrix::build(&views, &stmts);
        assert_eq!(m.verdicts[0][0], Verdict::Irrelevant);
        assert_eq!(m.verdicts[1][0], Verdict::Relevant);
        assert!((m.skip_rate() - 0.5).abs() < 1e-9);
    }
}
