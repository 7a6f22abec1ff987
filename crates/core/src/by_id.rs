//! Rows found by ID. The view store and the snowcaps keep their rows in
//! document order over their ID columns, so the rows that bind a node
//! of one subtree, or of one root path, lie in a few contiguous ranges
//! that searches find from the root's Dewey ID alone:
//!
//! * [`Near::Under`] — a deletion's *bound* losses. A column binds the
//!   same node in every derivation of its row, so a row that binds a
//!   node at or under a delete root lost every derivation (PDDT decided
//!   on IDs, Section 4).
//! * [`Near::Above`] — the rows whose stored text an update changed: a
//!   `val` / `cont` column binds a node at or above an update root
//!   (PIMT / PDMT's condition).
//!
//! The most significant column is one range per root. A later column
//! `j` is searched inside blocks of the columns before it. Take an
//! earlier column `k` and the lowest pattern node `a` above both: `a`
//! binds an ancestor of `j`'s binding, so either `k`'s binding lies
//! under the root too (a loss the search at `k` itself finds), or `a`
//! binds one of the root's ancestors carrying `a`'s label. Column `k` is
//! narrowed to those ancestors' subtrees, and each of its values there
//! is one block for the next column.
//!
//! Under a root, a column is searched only where Proposition 4.7's
//! reasoning lets it bind a deleted node: its label lost nodes, and the
//! label of each of its pattern ancestors lies on the root's path or
//! lost nodes too; a label with no node left takes every row. The roots
//! come in document order, and each search on the most significant
//! column gallops on from the last one, so a deletion that removes most
//! rows costs about one pass over them. The cost is
//! O(|roots| · depth · log |rows| + blocks + rows found); no value is
//! read and no join runs.

use std::ops::Range;
use xivm_algebra::ordered::{self, seek_front};
use xivm_algebra::Tuple;
use xivm_pattern::{NodeTest, PatternNodeId, TreePattern};
use xivm_update::LabelBuckets;
use xivm_xml::{DeweyId, Document, LabelId, Step};

/// Which rows [`find`] looks for, relative to the roots.
#[derive(Clone, Copy)]
pub(crate) enum Near<'a> {
    /// A column binds a node at or under a root — one of the maximal
    /// roots of a deletion whose removed nodes are in the buckets.
    Under(&'a LabelBuckets<DeweyId>),
    /// A `val` / `cont` column binds a node at or above a root.
    Above,
}

/// A row the searches read: a snowcap's binding, or a store's counted
/// tuple.
pub(crate) trait Row {
    fn tuple(&self) -> &Tuple;
    fn tuple_mut(&mut self) -> &mut Tuple;
}

impl Row for Tuple {
    fn tuple(&self) -> &Tuple {
        self
    }
    fn tuple_mut(&mut self) -> &mut Tuple {
        self
    }
}

impl Row for (Tuple, u64) {
    fn tuple(&self) -> &Tuple {
        &self.0
    }
    fn tuple_mut(&mut self) -> &mut Tuple {
        &mut self.0
    }
}

/// The rows of `rows` that bind a node `near` one of `roots` (in
/// document order), as ascending, disjoint ranges. `cols` names each
/// column — its field and its pattern node — in the order the rows are
/// sorted by, the most significant first.
pub(crate) fn find<R: Row>(
    rows: &[R],
    cols: &[(usize, PatternNodeId)],
    pattern: &TreePattern,
    doc: &Document,
    roots: &[DeweyId],
    near: Near,
) -> Vec<Range<usize>> {
    if roots.is_empty() {
        return Vec::new();
    }
    // per pattern node, its label: `None` for a wildcard, `Some(None)`
    // for one the document never saw
    let labels = pattern.node_ids().map(|n| match &pattern.node(n).test {
        NodeTest::Wildcard => None,
        NodeTest::Name(name) => Some(doc.label_id(name)),
    });
    let (labels, found) = (labels.collect(), Vec::new());
    let mut search = Search { rows, cols, pattern, labels, near, from: 0, found };
    for (j, &(_, n)) in cols.iter().enumerate() {
        // Above a root only text columns count; under one, a column no
        // other column lies below is reached by every binding under it.
        let Near::Under(deleted) = near else {
            for root in roots.iter().filter(|_| pattern.node(n).ann.stores_text()) {
                search.seek(0..rows.len(), 0, j, root);
            }
            continue;
        };
        let label = search.labels[n.index()];
        if label.is_some_and(|l| l.is_none_or(|l| doc.canonical_nodes(l).is_empty())) {
            // no node of n's label is left: every row lost one
            search.found.clear();
            search.found.push(0..rows.len());
            break;
        }
        let lost = |m: PatternNodeId| deleted.touches(doc, &pattern.node(m).test);
        if cols.iter().any(|&(_, m)| pattern.is_ancestor(n, m)) || !lost(n) {
            continue;
        }
        // Proposition 4.7, per root: each pattern ancestor of n that
        // lost no node binds one on the root's path.
        let kept: Vec<_> =
            std::iter::successors(pattern.node(n).parent, |&a| pattern.node(a).parent)
                .filter(|&a| !lost(a))
                .filter_map(|a| search.labels[a.index()])
                .collect();
        let on_path = |root: &DeweyId| {
            kept.iter().all(|l| l.is_some_and(|l| root.has_self_or_ancestor_labeled(l)))
        };
        search.from = 0;
        for root in roots.iter().filter(|root| on_path(root)) {
            search.seek(0..rows.len(), 0, j, root);
        }
    }
    let mut found = search.found;
    found.retain(|r| !r.is_empty());
    found.sort_by_key(|r| r.start);
    found.dedup_by(|r, last| {
        let overlap = r.start <= last.end;
        if overlap {
            last.end = last.end.max(r.end);
        }
        overlap
    });
    found
}

/// Moves the rows at `ranges` out of `rows` ([`ordered::take`]).
pub(crate) fn take<R>(rows: &mut Vec<R>, ranges: &[Range<usize>]) -> Vec<R> {
    let taken = ordered::take(rows, ranges);
    #[cfg(test)]
    tests::EXAMINED.set(tests::EXAMINED.get() + taken.len());
    taken
}

struct Search<'a, R> {
    rows: &'a [R],
    cols: &'a [(usize, PatternNodeId)],
    pattern: &'a TreePattern,
    labels: Vec<Option<Option<LabelId>>>,
    near: Near<'a>,
    /// Where the last root's rows on the most significant column began:
    /// the roots come in document order, so the next root's lie after.
    from: usize,
    found: Vec<Range<usize>>,
}

impl<R: Row> Search<'_, R> {
    /// Within `span`, whose rows agree on every column before `k`: the
    /// rows whose column `j` binds a node near `root`.
    fn seek(&mut self, span: Range<usize>, k: usize, j: usize, root: &DeweyId) {
        let (rows, (field, node), target) = (self.rows, self.cols[k], self.cols[j].1);
        let under = matches!(self.near, Near::Under(_));
        if under {
            // column k under the root: lost, whatever column j binds
            let from = if k == 0 { self.from } else { span.start };
            let lost = self.within(from..span.end, field, root.steps(), false);
            self.from = if k == 0 { lost.start } else { self.from };
            self.found.push(lost);
            if k == j {
                return;
            }
        }
        // the lowest pattern node above both columns
        let mut above = node;
        while above != target && !self.pattern.is_ancestor(above, target) {
            above = self.pattern.node(above).parent.expect("the root is above every node");
        }
        let label = self.labels[above.index()];
        let steps = root.steps();
        for depth in (1..steps.len() + usize::from(!under))
            .filter(|&d| label.is_none_or(|l| l == Some(steps[d - 1].label)))
        {
            let block = self.within(span.clone(), field, &steps[..depth], above == node);
            if k == j {
                self.found.push(block);
                continue;
            }
            let mut i = block.start;
            while i < block.end {
                #[cfg(test)]
                tests::EXAMINED.set(tests::EXAMINED.get() + 1);
                let value = id(&rows[i], field);
                let end = i + seek_front(&rows[i..block.end], |r| id(r, field) == value);
                self.seek(i..end, k + 1, j, root);
                i = end;
            }
        }
    }

    /// The rows of `span` whose column `field` binds the node `p` (its
    /// root-first steps; `exact`) or a node at or under it: one range,
    /// the subtree being contiguous in document order.
    fn within(&self, span: Range<usize>, field: usize, p: &[Step], exact: bool) -> Range<usize> {
        let rows = &self.rows[span.clone()];
        let lo = seek_front(rows, |r| id(r, field).cmp_subtree(p).is_lt());
        let inside =
            |r: &R| id(r, field).steps() == p || !exact && id(r, field).cmp_subtree(p).is_eq();
        span.start + lo..span.start + lo + seek_front(&rows[lo..], inside)
    }
}

fn id<R: Row>(row: &R, field: usize) -> &DeweyId {
    &row.tuple().field(field).id
}

#[cfg(test)]
pub(crate) mod tests {
    thread_local! {
        /// The rows the calling thread's searches visited one by one:
        /// each block they stepped through and each row taken out. The
        /// searches themselves are not counted.
        pub(crate) static EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
}
