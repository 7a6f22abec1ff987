//! Compact dynamic Dewey identifiers.
//!
//! Following the paper (Section 2.1), each node carries a structural ID
//! that is a sequence of steps, one per ancestor, each step holding the
//! ancestor's *label* and its *relative position* among its siblings.
//! The properties the maintenance algorithms rely on are:
//!
//! 1. **structural** — parent / ancestor relationships are decidable by
//!    comparing two IDs (`is_parent_of`, `is_ancestor_of`);
//! 2. **self-describing** — the IDs *and labels* of all ancestors can be
//!    extracted from a node's ID (`label_path`, `ancestors`), which
//!    powers the ID-driven pruning of Propositions 3.8 and 4.7 and the
//!    `PathFilter` physical operator;
//! 3. **update-stable** — no relabeling is ever needed: sibling
//!    ordinals are allocated with gaps (`ORD_STRIDE`) and insertions
//!    between siblings take the midpoint of the gap;
//! 4. **compact** — IDs encode to a variable-length byte string
//!    (`encode` / `decode`).

use crate::label::LabelId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cmp::Ordering;
use std::fmt;

/// Gap between consecutive sibling ordinals, leaving room for ~20
/// successive midpoint insertions before a gap is exhausted.
pub const ORD_STRIDE: u64 = 1 << 20;

/// One step of a Dewey ID: the label of an ancestor (or of the node
/// itself, for the last step) and its gap-allocated sibling ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    pub label: LabelId,
    pub ord: u64,
}

impl Step {
    pub fn new(label: LabelId, ord: u64) -> Self {
        Step { label, ord }
    }
}

/// A structural node identifier: the root-first sequence of steps on
/// the path from the document root down to the node.
///
/// `DeweyId`s are standalone values: view tuples store them without any
/// pointer back into the document, which is what lets materialized
/// views be maintained without touching base data (Section 7 contrasts
/// this with approaches whose IDs are store pointers).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DeweyId {
    steps: Vec<Step>,
}

impl DeweyId {
    /// The empty ID (conceptually above the root; no real node).
    pub fn empty() -> Self {
        DeweyId { steps: Vec::new() }
    }

    /// Builds an ID from root-first steps.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        DeweyId { steps }
    }

    /// An ID for a document root with the given label.
    pub fn root(label: LabelId) -> Self {
        DeweyId { steps: vec![Step::new(label, ORD_STRIDE)] }
    }

    /// The ID of a child of `self` with the given label and ordinal.
    pub fn child(&self, label: LabelId, ord: u64) -> Self {
        let mut steps = Vec::with_capacity(self.steps.len() + 1);
        steps.extend_from_slice(&self.steps);
        steps.push(Step::new(label, ord));
        DeweyId { steps }
    }

    /// Number of steps, i.e. the depth of the node (root = 1).
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Root-first steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The label of the identified node itself.
    pub fn label(&self) -> Option<LabelId> {
        self.steps.last().map(|s| s.label)
    }

    /// The ID of the parent node, or `None` for the root / empty ID.
    pub fn parent(&self) -> Option<DeweyId> {
        if self.steps.len() <= 1 {
            return None;
        }
        Some(DeweyId { steps: self.steps[..self.steps.len() - 1].to_vec() })
    }

    /// All proper ancestor IDs, nearest first.
    pub fn ancestors(&self) -> Vec<DeweyId> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        while let Some(p) = cur.parent() {
            out.push(p.clone());
            cur = p;
        }
        out
    }

    /// Labels on the root-to-node path (property 2 above). The last
    /// entry is the node's own label.
    pub fn label_path(&self) -> Vec<LabelId> {
        self.steps.iter().map(|s| s.label).collect()
    }

    /// True iff `self` identifies the parent of `other` (the paper's
    /// `≺` comparison).
    pub fn is_parent_of(&self, other: &DeweyId) -> bool {
        other.steps.len() == self.steps.len() + 1 && other.steps.starts_with(&self.steps)
    }

    /// True iff `self` identifies a proper ancestor of `other` (the
    /// paper's `≺≺` comparison).
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        other.steps.len() > self.steps.len() && other.steps.starts_with(&self.steps)
    }

    /// True iff `self` is `other` or an ancestor of it.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        other.steps.len() >= self.steps.len() && other.steps.starts_with(&self.steps)
    }

    /// True iff some proper ancestor of the node carries `label`
    /// (drives the pruning of Propositions 3.8 / 4.7).
    pub fn has_proper_ancestor_labeled(&self, label: LabelId) -> bool {
        self.steps.len() > 1 && self.steps[..self.steps.len() - 1].iter().any(|s| s.label == label)
    }

    /// True iff the node or an ancestor carries `label`.
    pub fn has_self_or_ancestor_labeled(&self, label: LabelId) -> bool {
        self.steps.iter().any(|s| s.label == label)
    }

    /// Document-order comparison. Sibling ordinals are totally ordered
    /// and an ancestor precedes all of its descendants, so lexicographic
    /// comparison of ordinal sequences is exactly document order.
    pub fn doc_cmp(&self, other: &DeweyId) -> Ordering {
        for (a, b) in self.steps.iter().zip(other.steps.iter()) {
            match a.ord.cmp(&b.ord) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.steps.len().cmp(&other.steps.len())
    }

    /// Where the node lies against the subtree of the node whose
    /// root-first steps are `root` (an ID's prefix will do, uncopied), in
    /// document order: `Less` before it, `Equal` in it (at its root
    /// included), `Greater` after it.
    pub fn cmp_subtree(&self, root: &[Step]) -> Ordering {
        let by_ord =
            self.steps.iter().zip(root).map(|(a, b)| a.ord.cmp(&b.ord)).find(|o| o.is_ne());
        by_ord.unwrap_or(self.steps.len().cmp(&root.len()).min(Ordering::Equal))
    }

    /// Compact variable-length encoding (property 4). Each step is a
    /// LEB128 label id followed by a LEB128 ordinal.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.steps.len() * 4 + 2);
        write_varint(&mut buf, self.steps.len() as u64);
        for s in &self.steps {
            write_varint(&mut buf, u64::from(s.label.0));
            write_varint(&mut buf, s.ord);
        }
        buf.freeze()
    }

    /// Inverse of [`DeweyId::encode`]. Returns `None` on malformed input.
    pub fn decode(mut bytes: &[u8]) -> Option<DeweyId> {
        let n = read_varint(&mut bytes)? as usize;
        // Every step costs at least two bytes (one per varint), so a
        // count that exceeds the remaining input is malformed. Check
        // *before* reserving: the count is attacker-controlled on the
        // wire path, and `with_capacity` on a bare varint would turn a
        // 10-byte frame into a multi-GB allocation.
        if n > bytes.len() / 2 {
            return None;
        }
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            let label = read_varint(&mut bytes)?;
            let ord = read_varint(&mut bytes)?;
            steps.push(Step::new(LabelId(u32::try_from(label).ok()?), ord));
        }
        if bytes.has_remaining() {
            return None;
        }
        Some(DeweyId { steps })
    }

    /// Renders the ID as `a1.c1.b2`-style text using a label resolver,
    /// mirroring the subscripts used in the paper's figures.
    pub fn display_with<F: Fn(LabelId) -> String>(&self, resolve: F) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&resolve(s.label));
            out.push_str(&(s.ord / ORD_STRIDE).to_string());
        }
        out
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.doc_cmp(other)
    }
}

impl fmt::Display for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}:{}", s.label.0, s.ord)?;
        }
        Ok(())
    }
}

/// Ordinal for a new last sibling given the current last ordinal.
pub fn next_sibling_ord(last: Option<u64>) -> u64 {
    match last {
        None => ORD_STRIDE,
        Some(o) => o.saturating_add(ORD_STRIDE),
    }
}

/// Ordinal strictly between `left` and `right`, if the gap allows one.
/// `None` on exhaustion (≈20 consecutive midpoint splits of one gap);
/// the paper's workloads never split gaps because XQuery Update inserts
/// append children, but the API supports general sibling insertion.
pub fn between_ord(left: u64, right: u64) -> Option<u64> {
    debug_assert!(left < right);
    let mid = left + (right - left) / 2;
    (mid > left).then_some(mid)
}

fn write_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn read_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !bytes.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = bytes.get_u8();
        // The tenth byte holds bit 63 and nothing else: a larger payload
        // would be shifted out, a second encoding of the same value.
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn id(parts: &[(u32, u64)]) -> DeweyId {
        DeweyId::from_steps(parts.iter().map(|&(a, b)| Step::new(l(a), b)).collect())
    }

    /// A subtree is one stretch of document order: before it, in it (its
    /// root and every descendant), after it — an ancestor of the root
    /// comes before.
    #[test]
    fn cmp_subtree_places_a_node_against_a_subtree() {
        let root = id(&[(0, 1), (1, 5)]);
        let cases = [
            (id(&[(0, 1)]), Ordering::Less),
            (id(&[(0, 1), (1, 4), (2, 9)]), Ordering::Less),
            (id(&[(0, 1), (1, 5)]), Ordering::Equal),
            (id(&[(0, 1), (1, 5), (2, 1), (3, 3)]), Ordering::Equal),
            (id(&[(0, 1), (1, 6)]), Ordering::Greater),
            (id(&[(0, 2)]), Ordering::Greater),
        ];
        for (node, place) in cases {
            assert_eq!(node.cmp_subtree(root.steps()), place, "{node}");
            let expected = if root.is_ancestor_or_self_of(&node) {
                Ordering::Equal
            } else {
                node.doc_cmp(&root)
            };
            assert_eq!(place, expected, "{node}");
        }
    }

    #[test]
    fn root_and_child_construction() {
        let r = DeweyId::root(l(0));
        assert_eq!(r.depth(), 1);
        let c = r.child(l(1), next_sibling_ord(None));
        assert_eq!(c.depth(), 2);
        assert_eq!(c.label(), Some(l(1)));
        assert_eq!(c.parent().unwrap(), r);
    }

    #[test]
    fn parent_and_ancestor_tests() {
        let a = id(&[(0, 10)]);
        let ab = id(&[(0, 10), (1, 20)]);
        let abc = id(&[(0, 10), (1, 20), (2, 30)]);
        assert!(a.is_parent_of(&ab));
        assert!(!a.is_parent_of(&abc));
        assert!(a.is_ancestor_of(&ab));
        assert!(a.is_ancestor_of(&abc));
        assert!(!ab.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        assert!(a.is_ancestor_or_self_of(&a));
    }

    #[test]
    fn unrelated_nodes_are_not_ancestors() {
        let x = id(&[(0, 10), (1, 20)]);
        let y = id(&[(0, 10), (1, 30), (2, 5)]);
        assert!(!x.is_ancestor_of(&y));
        assert!(!y.is_ancestor_of(&x));
    }

    #[test]
    fn doc_order_is_lexicographic_with_ancestors_first() {
        let a = id(&[(0, 10)]);
        let ab = id(&[(0, 10), (1, 20)]);
        let ac = id(&[(0, 10), (1, 25)]);
        let abd = id(&[(0, 10), (1, 20), (3, 1)]);
        assert_eq!(a.doc_cmp(&ab), Ordering::Less);
        assert_eq!(ab.doc_cmp(&ac), Ordering::Less);
        assert_eq!(ab.doc_cmp(&abd), Ordering::Less);
        assert_eq!(abd.doc_cmp(&ac), Ordering::Less);
        assert_eq!(ab.doc_cmp(&ab), Ordering::Equal);
    }

    #[test]
    fn label_path_and_ancestor_labels() {
        let abc = id(&[(0, 10), (1, 20), (2, 30)]);
        assert_eq!(abc.label_path(), vec![l(0), l(1), l(2)]);
        assert!(abc.has_proper_ancestor_labeled(l(1)));
        assert!(!abc.has_proper_ancestor_labeled(l(2)));
        assert!(abc.has_self_or_ancestor_labeled(l(2)));
        assert!(!abc.has_self_or_ancestor_labeled(l(9)));
    }

    #[test]
    fn ancestors_nearest_first() {
        let abc = id(&[(0, 10), (1, 20), (2, 30)]);
        let anc = abc.ancestors();
        assert_eq!(anc.len(), 2);
        assert_eq!(anc[0], id(&[(0, 10), (1, 20)]));
        assert_eq!(anc[1], id(&[(0, 10)]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases =
            [DeweyId::empty(), id(&[(0, ORD_STRIDE)]), id(&[(0, 10), (1, 1 << 40), (700, 3)])];
        for c in &cases {
            let enc = c.encode();
            assert_eq!(DeweyId::decode(&enc).as_ref(), Some(c));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(DeweyId::decode(&[0x80]), None);
        // trailing bytes after declared steps
        let mut enc = id(&[(1, 2)]).encode().to_vec();
        enc.push(0);
        assert_eq!(DeweyId::decode(&enc), None);
    }

    /// One value, one encoding: the tenth byte of a varint carries one
    /// bit. `0x7f` there used to decode to `u64::MAX` too, six bits
    /// shifted out.
    #[test]
    fn decode_rejects_a_varint_that_overflows() {
        let ord = |tenth: u8| [&[1, 0][..], &[0xff; 9], &[tenth]].concat();
        let max = id(&[(0, u64::MAX)]);
        assert_eq!(max.encode().as_ref(), ord(0x01));
        assert_eq!(DeweyId::decode(&ord(0x01)), Some(max));
        assert_eq!(DeweyId::decode(&ord(0x7f)), None);
        assert_eq!(DeweyId::decode(&ord(0x02)), None);
        assert_eq!(DeweyId::decode(&[&ord(0x81)[..], &[0]].concat()), None, "an eleventh byte");
    }

    #[test]
    fn decode_bounds_step_count_against_remaining_bytes() {
        // A step count larger than the input could possibly hold must
        // fail fast instead of reserving a huge Vec: this 10-byte frame
        // declares ~2^60 steps.
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00];
        assert_eq!(DeweyId::decode(&huge), None);
        // u64::MAX-ish count with no payload at all
        assert_eq!(DeweyId::decode(&[0xff, 0xff, 0xff, 0x7f]), None);
        // count 2 but only one step's worth of bytes
        assert_eq!(DeweyId::decode(&[2, 1, 1]), None);
    }

    #[test]
    fn sibling_ordinal_allocation() {
        let first = next_sibling_ord(None);
        let second = next_sibling_ord(Some(first));
        assert!(first < second);
        let mid = between_ord(first, second).unwrap();
        assert!(first < mid && mid < second);
        assert_eq!(between_ord(5, 6), None);
    }

    #[test]
    fn midpoints_allow_many_insertions() {
        let mut left = next_sibling_ord(None);
        let right = next_sibling_ord(Some(left));
        let mut count = 0;
        let mut l_ord = left;
        while let Some(m) = between_ord(l_ord, right) {
            l_ord = m;
            count += 1;
            if count > 64 {
                break;
            }
        }
        assert!(count >= 18, "expected ~20 splits, got {count}");
        left += 0; // silence unused
        let _ = left;
    }

    #[test]
    fn display_with_resolver() {
        let d = id(&[(0, ORD_STRIDE), (1, 2 * ORD_STRIDE)]);
        let s = d.display_with(|lab| if lab == l(0) { "a".into() } else { "b".into() });
        assert_eq!(s, "a1.b2");
    }
}
