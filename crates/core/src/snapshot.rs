//! Snapshots: frozen in-memory database images and binary view images.
//!
//! Two layers share this module:
//!
//! * [`DatabaseSnapshot`] — a cheap MVCC snapshot of a whole
//!   [`Database`](crate::database::Database): the document (a
//!   copy-on-write [`Document`] clone, O(chunks)) plus every view
//!   store behind an `Arc`, stamped with the sequence number of the
//!   last sealed commit. Readers iterate, cursor and evaluate XPath
//!   against the frozen image while commits keep landing on the live
//!   database; a commit that must mutate a store still held by a
//!   snapshot copies it first (`Arc::make_mut`), so neither side ever
//!   blocks the other.
//! * [`encode_store`] / [`decode_store`] — the on-disk image. Section
//!   7 contrasts the approach with Galax's algebra-based maintenance
//!   precisely on this point: "our approach requires manipulating only
//!   tuples of IDs, that may be stored on disk … and read as needed".
//!   The encoding is a compact self-describing image of a
//!   [`ViewStore`] built on the variable-length Dewey ID encoding.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "XIVM" · version u16 · arity u16
//! per column:  name (len-prefixed utf-8) · flags u8 (val|cont)
//! tuple count u64
//! per tuple:   derivation count u64
//!              per field: dewey (len-prefixed) ·
//!                         val  (0u32 or len-prefixed utf-8) ·
//!                         cont (0u32 or len-prefixed utf-8)
//! ```

use crate::commit::ViewDelta;
use crate::database::ViewHandle;
use crate::error::Error;
use crate::subscribe::{DeltaEvent, FeedEvent, Lagged};
use crate::view_store::{run_cmp, Cursor, ViewStore};
use std::sync::Arc;
use xivm_algebra::{Column, Field, Schema, Tuple};
use xivm_pattern::xpath::{eval_path, parse_xpath};
use xivm_xml::{serialize_document, DeweyId, Document, NodeId};

const MAGIC: &[u8; 4] = b"XIVM";
const VERSION: u16 = 1;

/// Magic for framed feed events ([`encode_event`] / [`decode_event`]):
/// same family as the store image, distinct so a store image fed to the
/// event decoder (or vice versa) fails loudly at the first four bytes.
const EVENT_MAGIC: &[u8; 4] = b"XIVE";
const EVENT_VERSION: u16 = 2;

/// Snapshot and wire-frame decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    BadMagic,
    UnsupportedVersion(u16),
    Truncated,
    /// Structurally invalid input: `what` names the field, `pos` is the
    /// byte offset the decoder had reached — enough to diagnose which
    /// frame of a wire stream went bad.
    Corrupt {
        what: &'static str,
        pos: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a xivm snapshot"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt { what, pos } => {
                write!(f, "corrupt snapshot: {what} at byte {pos}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes the store (schema, tuples, derivation counts).
pub fn encode_store(store: &ViewStore) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + store.len() * 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let schema = store.schema();
    out.extend_from_slice(&(schema.arity() as u16).to_le_bytes());
    for col in &schema.columns {
        write_bytes(&mut out, col.name.as_bytes());
        out.push(u8::from(col.stores_val) | (u8::from(col.stores_cont) << 1));
    }
    let tuples = store.cursor();
    out.extend_from_slice(&(tuples.len() as u64).to_le_bytes());
    for (t, count) in tuples {
        out.extend_from_slice(&count.to_le_bytes());
        t.fields().iter().for_each(|field| write_field(&mut out, field));
    }
    out
}

/// Reconstructs a store from [`encode_store`]'s output.
pub fn decode_store(bytes: &[u8]) -> Result<ViewStore, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let arity = r.u16()? as usize;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let pos = r.pos;
        let name = String::from_utf8(r.bytes_field()?.to_vec())
            .map_err(|_| SnapshotError::Corrupt { what: "column name", pos })?;
        let flags = r.take(1)?[0];
        columns.push(Column::with(name, flags & 1 != 0, flags & 2 != 0));
    }
    let schema = Schema::new(columns);
    let n = r.u64()?;
    // Only what an encoder writes is a store: rows strictly in document
    // order, each with at least one derivation.
    let mut rows: Vec<(Tuple, u64)> = Vec::new();
    for _ in 0..n {
        let pos = r.pos;
        let count = r.u64()?;
        if count == 0 {
            return Err(SnapshotError::Corrupt { what: "zero count", pos });
        }
        let tuple = read_fields(&mut r, arity)?;
        if rows.last().is_some_and(|(prev, _)| prev.doc_cmp(&tuple).is_ge()) {
            return Err(SnapshotError::Corrupt { what: "row order", pos });
        }
        rows.push((tuple, count));
    }
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupt { what: "trailing bytes", pos: r.pos });
    }
    Ok(ViewStore::from_rows(schema, rows))
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn write_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.extend_from_slice(&u32::MAX.to_le_bytes()),
        Some(s) => write_bytes(out, s.as_bytes()),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        // Bound against the *remaining* bytes, never `pos + n`: a
        // length prefix near usize::MAX must read as Truncated, not
        // wrap the addition and hand out a bogus slice.
        if n > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize;
        self.take(len)
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<Arc<str>>, SnapshotError> {
    let pos = r.pos;
    let len = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
    if len == u32::MAX {
        return Ok(None);
    }
    let s = std::str::from_utf8(r.take(len as usize)?)
        .map_err(|_| SnapshotError::Corrupt { what: "utf-8 string", pos })?;
    Ok(Some(Arc::from(s)))
}

fn write_field(out: &mut Vec<u8>, field: &Field) {
    write_bytes(out, &field.id.encode());
    write_opt_str(out, field.val.as_deref());
    write_opt_str(out, field.cont.as_deref());
}

/// One tuple's fields, `arity` of them (a store image states it once,
/// an event frame per tuple).
fn read_fields(r: &mut Reader<'_>, arity: usize) -> Result<Tuple, SnapshotError> {
    let mut fields = Vec::with_capacity(arity.min(256));
    for _ in 0..arity {
        let pos = r.pos;
        let id = DeweyId::decode(r.bytes_field()?)
            .ok_or(SnapshotError::Corrupt { what: "dewey id", pos })?;
        fields.push(Field::new(id, read_opt_str(r)?, read_opt_str(r)?));
    }
    Ok(Tuple::new(fields))
}

// ---------------------------------------------------------------------
// Feed-event wire frames
// ---------------------------------------------------------------------

fn write_tuple(out: &mut Vec<u8>, tuple: &Tuple) {
    out.extend_from_slice(&(tuple.arity() as u16).to_le_bytes());
    for field in tuple.fields() {
        write_field(out, field);
    }
}

const EVENT_KIND_DELTA: u8 = 0;
const EVENT_KIND_LAGGED: u8 = 1;

/// Serializes one feed element — a commit's [`DeltaEvent`] or a
/// [`Lagged`] gap marker — as one self-describing frame, in the same
/// magic/version/length-prefixed style as [`encode_store`]:
///
/// ```text
/// magic "XIVE" · version u16 · kind u8
/// kind 0 (delta):  seq u64 · folded u8 (0|1) [· lo u64 · hi u64]
///                  entries u64 · per entry: weight i64 · tuple
/// kind 1 (lagged): lo u64 · hi u64
/// tuple: arity u16 · per field: dewey · val · cont   (as encode_store)
/// ```
///
/// The entries are the delta's run ([`ViewDelta::rows`]), in its order.
pub fn encode_event(event: &FeedEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(EVENT_MAGIC);
    out.extend_from_slice(&EVENT_VERSION.to_le_bytes());
    match event {
        FeedEvent::Delta(e) => {
            out.push(EVENT_KIND_DELTA);
            out.extend_from_slice(&e.seq.to_le_bytes());
            match &e.folded {
                None => out.push(0),
                Some(range) => {
                    out.push(1);
                    out.extend_from_slice(&range.start().to_le_bytes());
                    out.extend_from_slice(&range.end().to_le_bytes());
                }
            }
            out.extend_from_slice(&(e.delta.rows.len() as u64).to_le_bytes());
            for (tuple, weight) in &e.delta.rows {
                out.extend_from_slice(&weight.to_le_bytes());
                write_tuple(&mut out, tuple);
            }
        }
        FeedEvent::Lagged(lag) => {
            out.push(EVENT_KIND_LAGGED);
            out.extend_from_slice(&lag.missed_range.start().to_le_bytes());
            out.extend_from_slice(&lag.missed_range.end().to_le_bytes());
        }
    }
    out
}

/// Reconstructs a feed element from [`encode_event`]'s output. All the
/// [`decode_store`] hardening guarantees apply: corrupt or truncated
/// frames yield a typed [`SnapshotError`] (with the byte position for
/// `Corrupt`), never a panic or an attacker-sized allocation.
pub fn decode_event(bytes: &[u8]) -> Result<FeedEvent, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != EVENT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != EVENT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let kind_pos = r.pos;
    let kind = r.take(1)?[0];
    let event = match kind {
        EVENT_KIND_DELTA => {
            let seq = r.u64()?;
            let folded_pos = r.pos;
            let folded = match r.take(1)?[0] {
                0 => None,
                1 => {
                    let lo = r.u64()?;
                    let hi = r.u64()?;
                    if lo > hi || hi > seq {
                        return Err(SnapshotError::Corrupt {
                            what: "folded range",
                            pos: folded_pos,
                        });
                    }
                    Some(lo..=hi)
                }
                _ => return Err(SnapshotError::Corrupt { what: "folded flag", pos: folded_pos }),
            };
            // Only what an encoder writes is a delta: the run's
            // invariant, as far as a frame alone can show it.
            let mut rows: Vec<(Tuple, i64)> = Vec::new();
            for _ in 0..r.u64()? {
                let pos = r.pos;
                let (weight, arity) = (r.u64()? as i64, r.u16()? as usize);
                let entry = (read_fields(&mut r, arity)?, weight);
                let text = |f: &Field| f.val.is_some() || f.cont.is_some();
                let what = if rows.first().is_some_and(|(t, _)| t.arity() != entry.0.arity()) {
                    "tuple arity"
                } else if rows.last().is_some_and(|prev| run_cmp(prev, &entry).is_ge()) {
                    "entry order"
                } else if entry.1 < 0 && entry.0.fields().iter().any(text) {
                    "text on a negative entry"
                } else {
                    rows.push(entry);
                    continue;
                };
                return Err(SnapshotError::Corrupt { what, pos });
            }
            FeedEvent::Delta(DeltaEvent { seq, folded, delta: Arc::new(ViewDelta { rows }) })
        }
        EVENT_KIND_LAGGED => {
            let lo = r.u64()?;
            let hi = r.u64()?;
            if lo > hi {
                return Err(SnapshotError::Corrupt { what: "lag range", pos: kind_pos });
            }
            FeedEvent::Lagged(Lagged { missed_range: lo..=hi })
        }
        _ => return Err(SnapshotError::Corrupt { what: "event kind", pos: kind_pos }),
    };
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupt { what: "trailing bytes", pos: r.pos });
    }
    Ok(event)
}

// ---------------------------------------------------------------------
// In-memory MVCC snapshots
// ---------------------------------------------------------------------

/// A frozen image of a whole database at one commit boundary.
///
/// Produced by [`Database::snapshot`]: the document is a copy-on-write
/// clone (chunk pointers only, see [`xivm_xml::Arena`]) and every view
/// store is the live `Arc` at capture time, so taking a snapshot is
/// O(views + document chunks) — no tuple and no node is copied. The
/// image is gapless: it reflects exactly the commits `1..=seq()`,
/// never a half-propagated state, because [`Database`] only exposes
/// `&self` between commits.
///
/// Later commits never show through: the first mutation of any chunk,
/// canonical-relation list or store still shared with this snapshot
/// copies it on the writer's side (`Arc::make_mut`), so readers keep
/// the frozen originals without ever blocking a commit.
///
/// [`Database`]: crate::database::Database
/// [`Database::snapshot`]: crate::database::DbInner::snapshot
pub struct DatabaseSnapshot {
    seq: u64,
    doc: Document,
    views: Vec<(String, Arc<ViewStore>)>,
}

impl DatabaseSnapshot {
    /// Captures an image (called by `Database::snapshot` with its
    /// current commit counter, document and store `Arc`s).
    pub(crate) fn new(seq: u64, doc: Document, views: Vec<(String, Arc<ViewStore>)>) -> Self {
        DatabaseSnapshot { seq, doc, views }
    }

    /// The sequence number of the last commit this snapshot reflects
    /// (0 for a snapshot of a fresh database).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The frozen document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// Serializes the frozen document.
    pub fn serialize(&self) -> String {
        serialize_document(&self.doc)
    }

    /// Number of views in the image.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Resolves a view name to its handle. Handles are interchangeable
    /// with the originating database's: both index declaration order.
    pub fn view(&self, name: &str) -> Result<ViewHandle, Error> {
        self.views
            .iter()
            .position(|(n, _)| n == name)
            .map(ViewHandle)
            .ok_or_else(|| Error::UnknownView(name.into()))
    }

    /// View names in declaration order.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The name behind a handle.
    pub fn name(&self, view: ViewHandle) -> &str {
        &self.views.get(view.index()).expect("handle from this snapshot").0
    }

    /// The frozen tuples of a view.
    pub fn store(&self, view: ViewHandle) -> &ViewStore {
        &self.views.get(view.index()).expect("handle from this snapshot").1
    }

    /// Document-order cursor over a view's frozen tuples.
    pub fn cursor(&self, view: ViewHandle) -> Cursor<'_> {
        self.store(view).cursor()
    }

    /// Evaluates an XPath location path against the frozen document —
    /// reads see exactly the state at [`Self::seq`], no matter how many
    /// commits have landed on the live database since.
    pub fn xpath(&self, path: &str) -> Result<Vec<NodeId>, Error> {
        let parsed = parse_xpath(path)?;
        Ok(eval_path(&self.doc, &parsed))
    }

    /// Binary image of one view ([`encode_store`]): snapshots are the
    /// natural producer of on-disk images, being immutable by
    /// construction.
    pub fn encode_view(&self, view: ViewHandle) -> Vec<u8> {
        encode_store(self.store(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_pattern::compile::view_tuples;
    use xivm_pattern::parse_pattern;
    use xivm_xml::parse_document;

    fn sample_store() -> ViewStore {
        let d = parse_document("<a>x<c><b>t</b><b/></c><f><c><b/></c></f></a>").unwrap();
        let p = parse_pattern("//a{id,val}[//c{id}]//b{id,cont}").unwrap();
        ViewStore::from_counted(&p, view_tuples(&d, &p))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let bytes = encode_store(&store);
        let back = decode_store(&bytes).unwrap();
        assert!(store.same_content_as(&back));
        assert_eq!(store.schema(), back.schema());
        // val/cont strings survive too
        assert!(store.identical_to(&back));
    }

    #[test]
    fn empty_store_roundtrips() {
        let p = parse_pattern("//a{id}").unwrap();
        let store = ViewStore::new(&p);
        let back = decode_store(&encode_store(&store)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let store = sample_store();
        let bytes = encode_store(&store);
        assert!(matches!(decode_store(b"nope"), Err(SnapshotError::BadMagic)));
        assert_eq!(
            decode_store(&bytes[..bytes.len() - 3]).map(|_| ()).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut versioned = bytes.clone();
        versioned[4] = 99;
        assert!(matches!(decode_store(&versioned), Err(SnapshotError::UnsupportedVersion(_))));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_store(&trailing).map(|_| ()).unwrap_err(),
            SnapshotError::Corrupt { what: "trailing bytes", pos: bytes.len() }
        );
    }

    /// Frames no encoder writes: a key twice, rows out of order, a row
    /// without a derivation.
    #[test]
    fn rows_out_of_order_and_zero_counts_are_rejected() {
        let store = sample_store();
        let rows: Vec<(Tuple, u64)> = store.cursor().map(|(t, c)| (t.clone(), c)).collect();
        let image = |rows: &[(Tuple, u64)]| {
            let mut out = encode_store(&ViewStore::from_rows(store.schema().clone(), Vec::new()));
            out.truncate(out.len() - 8);
            out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            for (t, count) in rows {
                out.extend_from_slice(&count.to_le_bytes());
                t.fields().iter().for_each(|f| write_field(&mut out, f));
            }
            out
        };
        let what = |rows: &[(Tuple, u64)]| match decode_store(&image(rows)) {
            Err(SnapshotError::Corrupt { what, .. }) => what,
            other => panic!("accepted or misreported: {:?}", other.map(|s| s.len())),
        };
        assert_eq!(image(&rows), encode_store(&store), "the frames below differ in rows only");
        assert_eq!(what(&[rows[0].clone(), rows[0].clone()]), "row order", "a key twice");
        assert_eq!(what(&[rows[1].clone(), rows[0].clone()]), "row order");
        assert_eq!(what(&[(rows[0].0.clone(), 0)]), "zero count");
    }

    #[test]
    fn hostile_length_prefix_is_truncated_not_allocated() {
        // A frame whose first length prefix claims u32::MAX-ish bytes
        // must fail as Truncated without reserving that much: overwrite
        // the first column-name length field of a valid image.
        let bytes = encode_store(&sample_store());
        let mut hostile = bytes.clone();
        hostile[8..12].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        assert_eq!(decode_store(&hostile).map(|_| ()).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn errors_display() {
        assert!(SnapshotError::BadMagic.to_string().contains("snapshot"));
        let c = SnapshotError::Corrupt { what: "x", pos: 7 };
        assert!(c.to_string().contains('x') && c.to_string().contains('7'));
    }

    /// A delta over the sample store's tuples: a loss, a gain on the
    /// same key, a text change, a gain.
    fn sample_delta() -> ViewDelta {
        let tuples: Vec<Tuple> = sample_store().cursor().map(|(t, _)| t.clone()).collect();
        ViewDelta::new(vec![
            (tuples[0].clone(), 1),
            (tuples[1].clone(), -2),
            (tuples[1].clone(), 1),
            (tuples[2].clone(), 0),
        ])
    }

    #[test]
    fn event_frames_roundtrip() {
        use crate::subscribe::{DeltaEvent, FeedEvent, Lagged};

        let delta = Arc::new(sample_delta());
        for event in [
            FeedEvent::Delta(DeltaEvent { seq: 42, folded: None, delta: Arc::clone(&delta) }),
            FeedEvent::Delta(DeltaEvent { seq: 9, folded: Some(3..=9), delta }),
            FeedEvent::Delta(DeltaEvent { seq: 1, folded: None, delta: Arc::default() }),
            FeedEvent::Lagged(Lagged { missed_range: 4..=17 }),
        ] {
            let bytes = encode_event(&event);
            let back = decode_event(&bytes).unwrap();
            // re-encoding the decoded event must reproduce the frame
            // byte for byte — the replica path depends on it
            assert_eq!(encode_event(&back), bytes);
            match (&event, &back) {
                (FeedEvent::Delta(a), FeedEvent::Delta(b)) => {
                    assert_eq!(a.seq, b.seq);
                    assert_eq!(a.folded, b.folded);
                    assert_eq!(a.delta, b.delta);
                }
                (FeedEvent::Lagged(a), FeedEvent::Lagged(b)) => {
                    assert_eq!(a.missed_range, b.missed_range);
                }
                _ => panic!("event kind changed in flight"),
            }
        }
    }

    /// Frames no encoder writes: each breaks the run's invariant in a
    /// way the frame alone shows, and each is named at its entry.
    #[test]
    fn delta_frames_outside_the_runs_invariant_are_rejected() {
        use crate::subscribe::{DeltaEvent, FeedEvent};

        let frame = |rows: Vec<(Tuple, i64)>| {
            let delta = Arc::new(ViewDelta { rows });
            encode_event(&FeedEvent::Delta(DeltaEvent { seq: 1, folded: None, delta }))
        };
        let what = |rows: Vec<(Tuple, i64)>| match decode_event(&frame(rows)) {
            Err(SnapshotError::Corrupt { what, pos }) => {
                assert!(pos > 15, "reported at the entry, not the header");
                what
            }
            other => panic!("accepted or misreported: {other:?}"),
        };
        let good = sample_delta().rows;
        assert!(decode_event(&frame(good.clone())).is_ok());
        let (first, loss, gain) = (good[0].clone(), good[1].clone(), good[2].clone());
        assert_eq!(what(vec![loss.clone(), first.clone()]), "entry order");
        assert_eq!(what(vec![gain.clone(), loss.clone()]), "entry order", "a gain before its loss");
        assert_eq!(what(vec![first.clone(), (first.0.clone(), 0)]), "entry order", "a key twice");
        assert_eq!(what(vec![loss.clone(), (loss.0.clone(), -1)]), "entry order", "two losses");
        assert_eq!(what(vec![(gain.0.clone(), -1)]), "text on a negative entry");
        let shorter = Tuple::new(gain.0.fields()[..1].to_vec());
        assert_eq!(what(vec![first, (shorter, 1)]), "tuple arity");
        // the version before the one section: refused whole
        let mut old = frame(good);
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode_event(&old).unwrap_err(), SnapshotError::UnsupportedVersion(1));
    }

    #[test]
    fn event_frame_corruption_is_detected() {
        use crate::subscribe::{FeedEvent, Lagged};

        assert!(matches!(decode_event(b"nope"), Err(SnapshotError::BadMagic)));
        let bytes = encode_event(&FeedEvent::Lagged(Lagged { missed_range: 4..=17 }));
        // store magic into the event decoder: BadMagic, not a misparse
        assert!(matches!(
            decode_event(&encode_store(&sample_store())),
            Err(SnapshotError::BadMagic)
        ));
        assert!(decode_event(&bytes[..bytes.len() - 1]).is_err());
        let mut kind = bytes.clone();
        kind[6] = 9;
        assert!(matches!(
            decode_event(&kind),
            Err(SnapshotError::Corrupt { what: "event kind", .. })
        ));
        // inverted lag range
        let mut inv = bytes.clone();
        inv[7..15].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            decode_event(&inv),
            Err(SnapshotError::Corrupt { what: "lag range", .. })
        ));
    }
}
