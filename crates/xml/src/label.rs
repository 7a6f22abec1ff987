//! Interned node labels.
//!
//! Element tags, attribute names (stored with a leading `@`) and the
//! pseudo-label for text nodes are interned into dense [`LabelId`]s so
//! canonical relations, Dewey steps and pattern nodes can compare labels
//! with a single integer comparison.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Pseudo-label under which all text nodes are registered.
pub const TEXT_LABEL: &str = "#text";

/// A dense identifier for an interned label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Raw index, usable to address side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A map keyed by [`LabelId`], for the maps a walk writes once per
/// node (an edit's per-label runs, a PUL's Δ buckets). Ids are dense
/// and handed out by the interner — input chooses names, never ids —
/// so one multiplication spreads them; SipHash here was a tenth of a
/// bulk delete's apply.
pub type LabelMap<V> = HashMap<LabelId, V, BuildHasherDefault<LabelHasher>>;

/// The hasher of [`LabelMap`]: Fibonacci hashing of the id.
#[derive(Debug, Default, Clone, Copy)]
pub struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(self.0 as u32 ^ u32::from(b)));
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Bidirectional label ↔ id mapping.
///
/// Interners are append-only: ids are stable for the lifetime of the
/// owning document, which is what keeps Dewey steps self-describing.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    names: Vec<String>,
    ids: HashMap<String, LabelId>,
}

impl LabelInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing id when already present.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.ids.get(name).copied()
    }

    /// The textual name of `id`.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (LabelId(i as u32), n.as_str()))
    }
}

/// Conventional interned spelling of an attribute named `name`.
pub fn attribute_label(name: &str) -> String {
    format!("@{name}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut li = LabelInterner::new();
        let a = li.intern("a");
        let b = li.intern("b");
        assert_ne!(a, b);
        assert_eq!(li.intern("a"), a);
        assert_eq!(li.len(), 2);
    }

    #[test]
    fn name_roundtrip() {
        let mut li = LabelInterner::new();
        let id = li.intern("open_auction");
        assert_eq!(li.name(id), "open_auction");
        assert_eq!(li.get("open_auction"), Some(id));
        assert_eq!(li.get("missing"), None);
    }

    #[test]
    fn a_label_map_keeps_dense_ids_apart() {
        let mut map: LabelMap<u32> = LabelMap::default();
        (0..1000).for_each(|i| *map.entry(LabelId(i)).or_default() += i);
        (0..1000).for_each(|i| *map.entry(LabelId(i)).or_default() += 1);
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|i| map[&LabelId(i)] == i + 1));
    }

    #[test]
    fn attribute_labels_are_prefixed() {
        assert_eq!(attribute_label("id"), "@id");
    }

    #[test]
    fn iter_yields_in_order() {
        let mut li = LabelInterner::new();
        li.intern("x");
        li.intern("y");
        let names: Vec<_> = li.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
