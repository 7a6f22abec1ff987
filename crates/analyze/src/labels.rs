//! Possibly-unknown label sets.
//!
//! Every static verdict reduces to questions about sets of element
//! labels ("which labels can this statement create?", "which labels
//! can be ancestors of its targets?"). [`Labels`] is such a set with
//! an explicit *unknown* top element: [`Labels::Any`] means "could be
//! any label" and makes every may-question answer conservatively.

use std::collections::BTreeSet;
use std::fmt;

/// A set of labels, or the unknown superset of all labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Labels {
    /// Could be any label (wildcard step, unparseable forest, missing
    /// DTD): every may-question about it answers "yes".
    Any,
    /// Exactly these labels are possible.
    Set(BTreeSet<String>),
}

impl Default for Labels {
    fn default() -> Self {
        Labels::none()
    }
}

impl Labels {
    /// The empty set (nothing is possible).
    pub fn none() -> Self {
        Labels::Set(BTreeSet::new())
    }

    /// A singleton set.
    pub fn one(label: impl Into<String>) -> Self {
        let mut set = BTreeSet::new();
        set.insert(label.into());
        Labels::Set(set)
    }

    pub fn is_any(&self) -> bool {
        matches!(self, Labels::Any)
    }

    /// True when the set is provably empty (not [`Labels::Any`]).
    pub fn is_none(&self) -> bool {
        matches!(self, Labels::Set(s) if s.is_empty())
    }

    /// May the two sets share a label? (The conservative question:
    /// `Any` intersects anything except a provably empty set.)
    pub fn may_intersect(&self, other: &Labels) -> bool {
        match (self, other) {
            (Labels::Set(a), Labels::Set(b)) => a.intersection(b).next().is_some(),
            (Labels::Any, Labels::Set(s)) | (Labels::Set(s), Labels::Any) => !s.is_empty(),
            (Labels::Any, Labels::Any) => true,
        }
    }

    /// In-place union; `Any` absorbs everything.
    pub fn extend_with(&mut self, other: &Labels) {
        match (&mut *self, other) {
            (Labels::Any, _) => {}
            (_, Labels::Any) => *self = Labels::Any,
            (Labels::Set(a), Labels::Set(b)) => a.extend(b.iter().cloned()),
        }
    }

    /// Inserts one label (no-op on `Any`).
    pub fn insert(&mut self, label: impl Into<String>) {
        if let Labels::Set(s) = self {
            s.insert(label.into());
        }
    }

    /// Union of two sets.
    pub fn union(mut self, other: &Labels) -> Labels {
        self.extend_with(other);
        self
    }

    /// Conservative intersection: `Any` is the identity (intersecting
    /// with "could be anything" keeps the other side's knowledge).
    pub fn intersection(&self, other: &Labels) -> Labels {
        match (self, other) {
            (Labels::Any, o) => o.clone(),
            (s, Labels::Any) => s.clone(),
            (Labels::Set(a), Labels::Set(b)) => Labels::Set(a.intersection(b).cloned().collect()),
        }
    }

    /// The concrete labels, if known.
    pub fn as_set(&self) -> Option<&BTreeSet<String>> {
        match self {
            Labels::Any => None,
            Labels::Set(s) => Some(s),
        }
    }

    /// True when every known label names an attribute (`@…`) or a text
    /// node (`#text`) — nodes that can have no element children, so
    /// any further child / descendant step is dead. `Any` and the
    /// empty set answer false.
    pub fn all_leaf_kinds(&self) -> bool {
        match self {
            Labels::Any => false,
            Labels::Set(s) => {
                !s.is_empty() && s.iter().all(|l| l.starts_with('@') || l.starts_with('#'))
            }
        }
    }
}

/// A set from an iterator of labels.
impl FromIterator<String> for Labels {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Labels::Set(iter.into_iter().collect())
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Labels::Any => write!(f, "*"),
            Labels::Set(s) => {
                write!(f, "{{")?;
                for (i, l) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_is_conservative() {
        assert!(Labels::Any.may_intersect(&Labels::one("a")));
        assert!(!Labels::Any.may_intersect(&Labels::none()), "empty set intersects nothing");
    }

    #[test]
    fn set_ops() {
        let ab = Labels::from_iter(["a".to_owned(), "b".to_owned()]);
        let bc = Labels::from_iter(["b".to_owned(), "c".to_owned()]);
        let cd = Labels::from_iter(["c".to_owned(), "d".to_owned()]);
        assert!(ab.may_intersect(&bc));
        assert!(!ab.may_intersect(&cd));
        assert_eq!(ab.union(&bc).as_set().unwrap().len(), 3);
    }

    #[test]
    fn leaf_kinds() {
        assert!(Labels::one("@id").all_leaf_kinds());
        assert!(Labels::from_iter(["@id".to_owned(), "#text".to_owned()]).all_leaf_kinds());
        assert!(!Labels::one("a").all_leaf_kinds());
        assert!(!Labels::none().all_leaf_kinds());
        assert!(!Labels::Any.all_leaf_kinds());
    }
}
