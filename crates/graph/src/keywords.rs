//! Keyword interning and per-vertex keyword sets.
//!
//! Every vertex of an attributed graph carries a set of keywords `W(v)`.
//! Keywords are interned once in a [`KeywordDictionary`] and referenced by
//! [`KeywordId`]; per-vertex sets are stored as sorted, deduplicated slices so
//! that the operations the ACQ algorithms rely on — containment of a candidate
//! keyword set (`S' ⊆ W(v)`), intersections, and pairwise Jaccard similarity —
//! are linear merge scans without hashing.

use crate::ids::KeywordId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Interns keyword strings and hands out dense [`KeywordId`]s.
///
/// The dictionary is append-only: identifiers are assigned in first-seen order
/// and never change, so they can be stored in indexes and on disk.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct KeywordDictionary {
    terms: Vec<String>,
    #[serde(skip)]
    lookup: HashMap<String, KeywordId>,
}

impl KeywordDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its identifier. Repeated calls with the same
    /// term return the same identifier.
    pub fn intern(&mut self, term: &str) -> KeywordId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id = KeywordId::from_index(self.terms.len());
        self.terms.push(term.to_owned());
        self.lookup.insert(term.to_owned(), id);
        id
    }

    /// Returns the identifier of `term` if it has been interned.
    pub fn get(&self, term: &str) -> Option<KeywordId> {
        self.lookup.get(term).copied()
    }

    /// Returns the string for `id`, or `None` if `id` was never handed out.
    pub fn term(&self, id: KeywordId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Resolves a whole keyword set into strings (unknown ids are skipped).
    pub fn terms_of<'a>(&'a self, set: &'a KeywordSet) -> impl Iterator<Item = &'a str> + 'a {
        set.iter().filter_map(|id| self.term(id))
    }

    /// Number of distinct interned keywords.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no keyword has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, term)` pairs in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> + '_ {
        self.terms.iter().enumerate().map(|(i, t)| (KeywordId::from_index(i), t.as_str()))
    }

    /// Rebuilds the string → id lookup table. Needed after deserialisation,
    /// because the lookup map is not serialised.
    pub fn rebuild_lookup(&mut self) {
        self.lookup = self
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), KeywordId::from_index(i)))
            .collect();
    }
}

/// A sorted, deduplicated set of keyword identifiers attached to one vertex.
///
/// The identifiers are immutable and shared: cloning a set copies a
/// pointer, so a graph generation that copies its keyword-set array on
/// write never moves the identifiers of untouched vertices.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeywordSet {
    ids: Arc<[KeywordId]>,
}

impl KeywordSet {
    /// The empty keyword set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary (possibly unsorted, duplicated) identifiers.
    pub fn from_ids<I: IntoIterator<Item = KeywordId>>(ids: I) -> Self {
        let mut v: Vec<KeywordId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self { ids: v.into() }
    }

    /// The same set in an allocation of its own. Builders copy every set
    /// this way, in vertex order, so the identifiers of consecutive vertices
    /// sit next to each other however the sets were produced.
    pub(crate) fn repacked(&self) -> KeywordSet {
        KeywordSet { ids: Arc::from(&self.ids[..]) }
    }

    /// Whether `self` and `other` are the same allocation.
    #[cfg(test)]
    pub(crate) fn shares_ids(&self, other: &KeywordSet) -> bool {
        Arc::ptr_eq(&self.ids, &other.ids)
    }

    /// Number of keywords in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted identifiers as a slice.
    pub fn as_slice(&self) -> &[KeywordId] {
        &self.ids
    }

    /// Iterates over the identifiers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = KeywordId> + '_ {
        self.ids.iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: KeywordId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Whether every keyword of `other` is contained in `self`
    /// (i.e. `other ⊆ self`), by a linear merge scan.
    pub fn contains_all(&self, other: &[KeywordId]) -> bool {
        debug_assert!(other.windows(2).all(|w| w[0] < w[1]), "query slice must be sorted+deduped");
        let mut it = self.ids.iter();
        'outer: for want in other {
            for have in it.by_ref() {
                match have.cmp(want) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Intersection with another set, as a new [`KeywordSet`].
    pub fn intersect(&self, other: &KeywordSet) -> KeywordSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        KeywordSet { ids: out.into() }
    }

    /// Size of the intersection with a sorted slice, without allocating.
    pub fn intersection_size(&self, other: &[KeywordId]) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < self.ids.len() && j < other.len() {
            match self.ids[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Union with another set, as a new [`KeywordSet`].
    pub fn union(&self, other: &KeywordSet) -> KeywordSet {
        let mut out = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        KeywordSet { ids: out.into() }
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|` between two keyword sets.
    ///
    /// Defined as 0 when both sets are empty (the convention used by the CPJ
    /// metric in the paper's Section 7.2.1).
    pub fn jaccard(&self, other: &KeywordSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let inter = self.intersection_size(other.as_slice());
        let union = self.len() + other.len() - inter;
        inter as f64 / union as f64
    }

    /// Returns a new set with `id` inserted (no-op if already present).
    pub fn with_inserted(&self, id: KeywordId) -> KeywordSet {
        if self.contains(id) {
            return self.clone();
        }
        let mut v = self.ids.to_vec();
        let pos = v.binary_search(&id).unwrap_err();
        v.insert(pos, id);
        KeywordSet { ids: v.into() }
    }

    /// Returns a new set with `id` removed (no-op if absent).
    pub fn with_removed(&self, id: KeywordId) -> KeywordSet {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                let mut v = self.ids.to_vec();
                v.remove(pos);
                KeywordSet { ids: v.into() }
            }
            Err(_) => self.clone(),
        }
    }
}

impl FromIterator<KeywordId> for KeywordSet {
    fn from_iter<T: IntoIterator<Item = KeywordId>>(iter: T) -> Self {
        KeywordSet::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a KeywordSet {
    type Item = KeywordId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, KeywordId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn dictionary_interns_once() {
        let mut dict = KeywordDictionary::new();
        let a = dict.intern("research");
        let b = dict.intern("sports");
        let a2 = dict.intern("research");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.term(a), Some("research"));
        assert_eq!(dict.get("sports"), Some(b));
        assert_eq!(dict.get("missing"), None);
    }

    #[test]
    fn dictionary_iterates_in_id_order() {
        let mut dict = KeywordDictionary::new();
        dict.intern("a");
        dict.intern("b");
        dict.intern("c");
        let collected: Vec<_> = dict.iter().map(|(id, t)| (id.0, t.to_owned())).collect();
        assert_eq!(collected, vec![(0, "a".into()), (1, "b".into()), (2, "c".into())]);
    }

    #[test]
    fn dictionary_rebuild_lookup_restores_get() {
        let mut dict = KeywordDictionary::new();
        dict.intern("x");
        dict.intern("y");
        let json = serde_json::to_string(&dict).unwrap();
        let mut restored: KeywordDictionary = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.get("x"), None, "lookup is not serialised");
        restored.rebuild_lookup();
        assert_eq!(restored.get("x"), Some(KeywordId(0)));
        assert_eq!(restored.get("y"), Some(KeywordId(1)));
    }

    #[test]
    fn keyword_set_sorts_and_dedups() {
        let s = kw(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_slice(), &[KeywordId(1), KeywordId(3), KeywordId(5)]);
    }

    #[test]
    fn contains_all_is_subset_test() {
        let s = kw(&[1, 3, 5, 9]);
        assert!(s.contains_all(&[KeywordId(1), KeywordId(5)]));
        assert!(s.contains_all(&[]));
        assert!(!s.contains_all(&[KeywordId(2)]));
        assert!(!s.contains_all(&[KeywordId(1), KeywordId(10)]));
    }

    #[test]
    fn intersect_and_union_are_correct() {
        let a = kw(&[1, 2, 3, 7]);
        let b = kw(&[2, 3, 4]);
        assert_eq!(a.intersect(&b), kw(&[2, 3]));
        assert_eq!(a.union(&b), kw(&[1, 2, 3, 4, 7]));
        assert_eq!(a.intersection_size(b.as_slice()), 2);
    }

    #[test]
    fn jaccard_matches_hand_computation() {
        let a = kw(&[1, 2, 3]);
        let b = kw(&[2, 3, 4, 5]);
        // |∩| = 2, |∪| = 5
        assert!((a.jaccard(&b) - 0.4).abs() < 1e-12);
        assert_eq!(KeywordSet::empty().jaccard(&KeywordSet::empty()), 0.0);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn insert_and_remove_produce_new_sets() {
        let a = kw(&[1, 3]);
        let b = a.with_inserted(KeywordId(2));
        assert_eq!(b, kw(&[1, 2, 3]));
        assert_eq!(a, kw(&[1, 3]), "original untouched");
        assert_eq!(b.with_removed(KeywordId(2)), a);
        assert_eq!(a.with_removed(KeywordId(99)), a);
        assert_eq!(a.with_inserted(KeywordId(1)), a);
    }

    #[test]
    fn membership_via_binary_search() {
        let a = kw(&[10, 20, 30]);
        assert!(a.contains(KeywordId(20)));
        assert!(!a.contains(KeywordId(25)));
    }
}
