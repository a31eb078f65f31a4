//! Term interning: maps [`Term`]s to dense `u32` ids.
//!
//! The graph store and the SPARQL evaluator operate on `TermId`s so that
//! triple-pattern matching, joins and grouping hash integers instead of
//! strings. The interner is append-only; ids are stable for the lifetime of
//! the store.
//!
//! Each distinct term is stored exactly once behind an `Arc<Term>` shared by
//! the id→term table and the term→id map, and [`Interner::intern`] performs
//! a single hash lookup on the hit path (the overwhelmingly common case when
//! loading triples) with no clone of the probed term.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::term::Term;

/// Dense identifier for an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Index into the interner's term table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only bidirectional map between [`Term`]s and [`TermId`]s.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    terms: Vec<Arc<Term>>,
    ids: FxHashMap<Arc<Term>, TermId>,
}

impl Interner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (existing or fresh).
    ///
    /// Hit path: one hash lookup, no allocation. Miss path: the term is
    /// wrapped in an `Arc` shared by both directions of the map, so each
    /// distinct term is stored once.
    pub fn intern(&mut self, term: Term) -> TermId {
        match self.ids.get(&term) {
            Some(&id) => id,
            None => self.push(term),
        }
    }

    /// [`Interner::intern`] by reference; a term not seen before is stored
    /// as a copy that [shares nothing](Term::unshared) with `term`.
    pub(crate) fn intern_unshared(&mut self, term: &Term) -> TermId {
        match self.ids.get(term) {
            Some(&id) => id,
            None => self.push(term.unshared()),
        }
    }

    fn push(&mut self, term: Term) -> TermId {
        let id = TermId(
            u32::try_from(self.terms.len()).expect("interner overflow: more than 2^32 terms"),
        );
        let shared = Arc::new(term);
        self.terms.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// Make room for `additional` more terms (one table growth instead of a
    /// rehash of every stored term at each doubling).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        self.ids.reserve(additional);
    }

    /// Rebuild an interner from its persisted id-ordered term table. Ids are
    /// reassigned densely in iteration order, so feeding back the terms from
    /// [`Interner::iter`] reproduces the original id assignment exactly.
    /// Returns `None` when the list contains duplicates (a corrupt snapshot
    /// — a healthy interner never stores a term twice).
    pub(crate) fn from_terms(terms: Vec<Term>) -> Option<Self> {
        let count = terms.len();
        let mut interner = Interner::new();
        interner.terms.reserve(count);
        interner.ids.reserve(count);
        for term in terms {
            interner.intern(term);
        }
        (interner.len() == count).then_some(interner)
    }

    /// Look up an id without interning. `None` if the term was never seen.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Resolve an id back to its term.
    ///
    /// # Panics
    /// Panics if the id did not come from this interner.
    #[inline]
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over all `(id, term)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern(Term::iri("http://x/a"));
        let b = i.intern(Term::iri("http://x/b"));
        let a2 = i.intern(Term::iri("http://x/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let t = Term::string("hello");
        let id = i.intern(t.clone());
        assert_eq!(i.resolve(id), &t);
        assert_eq!(i.get(&t), Some(id));
        assert_eq!(i.get(&Term::string("other")), None);
    }

    #[test]
    fn literals_with_different_tags_are_distinct() {
        use crate::term::Literal;
        let mut i = Interner::new();
        let plain = i.intern(Term::string("x"));
        let tagged = i.intern(Term::Literal(Literal::lang_string("x", "en")));
        assert_ne!(plain, tagged);
    }

    #[test]
    fn intern_unshared_copies_a_new_term_and_only_a_new_term() {
        use crate::term::Literal;
        let mut i = Interner::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::Literal(Literal::lang_string("hallo", "de")),
            Term::integer(7),
        ];
        for t in &terms {
            let id = i.intern_unshared(t);
            let stored = i.resolve(id);
            assert_eq!(stored, t);
            // Same value, no allocation in common with the caller's term.
            let strings = |t: &Term| -> Vec<*const u8> {
                match t {
                    Term::Iri(s) | Term::Blank(s) => vec![s.as_ptr()],
                    Term::Literal(l) => {
                        [Some(&l.lexical), l.language.as_ref(), l.datatype.as_ref()]
                            .into_iter()
                            .flatten()
                            .map(|s| s.as_ptr())
                            .collect()
                    }
                }
            };
            let (ours, theirs) = (strings(stored), strings(t));
            assert_eq!(ours.len(), theirs.len());
            assert!(
                ours.iter().all(|p| !theirs.contains(p)),
                "{t} shares a string"
            );
            if let (Term::Literal(a), Term::Literal(b)) = (stored, t) {
                assert_eq!(a.parsed, b.parsed);
            }
            // A second sighting is a hit: same id, nothing stored.
            assert_eq!(i.intern_unshared(t), id);
            assert_eq!(i.intern(t.clone()), id);
        }
        assert_eq!(i.len(), terms.len());
        i.reserve(100);
        assert_eq!(i.intern(Term::iri("http://x/later")).index(), terms.len());
    }

    #[test]
    fn terms_are_stored_once() {
        let mut i = Interner::new();
        let id = i.intern(Term::string("shared"));
        // The Vec entry and the map key point at the same allocation: the
        // term is reachable from two places but owned once.
        assert_eq!(Arc::strong_count(&i.terms[id.index()]), 2);
    }
}
