//! Term interning: maps [`Term`]s to dense `u32` ids.
//!
//! The graph store and the SPARQL evaluator operate on `TermId`s so that
//! triple-pattern matching, joins and grouping hash integers instead of
//! strings. The interner is append-only; ids are stable for the lifetime of
//! the store.
//!
//! The layout is two vectors, and each distinct term is stored once:
//!
//! - `terms` holds the terms by value, each at its id. A [`Term`] is 24
//!   bytes with its strings (and a literal's typed value) behind `Arc`s, so
//!   [`Interner::resolve`] is one indexed load and a clone of the result
//!   allocates nothing.
//! - `slots` is an open-addressing table of ids: a power-of-two number of
//!   `u32`s, probed linearly from the term's [`FxHasher`] hash and never
//!   more than `MAX_LOAD_PERCENT` full. A slot is `EMPTY` or an id in
//!   its low bits under a `tag` of the id's hash in the bits an id never
//!   needs, so a probe compares with `terms[id]` only where the tag
//!   matches. The table holds no terms and no whole hashes: a growth
//!   rehashes from `terms`.
//!
//! [`Interner::intern`] on a term already stored is one hash and a probe,
//! with no allocation and no clone of the probed term; a lookup of an
//! absent term (the evaluator's [`get`](Interner::get) of each computed
//! value) almost never reads a stored term.

use std::hash::{Hash, Hasher};

use crate::hash::{FxHasher, FINISH_ROTATION};
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

/// A slot holding no id. Its id bits are all ones, which no id is: a table
/// of `n` slots holds at most `3n / 4` terms.
const EMPTY: u32 = u32::MAX;

/// The id table grows (doubles) before it is more than this full. Linear
/// probing stays short below it; at scale 4000 the table is 68 % full.
const MAX_LOAD_PERCENT: usize = 75;

/// The smallest table a first term allocates.
const MIN_SLOTS: usize = 8;

/// The most terms an interner holds: a 2^32-slot table, 3/4 full, the
/// largest whose slots a `u32` addresses.
const MAX_TERMS: usize = (1 << 32) / 100 * MAX_LOAD_PERCENT;

/// Append-only bidirectional map between [`Term`]s and [`TermId`]s.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    terms: Vec<Term>,
    slots: Vec<u32>,
}

/// The hasher's last product, before `finish`'s rotation: [`home`] and
/// [`tag`] read its high bits, where the multiply mixed every input bit.
fn hash_of(term: &Term) -> u64 {
    let mut hasher = FxHasher::default();
    term.hash(&mut hasher);
    hasher.finish().rotate_right(FINISH_ROTATION)
}

/// The table size that holds `len` ids at most [`MAX_LOAD_PERCENT`] full:
/// a function of `len` alone, however the table got there.
fn slots_for(len: usize) -> usize {
    (len * 100)
        .div_ceil(MAX_LOAD_PERCENT)
        .next_power_of_two()
        .max(MIN_SLOTS)
}

/// Where `hash`'s probe sequence starts in a table of `slots.len()` slots.
/// The hasher's last step is a multiply, which mixes every input bit into
/// the high bits of the hash but not into the low ones: index by the high.
#[inline]
fn home(slots: &[u32], hash: u64) -> usize {
    (hash >> (64 - slots.len().trailing_zeros())) as usize
}

/// The bits of a slot that hold its id, in a table of `size` slots (an id
/// is below `size`).
#[inline]
fn id_bits(size: usize) -> u32 {
    (size - 1) as u32
}

/// The tag of `hash` in a table of `size` slots, in the slot bits above the
/// id bits: the hash bits just below those [`home`] takes. Terms that share
/// a home slot share a tag 1 time in `2^32 / size`.
#[inline]
fn tag(hash: u64, size: usize) -> u32 {
    ((hash >> 32) as u32)
        .checked_shl(size.trailing_zeros())
        .unwrap_or(0)
}

/// `Ok(id)` of the slot on `hash`'s probe sequence that holds `term`
/// (`terms` resolves the ids the table holds), else `Err` of the empty slot
/// that ends the sequence, where its id would go. `slots` is never full,
/// so the probe ends.
#[inline]
fn probe(slots: &[u32], terms: &[Term], term: &Term, hash: u64) -> Result<u32, usize> {
    let (ids, tag) = (id_bits(slots.len()), tag(hash, slots.len()));
    let mut slot = home(slots, hash);
    loop {
        match slots[slot] {
            EMPTY => return Err(slot),
            s if s & !ids == tag && terms[(s & ids) as usize] == *term => return Ok(s & ids),
            _ => slot = (slot + 1) & ids as usize,
        }
    }
}

/// A table of `size` slots holding the ids of `terms`; `None` if a term
/// occurs twice.
fn table_of(terms: &[Term], size: usize) -> Option<Vec<u32>> {
    let mut slots = vec![EMPTY; size];
    for (id, term) in terms.iter().enumerate() {
        let hash = hash_of(term);
        let slot = probe(&slots, &terms[..id], term, hash).err()?;
        slots[slot] = tag(hash, size) | id as u32;
    }
    Some(slots)
}

impl Interner {
    /// Empty interner (allocates nothing until the first term).
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn intern(&mut self, term: Term) -> TermId {
        match self.find(&term) {
            Ok(id) => id,
            Err(hash) => self.push(term, hash),
        }
    }

    /// [`Interner::intern`] by reference; a term not seen before is stored
    /// as a copy that [shares nothing](Term::unshared) with `term`.
    pub(crate) fn intern_unshared(&mut self, term: &Term) -> TermId {
        match self.find(term) {
            Ok(id) => id,
            Err(hash) => self.push(term.unshared(), hash),
        }
    }

    /// `Ok` of `term`'s id, else `Err` of its hash.
    fn find(&self, term: &Term) -> Result<TermId, u64> {
        let hash = hash_of(term);
        if self.slots.is_empty() {
            return Err(hash);
        }
        match probe(&self.slots, &self.terms, term, hash) {
            Ok(id) => Ok(TermId(id)),
            Err(_) => Err(hash),
        }
    }

    /// Store `term`, known absent and hashing to `hash`, under the next id.
    fn push(&mut self, term: Term, hash: u64) -> TermId {
        assert!(
            self.terms.len() < MAX_TERMS,
            "interner overflow: more than {MAX_TERMS} terms"
        );
        let id = self.terms.len() as u32;
        if slots_for(self.terms.len() + 1) > self.slots.len() {
            self.rehash(slots_for(self.terms.len() + 1));
        }
        let slot =
            probe(&self.slots, &self.terms, &term, hash).expect_err("a pushed term is absent");
        self.slots[slot] = tag(hash, self.slots.len()) | id;
        self.terms.push(term);
        TermId(id)
    }

    /// Rebuild the id table at `size` slots from `terms`.
    fn rehash(&mut self, size: usize) {
        // The old table goes first, so the two are never live together.
        self.slots = Vec::new();
        self.slots = table_of(&self.terms, size).expect("stored terms are distinct");
    }

    /// Make room for `additional` more terms (one table growth instead of a
    /// rehash at each doubling).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        let size = slots_for(self.terms.len() + additional);
        if size > self.slots.len() {
            self.rehash(size);
        }
    }

    /// Give back what [`Interner::reserve`] or growth by doubling left
    /// spare: the term table to its length, the id table to the size its
    /// length needs — the size [`Interner::from_terms`] builds.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.terms.shrink_to_fit();
        if self.terms.is_empty() {
            self.slots = Vec::new();
        } else if slots_for(self.terms.len()) < self.slots.len() {
            self.rehash(slots_for(self.terms.len()));
        }
    }

    /// Rebuild an interner from its persisted id-ordered term table, which
    /// becomes the interner's term table as it is. Ids are assigned densely
    /// in iteration order, so feeding back the terms from
    /// [`Interner::iter`] reproduces the original id assignment exactly.
    /// Returns `None` when the list contains duplicates (a corrupt snapshot
    /// — a healthy interner never stores a term twice) or more terms than
    /// an interner holds.
    pub fn from_terms(mut terms: Vec<Term>) -> Option<Self> {
        if terms.is_empty() {
            return Some(Interner::new());
        }
        if terms.len() > MAX_TERMS {
            return None;
        }
        terms.shrink_to_fit();
        let slots = table_of(&terms, slots_for(terms.len()))?;
        Some(Interner { terms, slots })
    }

    /// Look up an id without interning. `None` if the term was never seen.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.find(term).ok()
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
            .map(|(i, t)| (TermId(i as u32), t))
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
        let tagged = i.intern(Term::from(Literal::lang_string("x", "en")));
        assert_ne!(plain, tagged);
    }

    #[test]
    fn intern_unshared_copies_a_new_term_and_only_a_new_term() {
        use crate::term::Literal;
        use std::sync::Arc;
        let mut i = Interner::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::from(Literal::lang_string("hallo", "de")),
            Term::integer(7),
        ];
        for t in &terms {
            let id = i.intern_unshared(t);
            let stored = i.resolve(id);
            assert_eq!(stored, t);
            // Same value, no allocation in common with the caller's term:
            // neither a string nor a literal's `Arc<Literal>` block.
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
                assert!(!Arc::ptr_eq(a, b), "{t} shares its literal");
                assert_eq!(Arc::strong_count(a), 1);
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
        let shared = Term::string("shared");
        let id = i.intern(shared.clone());
        for n in 0..100 {
            i.intern(Term::iri(format!("http://x/{n}")));
            assert_eq!(i.intern(shared.clone()), id);
        }
        // One term per id, by value; the table holds each id exactly once
        // and is sized by the term count alone.
        assert_eq!(i.terms.len(), 101);
        let mask = id_bits(i.slots.len());
        let mut ids: Vec<u32> = (i.slots.iter())
            .filter(|&&s| s != EMPTY)
            .map(|s| s & mask)
            .collect();
        ids.sort_unstable();
        assert!(ids.iter().copied().eq(0..101));
        i.reserve(1000);
        i.shrink_to_fit();
        assert_eq!(i.slots.len(), slots_for(101));
        assert_eq!(i.terms.capacity(), 101);
        let rebuilt = Interner::from_terms(i.terms.clone()).expect("distinct");
        assert_eq!(rebuilt.slots.len(), i.slots.len());
        assert_eq!(rebuilt.get(&shared), Some(id));
    }

    #[test]
    fn the_id_table_is_a_power_of_two_at_most_three_quarters_full() {
        assert_eq!(slots_for(0), MIN_SLOTS);
        assert_eq!(slots_for(6), 8);
        assert_eq!(slots_for(7), 16);
        assert_eq!(slots_for(44_769), 65_536);
        assert_eq!(slots_for(49_152), 65_536);
        assert_eq!(slots_for(49_153), 131_072);
        let mut i = Interner::new();
        assert_eq!(i.slots.capacity(), 0, "an empty interner allocates nothing");
        for n in 0..1000 {
            i.intern(Term::integer(n));
            assert!(i.slots.len().is_power_of_two());
            assert!(i.len() * 100 <= i.slots.len() * MAX_LOAD_PERCENT);
        }
    }
}
