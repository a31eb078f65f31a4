//! The evaluator's term pool: the dataset's global id space plus a
//! query-local overflow for computed values.
//!
//! The id-native evaluator keeps every binding as a [`TermId`]. Stored terms
//! already have global ids in the dataset interner; expression evaluation
//! (`BIND`, aggregates) can produce *new* terms (e.g. `?x + 1`). A
//! [`TermPool`] layers a query-local, append-only overflow interner on top
//! of the read-only dataset interner so computed terms get ids too — while
//! preserving the invariant that two ids are equal iff their terms are equal
//! (a computed term equal to a stored term resolves to the stored id).

use rdf_model::{Interner, Term, TermId};

/// Dataset interner + query-local overflow for computed terms.
///
/// The overflow is an [`Interner`] of its own whose ids are offset by the
/// dataset interner's length, so the two id ranges never meet.
#[derive(Debug)]
pub struct TermPool<'a> {
    base: &'a Interner,
    base_len: usize,
    extra: Interner,
}

impl<'a> TermPool<'a> {
    /// Pool over a dataset interner.
    pub fn new(base: &'a Interner) -> Self {
        TermPool {
            base,
            base_len: base.len(),
            extra: Interner::new(),
        }
    }

    /// Resolve any id this pool has handed out.
    ///
    /// # Panics
    /// Panics if the id came from neither the base interner nor this pool.
    #[inline]
    pub fn resolve(&self, id: TermId) -> &Term {
        match id.index().checked_sub(self.base_len) {
            None => self.base.resolve(id),
            Some(local) => self.extra.resolve(TermId(local as u32)),
        }
    }

    /// Id for a term, interning into the overflow if it is neither stored in
    /// the dataset nor already overflowed.
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(id) = self.base.get(&term) {
            return id;
        }
        let local = self.extra.intern(term);
        self.global(local)
    }

    /// Id for a term without interning (`None` if unseen).
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        (self.base.get(term)).or_else(|| self.extra.get(term).map(|local| self.global(local)))
    }

    /// The pool id of an overflow id.
    fn global(&self, local: TermId) -> TermId {
        let id = u32::try_from(self.base_len + local.index());
        TermId(id.expect("term pool overflow: more than 2^32 terms"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_term_equal_to_stored_reuses_stored_id() {
        let mut base = Interner::new();
        let stored = base.intern(Term::integer(42));
        let mut pool = TermPool::new(&base);
        assert_eq!(pool.intern(Term::integer(42)), stored);
        let fresh = pool.intern(Term::integer(43));
        assert_ne!(fresh, stored);
        assert_eq!(pool.resolve(fresh), &Term::integer(43));
        assert_eq!(pool.resolve(stored), &Term::integer(42));
        // Idempotent on the overflow side too.
        assert_eq!(pool.intern(Term::integer(43)), fresh);
        assert_eq!(pool.lookup(&Term::integer(43)), Some(fresh));
        assert_eq!(pool.lookup(&Term::integer(44)), None);
    }
}
