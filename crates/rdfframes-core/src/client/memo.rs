//! Lookup-before-allocate: the memo both wire decoders ([`super::xml`],
//! [`super::wire`]) consult before they build a term.
//!
//! A result page repeats most of its values (88 % of cs3's cells), and the
//! raw slice a value was shipped as — the XML binding content, the TSV field
//! — determines the term. So a decoder looks the slice up first: a repeat
//! costs one hash and a [`Term::clone`], allocates nothing, and *shares* the
//! first occurrence's strings, which is what lets
//! [`convert`](super::convert) give a page one dictionary entry per distinct
//! value by comparing addresses instead of hashing strings again.
//!
//! The keys are bytes from outside the process, so the map keeps std's keyed
//! hasher (an attacker who picks the values must not pick the collisions);
//! the memo lives for one decode call, never longer than the text it borrows.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rdf_model::Term;

/// Raw wire slice → the term it decoded to, for one page.
#[derive(Default)]
pub(super) struct TermMemo<'a> {
    seen: HashMap<&'a str, Term>,
}

impl<'a> TermMemo<'a> {
    /// The term `raw` stands for: the one decoded at its first occurrence,
    /// or `decode(raw)` (remembered unless it fails).
    pub(super) fn term(
        &mut self,
        raw: &'a str,
        decode: impl FnOnce(&'a str) -> Option<Term>,
    ) -> Option<Term> {
        match self.seen.entry(raw) {
            Entry::Occupied(hit) => Some(hit.get().clone()),
            Entry::Vacant(slot) => Some(slot.insert(decode(raw)?).clone()),
        }
    }
}
