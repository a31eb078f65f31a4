//! What both wire codecs ([`super::xml`], [`super::wire`]) keep per
//! dictionary entry instead of per cell.
//!
//! Decoding, a result page repeats most of its values (88 % of cs3's
//! cells), and the raw slice a value was shipped as — the XML binding
//! content, the TSV field — determines the term. So a decoder looks the
//! slice up first and gets a dictionary *code*: a repeat costs one hash and
//! four bytes, and only a new slice is parsed into a [`Term`]. The keys are
//! bytes from outside the process, so the map keeps std's keyed hasher (an
//! attacker who picks the values must not pick the collisions). Encoding,
//! each entry's text is written once ([`Fragments`]) and copied per cell.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rdf_model::Term;

/// Each dictionary entry's wire text in one buffer, with an offset table:
/// code `c`'s text is `text[ends[c - 1]..ends[c]]`, code 0's is empty.
pub(super) struct Fragments {
    text: String,
    ends: Vec<usize>,
}

impl Fragments {
    /// `write` each of `dictionary`'s terms once.
    pub(super) fn new(dictionary: &[Term], mut write: impl FnMut(&Term, &mut String)) -> Self {
        let mut text = String::new();
        let mut ends = Vec::with_capacity(dictionary.len() + 1);
        ends.push(0);
        for term in dictionary {
            write(term, &mut text);
            ends.push(text.len());
        }
        Fragments { text, ends }
    }

    /// The text of a code of the table the fragments came from.
    pub(super) fn get(&self, code: u32) -> &str {
        let code = code as usize;
        &self.text[self.ends[code.saturating_sub(1)]..self.ends[code]]
    }
}

/// Raw wire slice → its code in the page's dictionary `terms`, for one
/// decode call (never longer than the text it borrows).
#[derive(Default)]
pub(super) struct CodeMemo<'a> {
    seen: HashMap<&'a str, u32>,
    pub(super) terms: Vec<Term>,
}

impl<'a> CodeMemo<'a> {
    /// The code of the term `raw` stands for: the one given at its first
    /// occurrence, or a new entry `decode(raw)` (nothing is remembered when
    /// it fails).
    pub(super) fn code(
        &mut self,
        raw: &'a str,
        decode: impl FnOnce(&'a str) -> Option<Term>,
    ) -> Option<u32> {
        match self.seen.entry(raw) {
            Entry::Occupied(hit) => Some(*hit.get()),
            Entry::Vacant(slot) => {
                self.terms.push(decode(raw)?);
                Some(*slot.insert(self.terms.len() as u32))
            }
        }
    }
}
