//! SPARQL Query Results XML Format encoding: the one wire codec.
//!
//! The paper's client stack (SPARQLWrapper over HTTP) receives results in
//! this format by default, so the simulated endpoint performs a *real* XML
//! encode/parse round trip per chunk. This makes transfer cost
//! proportional to shipped data volume — the effect that dominates the
//! paper's client-side baselines. The bytes are per cell, the work per
//! distinct value: [`encode`] escapes each dictionary entry once (into one
//! buffer of fragments) and copies its fragment per cell, block by block of
//! the table's rows; [`decode`] parses each distinct binding once (a memo
//! from raw slice to code).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rdf_model::term::Literal;
use rdf_model::Term;
use sparql_engine::SolutionTable;

/// Each dictionary entry's binding content and `</binding>` in one
/// buffer, with an offset table: code `c`'s text is
/// `text[ends[c - 1]..ends[c]]`, code 0's is empty.
struct Fragments {
    text: String,
    ends: Vec<usize>,
}

impl Fragments {
    /// Write each of `dictionary`'s terms once.
    fn new(dictionary: &[Term]) -> Self {
        let mut text = String::new();
        let mut ends = Vec::with_capacity(dictionary.len() + 1);
        ends.push(0);
        for term in dictionary {
            encode_term(term, &mut text);
            text.push_str("</binding>");
            ends.push(text.len());
        }
        Fragments { text, ends }
    }

    /// The text of a code of the table the fragments came from.
    fn get(&self, code: u32) -> &str {
        let code = code as usize;
        &self.text[self.ends[code.saturating_sub(1)]..self.ends[code]]
    }
}

/// Raw binding content → its code in the page's dictionary `terms`, for
/// one decode call (never longer than the text it borrows).
///
/// A result page repeats most of its values (88 % of cs3's cells), and the
/// raw slice a value was shipped as determines the term. So the decoder
/// looks the slice up first and gets a dictionary *code*: a repeat costs
/// one hash and four bytes, and only a new slice is parsed into a [`Term`].
/// The keys are bytes from outside the process, so the map keeps std's
/// keyed hasher (an attacker who picks the values must not pick the
/// collisions).
#[derive(Default)]
struct CodeMemo<'a> {
    seen: HashMap<&'a str, u32>,
    terms: Vec<Term>,
}

impl<'a> CodeMemo<'a> {
    /// The code of the term `raw` stands for: the one given at its first
    /// occurrence, or a new entry `decode(raw)` (nothing is remembered when
    /// it fails).
    fn code(&mut self, raw: &'a str, decode: impl FnOnce(&'a str) -> Option<Term>) -> Option<u32> {
        match self.seen.entry(raw) {
            Entry::Occupied(hit) => Some(*hit.get()),
            Entry::Vacant(slot) => {
                self.terms.push(decode(raw)?);
                Some(*slot.insert(self.terms.len() as u32))
            }
        }
    }
}

/// Append `s` with the four markup characters as entities: whole runs
/// between them are copied, not pushed char by char (they are all ASCII, so
/// every cut is a char boundary).
fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Inverse of [`escape_into`]; borrows when there is nothing to replace. An
/// `&` that starts none of the four entities stands for itself.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        let tail = &rest[idx..];
        let (entity, len) = if tail.starts_with("&amp;") {
            ('&', 5)
        } else if tail.starts_with("&lt;") {
            ('<', 4)
        } else if tail.starts_with("&gt;") {
            ('>', 4)
        } else if tail.starts_with("&quot;") {
            ('"', 6)
        } else {
            ('&', 1)
        };
        out.push(entity);
        rest = &tail[len..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

const VARIABLE: &str = "<variable name=\"";
const BINDING: &str = "<binding name=\"";

/// Encode a solution table in the SPARQL XML Results Format.
/// A bound cell is its column's opening tag and its entry's fragment
/// (`<uri>…</uri></binding>` and the like); the body is sized before it is
/// written.
pub fn encode(table: &SolutionTable) -> String {
    let fragments = Fragments::new(table.dictionary());
    // Each column's opening tag, escaped once instead of once per cell.
    let bindings: Vec<String> = (table.vars().iter())
        .map(|v| {
            let mut open = String::from(BINDING);
            escape_into(v, &mut open);
            open.push_str("\">");
            open
        })
        .collect();
    let cells: usize = (table.blocks().iter())
        .flat_map(|block| block.codes().iter().zip(&bindings))
        .flat_map(|(codes, open)| codes.iter().filter(|&&c| c != 0).map(|&c| (c, open.len())))
        .map(|(c, open)| open + fragments.get(c).len())
        .sum();
    let mut out = String::from(
        "<?xml version=\"1.0\"?>\n<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n<head>",
    );
    for v in table.vars() {
        out.push_str(VARIABLE);
        escape_into(v, &mut out);
        out.push_str("\"/>");
    }
    out.push_str("</head>\n<results>\n");
    out.reserve_exact(cells + table.len() * ROW_TAGS + FOOTER.len());
    for block in table.blocks() {
        for row in 0..block.rows() {
            out.push_str("<result>");
            for (open, codes) in bindings.iter().zip(block.codes()) {
                if codes[row] != 0 {
                    out.push_str(open);
                    out.push_str(fragments.get(codes[row]));
                }
            }
            out.push_str("</result>\n");
        }
    }
    out.push_str(FOOTER);
    out
}

/// `<result>` and `</result>\n`: what every row costs on top of its cells.
const ROW_TAGS: usize = "<result></result>\n".len();
const FOOTER: &str = "</results>\n</sparql>\n";

/// One term's binding content: `<uri>…</uri>`, `<bnode>…</bnode>` or
/// `<literal …>…</literal>`.
fn encode_term(term: &Term, out: &mut String) {
    match term {
        Term::Iri(iri) => {
            out.push_str("<uri>");
            escape_into(iri, out);
            out.push_str("</uri>");
        }
        Term::Blank(b) => {
            out.push_str("<bnode>");
            escape_into(b, out);
            out.push_str("</bnode>");
        }
        Term::Literal(l) => {
            if let Some(lang) = &l.language {
                out.push_str("<literal xml:lang=\"");
                escape_into(lang, out);
                out.push_str("\">");
            } else if let Some(dt) = &l.datatype {
                out.push_str("<literal datatype=\"");
                escape_into(dt, out);
                out.push_str("\">");
            } else {
                out.push_str("<literal>");
            }
            escape_into(&l.lexical, out);
            out.push_str("</literal>");
        }
    }
}

/// `s` from its next `<` on; `None` when no tag is left.
fn next_tag(s: &str) -> Option<&str> {
    Some(&s[s.find('<')?..])
}

/// Parse a SPARQL XML results document back into a solution table.
///
/// One forward scan: the header's names are sliced, then the results block
/// is walked tag to tag (anything that is not a tag this format uses is
/// stepped over), so no byte is searched twice and nothing is sliced ahead.
/// A document that ends before `</results>` — a truncated body — is
/// rejected, and so is a result that binds one variable twice.
pub fn decode(text: &str) -> Option<SolutionTable> {
    let head_start = text.find("<head>")? + "<head>".len();
    let head_end = head_start + text[head_start..].find("</head>")?;
    // The names as shipped: a binding names its column in the same escaped
    // form, so rows are matched against these without unescaping anything.
    let mut raw_vars = Vec::new();
    let mut rest = &text[head_start..head_end];
    while let Some(at) = rest.find(VARIABLE) {
        let after = &rest[at + VARIABLE.len()..];
        let q = after.find('"')?;
        raw_vars.push(&after[..q]);
        rest = &after[q..];
    }
    let vars: Vec<String> = raw_vars.iter().map(|v| unescape(v).into_owned()).collect();

    let mut memo = CodeMemo::default();
    let mut codes = vec![Vec::new(); vars.len()];
    let mut len = 0;
    let mut rest = &text[head_end..];
    rest = &rest[rest.find("<results>")? + "<results>".len()..];
    loop {
        rest = next_tag(rest)?;
        if let Some(result) = rest.strip_prefix("<result>") {
            codes.iter_mut().for_each(|column| column.push(0));
            rest = decode_result(result, &raw_vars, &vars, &mut codes, &mut memo)?;
            len += 1;
        } else if rest.starts_with("</results>") {
            return SolutionTable::from_columns(vars, memo.terms, codes, len);
        } else {
            rest = &rest[1..];
        }
    }
}

/// One row — the text after `<result>` up to and including `</result>` —
/// written into the last slot of each code column, and what follows it.
fn decode_result<'a>(
    mut rest: &'a str,
    raw_vars: &[&str],
    vars: &[String],
    codes: &mut [Vec<u32>],
    memo: &mut CodeMemo<'a>,
) -> Option<&'a str> {
    // The column after the last one bound: where an encoder that writes
    // bindings in header order puts the next one.
    let mut expected = 0;
    loop {
        rest = next_tag(rest)?;
        if let Some(after) = rest.strip_prefix("</result>") {
            return Some(after);
        }
        let Some(after) = rest.strip_prefix(BINDING) else {
            rest = &rest[1..];
            continue;
        };
        let name = &after[..after.find('"')?];
        let after = &after[name.len()..];
        let (code, after) = decode_binding(&after[after.find('>')? + 1..], memo)?;
        let column = if raw_vars.get(expected) == Some(&name) {
            expected
        } else {
            // Out of header order, or (the fallback) escaped differently
            // from the header's spelling of the same name.
            raw_vars.iter().position(|v| *v == name).or_else(|| {
                let name = unescape(name);
                vars.iter().position(|v| *v == name)
            })?
        };
        // One binding per variable and result: a second would silently
        // drop the first.
        let slot = codes[column].last_mut()?;
        if *slot != 0 {
            return None;
        }
        *slot = code;
        expected = column + 1;
        rest = after;
    }
}

/// A binding's content — `<uri>…</uri>`, `<bnode>…</bnode>` or
/// `<literal …>…</literal>`, then `</binding>` — as a dictionary code, and
/// what follows it. The content slice determines the term, so it is the
/// memo's key and a repeat is never parsed.
fn decode_binding<'a>(content: &'a str, memo: &mut CodeMemo<'a>) -> Option<(u32, &'a str)> {
    let close = if content.starts_with("<uri>") {
        "</uri>"
    } else if content.starts_with("<bnode>") {
        "</bnode>"
    } else if content.starts_with("<literal") {
        "</literal>"
    } else {
        return None;
    };
    let text_start = content.find('>')? + 1;
    let text_end = text_start + content[text_start..].find('<')?;
    let after = content[text_end..].strip_prefix(close)?;
    let code = memo.code(&content[..content.len() - after.len()], |content| {
        let text = unescape(&content[text_start..text_end]);
        Some(match close {
            "</uri>" => Term::iri(text),
            "</bnode>" => Term::blank(text),
            _ => {
                let attrs = &content["<literal".len()..text_start - 1];
                if let Some(lang) = attr_value(attrs, "xml:lang=\"") {
                    Term::from(Literal::lang_string(text, unescape(lang)))
                } else if let Some(dt) = attr_value(attrs, "datatype=\"") {
                    Term::from(Literal::typed(text, unescape(dt)))
                } else {
                    Term::string(text)
                }
            }
        })
    })?;
    Some((code, after.strip_prefix("</binding>")?))
}

/// The value following `marker` (an attribute name with its `="`) in a tag's
/// attribute run, up to the closing quote.
fn attr_value<'a>(attrs: &'a str, marker: &str) -> Option<&'a str> {
    let start = attrs.find(marker)? + marker.len();
    let end = start + attrs[start..].find('"')?;
    Some(&attrs[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(vars: &[&str], rows: Vec<Vec<Option<Term>>>) -> SolutionTable {
        let mut t = SolutionTable::with_vars(vars.iter().map(|v| v.to_string()).collect());
        for row in rows {
            t.push_row(row).unwrap();
        }
        t
    }

    fn sample() -> SolutionTable {
        table(
            &["s", "label", "n"],
            vec![
                vec![
                    Some(Term::iri("http://x/a?q=1&r=2")),
                    Some(Term::from(Literal::lang_string("héllo <world>", "en"))),
                    Some(Term::integer(5)),
                ],
                vec![Some(Term::blank("b0")), None, None],
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let decoded = decode(&encode(&t)).expect("decodes");
        assert_eq!(t, decoded);
    }

    #[test]
    fn empty_results() {
        let t = SolutionTable::with_vars(vec!["x".into()]);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn escaping() {
        let t = table(&["v"], vec![vec![Some(Term::string("a & b < c > d \" e"))]]);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode("<sparql><head></head>").is_none());
        assert!(decode("").is_none());
    }
}
