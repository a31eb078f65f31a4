//! Wire encoding of solution tables.
//!
//! A real SPARQL endpoint serializes every result row (SPARQL JSON/XML/TSV)
//! and the client parses it back. That per-row cost is a first-class part
//! of the paper's measurements — the client-side baselines ship far more
//! rows than RDFFrames does — so the in-process endpoint *actually
//! performs* an encode/decode round trip per chunk (SPARQL-TSV-style)
//! instead of pretending transfer is free. As in [`super::xml`], the bytes
//! are per cell and the work per distinct value: each dictionary entry is
//! formatted once, and each distinct field parsed once.

use std::borrow::Cow;

use rdf_model::term::Literal;
use rdf_model::Term;
use sparql_engine::SolutionTable;

use super::memo::{CodeMemo, Fragments};

/// A line that stands for a row with nothing to print — no column, or one
/// unbound cell: an empty line is indistinguishable from "no row".
const BLANK_ROW: &str = "\u{2}";

/// Encode a solution table as SPARQL-TSV (terms in N-Triples syntax,
/// columns tab-separated, unbound cells empty). Each dictionary entry is
/// formatted once ([`Fragments`]); a row copies its cells' text.
pub fn encode(table: &SolutionTable) -> String {
    let fragments = Fragments::new(table.dictionary(), |term, out| {
        use std::fmt::Write as _;
        let _ = write!(out, "{term}");
    });
    let mut out = String::with_capacity(table.len() * 32 + 64);
    for (i, v) in table.vars().iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        out.push('?');
        out.push_str(v);
    }
    out.push('\n');
    let columns = table.code_columns();
    for row in 0..table.len() {
        if columns.len() <= 1 && columns.iter().all(|c| c[row] == 0) {
            out.push_str(BLANK_ROW);
        }
        for (i, codes) in columns.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push_str(fragments.get(codes[row]));
        }
        out.push('\n');
    }
    out
}

/// Decode a SPARQL-TSV document back into a solution table, one term per
/// distinct field ([`CodeMemo`]). Returns `None` on malformed input.
pub fn decode(text: &str) -> Option<SolutionTable> {
    let mut lines = text.split('\n');
    let header = lines.next()?;
    let vars: Vec<String> = if header.is_empty() {
        Vec::new()
    } else {
        header
            .split('\t')
            .map(|v| v.strip_prefix('?').unwrap_or(v).to_string())
            .collect()
    };
    let width = vars.len();
    let mut memo = CodeMemo::default();
    let mut codes: Vec<Vec<u32>> = vec![Vec::new(); width];
    let mut len = 0;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        len += 1;
        if line == BLANK_ROW && width <= 1 {
            codes.iter_mut().for_each(|column| column.push(0));
            continue;
        }
        let mut fields = line.split('\t');
        for column in &mut codes {
            let field = fields.next()?;
            column.push(if field.is_empty() {
                0
            } else {
                memo.code(field, decode_term)?
            });
        }
        if fields.next().is_some() {
            return None;
        }
    }
    SolutionTable::from_columns(vars, memo.terms, codes, len)
}

fn decode_term(field: &str) -> Option<Term> {
    match field.as_bytes().first()? {
        b'<' => Some(Term::iri(field.strip_prefix('<')?.strip_suffix('>')?)),
        b'_' => Some(Term::blank(field.strip_prefix("_:")?)),
        b'"' => {
            let (lexical, tail) = decode_quoted(&field[1..])?;
            if let Some(lang) = tail.strip_prefix('@') {
                Some(Term::Literal(Literal::lang_string(lexical, lang)))
            } else if let Some(dt) = tail.strip_prefix("^^") {
                let dt = dt.strip_prefix('<')?.strip_suffix('>')?;
                Some(Term::Literal(Literal::typed(lexical, dt)))
            } else if tail.is_empty() {
                Some(Term::string(lexical))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The lexical form up to the closing quote (honoring escapes; borrowed when
/// there are none) and what follows the quote. `None` if it never closes.
fn decode_quoted(rest: &str) -> Option<(Cow<'_, str>, &str)> {
    let stop = rest.find(['"', '\\'])?;
    if rest.as_bytes()[stop] == b'"' {
        return Some((Cow::Borrowed(&rest[..stop]), &rest[stop + 1..]));
    }
    let mut lexical = String::with_capacity(rest.len());
    lexical.push_str(&rest[..stop]);
    let mut chars = rest[stop..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => lexical.push(match chars.next()? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                other => other,
            }),
            '"' => return Some((Cow::Owned(lexical), chars.as_str())),
            other => lexical.push(other),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Literal;

    fn sample() -> SolutionTable {
        let mut t = SolutionTable::with_vars(vec!["a".into(), "b".into(), "c".into()]);
        for row in [
            vec![Some(Term::iri("http://x/s")), Some(Term::integer(42)), None],
            vec![
                Some(Term::string("tab\there \"quoted\"")),
                Some(Term::Literal(Literal::lang_string("hallo", "de"))),
                Some(Term::blank("b0")),
            ],
        ] {
            t.push_row(row).unwrap();
        }
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let encoded = encode(&t);
        let decoded = decode(&encoded).expect("decodes");
        assert_eq!(t, decoded);
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = SolutionTable::with_vars(vec!["x".into()]);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
        let unit = SolutionTable::unit();
        let rt = decode(&encode(&unit)).unwrap();
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode("?a\n<unterminated\n").is_none());
        assert!(decode("?a\tb?\nonly-one-field-without-term-syntax\n").is_none());
    }
}
