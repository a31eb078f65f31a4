//! N-Triples parsing and serialization.
//!
//! This is the serialization-format substrate for the "rdflib + pandas"
//! baseline, which parses a dumped `.nt` file directly instead of querying
//! the engine. The parser is line-oriented per the N-Triples grammar and
//! handles IRIs, blank nodes, plain/lang-tagged/typed literals, and the
//! standard string escapes.

use std::fmt::Write as _;

use crate::error::{ModelError, Result};
use crate::graph::Graph;
use crate::term::{Literal, Term, Triple};

/// Parse a full N-Triples document into a list of triples.
pub fn parse_document(input: &str) -> Result<Vec<Triple>> {
    let mut triples = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        triples.push(parse_line(line, line_no)?);
    }
    Ok(triples)
}

/// Parse a document straight into a [`Graph`].
pub fn parse_into_graph(input: &str) -> Result<Graph> {
    let mut g = Graph::new();
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let t = parse_line(line, line_no)?;
        g.insert(&t);
    }
    Ok(g)
}

/// Serialize triples to an N-Triples string.
pub fn write_document(triples: impl Iterator<Item = Triple>) -> String {
    let mut out = String::new();
    for t in triples {
        let _ = writeln!(out, "{t}");
    }
    out
}

fn syntax(line: usize, message: impl Into<String>) -> ModelError {
    ModelError::Syntax {
        line,
        message: message.into(),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize) -> Self {
        Cursor {
            bytes: s.as_bytes(),
            pos: 0,
            line,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(syntax(
                self.line,
                format!("expected '{}', got {:?}", b as char, got.map(|c| c as char)),
            )),
        }
    }

    fn str_from(&self, start: usize) -> &'a str {
        // Safety of from_utf8: we only slice at ASCII delimiter boundaries.
        std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("")
    }

    fn parse_iri(&mut self) -> Result<String> {
        self.expect(b'<')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'>' {
                let iri = self.str_from(start).to_string();
                self.pos += 1;
                if iri.is_empty() {
                    return Err(syntax(self.line, "empty IRI"));
                }
                return Ok(iri);
            }
            self.pos += 1;
        }
        Err(syntax(self.line, "unterminated IRI"))
    }

    fn parse_blank(&mut self) -> Result<Term> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(syntax(self.line, "empty blank node label"));
        }
        Ok(Term::blank(self.str_from(start).to_string()))
    }

    fn parse_string_body(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(syntax(self.line, "unterminated string literal")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.parse_unicode_escape(4)?),
                    Some(b'U') => out.push(self.parse_unicode_escape(8)?),
                    other => {
                        return Err(syntax(
                            self.line,
                            format!("bad escape \\{:?}", other.map(|c| c as char)),
                        ))
                    }
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a UTF-8 multibyte sequence.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(syntax(self.line, "invalid UTF-8 in literal")),
                    }
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char> {
        let start = self.pos;
        for _ in 0..digits {
            self.bump()
                .ok_or_else(|| syntax(self.line, "truncated unicode escape"))?;
        }
        let hex = self.str_from(start);
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| syntax(self.line, format!("bad unicode escape {hex}")))?;
        char::from_u32(code).ok_or_else(|| syntax(self.line, format!("bad code point {code:x}")))
    }

    fn parse_literal(&mut self) -> Result<Term> {
        let body = self.parse_string_body()?;
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(syntax(self.line, "empty language tag"));
                }
                let lang = self.str_from(start).to_string();
                Ok(Term::from(Literal::lang_string(body, lang)))
            }
            Some(b'^') => {
                self.expect(b'^')?;
                self.expect(b'^')?;
                let datatype = self.parse_iri()?;
                Ok(Term::from(Literal::typed(body, datatype)))
            }
            _ => Ok(Term::from(Literal::string(body))),
        }
    }

    fn parse_term(&mut self, allow_literal: bool) -> Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => self.parse_iri().map(Term::iri),
            Some(b'_') => self.parse_blank(),
            Some(b'"') if allow_literal => self.parse_literal(),
            other => Err(syntax(
                self.line,
                format!("unexpected character {:?}", other.map(|c| c as char)),
            )),
        }
    }
}

fn parse_line(line: &str, line_no: usize) -> Result<Triple> {
    let mut c = Cursor::new(line, line_no);
    let subject = c.parse_term(false)?;
    let predicate = c.parse_term(false)?;
    if !predicate.is_iri() {
        return Err(syntax(line_no, "predicate must be an IRI"));
    }
    let object = c.parse_term(true)?;
    c.skip_ws();
    c.expect(b'.')?;
    c.skip_ws();
    if c.peek().is_some() {
        return Err(syntax(line_no, "trailing content after '.'"));
    }
    Ok(Triple::new(subject, predicate, object))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn parse_basic_triple() {
        let doc = "<http://x/s> <http://x/p> <http://x/o> .\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].subject, Term::iri("http://x/s"));
    }

    #[test]
    fn parse_literals() {
        let doc = concat!(
            "<http://x/s> <http://x/p> \"plain\" .\n",
            "<http://x/s> <http://x/p> \"hallo\"@de .\n",
            "<http://x/s> <http://x/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        );
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts.len(), 3);
        let lit = ts[2].object.as_literal().unwrap();
        assert_eq!(lit.datatype.as_deref(), Some(xsd::INTEGER));
        assert_eq!(lit.as_f64(), Some(5.0));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let doc = "<http://x/s> <http://x/p> \"a\\\"b\\nc\\u0041\" .\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts[0].object.str_value(), "a\"b\ncA");
    }

    #[test]
    fn parse_multibyte_utf8() {
        let doc = "<http://x/s> <http://x/p> \"héllo wörld ☃\" .\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts[0].object.str_value(), "héllo wörld ☃");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = "# header\n\n<http://x/s> <http://x/p> _:b1 .\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts.len(), 1);
        assert!(ts[0].object.is_blank());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "<http://x/s> <http://x/p> <http://x/o> .\ngarbage\n";
        match parse_document(doc) {
            Err(ModelError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn literal_predicate_rejected() {
        let doc = "<http://x/s> \"p\" <http://x/o> .\n";
        assert!(parse_document(doc).is_err());
    }

    #[test]
    fn roundtrip() {
        let doc = concat!(
            "<http://x/s> <http://x/p> \"a\\\"b\" .\n",
            "<http://x/s> <http://x/p> \"x\"@en .\n",
            "<http://x/s> <http://x/q> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        );
        let g = parse_into_graph(doc).unwrap();
        let out = write_document(g.iter_triples());
        let g2 = parse_into_graph(&out).unwrap();
        assert_eq!(g.len(), g2.len());
        let t1: Vec<_> = g.iter_triples().collect();
        let t2: Vec<_> = g2.iter_triples().collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn parse_into_graph_dedups() {
        let doc =
            "<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> <http://x/p> <http://x/o> .\n";
        let g = parse_into_graph(doc).unwrap();
        assert_eq!(g.len(), 1);
    }
}
