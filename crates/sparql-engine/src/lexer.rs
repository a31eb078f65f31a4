//! SPARQL tokenizer.
//!
//! Produces a flat token stream for the recursive-descent [`crate::parser`].
//! Keywords are recognized case-insensitively as the grammar requires; the
//! `<` character is disambiguated between IRI references and the less-than
//! operator by attempting the IRIREF production first (an IRIREF cannot
//! contain whitespace or `<>`).

use crate::error::{EngineError, Result};

/// A lexical token with its source position (byte offset).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the query string.
    pub position: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `<http://...>` IRI reference (payload excludes angle brackets).
    IriRef(String),
    /// Prefixed name `prefix:local` (payload is `(prefix, local)`), where
    /// either part may be empty.
    PName(String, String),
    /// Variable `?name` or `$name` (payload excludes the sigil).
    Var(String),
    /// Blank node label `_:name`.
    BlankLabel(String),
    /// String literal body (unescaped).
    String(String),
    /// Language tag following a string (`@en`).
    LangTag(String),
    /// Integer literal.
    Integer(i64),
    /// Decimal / double literal.
    Decimal(f64),
    /// A bare word: keyword or function name (stored uppercased) — `SELECT`,
    /// `COUNT`, `REGEX`, ... The original spelling is kept for error messages.
    Word(String),
    /// `a` — shorthand for `rdf:type` (distinct from Word to keep case).
    A,
    /// Punctuation / operators.
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `^^` datatype marker.
    HatHat,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Is this token the given keyword (case-insensitive)?
    pub fn is_word(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Word(w) if w == kw)
    }
}

fn is_pn_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// The byte offset where the run of characters `keep` accepts, starting at
/// byte `start`, ends. Steps whole characters, so the offset is always a
/// character boundary (a byte-wise walk stops inside a multi-byte one).
fn scan(input: &str, start: usize, keep: impl Fn(char) -> bool) -> usize {
    input[start..]
        .char_indices()
        .find(|&(_, c)| !keep(c))
        .map_or(input.len(), |(k, _)| start + k)
}

fn err(position: usize, message: impl Into<String>) -> EngineError {
    EngineError::Parse {
        position,
        message: message.into(),
    }
}

/// Tokenize a SPARQL query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let n = bytes.len();

    macro_rules! push {
        ($kind:expr, $pos:expr) => {
            tokens.push(Token {
                kind: $kind,
                position: $pos,
            })
        };
    }

    while let Some(c) = input[i..].chars().next() {
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                push!(TokenKind::LBrace, i);
                i += 1;
            }
            '}' => {
                push!(TokenKind::RBrace, i);
                i += 1;
            }
            '(' => {
                push!(TokenKind::LParen, i);
                i += 1;
            }
            ')' => {
                push!(TokenKind::RParen, i);
                i += 1;
            }
            ';' => {
                push!(TokenKind::Semicolon, i);
                i += 1;
            }
            ',' => {
                push!(TokenKind::Comma, i);
                i += 1;
            }
            '*' => {
                push!(TokenKind::Star, i);
                i += 1;
            }
            '=' => {
                push!(TokenKind::Eq, i);
                i += 1;
            }
            '+' => {
                push!(TokenKind::Plus, i);
                i += 1;
            }
            '-' => {
                push!(TokenKind::Minus, i);
                i += 1;
            }
            '/' => {
                push!(TokenKind::Slash, i);
                i += 1;
            }
            '!' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    push!(TokenKind::Neq, i);
                    i += 2;
                } else {
                    push!(TokenKind::Bang, i);
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < n && bytes[i + 1] == b'&' {
                    push!(TokenKind::AndAnd, i);
                    i += 2;
                } else {
                    return Err(err(i, "expected '&&'"));
                }
            }
            '|' => {
                if i + 1 < n && bytes[i + 1] == b'|' {
                    push!(TokenKind::OrOr, i);
                    i += 2;
                } else {
                    return Err(err(i, "expected '||'"));
                }
            }
            '^' => {
                if i + 1 < n && bytes[i + 1] == b'^' {
                    push!(TokenKind::HatHat, i);
                    i += 2;
                } else {
                    return Err(err(i, "expected '^^'"));
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    push!(TokenKind::Ge, i);
                    i += 2;
                } else {
                    push!(TokenKind::Gt, i);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    push!(TokenKind::Le, i);
                    i += 2;
                } else {
                    // Try IRIREF: scan to '>' rejecting whitespace and nested
                    // angle brackets; fall back to Lt on failure.
                    let start = i + 1;
                    let mut j = start;
                    let mut ok = false;
                    while j < n {
                        match bytes[j] {
                            b'>' => {
                                ok = true;
                                break;
                            }
                            b' ' | b'\t' | b'\r' | b'\n' | b'<' | b'"' | b'{' | b'}' => break,
                            _ => j += 1,
                        }
                    }
                    if ok {
                        let iri = std::str::from_utf8(&bytes[start..j])
                            .map_err(|_| err(i, "invalid UTF-8 in IRI"))?;
                        push!(TokenKind::IriRef(iri.to_string()), i);
                        i = j + 1;
                    } else {
                        push!(TokenKind::Lt, i);
                        i += 1;
                    }
                }
            }
            '.' => {
                // Could begin a decimal like `.5`; SPARQL queries we generate
                // never do that, so '.' is always punctuation here.
                push!(TokenKind::Dot, i);
                i += 1;
            }
            '?' | '$' => {
                let start = i + 1;
                let j = scan(input, start, is_pn_char);
                if j == start {
                    return Err(err(i, "empty variable name"));
                }
                let name = input[start..j].to_string();
                push!(TokenKind::Var(name), i);
                i = j;
            }
            '"' | '\'' => {
                let quote = bytes[i];
                let mut j = i + 1;
                let mut body = String::new();
                let mut closed = false;
                while j < n {
                    let b = bytes[j];
                    if b == quote {
                        closed = true;
                        j += 1;
                        break;
                    }
                    if b == b'\\' {
                        j += 1;
                        if j >= n {
                            break;
                        }
                        match bytes[j] {
                            b'"' => body.push('"'),
                            b'\'' => body.push('\''),
                            b'\\' => body.push('\\'),
                            b'n' => body.push('\n'),
                            b'r' => body.push('\r'),
                            b't' => body.push('\t'),
                            other => return Err(err(j, format!("bad escape \\{}", other as char))),
                        }
                        j += 1;
                    } else {
                        // Consume one UTF-8 scalar.
                        let ch_len = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        body.push_str(
                            std::str::from_utf8(&bytes[j..j + ch_len])
                                .map_err(|_| err(j, "invalid UTF-8 in string"))?,
                        );
                        j += ch_len;
                    }
                }
                if !closed {
                    return Err(err(i, "unterminated string literal"));
                }
                push!(TokenKind::String(body), i);
                i = j;
                // Language tag directly attached?
                if i < n && bytes[i] == b'@' {
                    let start = i + 1;
                    let k = scan(input, start, |c| c.is_ascii_alphanumeric() || c == '-');
                    if k == start {
                        return Err(err(i, "empty language tag"));
                    }
                    push!(TokenKind::LangTag(input[start..k].to_string()), i);
                    i = k;
                }
            }
            '_' if i + 1 < n && bytes[i + 1] == b':' => {
                let start = i + 2;
                let j = scan(input, start, is_pn_char);
                push!(TokenKind::BlankLabel(input[start..j].to_string()), i);
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                let mut is_decimal = false;
                while j < n {
                    let b = bytes[j] as char;
                    if b.is_ascii_digit() {
                        j += 1;
                    } else if b == '.' && !is_decimal && j + 1 < n && bytes[j + 1].is_ascii_digit()
                    {
                        is_decimal = true;
                        j += 1;
                    } else if (b == 'e' || b == 'E')
                        && j + 1 < n
                        && (bytes[j + 1].is_ascii_digit()
                            || bytes[j + 1] == b'-'
                            || bytes[j + 1] == b'+')
                    {
                        is_decimal = true;
                        j += 2;
                    } else {
                        break;
                    }
                }
                let text = &input[start..j];
                if is_decimal {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| err(start, format!("bad number {text}")))?;
                    push!(TokenKind::Decimal(v), start);
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| err(start, format!("bad number {text}")))?;
                    push!(TokenKind::Integer(v), start);
                }
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let j = scan(input, start, is_pn_char);
                // Prefixed name?  word ':' local
                if j < n && bytes[j] == b':' {
                    let prefix = input[start..j].to_string();
                    let lstart = j + 1;
                    let mut k = scan(input, lstart, |c| is_pn_char(c) || c == '.');
                    // A trailing '.' belongs to the sentence, not the name.
                    while k > lstart && bytes[k - 1] == b'.' {
                        k -= 1;
                    }
                    let local = input[lstart..k].to_string();
                    push!(TokenKind::PName(prefix, local), start);
                    i = k;
                } else {
                    let word = &input[start..j];
                    if word == "a" {
                        push!(TokenKind::A, start);
                    } else {
                        push!(TokenKind::Word(word.to_ascii_uppercase()), start);
                    }
                    i = j;
                }
            }
            ':' => {
                // Default-prefix name `:local`.
                let lstart = i + 1;
                let k = scan(input, lstart, is_pn_char);
                push!(
                    TokenKind::PName(String::new(), input[lstart..k].to_string()),
                    i
                );
                i = k;
            }
            other => return Err(err(i, format!("unexpected character '{other}'"))),
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        position: n,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(q: &str) -> Vec<TokenKind> {
        tokenize(q).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        let ks = kinds("SELECT ?x WHERE { ?x a <http://x/T> . }");
        assert_eq!(ks[0], TokenKind::Word("SELECT".into()));
        assert_eq!(ks[1], TokenKind::Var("x".into()));
        assert_eq!(ks[2], TokenKind::Word("WHERE".into()));
        assert_eq!(ks[3], TokenKind::LBrace);
        assert_eq!(ks[5], TokenKind::A);
        assert_eq!(ks[6], TokenKind::IriRef("http://x/T".into()));
    }

    #[test]
    fn non_ascii_names_lex_whole_characters() {
        let ks = kinds("?café x:Café _:é");
        assert_eq!(ks[0], TokenKind::Var("café".into()));
        assert_eq!(ks[1], TokenKind::PName("x".into(), "Café".into()));
        assert_eq!(ks[2], TokenKind::BlankLabel("é".into()));
        assert_eq!(kinds("é")[0], TokenKind::Word("é".to_ascii_uppercase()));
        for bad in ["?s ©", "1e\u{FFFD}", "?s\u{FFFD}", "\"a\"@\u{FFFD}"] {
            assert!(tokenize(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lt_vs_iri() {
        let ks = kinds("FILTER ( ?x < 5 )");
        assert!(ks.contains(&TokenKind::Lt));
        let ks = kinds("FILTER ( ?x <= 5 )");
        assert!(ks.contains(&TokenKind::Le));
    }

    #[test]
    fn pname_with_trailing_dot() {
        let ks = kinds("?s dbpp:starring ?o .");
        assert_eq!(ks[1], TokenKind::PName("dbpp".into(), "starring".into()));
        assert_eq!(ks[3], TokenKind::Dot);
    }

    #[test]
    fn string_with_lang_and_datatype() {
        let ks = kinds("\"hi\"@en \"5\"^^xsd:integer");
        assert_eq!(ks[0], TokenKind::String("hi".into()));
        assert_eq!(ks[1], TokenKind::LangTag("en".into()));
        assert_eq!(ks[2], TokenKind::String("5".into()));
        assert_eq!(ks[3], TokenKind::HatHat);
        assert_eq!(ks[4], TokenKind::PName("xsd".into(), "integer".into()));
    }

    #[test]
    fn numbers() {
        let ks = kinds("42 3.25 1e3");
        assert_eq!(ks[0], TokenKind::Integer(42));
        assert_eq!(ks[1], TokenKind::Decimal(3.25));
        assert_eq!(ks[2], TokenKind::Decimal(1000.0));
    }

    #[test]
    fn operators() {
        let ks = kinds("&& || ! != >= > = ^^");
        assert_eq!(
            ks[..8],
            [
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Neq,
                TokenKind::Ge,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::HatHat
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let ks = kinds("SELECT # a comment\n ?x");
        assert_eq!(ks.len(), 3); // SELECT, ?x, EOF
    }

    #[test]
    fn escapes_in_strings() {
        let ks = kinds(r#""a\"b\nc""#);
        assert_eq!(ks[0], TokenKind::String("a\"b\nc".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn keywords_uppercased() {
        let ks = kinds("select Select SELECT");
        for k in &ks[..3] {
            assert_eq!(*k, TokenKind::Word("SELECT".into()));
        }
    }
}
