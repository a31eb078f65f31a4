//! RDF terms: IRIs, blank nodes, and literals with XSD value typing.
//!
//! A [`Term`] is a tag and one handle: an IRI or a blank node is an
//! `Arc<str>`, a literal an `Arc<Literal>` (its lexical form, language tag
//! and datatype strings and its parsed value behind one pointer). That
//! keeps it at 24 bytes, which the dictionary pays once per distinct term
//! (it stores terms by value, see [`crate::interner`]), and makes a clone
//! a reference-count bump with no allocation.
//!
//! Literal comparison follows SPARQL operator semantics: numeric literals
//! compare by value across numeric datatypes, `xsd:dateTime` by timestamp,
//! strings lexically. [`Literal::parsed`] caches the typed value at
//! construction so comparisons in query evaluation don't re-parse.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::vocab::xsd;

/// A parsed, typed view of a literal's lexical form.
///
/// Stored alongside the lexical form so evaluation never re-parses. `Unknown`
/// covers datatypes we don't natively interpret (compared lexically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypedValue {
    /// Integer-family XSD types (`xsd:integer`, `xsd:int`, `xsd:long`, ...).
    Integer(i64),
    /// `xsd:decimal`, `xsd:double`, `xsd:float`.
    Double(f64),
    /// `xsd:boolean`.
    Boolean(bool),
    /// `xsd:dateTime` / `xsd:date`, as seconds since the epoch (proleptic
    /// Gregorian, UTC). Enough fidelity for `YEAR()` and ordering.
    DateTime(i64),
    /// Plain / `xsd:string` / language-tagged strings, and anything we don't
    /// interpret numerically.
    String,
}

/// An RDF literal: lexical form plus optional language tag or datatype IRI.
#[derive(Debug, Clone)]
pub struct Literal {
    /// The lexical form.
    pub lexical: Arc<str>,
    /// Language tag (mutually exclusive with a non-string datatype).
    pub language: Option<Arc<str>>,
    /// Datatype IRI; `None` means plain literal (treated as `xsd:string`).
    pub datatype: Option<Arc<str>>,
    /// Cached typed interpretation of the lexical form.
    pub parsed: TypedValue,
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        self.lexical == other.lexical
            && self.language == other.language
            && self.datatype == other.datatype
    }
}

impl Eq for Literal {}

impl std::hash::Hash for Literal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.lexical.hash(state);
        self.language.hash(state);
        self.datatype.hash(state);
    }
}

/// Parse `YYYY-MM-DD[Thh:mm:ss[Z]]` into epoch seconds. Returns `None` for
/// malformed input. Supports negative years (astronomical numbering).
fn parse_datetime(s: &str) -> Option<i64> {
    let (date_part, time_part) = match s.find('T') {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    };
    let negative = date_part.starts_with('-');
    let dp = if negative { &date_part[1..] } else { date_part };
    let mut it = dp.splitn(3, '-');
    let year: i64 = it.next()?.parse().ok()?;
    let year = if negative { -year } else { year };
    let month: i64 = it.next()?.parse().ok()?;
    let day: i64 = it.next()?.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let (h, m, sec) = match time_part {
        Some(t) => {
            let t = t.trim_end_matches('Z');
            // Drop timezone offsets like +02:00 for simplicity.
            let t = match t.rfind(['+']) {
                Some(i) => &t[..i],
                None => t,
            };
            let mut ti = t.splitn(3, ':');
            let h: i64 = ti.next()?.parse().ok()?;
            let m: i64 = ti.next().unwrap_or("0").parse().ok()?;
            let s: f64 = ti.next().unwrap_or("0").parse().ok()?;
            (h, m, s as i64)
        }
        None => (0, 0, 0),
    };
    // Days since epoch via the civil-from-days inverse (Howard Hinnant's
    // algorithm), which handles leap years exactly.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (month + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    Some(days * 86_400 + h * 3_600 + m * 60 + sec)
}

/// Extract the year back out of epoch seconds (inverse of the date part of
/// the dateTime parser).
pub fn year_of_epoch(secs: i64) -> i64 {
    let days = secs.div_euclid(86_400);
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    if month <= 2 {
        y + 1
    } else {
        y
    }
}

fn classify(lexical: &str, language: Option<&str>, datatype: Option<&str>) -> TypedValue {
    if language.is_some() {
        return TypedValue::String;
    }
    match datatype {
        None => TypedValue::String,
        Some(dt) => {
            if xsd::is_integer_type(dt) {
                lexical
                    .parse::<i64>()
                    .map(TypedValue::Integer)
                    .unwrap_or(TypedValue::String)
            } else if xsd::is_decimal_type(dt) {
                lexical
                    .parse::<f64>()
                    .map(TypedValue::Double)
                    .unwrap_or(TypedValue::String)
            } else if dt == xsd::BOOLEAN {
                match lexical {
                    "true" | "1" => TypedValue::Boolean(true),
                    "false" | "0" => TypedValue::Boolean(false),
                    _ => TypedValue::String,
                }
            } else if dt == xsd::DATE_TIME || dt == xsd::DATE || dt == xsd::G_YEAR {
                match dt {
                    d if d == xsd::G_YEAR => lexical
                        .parse::<i64>()
                        .ok()
                        .and_then(|y| parse_datetime(&format!("{y}-01-01")))
                        .map(TypedValue::DateTime)
                        .unwrap_or(TypedValue::String),
                    _ => parse_datetime(lexical)
                        .map(TypedValue::DateTime)
                        .unwrap_or(TypedValue::String),
                }
            } else {
                TypedValue::String
            }
        }
    }
}

// The datatype IRIs of the numeric and boolean constructors, one `Arc` each
// for the process: a computed value (a `COUNT`, a `SUM`, a comparison)
// allocates its lexical form and its literal block, not another copy of its
// datatype IRI.
static INTEGER: OnceLock<Arc<str>> = OnceLock::new();
static DOUBLE: OnceLock<Arc<str>> = OnceLock::new();
static BOOLEAN: OnceLock<Arc<str>> = OnceLock::new();

fn shared(cell: &'static OnceLock<Arc<str>>, iri: &'static str) -> Arc<str> {
    Arc::clone(cell.get_or_init(|| iri.into()))
}

/// `v` in decimal as an `Arc<str>`, formatted on the stack first so that the
/// `Arc` block is the one allocation.
fn integer_lexical(v: i64) -> Arc<str> {
    use std::io::Write;
    // `i64::MIN`, the longest, is 20 characters.
    let mut buf = [0u8; 20];
    let len = {
        let mut rest = &mut buf[..];
        // Unreachable panic: the buffer fits every `i64`.
        write!(rest, "{v}").expect("an i64 fits 20 bytes");
        20 - rest.len()
    };
    // Unreachable panic: `write!` of an integer emits ASCII digits and `-`.
    Arc::from(std::str::from_utf8(&buf[..len]).expect("decimal digits are ASCII"))
}

impl Literal {
    /// Plain string literal.
    pub fn string(s: impl Into<Arc<str>>) -> Self {
        let lexical = s.into();
        Literal {
            lexical,
            language: None,
            datatype: None,
            parsed: TypedValue::String,
        }
    }

    /// Language-tagged string.
    pub fn lang_string(s: impl Into<Arc<str>>, lang: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: s.into(),
            language: Some(lang.into()),
            datatype: None,
            parsed: TypedValue::String,
        }
    }

    /// `xsd:integer` literal.
    pub fn integer(v: i64) -> Self {
        Literal {
            lexical: integer_lexical(v),
            language: None,
            datatype: Some(shared(&INTEGER, xsd::INTEGER)),
            parsed: TypedValue::Integer(v),
        }
    }

    /// `xsd:double` literal.
    pub fn double(v: f64) -> Self {
        Literal {
            lexical: v.to_string().into(),
            language: None,
            datatype: Some(shared(&DOUBLE, xsd::DOUBLE)),
            parsed: TypedValue::Double(v),
        }
    }

    /// `xsd:boolean` literal.
    pub fn boolean(v: bool) -> Self {
        Literal {
            lexical: if v { "true" } else { "false" }.into(),
            language: None,
            datatype: Some(shared(&BOOLEAN, xsd::BOOLEAN)),
            parsed: TypedValue::Boolean(v),
        }
    }

    /// `xsd:dateTime` literal from a `YYYY-MM-DDThh:mm:ss` lexical form.
    pub fn date_time(lexical: impl Into<Arc<str>>) -> Self {
        Literal::typed(lexical, xsd::DATE_TIME)
    }

    /// Typed literal with an arbitrary datatype IRI.
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: impl Into<Arc<str>>) -> Self {
        let lexical = lexical.into();
        let datatype = datatype.into();
        let parsed = classify(&lexical, None, Some(&datatype));
        Literal {
            lexical,
            language: None,
            datatype: Some(datatype),
            parsed,
        }
    }

    /// The effective datatype IRI (plain literals are `xsd:string`).
    pub fn datatype_iri(&self) -> &str {
        if self.language.is_some() {
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
        } else {
            self.datatype.as_deref().unwrap_or(xsd::STRING)
        }
    }

    /// Is this literal numeric (integer or double family)?
    pub fn is_numeric(&self) -> bool {
        matches!(self.parsed, TypedValue::Integer(_) | TypedValue::Double(_))
    }

    /// Numeric view if the literal is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self.parsed {
            TypedValue::Integer(i) => Some(i as f64),
            TypedValue::Double(d) => Some(d),
            _ => None,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")
        } else {
            Ok(())
        }
    }
}

/// Escape a literal's lexical form for N-Triples / SPARQL output.
pub fn escape_literal(s: &str) -> Cow<'_, str> {
    if !s.contains(['"', '\\', '\n', '\r', '\t']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// An RDF term: the node/edge label type of a knowledge graph.
///
/// Every variant is one pointer-sized handle (a [`Literal`]'s three strings
/// and typed value sit behind one `Arc`), so a term is 24 bytes and
/// [`Clone`] never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI (URI) reference.
    Iri(Arc<str>),
    /// A blank node with local label.
    Blank(Arc<str>),
    /// A literal value.
    Literal(Arc<Literal>),
}

// The dictionary stores its terms by value, one per distinct term, so this
// size is a per-term cost of every dataset (the byte budget is derived in
// `crates/bench/tests/dataset_footprint.rs`). A variant that grows the enum
// fails here rather than in a heap census.
const _: () = assert!(std::mem::size_of::<Term>() == 24);

impl From<Literal> for Term {
    fn from(literal: Literal) -> Self {
        Term::Literal(Arc::new(literal))
    }
}

impl Term {
    /// A copy that shares no allocation with `self` ([`Clone`] shares the
    /// strings and a literal's `Arc<Literal>`).
    pub(crate) fn unshared(&self) -> Term {
        let copy = |s: &Arc<str>| Arc::<str>::from(&**s);
        match self {
            Term::Iri(s) => Term::Iri(copy(s)),
            Term::Blank(s) => Term::Blank(copy(s)),
            Term::Literal(l) => Term::from(Literal {
                lexical: copy(&l.lexical),
                language: l.language.as_ref().map(copy),
                datatype: l.datatype.as_ref().map(copy),
                parsed: l.parsed,
            }),
        }
    }

    /// IRI constructor.
    pub fn iri(s: impl Into<Arc<str>>) -> Self {
        Term::Iri(s.into())
    }

    /// Blank-node constructor.
    pub fn blank(s: impl Into<Arc<str>>) -> Self {
        Term::Blank(s.into())
    }

    /// Plain-string literal constructor.
    pub fn string(s: impl Into<Arc<str>>) -> Self {
        Term::from(Literal::string(s))
    }

    /// Integer literal constructor.
    pub fn integer(v: i64) -> Self {
        Term::from(Literal::integer(v))
    }

    /// True if the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True if the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True if the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The IRI string if the term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The literal if the term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// SPARQL `STR()`: the lexical form / IRI string.
    pub fn str_value(&self) -> &str {
        match self {
            Term::Iri(i) => i,
            Term::Blank(b) => b,
            Term::Literal(l) => &l.lexical,
        }
    }

    /// SPARQL value comparison (`<`, `>`, ...). `None` when the terms are not
    /// comparable (type error in SPARQL, row filtered out).
    pub fn value_cmp(&self, other: &Term) -> Option<Ordering> {
        match (self, other) {
            (Term::Literal(a), Term::Literal(b)) => match (a.parsed, b.parsed) {
                (TypedValue::Integer(x), TypedValue::Integer(y)) => Some(x.cmp(&y)),
                (TypedValue::DateTime(x), TypedValue::DateTime(y)) => Some(x.cmp(&y)),
                (TypedValue::Boolean(x), TypedValue::Boolean(y)) => Some(x.cmp(&y)),
                _ => {
                    if a.is_numeric() && b.is_numeric() {
                        a.as_f64()?.partial_cmp(&b.as_f64()?)
                    } else if matches!(a.parsed, TypedValue::String)
                        && matches!(b.parsed, TypedValue::String)
                    {
                        Some(a.lexical.as_ref().cmp(b.lexical.as_ref()))
                    } else {
                        None
                    }
                }
            },
            (Term::Iri(a), Term::Iri(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// SPARQL `=` (value equality for literals, identity otherwise).
    pub fn value_eq(&self, other: &Term) -> Option<bool> {
        match (self, other) {
            (Term::Literal(_), Term::Literal(_)) => {
                if self == other {
                    return Some(true);
                }
                match self.value_cmp(other) {
                    Some(ord) => Some(ord == Ordering::Equal),
                    None => Some(false),
                }
            }
            _ => Some(self == other),
        }
    }

    /// Total ordering for ORDER BY: blanks < IRIs < literals, literals by
    /// value when comparable, otherwise lexically.
    pub fn order_cmp(&self, other: &Term) -> Ordering {
        fn rank(t: &Term) -> u8 {
            match t {
                Term::Blank(_) => 0,
                Term::Iri(_) => 1,
                Term::Literal(_) => 2,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => self
                .value_cmp(other)
                .unwrap_or_else(|| self.str_value().cmp(other.str_value())),
            o => o,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::Blank(b) => write!(f, "_:{b}"),
            Term::Literal(l) => write!(f, "{l}"),
        }
    }
}

/// An RDF triple of concrete terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Subject (IRI or blank node in valid RDF).
    pub subject: Term,
    /// Predicate (always an IRI in valid RDF).
    pub predicate: Term,
    /// Object (any term).
    pub object: Term,
}

impl Triple {
    /// Construct a triple.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_literal_parses() {
        let l = Literal::typed("42", xsd::INTEGER);
        assert_eq!(l.parsed, TypedValue::Integer(42));
        assert!(l.is_numeric());
        assert_eq!(l.as_f64(), Some(42.0));
    }

    #[test]
    fn integer_lexical_form_is_the_decimal_string() {
        for v in [0, -1, 7, 10, -10, i64::MIN, i64::MAX] {
            let l = Literal::integer(v);
            assert_eq!(&*l.lexical, v.to_string(), "{v}");
            assert_eq!(l.parsed, TypedValue::Integer(v));
        }
    }

    #[test]
    fn malformed_integer_degrades_to_string() {
        let l = Literal::typed("forty-two", xsd::INTEGER);
        assert_eq!(l.parsed, TypedValue::String);
        assert!(!l.is_numeric());
    }

    #[test]
    fn datetime_roundtrip_year() {
        for (lex, want) in [
            ("2010-01-01T00:00:00", 2010),
            ("1999-12-31T23:59:59", 1999),
            ("2000-02-29T12:00:00", 2000),
            ("1970-01-01", 1970),
            ("1969-12-31", 1969),
            ("0001-01-01", 1),
        ] {
            let l = Literal::date_time(lex);
            match l.parsed {
                TypedValue::DateTime(secs) => assert_eq!(year_of_epoch(secs), want, "{lex}"),
                other => panic!("{lex} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn datetime_ordering() {
        let a = Literal::date_time("2005-06-01T00:00:00");
        let b = Literal::date_time("2010-06-01T00:00:00");
        let ta = Term::from(a);
        let tb = Term::from(b);
        assert_eq!(ta.value_cmp(&tb), Some(Ordering::Less));
    }

    #[test]
    fn cross_type_numeric_comparison() {
        let i = Term::from(Literal::integer(3));
        let d = Term::from(Literal::double(3.5));
        assert_eq!(i.value_cmp(&d), Some(Ordering::Less));
        assert_eq!(i.value_eq(&Term::from(Literal::double(3.0))), Some(true));
    }

    #[test]
    fn iri_literal_not_comparable() {
        let i = Term::iri("http://example.org/a");
        let l = Term::string("a");
        assert_eq!(i.value_cmp(&l), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
        assert_eq!(Term::string("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::from(Literal::lang_string("hi", "en")).to_string(),
            "\"hi\"@en"
        );
        assert_eq!(
            Term::integer(7).to_string(),
            format!("\"7\"^^<{}>", xsd::INTEGER)
        );
    }

    #[test]
    fn escaping() {
        let l = Literal::string("a\"b\\c\nd");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn g_year_parses_to_datetime() {
        let l = Literal::typed("1995", xsd::G_YEAR);
        match l.parsed {
            TypedValue::DateTime(secs) => assert_eq!(year_of_epoch(secs), 1995),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_cmp_ranks_kinds() {
        let b = Term::blank("x");
        let i = Term::iri("http://x");
        let l = Term::string("x");
        assert_eq!(b.order_cmp(&i), Ordering::Less);
        assert_eq!(i.order_cmp(&l), Ordering::Less);
        assert_eq!(l.order_cmp(&l.clone()), Ordering::Equal);
    }
}
