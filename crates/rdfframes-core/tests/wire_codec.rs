//! The wire codec as functions of bytes: `decode(encode(t)) == t` for
//! generated tables full of the characters XML has to escape, and `decode`
//! of damaged documents — truncated anywhere, bytes flipped or inserted —
//! never panics and never returns a ragged table.
//!
//! `corrupt_wire.rs` drives a fixed list of bad bodies through the whole
//! client stack; this file widens the input space of the decoder itself.

use proptest::prelude::*;
use rdf_model::vocab::xsd;
use rdf_model::{Literal, Term};
use rdfframes_core::client::convert::table_to_dataframe;
use rdfframes_core::client::xml;
use sparql_engine::SolutionTable;

/// Pieces a hostile value is assembled from: the XML markup characters, text
/// that looks like an entity, a CDATA end, this format's own closing tags,
/// N-Triples escapes and suffixes, multi-byte UTF-8.
const PIECES: [&str; 20] = [
    "&",
    "<",
    ">",
    "\"",
    "'",
    "&amp;",
    "&lt;b&gt;",
    "&#38;",
    "]]>",
    "</literal>",
    "</binding></result>",
    "\\",
    "\\n",
    "^^",
    "@en",
    "\u{2}",
    "é中♥",
    " ",
    "a",
    "http://x/y?q=1&r=2#z",
];

/// A value with no tab or newline: usable anywhere (IRIs, labels, tags,
/// variable names).
fn token() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

/// A lexical form: a token with raw tabs, newlines and carriage returns.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            token(),
            Just("\t".to_string()),
            Just("\n".to_string()),
            Just("\r".to_string())
        ],
        0..3,
    )
    .prop_map(|parts| parts.concat())
}

fn term() -> impl Strategy<Value = Term> {
    let datatype = prop_oneof![
        Just(xsd::INTEGER.to_string()),
        Just(xsd::DOUBLE.to_string()),
        Just(xsd::BOOLEAN.to_string()),
        Just(xsd::DATE_TIME.to_string()),
        token(),
    ];
    prop_oneof![
        token().prop_map(Term::iri),
        token().prop_map(Term::blank),
        text().prop_map(Term::string),
        (text(), token()).prop_map(|(s, lang)| Term::from(Literal::lang_string(s, lang))),
        (text(), datatype).prop_map(|(s, dt)| Term::from(Literal::typed(s, dt))),
        (-3i64..4).prop_map(Term::integer),
        Just(Term::from(Literal::double(2.5))),
        Just(Term::from(Literal::boolean(true))),
    ]
}

/// Tables of 0–4 columns and 0–6 rows; names are distinct (an index suffix)
/// and otherwise hostile; a third of the cells are unbound, and a small pool
/// of terms makes values repeat within a table, as pages do. Half are pushed
/// row by row (one dictionary entry per bound cell), half built by hand over
/// a dictionary that holds the pool reversed, then again in order (every
/// term twice, each cell picking one of its two codes), then an entry
/// nothing references.
fn table() -> impl Strategy<Value = SolutionTable> {
    (
        proptest::collection::vec(token(), 0..5),
        proptest::collection::vec(term(), 1..6),
        proptest::collection::vec(proptest::collection::vec(0usize..100, 4), 0..7),
        any::<bool>(),
    )
        .prop_map(|(names, pool, picks, by_hand)| {
            let vars: Vec<String> = (names.iter().enumerate())
                .map(|(i, n)| format!("{n}{i}"))
                .collect();
            let n = pool.len();
            if !by_hand {
                let rows = (picks.iter())
                    .map(|row| {
                        (row[..vars.len()].iter())
                            .map(|&k| (k % 3 > 0).then(|| pool[k % n].clone()))
                            .collect()
                    })
                    .collect();
                return pushed(vars, rows);
            }
            let mut dict: Vec<Term> = pool.iter().rev().chain(&pool).cloned().collect();
            dict.push(Term::iri("http://x/unreferenced"));
            let codes = (0..vars.len())
                .map(|c| {
                    (picks.iter())
                        .map(|row| match (row[c] % 3, row[c] % n) {
                            (0, _) => 0,
                            (1, i) => (n - i) as u32,
                            (_, i) => (n + i + 1) as u32,
                        })
                        .collect()
                })
                .collect();
            SolutionTable::from_columns(vars, dict, codes, picks.len()).unwrap()
        })
}

/// A table pushed row by row.
fn pushed(vars: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> SolutionTable {
    let mut t = SolutionTable::with_vars(vars);
    for row in rows {
        t.push_row(row).unwrap();
    }
    t
}

fn names(vars: &[&str]) -> Vec<String> {
    vars.iter().map(|v| v.to_string()).collect()
}

/// Equal as tables and in what `==` does not see (a literal's parsed value).
fn same(a: &SolutionTable, b: &SolutionTable) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

fn rectangular(t: &SolutionTable) -> bool {
    let blocks = t.blocks();
    (blocks.iter())
        .all(|b| b.codes().len() == t.vars().len() && b.codes().iter().all(|c| c.len() == b.rows()))
        && blocks.iter().map(|b| b.rows()).sum::<usize>() == t.len()
}

fn small() -> SolutionTable {
    pushed(
        names(&["s", "a&b", "n"]),
        vec![
            vec![
                Some(Term::iri("http://x/a?q=1&r=2")),
                Some(Term::from(Literal::lang_string("héllo <\"w\">", "en"))),
                Some(Term::integer(5)),
            ],
            vec![Some(Term::blank("b0")), None, Some(Term::string("5"))],
            vec![None, Some(Term::string("tab\there ]]> &amp;")), None],
        ],
    )
}

const SMALL_XML: &str = "<?xml version=\"1.0\"?>\n\
<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n\
<head><variable name=\"s\"/><variable name=\"a&amp;b\"/><variable name=\"n\"/></head>\n\
<results>\n\
<result><binding name=\"s\"><uri>http://x/a?q=1&amp;r=2</uri></binding>\
<binding name=\"a&amp;b\"><literal xml:lang=\"en\">héllo &lt;&quot;w&quot;&gt;</literal></binding>\
<binding name=\"n\"><literal datatype=\"http://www.w3.org/2001/XMLSchema#integer\">5</literal></binding></result>\n\
<result><binding name=\"s\"><bnode>b0</bnode></binding>\
<binding name=\"n\"><literal>5</literal></binding></result>\n\
<result><binding name=\"a&amp;b\"><literal>tab\there ]]&gt; &amp;amp;</literal></binding></result>\n\
</results>\n\
</sparql>\n";

/// `small()` as a SPARQL-TSV body: a document in another format, which the
/// XML decoder must refuse at every truncation without panicking.
const SMALL_TSV: &str = "?s\t?a&b\t?n\n\
<http://x/a?q=1&r=2>\t\"héllo <\\\"w\\\">\"@en\t\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>\n\
_:b0\t\t\"5\"\n\
\t\"tab\\there ]]> &amp;\"\t\n";

#[test]
fn encoders_write_exactly_these_bytes() {
    assert_eq!(xml::encode(&small()), SMALL_XML);
    assert!(same(&xml::decode(SMALL_XML).unwrap(), &small()));
}

#[test]
fn rows_with_nothing_to_print_survive_the_round_trip() {
    // The unit row and a lone unbound cell are a `<result>` with no
    // binding.
    for table in [
        SolutionTable::unit(),
        pushed(
            names(&["a"]),
            vec![vec![None], vec![Some(Term::integer(1))], vec![None]],
        ),
    ] {
        assert_eq!(xml::decode(&xml::encode(&table)).unwrap(), table);
    }
}

#[test]
fn a_name_spelled_differently_from_the_header_still_finds_its_column() {
    // The header writes a bare `&`, the binding the entity; bindings arrive
    // out of header order.
    let doc = "<head><variable name=\"p&q\"/><variable name=\"z\"/></head><results>\
               <result><binding name=\"z\"><literal>1</literal></binding>\
               <binding name=\"p&amp;q\"><literal>2</literal></binding></result></results>";
    let table = xml::decode(doc).unwrap();
    assert_eq!(table.vars(), ["p&q", "z"]);
    assert_eq!(
        table.rows().map(|r| r.to_vec()).collect::<Vec<_>>(),
        [[Some(Term::string("2")), Some(Term::string("1"))]]
    );
}

#[test]
fn a_variable_bound_twice_in_one_result_is_rejected() {
    // SPARQL XML binds a variable at most once per result; a second binding
    // would silently replace the first, so the body is refused (and the
    // client, seeing a transport error, asks again).
    let body = |second: &str| {
        format!(
            "<head><variable name=\"s\"/><variable name=\"o\"/></head><results>\
             <result><binding name=\"s\"><uri>http://x/a</uri></binding>\
             <binding name=\"{second}\"><uri>http://x/b</uri></binding></result></results>"
        )
    };
    assert!(xml::decode(&body("o")).is_some());
    assert!(xml::decode(&body("s")).is_none());
}

#[test]
fn one_term_spelled_two_ways_is_two_entries_of_one_value() {
    // `>` may be shipped bare or as `&gt;`: two raw slices, two dictionary
    // entries, one term — and a table equal to the one that stores it once.
    let want = SolutionTable::from_columns(
        names(&["a"]),
        vec![Term::string("x>b")],
        vec![vec![1, 1]],
        2,
    )
    .unwrap();
    let xml_body = "<head><variable name=\"a\"/></head><results>\
                    <result><binding name=\"a\"><literal>x&gt;b</literal></binding></result>\
                    <result><binding name=\"a\"><literal>x>b</literal></binding></result></results>";
    let decoded = xml::decode(xml_body).unwrap();
    assert_eq!(decoded.dictionary().len(), 2);
    assert!(same(&decoded, &want), "{decoded:?}");
    assert_eq!(
        table_to_dataframe(&decoded).unwrap(),
        table_to_dataframe(&want).unwrap()
    );
}

/// `corrupt_wire.rs::corrupt_bodies()`, with what the decoder said at the
/// commit before the one-pass rewrite: (body, XML rejected). A rejection
/// must stay a rejection.
const CORRUPT: [(&str, bool); 12] = [
    ("", true),
    ("<?xml version=\"1.0\"?>", true),
    ("<sparql><head>", true),
    ("<sparql><head></head><results><result>", true),
    (
        "<head></head><results><result><binding name=\"s\"><uri>http://x</uri>",
        true,
    ),
    (
        "<head><variable name=\"s\"/></head><results><result>\
         <binding name=\"s\"><uri>http://x</binding></result></results>",
        true,
    ),
    (
        "<head><variable name=\"s\"/></head><results><result>\
         <binding name=\"UNDECLARED\"><uri>http://x</uri></binding></result></results>",
        true,
    ),
    (
        "<head><variable name=\"s\"/></head><results>\
         <result><binding name=\"s\"><literal datatype=\"oops>x</literal></binding></result></results>",
        false,
    ),
    ("?s\nnot-a-term\n", true),
    ("?s\n\"unterminated\n", true),
    ("?s\n\"abc\\\n", true),
    ("?s\n<http://x/a>\t<http://x/b>\n", true),
];

#[test]
fn bodies_rejected_before_the_rewrite_are_still_rejected() {
    for (body, xml_rejected) in CORRUPT {
        let x = xml::decode(body);
        assert!(!xml_rejected || x.is_none(), "XML accepts {body:?}");
        assert!(x.iter().all(rectangular), "{body:?}");
    }
}

#[test]
fn truncated_documents_are_rejected_or_rectangular() {
    let x = xml::encode(&small());
    let end_of_results = x.find("</results>").unwrap() + "</results>".len();
    for cut in (0..x.len()).filter(|&i| x.is_char_boundary(i)) {
        match xml::decode(&x[..cut]) {
            // Everything up to `</results>` arrived: the whole table did.
            Some(table) => assert!(cut >= end_of_results && same(&table, &small()), "{cut}"),
            None => assert!(cut < end_of_results, "{cut}"),
        }
    }
    for cut in (0..SMALL_TSV.len()).filter(|&i| SMALL_TSV.is_char_boundary(i)) {
        let _ = xml::decode(&SMALL_TSV[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn xml_round_trips(t in table()) {
        let decoded = xml::decode(&xml::encode(&t));
        prop_assert!(decoded.as_ref().is_some_and(|d| same(d, &t)), "{t:?}\n-> {decoded:?}");
    }

    #[test]
    fn damaged_documents_never_panic_and_never_decode_ragged(
        t in table(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..4),
    ) {
        let mut bytes = xml::encode(&t).into_bytes();
        for &(at, byte, insert) in &edits {
            let at = at % bytes.len();
            if insert {
                bytes.insert(at, byte);
            } else {
                bytes[at] ^= byte | 1;
            }
        }
        let damaged = String::from_utf8_lossy(&bytes);
        let decoded = xml::decode(&damaged);
        prop_assert!(decoded.iter().all(rectangular), "{damaged:?} -> {decoded:?}");
    }
}
