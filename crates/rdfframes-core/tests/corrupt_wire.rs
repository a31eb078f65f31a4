//! Wire-path panic audit: malformed or truncated response bodies must
//! surface as typed [`FrameError`]s through the whole client stack — the
//! decoders return `None`, the converters return `Err`, and
//! [`Executor::run`] reports a transport error. Nothing on this path may
//! panic on attacker-shaped bytes.

use std::sync::Arc;
use std::sync::Mutex;

use rdf_model::{Dataset, Graph, Term, Triple};
use rdfframes_core::client::{xml, Endpoint};
use rdfframes_core::exec::{Completeness, Executor, RetryPolicy};
use rdfframes_core::{FrameError, Result};
use sparql_engine::SolutionTable;

/// An endpoint that serves pre-baked response *bodies*: each request pops
/// the next body and decodes it exactly like a real client would, turning
/// decode failures into transport errors. This is how corrupted bytes enter
/// `Executor::run` in production — after the HTTP layer, before conversion.
struct RawBodyEndpoint {
    bodies: Mutex<Vec<String>>,
    page: usize,
}

impl RawBodyEndpoint {
    /// An endpoint serving `bodies` in order, capped at `page` rows.
    fn new(bodies: &[&str], page: usize) -> Self {
        // Bodies pop from the back.
        let bodies = bodies.iter().rev().map(|b| b.to_string()).collect();
        RawBodyEndpoint {
            bodies: Mutex::new(bodies),
            page,
        }
    }
}

impl Endpoint for RawBodyEndpoint {
    fn query_chunk(&self, _sparql: &str, _offset: usize, _limit: usize) -> Result<SolutionTable> {
        let body = self
            .bodies
            .lock()
            .unwrap()
            .pop()
            .expect("test script exhausted");
        xml::decode(&body)
            .ok_or_else(|| FrameError::Transport("response body failed to decode".into()))
    }

    fn max_rows_per_request(&self) -> usize {
        self.page
    }
}

/// Corrupted response bodies: truncations, tag soup, mismatched structure.
fn corrupt_bodies() -> Vec<&'static str> {
    vec![
        "",
        "<?xml version=\"1.0\"?>",
        "<sparql><head>",
        "<sparql><head></head><results><result>",
        "<head></head><results><result><binding name=\"s\"><uri>http://x</uri>",
        "<head><variable name=\"s\"/></head><results><result>\
         <binding name=\"s\"><uri>http://x</binding></result></results>",
        "<head><variable name=\"s\"/></head><results><result>\
         <binding name=\"UNDECLARED\"><uri>http://x</uri></binding></result></results>",
        "<head><variable name=\"s\"/></head><results>\
         <result><binding name=\"s\"><literal datatype=\"oops>x</literal></binding></result></results>",
        // Bodies in other formats (TSV) are not XML at all. A term that is
        // not N-Triples syntax:
        "?s\nnot-a-term\n",
        // TSV with an unterminated literal.
        "?s\n\"unterminated\n",
        // TSV with a dangling escape at end of input.
        "?s\n\"abc\\\n",
        // Ragged TSV row (two fields under a one-column header).
        "?s\n<http://x/a>\t<http://x/b>\n",
    ]
}

/// An XML results body binding `?var` to each of `iris` in turn.
fn xml_body(var: &str, iris: &[&str]) -> String {
    let results: String = (iris.iter())
        .map(|iri| format!("<result><binding name=\"{var}\"><uri>{iri}</uri></binding></result>"))
        .collect();
    format!("<head><variable name=\"{var}\"/></head><results>{results}</results>")
}

#[test]
fn decoders_reject_corrupt_bodies_without_panicking() {
    for body in corrupt_bodies() {
        // The decoder may be handed any bytes; it must return a value.
        let _ = xml::decode(body);
    }
    // Spot-check the ones that *must* be rejected outright.
    assert!(xml::decode("<sparql><head>").is_none());
    assert!(xml::decode("?s\n\"unterminated\n").is_none());
    assert!(xml::decode("?s\n<http://x/a>\t<http://x/b>\n").is_none());
}

#[test]
fn corrupted_first_chunk_is_a_typed_error_through_run() {
    for body in corrupt_bodies() {
        // Skip bodies that legitimately decode — this test targets the
        // reject path.
        if xml::decode(body).is_some() {
            continue;
        }
        let ep = RawBodyEndpoint::new(&[body], 10);
        let err = Executor::new().run("SELECT ?s WHERE { ?s ?p ?o }", &ep);
        assert!(
            matches!(err, Err(FrameError::Transport(_))),
            "body {body:?} gave {err:?}"
        );
    }
}

#[test]
fn corrupted_mid_pagination_chunk_is_a_typed_error_through_run() {
    // Chunk 0 decodes fine and fills the page (so pagination continues);
    // chunk 1 arrives truncated. The run must fail typed, not panic.
    let good = xml_body("s", &["http://x/a", "http://x/b"]);
    let whole = xml_body("s", &["http://x/c"]);
    let bad = &whole[..whole.find("</binding>").unwrap()];
    let ep = RawBodyEndpoint::new(&[&good, bad], 2);
    let err = Executor::new().run("SELECT ?s WHERE { ?s ?p ?o }", &ep);
    assert!(matches!(err, Err(FrameError::Transport(_))), "{err:?}");
}

#[test]
fn schema_drift_between_chunks_is_a_typed_error_through_run() {
    // Chunk 0 establishes {s}; chunk 1 decodes fine but answers {z}.
    let good = xml_body("s", &["http://x/a", "http://x/b"]);
    let drifted = xml_body("z", &["http://x/c"]);
    let ep = RawBodyEndpoint::new(&[&good, &drifted], 2);
    let err = Executor::new().run("SELECT ?s WHERE { ?s ?p ?o }", &ep);
    match err {
        Err(FrameError::Transport(m)) => {
            assert!(m.contains("inconsistent schemas"), "{m}")
        }
        other => panic!("expected schema-drift transport error, got {other:?}"),
    }
}

#[test]
fn a_page_longer_than_requested_is_a_retryable_transport_error() {
    // The server holds a, b, c. Asked for a page of 2 it answers with all
    // three; kept, the next request (offset 2) would append c again.
    let (ab, abc, c) = (
        xml_body("s", &["http://x/a", "http://x/b"]),
        xml_body("s", &["http://x/a", "http://x/b", "http://x/c"]),
        xml_body("s", &["http://x/c"]),
    );
    let q = "SELECT ?s WHERE { ?s ?p ?o }";
    // On the first chunk it is an error: nothing is assembled yet.
    let ep = RawBodyEndpoint::new(&[&abc, &c], 2);
    let err = Executor::new().run(q, &ep);
    assert!(matches!(err, Err(FrameError::Transport(_))), "{err:?}");
    // On a later chunk the intact prefix comes back, marked partial.
    let ep = RawBodyEndpoint::new(&[&ab, &abc], 2);
    let partial = Executor::new().run_partial(q, &ep).unwrap();
    assert_eq!(partial.frame.len(), 2);
    assert!(matches!(
        partial.completeness,
        Completeness::Partial {
            error: FrameError::Transport(_)
        }
    ));
    // It is retryable, like a body that fails to decode: the re-requested
    // page is whole, and each row arrives once.
    let ep = RawBodyEndpoint::new(&[&abc, &ab, &c], 2);
    let exec = Executor::new().with_retry(RetryPolicy::fast(2));
    assert_eq!(exec.run(q, &ep).unwrap().len(), 3);
    assert_eq!(exec.stats().retries(), 1);
}

#[test]
fn wire_endpoint_with_xml_roundtrip_never_panics_on_any_query_shape() {
    // End-to-end sanity over the real InProcessEndpoint with the XML wire
    // format: unusual-but-legal terms (quotes, angle brackets, newlines,
    // unicode, empty strings) survive the round trip — the characters most
    // likely to break a hand-rolled encoder.
    let mut g = Graph::new();
    let weird = [
        "plain",
        "with \"quotes\" inside",
        "tabs\tand\nnewlines",
        "ampersand & <angle> brackets",
        "ünïcödé ≠ ascii",
        "",
    ];
    for (i, w) in weird.iter().enumerate() {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::string(*w),
        ));
    }
    let mut ds = Dataset::new();
    ds.insert_graph("http://g", g);
    let ep = rdfframes_core::InProcessEndpoint::new(Arc::new(ds));
    let df = Executor::new()
        .run(
            "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?s",
            &ep,
        )
        .unwrap();
    assert_eq!(df.len(), weird.len());
}
