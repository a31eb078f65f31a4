//! The parser is the one gate between a query model and a plan: the
//! embedded path plans the rendered text just as the wire path does. It must
//! answer every input with `Ok` or a typed `Err`, never a panic.
//!
//! Fixed seed: the rendered SPARQL of the 22 paper frames (Q1–Q19 and the
//! three case studies), each cut at every character and damaged by seeded
//! one-byte edits — replace or insert a character drawn from SPARQL's
//! punctuation (plus two multi-byte ones), or delete a byte, read back
//! with `from_utf8_lossy` — fed to `parse_query` and, when it parses, to
//! `translate_query`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bench::casestudies::{self, CaseParams};
use bench::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdfframes_core::model::{generator, render};
use sparql_engine::algebra::translate_query;
use sparql_engine::parser::parse_query;

const SEED: u64 = 0x5eed_0039;
const EDITS_PER_TEXT: usize = 2_000;

/// Characters that steer a recursive-descent SPARQL parser: brackets,
/// operators, term sigils, separators, a digit, a letter, whitespace — and
/// two that take more than one byte.
const PUNCTUATION: &str = "{}()<>?$.;,*\"'@^:#=!&|+-/_ \n0aé\u{FFFD}";

fn rendered_frames() -> Vec<(&'static str, String)> {
    let p = CaseParams::for_scale(4000);
    let mut frames: Vec<_> = (queries::all_queries().into_iter())
        .map(|q| (q.id, q.frame))
        .collect();
    frames.push(("cs1", casestudies::movie_genre_classification(p.prolific)));
    frames.push((
        "cs2",
        casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
    ));
    frames.push(("cs3", casestudies::kg_embedding()));
    (frames.into_iter())
        .map(|(id, frame)| {
            let model = generator::build_query_model(&frame).unwrap();
            (id, render::render(&model))
        })
        .collect()
}

/// One seeded edit of `text`: replace a byte by a character, insert a
/// character, or delete a byte.
fn edit(text: &[u8], alphabet: &[char], rng: &mut StdRng) -> String {
    let mut bytes = text.to_vec();
    let mut buf = [0; 4];
    let ch = alphabet[rng.gen_range(0..alphabet.len())].encode_utf8(&mut buf);
    let at = rng.gen_range(0..text.len());
    match rng.gen_range(0..3u32) {
        0 => drop(bytes.splice(at..=at, ch.bytes())),
        1 => drop(bytes.splice(at..at, ch.bytes())),
        _ => drop(bytes.remove(at)),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parse (and translate) `input`; the panic message if either step
/// panicked.
fn panic_of(input: &str) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(query) = parse_query(input) {
            let _ = translate_query(&query);
        }
    }))
    .err()?;
    let message = (payload.downcast_ref::<String>().cloned())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    Some(message.unwrap_or_default())
}

#[test]
fn truncated_and_edited_paper_queries_never_panic() {
    let texts = rendered_frames();
    for (id, text) in &texts {
        assert!(
            parse_query(text).is_ok_and(|q| translate_query(&q).is_ok()),
            "{id}: the undamaged text must plan"
        );
    }
    // Panics are collected and reported below, not printed one by one.
    std::panic::set_hook(Box::new(|_| {}));
    let mut rng = StdRng::seed_from_u64(SEED);
    let alphabet: Vec<char> = PUNCTUATION.chars().collect();
    let mut cases = 0usize;
    let mut panicked = Vec::new();
    for (id, text) in texts {
        let cuts = (0..text.len()).filter(|&i| text.is_char_boundary(i));
        let inputs = cuts
            .map(|i| text[..i].to_string())
            .chain((0..EDITS_PER_TEXT).map(|_| edit(text.as_bytes(), &alphabet, &mut rng)));
        for input in inputs {
            cases += 1;
            if let Some(message) = panic_of(&input) {
                panicked.push(format!("{id}: {message}\n{input:?}"));
            }
        }
    }
    // Back to the default hook, so a failing assertion below is reported.
    drop(std::panic::take_hook());
    assert!(cases > 50_000, "only {cases} cases");
    assert!(
        panicked.is_empty(),
        "{} of {cases} inputs panicked, first: {}",
        panicked.len(),
        panicked[0]
    );
}
