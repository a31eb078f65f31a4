//! The wire encoders' output, pinned byte for byte: an FNV-64 hash of the
//! XML and the TSV body of each of the 22 paper frames (Q1–Q19 and the three
//! case studies) at scale 64, served whole and in pages of 100 rows. How a
//! result table is stored may change; what a client receives may not.

use bench::casestudies::{self, CaseParams};
use bench::{data, queries};
use rdfframes_core::client::{wire, xml};
use rdfframes_core::model::{generator, render};
use sparql_engine::Engine;

const SCALE: usize = 64;
const PAGE: usize = 100;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(id, XML, TSV, XML in pages, TSV in pages)`, computed at the commit
/// before the dictionary-coded table.
const PINNED: [(&str, u64, u64, u64, u64); 22] = [
    (
        "Q1",
        0x404c86c11e1a3adc,
        0xc65624c47546b9ab,
        0x404c86c11e1a3adc,
        0xc65624c47546b9ab,
    ),
    (
        "Q2",
        0xb67a5911205febf8,
        0xaa94930462cd61a3,
        0xb67a5911205febf8,
        0xaa94930462cd61a3,
    ),
    (
        "Q3",
        0x8c668661e1e0fea9,
        0x2aef1f4bcc715386,
        0x8c668661e1e0fea9,
        0x2aef1f4bcc715386,
    ),
    (
        "Q4",
        0xef01d5cf617b1b47,
        0x960b1f34211b651f,
        0xef01d5cf617b1b47,
        0x960b1f34211b651f,
    ),
    (
        "Q5",
        0x4c4a24d9e3fd74dc,
        0xffdc11c791e2ea17,
        0x4c4a24d9e3fd74dc,
        0xffdc11c791e2ea17,
    ),
    (
        "Q6",
        0x778064069e7072b0,
        0x429b6f812c1afb86,
        0x778064069e7072b0,
        0x429b6f812c1afb86,
    ),
    (
        "Q7",
        0xc646b89d6012265a,
        0x96ecbc4a2f57b9f2,
        0xc646b89d6012265a,
        0x96ecbc4a2f57b9f2,
    ),
    (
        "Q8",
        0xc4e7da611a035b2b,
        0xa85420c57ad99e0f,
        0xc4e7da611a035b2b,
        0xa85420c57ad99e0f,
    ),
    (
        "Q9",
        0x054dbb4e2230b945,
        0x2d2fc533ccdd9e9c,
        0xdbdd93d896cd2979,
        0xd3065c709e4e21c1,
    ),
    (
        "Q10",
        0x6d7f5ea2fae05c7e,
        0x65da6eb4f80f2efe,
        0x6d7f5ea2fae05c7e,
        0x65da6eb4f80f2efe,
    ),
    (
        "Q11",
        0xf32c39dba68d7fc9,
        0x947ccc78e1795bf2,
        0xcda9109ace53482d,
        0x9921d96c6ba1f5f3,
    ),
    (
        "Q12",
        0x81a58e136570c641,
        0x0a85d3c28d7a28ee,
        0x81a58e136570c641,
        0x0a85d3c28d7a28ee,
    ),
    (
        "Q13",
        0x23b0e16913ff4cf9,
        0xc18155308c4fc9b4,
        0x23b0e16913ff4cf9,
        0xc18155308c4fc9b4,
    ),
    (
        "Q14",
        0x686b01ac1b6c2ff7,
        0xe0e2aba7767dc8aa,
        0x686b01ac1b6c2ff7,
        0xe0e2aba7767dc8aa,
    ),
    (
        "Q15",
        0x85071fef62fc2113,
        0xd8e45a58665dd903,
        0x85071fef62fc2113,
        0xd8e45a58665dd903,
    ),
    (
        "Q16",
        0x093c8b22ab65d974,
        0x1e53dd0dbd9d7ae0,
        0x50dca36464f69e02,
        0x289bc9eba7f3945c,
    ),
    (
        "Q17",
        0x8bb3e03d9ab6cc60,
        0x72332bbc622ac215,
        0x8bb3e03d9ab6cc60,
        0x72332bbc622ac215,
    ),
    (
        "Q18",
        0xe3cd0f097f93a985,
        0x64368f4967a938d8,
        0x683bc7c0dcdc9fcb,
        0xfba7f646d99ac8c3,
    ),
    (
        "Q19",
        0x4ffd857c9e925a35,
        0x1f20855239ac8fe2,
        0x4ffd857c9e925a35,
        0x1f20855239ac8fe2,
    ),
    (
        "cs1",
        0x1e991267e4cce189,
        0x1e75535d35783c52,
        0x549e8137ba32fe6c,
        0xed07ed8252c502ef,
    ),
    (
        "cs2",
        0x57dad3581bbd3600,
        0xf76febcbdbb04f01,
        0x57dad3581bbd3600,
        0xf76febcbdbb04f01,
    ),
    (
        "cs3",
        0x104fd0d7ef06a1a3,
        0x8095e132d2a22c2e,
        0x76e860cbdb7307c4,
        0xa414d6983eba9e3f,
    ),
];

/// The (XML, TSV) hashes of every body `sparql` is served as: one page, or
/// pages of `page` rows up to the first short one.
fn hashes(engine: &Engine, sparql: &str, page: Option<usize>) -> (u64, u64) {
    let prepared = engine.prepare(sparql).unwrap();
    let (mut x, mut t) = (FNV_OFFSET, FNV_OFFSET);
    let mut offset = 0;
    loop {
        let (table, _) = engine
            .execute_prepared(&prepared, page.map(|p| (offset, p)))
            .unwrap();
        x = fnv(x, xml::encode(&table).as_bytes());
        t = fnv(t, wire::encode(&table).as_bytes());
        match page {
            Some(p) if table.len() == p => offset += p,
            _ => return (x, t),
        }
    }
}

#[test]
fn every_paper_frame_encodes_to_the_pinned_bytes() {
    let p = CaseParams::for_scale(SCALE);
    let mut frames: Vec<_> = (queries::all_queries().into_iter())
        .map(|q| (q.id, q.frame))
        .collect();
    frames.push(("cs1", casestudies::movie_genre_classification(p.prolific)));
    frames.push((
        "cs2",
        casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
    ));
    frames.push(("cs3", casestudies::kg_embedding()));
    let engine = Engine::new(data::build_dataset(SCALE));
    let got: Vec<_> = (frames.iter())
        .map(|(id, frame)| {
            let sparql = render::render(&generator::build_query_model(frame).unwrap());
            let (x, t) = hashes(&engine, &sparql, None);
            let (xp, tp) = hashes(&engine, &sparql, Some(PAGE));
            (*id, x, t, xp, tp)
        })
        .collect();
    let listing: String = (got.iter())
        .map(|(id, x, t, xp, tp)| {
            format!("    ({id:?}, {x:#018x}, {t:#018x}, {xp:#018x}, {tp:#018x}),\n")
        })
        .collect();
    assert_eq!(got, PINNED, "now:\n{listing}");
}
