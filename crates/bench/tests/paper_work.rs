//! The paper's evaluation (Figs. 3 and 5) as exact work counters, no clock.
//!
//! For each of the 22 paper frames (Q1–Q19 and the three case studies) the
//! generated SPARQL, the naive one-subquery-per-operator SPARQL and the
//! expert's hand-written SPARQL run through `Engine::execute_with_stats`.
//! Their `rows_scanned` and `peak_live_bytes` (and the generated result's
//! row count) are pinned per scale: a change that moves a count updates
//! the table here and says why in `CHANGES.md`.
//!
//! The paper's claim is asserted on top: the generated query reads no more
//! index entries than the naive one or the expert's. The places where it
//! does not hold yet are named in [`EXCEPTIONS`], each with its reason.
//! Removing an exception is the acceptance of the change that fixes it; an
//! exception is never added to make a change pass.
//!
//! Scales 64 and 512 run with the suite. Scale 4000 — the scale the
//! benchmark runs at — is `#[ignore]`d (66 queries over 180 k triples) and
//! run in release mode by `scripts/check.sh`:
//!
//! ```text
//! cargo test --release -p bench --test paper_work -- --ignored
//! ```

use bench::casestudies::{self, CaseParams};
use bench::{data, queries};
use rdfframes_core::model::{generator, naive, render};
use sparql_engine::Engine;

/// `(frame, baselines, scale, why)`: a frame whose generated query reads
/// more than each of `baselines` ("naive", "expert") at `scale` (`None`:
/// at every scale).
const EXCEPTIONS: [(&str, &[&str], Option<usize>, &str); 3] = [
    (
        "cs1",
        &["naive"],
        None,
        "the left-deep BGP re-probes each movie's star once per (movie, actor) \
         pair; the naive plan reads each pattern's extent once (ROADMAP item 4)",
    ),
    (
        "cs2",
        &["expert"],
        None,
        "the generated GROUP BY input carries the cached `?paper dc:title` \
         pattern, which the expert's subquery leaves out (ROADMAP item 8)",
    ),
    (
        "Q9",
        &["naive", "expert"],
        Some(64),
        "the generated BGP stays left-deep where the expert's text is already \
         split into two hash-joined stars and the naive one into subqueries \
         (ROADMAP item 8)",
    ),
];

/// One frame's counters: the generated query's result rows, then
/// `rows_scanned` and `peak_live_bytes` for the generated, naive and
/// expert queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    rows: usize,
    generated: (u64, u64),
    naive: (u64, u64),
    expert: (u64, u64),
}

const fn w(rows: usize, g: (u64, u64), n: (u64, u64), e: (u64, u64)) -> Work {
    Work {
        rows,
        generated: g,
        naive: n,
        expert: e,
    }
}

/// The three SPARQL texts of every paper frame at `scale`:
/// `(id, generated, naive, expert)`.
fn paper_queries(scale: usize) -> Vec<(&'static str, String, String, String)> {
    let p = CaseParams::for_scale(scale);
    let mut frames: Vec<_> = (queries::all_queries().into_iter())
        .map(|q| (q.id, q.frame, q.expert))
        .collect();
    frames.push((
        "cs1",
        casestudies::movie_genre_classification(p.prolific),
        casestudies::movie_genre_expert(p.prolific),
    ));
    frames.push((
        "cs2",
        casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
        casestudies::topic_modeling_expert(p.since_year, p.threshold, p.recent_year),
    ));
    frames.push((
        "cs3",
        casestudies::kg_embedding(),
        casestudies::kg_embedding_expert(),
    ));
    (frames.into_iter())
        .map(|(id, frame, expert)| {
            let generated = render::render(&generator::build_query_model(&frame).unwrap());
            let naive = render::render(&naive::build_naive_model(&frame).unwrap());
            (id, generated, naive, expert)
        })
        .collect()
}

/// Measure every paper frame at `scale`, compare the counters with
/// `pinned`, and check the paper's claim: no generated query scans more
/// than its baselines, except exactly where [`EXCEPTIONS`] says so.
fn check(scale: usize, pinned: &[(&str, Work)]) {
    let engine = Engine::new(data::build_dataset(scale));
    let run = |sparql: &str| {
        let (table, stats) = engine.execute_with_stats(sparql).unwrap();
        (table.len(), (stats.rows_scanned, stats.peak_live_bytes))
    };
    let got: Vec<(&str, Work)> = (paper_queries(scale).iter())
        .map(|(id, generated, naive, expert)| {
            let (rows, g) = run(generated);
            let work = w(rows, g, run(naive).1, run(expert).1);
            (*id, work)
        })
        .collect();

    let listing: String = (got.iter())
        .map(|(id, x)| {
            format!(
                "    ({id:?}, w({}, {:?}, {:?}, {:?})),\n",
                x.rows, x.generated, x.naive, x.expert
            )
        })
        .collect();
    assert_eq!(got, pinned, "scale {scale} now:\n{listing}");

    for (id, work) in &got {
        for (baseline, (scans, _)) in [("naive", work.naive), ("expert", work.expert)] {
            let exception = (EXCEPTIONS.iter()).find(|(frame, bases, at, _)| {
                frame == id && bases.contains(&baseline) && at.is_none_or(|s| s == scale)
            });
            let exceeds = work.generated.0 > scans;
            match exception {
                None => assert!(
                    !exceeds,
                    "scale {scale}: {id}'s generated query scans {} > {baseline} {scans}",
                    work.generated.0
                ),
                Some((.., why)) => assert!(
                    exceeds,
                    "scale {scale}: {id} no longer scans more than {baseline} ({why}): \
                     drop the exception"
                ),
            }
        }
    }
}

#[test]
fn scale_64_work_is_pinned_and_generated_does_least() {
    check(64, &PINNED_64);
}

#[test]
fn scale_512_work_is_pinned_and_generated_does_least() {
    check(512, &PINNED_512);
}

#[test]
#[ignore = "scale 4000 takes seconds in release mode; scripts/check.sh runs it"]
fn scale_4000_work_is_pinned_and_generated_does_least() {
    check(4000, &PINNED_4000);
}

#[rustfmt::skip]
const PINNED_64: [(&str, Work); 22] = [
    ("Q1", w(10, (57, 697), (131, 5219), (57, 697))),
    ("Q2", w(1, (14, 223), (17, 421), (14, 223))),
    ("Q3", w(3, (17, 461), (17, 461), (17, 461))),
    ("Q4", w(3, (66, 204), (66, 204), (66, 204))),
    ("Q5", w(7, (188, 288), (1451, 47236), (188, 288))),
    ("Q6", w(3, (19, 160), (131, 4995), (19, 160))),
    ("Q7", w(10, (10, 232), (10, 232), (10, 232))),
    ("Q8", w(0, (177, 0), (1911, 65412), (177, 0))),
    ("Q9", w(533, (2582, 17640), (1516, 69764), (894, 22604))),
    ("Q10", w(15, (30, 842), (99, 842), (30, 842))),
    ("Q11", w(108, (172, 1424), (192, 4704), (172, 1424))),
    ("Q12", w(3, (13, 223), (13, 223), (13, 223))),
    ("Q13", w(78, (582, 3292), (1320, 51264), (582, 3292))),
    ("Q14", w(9, (197, 408), (1586, 53360), (197, 408))),
    ("Q15", w(5, (159, 1155), (637, 20463), (159, 1155))),
    ("Q16", w(295, (295, 2440), (295, 2440), (295, 2440))),
    ("Q17", w(9, (20, 44), (139, 96), (139, 96))),
    ("Q18", w(128, (148, 1152), (266, 7040), (148, 1152))),
    ("Q19", w(54, (295, 1312), (295, 1312), (295, 1312))),
    ("cs1", w(348, (1854, 34080), (1202, 40076), (1854, 30300))),
    ("cs2", w(45, (587, 483), (1207, 6599), (573, 375))),
    ("cs3", w(567, (823, 7020), (1646, 14040), (823, 7020))),
];
#[rustfmt::skip]
const PINNED_512: [(&str, Work); 22] = [
    ("Q1", w(51, (264, 2041), (813, 32385), (264, 2041))),
    ("Q2", w(3, (60, 263), (60, 493), (60, 263))),
    ("Q3", w(3, (60, 493), (60, 493), (60, 493))),
    ("Q4", w(33, (526, 1620), (526, 1620), (526, 1620))),
    ("Q5", w(31, (1298, 1056), (11374, 362912), (1298, 1056))),
    ("Q6", w(51, (264, 1696), (813, 32385), (264, 1696))),
    ("Q7", w(51, (51, 724), (51, 724), (51, 724))),
    ("Q8", w(10, (1303, 528), (14875, 505840), (1303, 528))),
    ("Q9", w(8187, (6646, 303428), (11956, 662492), (6646, 303428))),
    ("Q10", w(76, (152, 2092), (676, 2092), (152, 2092))),
    ("Q11", w(870, (1382, 11408), (1470, 36400), (1382, 11408))),
    ("Q12", w(3, (54, 223), (54, 223), (54, 223))),
    ("Q13", w(499, (4199, 20612), (10317, 392536), (4199, 20612))),
    ("Q14", w(39, (1328, 1484), (12337, 409460), (1328, 1484))),
    ("Q15", w(25, (381, 2859), (4390, 151195), (381, 2859))),
    ("Q16", w(2444, (2444, 20176), (2444, 20176), (2444, 20176))),
    ("Q17", w(59, (127, 244), (1092, 532), (1092, 532))),
    ("Q18", w(1024, (1102, 8776), (2087, 55880), (1102, 8776))),
    ("Q19", w(389, (2444, 9448), (2444, 9448), (2444, 9448))),
    ("cs1", w(2887, (15027, 259228), (9274, 326396), (15027, 245308))),
    ("cs2", w(391, (4452, 2944), (9703, 49776), (4338, 2416))),
    ("cs3", w(4583, (6631, 56724), (13262, 113448), (6631, 56724))),
];
#[rustfmt::skip]
const PINNED_4000: [(&str, Work); 22] = [
    ("Q1", w(400, (2045, 14968), (6345, 255592), (2045, 14968))),
    ("Q2", w(7, (426, 1312), (445, 2220), (426, 1312))),
    ("Q3", w(20, (445, 2480), (445, 2480), (445, 2480))),
    ("Q4", w(260, (4107, 12632), (4107, 12632), (4107, 12632))),
    ("Q5", w(303, (10370, 10016), (89135, 2879936), (10370, 10016))),
    ("Q6", w(120, (626, 3968), (6345, 246312), (626, 3968))),
    ("Q7", w(400, (400, 5464), (400, 5464), (400, 5464))),
    ("Q8", w(86, (10187, 3960), (116736, 4020472), (10187, 3960))),
    ("Q9", w(337135, (51374, 11357196), (94312, 14213924), (51374, 11357196))),
    ("Q10", w(600, (1200, 8572), (5300, 8572), (1200, 8572))),
    ("Q11", w(6800, (10800, 89120), (11500, 287360), (10800, 89120))),
    ("Q12", w(20, (420, 1396), (420, 1396), (420, 1396))),
    ("Q13", w(4053, (33356, 167252), (81160, 3123064), (33356, 167252))),
    ("Q14", w(365, (10624, 13584), (96763, 3251172), (10624, 13584))),
    ("Q15", w(172, (3114, 20400), (34476, 1199360), (3114, 20400))),
    ("Q16", w(19580, (19580, 161536), (19580, 161536), (19580, 161536))),
    ("Q17", w(428, (895, 1768), (8467, 3700), (8467, 3700))),
    ("Q18", w(8000, (8596, 68464), (16298, 442176), (8596, 68464))),
    ("Q19", w(2814, (19580, 68240), (19580, 68240), (19580, 68240))),
    ("cs1", w(17608, (120411, 1672116), (72956, 2395688), (120411, 1622020))),
    ("cs2", w(2612, (36188, 12800), (75770, 389360), (35311, 12132))),
    ("cs3", w(35770, (51770, 442656), (103540, 885312), (51770, 442656))),
];
