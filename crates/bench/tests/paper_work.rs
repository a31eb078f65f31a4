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
         pair; the naive plan reads each pattern's extent once (ROADMAP item 5)",
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
    ("Q1", w(10, (57, 1789), (131, 5399), (57, 1789))),
    ("Q2", w(1, (14, 407), (17, 517), (14, 407))),
    ("Q3", w(3, (17, 557), (17, 557), (17, 557))),
    ("Q4", w(3, (66, 228), (66, 228), (66, 228))),
    ("Q5", w(7, (188, 2368), (1451, 47488), (188, 2368))),
    ("Q6", w(3, (19, 1216), (131, 5175), (19, 1216))),
    ("Q7", w(10, (10, 232), (10, 232), (10, 232))),
    ("Q8", w(0, (177, 2552), (1911, 65760), (177, 2552))),
    ("Q9", w(533, (2582, 63432), (1516, 69980), (894, 30892))),
    ("Q10", w(15, (30, 842), (99, 842), (30, 842))),
    ("Q11", w(108, (172, 1976), (192, 4740), (172, 1976))),
    ("Q12", w(3, (13, 271), (13, 271), (13, 271))),
    ("Q13", w(78, (582, 15584), (1320, 51492), (582, 15584))),
    ("Q14", w(9, (197, 1704), (1586, 53636), (197, 1704))),
    ("Q15", w(5, (159, 3687), (637, 20607), (159, 3687))),
    ("Q16", w(295, (295, 2464), (295, 2464), (295, 2464))),
    ("Q17", w(9, (20, 108), (139, 120), (139, 120))),
    ("Q18", w(128, (148, 1284), (266, 7088), (148, 1284))),
    ("Q19", w(54, (295, 1336), (295, 1336), (295, 1336))),
    ("cs1", w(348, (1854, 34080), (1202, 40076), (1854, 30300))),
    ("cs2", w(45, (587, 5763), (1207, 6671), (573, 5123))),
    ("cs3", w(567, (823, 7056), (1646, 14112), (823, 7056))),
];
#[rustfmt::skip]
const PINNED_512: [(&str, Work); 22] = [
    ("Q1", w(51, (264, 6413), (813, 32565), (264, 6413))),
    ("Q2", w(3, (60, 495), (60, 589), (60, 495))),
    ("Q3", w(3, (60, 589), (60, 589), (60, 589))),
    ("Q4", w(33, (526, 1644), (526, 1644), (526, 1644))),
    ("Q5", w(31, (1298, 11200), (11374, 363164), (1298, 11200))),
    ("Q6", w(51, (264, 9056), (813, 32565), (264, 9056))),
    ("Q7", w(51, (51, 724), (51, 724), (51, 724))),
    ("Q8", w(10, (1303, 15840), (14875, 506188), (1303, 15840))),
    ("Q9", w(8187, (6646, 365348), (11956, 662708), (6646, 365348))),
    ("Q10", w(76, (152, 2092), (676, 2092), (152, 2092))),
    ("Q11", w(870, (1382, 15656), (1470, 36436), (1382, 15656))),
    ("Q12", w(3, (54, 271), (54, 271), (54, 271))),
    ("Q13", w(499, (4199, 111808), (10317, 392764), (4199, 111808))),
    ("Q14", w(39, (1328, 8444), (12337, 409736), (1328, 8444))),
    ("Q15", w(25, (381, 8415), (4390, 151339), (381, 8415))),
    ("Q16", w(2444, (2444, 20200), (2444, 20200), (2444, 20200))),
    ("Q17", w(59, (127, 544), (1092, 556), (1092, 556))),
    ("Q18", w(1024, (1102, 9140), (2087, 55928), (1102, 9140))),
    ("Q19", w(389, (2444, 9472), (2444, 9472), (2444, 9472))),
    ("cs1", w(2887, (15027, 259228), (9274, 326396), (15027, 245308))),
    ("cs2", w(391, (4452, 40064), (9703, 49848), (4338, 35516))),
    ("cs3", w(4583, (6631, 56760), (13262, 113520), (6631, 56760))),
];
#[rustfmt::skip]
const PINNED_4000: [(&str, Work); 22] = [
    ("Q1", w(400, (2045, 48220), (6345, 255772), (2045, 48220))),
    ("Q2", w(7, (426, 1752), (445, 2316), (426, 1752))),
    ("Q3", w(20, (445, 2576), (445, 2576), (445, 2576))),
    ("Q4", w(260, (4107, 12656), (4107, 12656), (4107, 12656))),
    ("Q5", w(303, (10370, 90944), (89135, 2880188), (10370, 90944))),
    ("Q6", w(120, (626, 20960), (6345, 246492), (626, 20960))),
    ("Q7", w(400, (400, 5464), (400, 5464), (400, 5464))),
    ("Q8", w(86, (10187, 114972), (116736, 4020820), (10187, 114972))),
    ("Q9", w(337135, (51374, 11835308), (94312, 14214140), (51374, 11835308))),
    ("Q10", w(600, (1200, 8572), (5300, 8572), (1200, 8572))),
    ("Q11", w(6800, (10800, 122152), (11500, 287396), (10800, 122152))),
    ("Q12", w(20, (420, 1444), (420, 1444), (420, 1444))),
    ("Q13", w(4053, (33356, 886404), (81160, 3123292), (33356, 886404))),
    ("Q14", w(365, (10624, 68712), (96763, 3251448), (10624, 68712))),
    ("Q15", w(172, (3114, 65268), (34476, 1199504), (3114, 65268))),
    ("Q16", w(19580, (19580, 161560), (19580, 161560), (19580, 161560))),
    ("Q17", w(428, (895, 3712), (8467, 3724), (8467, 3724))),
    ("Q18", w(8000, (8596, 70964), (16298, 442224), (8596, 70964))),
    ("Q19", w(2814, (19580, 68264), (19580, 68264), (19580, 68264))),
    ("cs1", w(17608, (120411, 1672116), (72956, 2395688), (120411, 1622020))),
    ("cs2", w(2612, (36188, 319940), (75770, 389432), (35311, 288320))),
    ("cs3", w(35770, (51770, 442692), (103540, 885384), (51770, 442692))),
];
