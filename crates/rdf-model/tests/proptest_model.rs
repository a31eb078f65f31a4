//! Property-based tests for the RDF model: N-Triples round trips with
//! arbitrary terms, index consistency of the triple store, and the term
//! dictionary against a map model.

use std::collections::HashMap;

use proptest::prelude::*;
use rdf_model::vocab::xsd;
use rdf_model::{ntriples, Dataset, Graph, Interner, Literal, Term, TermId, Triple};

fn iri_strategy() -> impl Strategy<Value = Term> {
    "[a-z]{1,8}".prop_map(|s| Term::iri(format!("http://example.org/{s}")))
}

fn literal_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        // Plain strings incl. characters needing escapes.
        "[ -~]{0,12}".prop_map(Term::string),
        any::<i64>().prop_map(Term::integer),
        any::<bool>().prop_map(|b| Term::from(Literal::boolean(b))),
        ("[a-z]{1,6}", "[a-z]{2}").prop_map(|(s, l)| Term::from(Literal::lang_string(s, l))),
        // Unicode content.
        "\\PC{0,8}".prop_map(Term::string),
    ]
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        iri_strategy(),
        literal_strategy(),
        "[A-Za-z0-9]{1,6}".prop_map(Term::blank),
    ]
}

fn triple_strategy() -> impl Strategy<Value = Triple> {
    (
        prop_oneof![iri_strategy(), "[A-Za-z0-9]{1,6}".prop_map(Term::blank)],
        iri_strategy(),
        term_strategy(),
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

const G: &str = "http://g";

/// A dataset holding one graph `G` built from `triples` the two ways a
/// graph can be built: the first `installed` of them in one install (none:
/// the graph is installed empty), the rest appended in batches of `batch`.
/// Returns the dataset and each append's count of new triples.
fn build(triples: &[Triple], installed: usize, batch: usize) -> (Dataset, Vec<usize>) {
    let (first, rest) = triples.split_at(installed.min(triples.len()));
    let mut builder = Graph::new();
    for t in first {
        builder.insert(t);
    }
    let mut ds = Dataset::new();
    ds.insert_graph(G, builder);
    let added = rest
        .chunks(batch.max(1))
        .map(|chunk| ds.append_triples(G, chunk.to_vec()).unwrap())
        .collect();
    (ds, added)
}

/// A triple over a small vocabulary (ten nodes, three predicates), so
/// patterns share keys and probes land inside, between and beyond ranges.
fn dense_triple_strategy() -> impl Strategy<Value = Triple> {
    (0u32..10, 0u32..3, 0u32..10).prop_map(|(s, p, o)| {
        Triple::new(
            Term::iri(format!("http://e/{s}")),
            Term::iri(format!("http://e/p{p}")),
            Term::iri(format!("http://e/{o}")),
        )
    })
}

/// A run of probes sharing one bound-ness shape: probe `i` moves position
/// `vary` of `base` by `i × step` in direction `dir` (0 = repeat, 1 = up,
/// 2 = down), and suspends every `stride` matches (0 = never).
#[derive(Debug, Clone)]
struct ProbeRun {
    mask: u8,
    base: [u32; 3],
    vary: usize,
    dir: u8,
    step: u32,
    len: usize,
    strides: Vec<usize>,
}

/// A probe's bound id: 0..=15 covers every id of the dense vocabulary and a
/// few past its high end; `u32::MAX` sits past the end of every ordering
/// (resuming after it overflows the key space).
fn probe_value() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..16, 0u32..16, 0u32..16, Just(u32::MAX)]
}

fn probe_run_strategy() -> impl Strategy<Value = ProbeRun> {
    (
        0u8..8,
        (probe_value(), probe_value(), probe_value()),
        0usize..3,
        0u8..3,
        (1u32..4, 1usize..9),
        proptest::collection::vec(0usize..4, 8),
    )
        .prop_map(
            |(mask, (a, b, c), vary, dir, (step, len), strides)| ProbeRun {
                mask,
                base: [a, b, c],
                vary,
                dir,
                step,
                len,
                strides,
            },
        )
}

/// Term `n` of a universe whose neighbours are the pairs a dictionary must
/// keep apart: the same text as an IRI, a blank node, a plain literal and a
/// language-tagged one (`"x"` and `"x"@en`), and the same integer as
/// `xsd:integer` with and without a leading zero (`"1"` and `"01"`, equal
/// in value, distinct as terms).
fn universe_term(n: u32) -> Term {
    let k = n / 6;
    match n % 6 {
        0 => Term::iri(format!("http://x/{k}")),
        1 => Term::blank(format!("{k}")),
        2 => Term::string(format!("{k}")),
        3 => Term::from(Literal::lang_string(format!("{k}"), "en")),
        4 => Term::from(Literal::typed(format!("{k}"), xsd::INTEGER)),
        _ => Term::from(Literal::typed(format!("0{k}"), xsd::INTEGER)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Random `intern` / `get` / `resolve` sequences against a
    /// `HashMap<Term, u32>` plus the terms in first-seen order. The id table
    /// starts at 8 slots and doubles before it is 3/4 full (at 7, 13, 25 and
    /// 49 terms), so a case that reaches 25 distinct terms has grown it at
    /// least three times, each growth a rehash from the term table.
    #[test]
    fn interner_matches_a_map_model_through_table_growths(
        ops in proptest::collection::vec((0u8..4, 0u32..600), 150..400),
        dup in any::<u32>(),
    ) {
        let mut interner = Interner::new();
        let mut model: HashMap<Term, u32> = HashMap::new();
        let mut order: Vec<Term> = Vec::new();
        for (op, n) in ops {
            let term = universe_term(n);
            match op {
                // Interning is half the ops, so the dictionary grows.
                0 | 1 => {
                    let want = *model.entry(term.clone()).or_insert_with(|| {
                        order.push(term.clone());
                        order.len() as u32 - 1
                    });
                    prop_assert_eq!(interner.intern(term), TermId(want));
                }
                2 => prop_assert_eq!(interner.get(&term), model.get(&term).map(|&id| TermId(id))),
                _ => {
                    if !order.is_empty() {
                        let id = n as usize % order.len();
                        prop_assert_eq!(interner.resolve(TermId(id as u32)), &order[id]);
                    }
                }
            }
            prop_assert_eq!(interner.len(), order.len());
        }
        prop_assert!(order.len() >= 25, "only {} distinct terms", order.len());
        // Dense ids, in first-seen order.
        prop_assert!(interner.iter().map(|(id, t)| (id.0, t.clone())).eq(
            order.iter().cloned().enumerate().map(|(i, t)| (i as u32, t))
        ));

        // Equal in value is not equal as a term.
        let mut more = interner.clone();
        let one = more.intern(Term::integer(1));
        prop_assert_ne!(one, more.intern(Term::from(Literal::typed("01", xsd::INTEGER))));
        let plain = more.intern(Term::string("x"));
        prop_assert_ne!(plain, more.intern(Term::from(Literal::lang_string("x", "en"))));
        prop_assert_eq!(more.intern(Term::integer(1)), one);

        // A persisted term table rebuilds the same ids; one with a
        // duplicate is refused.
        let rebuilt = Interner::from_terms(order.clone()).expect("distinct terms");
        prop_assert_eq!(rebuilt.len(), order.len());
        for (i, t) in order.iter().enumerate() {
            prop_assert_eq!(rebuilt.get(t), Some(TermId(i as u32)));
        }
        let mut twice = order.clone();
        let copy = order[dup as usize % order.len()].clone();
        twice.insert((dup / 7) as usize % (order.len() + 1), copy);
        prop_assert!(Interner::from_terms(twice).is_none());
    }

    #[test]
    fn seeking_scans_match_fresh_scans_and_the_model(
        triples in proptest::collection::vec(dense_triple_strategy(), 0..48),
        // Installed whole, installed empty and appended, or in between.
        installed in prop_oneof![Just(0usize), Just(64usize), 0usize..48],
        batch in 1usize..8,
        runs in proptest::collection::vec(probe_run_strategy(), 1..12),
    ) {
        // One hint serves a whole sequence of probes — ascending runs,
        // repeats, descents, keys past both ends, all eight shapes, and
        // suspend/resume chains — over graphs installed whole, built by
        // appends, or both. Each call must equal the same call with a fresh
        // hint (matches, order, visited, stop point), each chain must
        // concatenate to one uninterrupted `for_each_match`, and that pass
        // must equal the model's matches sorted in the shape's scan order.
        use rdf_model::{SeekHint, TermId, TripleIndex};
        let (ds, _) = build(&triples, installed, batch);
        let g = ds.graph(G).unwrap();
        let id = |t: &Term| ds.lookup(t).unwrap();
        let mut model: Vec<_> = triples
            .iter()
            .map(|t| (id(&t.subject), id(&t.predicate), id(&t.object)))
            .collect();
        model.sort();
        model.dedup();
        let mut hint = SeekHint::default();
        for run in &runs {
            for i in 0..run.len {
                let mut vals = run.base;
                let moved = (i as u32).saturating_mul(run.step);
                vals[run.vary] = match run.dir {
                    0 => vals[run.vary],
                    1 => vals[run.vary].saturating_add(moved),
                    _ => vals[run.vary].saturating_sub(moved),
                };
                let [s, p, o] = [4u8, 2, 1].map(|bit| run.mask & bit != 0);
                let (qs, qp, qo) = (
                    s.then_some(TermId(vals[0])),
                    p.then_some(TermId(vals[1])),
                    o.then_some(TermId(vals[2])),
                );

                let mut expect: Vec<_> = model
                    .iter()
                    .filter(|&&(ms, mp, mo)| {
                        qs.is_none_or(|v| v == ms)
                            && qp.is_none_or(|v| v == mp)
                            && qo.is_none_or(|v| v == mo)
                    })
                    .copied()
                    .collect();
                let order = TripleIndex::scan_free_order(s, p, o);
                expect.sort_by_key(|&(ms, mp, mo)| {
                    order.iter().map(|&k| [ms, mp, mo][k]).collect::<Vec<_>>()
                });
                let mut fresh = Vec::new();
                let fresh_n = g.for_each_match(qs, qp, qo, |a, b, c| fresh.push((a, b, c)));
                prop_assert_eq!(&fresh, &expect, "vs model, run {:?} probe {}", run, i);
                prop_assert_eq!(fresh_n as usize, fresh.len());

                let stride = run.strides[i % run.strides.len()];
                let visit = |seen: &mut Vec<_>, left: &mut usize, a, b, c| {
                    seen.push((a, b, c));
                    *left = left.saturating_sub(1);
                    stride == 0 || *left > 0
                };
                let (mut chained, mut total, mut pos) = (Vec::new(), 0u64, None);
                loop {
                    let (mut seen, mut left) = (Vec::new(), stride);
                    let (n, next) = g.for_each_match_from(qs, qp, qo, pos, &mut hint, |a, b, c| {
                        visit(&mut seen, &mut left, a, b, c)
                    });
                    let (mut seen_fresh, mut left) = (Vec::new(), stride);
                    let fresh_hint = &mut SeekHint::default();
                    let (n_fresh, next_fresh) =
                        g.for_each_match_from(qs, qp, qo, pos, fresh_hint, |a, b, c| {
                            visit(&mut seen_fresh, &mut left, a, b, c)
                        });
                    prop_assert_eq!(
                        (&seen, n, next),
                        (&seen_fresh, n_fresh, next_fresh),
                        "hinted vs fresh call, run {:?} probe {}", run, i
                    );
                    chained.extend(seen);
                    total += n;
                    match next {
                        Some(_) => pos = next,
                        None => break,
                    }
                }
                prop_assert_eq!(&chained, &fresh, "suspended chain, run {:?} probe {}", run, i);
                prop_assert_eq!(total, fresh_n, "chain visited, run {:?} probe {}", run, i);
            }
        }
    }

    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(triple_strategy(), 0..20)) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert(t);
        }
        let doc = ntriples::write_document(g.iter_triples());
        let back = ntriples::parse_into_graph(&doc).expect("reparses");
        prop_assert_eq!(g.len(), back.len());
        let a: Vec<Triple> = g.iter_triples().collect();
        let b: Vec<Triple> = back.iter_triples().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn indexes_agree_on_every_access_path(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        installed in 0usize..25,
    ) {
        let (ds, _) = build(&triples, installed, 3);
        let g = ds.graph(G).unwrap();
        // For every stored triple, all bound/unbound pattern combinations
        // must find it.
        for (s, p, o) in g.iter_ids() {
            for mask in 0..8u8 {
                let qs = (mask & 4 != 0).then_some(s);
                let qp = (mask & 2 != 0).then_some(p);
                let qo = (mask & 1 != 0).then_some(o);
                let found = g
                    .match_pattern(qs, qp, qo)
                    .any(|(ms, mp, mo)| ms == s && mp == p && mo == o);
                prop_assert!(found, "mask {mask:#05b} misses triple");
            }
        }
    }

    #[test]
    fn pattern_counts_are_consistent(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        installed in 0usize..25,
    ) {
        let (ds, _) = build(&triples, installed, 3);
        let g = ds.graph(G).unwrap();
        // Sum of per-predicate counts equals total.
        let total: usize = g
            .predicates()
            .map(|p| g.count_pattern(None, Some(p), None))
            .sum();
        prop_assert_eq!(total, g.len());
        // Stats agree with exact counts per predicate.
        let stats = g.stats();
        for p in g.predicates() {
            let exact = g.count_pattern(None, Some(p), None);
            prop_assert_eq!(stats.predicates[&p].count, exact);
        }
    }

    #[test]
    fn append_batches_build_the_slabs_one_install_builds(
        triples in proptest::collection::vec(triple_strategy(), 0..40),
        // Repeats, so batches meet triples already in the graph or earlier
        // in the same batch.
        repeats in proptest::collection::vec(0usize..40, 0..8),
        installed in prop_oneof![Just(0usize), 0usize..12],
        batch in 1usize..9,
    ) {
        // However a triple list is split into append batches, on a graph
        // installed empty or part-filled, the three slabs are those one
        // install of the whole list builds over the same ids, and the
        // appends report exactly the distinct triples they added.
        let mut triples = triples;
        for &r in &repeats {
            if let Some(t) = triples.get(r).cloned() {
                triples.push(t);
            }
        }
        let (mut ds, added) = build(&triples, installed, batch);
        let distinct = |ts: &[Triple]| {
            let mut keys: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        };
        let first = installed.min(triples.len());
        prop_assert_eq!(
            added.iter().sum::<usize>(),
            distinct(&triples) - distinct(&triples[..first]),
            "append counts"
        );
        prop_assert_eq!(ds.graph(G).unwrap().len(), distinct(&triples));

        // Every term is interned already, so the install re-keys the
        // builder onto the very ids the appends used.
        let mut whole = Graph::new();
        for t in &triples {
            whole.insert(t);
        }
        let terms = ds.interner().len();
        ds.insert_graph("http://whole", whole);
        prop_assert_eq!(ds.interner().len(), terms, "the install interned a new term");
        prop_assert_eq!(ds.graph(G), ds.graph("http://whole"), "the three slabs differ");
    }

    #[test]
    fn dataset_graphs_match_the_model_sorted_by_dataset_id_with_terms_stored_once(
        initial_a in proptest::collection::vec(triple_strategy(), 1..10),
        initial_b in proptest::collection::vec(triple_strategy(), 1..10),
        batches in proptest::collection::vec(
            proptest::collection::vec(triple_strategy(), 1..5), 0..6),
        targets in proptest::collection::vec(any::<bool>(), 6),
        // Per graph: how many of its initial triples the installed builder
        // holds; the rest are appended right after the install (0: installed
        // empty, ≥ 10: installed whole).
        splits in proptest::collection::vec(0usize..12, 2),
    ) {
        // Two graphs drawn from one small vocabulary, so they overlap: the
        // second builder's id order disagrees with the ids the dataset gave
        // the shared terms, and appends to either graph pull in ids the
        // other one introduced. After every step each graph must (1) hold
        // exactly the model's triples, (2) have all three orderings strictly
        // ascending in *dataset* id, and the
        // dataset must (3) have interned every term exactly once.
        let mut ds = rdf_model::Dataset::new();
        let uris = ["http://a", "http://b"];
        let mut model: [Vec<Triple>; 2] = [Vec::new(), Vec::new()];
        let check = |ds: &rdf_model::Dataset, model: &[Vec<Triple>; 2]| -> Result<(), String> {
            let mut terms: Vec<&Term> = Vec::new();
            for (g, uri) in uris.iter().enumerate() {
                let Some(index) = ds.graph(uri) else { continue };
                let mut expect: Vec<String> = model[g].iter().map(|t| t.to_string()).collect();
                expect.sort();
                expect.dedup();
                let mut got: Vec<String> =
                    ds.graph_triples(uri).unwrap().map(|t| t.to_string()).collect();
                got.sort();
                if got != expect {
                    return Err(format!("{uri}: contents diverge from the model"));
                }
                // Scans per access path: ascending in the scanned index's
                // own key order.
                let spo: Vec<_> = index.match_pattern(None, None, None).collect();
                if !spo.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("{uri}: full scan not in dataset-id order"));
                }
                for &(s, p, o) in &spo {
                    let by_p: Vec<_> = index
                        .match_pattern(None, Some(p), None)
                        .map(|(s, _, o)| (o, s))
                        .collect();
                    let by_o: Vec<_> = index
                        .match_pattern(None, None, Some(o))
                        .map(|(s, p, _)| (s, p))
                        .collect();
                    if !by_p.windows(2).all(|w| w[0] < w[1])
                        || !by_o.windows(2).all(|w| w[0] < w[1])
                        || !by_p.contains(&(o, s))
                        || !by_o.contains(&(s, p))
                    {
                        return Err(format!("{uri}: POS/OSP scan out of dataset-id order"));
                    }
                }
                for t in &model[g] {
                    terms.extend([&t.subject, &t.predicate, &t.object]);
                }
            }
            // Every term once: the interner holds exactly the distinct
            // terms ever inserted, each resolving back to itself.
            terms.sort_by_key(|t| t.to_string());
            terms.dedup();
            if ds.interner().len() != terms.len() {
                return Err(format!(
                    "interner holds {} terms, the graphs mention {}",
                    ds.interner().len(),
                    terms.len()
                ));
            }
            for t in terms {
                match ds.lookup(t) {
                    Some(id) if ds.resolve(id) == t => {}
                    other => return Err(format!("{t} resolves to {other:?}")),
                }
            }
            Ok(())
        };
        for (g, initial) in [&initial_a, &initial_b].into_iter().enumerate() {
            let (first, appended) = initial.split_at(splits[g].min(initial.len()));
            let mut builder = Graph::new();
            for t in first {
                builder.insert(t);
            }
            let installed = builder.len();
            ds.insert_graph(uris[g], builder);
            let added = ds.append_triples(uris[g], appended.to_vec()).unwrap();
            prop_assert_eq!(ds.graph(uris[g]).unwrap().len(), installed + added);
            model[g].extend(initial.iter().cloned());
            if let Err(e) = check(&ds, &model) {
                prop_assert!(false, "after inserting {}: {}", uris[g], e);
            }
        }
        for (i, batch) in batches.iter().enumerate() {
            let g = usize::from(!targets[i]);
            ds.append_triples(uris[g], batch.clone()).unwrap();
            model[g].extend(batch.iter().cloned());
            if let Err(e) = check(&ds, &model) {
                prop_assert!(false, "after append {} to {}: {}", i, uris[g], e);
            }
        }
    }

    #[test]
    fn term_display_parse_roundtrip(term in term_strategy()) {
        // Round-trip any term through an N-Triples line as the object.
        let t = Triple::new(
            Term::iri("http://example.org/s"),
            Term::iri("http://example.org/p"),
            term,
        );
        let line = format!("{t}\n");
        let parsed = ntriples::parse_document(&line).expect("parses");
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0], &t);
    }
}
