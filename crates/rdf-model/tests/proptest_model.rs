//! Property-based tests for the RDF model: N-Triples round trips with
//! arbitrary terms, and index consistency of the triple store.

use proptest::prelude::*;
use rdf_model::{ntriples, Graph, Literal, Term, Triple};

fn iri_strategy() -> impl Strategy<Value = Term> {
    "[a-z]{1,8}".prop_map(|s| Term::iri(format!("http://example.org/{s}")))
}

fn literal_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        // Plain strings incl. characters needing escapes.
        "[ -~]{0,12}".prop_map(Term::string),
        any::<i64>().prop_map(Term::integer),
        any::<bool>().prop_map(|b| Term::Literal(Literal::boolean(b))),
        ("[a-z]{1,6}", "[a-z]{2}").prop_map(|(s, l)| Term::Literal(Literal::lang_string(s, l))),
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

/// One step of the slab/delta storage model exercise.
#[derive(Debug, Clone)]
enum StorageOp {
    Insert(Triple),
    Compact,
}

fn storage_op_strategy() -> impl Strategy<Value = StorageOp> {
    // Unweighted arms (the offline proptest shim has no weight syntax):
    // repeat the insert arm to keep compactions the rarer op.
    prop_oneof![
        triple_strategy().prop_map(StorageOp::Insert),
        triple_strategy().prop_map(StorageOp::Insert),
        triple_strategy().prop_map(StorageOp::Insert),
        triple_strategy().prop_map(StorageOp::Insert),
        Just(StorageOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

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
        triples in proptest::collection::vec(triple_strategy(), 1..25)
    ) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert(t);
        }
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
        triples in proptest::collection::vec(triple_strategy(), 1..25)
    ) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert(t);
        }
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
    fn interleaved_inserts_and_compactions_match_naive_model(
        ops in proptest::collection::vec(storage_op_strategy(), 1..60),
        // Tiny auto-compaction threshold so slab merges happen mid-stream
        // even without explicit Compact ops.
        threshold in 2usize..6,
    ) {
        // Model: a plain Vec of id triples, deduplicated, sorted on demand.
        let mut g = Graph::with_delta_threshold(threshold);
        let mut model: Vec<(rdf_model::TermId, rdf_model::TermId, rdf_model::TermId)> = Vec::new();
        for op in &ops {
            match op {
                StorageOp::Insert(t) => {
                    let inserted = g.insert(t);
                    let ids = (
                        g.term_id(&t.subject).unwrap(),
                        g.term_id(&t.predicate).unwrap(),
                        g.term_id(&t.object).unwrap(),
                    );
                    prop_assert_eq!(inserted, !model.contains(&ids));
                    if inserted {
                        model.push(ids);
                    }
                }
                StorageOp::Compact => g.compact(),
            }

            // After every step the store must agree with the naive model on
            // every access-path shape for a sample of bound values.
            prop_assert_eq!(g.len(), model.len());
            let mut sorted = model.clone();
            sorted.sort();
            let scanned: Vec<_> = g.iter_ids().collect();
            prop_assert_eq!(&scanned, &sorted, "full scan must be sorted SPO");
            if let Some(&(s, p, o)) = model.last() {
                for mask in 0..8u8 {
                    let qs = (mask & 4 != 0).then_some(s);
                    let qp = (mask & 2 != 0).then_some(p);
                    let qo = (mask & 1 != 0).then_some(o);
                    let mut expect: Vec<_> = model
                        .iter()
                        .filter(|(ms, mp, mo)| {
                            qs.is_none_or(|v| v == *ms)
                                && qp.is_none_or(|v| v == *mp)
                                && qo.is_none_or(|v| v == *mo)
                        })
                        .copied()
                        .collect();
                    expect.sort();
                    let mut got: Vec<_> = g.match_pattern(qs, qp, qo).collect();
                    let mut via_visit = Vec::new();
                    let n = g.for_each_match(qs, qp, qo, |a, b, c| via_visit.push((a, b, c)));
                    prop_assert_eq!(&got, &via_visit, "iterator and visitor disagree");
                    prop_assert_eq!(n as usize, via_visit.len());
                    prop_assert_eq!(g.count_pattern(qs, qp, qo), expect.len());
                    got.sort();
                    prop_assert_eq!(got, expect, "mask {:#05b}", mask);
                }
            }
        }

        // Final compaction drains the delta without changing contents.
        let before: Vec<_> = g.iter_ids().collect();
        g.compact();
        prop_assert_eq!(g.delta_len(), 0);
        let after: Vec<_> = g.iter_ids().collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn dataset_graphs_match_the_model_sorted_by_dataset_id_with_terms_stored_once(
        initial_a in proptest::collection::vec(triple_strategy(), 1..10),
        initial_b in proptest::collection::vec(triple_strategy(), 1..10),
        batches in proptest::collection::vec(
            proptest::collection::vec(triple_strategy(), 1..5), 0..6),
        targets in proptest::collection::vec(any::<bool>(), 6),
        // Per graph: builder threshold (small ones leave part of the
        // builder in its slabs) and whether the insert compacts.
        thresholds in proptest::collection::vec(1usize..8, 2),
        compacted in proptest::collection::vec(any::<bool>(), 2),
    ) {
        // Two graphs drawn from one small vocabulary, so they overlap: the
        // second builder's id order disagrees with the ids the dataset gave
        // the shared terms, and appends to either graph pull in ids the
        // other one introduced. After every step each graph must (1) hold
        // exactly the model's triples, (2) have all three orderings — slab
        // and merged scan — strictly ascending in *dataset* id, and the
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
                for (name, slab) in [
                    ("spo", index.spo_slab()),
                    ("pos", index.pos_slab()),
                    ("osp", index.osp_slab()),
                ] {
                    if !slab.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!("{uri}: {name} slab not strictly ascending"));
                    }
                    if slab.len() + index.delta_len() != index.len() {
                        return Err(format!("{uri}: {name} slab + delta != len"));
                    }
                }
                // Merged scans per access path: ascending in the scanned
                // index's own key order.
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
            let mut builder = Graph::with_delta_threshold(thresholds[g]);
            for t in initial {
                builder.insert(t);
            }
            model[g].extend(initial.iter().cloned());
            if compacted[g] {
                ds.insert_graph(uris[g], builder);
                prop_assert_eq!(ds.graph(uris[g]).unwrap().delta_len(), 0);
            } else {
                let split = (builder.len(), builder.delta_len());
                ds.insert_graph_uncompacted(uris[g], builder);
                let inside = ds.graph(uris[g]).unwrap();
                prop_assert_eq!((inside.len(), inside.delta_len()), split);
            }
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
