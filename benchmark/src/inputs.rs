//! Inputs made from `--seed`: the three generated graphs and the
//! `serve_mixed` update stream. The same seed gives the same inputs.

use std::time::Instant;

use kg_datagen::{
    generate_dblp, generate_dbpedia, generate_yago, DblpConfig, DbpediaConfig, YagoConfig,
};
use rdf_model::{Dataset, Graph, Term, Triple};

use crate::frames::{DBLP, DBPEDIA, YAGO};

/// The scale every committed number in this repo uses.
pub const DEFAULT_SCALE: usize = 4000;

/// Triples per `serve_mixed` publish.
pub const UPDATE_TRIPLES: usize = 64;

/// The generated graphs, named, in insertion order.
pub struct Graphs {
    pub named: Vec<(&'static str, Graph)>,
    pub generate_s: f64,
}

/// Entity labels are drawn from `0..LABEL_SPACE`.
const LABEL_SPACE: u64 = 1 << 24;

/// What `--seed` does to a generated graph: every entity IRI `…_<n>` gets
/// the label `(n · multiplier + offset) mod 2^24` — a bijection, the
/// multiplier being odd.
///
/// The generators keep their default seeds on purpose. Their Zipf heads
/// decide how many actors are prolific, and reseeding them moved
/// `cs1_embedded` between 119 and 310 ms (10 seeds), more than any
/// regression bound could absorb. Relabelling instead changes what an
/// implementation could overfit to — which entity is which, every string's
/// hash, length and sort position, and with them the term ranks — and
/// keeps the degree distribution, so every seed has the row counts behind
/// the committed `BENCH_*.json` numbers (178 978 triples at scale 4000).
struct Relabel {
    multiplier: u64,
    offset: u64,
}

impl Relabel {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        Relabel {
            multiplier: rng.next() | 1,
            offset: rng.next(),
        }
    }

    fn term(&self, term: Term) -> Term {
        let Term::Iri(iri) = &term else { return term };
        let Some((stem, digits)) = iri.rsplit_once('_') else {
            return term;
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return term;
        }
        let n: u64 = digits.parse().expect("digits");
        assert!(n < LABEL_SPACE, "entity index {n} outside the label space");
        let label = n.wrapping_mul(self.multiplier).wrapping_add(self.offset) % LABEL_SPACE;
        Term::iri(format!("{stem}_{label}"))
    }

    fn graph(&self, generated: &Graph) -> Graph {
        let mut graph = Graph::new();
        for t in generated.iter_triples() {
            graph.insert(&Triple::new(
                self.term(t.subject),
                t.predicate,
                self.term(t.object),
            ));
        }
        graph
    }
}

/// Generate the three graphs at `scale` and relabel them by `seed`.
pub fn generate(scale: usize, seed: u64) -> Graphs {
    let start = Instant::now();
    let relabel = Relabel::new(seed);
    let named = vec![
        (
            DBPEDIA,
            relabel.graph(&generate_dbpedia(&DbpediaConfig::with_scale(scale))),
        ),
        (
            DBLP,
            relabel.graph(&generate_dblp(&DblpConfig::with_papers(scale * 2))),
        ),
        (
            YAGO,
            relabel.graph(&generate_yago(&YagoConfig::for_dbpedia_scale(scale))),
        ),
    ];
    Graphs {
        named,
        generate_s: start.elapsed().as_secs_f64(),
    }
}

/// Load generated graphs into a fresh dataset; returns it with the time
/// the three `insert_graph` calls took.
pub fn load(graphs: Graphs) -> (Dataset, f64) {
    let start = Instant::now();
    let mut dataset = Dataset::new();
    for (uri, graph) in graphs.named {
        dataset.insert_graph(uri, graph);
    }
    (dataset, start.elapsed().as_secs_f64())
}

/// splitmix64: the benchmark's own small generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Publish number `batch` of the update stream: 64 entity→entity triples
/// with fresh subjects (so each publish adds exactly 64 rows to cs3) and
/// seeded objects, under a predicate no other frame reads.
pub fn update_batch(seed: u64, batch: u64) -> Vec<Triple> {
    let mut rng = SplitMix::new(seed ^ batch.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let predicate = Term::iri("http://dblp.l3s.de/bench/linkedTo");
    (0..UPDATE_TRIPLES)
        .map(|i| {
            Triple::new(
                Term::iri(format!("http://dblp.l3s.de/bench/s{batch}_{i}")),
                predicate.clone(),
                Term::iri(format!("http://dblp.l3s.de/bench/o{}", rng.next() % 4096)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples(graphs: &Graphs) -> Vec<Vec<Triple>> {
        graphs
            .named
            .iter()
            .map(|(_, g)| g.iter_triples().collect())
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_inputs_and_another_seed_relabels_them() {
        let (a, again, b) = (generate(64, 1), generate(64, 1), generate(64, 2));
        assert_eq!(triples(&a), triples(&again));
        assert_ne!(triples(&a), triples(&b));
        // Same shape under another seed: relabelling is a bijection.
        let sizes = |g: &Graphs| g.named.iter().map(|(_, g)| g.len()).collect::<Vec<_>>();
        assert_eq!(sizes(&a), sizes(&b));
        // Vocabulary the frames name is left alone; entities are not.
        let relabel = Relabel::new(7);
        let class = Term::iri("http://dbpedia.org/resource/Film_score");
        assert_eq!(relabel.term(class.clone()), class);
        let entity = Term::iri("http://dbpedia.org/resource/Actor_12");
        assert_ne!(relabel.term(entity.clone()), entity);
        assert_eq!(relabel.term(Term::integer(12)), Term::integer(12));

        assert_eq!(update_batch(3, 5), update_batch(3, 5));
        assert_ne!(update_batch(3, 5), update_batch(4, 5));
        let mut subjects: Vec<Term> = (0..3)
            .flat_map(|b| update_batch(3, b))
            .map(|t| t.subject)
            .collect();
        subjects.sort_by_key(|t| t.to_string());
        subjects.dedup();
        assert_eq!(subjects.len(), 3 * UPDATE_TRIPLES, "every subject is fresh");
    }
}
