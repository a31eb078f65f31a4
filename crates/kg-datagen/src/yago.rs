//! YAGO-like synthetic graph: overlaps with the DBpedia-like graph on a
//! subset of actor URIs (RDF's global identifiers make cross-graph joins
//! work by construction — the property-graph comparison in the paper's
//! Section 2). Used by the Q4/Q11 cross-graph queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::vocab::rdf;
use rdf_model::{Graph, Term, Triple};

use crate::vocab::{dbp, yago};

/// Configuration for the YAGO-like generator.
#[derive(Debug, Clone)]
pub struct YagoConfig {
    /// Number of DBpedia actors that also appear in YAGO (by URI).
    pub shared_actors: usize,
    /// Total DBpedia actor population (shared actors are drawn from
    /// `0..dbpedia_actors`).
    pub dbpedia_actors: usize,
    /// YAGO-only actors.
    pub native_actors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YagoConfig {
    fn default() -> Self {
        YagoConfig {
            shared_actors: 2_000,
            dbpedia_actors: 10_000,
            native_actors: 5_000,
            seed: 11,
        }
    }
}

impl YagoConfig {
    /// Config matched to a DBpedia config of the given scale.
    pub fn for_dbpedia_scale(scale: usize) -> Self {
        YagoConfig {
            shared_actors: scale / 5,
            dbpedia_actors: scale,
            native_actors: scale / 2,
            ..Default::default()
        }
    }
}

/// Generate the YAGO-like graph.
pub fn generate_yago(config: &YagoConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();
    let type_p = Term::iri(rdf::TYPE);
    let actor_class = Term::iri(format!("{}Actor", yago::RES));
    let acted_in = Term::iri(format!("{}actedIn", yago::RES));
    let citizen_of = Term::iri(format!("{}isCitizenOf", yago::RES));
    let usa = Term::iri(format!("{}United_States", yago::RES));

    // Shared actors: same URIs as the DBpedia graph's actors.
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < config.shared_actors.min(config.dbpedia_actors) {
        chosen.insert(rng.gen_range(0..config.dbpedia_actors));
    }
    for a in chosen {
        let actor = Term::iri(format!("{}Actor_{a}", dbp::RES));
        g.insert(&Triple::new(
            actor.clone(),
            type_p.clone(),
            actor_class.clone(),
        ));
        let n = rng.gen_range(1..=3);
        for _ in 0..n {
            let m = rng.gen_range(0..config.dbpedia_actors * 2);
            g.insert(&Triple::new(
                actor.clone(),
                acted_in.clone(),
                Term::iri(format!("{}Movie_{m}", yago::RES)),
            ));
        }
        if rng.gen_bool(0.3) {
            g.insert(&Triple::new(actor, citizen_of.clone(), usa.clone()));
        }
    }
    // Native YAGO actors (no DBpedia counterpart).
    for a in 0..config.native_actors {
        let actor = Term::iri(format!("{}YActor_{a}", yago::RES));
        g.insert(&Triple::new(
            actor.clone(),
            type_p.clone(),
            actor_class.clone(),
        ));
        if rng.gen_bool(0.3) {
            g.insert(&Triple::new(actor, citizen_of.clone(), usa.clone()));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_uris_match_dbpedia_namespace() {
        let (g, ds) = crate::installed(generate_yago(&YagoConfig {
            shared_actors: 50,
            dbpedia_actors: 100,
            native_actors: 20,
            seed: 1,
        }));
        let actor_class = Term::iri(format!("{}Actor", yago::RES));
        let class_id = ds.lookup(&actor_class).unwrap();
        let typed = g.count_pattern(None, None, Some(class_id));
        assert_eq!(typed, 70); // 50 shared + 20 native
                               // At least one shared actor keeps its DBpedia URI.
        let shared = ds
            .graph_triples("http://test")
            .unwrap()
            .filter(|t| t.subject.str_value().starts_with(dbp::RES))
            .count();
        assert!(shared > 0);
    }

    #[test]
    fn deterministic() {
        let a = generate_yago(&YagoConfig::default());
        let b = generate_yago(&YagoConfig::default());
        assert_eq!(a.len(), b.len());
    }
}
