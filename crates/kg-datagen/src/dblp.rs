//! DBLP-like synthetic bibliography: dense, structured, with conference
//! series and publication years — the substrate for the paper's topic
//! modeling and knowledge-graph-embedding case studies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::vocab::{rdf, xsd};
use rdf_model::{Graph, Literal, Term, Triple};

use crate::names;
use crate::vocab::dblp;
use crate::zipf::Zipf;

/// Configuration for the DBLP-like generator.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of papers.
    pub papers: usize,
    /// Number of authors.
    pub authors: usize,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent for author productivity.
    pub skew: f64,
    /// Publication year range (inclusive).
    pub year_range: (i64, i64),
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            papers: 20_000,
            authors: 4_000,
            seed: 7,
            skew: 0.9,
            year_range: (1990, 2019),
        }
    }
}

impl DblpConfig {
    /// A small config for unit tests.
    pub fn tiny() -> Self {
        DblpConfig {
            papers: 600,
            authors: 120,
            ..Default::default()
        }
    }

    /// Scale both papers and authors by a factor of the default ratio.
    pub fn with_papers(papers: usize) -> Self {
        DblpConfig {
            papers,
            authors: (papers / 5).max(10),
            ..Default::default()
        }
    }
}

const CONFERENCES: &[&str] = &[
    "vldb", "sigmod", "icde", "edbt", "kdd", "www", "aaai", "nips", "icml", "acl",
];

/// Generate the DBLP-like graph.
pub fn generate_dblp(config: &DblpConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();

    let type_p = Term::iri(rdf::TYPE);
    let in_proceedings = Term::iri(format!("{}InProceedings", dblp::SWRC));
    let creator = Term::iri(format!("{}creator", dblp::DC));
    let issued = Term::iri(format!("{}issued", dblp::DCTERM));
    let series = Term::iri(format!("{}series", dblp::SWRC));
    let title_p = Term::iri(format!("{}title", dblp::DC));

    let conferences: Vec<Term> = CONFERENCES
        .iter()
        .map(|c| Term::iri(format!("{}{c}", dblp::CONF)))
        .collect();
    let authors: Vec<Term> = (0..config.authors)
        .map(|i| Term::iri(format!("{}author_{i}", dblp::AUTHOR)))
        .collect();
    let author_zipf = Zipf::new(config.authors, config.skew);
    // Productive database authors publish disproportionately at VLDB and
    // SIGMOD; model a home-venue bias so "thought leader" thresholds find a
    // real head.
    let home_conf: Vec<usize> = (0..config.authors)
        .map(|_| rng.gen_range(0..conferences.len()))
        .collect();

    for p in 0..config.papers {
        let paper = Term::iri(format!("{}paper_{p}", dblp::PAPER));
        g.insert(&Triple::new(
            paper.clone(),
            type_p.clone(),
            in_proceedings.clone(),
        ));

        let n_authors = rng.gen_range(1..=4);
        let first_author = author_zipf.sample(&mut rng);
        for k in 0..n_authors {
            let a = if k == 0 {
                first_author
            } else {
                author_zipf.sample(&mut rng)
            };
            g.insert(&Triple::new(
                paper.clone(),
                creator.clone(),
                authors[a].clone(),
            ));
        }

        // 70% at the first author's home venue, else anywhere.
        let conf = if rng.gen_bool(0.7) {
            home_conf[first_author]
        } else {
            rng.gen_range(0..conferences.len())
        };
        g.insert(&Triple::new(
            paper.clone(),
            series.clone(),
            conferences[conf].clone(),
        ));

        let (lo, hi) = config.year_range;
        let year = rng.gen_range(lo..=hi);
        let month = rng.gen_range(1..=12);
        g.insert(&Triple::new(
            paper.clone(),
            issued.clone(),
            Term::from(Literal::typed(
                format!("{year}-{month:02}-01"),
                xsd::DATE.to_string(),
            )),
        ));

        let words = rng.gen_range(4..9);
        let t = names::title(&mut rng, words);
        g.insert(&Triple::new(paper, title_p.clone(), Term::string(t)));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_is_dense_and_complete() {
        let (g, ds) = crate::installed(generate_dblp(&DblpConfig::tiny()));
        // Every paper has type, ≥1 creator, series, issued, title.
        let type_id = ds.lookup(&Term::iri(rdf::TYPE)).unwrap();
        let papers = g.count_pattern(None, Some(type_id), None);
        assert_eq!(papers, 600);
        for pred in ["creator", "title"] {
            let id = ds
                .lookup(&Term::iri(format!("{}{pred}", dblp::DC)))
                .unwrap();
            assert!(g.count_pattern(None, Some(id), None) >= 600, "{pred}");
        }
    }

    #[test]
    fn vldb_and_sigmod_exist() {
        let (g, ds) = crate::installed(generate_dblp(&DblpConfig::tiny()));
        for conf in ["vldb", "sigmod"] {
            let t = Term::iri(format!("{}{conf}", dblp::CONF));
            let id = ds.lookup(&t).unwrap_or_else(|| panic!("{conf} missing"));
            assert!(g.count_pattern(None, None, Some(id)) > 0);
        }
    }

    #[test]
    fn years_within_range() {
        let cfg = DblpConfig {
            year_range: (2000, 2005),
            ..DblpConfig::tiny()
        };
        let (g, ds) = crate::installed(generate_dblp(&cfg));
        let issued = ds
            .lookup(&Term::iri(format!("{}issued", dblp::DCTERM)))
            .unwrap();
        for (_, _, o) in g.match_pattern(None, Some(issued), None) {
            let lit = ds.resolve(o).as_literal().unwrap();
            let year: i64 = lit.lexical[..4].parse().unwrap();
            assert!((2000..=2005).contains(&year), "{}", lit.lexical);
        }
    }

    #[test]
    fn author_productivity_skewed() {
        let (g, ds) = crate::installed(generate_dblp(&DblpConfig::tiny()));
        let creator = ds
            .lookup(&Term::iri(format!("{}creator", dblp::DC)))
            .unwrap();
        let mut counts = std::collections::HashMap::new();
        for (_, _, o) in g.match_pattern(None, Some(creator), None) {
            *counts.entry(o).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let mean = counts.values().sum::<usize>() / counts.len();
        assert!(max > mean * 3, "max {max}, mean {mean}");
    }
}
