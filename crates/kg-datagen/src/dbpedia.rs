//! DBpedia-like synthetic graph: a heterogeneous, multi-topic knowledge
//! graph with skewed degree distributions and sparse optional predicates.
//!
//! Topics generated (matching what the paper's case study 1 and the Q1–Q15
//! synthetic workload touch):
//!
//! - **Films**: `dbpp:starring` (Zipf-skewed actors), labels, subjects,
//!   production country, sparse `dbpo:genre`, director/producer/language/
//!   studio/runtime/story for the film queries.
//! - **Actors**: birth place (a configurable fraction American), labels,
//!   sparse `dbpp:academyAward`.
//! - **Basketball**: players with teams/nationality/birth data; teams with
//!   sparse sponsor/president and names (Q1, Q2, Q3, Q6, Q7, Q12).
//! - **Athletes**: a superclass population for Q10.
//! - **Books**: authors with birth place/country/sparse education; books
//!   with title/subject and sparse country/publisher (Q15).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::vocab::{rdf, rdfs, xsd};
use rdf_model::{Graph, Literal, Term, Triple};

use crate::names;
use crate::vocab::dbp;
use crate::zipf::Zipf;

/// Configuration for the DBpedia-like generator.
#[derive(Debug, Clone)]
pub struct DbpediaConfig {
    /// Master size knob: the number of film actors; all other entity
    /// counts are fixed ratios of it (movies 2×, players ×0.1, ...).
    pub scale: usize,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
    /// Probability a movie has a `dbpo:genre` (the paper's optional
    /// predicate).
    pub genre_probability: f64,
    /// Probability an actor holds an academy award.
    pub award_probability: f64,
    /// Fraction of actors born in the United States.
    pub american_fraction: f64,
    /// Zipf exponent for actor filmography skew.
    pub skew: f64,
}

impl Default for DbpediaConfig {
    fn default() -> Self {
        DbpediaConfig {
            scale: 10_000,
            seed: 42,
            genre_probability: 0.4,
            award_probability: 0.05,
            american_fraction: 0.3,
            skew: 1.0,
        }
    }
}

impl DbpediaConfig {
    /// A small config for unit tests.
    pub fn tiny() -> Self {
        DbpediaConfig {
            scale: 300,
            ..Default::default()
        }
    }

    /// Scale with all ratios kept (convenience for sweeps).
    pub fn with_scale(scale: usize) -> Self {
        DbpediaConfig {
            scale,
            ..Default::default()
        }
    }
}

const COUNTRY_NAMES: &[&str] = &[
    "United_States",
    "United_Kingdom",
    "India",
    "France",
    "Germany",
    "Italy",
    "Spain",
    "Canada",
    "Australia",
    "Japan",
    "Brazil",
    "Mexico",
    "Egypt",
    "Nigeria",
    "Sweden",
    "Norway",
    "Poland",
    "Greece",
    "Turkey",
    "Argentina",
];

const GENRES: &[&str] = &[
    "Film_score",
    "Soundtrack",
    "Rock_music",
    "House_music",
    "Dubstep",
    "Drama",
    "Comedy",
    "Action",
    "Thriller",
    "Documentary",
];

const LANGUAGES: &[&str] = &[
    "English_language",
    "Hindi_language",
    "French_language",
    "Spanish_language",
    "German_language",
    "Japanese_language",
];

struct Ctx {
    rng: StdRng,
    graph: Graph,
}

impl Ctx {
    fn add(&mut self, s: Term, p: &str, o: Term) {
        self.graph.insert(&Triple::new(s, Term::iri(p), o));
    }

    fn res(&self, name: &str) -> Term {
        Term::iri(format!("{}{name}", dbp::RES))
    }
}

fn prop(name: &str) -> String {
    format!("{}{name}", dbp::PROP)
}

fn onto(name: &str) -> String {
    format!("{}{name}", dbp::ONTO)
}

/// Generate the DBpedia-like graph.
pub fn generate_dbpedia(config: &DbpediaConfig) -> Graph {
    let mut ctx = Ctx {
        rng: StdRng::seed_from_u64(config.seed),
        graph: Graph::new(),
    };
    let starring = prop("starring");
    let birth_place = prop("birthPlace");
    let academy_award = prop("academyAward");
    let country_p = prop("country");
    let subject_p = format!("{}subject", dbp::DCTERMS);
    let genre_p = onto("genre");
    let type_p = rdf::TYPE.to_string();
    let label_p = rdfs::LABEL.to_string();

    let n_actors = config.scale.max(10);
    let n_movies = n_actors * 2;
    let n_subjects = (n_actors / 50).max(5);
    let n_studios = (n_actors / 200).max(5);
    let n_players = (n_actors / 10).max(10);
    let n_teams = (n_players / 20).max(3);
    let n_athletes_extra = n_players / 2;
    let n_authors = (n_actors / 40).max(5);
    let n_books = n_authors * 4;

    let countries: Vec<Term> = (0..COUNTRY_NAMES.len())
        .map(|i| ctx.res(COUNTRY_NAMES[i]))
        .collect();
    let usa = countries[0].clone();

    // ---- actors -------------------------------------------------------
    for a in 0..n_actors {
        let actor = ctx.res(&format!("Actor_{a}"));
        let place = if ctx.rng.gen_bool(config.american_fraction) {
            usa.clone()
        } else {
            countries[ctx.rng.gen_range(1..countries.len())].clone()
        };
        ctx.add(actor.clone(), &birth_place, place);
        let name = names::person_name(&mut ctx.rng);
        ctx.add(actor.clone(), &label_p, Term::string(name));
        if ctx.rng.gen_bool(config.award_probability) {
            let k = ctx.rng.gen_range(0..8);
            let award = ctx.res(&format!("Academy_Award_{k}"));
            ctx.add(actor.clone(), &academy_award, award);
        }
        ctx.add(actor, &type_p, ctx.res("Actor"));
    }

    // ---- movies ---------------------------------------------------------
    let actor_zipf = Zipf::new(n_actors, config.skew);
    for m in 0..n_movies {
        let movie = ctx.res(&format!("Movie_{m}"));
        ctx.add(movie.clone(), &type_p, ctx.res("Film"));
        let cast = ctx.rng.gen_range(1..=4);
        for _ in 0..cast {
            let a = actor_zipf.sample(&mut ctx.rng);
            ctx.add(movie.clone(), &starring, ctx.res(&format!("Actor_{a}")));
        }
        let title = names::title(&mut ctx.rng, 3);
        ctx.add(movie.clone(), &label_p, Term::string(title));
        let subj = ctx.rng.gen_range(0..n_subjects);
        ctx.add(
            movie.clone(),
            &subject_p,
            ctx.res(&format!("Category_{subj}")),
        );
        let c = ctx.rng.gen_range(0..countries.len());
        ctx.add(movie.clone(), &country_p, countries[c].clone());
        if ctx.rng.gen_bool(config.genre_probability) {
            let g = GENRES[ctx.rng.gen_range(0..GENRES.len())];
            ctx.add(movie.clone(), &genre_p, ctx.res(g));
        }
        // Film-query attributes (Q5, Q8, Q9, Q13, Q14).
        let director = ctx.rng.gen_range(0..n_actors);
        ctx.add(
            movie.clone(),
            &onto("director"),
            ctx.res(&format!("Actor_{director}")),
        );
        if ctx.rng.gen_bool(0.8) {
            let producer = ctx.rng.gen_range(0..n_actors);
            ctx.add(
                movie.clone(),
                &prop("producer"),
                ctx.res(&format!("Actor_{producer}")),
            );
        }
        let lang = LANGUAGES[ctx.rng.gen_range(0..LANGUAGES.len())];
        ctx.add(movie.clone(), &prop("language"), ctx.res(lang));
        let studio = if ctx.rng.gen_bool(0.05) {
            ctx.res("Eskay_Movies")
        } else {
            let s = ctx.rng.gen_range(0..n_studios);
            ctx.res(&format!("Studio_{s}"))
        };
        ctx.add(movie.clone(), &prop("studio"), studio);
        let runtime = ctx.rng.gen_range(60..240);
        ctx.add(
            movie.clone(),
            &prop("runtime"),
            Term::from(Literal::integer(runtime)),
        );
        if ctx.rng.gen_bool(0.5) {
            let story = ctx.rng.gen_range(0..n_actors);
            ctx.add(
                movie.clone(),
                &prop("story"),
                ctx.res(&format!("Actor_{story}")),
            );
        }
        if ctx.rng.gen_bool(0.9) {
            let t = names::title(&mut ctx.rng, 2);
            ctx.add(movie.clone(), &prop("title"), Term::string(t));
        }
    }

    // ---- basketball ------------------------------------------------------
    for t in 0..n_teams {
        let team = ctx.res(&format!("Team_{t}"));
        ctx.add(team.clone(), &type_p, ctx.res("BasketballTeam"));
        ctx.add(
            team.clone(),
            &prop("name"),
            Term::string(format!("Team {t}")),
        );
        // Team 0 always carries both sparse attributes so queries joining on
        // sponsor ∧ president have a witness at every scale and seed.
        if t == 0 || ctx.rng.gen_bool(0.7) {
            let s = ctx.rng.gen_range(0..n_studios.max(3));
            ctx.add(
                team.clone(),
                &prop("sponsor"),
                ctx.res(&format!("Sponsor_{s}")),
            );
        }
        if t == 0 || ctx.rng.gen_bool(0.6) {
            let p = names::person_name(&mut ctx.rng);
            ctx.add(team.clone(), &prop("president"), Term::string(p));
        }
    }
    for p in 0..n_players {
        let player = ctx.res(&format!("Player_{p}"));
        ctx.add(player.clone(), &type_p, ctx.res("BasketballPlayer"));
        ctx.add(player.clone(), &type_p, ctx.res("Athlete"));
        let team = ctx.rng.gen_range(0..n_teams);
        ctx.add(
            player.clone(),
            &prop("team"),
            ctx.res(&format!("Team_{team}")),
        );
        let c = ctx.rng.gen_range(0..countries.len());
        ctx.add(player.clone(), &prop("nationality"), countries[c].clone());
        let bp = ctx.rng.gen_range(0..countries.len());
        ctx.add(player.clone(), &birth_place, countries[bp].clone());
        let year = ctx.rng.gen_range(1960..2003);
        ctx.add(
            player.clone(),
            &prop("birthDate"),
            Term::from(Literal::typed(
                format!("{year}-01-15"),
                xsd::DATE.to_string(),
            )),
        );
    }
    for a in 0..n_athletes_extra {
        let athlete = ctx.res(&format!("Athlete_{a}"));
        ctx.add(athlete.clone(), &type_p, ctx.res("Athlete"));
        let bp = ctx.rng.gen_range(0..countries.len());
        ctx.add(athlete.clone(), &birth_place, countries[bp].clone());
    }

    // ---- books ---------------------------------------------------------
    for a in 0..n_authors {
        let author = ctx.res(&format!("Author_{a}"));
        ctx.add(author.clone(), &type_p, ctx.res("Writer"));
        // Author 0 is the Zipf head (most books) and always American, so
        // "prolific American author" queries have a witness at every scale
        // and seed.
        let place = if a == 0 || ctx.rng.gen_bool(config.american_fraction) {
            usa.clone()
        } else {
            countries[ctx.rng.gen_range(1..countries.len())].clone()
        };
        ctx.add(author.clone(), &birth_place, place.clone());
        ctx.add(author.clone(), &prop("country"), place);
        if ctx.rng.gen_bool(0.5) {
            let e = ctx.rng.gen_range(0..10);
            ctx.add(
                author.clone(),
                &prop("education"),
                ctx.res(&format!("University_{e}")),
            );
        }
    }
    let author_zipf = Zipf::new(n_authors, config.skew);
    for b in 0..n_books {
        let book = ctx.res(&format!("Book_{b}"));
        ctx.add(book.clone(), &type_p, ctx.res("Book"));
        let a = author_zipf.sample(&mut ctx.rng);
        ctx.add(
            book.clone(),
            &onto("author"),
            ctx.res(&format!("Author_{a}")),
        );
        let t = names::title(&mut ctx.rng, 4);
        ctx.add(book.clone(), &prop("title"), Term::string(t));
        let subj = ctx.rng.gen_range(0..n_subjects);
        ctx.add(
            book.clone(),
            &subject_p,
            ctx.res(&format!("Category_{subj}")),
        );
        if ctx.rng.gen_bool(0.6) {
            let c = ctx.rng.gen_range(0..countries.len());
            ctx.add(book.clone(), &country_p, countries[c].clone());
        }
        if ctx.rng.gen_bool(0.7) {
            let p = ctx.rng.gen_range(0..12);
            ctx.add(
                book.clone(),
                &prop("publisher"),
                ctx.res(&format!("Publisher_{p}")),
            );
        }
    }

    ctx.graph
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (std::sync::Arc<rdf_model::TripleIndex>, rdf_model::Dataset) {
        crate::installed(generate_dbpedia(&DbpediaConfig::tiny()))
    }

    #[test]
    fn deterministic() {
        let a = generate_dbpedia(&DbpediaConfig::tiny());
        let b = generate_dbpedia(&DbpediaConfig::tiny());
        assert_eq!(a.len(), b.len());
        let ta: Vec<_> = a.iter_triples().collect();
        let tb: Vec<_> = b.iter_triples().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn has_all_topic_predicates() {
        let (g, ds) = tiny();
        for p in [
            "http://dbpedia.org/property/starring",
            "http://dbpedia.org/property/birthPlace",
            "http://dbpedia.org/property/team",
            "http://dbpedia.org/property/sponsor",
            "http://dbpedia.org/ontology/genre",
            "http://dbpedia.org/ontology/author",
            "http://dbpedia.org/property/publisher",
        ] {
            let id = ds
                .lookup(&Term::iri(p))
                .unwrap_or_else(|| panic!("missing {p}"));
            assert!(g.count_pattern(None, Some(id), None) > 0, "{p}");
        }
    }

    #[test]
    fn genre_is_sparse() {
        let (g, ds) = tiny();
        let genre = ds
            .lookup(&Term::iri("http://dbpedia.org/ontology/genre"))
            .unwrap();
        let label = ds.lookup(&Term::iri(rdfs::LABEL)).unwrap();
        let genres = g.count_pattern(None, Some(genre), None);
        let labels = g.count_pattern(None, Some(label), None);
        assert!(genres * 2 < labels, "genre should be optional-sparse");
    }

    #[test]
    fn starring_is_skewed() {
        let (g, ds) = crate::installed(generate_dbpedia(&DbpediaConfig {
            scale: 1000,
            ..Default::default()
        }));
        let starring = ds
            .lookup(&Term::iri("http://dbpedia.org/property/starring"))
            .unwrap();
        // Count movies per actor; the head actor should dominate the median.
        let mut counts = std::collections::HashMap::new();
        for (_, _, o) in g.match_pattern(None, Some(starring), None) {
            *counts.entry(o).or_insert(0usize) += 1;
        }
        let mut values: Vec<usize> = counts.values().copied().collect();
        values.sort_unstable();
        let max = *values.last().unwrap();
        let median = values[values.len() / 2];
        assert!(max >= median * 10, "max {max} median {median}");
    }

    #[test]
    fn scale_grows_graph() {
        let small = generate_dbpedia(&DbpediaConfig::with_scale(300)).len();
        let large = generate_dbpedia(&DbpediaConfig::with_scale(900)).len();
        assert!(large > small * 2, "{small} -> {large}");
    }
}
