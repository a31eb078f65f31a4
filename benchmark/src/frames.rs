//! The benchmark's frozen frame definitions: the three case studies and
//! Q1–Q19, copied from `bench::casestudies` / `bench::queries` so that no
//! later change can alter a workload by editing those modules. Thresholds
//! are the scale-4000 values every committed number uses: prolific ≥ 20
//! movies, ≥ 10 VLDB/SIGMOD papers since 2000, titles since 2010.
//!
//! Every frame is a plain `fn() -> RDFFrame` so the traced pass can time
//! the API recording layer by re-running the constructor.

use rdfframes_core::{Direction, JoinType, KnowledgeGraph, RDFFrame, SortOrder};

/// Graph URIs of the three generated graphs.
pub const DBPEDIA: &str = "http://dbpedia.org";
pub const DBLP: &str = "http://dblp.l3s.de";
pub const YAGO: &str = "http://yago-knowledge.org";

const PROLIFIC: usize = 20;
const SINCE_YEAR: i64 = 2000;
const THRESHOLD: usize = 10;
const RECENT_YEAR: i64 = 2010;

/// A named frame constructor.
#[derive(Clone, Copy)]
pub struct FrameDef {
    pub id: &'static str,
    pub build: fn() -> RDFFrame,
}

const fn def(id: &'static str, build: fn() -> RDFFrame) -> FrameDef {
    FrameDef { id, build }
}

pub const CS1: FrameDef = def("cs1", cs1);
pub const CS2: FrameDef = def("cs2", cs2);
pub const CS3: FrameDef = def("cs3", cs3);
pub const Q1: FrameDef = def("Q1", q1);
pub const Q5: FrameDef = def("Q5", q5);
pub const Q9: FrameDef = def("Q9", q9);

/// Q1–Q8, Q10–Q19 and cs2: the many-small-results mix.
pub const QMIX: [FrameDef; 19] = [
    Q1,
    def("Q2", q2),
    def("Q3", q3),
    def("Q4", q4),
    Q5,
    def("Q6", q6),
    def("Q7", q7),
    def("Q8", q8),
    def("Q10", q10),
    def("Q11", q11),
    def("Q12", q12),
    def("Q13", q13),
    def("Q14", q14),
    def("Q15", q15),
    def("Q16", q16),
    def("Q17", q17),
    def("Q18", q18),
    def("Q19", q19),
    CS2,
];

fn dbpedia() -> KnowledgeGraph {
    KnowledgeGraph::new(DBPEDIA)
        .with_prefix("dbpp", "http://dbpedia.org/property/")
        .with_prefix("dbpo", "http://dbpedia.org/ontology/")
        .with_prefix("dbpr", "http://dbpedia.org/resource/")
        .with_prefix("dcterms", "http://purl.org/dc/terms/")
}

fn dblp() -> KnowledgeGraph {
    KnowledgeGraph::new(DBLP)
        .with_prefix("swrc", "http://swrc.ontoware.org/ontology#")
        .with_prefix("dc", "http://purl.org/dc/elements/1.1/")
        .with_prefix("dcterm", "http://purl.org/dc/terms/")
        .with_prefix("dblprc", "http://dblp.l3s.de/d2r/resource/conferences/")
}

fn yago() -> KnowledgeGraph {
    KnowledgeGraph::new(YAGO).with_prefix("yago", "http://yago-knowledge.org/resource/")
}

/// Case study 1 — movie-genre classification (paper Listing 3): movies
/// starring American or prolific actors; the `.cache()`d `movies` frame is
/// inlined five times into the generated query.
fn cs1() -> RDFFrame {
    let movies = dbpedia()
        .feature_domain_range("dbpp:starring", "movie", "actor")
        .expand("actor", "dbpp:birthPlace", "actor_country")
        .expand("actor", "rdfs:label", "actor_name")
        .expand("movie", "rdfs:label", "movie_name")
        .expand("movie", "dcterms:subject", "subject")
        .expand("movie", "dbpp:country", "movie_country")
        .expand_optional("movie", "dbpo:genre", "genre")
        .cache();
    let american = movies
        .clone()
        .filter("actor_country", &["regex(\"United_States\")"]);
    let prolific = movies
        .clone()
        .group_by(&["actor"])
        .count("movie", "movie_count", true)
        .filter("movie_count", &[&format!(">={PROLIFIC}")]);
    american
        .join(&prolific, "actor", JoinType::Outer)
        .join(&movies, "actor", JoinType::Inner)
}

/// Case study 2 — topic modeling (paper Listing 5).
fn cs2() -> RDFFrame {
    let papers = dblp()
        .entities("swrc:InProceedings", "paper")
        .expand("paper", "dc:creator", "author")
        .expand("paper", "dcterm:issued", "date")
        .expand("paper", "swrc:series", "conference")
        .expand("paper", "dc:title", "title")
        .cache();
    let authors = papers
        .clone()
        .filter("date", &[&format!("year>={SINCE_YEAR}")])
        .filter("conference", &["In(dblprc:vldb, dblprc:sigmod)"])
        .group_by(&["author"])
        .count("paper", "n_papers", false)
        .filter("n_papers", &[&format!(">={THRESHOLD}")]);
    papers
        .filter("date", &[&format!("year>={RECENT_YEAR}")])
        .join(&authors, "author", JoinType::Inner)
        .select_cols(&["title"])
}

/// Case study 3 — KG embedding (paper Listing 7): every entity-to-entity
/// triple of DBLP.
fn cs3() -> RDFFrame {
    dblp().seed("?s", "?p", "?o").filter("o", &["isURI"])
}

fn q1() -> RDFFrame {
    dbpedia()
        .seed("?player", "rdf:type", "dbpr:BasketballPlayer")
        .expand("player", "dbpp:nationality", "nationality")
        .expand("player", "dbpp:birthPlace", "place")
        .expand("player", "dbpp:birthDate", "bdate")
        .expand("player", "dbpp:team", "team")
        .expand_optional("team", "dbpp:sponsor", "sponsor")
        .expand_optional("team", "dbpp:name", "name")
        .expand_optional("team", "dbpp:president", "president")
}

fn team_counts() -> RDFFrame {
    dbpedia()
        .seed("?player", "dbpp:team", "?team")
        .group_by(&["team"])
        .count("player", "player_count", false)
}

fn q2() -> RDFFrame {
    team_counts()
        .expand("team", "dbpp:sponsor", "sponsor")
        .expand("team", "dbpp:name", "name")
        .expand("team", "dbpp:president", "president")
}

fn q3() -> RDFFrame {
    team_counts()
        .expand_optional("team", "dbpp:sponsor", "sponsor")
        .expand_optional("team", "dbpp:name", "name")
        .expand_optional("team", "dbpp:president", "president")
}

fn q4() -> RDFFrame {
    dbpedia()
        .seed("?actor", "dbpp:birthPlace", "dbpr:United_States")
        .join(
            &yago().seed("?actor", "rdf:type", "yago:Actor"),
            "actor",
            JoinType::Inner,
        )
}

const Q5_GENRES: &str =
    "In(dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep)";

/// Films filtered on country, studio and genre, with starring actors: the
/// shared stem of Q5 and Q14.
fn filtered_films() -> RDFFrame {
    dbpedia()
        .seed("?movie", "rdf:type", "dbpr:Film")
        .expand("movie", "dbpp:country", "country")
        .filter("country", &["In(dbpr:India, dbpr:United_States)"])
        .expand("movie", "dbpp:studio", "studio")
        .filter("studio", &["NotIn(dbpr:Eskay_Movies)"])
        .expand("movie", "dbpo:genre", "genre")
        .filter("genre", &[Q5_GENRES])
        .expand("movie", "dbpp:starring", "actor")
}

fn q5() -> RDFFrame {
    filtered_films()
        .expand("movie", "dbpo:director", "director")
        .expand("movie", "dbpp:producer", "producer")
        .expand("movie", "dbpp:language", "language")
}

fn q6() -> RDFFrame {
    dbpedia()
        .seed("?player", "rdf:type", "dbpr:BasketballPlayer")
        .expand("player", "dbpp:nationality", "nationality")
        .expand("player", "dbpp:birthPlace", "place")
        .expand("player", "dbpp:birthDate", "bdate")
        .expand("player", "dbpp:team", "team")
        .expand("team", "dbpp:sponsor", "sponsor")
        .expand("team", "dbpp:name", "name")
        .expand("team", "dbpp:president", "president")
}

fn q7() -> RDFFrame {
    let players = dbpedia().seed("?player", "dbpp:team", "?team");
    let team_sizes = players
        .clone()
        .group_by(&["team"])
        .count("player", "team_size", false);
    players.join(&team_sizes, "team", JoinType::Inner)
}

fn q8() -> RDFFrame {
    dbpedia()
        .seed("?movie", "rdf:type", "dbpr:Film")
        .expand("movie", "dbpp:starring", "actor")
        .expand("movie", "dbpo:director", "director")
        .expand("movie", "dbpp:country", "country")
        .filter("country", &["In(dbpr:India, dbpr:United_States)"])
        .expand("movie", "dbpp:producer", "producer")
        .expand("movie", "dbpp:language", "language")
        .expand("movie", "dbpp:title", "title")
        .expand("movie", "dbpo:genre", "genre")
        .filter(
            "genre",
            &["In(dbpr:Drama, dbpr:Comedy, dbpr:Action, dbpr:Film_score)"],
        )
        .expand("movie", "dbpp:story", "story")
        .expand("movie", "dbpp:studio", "studio")
        .filter("studio", &["NotIn(dbpr:Eskay_Movies)"])
        .expand("movie", "dbpp:runtime", "runtime")
        .filter("runtime", &[">=100"])
}

fn film_side(film: &str, actor: &str, director: &str) -> RDFFrame {
    dbpedia()
        .seed(&format!("?{film}"), "rdf:type", "dbpr:Film")
        .expand(film, "dbpo:genre", "genre")
        .expand(film, "dbpp:country", "country")
        .expand(film, "dbpp:starring", actor)
        .expand_dir(film, "dbpo:director", director, Direction::Out, true)
}

/// Pairs of films sharing genre and production country: the large-output
/// hash join.
fn q9() -> RDFFrame {
    film_side("film1", "actor1", "director1").join(
        &film_side("film2", "actor2", "director2"),
        "genre",
        JoinType::Inner,
    )
}

fn q10() -> RDFFrame {
    let athletes = dbpedia()
        .seed("?athlete", "rdf:type", "dbpr:Athlete")
        .expand("athlete", "dbpp:birthPlace", "place");
    let by_place = athletes
        .clone()
        .group_by(&["place"])
        .count("athlete", "born_there", false);
    athletes.join(&by_place, "place", JoinType::Inner)
}

fn q11() -> RDFFrame {
    dbpedia()
        .seed("?actor", "rdf:type", "dbpr:Actor")
        .expand("actor", "dbpp:birthPlace", "place")
        .join(
            &yago().seed("?actor", "rdf:type", "yago:Actor"),
            "actor",
            JoinType::Outer,
        )
}

fn q12() -> RDFFrame {
    team_counts().expand("team", "dbpp:name", "name")
}

fn q13() -> RDFFrame {
    dbpedia()
        .seed("?movie", "rdf:type", "dbpr:Film")
        .expand("movie", "dbpp:starring", "actor")
        .expand("movie", "dbpp:language", "language")
        .expand("movie", "dbpp:country", "country")
        .expand("movie", "dbpo:genre", "genre")
        .expand("movie", "dbpp:story", "story")
        .expand("movie", "dbpp:studio", "studio")
        .expand_optional("movie", "dbpo:director", "director")
        .expand_optional("movie", "dbpp:producer", "producer")
        .expand_optional("movie", "dbpp:title", "title")
}

fn q14() -> RDFFrame {
    filtered_films()
        .expand("movie", "dbpp:language", "language")
        .expand_optional("movie", "dbpp:producer", "producer")
        .expand_optional("movie", "dbpo:director", "director")
        .expand_optional("movie", "dbpp:title", "title")
}

fn q15() -> RDFFrame {
    let dbp = dbpedia();
    let books = dbp
        .seed("?book", "dbpo:author", "?author")
        .expand("author", "dbpp:birthPlace", "bplace")
        .expand("author", "dbpp:country", "country")
        .expand_optional("author", "dbpp:education", "education")
        .expand("book", "dbpp:title", "title")
        .expand("book", "dcterms:subject", "subject")
        .expand_optional("book", "dbpp:publisher", "publisher");
    let american_prolific = dbp
        .seed("?book", "dbpo:author", "?author")
        .expand("author", "dbpp:birthPlace", "bplace")
        .filter("bplace", &["=dbpr:United_States"])
        .group_by(&["author"])
        .count("book", "book_count", true)
        .filter("book_count", &[">2"]);
    books.join(&american_prolific, "author", JoinType::Inner)
}

fn q16() -> RDFFrame {
    dbpedia()
        .seed("?movie", "dbpp:starring", "?actor")
        .sort(&[("actor", SortOrder::Asc), ("movie", SortOrder::Asc)])
}

fn q17() -> RDFFrame {
    let dbp = dbpedia();
    dbp.seed("?film", "rdf:type", "dbpr:Film").join(
        &dbp.seed("?film", "dbpp:country", "dbpr:United_States"),
        "film",
        JoinType::Inner,
    )
}

fn q18() -> RDFFrame {
    let dbp = dbpedia();
    let scored = dbp.seed("?film", "dbpo:genre", "dbpr:Film_score").expand(
        "film",
        "dbpp:runtime",
        "runtime",
    );
    dbp.seed("?film", "rdf:type", "dbpr:Film")
        .join(&scored, "film", JoinType::Left)
}

fn q19() -> RDFFrame {
    dbpedia()
        .seed("?movie", "dbpp:starring", "?actor")
        .group_by(&["actor"])
        .count("movie", "movie_count", true)
}
