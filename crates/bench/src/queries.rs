//! The synthetic workload: the paper's 15 queries exercising different
//! RDFFrames
//! features (paper Section 6.2 / Table 2), each with its RDFFrames pipeline
//! and an expert-written SPARQL query.

use rdfframes_core::{JoinType, RDFFrame, SortOrder};

use crate::data::{self, expert_prefixes};

/// One workload query.
pub struct QueryDef {
    /// Identifier (`Q1` ... `Q15`).
    pub id: &'static str,
    /// Table 2's English description.
    pub description: &'static str,
    /// The RDFFrames pipeline.
    pub frame: RDFFrame,
    /// The expert-written SPARQL query.
    pub expert: String,
}

fn q(id: &'static str, description: &'static str, frame: RDFFrame, expert: String) -> QueryDef {
    QueryDef {
        id,
        description,
        frame,
        expert,
    }
}

fn expert(body: &str) -> String {
    format!("{}{body}", expert_prefixes())
}

/// Build the workload queries (the paper's Q1–Q15 plus the perf cases:
/// sort-heavy Q16, star-join Q17, merge-left-join Q18, and sorted
/// aggregation Q19).
pub fn all_queries() -> Vec<QueryDef> {
    let dbp = data::dbpedia_graph();
    let yago = data::yago_graph();
    let mut out = Vec::with_capacity(19);

    // Q1: players with nationality/birthPlace/birthDate + optional team
    // sponsor/name/president.
    out.push(q(
        "Q1",
        "Basketball players with team attributes if available",
        dbp.seed("?player", "rdf:type", "dbpr:BasketballPlayer")
            .expand("player", "dbpp:nationality", "nationality")
            .expand("player", "dbpp:birthPlace", "place")
            .expand("player", "dbpp:birthDate", "bdate")
            .expand("player", "dbpp:team", "team")
            .expand_optional("team", "dbpp:sponsor", "sponsor")
            .expand_optional("team", "dbpp:name", "name")
            .expand_optional("team", "dbpp:president", "president"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?player rdf:type dbpr:BasketballPlayer ;\n\
                       dbpp:nationality ?nationality ;\n\
                       dbpp:birthPlace ?place ;\n\
                       dbpp:birthDate ?bdate ;\n\
                       dbpp:team ?team\n\
               OPTIONAL { ?team dbpp:sponsor ?sponsor }\n\
               OPTIONAL { ?team dbpp:name ?name }\n\
               OPTIONAL { ?team dbpp:president ?president }\n}",
        ),
    ));

    // Q2: team attributes (required) + player count per team.
    out.push(q(
        "Q2",
        "Teams with sponsor/name/president and number of players",
        dbp.seed("?player", "dbpp:team", "?team")
            .group_by(&["team"])
            .count("player", "player_count", false)
            .expand("team", "dbpp:sponsor", "sponsor")
            .expand("team", "dbpp:name", "name")
            .expand("team", "dbpp:president", "president"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?team dbpp:sponsor ?sponsor ; dbpp:name ?name ; dbpp:president ?president\n\
               { SELECT DISTINCT ?team (COUNT(?player) AS ?player_count)\n\
                 WHERE { ?player dbpp:team ?team } GROUP BY ?team }\n}",
        ),
    ));

    // Q3: like Q2 but attributes optional.
    out.push(q(
        "Q3",
        "Teams with optional attributes and player count",
        dbp.seed("?player", "dbpp:team", "?team")
            .group_by(&["team"])
            .count("player", "player_count", false)
            .expand_optional("team", "dbpp:sponsor", "sponsor")
            .expand_optional("team", "dbpp:name", "name")
            .expand_optional("team", "dbpp:president", "president"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               { SELECT DISTINCT ?team (COUNT(?player) AS ?player_count)\n\
                 WHERE { ?player dbpp:team ?team } GROUP BY ?team }\n\
               OPTIONAL { ?team dbpp:sponsor ?sponsor }\n\
               OPTIONAL { ?team dbpp:name ?name }\n\
               OPTIONAL { ?team dbpp:president ?president }\n}",
        ),
    ));

    // Q4: American actors present in both DBpedia and YAGO.
    out.push(q(
        "Q4",
        "American actors available in both DBpedia and YAGO",
        dbp.seed("?actor", "dbpp:birthPlace", "dbpr:United_States")
            .join(
                &yago.seed("?actor", "rdf:type", "yago:Actor"),
                "actor",
                JoinType::Inner,
            ),
        expert(
            "SELECT * WHERE {\n\
               GRAPH <http://dbpedia.org> { ?actor dbpp:birthPlace dbpr:United_States }\n\
               GRAPH <http://yago-knowledge.org> { ?actor rdf:type yago:Actor }\n}",
        ),
    ));

    // Q5: films from Indian/US studios (excluding Eskay Movies) in selected
    // genres, with actor/director/producer/language.
    out.push(q(
        "Q5",
        "Films by studio country and genre with cast attributes",
        dbp.seed("?movie", "rdf:type", "dbpr:Film")
            .expand("movie", "dbpp:country", "country")
            .filter("country", &["In(dbpr:India, dbpr:United_States)"])
            .expand("movie", "dbpp:studio", "studio")
            .filter("studio", &["NotIn(dbpr:Eskay_Movies)"])
            .expand("movie", "dbpo:genre", "genre")
            .filter(
                "genre",
                &["In(dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep)"],
            )
            .expand("movie", "dbpp:starring", "actor")
            .expand("movie", "dbpo:director", "director")
            .expand("movie", "dbpp:producer", "producer")
            .expand("movie", "dbpp:language", "language"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?movie rdf:type dbpr:Film ;\n\
                      dbpp:country ?country ;\n\
                      dbpp:studio ?studio ;\n\
                      dbpo:genre ?genre ;\n\
                      dbpp:starring ?actor ;\n\
                      dbpo:director ?director ;\n\
                      dbpp:producer ?producer ;\n\
                      dbpp:language ?language\n\
               FILTER ( ?country IN (dbpr:India, dbpr:United_States) )\n\
               FILTER ( ?studio NOT IN (dbpr:Eskay_Movies) )\n\
               FILTER ( ?genre IN (dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep) )\n}",
        ),
    ));

    // Q6: Q1 with required team attributes.
    out.push(q(
        "Q6",
        "Basketball players with required team attributes",
        dbp.seed("?player", "rdf:type", "dbpr:BasketballPlayer")
            .expand("player", "dbpp:nationality", "nationality")
            .expand("player", "dbpp:birthPlace", "place")
            .expand("player", "dbpp:birthDate", "bdate")
            .expand("player", "dbpp:team", "team")
            .expand("team", "dbpp:sponsor", "sponsor")
            .expand("team", "dbpp:name", "name")
            .expand("team", "dbpp:president", "president"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?player rdf:type dbpr:BasketballPlayer ;\n\
                       dbpp:nationality ?nationality ;\n\
                       dbpp:birthPlace ?place ;\n\
                       dbpp:birthDate ?bdate ;\n\
                       dbpp:team ?team .\n\
               ?team dbpp:sponsor ?sponsor ; dbpp:name ?name ; dbpp:president ?president\n}",
        ),
    ));

    // Q7: players, their teams, and each team's size.
    let players = dbp.seed("?player", "dbpp:team", "?team");
    let team_sizes = players
        .clone()
        .group_by(&["team"])
        .count("player", "team_size", false);
    out.push(q(
        "Q7",
        "Players with their team and team size",
        players.clone().join(&team_sizes, "team", JoinType::Inner),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?player dbpp:team ?team\n\
               { SELECT DISTINCT ?team (COUNT(?player) AS ?team_size)\n\
                 WHERE { ?player dbpp:team ?team } GROUP BY ?team }\n}",
        ),
    ));

    // Q8: films with many attributes and several filters.
    out.push(q(
        "Q8",
        "Films with full attributes filtered on country/studio/genre/runtime",
        dbp.seed("?movie", "rdf:type", "dbpr:Film")
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
            .filter("runtime", &[">=100"]),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?movie rdf:type dbpr:Film ;\n\
                      dbpp:starring ?actor ;\n\
                      dbpo:director ?director ;\n\
                      dbpp:country ?country ;\n\
                      dbpp:producer ?producer ;\n\
                      dbpp:language ?language ;\n\
                      dbpp:title ?title ;\n\
                      dbpo:genre ?genre ;\n\
                      dbpp:story ?story ;\n\
                      dbpp:studio ?studio ;\n\
                      dbpp:runtime ?runtime\n\
               FILTER ( ?country IN (dbpr:India, dbpr:United_States) )\n\
               FILTER ( ?genre IN (dbpr:Drama, dbpr:Comedy, dbpr:Action, dbpr:Film_score) )\n\
               FILTER ( ?studio NOT IN (dbpr:Eskay_Movies) )\n\
               FILTER ( ?runtime >= 100 )\n}",
        ),
    ));

    // Q9: pairs of films sharing genre and country.
    let film_side = |film: &str, actor: &str, director: &str| {
        dbp.seed(&format!("?{film}"), "rdf:type", "dbpr:Film")
            .expand(film, "dbpo:genre", "genre")
            .expand(film, "dbpp:country", "country")
            .expand(film, "dbpp:starring", actor)
            .expand_dir(
                film,
                "dbpo:director",
                director,
                rdfframes_core::Direction::Out,
                true,
            )
    };
    out.push(q(
        "Q9",
        "Pairs of films sharing genre and production country",
        film_side("film1", "actor1", "director1").join(
            &film_side("film2", "actor2", "director2"),
            "genre",
            JoinType::Inner,
        ),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?film1 rdf:type dbpr:Film ; dbpo:genre ?genre ; dbpp:country ?country ;\n\
                      dbpp:starring ?actor1\n\
               OPTIONAL { ?film1 dbpo:director ?director1 }\n\
               ?film2 rdf:type dbpr:Film ; dbpo:genre ?genre ; dbpp:country ?country ;\n\
                      dbpp:starring ?actor2\n\
               OPTIONAL { ?film2 dbpo:director ?director2 }\n}",
        ),
    ));

    // Q10: athletes with birthplace and the number of athletes born there.
    let athletes = dbp.seed("?athlete", "rdf:type", "dbpr:Athlete").expand(
        "athlete",
        "dbpp:birthPlace",
        "place",
    );
    let by_place = athletes
        .clone()
        .group_by(&["place"])
        .count("athlete", "born_there", false);
    out.push(q(
        "Q10",
        "Athletes with per-birthplace athlete counts",
        athletes.clone().join(&by_place, "place", JoinType::Inner),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?athlete rdf:type dbpr:Athlete ; dbpp:birthPlace ?place\n\
               { SELECT DISTINCT ?place (COUNT(?athlete) AS ?born_there)\n\
                 WHERE { ?athlete rdf:type dbpr:Athlete ; dbpp:birthPlace ?place }\n\
                 GROUP BY ?place }\n}",
        ),
    ));

    // Q11: actors in DBpedia or YAGO (full outer join across graphs).
    out.push(q(
        "Q11",
        "Actors available in DBpedia or YAGO",
        dbp.seed("?actor", "rdf:type", "dbpr:Actor")
            .expand("actor", "dbpp:birthPlace", "place")
            .join(
                &yago.seed("?actor", "rdf:type", "yago:Actor"),
                "actor",
                JoinType::Outer,
            ),
        expert(
            "SELECT * WHERE {\n\
               {\n\
                 { SELECT * WHERE { GRAPH <http://dbpedia.org> {\n\
                     ?actor rdf:type dbpr:Actor ; dbpp:birthPlace ?place } } }\n\
                 OPTIONAL { SELECT * WHERE { GRAPH <http://yago-knowledge.org> {\n\
                     ?actor rdf:type yago:Actor } } }\n\
               } UNION {\n\
                 { SELECT * WHERE { GRAPH <http://yago-knowledge.org> {\n\
                     ?actor rdf:type yago:Actor } } }\n\
                 OPTIONAL { SELECT * WHERE { GRAPH <http://dbpedia.org> {\n\
                     ?actor rdf:type dbpr:Actor ; dbpp:birthPlace ?place } } }\n\
               }\n}",
        ),
    ));

    // Q12: team sizes with team names (expand after grouping).
    out.push(q(
        "Q12",
        "Team player counts with team names",
        dbp.seed("?player", "dbpp:team", "?team")
            .group_by(&["team"])
            .count("player", "player_count", false)
            .expand("team", "dbpp:name", "name"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?team dbpp:name ?name\n\
               { SELECT DISTINCT ?team (COUNT(?player) AS ?player_count)\n\
                 WHERE { ?player dbpp:team ?team } GROUP BY ?team }\n}",
        ),
    ));

    // Q13: films with required attributes and optional director/producer/title.
    out.push(q(
        "Q13",
        "Films with optional director/producer/title",
        dbp.seed("?movie", "rdf:type", "dbpr:Film")
            .expand("movie", "dbpp:starring", "actor")
            .expand("movie", "dbpp:language", "language")
            .expand("movie", "dbpp:country", "country")
            .expand("movie", "dbpo:genre", "genre")
            .expand("movie", "dbpp:story", "story")
            .expand("movie", "dbpp:studio", "studio")
            .expand_optional("movie", "dbpo:director", "director")
            .expand_optional("movie", "dbpp:producer", "producer")
            .expand_optional("movie", "dbpp:title", "title"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?movie rdf:type dbpr:Film ;\n\
                      dbpp:starring ?actor ;\n\
                      dbpp:language ?language ;\n\
                      dbpp:country ?country ;\n\
                      dbpo:genre ?genre ;\n\
                      dbpp:story ?story ;\n\
                      dbpp:studio ?studio\n\
               OPTIONAL { ?movie dbpo:director ?director }\n\
               OPTIONAL { ?movie dbpp:producer ?producer }\n\
               OPTIONAL { ?movie dbpp:title ?title }\n}",
        ),
    ));

    // Q14: Q5's filters with optional producer/director/title.
    out.push(q(
        "Q14",
        "Filtered films with optional attributes",
        dbp.seed("?movie", "rdf:type", "dbpr:Film")
            .expand("movie", "dbpp:country", "country")
            .filter("country", &["In(dbpr:India, dbpr:United_States)"])
            .expand("movie", "dbpp:studio", "studio")
            .filter("studio", &["NotIn(dbpr:Eskay_Movies)"])
            .expand("movie", "dbpo:genre", "genre")
            .filter(
                "genre",
                &["In(dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep)"],
            )
            .expand("movie", "dbpp:starring", "actor")
            .expand("movie", "dbpp:language", "language")
            .expand_optional("movie", "dbpp:producer", "producer")
            .expand_optional("movie", "dbpo:director", "director")
            .expand_optional("movie", "dbpp:title", "title"),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?movie rdf:type dbpr:Film ;\n\
                      dbpp:country ?country ;\n\
                      dbpp:studio ?studio ;\n\
                      dbpo:genre ?genre ;\n\
                      dbpp:starring ?actor ;\n\
                      dbpp:language ?language\n\
               OPTIONAL { ?movie dbpp:producer ?producer }\n\
               OPTIONAL { ?movie dbpo:director ?director }\n\
               OPTIONAL { ?movie dbpp:title ?title }\n\
               FILTER ( ?country IN (dbpr:India, dbpr:United_States) )\n\
               FILTER ( ?studio NOT IN (dbpr:Eskay_Movies) )\n\
               FILTER ( ?genre IN (dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep) )\n}",
        ),
    ));

    // Q15: books by American authors who wrote more than two books.
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
    out.push(q(
        "Q15",
        "Books by prolific American authors with author/book attributes",
        books.join(&american_prolific, "author", JoinType::Inner),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?book dbpo:author ?author ;\n\
                     dbpp:title ?title ;\n\
                     dcterms:subject ?subject .\n\
               ?author dbpp:birthPlace ?bplace ;\n\
                       dbpp:country ?country\n\
               OPTIONAL { ?author dbpp:education ?education }\n\
               OPTIONAL { ?book dbpp:publisher ?publisher }\n\
               { SELECT DISTINCT ?author (COUNT(DISTINCT ?book) AS ?book_count)\n\
                 WHERE { ?book dbpo:author ?author .\n\
                         ?author dbpp:birthPlace ?bplace\n\
                         FILTER ( ?bplace = dbpr:United_States ) }\n\
                 GROUP BY ?author\n\
                 HAVING ( COUNT(DISTINCT ?book) > 2 ) }\n}",
        ),
    ));

    // Q16: sort-heavy — every starring pair, fully ordered. Exercises the
    // engine's term-rank ORDER BY (plain variables, no LIMIT, so nothing
    // fuses to TopK and the whole result sorts).
    out.push(q(
        "Q16",
        "All starring pairs sorted by actor then movie",
        dbp.seed("?movie", "dbpp:starring", "?actor")
            .sort(&[("actor", SortOrder::Asc), ("movie", SortOrder::Asc)]),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               ?movie dbpp:starring ?actor\n\
             } ORDER BY ?actor ?movie",
        ),
    ));

    // Q17: star join — two single-pattern groups sharing ?film, each a POS
    // scan with a bound (predicate, object) prefix, so both arrive sorted
    // on ?film and the optimizer's merge-join rewrite fires.
    let films = dbp.seed("?film", "rdf:type", "dbpr:Film");
    let us_films = dbp.seed("?film", "dbpp:country", "dbpr:United_States");
    out.push(q(
        "Q17",
        "US-produced films (star join on film)",
        films.join(&us_films, "film", JoinType::Inner),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               { ?film rdf:type dbpr:Film }\n\
               { ?film dbpp:country dbpr:United_States }\n}",
        ),
    ));

    // Q18: OPTIONAL-heavy — every film, left-joined with its Film_score
    // tag and runtime. Both sides lead with POS scans bound on
    // (predicate, object), so both arrive sorted on ?film and the
    // optimizer's merge-left-join rewrite fires (unmatched films survive
    // with unbound runtime, as OPTIONAL requires).
    let films = dbp.seed("?film", "rdf:type", "dbpr:Film");
    let scored = dbp.seed("?film", "dbpo:genre", "dbpr:Film_score").expand(
        "film",
        "dbpp:runtime",
        "runtime",
    );
    out.push(q(
        "Q18",
        "Films with optional Film_score tag and runtime (merge left join)",
        films.join(&scored, "film", JoinType::Left),
        expert(
            "SELECT * FROM <http://dbpedia.org> WHERE {\n\
               { ?film rdf:type dbpr:Film }\n\
               OPTIONAL { ?film dbpo:genre dbpr:Film_score . ?film dbpp:runtime ?runtime }\n}",
        ),
    ));

    // Q19: sorted aggregation — movie counts per actor off the POS
    // starring scan, whose output arrives sorted on [?actor, ?movie]:
    // GROUP BY ?actor is an order prefix, so grouping degenerates to run
    // detection over raw id columns instead of hashing.
    out.push(q(
        "Q19",
        "Movies per actor (sorted-input aggregation)",
        dbp.seed("?movie", "dbpp:starring", "?actor")
            .group_by(&["actor"])
            .count("movie", "movie_count", true),
        expert(
            "SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count)\n\
             FROM <http://dbpedia.org> WHERE { ?movie dbpp:starring ?actor }\n\
             GROUP BY ?actor",
        ),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::data;
    use rdfframes_core::reference::compare_unordered;

    #[test]
    fn all_queries_generate_parseable_sparql() {
        for def in all_queries() {
            let optimized = def.frame.to_sparql().unwrap();
            sparql_engine::parser::parse_query(&optimized)
                .unwrap_or_else(|e| panic!("{} optimized rejected: {e}\n{optimized}", def.id));
            let naive = def.frame.to_naive_sparql().unwrap();
            sparql_engine::parser::parse_query(&naive)
                .unwrap_or_else(|e| panic!("{} naive rejected: {e}\n{naive}", def.id));
            sparql_engine::parser::parse_query(&def.expert)
                .unwrap_or_else(|e| panic!("{} expert rejected: {e}\n{}", def.id, def.expert));
        }
    }

    #[test]
    fn rdfframes_matches_expert_on_all_queries() {
        let ds = data::build_dataset(200);
        let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));
        for def in all_queries() {
            let ours = baselines::rdfframes(&def.frame, &endpoint)
                .unwrap_or_else(|e| panic!("{} rdfframes failed: {e}", def.id));
            let expert = baselines::expert_sparql(&def.expert, &endpoint)
                .unwrap_or_else(|e| panic!("{} expert failed: {e}", def.id));
            // Project onto the expert's columns (RDFFrames may expose
            // helper columns like aggregation inputs).
            let cols: Vec<&str> = expert.columns().iter().map(String::as_str).collect();
            let ours_proj = ours.select(&cols);
            compare_unordered(&ours_proj, &expert)
                .unwrap_or_else(|e| panic!("{} mismatch: {e}", def.id));
            assert!(
                !ours.is_empty(),
                "{} returned no rows at test scale",
                def.id
            );
        }
    }

    #[test]
    fn naive_matches_optimized_on_all_queries() {
        let ds = data::build_dataset(150);
        let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));
        for def in all_queries() {
            let ours = baselines::rdfframes(&def.frame, &endpoint).unwrap();
            let naive = baselines::naive(&def.frame, &endpoint)
                .unwrap_or_else(|e| panic!("{} naive failed: {e}", def.id));
            compare_unordered(&ours, &naive)
                .unwrap_or_else(|e| panic!("{} naive mismatch: {e}", def.id));
        }
    }
}
