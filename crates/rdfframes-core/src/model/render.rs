//! SPARQL rendering: the paper's *Translator* (Section 4.3).
//!
//! Walks a [`QueryModel`] and emits formatted SPARQL. Single-graph queries
//! use a `FROM` clause with plain patterns; cross-graph queries wrap every
//! pattern (recursively) in `GRAPH <uri>` blocks so each matches its origin
//! graph.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::api::operators::{Node, SortOrder};

use super::{FilterSpec, QueryModel, TriplePat};

/// Render a query model to SPARQL text.
pub fn render(model: &QueryModel) -> String {
    let mut graphs = BTreeSet::new();
    collect_graphs(model, &mut graphs);
    let multi_graph = graphs.len() > 1;

    let mut out = String::new();
    for (prefix, ns) in &model.prefixes {
        let _ = writeln!(out, "PREFIX {prefix}: <{ns}>");
    }
    render_select(model, &mut out, 0, true, multi_graph);
    out
}

fn collect_graphs(m: &QueryModel, out: &mut BTreeSet<String>) {
    for t in &m.triples {
        out.insert(t.graph.clone());
    }
    for ob in &m.optionals {
        for t in &ob.triples {
            out.insert(t.graph.clone());
        }
    }
    for sub in m
        .subqueries
        .iter()
        .chain(&m.optional_subqueries)
        .chain(&m.unions)
    {
        collect_graphs(sub, out);
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Render a node as a SPARQL term.
fn render_node(node: &Node) -> String {
    match node {
        Node::Var(v) => format!("?{v}"),
        Node::Term(t) => render_term(t),
    }
}

/// Render a constant written in API syntax.
pub(crate) fn render_term(t: &str) -> String {
    if t.starts_with('<') || t.starts_with('"') {
        return t.to_string();
    }
    if t.starts_with("http://") || t.starts_with("https://") || t.starts_with("urn:") {
        return format!("<{t}>");
    }
    if t.parse::<f64>().is_ok() {
        return t.to_string();
    }
    t.to_string() // CURIE
}

fn render_select(model: &QueryModel, out: &mut String, level: usize, top: bool, multi_graph: bool) {
    indent(out, level);
    out.push_str("SELECT ");
    if model.distinct {
        out.push_str("DISTINCT ");
    }
    let select_names: Vec<String> = if model.select.is_empty() {
        if model.is_grouped() {
            let mut names = model.group_by.clone();
            names.extend(model.aggregates.iter().map(|a| a.alias.clone()));
            names
        } else {
            Vec::new()
        }
    } else {
        model.select.clone()
    };
    if select_names.is_empty() {
        out.push('*');
    } else {
        let rendered: Vec<String> = select_names
            .iter()
            .map(
                |name| match model.aggregates.iter().find(|a| &a.alias == name) {
                    Some(agg) => format!("({} AS ?{})", agg.render_expr(), agg.alias),
                    None => format!("?{name}"),
                },
            )
            .collect();
        out.push_str(&rendered.join(" "));
    }
    out.push('\n');

    if top && !multi_graph {
        for g in &model.graphs {
            indent(out, level);
            let _ = writeln!(out, "FROM <{g}>");
        }
    }

    indent(out, level);
    out.push_str("WHERE {\n");
    render_body(model, out, level + 1, multi_graph);
    indent(out, level);
    out.push('}');
    out.push('\n');

    if !model.group_by.is_empty() {
        indent(out, level);
        let keys: Vec<String> = model.group_by.iter().map(|k| format!("?{k}")).collect();
        let _ = writeln!(out, "GROUP BY {}", keys.join(" "));
    }
    for h in &model.having {
        indent(out, level);
        let _ = writeln!(out, "HAVING ( {} )", render_having(model, h));
    }
    if !model.order_by.is_empty() {
        indent(out, level);
        let keys: Vec<String> = model
            .order_by
            .iter()
            .map(|(col, ord)| match ord {
                SortOrder::Asc => format!("ASC(?{col})"),
                SortOrder::Desc => format!("DESC(?{col})"),
            })
            .collect();
        let _ = writeln!(out, "ORDER BY {}", keys.join(" "));
    }
    if let Some(limit) = model.limit {
        indent(out, level);
        let _ = writeln!(out, "LIMIT {limit}");
    }
    if let Some(offset) = model.offset {
        indent(out, level);
        let _ = writeln!(out, "OFFSET {offset}");
    }
}

fn render_triples(triples: &[TriplePat], out: &mut String, level: usize, multi_graph: bool) {
    if !multi_graph {
        for t in triples {
            indent(out, level);
            let _ = writeln!(
                out,
                "{} {} {} .",
                render_node(&t.subject),
                render_node(&t.predicate),
                render_node(&t.object)
            );
        }
        return;
    }
    // Group consecutive same-graph triples into one GRAPH block.
    let mut i = 0;
    while i < triples.len() {
        let g = &triples[i].graph;
        let mut j = i;
        while j < triples.len() && &triples[j].graph == g {
            j += 1;
        }
        indent(out, level);
        let _ = writeln!(out, "GRAPH <{g}> {{");
        for t in &triples[i..j] {
            indent(out, level + 1);
            let _ = writeln!(
                out,
                "{} {} {} .",
                render_node(&t.subject),
                render_node(&t.predicate),
                render_node(&t.object)
            );
        }
        indent(out, level);
        out.push_str("}\n");
        i = j;
    }
}

fn render_filter(f: &FilterSpec) -> String {
    match f {
        FilterSpec::Col { column, conditions } => {
            let parts: Vec<String> = conditions.iter().map(|c| c.render(column)).collect();
            parts.join(" && ")
        }
        FilterSpec::Raw(raw) => raw.clone(),
    }
}

/// HAVING filters reference aggregate aliases; SPARQL requires the
/// aggregate *expression* there, so substitute it back in.
fn render_having(model: &QueryModel, f: &FilterSpec) -> String {
    match f {
        FilterSpec::Col { column, conditions } => {
            let lhs = match model.aggregates.iter().find(|a| &a.alias == column) {
                Some(agg) => agg.render_expr(),
                None => format!("?{column}"),
            };
            let parts: Vec<String> = conditions.iter().map(|c| c.render_with_lhs(&lhs)).collect();
            parts.join(" && ")
        }
        FilterSpec::Raw(raw) => raw.clone(),
    }
}

fn render_body(model: &QueryModel, out: &mut String, level: usize, multi_graph: bool) {
    render_triples(&model.triples, out, level, multi_graph);

    for sub in &model.subqueries {
        indent(out, level);
        out.push_str("{\n");
        render_select(sub, out, level + 1, false, multi_graph);
        indent(out, level);
        out.push_str("}\n");
    }
    // Unions render before any OPTIONALs: a union always originates from a
    // full-outer-join that *created* this model, so everything else in the
    // model was recorded later — and OPTIONAL (left join) is order-sensitive.
    if !model.unions.is_empty() {
        for (i, branch) in model.unions.iter().enumerate() {
            if i > 0 {
                indent(out, level);
                out.push_str("UNION\n");
            }
            indent(out, level);
            out.push_str("{\n");
            // A union branch is a full query model; render its body (or a
            // nested SELECT when it has its own projection/aggregation).
            if branch.is_grouped() || !branch.select.is_empty() || branch.has_modifiers() {
                render_select(branch, out, level + 1, false, multi_graph);
            } else {
                render_body(branch, out, level + 1, multi_graph);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
    for sub in &model.optional_subqueries {
        indent(out, level);
        out.push_str("OPTIONAL {\n");
        render_select(sub, out, level + 1, false, multi_graph);
        indent(out, level);
        out.push_str("}\n");
    }
    for ob in &model.optionals {
        indent(out, level);
        out.push_str("OPTIONAL {\n");
        render_triples(&ob.triples, out, level + 1, multi_graph);
        for f in &ob.filters {
            indent(out, level + 1);
            let _ = writeln!(out, "FILTER ( {} )", render_filter(f));
        }
        indent(out, level);
        out.push_str("}\n");
    }
    for f in &model.filters {
        indent(out, level);
        let _ = writeln!(out, "FILTER ( {} )", render_filter(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::KnowledgeGraph;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::new("http://dbpedia.org")
            .with_prefix("dbpp", "http://dbpedia.org/property/")
            .with_prefix("dbpr", "http://dbpedia.org/resource/")
    }

    #[test]
    fn renders_prefixes_from_and_patterns() {
        let f = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .filter("actor", &["isURI"]);
        let q = f.to_sparql().unwrap();
        assert!(
            q.contains("PREFIX dbpp: <http://dbpedia.org/property/>"),
            "{q}"
        );
        assert!(q.contains("FROM <http://dbpedia.org>"), "{q}");
        assert!(q.contains("?movie dbpp:starring ?actor ."), "{q}");
        assert!(q.contains("FILTER ( isIRI(?actor) )"), "{q}");
    }

    #[test]
    fn renders_group_and_having_with_expression() {
        let f = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .group_by(&["actor"])
            .count("movie", "movie_count", true)
            .filter("movie_count", &[">=50"]);
        let q = f.to_sparql().unwrap();
        assert!(
            q.contains("SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count)"),
            "{q}"
        );
        assert!(q.contains("GROUP BY ?actor"), "{q}");
        assert!(q.contains("HAVING ( COUNT(DISTINCT ?movie) >= 50 )"), "{q}");
    }

    #[test]
    fn renders_optional_blocks() {
        let f = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand_optional("movie", "dbpp:genre", "genre");
        let q = f.to_sparql().unwrap();
        assert!(q.contains("OPTIONAL {"), "{q}");
        assert!(q.contains("?movie dbpp:genre ?genre ."), "{q}");
    }

    #[test]
    fn renders_term_kinds() {
        assert_eq!(render_term("dbpr:USA"), "dbpr:USA");
        assert_eq!(render_term("http://x/a"), "<http://x/a>");
        assert_eq!(render_term("<http://x/a>"), "<http://x/a>");
        assert_eq!(render_term("\"lit\""), "\"lit\"");
        assert_eq!(render_term("42"), "42");
    }

    #[test]
    fn multi_graph_uses_graph_blocks() {
        let dbp = graph();
        let yago = KnowledgeGraph::new("http://yago-knowledge.org");
        let a = dbp.feature_domain_range("dbpp:starring", "movie", "actor");
        let b = yago.seed("?actor", "rdf:type", "<http://yago/Actor>");
        let j = a.join(&b, "actor", crate::api::JoinType::Inner);
        let q = j.to_sparql().unwrap();
        assert!(q.contains("GRAPH <http://dbpedia.org> {"), "{q}");
        assert!(q.contains("GRAPH <http://yago-knowledge.org> {"), "{q}");
        assert!(!q.contains("FROM"), "{q}");
    }

    /// Renders to SPARQL that parses and translates: every shape the
    /// generator produces, and the condition vocabulary, through the
    /// engine's `parse_query → translate_query` — the one translator the
    /// wire and embedded paths share.
    #[test]
    fn generated_sparql_parses_in_engine() {
        let g = graph().with_prefix("dbpo", "http://dbpedia.org/ontology/");
        let movies = g.feature_domain_range("dbpp:starring", "movie", "actor");
        let runtimes = movies.clone().expand("movie", "dbpp:runtime", "rt");
        let yago = KnowledgeGraph::new("http://yago-knowledge.org")
            .with_prefix("y", "http://yago-knowledge.org/resource/");
        let frames = vec![
            movies.clone(),
            movies
                .clone()
                .expand("actor", "dbpp:birthPlace", "country")
                .filter("country", &["=dbpr:United_States"]),
            // Optional, union, sort, head, projection.
            movies
                .clone()
                .expand_optional("movie", "dbpo:genre", "genre"),
            movies.clone().join(
                &g.feature_domain_range("dbpp:academyAward", "actor", "award"),
                "actor",
                crate::api::JoinType::Outer,
            ),
            movies
                .clone()
                .sort(&[("movie", crate::api::SortOrder::Desc)])
                .head(10),
            movies.clone().select_cols(&["actor"]),
            // Grouped HAVING, and a nested subquery after a group.
            movies
                .clone()
                .group_by(&["actor"])
                .count("movie", "movie_count", true)
                .filter("movie_count", &[">=50"]),
            movies
                .clone()
                .group_by(&["actor"])
                .count("movie", "n", true)
                .expand("actor", "dbpp:birthPlace", "c"),
            movies.clone().join(
                &movies
                    .clone()
                    .group_by(&["actor"])
                    .count("movie", "n", false),
                "actor",
                crate::api::JoinType::Inner,
            ),
            // Cross-graph join.
            movies.clone().join(
                &yago.seed("?actor", "rdf:type", "y:Actor"),
                "actor",
                crate::api::JoinType::Inner,
            ),
            // The condition vocabulary.
            movies.clone().filter("actor", &["isURI"]),
            movies.clone().filter("actor", &["regex(\"Smith\", \"i\")"]),
            movies
                .clone()
                .filter("actor", &["In(dbpr:A, dbpr:B)", "NotIn(dbpr:C)"]),
            movies.clone().filter("movie", &["!=dbpr:Some_Movie"]),
            runtimes.clone().filter("rt", &[">=100", "<250"]),
            movies
                .clone()
                .expand("movie", "dbpp:released", "date")
                .filter("date", &["year>=2005"]),
            movies
                .clone()
                .filter_raw("year(xsd:dateTime(?movie)) >= 2005 || isIRI(?actor)"),
            // Names outside ASCII.
            movies
                .expand("actor", "dbpp:birthPlace", "lieu_né")
                .filter("lieu_né", &["=dbpr:Zürich"]),
            // Negative and float values.
            runtimes.clone().filter("rt", &[">=-10"]),
            runtimes.filter("rt", &["<99.5"]),
        ];
        for f in frames {
            let q = f.to_sparql().unwrap();
            let parsed = sparql_engine::parser::parse_query(&q)
                .unwrap_or_else(|e| panic!("engine rejected generated query:\n{q}\n{e}"));
            sparql_engine::algebra::translate_query(&parsed)
                .unwrap_or_else(|e| panic!("engine could not translate:\n{q}\n{e}"));
        }
    }
}
