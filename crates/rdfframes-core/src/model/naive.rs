//! Naive query generation — the evaluation baseline of Section 6.3.
//!
//! "For each API call to RDFFrames, we generate a subquery that contains the
//! pattern corresponding to that API call and we finally join all the
//! subqueries in one level of nesting with one outer query." This mirrors
//! the appendix C/D queries: every seed/expand gets its own single-pattern
//! `SELECT` subquery, every filter gets a subquery repeating the pattern
//! that binds its column plus the `FILTER`, and grouping wraps everything
//! accumulated so far in a grouped subquery.
//!
//! The one deliberate deviation: optional expands attach their `OPTIONAL`
//! at the outer level rather than inside a subquery, keeping the naive
//! query semantically equivalent to the optimized one (the paper verifies
//! all alternatives return identical results).

use crate::api::knowledge_graph::KnowledgeGraph;
use crate::api::operators::{Direction, JoinType, Node, Operator};
use crate::api::rdfframe::RDFFrame;
use crate::error::Result;

use super::generator::base_model;
use super::{AggSpec, FilterSpec, OptionalBlock, QueryModel, TriplePat};

/// Build the naive query model for a frame.
pub fn build_naive_model(frame: &RDFFrame) -> Result<QueryModel> {
    naive_ops(frame.graph(), frame.operators())
}

fn pattern_subquery(t: TriplePat, context: &QueryModel) -> QueryModel {
    let mut sub = QueryModel {
        prefixes: context.prefixes.clone(),
        graphs: context.graphs.clone(),
        ..Default::default()
    };
    sub.select = [&t.subject, &t.predicate, &t.object]
        .into_iter()
        .filter_map(|n| n.as_var().map(str::to_string))
        .collect();
    sub.triples.push(t);
    sub
}

fn triple_for_expand(
    src: &str,
    predicate: &str,
    dst: &str,
    direction: Direction,
    graph: &str,
) -> TriplePat {
    let (s, o) = match direction {
        Direction::Out => (src, dst),
        Direction::In => (dst, src),
    };
    let predicate = match predicate.strip_prefix('?') {
        Some(v) => Node::Var(v.to_string()),
        None => Node::Term(predicate.to_string()),
    };
    TriplePat {
        subject: Node::Var(s.to_string()),
        predicate,
        object: Node::Var(o.to_string()),
        graph: graph.to_string(),
    }
}

/// Find the triple pattern (from earlier operators) that binds `column`.
fn binding_pattern(ops: &[Operator], column: &str, graph: &str) -> Option<TriplePat> {
    for op in ops {
        match op {
            Operator::Seed {
                subject,
                predicate,
                object,
            } => {
                let t = TriplePat {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object: object.clone(),
                    graph: graph.to_string(),
                };
                if [&t.subject, &t.predicate, &t.object]
                    .into_iter()
                    .any(|n| n.as_var() == Some(column))
                {
                    return Some(t);
                }
            }
            Operator::Expand {
                src,
                predicate,
                dst,
                direction,
                ..
            } if dst == column || src == column => {
                return Some(triple_for_expand(src, predicate, dst, *direction, graph));
            }
            _ => {}
        }
    }
    None
}

fn naive_ops(graph: &KnowledgeGraph, ops: &[Operator]) -> Result<QueryModel> {
    let mut m = base_model(graph);
    let graph_uri = graph.uri().to_string();
    let mut pending_group: Vec<String> = Vec::new();
    let mut seen: Vec<Operator> = Vec::new();
    // Once grouping or a join changes the visible schema, repeating a
    // binding pattern for a filter would re-expose consumed variables (and
    // change multiplicities); from then on filters stay at the outer level.
    let mut simple_prefix = true;

    for op in ops {
        match op {
            Operator::Seed {
                subject,
                predicate,
                object,
            } => {
                let t = TriplePat {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object: object.clone(),
                    graph: graph_uri.clone(),
                };
                let sub = pattern_subquery(t, &m);
                m.subqueries.push(sub);
            }
            Operator::Expand {
                src,
                predicate,
                dst,
                direction,
                optional,
            } => {
                let t = triple_for_expand(src, predicate, dst, *direction, &graph_uri);
                if *optional {
                    m.optionals.push(OptionalBlock {
                        triples: vec![t],
                        filters: vec![],
                    });
                } else {
                    let sub = pattern_subquery(t, &m);
                    m.subqueries.push(sub);
                }
                if !m.select.is_empty() && !m.select.contains(dst) {
                    m.select.push(dst.clone());
                }
            }
            Operator::Filter { column, conditions } => {
                let spec = FilterSpec::Col {
                    column: column.clone(),
                    conditions: conditions.clone(),
                };
                match binding_pattern(&seen, column, &graph_uri).filter(|_| simple_prefix) {
                    Some(t) => {
                        let mut sub = pattern_subquery(t, &m);
                        sub.filters.push(spec);
                        m.subqueries.push(sub);
                    }
                    None => {
                        // Aggregate alias or join output: outer-level FILTER.
                        m.filters.push(spec);
                    }
                }
            }
            Operator::FilterRaw(expr) => {
                m.filters.push(FilterSpec::Raw(expr.clone()));
            }
            Operator::SelectCols(cols) => {
                m.select = cols.clone();
            }
            Operator::GroupBy(keys) => {
                pending_group = keys.clone();
            }
            Operator::Aggregation {
                func,
                src,
                alias,
                distinct,
            } => {
                // Wrap everything accumulated so far into a grouped
                // subquery (the appendix-D shape).
                let was_grouped = m.is_grouped();
                let mut grouped = if was_grouped {
                    // A second aggregation over the same group: extend the
                    // existing grouped model.
                    m
                } else {
                    let mut g = std::mem::take(&mut m);
                    g.group_by = std::mem::take(&mut pending_group);
                    g
                };
                grouped.aggregates.push(AggSpec {
                    func: *func,
                    distinct: *distinct,
                    src: src.clone(),
                    alias: alias.clone(),
                });
                grouped.select = grouped.group_by.clone();
                grouped
                    .select
                    .extend(grouped.aggregates.iter().map(|a| a.alias.clone()));
                grouped.distinct = true;
                simple_prefix = false;
                if was_grouped {
                    m = grouped;
                } else {
                    m = QueryModel {
                        prefixes: grouped.prefixes.clone(),
                        graphs: grouped.graphs.clone(),
                        ..Default::default()
                    };
                    m.subqueries.push(grouped);
                }
            }
            Operator::Join {
                other,
                col,
                col2,
                jtype,
                new_col,
            } => {
                let mut m2 = naive_ops(other.graph(), other.operators())?;
                let join_name = new_col.clone().unwrap_or_else(|| col.clone());
                m.rename_var(col, &join_name);
                m2.rename_var(col2, &join_name);
                m.absorb_context(&m2);
                m2.absorb_context(&m);
                let mut outer = QueryModel {
                    prefixes: m.prefixes.clone(),
                    graphs: m.graphs.clone(),
                    ..Default::default()
                };
                match jtype {
                    JoinType::Inner => {
                        outer.subqueries.push(m);
                        outer.subqueries.push(m2);
                    }
                    JoinType::Left => {
                        outer.subqueries.push(m);
                        outer.optional_subqueries.push(m2);
                    }
                    JoinType::Right => {
                        outer.subqueries.push(m2);
                        outer.optional_subqueries.push(m);
                    }
                    JoinType::Outer => {
                        let mut b1 = QueryModel {
                            prefixes: outer.prefixes.clone(),
                            graphs: outer.graphs.clone(),
                            ..Default::default()
                        };
                        b1.subqueries.push(m.clone());
                        b1.optional_subqueries.push(m2.clone());
                        let mut b2 = QueryModel {
                            prefixes: outer.prefixes.clone(),
                            graphs: outer.graphs.clone(),
                            ..Default::default()
                        };
                        b2.subqueries.push(m2);
                        b2.optional_subqueries.push(m);
                        outer.unions.push(b1);
                        outer.unions.push(b2);
                    }
                }
                m = outer;
                simple_prefix = false;
            }
            Operator::Sort(keys) => {
                m.order_by = keys.clone();
            }
            Operator::Head { k, offset } => {
                m.limit = Some(*k);
                if *offset > 0 {
                    m.offset = Some(*offset);
                }
            }
            Operator::Cache => {}
        }
        seen.push(op.clone());
    }
    Ok(m)
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
    fn each_expand_gets_its_own_subquery() {
        let f = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country")
            .expand("movie", "dbpp:country", "movie_country");
        let m = build_naive_model(&f).unwrap();
        assert_eq!(m.subqueries.len(), 3);
        for sub in &m.subqueries {
            assert_eq!(sub.triples.len(), 1);
        }
    }

    #[test]
    fn filter_repeats_binding_pattern() {
        let f = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country")
            .filter("country", &["=dbpr:United_States"]);
        let m = build_naive_model(&f).unwrap();
        // seed + expand + filter-with-pattern = 3 subqueries.
        assert_eq!(m.subqueries.len(), 3);
        let last = m.subqueries.last().unwrap();
        assert_eq!(last.triples.len(), 1);
        assert_eq!(last.filters.len(), 1);
    }

    #[test]
    fn grouping_wraps_accumulated_subqueries() {
        let f = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country")
            .group_by(&["actor"])
            .count("movie", "n", true)
            .filter("n", &[">=5"]);
        let m = build_naive_model(&f).unwrap();
        // The grouped subquery holds the two pattern subqueries.
        assert_eq!(m.subqueries.len(), 1);
        let grouped = &m.subqueries[0];
        assert!(grouped.is_grouped());
        assert_eq!(grouped.subqueries.len(), 2);
        // The aggregate filter lands at the outer level.
        assert_eq!(m.filters.len(), 1);
    }

    #[test]
    fn naive_query_parses_in_engine() {
        let g = graph();
        let movies = g.feature_domain_range("dbpp:starring", "movie", "actor");
        let f = movies
            .clone()
            .expand("actor", "dbpp:birthPlace", "country")
            .filter("country", &["=dbpr:United_States"])
            .group_by(&["actor"])
            .count("movie", "n", true)
            .filter("n", &[">=5"])
            .join(&movies, "actor", crate::api::JoinType::Inner);
        let q = f.to_naive_sparql().unwrap();
        sparql_engine::parser::parse_query(&q)
            .unwrap_or_else(|e| panic!("engine rejected naive query:\n{q}\n{e}"));
    }
}
