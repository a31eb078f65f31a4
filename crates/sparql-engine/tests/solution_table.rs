//! A [`SolutionTable`] means its rows, whatever its dictionary looks like.
//! One row model is built three ways — row by row (`push_row`), from a
//! cursor's id batches through the engine's one remap kernel
//! ([`CodeRemap`], at several batch sizes, and `execute_prepared`'s own use
//! of it), and by hand over a dictionary with every term twice, permuted,
//! plus an entry nothing references — and every build must:
//!
//! - read back as the model, cell for cell (`rows()`, `column()`);
//! - compare equal to another build exactly when the two models are equal;
//! - sort under `canonicalize` as the model sorts.
//!
//! The unit table (no columns, one row) and empty tables are in the input
//! space, and a row of the wrong width is refused without touching the table.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::{Dataset, Graph, Literal, Term, Triple};
use sparql_engine::{CodeRemap, Engine, SolutionTable, WidthError};

type Model = Vec<Vec<Option<Term>>>;

fn pool() -> Vec<Term> {
    vec![
        Term::iri("http://x/a"),
        Term::iri("http://x/b"),
        Term::blank("b0"),
        Term::string("a"),
        Term::string("b"),
        Term::integer(1),
        Term::integer(2),
        Term::from(Literal::lang_string("a", "en")),
        Term::from(Literal::double(2.5)),
        Term::from(Literal::boolean(true)),
        Term::from(Literal::date_time("2020-01-01T00:00:00")),
    ]
}

fn vars(width: usize) -> Vec<String> {
    (0..width).map(|c| format!("v{c}")).collect()
}

/// Pick `k` is unbound for a third of the values, else a pool term.
fn cell(k: usize) -> Option<Term> {
    let pool = pool();
    (!k.is_multiple_of(3)).then(|| pool[k / 3 % pool.len()].clone())
}

/// A model of `width` columns, and a second one: the same, or with one cell
/// changed (a row added, for zero columns).
fn models(width: usize, picks: &[Vec<usize>], change: usize) -> (Model, Model) {
    let model: Model = (picks.iter())
        .map(|row| row[..width].iter().map(|&k| cell(k)).collect())
        .collect();
    let mut other = model.clone();
    if !change.is_multiple_of(2) {
        match (width, other.len()) {
            (0, _) => other.push(Vec::new()),
            (_, 0) => other.push(vec![None; width]),
            (_, rows) => {
                let at = &mut other[change / 2 % rows][change / 2 % width];
                *at = match at {
                    Some(_) => None,
                    None => cell(1),
                };
            }
        }
    }
    (model, other)
}

fn pushed(width: usize, model: &Model) -> SolutionTable {
    let mut t = SolutionTable::with_vars(vars(width));
    for row in model {
        t.push_row(row.clone()).unwrap();
    }
    t
}

/// Over a dictionary holding the pool rotated by `seed` (reversed too when
/// `seed` is odd), then the pool again, then an entry nothing references;
/// each cell picks one of its term's two codes.
fn by_hand(width: usize, model: &Model, seed: usize) -> SolutionTable {
    let pool = pool();
    let mut first = pool.clone();
    first.rotate_left(seed % pool.len());
    if !seed.is_multiple_of(2) {
        first.reverse();
    }
    let mut dict = first.clone();
    dict.extend(pool.iter().cloned());
    dict.push(Term::iri("http://x/unreferenced"));
    let code = |term: &Term, twice: bool| {
        let at = if twice {
            first.len() + pool.iter().position(|t| t == term).unwrap()
        } else {
            first.iter().position(|t| t == term).unwrap()
        };
        at as u32 + 1
    };
    let codes = (0..width)
        .map(|c| {
            (model.iter().enumerate())
                .map(|(r, row)| {
                    row[c]
                        .as_ref()
                        .map_or(0, |t| code(t, (r + c + seed).is_multiple_of(2)))
                })
                .collect()
        })
        .collect();
    SolutionTable::from_columns(vars(width), dict, codes, model.len()).unwrap()
}

/// The model stored as a graph — row `i` is `<r_i> <rank> i` plus
/// `<r_i> <c_j> term` per bound cell — and the query that reads it back in
/// row order.
fn stored(width: usize, model: &Model) -> (Engine, String) {
    let mut g = Graph::new();
    let iri = |s: String| Term::iri(format!("http://x/{s}"));
    for (i, row) in model.iter().enumerate() {
        let subject = iri(format!("r{i}"));
        g.insert(&Triple::new(
            subject.clone(),
            iri("rank".into()),
            Term::integer(i as i64),
        ));
        for (c, term) in row.iter().enumerate() {
            if let Some(term) = term {
                g.insert(&Triple::new(
                    subject.clone(),
                    iri(format!("c{c}")),
                    term.clone(),
                ));
            }
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph("http://g", g);
    let projection: String = vars(width).iter().map(|v| format!(" ?{v}")).collect();
    let optionals: String = (0..width)
        .map(|c| format!(" OPTIONAL {{ ?r <http://x/c{c}> ?v{c} }}"))
        .collect();
    let query =
        format!("SELECT{projection} WHERE {{ ?r <http://x/rank> ?k{optionals} }} ORDER BY ?k");
    (Engine::new(Arc::new(ds)), query)
}

/// A cursor's batches of `batch` rows, through the kernel.
fn through_kernel(engine: &Engine, query: &str, batch: usize) -> SolutionTable {
    let prepared = engine.prepare(query).unwrap();
    let mut cursor = engine.cursor(&prepared, batch).unwrap();
    let vars = cursor.vars().to_vec();
    let mut remap = CodeRemap::new(vars.len());
    let (mut dict, mut codes, mut len) = (Vec::new(), vec![Vec::new(); vars.len()], 0);
    while let Some(b) = cursor.next_batch().unwrap() {
        remap.extend(&b, &mut codes, |term| {
            dict.push(term.clone());
            dict.len() as u32
        });
        len += b.len;
    }
    SolutionTable::from_columns(vars, dict, codes, len).unwrap()
}

/// Every build of `model`, named.
fn builds(width: usize, model: &Model, seed: usize) -> Vec<(String, SolutionTable)> {
    let mut out = vec![
        ("push_row".to_string(), pushed(width, model)),
        ("by hand".to_string(), by_hand(width, model, seed)),
    ];
    // A query needs a column to project; the zero-column shapes are covered
    // by the other two builds and the unit-table checks.
    if width > 0 {
        let (engine, query) = stored(width, model);
        for batch in [1, 3, usize::MAX] {
            out.push((
                format!("kernel, batch {batch}"),
                through_kernel(&engine, &query, batch),
            ));
        }
        let prepared = engine.prepare(&query).unwrap();
        out.push((
            "execute_prepared".into(),
            engine.execute_prepared(&prepared, None).unwrap().0,
        ));
    }
    out
}

fn order(a: &[Option<Term>], b: &[Option<Term>]) -> Ordering {
    (a.iter().zip(b))
        .map(|pair| match pair {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => x.order_cmp(y),
        })
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

fn rows(t: &SolutionTable) -> Model {
    t.rows().map(|r| r.to_vec()).collect()
}

/// `t` reads back as `model`, cell for cell, by row and by column.
fn reads_as(t: &SolutionTable, width: usize, model: &Model) -> Result<(), String> {
    let names = vars(width);
    prop_assert_eq!(t.vars(), names.as_slice());
    prop_assert_eq!(t.len(), model.len());
    prop_assert_eq!(&rows(t), model);
    for (row, want) in t.rows().zip(model) {
        prop_assert!(row.iter().eq(want.iter().map(Option::as_ref)));
    }
    for (c, v) in names.iter().enumerate() {
        let column: Vec<Option<&Term>> = t.column(v).unwrap().collect();
        let want: Vec<Option<&Term>> = model.iter().map(|r| r[c].as_ref()).collect();
        prop_assert_eq!(column, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_tables_meaning_is_independent_of_its_dictionary(
        width in 0usize..4,
        picks in proptest::collection::vec(proptest::collection::vec(0usize..100, 3), 0..8),
        change in 0usize..64,
        seed in 0usize..64,
    ) {
        let (model, other) = models(width, &picks, change);
        let ours = builds(width, &model, seed);
        let theirs = builds(width, &other, seed + 1);
        let mut sorted = model.clone();
        sorted.sort_by(|a, b| order(a, b));
        let distinct = model.iter().flatten().flatten().collect::<HashSet<&Term>>().len();

        for (name, t) in &ours {
            reads_as(t, width, &model).map_err(|e| format!("{name}: {e}"))?;
            if name.starts_with("kernel") || name == "execute_prepared" {
                // The kernel stores each distinct term once.
                prop_assert_eq!(t.dictionary().len(), distinct, "{}", name);
            }
            for (other_name, u) in &ours {
                prop_assert!(t == u, "{} vs {}", name, other_name);
            }
            for (other_name, u) in &theirs {
                prop_assert_eq!(t == u, model == other, "{} vs the other model's {}", name, other_name);
            }

            let mut canonical = t.clone();
            canonical.canonicalize();
            prop_assert_eq!(&rows(&canonical), &sorted, "{}", name);
            prop_assert_eq!(canonical.dictionary(), t.dictionary(), "{}", name);

            // A row of the wrong width is refused and changes nothing.
            let mut refused = t.clone();
            for bad in [width + 1, width.wrapping_sub(1)].into_iter().filter(|&w| w < 8) {
                let row = vec![Some(Term::integer(9)); bad];
                prop_assert_eq!(
                    refused.push_row(row),
                    Err(WidthError { got: bad, want: width })
                );
                prop_assert_eq!(refused.dictionary(), t.dictionary());
                prop_assert_eq!(refused.blocks(), t.blocks());
                prop_assert_eq!(refused.len(), t.len());
            }
        }

        // No columns: one row is the unit table; no rows is the empty one.
        if width == 0 {
            let t = &ours[0].1;
            prop_assert_eq!(t == &SolutionTable::unit(), model.len() == 1);
            prop_assert_eq!(t == &SolutionTable::with_vars(Vec::new()), model.is_empty());
        }
        if model.is_empty() {
            prop_assert_eq!(&ours[0].1, &SolutionTable::with_vars(vars(width)));
        }
    }
}
