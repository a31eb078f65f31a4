//! Conversion between engine results and dataframes.
//!
//! A [`DataFrame`] and a [`SolutionTable`] are one type, a
//! [`dataframe::Coded`] table, over cells and over terms, so both
//! converters convert once per *distinct* value and copy codes:
//!
//! - [`cursor_to_dataframe`] (the embedded path) is the engine's one drain
//!   loop, [`QueryCursor::drain`], making a cell where `execute_prepared`
//!   clones a term;
//! - [`table_to_dataframe`] / [`append_table`] (the wire path) convert each
//!   dictionary entry once and write the code columns through that remap in
//!   place. The page's builder already deduplicated it (the executor by id,
//!   the decoders by raw slice), and a table is rectangular by
//!   construction, so nothing is checked per row.

use dataframe::{AppendError, Cell, DataFrame};
use rdf_model::term::TypedValue;
use rdf_model::Term;
use sparql_engine::{QueryCursor, SolutionTable};

use crate::client::engine_error;
use crate::error::{FrameError, Result};

/// Convert one RDF term to a dataframe cell, preserving URI-ness and
/// numeric/boolean typing.
pub fn term_to_cell(term: &Term) -> Cell {
    match term {
        Term::Iri(i) => Cell::uri(i.clone()),
        Term::Blank(b) => Cell::uri(format!("_:{b}")),
        Term::Literal(l) => match l.parsed {
            TypedValue::Integer(i) => Cell::Int(i),
            TypedValue::Double(d) => Cell::Float(d),
            TypedValue::Boolean(b) => Cell::Bool(b),
            _ => Cell::str(l.lexical.clone()),
        },
    }
}

/// Convert a whole solution table.
pub fn table_to_dataframe(table: &SolutionTable) -> Result<DataFrame> {
    let mut df = DataFrame::new(table.vars().to_vec());
    append_rows(&mut df, table)?;
    Ok(df)
}

fn bad_block(e: AppendError) -> FrameError {
    FrameError::Transport(format!("malformed result chunk: {e}"))
}

/// Drain a [`QueryCursor`] into a dataframe, mapping each batch's id
/// columns straight to dictionary codes (no intermediate [`SolutionTable`],
/// no per-cell term materialization, nothing allocated per row or per cell).
pub fn cursor_to_dataframe(cursor: &mut QueryCursor<'_>) -> Result<DataFrame> {
    let table = cursor.drain(term_to_cell).map_err(engine_error)?;
    Ok(table.into())
}

/// Append a solution table's rows to an existing dataframe with the same
/// schema (used by pagination).
///
/// A chunk whose header differs from the accumulated frame's (schema
/// drift) is a [`FrameError::Transport`]: a damaged response, worth
/// re-requesting — re-execution per chunk makes the retry safe, and a
/// refused chunk leaves rows and dictionary untouched.
pub fn append_table(df: &mut DataFrame, table: &SolutionTable) -> Result<()> {
    if df.columns() != table.vars() {
        return Err(FrameError::Transport(
            "endpoint returned inconsistent schemas across chunks".into(),
        ));
    }
    append_rows(df, table)
}

/// One cell per dictionary entry, then the code columns through that
/// remap, in place. A refused fill takes its entries back with it.
fn append_rows(df: &mut DataFrame, table: &SolutionTable) -> Result<()> {
    let fill = |codes: &mut [Vec<u32>], intern: &mut dyn FnMut(Cell) -> u32| {
        let cells = table.dictionary().iter().map(|t| intern(term_to_cell(t)));
        let remap: Vec<u32> = std::iter::once(0).chain(cells).collect();
        for (col, src) in codes.iter_mut().zip(table.code_columns()) {
            col.extend(src.iter().map(|&c| remap[c as usize]));
        }
    };
    df.fill(table.len(), fill).map_err(bad_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Literal, TermId};

    #[test]
    fn term_conversions() {
        assert_eq!(
            term_to_cell(&Term::iri("http://x/a")),
            Cell::uri("http://x/a")
        );
        assert_eq!(term_to_cell(&Term::integer(5)), Cell::Int(5));
        assert_eq!(
            term_to_cell(&Term::from(Literal::double(2.5))),
            Cell::Float(2.5)
        );
        assert_eq!(
            term_to_cell(&Term::from(Literal::boolean(true))),
            Cell::Bool(true)
        );
        assert_eq!(term_to_cell(&Term::string("hi")), Cell::str("hi"));
        assert_eq!(term_to_cell(&Term::blank("b0")), Cell::uri("_:b0"));
        // Date-times keep their lexical form as strings.
        assert_eq!(
            term_to_cell(&Term::from(Literal::date_time("2020-01-01T00:00:00"))),
            Cell::str("2020-01-01T00:00:00")
        );
    }

    fn table(vars: &[&str], rows: Vec<Vec<Option<Term>>>) -> SolutionTable {
        let mut t = SolutionTable::with_vars(vars.iter().map(|v| v.to_string()).collect());
        for row in rows {
            t.push_row(row).unwrap();
        }
        t
    }

    #[test]
    fn table_conversion_preserves_nulls() {
        let table = table(&["a", "b"], vec![vec![Some(Term::integer(1)), None]]);
        let df = table_to_dataframe(&table).unwrap();
        assert_eq!(df.get(0, "a"), Some(&Cell::Int(1)));
        assert_eq!(df.get(0, "b"), Some(&Cell::Null));
    }

    #[test]
    fn append_checks_schema() {
        let t1 = table(&["a"], vec![vec![Some(Term::integer(1))]]);
        let mut df = table_to_dataframe(&t1).unwrap();
        assert!(append_table(&mut df, &t1).is_ok());
        assert_eq!(df.len(), 2);
        let t2 = table(&["z"], vec![]);
        assert!(matches!(
            append_table(&mut df, &t2),
            Err(FrameError::Transport(_))
        ));
    }

    #[test]
    fn one_lexical_form_under_two_datatypes_is_two_cells() {
        // Two dictionary entries that share the string "5" are two cells:
        // one per entry, each made by its own arm of `term_to_cell`.
        let five: std::sync::Arc<str> = "5".into();
        let integer = Term::from(Literal::typed(five.clone(), rdf_model::vocab::xsd::INTEGER));
        let plain = Term::string(five);
        let table = SolutionTable::from_columns(
            vec!["a".into(), "b".into()],
            vec![integer, plain],
            vec![vec![1, 2], vec![2, 1]],
            2,
        )
        .unwrap();
        let df = table_to_dataframe(&table).unwrap();
        assert_eq!(df.dictionary().len(), 2, "5 and \"5\"");
        for (row, a, b) in [
            (0, Cell::Int(5), Cell::str("5")),
            (1, Cell::str("5"), Cell::Int(5)),
        ] {
            assert_eq!(df.get(row, "a"), Some(&a));
            assert_eq!(df.get(row, "b"), Some(&b));
        }
    }

    #[test]
    fn a_sharing_page_and_its_unshared_copy_give_equal_frames() {
        use crate::client::xml;
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("a"),
            Term::string("http://x/a"),
            Term::string("a"),
            Term::integer(7),
            Term::string("7"),
            Term::from(Literal::double(7.0)),
            Term::from(Literal::boolean(true)),
            Term::from(Literal::lang_string("a", "en")),
            Term::from(Literal::date_time("2020-01-01T00:00:00")),
        ];
        let rows: Vec<Vec<Option<Term>>> = (0..40)
            .map(|i| {
                let x = terms[i % terms.len()].clone();
                let y = (i % 3 > 0).then(|| terms[i * 7 % terms.len()].clone());
                vec![Some(x), y]
            })
            .collect();
        // Pushed row by row: one dictionary entry per bound cell.
        let unshared = table(&["x", "y"], rows);
        // Decoded: one entry per distinct value of the page.
        let shared = xml::decode(&xml::encode(&unshared)).unwrap();
        assert_eq!(shared, unshared);
        assert_eq!(shared.dictionary().len(), terms.len());
        assert!(unshared.dictionary().len() > 40);

        let (a, b) = (
            table_to_dataframe(&shared).unwrap(),
            table_to_dataframe(&unshared).unwrap(),
        );
        assert_eq!(a, b);
        // The frame's dictionary is the table's: one entry per distinct
        // term of the page against one per bound cell.
        assert_eq!(a.dictionary().len(), terms.len());
        assert!(b.dictionary().len() > 40);
    }

    #[test]
    fn the_run_cache_never_answers_for_an_absent_slot() {
        use rdf_model::{Dataset, Graph, Triple};
        use sparql_engine::{eval_reference, Engine};
        use std::sync::Arc;

        // `v` is the dataset's first interned term, TermId(0) — the id an
        // absent slot holds as filler. `?o` is `v` in runs of seven that
        // cross every batch edge, each broken by an unbound row; a stretch
        // of `w` changes the id in between.
        let (v, w) = (Term::iri("http://x/v"), Term::iri("http://x/w"));
        let (p, q) = (Term::iri("http://x/p"), Term::iri("http://x/q"));
        let mut g = Graph::new();
        g.insert(&Triple::new(v.clone(), p.clone(), Term::integer(-1)));
        const ROWS: usize = 20_000;
        for i in 0..ROWS {
            let s = Term::iri(format!("http://x/s{i:05}"));
            g.insert(&Triple::new(s.clone(), p.clone(), Term::integer(i as i64)));
            if i % 8 != 7 {
                let o = if (100..120).contains(&i) { &w } else { &v };
                g.insert(&Triple::new(s, q.clone(), o.clone()));
            }
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        assert_eq!(ds.lookup(&v), Some(TermId(0)));
        let ds = Arc::new(ds);
        let query = "SELECT ?s ?o WHERE { ?s <http://x/p> ?n OPTIONAL { ?s <http://x/q> ?o } }";

        let engine = Engine::new(Arc::clone(&ds));
        let prepared = engine.prepare(query).unwrap();
        let (mut table, _) = engine.execute_prepared(&prepared, None).unwrap();
        let want = table_to_dataframe(&table).unwrap();
        let o = want.column("o").unwrap().collect::<Vec<_>>();
        assert_eq!(o.len(), ROWS + 1);
        let v_cell = term_to_cell(&v);
        let hazards = o.windows(2).filter(|p| *p[0] == v_cell && p[1].is_null());
        assert!(hazards.count() > ROWS / 10, "v next to unbound cells");

        let (mut expected, _) = eval_reference::execute(&engine, &prepared, None).unwrap();
        table.canonicalize();
        expected.canonicalize();
        assert_eq!(table, expected);

        for batch in [1, 7, 16_384, usize::MAX] {
            let mut cursor = engine.cursor(&prepared, batch).unwrap();
            assert_eq!(
                cursor_to_dataframe(&mut cursor).unwrap(),
                want,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn ragged_rows_error_instead_of_panicking() {
        // A table is rectangular by construction: a ragged one is refused
        // where it would be built, with a typed error, so no converter ever
        // sees one.
        let mut t = table(&["a", "b"], vec![vec![Some(Term::integer(1)), None]]);
        assert!(t.push_row(vec![Some(Term::integer(3))]).is_err());
        assert!(SolutionTable::from_columns(
            t.vars().to_vec(),
            vec![Term::integer(3)],
            vec![vec![1, 1], vec![1]],
            2
        )
        .is_none());
        // A refused chunk merges nothing — no row, and no dictionary entry
        // for its `3` either: a retry starts clean.
        let mut df = table_to_dataframe(&t).unwrap();
        let before = df.clone();
        let drifted = table(&["a", "z"], vec![vec![Some(Term::integer(3)), None]]);
        assert!(matches!(
            append_table(&mut df, &drifted),
            Err(FrameError::Transport(_))
        ));
        assert_eq!(df, before);
        assert_eq!(df.dictionary().len(), before.dictionary().len());
    }
}
