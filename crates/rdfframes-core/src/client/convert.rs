//! Conversion between engine results and dataframes.
//!
//! A [`DataFrame`] stores one dictionary of cells and `u32` codes per
//! column, filled through one interface (`intern` a cell, `append` a block
//! of code columns). The two converters here differ only in what shares a
//! dictionary entry:
//!
//! - the columnar converter ([`cursor_to_dataframe`]) — the embedded path —
//!   memoizes `TermId → code` over the cursor's id batches: a term is
//!   decoded ([`term_to_cell`]) once per *distinct* id, every repeat is a
//!   4-byte code, and the memo grows with the ids seen, never with the
//!   dataset's interner;
//! - the row converters ([`table_to_dataframe`], [`append_table`]) over
//!   term-materialized [`SolutionTable`]s — the wire path — intern every
//!   cell as it comes. A decoded page has no ids, only strings from outside,
//!   and finding repeats means hashing each one with a keyed hash: measured
//!   on `paper_wire_xml`, a value-keyed memo cost more than the whole of the
//!   append it replaced (`BENCH_columnar_frame.json`).

use dataframe::{AppendError, Cell, DataFrame};
use rdf_model::hash::FxHashMap;
use rdf_model::term::TypedValue;
use rdf_model::{Term, TermId};
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
///
/// Fallible because the table may have been decoded from a wire chunk a
/// fault corrupted: a ragged row (width ≠ header) is reported as a
/// [`FrameError::Transport`] — the wire path must never panic on malformed
/// input.
pub fn table_to_dataframe(table: &SolutionTable) -> Result<DataFrame> {
    let mut df = DataFrame::new(table.vars.clone());
    append_rows(&mut df, table)?;
    Ok(df)
}

fn ragged_row(got: usize, want: usize) -> FrameError {
    FrameError::Transport(format!(
        "malformed result chunk: row width {got} does not match header width {want}"
    ))
}

fn bad_block(e: AppendError) -> FrameError {
    FrameError::Transport(format!("malformed result chunk: {e}"))
}

/// Drain a [`QueryCursor`] into a dataframe, mapping each batch's id
/// columns straight to dictionary codes (no intermediate [`SolutionTable`],
/// no per-cell term materialization, nothing allocated per row or per cell).
pub fn cursor_to_dataframe(cursor: &mut QueryCursor<'_>) -> Result<DataFrame> {
    let mut df = DataFrame::new(cursor.vars().to_vec());
    let mut memo: FxHashMap<TermId, u32> = FxHashMap::default();
    let mut block: Vec<Vec<u32>> = vec![Vec::new(); df.columns().len()];
    while let Some(batch) = cursor.next_batch().map_err(engine_error)? {
        for (c, codes) in block.iter_mut().enumerate() {
            codes.clear();
            codes.extend(batch.column_ids(c).iter().enumerate().map(|(i, &id)| {
                if batch.is_present(c, i) {
                    *memo
                        .entry(id)
                        .or_insert_with(|| df.intern(term_to_cell(batch.resolve(id))))
                } else {
                    0
                }
            }));
        }
        df.append(batch.len, &block).map_err(bad_block)?;
    }
    Ok(df)
}

/// Append a solution table's rows to an existing dataframe with the same
/// schema (used by pagination).
///
/// A chunk whose header differs from the accumulated frame's (schema
/// drift) or whose rows are ragged is a [`FrameError::Transport`]: a
/// damaged response, worth re-requesting — re-execution per chunk makes the
/// retry safe, and a refused chunk leaves rows and dictionary untouched.
pub fn append_table(df: &mut DataFrame, table: &SolutionTable) -> Result<()> {
    if df.columns() != table.vars.as_slice() {
        return Err(FrameError::Transport(
            "endpoint returned inconsistent schemas across chunks".into(),
        ));
    }
    append_rows(df, table)
}

fn append_rows(df: &mut DataFrame, table: &SolutionTable) -> Result<()> {
    let width = table.vars.len();
    // Validate every row before interning any cell: a retry after a
    // mid-chunk error must not find half the bad chunk already merged.
    if let Some(row) = table.rows.iter().find(|r| r.len() != width) {
        return Err(ragged_row(row.len(), width));
    }
    let mut block: Vec<Vec<u32>> = vec![Vec::with_capacity(table.rows.len()); width];
    for row in &table.rows {
        for (codes, term) in block.iter_mut().zip(row) {
            codes.push(term.as_ref().map_or(0, |t| df.intern(term_to_cell(t))));
        }
    }
    df.append(table.rows.len(), &block).map_err(bad_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Literal;

    #[test]
    fn term_conversions() {
        assert_eq!(
            term_to_cell(&Term::iri("http://x/a")),
            Cell::uri("http://x/a")
        );
        assert_eq!(term_to_cell(&Term::integer(5)), Cell::Int(5));
        assert_eq!(
            term_to_cell(&Term::Literal(Literal::double(2.5))),
            Cell::Float(2.5)
        );
        assert_eq!(
            term_to_cell(&Term::Literal(Literal::boolean(true))),
            Cell::Bool(true)
        );
        assert_eq!(term_to_cell(&Term::string("hi")), Cell::str("hi"));
        assert_eq!(term_to_cell(&Term::blank("b0")), Cell::uri("_:b0"));
        // Date-times keep their lexical form as strings.
        assert_eq!(
            term_to_cell(&Term::Literal(Literal::date_time("2020-01-01T00:00:00"))),
            Cell::str("2020-01-01T00:00:00")
        );
    }

    #[test]
    fn table_conversion_preserves_nulls() {
        let table = SolutionTable {
            vars: vec!["a".into(), "b".into()],
            rows: vec![vec![Some(Term::integer(1)), None]],
        };
        let df = table_to_dataframe(&table).unwrap();
        assert_eq!(df.get(0, "a"), Some(&Cell::Int(1)));
        assert_eq!(df.get(0, "b"), Some(&Cell::Null));
    }

    #[test]
    fn append_checks_schema() {
        let t1 = SolutionTable {
            vars: vec!["a".into()],
            rows: vec![vec![Some(Term::integer(1))]],
        };
        let mut df = table_to_dataframe(&t1).unwrap();
        assert!(append_table(&mut df, &t1).is_ok());
        assert_eq!(df.len(), 2);
        let t2 = SolutionTable {
            vars: vec!["z".into()],
            rows: vec![],
        };
        assert!(matches!(
            append_table(&mut df, &t2),
            Err(FrameError::Transport(_))
        ));
    }

    #[test]
    fn ragged_rows_error_instead_of_panicking() {
        // A truncated wire chunk can decode to a row narrower than the
        // header; conversion must reject it as a transport error, not trip
        // the dataframe's width assertion.
        let ragged = SolutionTable {
            vars: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Some(Term::integer(1)), Some(Term::integer(2))],
                vec![Some(Term::integer(3))],
            ],
        };
        assert!(matches!(
            table_to_dataframe(&ragged),
            Err(FrameError::Transport(_))
        ));
        let ok = SolutionTable {
            vars: vec!["a".into(), "b".into()],
            rows: vec![vec![Some(Term::integer(1)), Some(Term::integer(2))]],
        };
        let mut df = table_to_dataframe(&ok).unwrap();
        let before = df.clone();
        assert!(matches!(
            append_table(&mut df, &ragged),
            Err(FrameError::Transport(_))
        ));
        // Nothing from the bad chunk was merged — no row, and no dictionary
        // entry for its `3` either: a retry starts clean.
        assert_eq!(df.len(), 1);
        assert_eq!(df, before);
        assert_eq!(df.dictionary().len(), before.dictionary().len());
    }
}
