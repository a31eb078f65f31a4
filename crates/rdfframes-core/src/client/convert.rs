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
//!   dataset's interner. In front of the memo each column keeps a run
//!   cache, its last `(id, code)` pair, across batches: the sorted and
//!   grouped columns joins and GROUP BY emit repeat an id row after row,
//!   and a repeat costs one compare instead of a hash (≈ 77 % of q9's
//!   present cells, 57 % of cs1's, 37–38 % of cs3's and qmix's). Presence is
//!   tested once per column and batch when the column is fully bound, and
//!   the cache is consulted for present cells only: an absent slot holds
//!   `TermId(0)`, which is also the dataset's first term. A dense
//!   `Vec<u32>` remap indexed by `TermId` was measured slower (12.8 ms of
//!   q9's decode against 10.0–11.2 ms: its lookups scatter over the whole
//!   interner's range) and would cost 4 bytes × the interner's length per
//!   query;
//! - the row converters ([`table_to_dataframe`], [`append_table`]) over
//!   term-materialized [`SolutionTable`]s — the wire path — memoize, per
//!   page, by *identity*: the address of the shared string a cell is made
//!   from plus the arm of [`term_to_cell`] that makes it. A decoded page has
//!   no ids, but its decoder looked every raw value up before allocating
//!   (`client/memo.rs`), so equal values of a page already share one
//!   string and comparing addresses finds them without hashing a byte of
//!   outside text. (Hashing the strings again here, after decode, cost more
//!   than the whole append — `BENCH_columnar_frame.json`; the decoder is
//!   where a value-keyed lookup pays, `BENCH_wire_codec.json`.) A table
//!   whose terms share nothing — built by hand, or by the reference
//!   interpreter — gets one entry per cell, as before; either way the frame
//!   compares equal.

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
    let width = df.columns().len();
    let mut block: Vec<Vec<u32>> = vec![Vec::new(); width];
    // Per column, the last present id and its code (kept across batches).
    let mut last: Vec<Option<(TermId, u32)>> = vec![None; width];
    while let Some(batch) = cursor.next_batch().map_err(engine_error)? {
        for (c, (codes, last)) in block.iter_mut().zip(&mut last).enumerate() {
            // Only ever called for a present cell: an absent slot holds the
            // filler `TermId(0)`, which is also the dataset's first term.
            let mut code_of = |id: TermId| match *last {
                Some((prev, code)) if prev == id => code,
                _ => {
                    let code = *memo
                        .entry(id)
                        .or_insert_with(|| df.intern(term_to_cell(batch.resolve(id))));
                    *last = Some((id, code));
                    code
                }
            };
            let ids = batch.column_ids(c).iter();
            codes.clear();
            if batch.all_present(c) {
                codes.extend(ids.map(|&id| code_of(id)));
            } else {
                codes.extend(ids.enumerate().map(|(i, &id)| {
                    if batch.is_present(c, i) {
                        code_of(id)
                    } else {
                        0
                    }
                }));
            }
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
    // The table is borrowed for the whole call, so every string in it stays
    // alive and no address is reused: equal identities are equal cells.
    // Sized up front for a distinct value per row, which saves a full page
    // its dozen rehashes (15 % of the append on `paper_wire_xml`).
    let mut memo: FxHashMap<(*const u8, u8), u32> = FxHashMap::default();
    memo.reserve(table.rows.len());
    let mut block: Vec<Vec<u32>> = vec![Vec::with_capacity(table.rows.len()); width];
    for row in &table.rows {
        for (codes, term) in block.iter_mut().zip(row) {
            codes.push(term.as_ref().map_or(0, |t| {
                *memo
                    .entry(cell_identity(t))
                    .or_insert_with(|| df.intern(term_to_cell(t)))
            }));
        }
    }
    df.append(table.rows.len(), &block).map_err(bad_block)
}

/// What decides [`term_to_cell`]'s answer without reading the string: the
/// address of the one shared string the cell is made from, and which arm
/// makes it (a plain `"5"` and `"5"^^xsd:integer` may share their lexical
/// form and are still two cells).
fn cell_identity(term: &Term) -> (*const u8, u8) {
    match term {
        Term::Iri(i) => (i.as_ptr(), 0),
        Term::Blank(b) => (b.as_ptr(), 1),
        Term::Literal(l) => {
            let arm = match l.parsed {
                TypedValue::Integer(_) => 2,
                TypedValue::Double(_) => 3,
                TypedValue::Boolean(_) => 4,
                _ => 5,
            };
            (l.lexical.as_ptr(), arm)
        }
    }
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
    fn one_lexical_form_under_two_datatypes_is_two_cells() {
        // The append memo goes by string address; these two terms share the
        // address of "5" and must still not share a dictionary entry.
        let five: std::sync::Arc<str> = "5".into();
        let integer = Term::Literal(Literal::typed(five.clone(), rdf_model::vocab::xsd::INTEGER));
        let plain = Term::string(five);
        let table = SolutionTable {
            vars: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Some(integer.clone()), Some(plain.clone())],
                vec![Some(plain), Some(integer)],
            ],
        };
        let df = table_to_dataframe(&table).unwrap();
        assert_eq!(df.dictionary().len(), 3, "null, 5 and \"5\"");
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
            Term::Literal(Literal::double(7.0)),
            Term::Literal(Literal::boolean(true)),
            Term::Literal(Literal::lang_string("a", "en")),
            Term::Literal(Literal::date_time("2020-01-01T00:00:00")),
        ];
        let mut table = SolutionTable::with_vars(vec!["x".into(), "y".into()]);
        for i in 0..40 {
            let x = terms[i % terms.len()].clone();
            let y = (i % 3 > 0).then(|| terms[i * 7 % terms.len()].clone());
            table.rows.push(vec![Some(x), y]);
        }
        // Decoded: every repeat shares its first occurrence's strings.
        let shared = xml::decode(&xml::encode(&table)).unwrap();
        // Rebuilt through the public constructors: no two terms share any.
        let fresh = |s: &str| std::sync::Arc::<str>::from(s);
        let rebuild = |t: &Term| match t {
            Term::Iri(i) => Term::iri(fresh(i)),
            Term::Blank(b) => Term::blank(fresh(b)),
            Term::Literal(l) => Term::Literal(match (&l.language, &l.datatype) {
                (Some(lang), _) => Literal::lang_string(fresh(&l.lexical), fresh(lang)),
                (None, Some(dt)) => Literal::typed(fresh(&l.lexical), fresh(dt)),
                (None, None) => Literal::string(fresh(&l.lexical)),
            }),
        };
        let mut unshared = SolutionTable::with_vars(shared.vars.clone());
        for row in &shared.rows {
            unshared
                .rows
                .push(row.iter().map(|c| c.as_ref().map(rebuild)).collect());
        }
        assert_eq!(shared, unshared);

        let (a, b) = (
            table_to_dataframe(&shared).unwrap(),
            table_to_dataframe(&unshared).unwrap(),
        );
        assert_eq!(a, b);
        assert_eq!(a, table_to_dataframe(&table).unwrap());
        // Sharing is what the dictionary dedups on: one entry per distinct
        // term of the page against one per bound cell.
        assert_eq!(a.dictionary().len(), terms.len() + 1);
        assert!(b.dictionary().len() > 40);
    }

    #[test]
    fn the_run_cache_never_answers_for_an_absent_slot() {
        use rdf_model::{Dataset, Graph, Triple};
        use sparql_engine::{Engine, EngineConfig, EvalMode};
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

        let oracle = Engine::with_config(
            Arc::clone(&ds),
            EngineConfig {
                eval_mode: EvalMode::TermReference,
                ..EngineConfig::new()
            },
        );
        let (mut expected, _) = oracle
            .execute_prepared(&oracle.prepare(query).unwrap(), None)
            .unwrap();
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
