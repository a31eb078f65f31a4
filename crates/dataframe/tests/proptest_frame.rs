//! Property-based tests for the dataframe crate's relational algebra.
//!
//! The first nine properties check shapes (lengths, idempotence,
//! permutation). The rest are differential: every operator of the columnar,
//! dictionary-coded frame is compared row for row — variant for variant —
//! with [`Model`], a `Vec<Vec<Cell>>` frame carrying the semantics of the
//! row-major implementation the columnar one replaced. Random frames are
//! built three ways (see [`build`]) so the operators meet dictionaries with
//! no sharing, with repeated codes, and with distinct codes for equal cells.

use std::cmp::Ordering;
use std::collections::HashMap;

use dataframe::{AggFn, Cell, DataFrame, JoinError, JoinType};
use proptest::prelude::*;

fn cell_strategy() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Null),
        (0i64..6).prop_map(Cell::Int),
        // Equal to `Int(3)` as a cell, never the same dictionary entry.
        Just(Cell::Float(3.0)),
        Just(Cell::Float(2.5)),
        (0u8..4).prop_map(|k| Cell::str(format!("s{k}"))),
        (0u8..4).prop_map(|k| Cell::uri(format!("http://x/{k}"))),
        (0u8..2).prop_map(|k| Cell::Bool(k == 1)),
    ]
}

fn rows_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<Cell>>> {
    proptest::collection::vec(
        proptest::collection::vec(cell_strategy(), cols),
        0..max_rows,
    )
}

/// The cell's exact representation: `Int(3)` and `Float(3.0)` are equal
/// cells but different values, and no dictionary may swap one for the other.
fn exact(cell: &Cell) -> String {
    format!("{cell:?}")
}

/// Build a frame from `rows` in one of the three ways rows enter a frame.
fn build(how: usize, cols: usize, rows: &[Vec<Cell>]) -> DataFrame {
    let mut df = DataFrame::new((0..cols).map(|i| format!("c{i}")).collect());
    let block =
        |df: &mut DataFrame, memo: &mut HashMap<(usize, String), u32>, page: &[Vec<Cell>]| {
            let block: Vec<Vec<u32>> = (0..cols)
                .map(|c| {
                    let code = |r: &Vec<Cell>| {
                        // `how == 1` keys the memo by column as well, so a cell
                        // seen in two columns is interned twice.
                        let key = (if how == 1 { c } else { 0 }, exact(&r[c]));
                        *memo.entry(key).or_insert_with(|| df.intern(r[c].clone()))
                    };
                    page.iter().map(code).collect()
                })
                .collect();
            (df.append_blocks(vec![(page.len(), block)])).expect("well-formed block");
        };
    match how {
        // Every cell its own dictionary entry.
        0 => rows.iter().for_each(|r| df.push_row(r.clone()).unwrap()),
        // One block of codes: a cell repeated in a column shares a code,
        // the same cell in another column (the same URI, say) has a second
        // one, and `Int(3)` / `Float(3.0)` are equal under different codes.
        1 => block(&mut df, &mut HashMap::new(), rows),
        // Interned by value page by page, the memo rebuilt from the
        // dictionary each time: what a producer with no ids of its own can do.
        _ => {
            for page in rows.chunks(3) {
                let mut memo = (df.dictionary().iter().zip(1u32..))
                    .map(|(cell, code)| ((0, exact(cell)), code))
                    .collect();
                block(&mut df, &mut memo, page);
            }
        }
    }
    df
}

fn frame_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = DataFrame> {
    (rows_strategy(cols, max_rows), 0usize..3).prop_map(move |(rows, how)| build(how, cols, &rows))
}

/// The row-major frame the columnar one replaced, as the oracle: a frame is
/// its rows, every operator clones cells.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

type Row = Vec<Cell>;

impl Model {
    fn of(df: &DataFrame) -> Model {
        Model {
            columns: df.columns().to_vec(),
            rows: df.rows().iter().map(|r| r.to_vec()).collect(),
        }
    }

    /// Columns and rows with every cell in its exact representation.
    fn show(&self) -> String {
        let rows: Vec<Vec<String>> = (self.rows.iter())
            .map(|r| r.iter().map(exact).collect())
            .collect();
        format!("{:?} {rows:?}", self.columns)
    }

    fn idx(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    fn named(&self, columns: Vec<String>, rows: Vec<Row>) -> Model {
        Model { columns, rows }
    }

    fn filter(&self, keep: impl Fn(&Row) -> bool) -> Model {
        let rows = self.rows.iter().filter(|r| keep(r)).cloned().collect();
        self.named(self.columns.clone(), rows)
    }

    fn select(&self, keep: &[&str]) -> Model {
        let idx: Vec<Option<usize>> = keep.iter().map(|c| self.idx(c)).collect();
        let cell = |r: &Row, i: &Option<usize>| i.map_or(Cell::Null, |i| r[i].clone());
        let rows = (self.rows.iter())
            .map(|r| idx.iter().map(|i| cell(r, i)).collect())
            .collect();
        self.named(keep.iter().map(|s| s.to_string()).collect(), rows)
    }

    fn sort_by(&self, keys: &[(&str, bool)]) -> Model {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            let ords = keys.iter().filter_map(|(name, asc)| {
                let ord = self.idx(name).map(|i| a[i].total_cmp(&b[i]))?;
                Some(if *asc { ord } else { ord.reverse() })
            });
            ords.fold(Ordering::Equal, Ordering::then)
        });
        self.named(self.columns.clone(), rows)
    }

    fn head(&self, k: usize, offset: usize) -> Model {
        let rows = self.rows.iter().skip(offset).take(k).cloned().collect();
        self.named(self.columns.clone(), rows)
    }

    fn distinct(&self) -> Model {
        let mut rows: Vec<Row> = Vec::new();
        for r in &self.rows {
            if !rows.contains(r) {
                rows.push(r.clone());
            }
        }
        self.named(self.columns.clone(), rows)
    }

    fn concat(&self, other: &Model) -> Model {
        let mut columns = self.columns.clone();
        columns.extend(
            other
                .columns
                .iter()
                .filter(|c| !self.columns.contains(c))
                .cloned(),
        );
        let widen = |m: &Model| -> Vec<Row> {
            let cell = |r: &Row, c: &String| m.idx(c).map_or(Cell::Null, |i| r[i].clone());
            (m.rows.iter())
                .map(|r| columns.iter().map(|c| cell(r, c)).collect())
                .collect()
        };
        let rows = [widen(self), widen(other)].concat();
        self.named(columns, rows)
    }

    fn with_column(&self, name: &str, f: impl Fn(&Row) -> Cell) -> Model {
        let mut columns = self.columns.clone();
        columns.push(name.to_string());
        let rows = (self.rows.iter())
            .map(|r| [r.clone(), vec![f(r)]].concat())
            .collect();
        self.named(columns, rows)
    }

    /// Join on column 0 of both sides (named alike), in the implementation's
    /// row order: probe the larger side in order, matches in build order,
    /// then the build side's unmatched rows.
    fn join(&self, right: &Model, how: JoinType) -> Model {
        let mut columns = self.columns.clone();
        for c in &right.columns[1..] {
            let taken = columns.contains(c);
            columns.push(if taken {
                format!("{c}_right")
            } else {
                c.clone()
            });
        }
        let (keep_left, keep_right) = (
            matches!(how, JoinType::Left | JoinType::Outer),
            matches!(how, JoinType::Right | JoinType::Outer),
        );
        let emit = |l: Option<&Row>, r: Option<&Row>| -> Row {
            let nulls = |n: usize| vec![Cell::Null; n];
            let key_only = |r: &Row| [vec![r[0].clone()], nulls(self.columns.len() - 1)].concat();
            let left = l.cloned().unwrap_or_else(|| key_only(r.expect("one side")));
            let rest = r.map_or(nulls(right.columns.len() - 1), |r| r[1..].to_vec());
            [left, rest].concat()
        };
        let build_right = right.rows.len() <= self.rows.len();
        let (probe, build, keep_probe, keep_build) = if build_right {
            (self, right, keep_left, keep_right)
        } else {
            (right, self, keep_right, keep_left)
        };
        let lr = |p, b| if build_right { emit(p, b) } else { emit(b, p) };
        let mut rows = Vec::new();
        let mut matched = vec![false; build.rows.len()];
        for p in &probe.rows {
            let before = rows.len();
            for (i, b) in build.rows.iter().enumerate() {
                if !p[0].is_null() && p[0] == b[0] {
                    matched[i] = true;
                    rows.push(lr(Some(p), Some(b)));
                }
            }
            if rows.len() == before && keep_probe {
                rows.push(lr(Some(p), None));
            }
        }
        for (b, _) in build
            .rows
            .iter()
            .zip(matched)
            .filter(|(_, m)| keep_build && !m)
        {
            rows.push(lr(None, Some(b)));
        }
        self.named(columns, rows)
    }

    fn agg(&self, keys: &[&str], specs: &[(AggFn, &str, &str)]) -> Model {
        let key = |r: &Row| -> Row {
            let cell = |k: &&str| self.idx(k).map_or(Cell::Null, |i| r[i].clone());
            keys.iter().map(cell).collect()
        };
        let mut groups: Vec<(Row, Vec<&Row>)> = Vec::new();
        for r in &self.rows {
            match groups.iter_mut().find(|(k, _)| *k == key(r)) {
                Some((_, members)) => members.push(r),
                None => groups.push((key(r), vec![r])),
            }
        }
        let mut columns: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
        columns.extend(specs.iter().map(|(_, _, out)| out.to_string()));
        let rows = groups.into_iter().map(|(mut row, members)| {
            for (f, src, _) in specs {
                let values: Vec<&Cell> = (self.idx(src).into_iter())
                    .flat_map(|i| members.iter().map(move |r| &r[i]))
                    .filter(|c| !c.is_null())
                    .collect();
                row.push(aggregate(*f, &values));
            }
            row
        });
        let rows = rows.collect();
        self.named(columns, rows)
    }
}

/// One aggregate over a group's non-null values, in row order.
fn aggregate(f: AggFn, values: &[&Cell]) -> Cell {
    // From +0.0 (`Iterator::sum` starts at -0.0, and the comparison is exact).
    let sum = values
        .iter()
        .filter_map(|c| c.as_f64())
        .fold(0.0, |a, b| a + b);
    // Only a strictly better value replaces: the first of equals is kept.
    let extreme = |better: Ordering| {
        let mut best: Option<&Cell> = None;
        for c in values {
            if best.is_none_or(|b| c.total_cmp(b) == better) {
                best = Some(c);
            }
        }
        best.cloned()
    };
    match f {
        AggFn::Count => Cell::Int(values.len() as i64),
        AggFn::CountDistinct => {
            let mut seen: Vec<&Cell> = Vec::new();
            values.iter().for_each(|c| {
                if !seen.contains(c) {
                    seen.push(c);
                }
            });
            Cell::Int(seen.len() as i64)
        }
        AggFn::Sum if values.iter().all(|c| matches!(c, Cell::Int(_))) => {
            let ints = values.iter().filter_map(|c| c.as_i64());
            Cell::Int(ints.fold(0, i64::wrapping_add))
        }
        AggFn::Sum => Cell::Float(sum),
        AggFn::Avg if values.is_empty() => Cell::Null,
        AggFn::Avg => Cell::Float(sum / values.len() as f64),
        AggFn::Min => extreme(Ordering::Less).unwrap_or(Cell::Null),
        AggFn::Max => extreme(Ordering::Greater).unwrap_or(Cell::Null),
        AggFn::Sample => values.first().map_or(Cell::Null, |c| (*c).clone()),
    }
}

const JOIN_TYPES: [JoinType; 4] = [
    JoinType::Inner,
    JoinType::Left,
    JoinType::Right,
    JoinType::Outer,
];

const AGG_FNS: [AggFn; 7] = [
    AggFn::Count,
    AggFn::CountDistinct,
    AggFn::Sum,
    AggFn::Avg,
    AggFn::Min,
    AggFn::Max,
    AggFn::Sample,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn distinct_is_idempotent(df in frame_strategy(3, 20)) {
        let once = df.distinct();
        let twice = once.distinct();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn filter_never_adds_rows(df in frame_strategy(2, 20), threshold in 0i64..6) {
        let filtered = df.filter_col("c0", |c| c.as_i64().is_some_and(|v| v >= threshold));
        prop_assert!(filtered.len() <= df.len());
        // Filtered rows all satisfy the predicate.
        for row in filtered.rows() {
            prop_assert!(row[0].as_i64().is_some_and(|v| v >= threshold));
        }
    }

    #[test]
    fn sort_is_permutation_and_ordered(df in frame_strategy(2, 20)) {
        let sorted = df.sort_by(&[("c0", true), ("c1", true)]);
        prop_assert_eq!(sorted.len(), df.len());
        for i in 1..sorted.len() {
            let pair = [sorted.row(i - 1), sorted.row(i)];
            let ord = pair[0][0]
                .total_cmp(&pair[1][0])
                .then(pair[0][1].total_cmp(&pair[1][1]));
            prop_assert!(ord != std::cmp::Ordering::Greater);
        }
        // Same multiset of rows.
        let key = |d: &DataFrame| {
            let mut v: Vec<String> = d
                .rows()
                .iter()
                .map(|r| format!("{}|{}", r[0], r[1]))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&df), key(&sorted));
    }

    #[test]
    fn inner_join_row_count_matches_key_products(
        left in frame_strategy(2, 15),
        right in frame_strategy(2, 15),
    ) {
        let mut l = left.clone();
        l.rename("c0", "k");
        let mut r = right.clone();
        r.rename("c0", "k");
        r.rename("c1", "v");
        let joined = l.join(&r, "k", "k", JoinType::Inner).unwrap();
        // Expected count: sum over keys of left_count * right_count.
        let mut expected = 0usize;
        for lr in l.rows() {
            if lr[0].is_null() {
                continue;
            }
            expected += r.rows().iter().filter(|rr| rr[0] == lr[0]).count();
        }
        prop_assert_eq!(joined.len(), expected);
    }

    #[test]
    fn outer_join_covers_both_sides(
        left in frame_strategy(2, 12),
        right in frame_strategy(2, 12),
    ) {
        let mut l = left.clone();
        l.rename("c0", "k");
        l.rename("c1", "lv");
        let mut r = right.clone();
        r.rename("c0", "k");
        r.rename("c1", "rv");
        let outer = l.join(&r, "k", "k", JoinType::Outer).unwrap();
        let inner = l.join(&r, "k", "k", JoinType::Inner).unwrap();
        let left_join = l.join(&r, "k", "k", JoinType::Left).unwrap();
        let right_join = l.join(&r, "k", "k", JoinType::Right).unwrap();
        // |outer| = |left| + |right| - |inner| (classic inclusion).
        prop_assert_eq!(
            outer.len() + inner.len(),
            left_join.len() + right_join.len()
        );
        prop_assert!(outer.len() >= left_join.len());
        prop_assert!(outer.len() >= right_join.len());
    }

    #[test]
    fn groupby_counts_partition_rows(df in frame_strategy(2, 25)) {
        let grouped = df.group_by(&["c0"]).agg(&[(AggFn::Count, "c1", "n")]);
        // Sum of per-group counts equals the number of non-null c1 cells.
        let total: i64 = grouped
            .column("n")
            .unwrap()
            .map(|c| c.as_i64().unwrap_or(0))
            .sum();
        let non_null = df.rows().iter().filter(|r| !r[1].is_null()).count() as i64;
        prop_assert_eq!(total, non_null);
        // One group per distinct c0 value.
        let distinct_keys = df.select(&["c0"]).distinct().len();
        prop_assert_eq!(grouped.len(), distinct_keys);
    }

    #[test]
    fn head_is_prefix(df in frame_strategy(2, 25), k in 0usize..30, off in 0usize..30) {
        let h = df.head(k, off);
        prop_assert!(h.len() <= k);
        for (i, row) in h.rows().iter().enumerate() {
            prop_assert_eq!(row, df.row(off + i));
        }
    }

    #[test]
    fn csv_roundtrip(df in frame_strategy(3, 15)) {
        let text = dataframe::csv::to_csv(&df);
        let back = dataframe::csv::from_csv(&text).expect("parses");
        // Exactly, not just `==`: an integral float must come back a float.
        prop_assert_eq!(Model::of(&back).show(), Model::of(&df).show());
        prop_assert_eq!(df, back);
    }

    #[test]
    fn concat_length_adds(a in frame_strategy(2, 15), b in frame_strategy(2, 15)) {
        prop_assert_eq!(a.concat(&b).len(), a.len() + b.len());
    }

    #[test]
    fn the_three_ways_to_build_a_frame_agree(rows in rows_strategy(3, 20)) {
        let want = Model { columns: build(0, 3, &[]).columns().to_vec(), rows: rows.clone() };
        let built: Vec<DataFrame> = (0..3).map(|how| build(how, 3, &rows)).collect();
        for df in &built {
            // The cells read back are the cells put in, variant for variant…
            prop_assert_eq!(Model::of(df).show(), want.show());
            // …and frames are equal whatever codes hold their cells.
            prop_assert_eq!(df, &built[0]);
            prop_assert_eq!(&built[0], df);
        }
        // Interning by value leaves one entry per distinct value; null has none.
        let mut values: Vec<String> = rows.iter().flatten().filter(|c| !c.is_null()).map(exact).collect();
        values.sort();
        values.dedup();
        prop_assert_eq!(built[2].dictionary().len(), values.len());
        prop_assert_eq!(built[0].dictionary().len(), rows.iter().flatten().filter(|c| !c.is_null()).count());
    }

    #[test]
    fn row_operators_match_the_row_model(
        df in frame_strategy(3, 20),
        threshold in 0i64..6,
        k in 0usize..25,
        off in 0usize..25,
    ) {
        let m = Model::of(&df);
        let big = |c: &Cell| c.as_f64().is_some_and(|v| v >= threshold as f64);
        prop_assert_eq!(
            Model::of(&df.filter(|r| big(&r[0]) || r.get("c2").is_some_and(Cell::is_uri))).show(),
            m.filter(|r| big(&r[0]) || r[2].is_uri()).show()
        );
        prop_assert_eq!(Model::of(&df.filter_col("c1", big)).show(), m.filter(|r| big(&r[1])).show());
        prop_assert_eq!(Model::of(&df.filter_col("nope", big)).show(), m.filter(|_| false).show());
        prop_assert_eq!(Model::of(&df.drop_nulls("c2")).show(), m.filter(|r| !r[2].is_null()).show());
        let keep = ["c2", "nope", "c0", "c2"];
        prop_assert_eq!(Model::of(&df.select(&keep)).show(), m.select(&keep).show());
        // Stable, nulls first, `Int`/`Float` by value; unknown keys ignored.
        let keys = [("c1", true), ("nope", true), ("c0", false)];
        prop_assert_eq!(Model::of(&df.sort_by(&keys)).show(), m.sort_by(&keys).show());
        prop_assert_eq!(Model::of(&df.head(k, off)).show(), m.head(k, off).show());
        prop_assert_eq!(Model::of(&df.distinct()).show(), m.distinct().show());
        let label = |a: &Cell, b: &Cell| if a == b { a.clone() } else { Cell::str(format!("{a}/{b}")) };
        prop_assert_eq!(
            Model::of(&df.with_column("ab", |r| label(&r[0], &r[1]))).show(),
            m.with_column("ab", |r| label(&r[0], &r[1])).show()
        );
        // Operators compose on their own outputs.
        prop_assert_eq!(
            Model::of(&df.sort_by(&keys).distinct().head(k, 1).select(&keep)).show(),
            m.sort_by(&keys).distinct().head(k, 1).select(&keep).show()
        );
    }

    #[test]
    fn concat_and_joins_match_the_row_model(
        a in frame_strategy(3, 14),
        b in frame_strategy(2, 14),
    ) {
        // Sides share the key `c0` and the name `c1`; `a` alone has `c2`.
        let (ma, mb) = (Model::of(&a), Model::of(&b));
        prop_assert_eq!(Model::of(&a.concat(&b)).show(), ma.concat(&mb).show());
        prop_assert_eq!(Model::of(&b.concat(&a)).show(), mb.concat(&ma).show());
        // Both orders: whichever side is smaller becomes the build side.
        for how in JOIN_TYPES {
            prop_assert_eq!(
                Model::of(&a.join(&b, "c0", "c0", how).unwrap()).show(),
                ma.join(&mb, how).show(),
                "{how:?}, {} x {} rows", a.len(), b.len()
            );
            prop_assert_eq!(
                Model::of(&b.join(&a, "c0", "c0", how).unwrap()).show(),
                mb.join(&ma, how).show(),
                "{how:?}, {} x {} rows", b.len(), a.len()
            );
            // `c2` is a column of `a` only: unknown on either side of `b`.
            prop_assert_eq!(
                a.join(&b, "c2", "c2", how),
                Err(JoinError::UnknownRightColumn("c2".into()))
            );
            prop_assert_eq!(
                b.join(&a, "c2", "c0", how),
                Err(JoinError::UnknownLeftColumn("c2".into()))
            );
        }
    }

    #[test]
    fn group_by_matches_the_row_model(df in frame_strategy(3, 25)) {
        let m = Model::of(&df);
        let specs: Vec<(AggFn, &str, &str)> = AGG_FNS
            .iter()
            .zip(["n", "nd", "sum", "avg", "min", "max", "any"])
            .map(|(f, out)| (*f, "c2", out))
            .chain([(AggFn::Count, "nope", "none")])
            .collect();
        for keys in [&["c0"][..], &["c1", "c0"], &[], &["nope", "c0"]] {
            prop_assert_eq!(
                Model::of(&df.group_by(keys).agg(&specs)).show(),
                m.agg(keys, &specs).show(),
                "keys {keys:?}"
            );
        }
    }
}

/// Cells around the edges of `Int`/`Float` equality: ±0.0, NaN, integral
/// floats, and 2^53 ± 1 where `i64 → f64` stops being exact.
fn edge_cell_strategy() -> impl Strategy<Value = Cell> {
    const P53: i64 = 1 << 53;
    let ints = prop_oneof![
        -2i64..4,
        (P53 - 2)..(P53 + 3),
        (-P53 - 2)..(-P53 + 3),
        any::<i64>()
    ];
    prop_oneof![
        ints.prop_map(Cell::Int),
        prop_oneof![-2i64..4, (P53 - 2)..(P53 + 3), any::<i64>()]
            .prop_map(|i| Cell::Float(i as f64)),
        prop_oneof![Just(-0.0), Just(f64::NAN), Just(2.5), Just(f64::INFINITY)]
            .prop_map(Cell::Float),
        any::<f64>().prop_map(Cell::Float),
        prop_oneof![
            Just(Cell::Null),
            Just(Cell::Bool(false)),
            Just(Cell::Bool(true))
        ],
        (0u8..3).prop_map(|k| Cell::str(k.to_string())),
        (0u8..3).prop_map(|k| Cell::uri(k.to_string())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// The `Eq`/`Hash` contract grouping by canonical id leans on.
    #[test]
    fn equal_cells_hash_alike(a in edge_cell_strategy(), b in edge_cell_strategy()) {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hash = |c: &Cell| BuildHasherDefault::<DefaultHasher>::default().hash_one(c);
        prop_assert_eq!(&a, &a);
        prop_assert_eq!(a == b, b == a);
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b), "{a:?} == {b:?}");
        }
    }
}
