//! Hash joins between dataframes.

use std::collections::HashMap;
use std::fmt;

use crate::coded::canonical;
use crate::frame::{merged, DataFrame};

/// Why [`join_frames`] refused: a key column the frame does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// `left_on` names no column of the left frame.
    UnknownLeftColumn(String),
    /// `right_on` names no column of the right frame.
    UnknownRightColumn(String),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::UnknownLeftColumn(c) => write!(f, "unknown left join column {c}"),
            JoinError::UnknownRightColumn(c) => write!(f, "unknown right join column {c}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Join types matching the RDFFrames API (`Z`, `⟕`, `⟖`, `⟗`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Right outer join.
    Right,
    /// Full outer join.
    Outer,
}

/// Hash join `left` and `right` on one key column from each side; a key
/// name either frame lacks is a [`JoinError`].
///
/// The output key column takes the *left* column's name; other columns keep
/// their names, with a `_right` suffix appended on collision (pandas-style
/// disambiguation). Null keys never match (SQL semantics).
///
/// The hash index is built on the *smaller* input and probed with the
/// larger, so index construction cost tracks `min(|L|, |R|)`. Output row
/// order follows the probe side; the joined bag is identical either way.
///
/// Keys are compared as cells — once per dictionary entry, through
/// [`canonical`] — and the rows are then matched and gathered as codes: the
/// output's dictionary is the left one followed by the right one.
pub fn join_frames(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    how: JoinType,
) -> Result<DataFrame, JoinError> {
    let li = left
        .column_index(left_on)
        .ok_or_else(|| JoinError::UnknownLeftColumn(left_on.to_string()))?;
    let ri = right
        .column_index(right_on)
        .ok_or_else(|| JoinError::UnknownRightColumn(right_on.to_string()))?;

    // Output schema: all left columns, then right columns except the key.
    let mut columns: Vec<String> = left.columns().to_vec();
    let mut right_cols: Vec<usize> = Vec::new();
    for (i, c) in right.columns().iter().enumerate() {
        if i == ri {
            continue;
        }
        columns.push(if columns.contains(c) {
            format!("{c}_right")
        } else {
            c.clone()
        });
        right_cols.push(i);
    }

    // Build on the smaller side, probe with the larger (ties keep the
    // classic build-right orientation). Null keys are never indexed. One
    // swap-aware loop serves both orientations: the outer-join rules stay
    // phrased in left/right terms, only build/probe flip.
    let canon = canonical(&[&left.dict, &right.dict]);
    let build_right = right.len() <= left.len();
    let ((build, build_ids), (probe, probe_ids)) = {
        let (l, r) = ((&left.codes[li], &canon[0]), (&right.codes[ri], &canon[1]));
        if build_right {
            (r, l)
        } else {
            (l, r)
        }
    };
    // An unmatched row survives when its own side is preserved.
    let keep_left = matches!(how, JoinType::Left | JoinType::Outer);
    let keep_right = matches!(how, JoinType::Right | JoinType::Outer);
    let (keep_unmatched_probe, keep_unmatched_build) = if build_right {
        (keep_left, keep_right)
    } else {
        (keep_right, keep_left)
    };

    let mut index: HashMap<u32, Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, &code) in build.iter().enumerate() {
        if code != 0 {
            index.entry(build_ids[code as usize]).or_default().push(i);
        }
    }
    // The output as (left row, right row) pairs, `None` where a side is
    // absent. A 1:1 join emits one pair per probe row; reserving that lower
    // bound avoids most regrowth (duplicates regrow as needed).
    let mut l_rows: Vec<Option<usize>> = Vec::with_capacity(probe.len());
    let mut r_rows: Vec<Option<usize>> = Vec::with_capacity(probe.len());
    let mut emit = |p_row: Option<usize>, b_row: Option<usize>| {
        let (l, r) = if build_right {
            (p_row, b_row)
        } else {
            (b_row, p_row)
        };
        l_rows.push(l);
        r_rows.push(r);
    };
    let mut build_matched = vec![false; build.len()];
    for (p, &code) in probe.iter().enumerate() {
        let matches = (code != 0)
            .then(|| index.get(&probe_ids[code as usize]))
            .flatten();
        match matches {
            Some(rows) => {
                for &b in rows {
                    build_matched[b] = true;
                    emit(Some(p), Some(b));
                }
            }
            None if keep_unmatched_probe => emit(Some(p), None),
            None => {}
        }
    }
    if keep_unmatched_build {
        for (b, _) in build_matched.iter().enumerate().filter(|(_, m)| !**m) {
            emit(None, Some(b));
        }
    }

    let (mut out, shifted) = merged(columns, left, right);
    let right_code = |col: usize, r: usize| shifted(right.codes[col][r]);
    for (c, col) in left.codes.iter().enumerate() {
        let pairs = l_rows.iter().zip(&r_rows);
        out.codes.push(
            pairs
                .map(|pair| match pair {
                    (Some(l), _) => col[*l],
                    // Right-only row: the key column takes the right key.
                    (None, Some(r)) if c == li => right_code(ri, *r),
                    _ => 0,
                })
                .collect(),
        );
    }
    for &src in &right_cols {
        let column = r_rows.iter().map(|r| r.map_or(0, |r| right_code(src, r)));
        out.codes.push(column.collect());
    }
    out.len = l_rows.len();
    Ok(DataFrame(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;

    /// The join of two frames that have their key columns.
    fn join_frames(l: &DataFrame, r: &DataFrame, lo: &str, ro: &str, how: JoinType) -> DataFrame {
        super::join_frames(l, r, lo, ro, how).expect("both key columns exist")
    }

    #[test]
    fn unknown_key_columns_are_errors_not_panics() {
        for how in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Outer,
        ] {
            assert_eq!(
                super::join_frames(&left(), &right(), "nope", "actor", how),
                Err(JoinError::UnknownLeftColumn("nope".into()))
            );
            assert_eq!(
                left().join(&right(), "actor", "count_", how),
                Err(JoinError::UnknownRightColumn("count_".into()))
            );
            // A column of the other side is still unknown to this one.
            assert_eq!(
                super::join_frames(&left(), &right(), "count", "country", how),
                Err(JoinError::UnknownLeftColumn("count".into()))
            );
        }
        assert_eq!(
            JoinError::UnknownRightColumn("x".into()).to_string(),
            "unknown right join column x"
        );
    }

    fn left() -> DataFrame {
        let mut df = DataFrame::new(vec!["actor".into(), "country".into()]);
        df.push_row(vec![Cell::uri("a1"), Cell::str("US")]).unwrap();
        df.push_row(vec![Cell::uri("a2"), Cell::str("UK")]).unwrap();
        df.push_row(vec![Cell::uri("a3"), Cell::str("US")]).unwrap();
        df
    }

    fn right() -> DataFrame {
        let mut df = DataFrame::new(vec!["actor".into(), "count".into()]);
        df.push_row(vec![Cell::uri("a1"), Cell::Int(30)]).unwrap();
        df.push_row(vec![Cell::uri("a4"), Cell::Int(7)]).unwrap();
        df
    }

    #[test]
    fn inner() {
        let j = join_frames(&left(), &right(), "actor", "actor", JoinType::Inner);
        assert_eq!(j.columns(), &["actor", "country", "count"]);
        assert_eq!(j.len(), 1);
        assert_eq!(j.get(0, "count"), Some(&Cell::Int(30)));
    }

    #[test]
    fn left_outer() {
        let j = join_frames(&left(), &right(), "actor", "actor", JoinType::Left);
        assert_eq!(j.len(), 3);
        assert_eq!(j.get(1, "count"), Some(&Cell::Null));
    }

    #[test]
    fn right_outer() {
        let j = join_frames(&left(), &right(), "actor", "actor", JoinType::Right);
        assert_eq!(j.len(), 2);
        // a4 row: left columns null except key.
        let a4 = j
            .rows()
            .iter()
            .find(|r| r[0] == Cell::uri("a4"))
            .expect("a4 present");
        assert_eq!(a4[1], Cell::Null);
        assert_eq!(a4[2], Cell::Int(7));
    }

    #[test]
    fn full_outer() {
        let j = join_frames(&left(), &right(), "actor", "actor", JoinType::Outer);
        assert_eq!(j.len(), 4); // a1 matched, a2/a3 left-only, a4 right-only
    }

    #[test]
    fn duplicate_keys_multiply() {
        let mut l = DataFrame::new(vec!["k".into()]);
        l.push_row(vec![Cell::Int(1)]).unwrap();
        l.push_row(vec![Cell::Int(1)]).unwrap();
        let mut r = DataFrame::new(vec!["k".into(), "v".into()]);
        r.push_row(vec![Cell::Int(1), Cell::str("x")]).unwrap();
        r.push_row(vec![Cell::Int(1), Cell::str("y")]).unwrap();
        let j = join_frames(&l, &r, "k", "k", JoinType::Inner);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn null_keys_do_not_match() {
        let mut l = DataFrame::new(vec!["k".into()]);
        l.push_row(vec![Cell::Null]).unwrap();
        let mut r = DataFrame::new(vec!["k".into()]);
        r.push_row(vec![Cell::Null]).unwrap();
        assert_eq!(join_frames(&l, &r, "k", "k", JoinType::Inner).len(), 0);
        assert_eq!(join_frames(&l, &r, "k", "k", JoinType::Outer).len(), 2);
    }

    #[test]
    fn name_collision_gets_suffix() {
        let mut l = DataFrame::new(vec!["k".into(), "v".into()]);
        l.push_row(vec![Cell::Int(1), Cell::str("l")]).unwrap();
        let mut r = DataFrame::new(vec!["k".into(), "v".into()]);
        r.push_row(vec![Cell::Int(1), Cell::str("r")]).unwrap();
        let j = join_frames(&l, &r, "k", "k", JoinType::Inner);
        assert_eq!(j.columns(), &["k", "v", "v_right"]);
    }

    #[test]
    fn smaller_left_side_becomes_build_side() {
        // left (1 row) < right (3 rows): the index is built on the left and
        // probed with the right; results must match the classic orientation.
        let mut l = DataFrame::new(vec!["k".into(), "lv".into()]);
        l.push_row(vec![Cell::Int(1), Cell::str("a")]).unwrap();
        let mut r = DataFrame::new(vec!["k".into(), "rv".into()]);
        r.push_row(vec![Cell::Int(1), Cell::str("x")]).unwrap();
        r.push_row(vec![Cell::Int(1), Cell::str("y")]).unwrap();
        r.push_row(vec![Cell::Int(2), Cell::str("z")]).unwrap();

        let inner = join_frames(&l, &r, "k", "k", JoinType::Inner);
        assert_eq!(inner.len(), 2);
        assert_eq!(inner.columns(), &["k", "lv", "rv"]);

        let left_join = join_frames(&l, &r, "k", "k", JoinType::Left);
        assert_eq!(left_join.len(), 2); // every left row matched

        let right_join = join_frames(&l, &r, "k", "k", JoinType::Right);
        assert_eq!(right_join.len(), 3); // k=2 survives with null left cols
        let unmatched = right_join
            .rows()
            .iter()
            .find(|row| row[0] == Cell::Int(2))
            .expect("k=2 present");
        assert_eq!(unmatched[1], Cell::Null);
        assert_eq!(unmatched[2], Cell::str("z"));

        let outer = join_frames(&l, &r, "k", "k", JoinType::Outer);
        assert_eq!(outer.len(), 3);
    }

    #[test]
    fn different_key_names() {
        let mut l = DataFrame::new(vec!["a".into()]);
        l.push_row(vec![Cell::Int(1)]).unwrap();
        let mut r = DataFrame::new(vec!["b".into(), "v".into()]);
        r.push_row(vec![Cell::Int(1), Cell::str("x")]).unwrap();
        let j = join_frames(&l, &r, "a", "b", JoinType::Inner);
        assert_eq!(j.columns(), &["a", "v"]);
        assert_eq!(j.len(), 1);
    }
}
