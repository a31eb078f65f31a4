//! The correctness gate: an order-insensitive result fingerprint, the
//! reference-interpreter comparison made once in set-up, and the seed-1
//! pins that catch an input change made outside this directory.

use dataframe::{Cell, DataFrame};
use rdf_model::Dataset;
use rdfframes_core::reference::{compare_unordered, evaluate_reference};

use crate::frames::FrameDef;
use crate::inputs::DEFAULT_SCALE;

/// Row count plus an order-insensitive checksum of every cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub checksum: u64,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn cell_hash(h: u64, cell: &Cell) -> u64 {
    match cell {
        Cell::Null => fnv(h, &[0]),
        Cell::Uri(s) => fnv(fnv(h, &[1]), s.as_bytes()),
        Cell::Str(s) => fnv(fnv(h, &[2]), s.as_bytes()),
        Cell::Int(i) => fnv(fnv(h, &[3]), &i.to_le_bytes()),
        Cell::Float(f) => fnv(fnv(h, &[4]), &f.to_bits().to_le_bytes()),
        Cell::Bool(b) => fnv(h, &[5, u8::from(*b)]),
    }
}

/// Hash one row whose cells are given in column-name order.
pub fn row_hash<'a>(cells: impl Iterator<Item = &'a Cell>) -> u64 {
    let h = cells.fold(0xCBF2_9CE4_8422_2325, cell_hash);
    // Finalize so that the wrapping sum over rows mixes all bits.
    (h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fingerprint a frame: rows are hashed with their cells in column-name
/// order and summed, so neither row order nor column order matters. This
/// walk through the public row accessor is also the consumer-side read the
/// traced pass times as `dataframe.scan_ms`.
pub fn fingerprint(df: &DataFrame) -> Fingerprint {
    let mut order: Vec<usize> = (0..df.columns().len()).collect();
    order.sort_by(|&a, &b| df.columns()[a].cmp(&df.columns()[b]));
    let checksum = df
        .rows()
        .iter()
        .map(|row| row_hash(order.iter().map(|&c| &row[c])))
        .fold(0u64, u64::wrapping_add);
    Fingerprint {
        rows: df.len(),
        checksum,
    }
}

/// Scale-4000 pins: the dataset's triple count, each frame's row count
/// (the same for every seed) and, at seed 1, its checksum. A change to
/// `kg-datagen` or the interner that alters the inputs shows up here as a
/// failed gate, not as a silent change of workload.
pub const PINNED_TRIPLES: usize = 178_978;
const PINNED: &[(&str, usize, u64)] = &[
    ("cs1", 17_608, 0x018a_afba_6c10_4e11),
    ("cs2", 2_612, 0x70b2_094c_99be_56d6),
    ("cs3", 35_770, 0x96fd_32ef_3469_92db),
    ("Q1", 400, 0xf88f_4725_f74e_c9bd),
    ("Q2", 7, 0x7aa5_0fb5_5c55_d688),
    ("Q3", 20, 0x7fb5_6d77_27d1_0d08),
    ("Q4", 260, 0x9bb7_d193_3ec3_1b29),
    ("Q5", 303, 0xaaa2_f08c_0b36_0812),
    ("Q6", 120, 0xa219_0f3d_d274_6994),
    ("Q7", 400, 0x300b_0070_df9d_a165),
    ("Q8", 86, 0xe3cd_b5b0_7d22_2513),
    ("Q9", 337_135, 0xce30_63f7_7623_fb8b),
    ("Q10", 600, 0xe083_37f3_af36_45b5),
    ("Q11", 6_800, 0x9ba2_9ac6_1b95_a0ed),
    ("Q12", 20, 0x2650_5331_cced_0ecc),
    ("Q13", 4_053, 0x5579_1df0_0770_08a3),
    ("Q14", 365, 0xc64f_82a7_0f62_4d8c),
    ("Q15", 172, 0x5040_8dd3_62c8_5908),
    ("Q16", 19_580, 0x8a6d_6d16_702e_142a),
    ("Q17", 428, 0x2124_508f_3959_15bd),
    ("Q18", 8_000, 0x641a_287c_f5dc_5b91),
    ("Q19", 2_814, 0xf187_96b4_31ac_16cc),
];

/// The result every op of a frame must reproduce.
pub struct Expected {
    pub frame: FrameDef,
    pub fingerprint: Fingerprint,
}

impl Expected {
    /// Check a result of this frame against `want` (the gate's fingerprint,
    /// or what it has grown to under `serve_mixed`'s writes).
    pub fn check_against(&self, df: &DataFrame, want: Fingerprint) -> Result<(), String> {
        let got = fingerprint(df);
        if got == want {
            Ok(())
        } else {
            Err(format!("{}: got {got:?}, expected {want:?}", self.frame.id))
        }
    }

    pub fn check(&self, df: &DataFrame) -> Result<(), String> {
        self.check_against(df, self.fingerprint)
    }
}

/// Evaluate every frame with the independent reference interpreter and
/// with `run` (the path under test), and demand equal results. Returns the
/// expected fingerprints, or the list of failures.
pub fn gate(
    frames: &[FrameDef],
    dataset: &Dataset,
    scale: usize,
    seed: u64,
    mut run: impl FnMut(&FrameDef) -> Result<DataFrame, String>,
) -> Result<Vec<Expected>, Vec<String>> {
    let mut expected = Vec::new();
    let mut failures = Vec::new();
    for frame in frames {
        let outcome = (|| {
            let got = run(frame)?;
            let want = evaluate_reference(&(frame.build)(), dataset)
                .map_err(|e| format!("reference failed: {e}"))?;
            compare_unordered(&got, &want)?;
            let fp = fingerprint(&got);
            // Smaller scales are smoke runs whose fixed thresholds may
            // select nothing; at benchmark scale an empty frame measures
            // nothing and is a failure.
            if fp.rows == 0 && scale >= DEFAULT_SCALE {
                return Err("empty result".to_string());
            }
            if scale == DEFAULT_SCALE {
                // Seeds only relabel the data, so the row count is pinned
                // for every seed and the checksum for seed 1.
                let pin = PINNED.iter().find(|p| p.0 == frame.id);
                let rows_ok = pin.is_some_and(|p| p.1 == fp.rows);
                let checksum_ok = seed != 1 || pin.is_some_and(|p| p.2 == fp.checksum);
                if !(rows_ok && checksum_ok) {
                    return Err(format!(
                        "result {}/{:#018x} is not the pinned {pin:?}",
                        fp.rows, fp.checksum
                    ));
                }
            }
            Ok(fp)
        })();
        match outcome {
            Ok(fingerprint) => expected.push(Expected {
                frame: *frame,
                fingerprint,
            }),
            Err(e) => failures.push(format!("{}: {e}", frame.id)),
        }
    }
    if failures.is_empty() {
        Ok(expected)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(cols: &[&str], rows: Vec<Vec<Cell>>) -> DataFrame {
        let mut df = DataFrame::new(cols.iter().map(|c| c.to_string()).collect());
        for row in rows {
            df.push_row(row);
        }
        df
    }

    #[test]
    fn fingerprint_ignores_row_and_column_order_but_not_content() {
        let a = frame(
            &["x", "y"],
            vec![
                vec![Cell::Int(1), Cell::uri("http://a")],
                vec![Cell::Int(2), Cell::Null],
            ],
        );
        let b = frame(
            &["y", "x"],
            vec![
                vec![Cell::Null, Cell::Int(2)],
                vec![Cell::uri("http://a"), Cell::Int(1)],
            ],
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Swapping two cells between rows keeps every column's multiset
        // but must change the fingerprint.
        let c = frame(
            &["x", "y"],
            vec![
                vec![Cell::Int(2), Cell::uri("http://a")],
                vec![Cell::Int(1), Cell::Null],
            ],
        );
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // A URI is not the string with the same text.
        let d = frame(
            &["x", "y"],
            vec![
                vec![Cell::Int(1), Cell::str("http://a")],
                vec![Cell::Int(2), Cell::Null],
            ],
        );
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }
}
