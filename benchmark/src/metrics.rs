//! The metric catalogue — every name `BENCHMARK.json` lists, with its unit
//! and direction — and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower: bool,
    /// A single-threaded count that must repeat exactly for a given seed.
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower: true,
        exact: false,
    }
}

const fn exact(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        lower: true,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower: false,
        exact: false,
    }
}

/// What a user of the system sees; reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_ms_min", "ms"),
    m("peak_heap_mb", "MiB"),
    m("dataset_heap_mb", "MiB"),
];

/// One layer each, named `<module>.<what>`. A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("api.record_us", "us"),
    m("generator.build_us", "us"),
    m("render.render_us", "us"),
    m("render.sparql_bytes", "bytes"),
    m("compile.compile_us", "us"),
    m("parser.parse_us", "us"),
    m("algebra.translate_us", "us"),
    m("optimizer.prepare_us", "us"),
    m("pipeline.build_us", "us"),
    m("pipeline.drain_ms", "ms"),
    exact("pipeline.rows_scanned"),
    exact("pipeline.rows_out"),
    m("pipeline.scans_per_row", "ratio"),
    exact("pipeline.batches"),
    m("pipeline.peak_live_mb", "MiB"),
    higher("pipeline.merge_joins", "count"),
    higher("pipeline.merge_left_joins", "count"),
    higher("pipeline.sorted_distincts", "count"),
    higher("pipeline.sorted_groups", "count"),
    m("eval.execute_page_ms", "ms"),
    exact("eval.pages"),
    exact("eval.rows_scanned"),
    m("eval.rescan_ratio", "ratio"),
    m("xml.encode_ms", "ms"),
    m("xml.decode_ms", "ms"),
    exact("xml.bytes"),
    m("xml.bytes_per_row", "bytes"),
    m("convert.to_dataframe_ms", "ms"),
    m("convert.decode_assemble_ms", "ms"),
    m("convert.ns_per_cell", "ns"),
    m("convert.append_table_ms", "ms"),
    m("dataframe.result_mb", "MiB"),
    m("dataframe.scan_ms", "ms"),
    m("client.overhead_us", "us"),
    m("exec.overhead_ms", "ms"),
    m("client.op_ms_p50", "ms"),
    m("client.op_ms_p25", "ms"),
    m("client.op_ms_p75", "ms"),
    m("client.op_ms_p90", "ms"),
    m("client.round_spread_pct", "%"),
    m("client.trace_overhead_pct", "%"),
    m("client.failed_share", "ratio"),
    m("serving.snapshot_us", "us"),
    m("serving.read_steady_ms_p50", "ms"),
    m("serving.read_after_publish_ms_p50", "ms"),
    m("serving.publish_ms_p50", "ms"),
    m("serving.ckpt_publish_ms_p50", "ms"),
    m("serving.publish_ms_p90", "ms"),
    m("serving.publish_late_ms_p50", "ms"),
    higher("serving.epochs_published", "count"),
    higher("serving.admitted", "count"),
    m("serving.shed", "count"),
    exact("persist.wal_commits"),
    m("persist.checkpoints", "count"),
    m("persist.wal_bytes_per_update", "bytes"),
    m("persist.checkpoint_ms_p50", "ms"),
    m("persist.snapshot_bytes", "bytes"),
    m("persist.bytes_per_triple", "bytes"),
    m("persist.open_s", "s"),
    m("persist.initial_commit_s", "s"),
    m("datagen.generate_s", "s"),
    m("dataset.insert_graph_s", "s"),
    exact("dataset.triples"),
    m("dataset.heap_bytes_per_triple", "bytes"),
];

/// Measured values by metric name.
#[derive(Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Values,
    /// Whether the traced pass ran, so per-layer values exist.
    pub traced: bool,
}

impl Report {
    /// The metrics this run reports: per-layer after a traced run,
    /// end-to-end otherwise.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn value(&self, def: &MetricDef) -> f64 {
        match self.values.get(def.name) {
            Some(v) => v,
            // Only a per-layer metric may be absent: the layer was bypassed.
            None => {
                assert!(self.traced, "end-to-end metric {} not measured", def.name);
                0.0
            }
        }
    }

    /// Every reported metric by name, with unit and direction.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for def in self.defs() {
            let _ = writeln!(
                out,
                "{:<16} {:<36} {:>16.4} {:<6} ({} is better{})",
                self.workload,
                def.name,
                self.value(def),
                def.unit,
                if def.lower { "lower" } else { "higher" },
                if def.exact { ", repeats exactly" } else { "" },
            );
        }
        out
    }

    /// The single-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in self.defs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                self.value(def),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }
}
