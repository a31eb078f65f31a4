//! The traced pass for the dataset-backed workloads: one op replayed stage
//! by stage through each layer's public function, a span around every
//! call. Nothing here reaches into the library; when the program grows its
//! own tracing, these numbers are what it will be judged against.
//!
//! The replayed op (root span `op`) performs exactly the stages a real op
//! performs. Measurements a real op does not perform — draining a second
//! cursor without decoding, walking the result, evaluating unpaged — run
//! under a separate root span `probe` with the same op id.

use std::collections::BTreeMap;
use std::sync::Arc;

use dataframe::DataFrame;
use rdf_model::Dataset;
use rdfframes_core::client::convert::{append_table, cursor_to_dataframe, table_to_dataframe};
use rdfframes_core::client::xml;
use rdfframes_core::model::compile::compile;
use rdfframes_core::model::generator::build_query_model;
use rdfframes_core::model::render::render;
use sparql_engine::algebra::translate_query;
use sparql_engine::parser::parse_query;
use sparql_engine::Engine;

use crate::check::Expected;
use crate::trace::Trace;
use crate::workloads::WIRE_PAGE_ROWS;

/// `EmbeddedEndpoint`'s default cursor batch size, which the replay must
/// use to see the batches a real op sees.
const BATCH_ROWS: usize = 16_384;

/// Per-op values that are counts or sizes, not spans.
pub type Counters = BTreeMap<&'static str, Vec<f64>>;

fn add(totals: &mut BTreeMap<&'static str, f64>, name: &'static str, value: f64) {
    *totals.entry(name).or_insert(0.0) += value;
}

fn flush(totals: BTreeMap<&'static str, f64>, counters: &mut Counters) {
    for (name, value) in totals {
        counters.entry(name).or_default().push(value);
    }
}

/// Replay one embedded op: record → model → render (the plan-cache key) →
/// compile → optimize → build the pipeline → drain and decode.
pub fn embedded_op(
    trace: &mut Trace,
    counters: &mut Counters,
    dataset: &Arc<Dataset>,
    expected: &[Expected],
) -> Result<(), String> {
    let mut totals = BTreeMap::new();
    let mut plans = Vec::new();
    let mut results = Vec::new();
    trace.begin_op("op");
    let engine = Engine::new(Arc::clone(dataset));
    for want in expected {
        let frame = trace.span("api.record", want.frame.build);
        let model = trace
            .span("generator.build", || build_query_model(&frame))
            .map_err(|e| e.to_string())?;
        let sparql = trace.span("render.render", || render(&model));
        add(&mut totals, "render.sparql_bytes", sparql.len() as f64);
        let compiled = trace
            .span("compile.compile", || compile(&model))
            .map_err(|e| e.to_string())?;
        let prepared = trace.span("optimizer.prepare", || {
            engine.prepare_plan(compiled.plan, compiled.from)
        });
        let mut cursor = trace
            .span("pipeline.build", || engine.cursor(&prepared, BATCH_ROWS))
            .map_err(|e| e.to_string())?;
        let df = trace
            .span("convert.to_dataframe", || cursor_to_dataframe(&mut cursor))
            .map_err(|e| e.to_string())?;
        drop(cursor);
        add(
            &mut totals,
            "convert.cells",
            (df.len() * df.columns().len()) as f64,
        );
        results.push(df);
        plans.push(prepared);
    }
    trace.end_op();

    trace.begin_probe("probe");
    for ((prepared, df), want) in plans.iter().zip(&results).zip(expected) {
        let mut cursor = engine
            .cursor(prepared, BATCH_ROWS)
            .map_err(|e| e.to_string())?;
        let rows = trace
            .span("pipeline.drain", || {
                let mut rows = 0;
                while let Some(batch) = cursor.next_batch()? {
                    rows += batch.len;
                }
                Ok::<_, sparql_engine::EngineError>(rows)
            })
            .map_err(|e| e.to_string())?;
        let stats = cursor.stats();
        for (name, count) in [
            ("pipeline.rows_out", rows as u64),
            ("pipeline.rows_scanned", stats.rows_scanned),
            ("pipeline.batches", stats.batches_emitted),
            ("pipeline.merge_joins", stats.merge_joins),
            ("pipeline.merge_left_joins", stats.merge_left_joins),
            ("pipeline.sorted_distincts", stats.sorted_distincts),
            ("pipeline.sorted_groups", stats.sorted_groups),
        ] {
            add(&mut totals, name, count as f64);
        }
        let peak = totals.entry("pipeline.peak_live_bytes").or_insert(0.0);
        *peak = peak.max(stats.peak_live_bytes as f64);
        trace.span("dataframe.scan", || want.check(df))?;
    }
    trace.end_op();
    flush(totals, counters);
    Ok(())
}

/// Replay one wire op: record → model → render, then what the endpoint
/// does with the text (parse → translate → optimize, once per text) and,
/// per page, evaluate → XML encode → XML decode → append.
pub fn wire_op(
    trace: &mut Trace,
    counters: &mut Counters,
    dataset: &Arc<Dataset>,
    expected: &[Expected],
) -> Result<(), String> {
    let mut totals = BTreeMap::new();
    let mut plans = Vec::new();
    let mut results = Vec::new();
    trace.begin_op("op");
    let engine = Engine::new(Arc::clone(dataset));
    for want in expected {
        let frame = trace.span("api.record", want.frame.build);
        let model = trace
            .span("generator.build", || build_query_model(&frame))
            .map_err(|e| e.to_string())?;
        let sparql = trace.span("render.render", || render(&model));
        add(&mut totals, "render.sparql_bytes", sparql.len() as f64);
        let parsed = trace
            .span("parser.parse", || parse_query(&sparql))
            .map_err(|e| e.to_string())?;
        let plan = trace
            .span("algebra.translate", || translate_query(&parsed))
            .map_err(|e| e.to_string())?;
        let prepared = trace.span("optimizer.prepare", || {
            engine.prepare_plan(plan, parsed.from)
        });
        let mut df: Option<DataFrame> = None;
        let mut offset = 0;
        loop {
            let (table, stats) = trace
                .span("eval.execute_page", || {
                    engine.execute_prepared(&prepared, Some((offset, WIRE_PAGE_ROWS)))
                })
                .map_err(|e| e.to_string())?;
            add(&mut totals, "eval.pages", 1.0);
            add(&mut totals, "eval.rows_scanned", stats.rows_scanned as f64);
            let text = trace.span("xml.encode", || xml::encode(&table));
            add(&mut totals, "xml.bytes", text.len() as f64);
            let decoded = trace
                .span("xml.decode", || xml::decode(&text))
                .ok_or("XML round trip failed")?;
            let first = trace
                .span("convert.append_table", || match df.as_mut() {
                    None => table_to_dataframe(&decoded).map(Some),
                    Some(df) => append_table(df, &decoded).map(|()| None),
                })
                .map_err(|e| e.to_string())?;
            if first.is_some() {
                df = first;
            }
            if decoded.len() < WIRE_PAGE_ROWS {
                break;
            }
            offset += WIRE_PAGE_ROWS;
        }
        let df = df.expect("at least one page");
        add(&mut totals, "xml.rows", df.len() as f64);
        results.push(df);
        plans.push(prepared);
    }
    trace.end_op();

    trace.begin_probe("probe");
    for ((prepared, df), want) in plans.iter().zip(&results).zip(expected) {
        let (_, stats) = trace
            .span("eval.unpaged", || engine.execute_prepared(prepared, None))
            .map_err(|e| e.to_string())?;
        add(
            &mut totals,
            "eval.unpaged_rows_scanned",
            stats.rows_scanned as f64,
        );
        trace.span("dataframe.scan", || want.check(df))?;
    }
    trace.end_op();
    flush(totals, counters);
    Ok(())
}
