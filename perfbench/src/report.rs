//! The metric catalog and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names, units and directions
//! `BENCHMARK.json` declares; the unit test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("accept_ratio", "ratio"),
    ("mean_cost", "cost"),
    ("served_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_depth_max", "count"),
    ("serve.rejected_queue_full", "count"),
    ("serve.wire_bytes_per_op", "B"),
    ("serve.admission_refused", "count"),
    ("serve.parse_us_p50", "us"),
    ("serve.self_ms", "ms"),
    ("shard.embed_us_p50", "us"),
    ("shard.embed_us_p99", "us"),
    ("shard.release_us_p50", "us"),
    ("shard.commit_retries", "count"),
    ("shard.audits_failed", "count"),
    ("shard.self_ms", "ms"),
    ("net.residual_us_p50", "us"),
    ("net.tree_misses_per_solve", "count"),
    ("net.tree_build_us_p50", "us"),
    ("net.oracle_hit_ratio", "ratio"),
    ("net.larac_us_p50", "us"),
    ("net.delay_tree_us_p50", "us"),
    ("net.bucket_axis_share", "ratio"),
    ("net.self_ms", "ms"),
    ("core.solve_us_p50", "us"),
    ("core.solve_us_p99", "us"),
    ("core.reject_solve_us_p50", "us"),
    ("core.path_cache_hit_ratio", "ratio"),
    ("core.path_queries_per_solve", "count"),
    ("core.nodes_expanded_per_solve", "count"),
    ("core.candidates_generated_per_solve", "count"),
    ("core.candidates_kept_ratio", "ratio"),
    ("core.fst_nodes_per_solve", "count"),
    ("core.bst_nodes_per_solve", "count"),
    ("core.delay_rejected_per_solve", "count"),
    ("core.self_ms", "ms"),
    ("audit.audit_us_p50", "us"),
    ("audit.self_ms", "ms"),
    ("sim.serial_s", "s"),
    ("sim.parallel_efficiency", "ratio"),
    ("sim.point_ms_max", "ms"),
    ("sim.self_ms", "ms"),
    ("loadgen.late_us_p99", "us"),
    ("loadgen.release_slips", "count"),
    ("loadgen.backlog_growth", "count"),
    ("loadgen.failed_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.host_ref_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Of those, failures (no reply, transport or protocol error,
    /// `queue full`).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity; a latency that never arrived is reported
        // as the largest finite value so the run still reads as a miss.
        format!("{}", f64::MAX)
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the selected catalog. End-to-end metrics must all be present; an
/// idle layer's metric reads 0.
pub fn result_line(out: &Outcome, trace: bool, correct: bool) -> Result<String, String> {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let value = match out.values.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn catalog_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap_or_default();
        let doc: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(_) => return, // outside a checkout holding BENCHMARK.json
        };
        let field = |v: &Value, key: &str| -> String {
            v.as_object()
                .and_then(|o| o.get(key).as_str().map(String::from))
                .unwrap_or_default()
        };
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = match doc.as_object().map(|o| o.get(key)) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| (field(m, "name"), field(m, "unit")))
                    .collect(),
                _ => Vec::new(),
            };
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = result_line(&out, false, true).unwrap_or_default();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        out.values.remove("p50_ms");
        assert!(result_line(&out, false, true).is_err());
        let traced = result_line(&out, true, true).unwrap_or_default();
        assert!(traced.contains("\"bench.unattributed_ms\": {\"value\": 0,"));
    }
}
