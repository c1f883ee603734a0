//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark prints: its name and unit, exactly as
/// listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("query_p50_ms", "ms"),
    m("query_p99_ms", "ms"),
    m("queries_per_s", "1/s"),
    m("commit_p50_ms", "ms"),
    m("commit_p99_ms", "ms"),
    m("commits_per_s", "1/s"),
    m("peak_rss_mb", "MiB"),
    m("store_bytes_per_row", "B"),
];

/// Printed by every traced run (`--trace 1`). A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("query.parse_us", "us"),
    m("query.plan_us", "us"),
    m("core.structure_versions_us", "us"),
    m("core.present_ms", "ms"),
    m("core.fold_ms", "ms"),
    m("core.compare_ms", "ms"),
    m("core.rows_per_result_row", "ratio"),
    m("core.memo_hit_ratio", "ratio"),
    m("core.post_evolution_query_ms", "ms"),
    m("storage.render_us", "us"),
    m("server.wire_overhead_query_ms", "ms"),
    m("server.wire_overhead_commit_ms", "ms"),
    m("server.proto_us", "us"),
    m("server.queued_max", "count"),
    m("server.refused", "count"),
    m("server.forwarded_frac", "ratio"),
    m("durable.store_lock_wait_p50_us", "us"),
    m("durable.store_lock_wait_p99_us", "us"),
    m("durable.fact_commit_ms", "ms"),
    m("durable.evolution_commit_ms", "ms"),
    m("durable.fsyncs_per_commit", "ratio"),
    m("durable.io_ops_per_commit", "ratio"),
    m("durable.wal_bytes_per_commit", "B"),
    m("durable.checkpoints", "count"),
    m("replica.follower_lag_lsn_p99", "count"),
    m("replica.frames_per_request", "ratio"),
    m("cluster.requests_per_commit", "ratio"),
    m("cluster.quorum_wait_ms", "ms"),
    m("cluster.pump_stalls", "count"),
    m("cluster.catchup_s", "s"),
    m("loadgen.late_p99_ms", "ms"),
    m("trace.overhead_frac", "ratio"),
    m("trace.unaccounted_frac.tcm", "ratio"),
    m("trace.unaccounted_frac.version", "ratio"),
    m("trace.unaccounted_frac.at", "ratio"),
    m("trace.unaccounted_frac.dept", "ratio"),
    m("trace.unaccounted_frac.where", "ratio"),
    m("trace.unaccounted_frac.range", "ratio"),
    m("trace.unaccounted_frac.allmodes", "ratio"),
];

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// The tail quantile a sample of `n` supports: 0.99 from 1,000 samples
/// on, otherwise the highest quantile with at least ten samples beyond
/// it (the maximum below eleven samples).
pub fn tail_q(n: usize) -> f64 {
    if n <= 10 {
        return 1.0;
    }
    (0.99f64).min((n - 10) as f64 / n as f64)
}

/// Tail latency of `v` by [`tail_q`], with the quantile used.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let q = tail_q(v.len());
    (quantile(v, q), q)
}

/// Collects named values and renders the result line.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line over `defs`: every metric of `defs`, nothing else.
    ///
    /// # Errors
    ///
    /// A metric of `defs` that was never recorded, or a recorded one
    /// that neither [`END_TO_END`] nor [`PER_LAYER`] lists.
    pub fn result_line(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        for name in self.values.keys() {
            if !END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == *name) {
                return Err(format!("metric {name} is not listed"));
            }
        }
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(*v),
                d.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{metrics}}}}}"
        ))
    }

    /// `name value unit` lines for a human reader.
    pub fn table(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter_map(|d| {
                self.values
                    .get(d.name)
                    .map(|v| format!("{:<36} {:>14.4} {}", d.name, v, d.unit))
            })
            .collect()
    }
}

/// A JSON number: finite values verbatim, anything else clamped.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_uses_p99_only_with_enough_samples() {
        assert_eq!(tail_q(1000), 0.99);
        assert!((tail_q(200) - 0.95).abs() < 1e-12);
        assert_eq!(tail_q(5), 1.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // Ten samples lie beyond the value reported.
        assert_eq!(tail(&v).0, 190.0);
    }

    #[test]
    fn result_line_requires_exactly_the_listed_metrics() {
        let defs = &END_TO_END[..2];
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        assert!(r.result_line(defs, true, 1, 0).is_err());
        r.set("query_p50_ms", 2.0);
        r.set("core.present_ms", 3.0);
        let line = r.result_line(defs, true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"query_p50_ms\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        r.set("unlisted_ms", 1.0);
        assert!(r.result_line(defs, true, 3, 0).is_err());
    }
}
