//! Metric names, units and the result line. The two tables below are
//! the benchmark's contract with `BENCHMARK.json`; a test keeps them
//! identical.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("travel_p50_ms", "ms"),
    ("travel_p90_ms", "ms"),
    ("point_p50_ms", "ms"),
    ("point_p99_ms", "ms"),
    ("hop_p50_ms", "ms"),
    ("hop_p99_ms", "ms"),
    ("read_qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("door.overhead_us_p50", "us"),
    ("door.overhead_us_p99", "us"),
    ("proto.req_bytes", "B"),
    ("proto.reply_bytes", "B"),
    ("proto.codec_us", "us"),
    ("qos.throttled", "count"),
    ("parse.us_per_query", "us"),
    ("lang.plan_bytes", "B"),
    ("cluster.admit_wait_us", "us"),
    ("cluster.handoff_us", "us"),
    ("coord.executions_per_travel", "count"),
    ("server.requests_per_travel", "count"),
    ("cache.redundant_per_travel", "count"),
    ("queue.combined_per_travel", "count"),
    ("server.real_io_per_travel", "count"),
    ("server.useful_ratio", "ratio"),
    ("queue.wait_us_per_travel", "us"),
    ("queue.wait_us_per_pop", "us"),
    ("queue.peak", "count"),
    ("net.msgs_per_travel", "count"),
    ("net.bytes_per_travel", "B"),
    ("net.bytes_per_msg", "B"),
    ("kv.cold_reads_per_travel", "count"),
    ("kv.seq_reads_per_travel", "count"),
    ("kv.warm_reads_per_travel", "count"),
    ("kv.bytes_read_per_travel", "B"),
    ("kv.modeled_wait_ms_per_travel", "ms"),
    ("kv.write_amp", "ratio"),
    ("kv.space_amp", "ratio"),
    ("repl.replica_writes_per_ingest", "count"),
    ("mvcc.views_pinned_per_travel", "count"),
    ("mvcc.stale_seq_reads", "count"),
    ("mvcc.compactions_deferred", "count"),
    ("gen.write_late_ms_max", "ms"),
    ("failed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// One measured value. `None` marks a percentile the sample count does
/// not support; `base` keeps a ratio's numerator and denominator.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub base: Option<(f64, f64)>,
}

impl Metric {
    pub fn plain(name: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name,
            value,
            base: None,
        }
    }

    /// `num / den` (0 when nothing was counted), keeping its base.
    pub fn ratio(num: f64, den: f64) -> Metric {
        Metric {
            name: "",
            value: Some(if den == 0.0 { 0.0 } else { num / den }),
            base: Some((num, den)),
        }
    }

    pub fn named(mut self, name: &'static str) -> Metric {
        self.name = name;
        self
    }
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics in `table` order. Errors if a metric of the
/// table is missing or unsupported by its sample count.
pub fn result_line(
    table: &[(&'static str, &'static str)],
    metrics: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let v = m
            .value
            .ok_or_else(|| format!("metric {name}: too few samples for this percentile"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// A human-readable table on stderr, with the base of every ratio.
pub fn print_table(title: &str, table: &[(&'static str, &'static str)], metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        let unit = unit_of(table, m.name);
        let value = m
            .value
            .map_or("n/a (too few samples)".to_string(), |v| format!("{v:.4}"));
        match m.base {
            Some((num, den)) => eprintln!(
                "  {:<34} {value:>14} {unit:<6} = {num:.1} / {den:.1}",
                m.name
            ),
            None => eprintln!("  {:<34} {value:>14} {unit}", m.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Every `"key": "value"` string field inside `section`, in order.
    fn string_fields(section: &str, key: &str) -> Vec<String> {
        let pat = format!("\"{key}\"");
        let mut out = Vec::new();
        let mut rest = section;
        while let Some(i) = rest.find(&pat) {
            rest = rest[i + pat.len()..].trim_start();
            let Some(r) = rest.strip_prefix(':') else {
                continue;
            };
            let r = r.trim_start();
            let Some(r) = r.strip_prefix('"') else {
                continue;
            };
            let end = r.find('"').expect("unterminated string");
            out.push(r[..end].to_string());
            rest = &r[end..];
        }
        out
    }

    /// The text of `BENCHMARK.json` from `from` up to `to` (or the end).
    fn section(from: &str, to: Option<&str>) -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let a = text.find(from).unwrap_or_else(|| panic!("{from} missing"));
        let b = to.map_or(text.len(), |t| {
            text.find(t).unwrap_or_else(|| panic!("{t} missing"))
        });
        text[a..b].to_string()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "a metric name is used twice");
    }

    #[test]
    fn tables_match_benchmark_json() {
        let pairs = |s: &str| -> Vec<(String, String)> {
            string_fields(s, "name")
                .into_iter()
                .zip(string_fields(s, "unit"))
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            pairs(&section("\"end_to_end\"", Some("\"per_layer\""))),
            own(END_TO_END)
        );
        assert_eq!(pairs(&section("\"per_layer\"", None)), own(PER_LAYER));
        let workloads = string_fields(&section("\"workloads\"", Some("\"end_to_end\"")), "name");
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_in_order() {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .rev()
            .map(|(n, _)| Metric::plain(n, Some(1.5)))
            .collect();
        let line = result_line(END_TO_END, &metrics, true, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        let mut short = metrics.clone();
        short.pop();
        assert!(result_line(END_TO_END, &short, true, 10, 0).is_err());
        let mut unsupported = metrics;
        unsupported[0].value = None;
        assert!(result_line(END_TO_END, &unsupported, true, 10, 0).is_err());
    }
}
