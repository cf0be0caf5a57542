//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one of them (with
/// tracing off). An operation is a suite cell (build, load and run one
/// image) or a request.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("rps", "1/s"), ("build_iqm_ms", "ms")];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reads 0. `serve-churn`, which `BENCHMARK.json` does not
/// list, also prints the store's figures (`cache.evictions`,
/// `cache.store_hits`, `store.*`) by name.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("suite_mips", "MIPS"),
    ("build_p99_ms", "ms"),
    ("run_p50_ms", "ms"),
    ("run_p99_ms", "ms"),
    ("workloads.generate_s", "s"),
    ("builder.build_us.p50", "us"),
    ("builder.builds", "count"),
    ("builder.size_ratio", "ratio"),
    ("integrity.verify_us.p50", "us"),
    ("runner.load_us.p50", "us"),
    ("sim.mips", "MIPS"),
    ("sim.mips.native", "MIPS"),
    ("sim.mips.d", "MIPS"),
    ("sim.mips.d_rf", "MIPS"),
    ("sim.mips.cp", "MIPS"),
    ("sim.mips.cp_rf", "MIPS"),
    ("sim.mips.d2", "MIPS"),
    ("sim.mips.d2_rf", "MIPS"),
    ("sim.mips.lz", "MIPS"),
    ("sim.mips.lz_rf", "MIPS"),
    ("sim.mips.imiss_heavy", "MIPS"),
    ("sim.mips.loop_heavy", "MIPS"),
    ("sim.slowdown", "ratio"),
    ("sim.handler_share", "ratio"),
    ("sim.exc_per_kinsn", "1/kinsn"),
    ("protocol.parse_us.p50", "us"),
    ("protocol.render_us.p50", "us"),
    ("cache.get_us.p50", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.flight_waits", "count"),
    ("server.overhead_us.p50", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The sim-MIPS metrics one run of image `label` counts toward: the
/// total, its label's (`d+rf` → `sim.mips.d_rf`: `+` is outside the
/// metric-name charset) and its benchmark's style class, if any.
pub fn sim_groups(label: &str, class: Option<&str>) -> Vec<String> {
    let mut groups = vec![
        "sim.mips".to_string(),
        format!("sim.mips.{}", label.replace('+', "_")),
    ];
    groups.extend(class.map(|c| format!("sim.mips.{c}")));
    groups
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations whose response was an error or differed from the
    /// reference.
    pub failed: u64,
    /// Problems found by the checks outside single operations (golden
    /// values, BENCH_sim.json, daemon counters).
    pub problems: Vec<String>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Failed operations over operations attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: the metrics of `table` in its order (a metric
    /// the workload did not measure reads 0).
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(*name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `p`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * p).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The interquartile mean of `values`: the mean of the middle half once
/// sorted; 0 when empty. Steadier than the median when the values
/// cluster by key, where the median jumps between clusters.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    let mid = &v[lo..hi];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// The geometric mean of `values`; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A letter or digit first, then at most 63 more of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn metric_names_use_the_charset_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for label in crate::suite::LABELS {
            for class in [None, Some("imiss_heavy"), Some("loop_heavy")] {
                for name in sim_groups(label, class) {
                    assert!(valid_name(&name), "{name}");
                    assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} missing");
                }
            }
        }
        assert!(!valid_name("sim.mips.d+rf"));
        assert!(!valid_name("_x"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = rtdc_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match spec.get(key) {
                Some(rtdc_serve::json::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let f = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                        (f("name"), f("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks `{key}`"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<(String, String)> = match spec.get("workloads") {
            Some(rtdc_serve::json::Json::Arr(items)) => items
                .iter()
                .map(|w| {
                    let name = w.get("name").and_then(|v| v.as_str()).unwrap().to_string();
                    (name.clone(), name)
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks `workloads`"),
        };
        let want: Vec<(String, String)> = crate::MEASURED
            .iter()
            .map(|w| (w.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert!(crate::MEASURED.iter().all(|w| crate::WORKLOADS.contains(w)));
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted is not a pass");
        assert_eq!(o.failed_share(), 1.0);
        o.attempted = 200;
        assert!(o.correct());
        assert_eq!(o.failed_share(), 0.0);
        o.failed = 3;
        assert!(!o.correct());
        assert_eq!(o.failed_share(), 0.015);
        o.failed = 0;
        o.problems.push("daemon counters disagree".into());
        assert!(!o.correct(), "a failed check fails the run");
        assert_eq!(o.failed_share(), 0.0);
    }

    #[test]
    fn result_line_carries_every_metric_of_its_table() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("setup_s", 0.8127);
        o.set("rps", f64::NAN);
        let line = o.result_line(END_TO_END);
        let v = rtdc_serve::json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|n| n.as_u64()), Some(10));
        let m = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(*unit));
        }
        assert_eq!(
            m.get("setup_s").and_then(|e| e.get("value")),
            Some(&rtdc_serve::json::Json::Num(0.8127))
        );
    }

    #[test]
    fn quantiles_and_means() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(interquartile_mean(&v), 50.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 1000.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
