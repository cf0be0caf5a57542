//! `benchguard` — benchmark regression guard over `BENCH_*.json`.
//!
//! ```sh
//! benchguard <baseline.json> <current.json> [--config benchguard.toml]
//! ```
//!
//! The guard understands two report shapes and picks per pair. Each
//! report is parsed once with the workspace's JSON codec
//! (`rtdc_sim::json`), so its layout — spacing, rows per line — does
//! not matter:
//!
//! * **simperf** reports (`BENCH_sim.json`): compares the **serial**
//!   per-scheme aggregate rows (the `"schemes"` array) and fails if any
//!   scheme present in both has dropped below `floor_ratio` of the
//!   baseline's sim-MIPS (default 0.7, a >30% regression).
//!   Parallel-pass numbers and per-benchmark rows are informational
//!   only — they are too host-noise-sensitive to gate on.
//! * **servebench** reports (`BENCH_serve.json`): a flat `"serve"`
//!   array of `{"metric": ..., "value": ...}` rows. Metrics named in
//!   `[serve_floors]` gate as a fraction of the baseline value
//!   (higher-is-better, same contract as `floor_ratio`); metrics named
//!   in `[serve_min]` gate against an **absolute** minimum regardless
//!   of the baseline (e.g. the ≥5x warm-cache speedup the serving
//!   design promises); metrics named in `[serve_max]` gate against an
//!   **absolute ceiling** — the lower-is-better daemon-side latency
//!   quantiles servebench records from the telemetry histograms (e.g.
//!   `build_p99_ms`). Unlisted metrics are informational only.
//!
//! `--config` points at a checked-in TOML-subset file setting the
//! thresholds, so tightening or loosening a gate is a reviewed one-line
//! diff instead of a CI-workflow edit:
//!
//! ```toml
//! floor_ratio = 0.7        # global floor as a fraction of baseline
//! [scheme_floors]
//! lz = 0.6                 # optional per-scheme overrides
//! [serve_floors]
//! run_rps = 0.5            # serve metric vs baseline, higher is better
//! [serve_min]
//! build_speedup = 5.0      # absolute floor, baseline-independent
//! [serve_max]
//! build_p99_ms = 250.0     # absolute ceiling, lower is better
//! ```
//!
//! (Parsed with a hand-rolled scanner — key = value lines, `#` comments,
//! bracketed sections — no TOML dependency.)
//!
//! When both reports carry the per-phase metrics simperf records since
//! the tracing PR (`cycles`, `handler_share`, `exc_per_kinsn`,
//! `stall_*`), a second, **non-blocking** section diffs them so a
//! sim-MIPS drop can be attributed to a simulated phase (e.g. "the
//! handler share doubled" vs "host noise"). These metrics are
//! deterministic, so *any* change means the simulated machine changed —
//! it is called out, but never fails the guard. Reports from before the
//! metrics existed simply skip the section.
//!
//! Schemes only present on one side (e.g. a newly registered codec not
//! yet in the baseline) are reported but never fail the guard.

use std::process::ExitCode;

use rtdc_sim::json::{self, Json};

/// The guard's thresholds, from `benchguard.toml` (or defaults).
#[derive(Debug, Clone)]
struct GuardConfig {
    /// Global floor as a fraction of baseline sim-MIPS.
    floor_ratio: f64,
    /// Per-scheme overrides of `floor_ratio`.
    scheme_floors: Vec<(String, f64)>,
    /// Serve metrics gated as a fraction of their baseline value
    /// (higher-is-better metrics only).
    serve_floors: Vec<(String, f64)>,
    /// Serve metrics gated against an absolute minimum, independent of
    /// the baseline.
    serve_min: Vec<(String, f64)>,
    /// Serve metrics gated against an absolute ceiling (lower is
    /// better — the daemon-side latency quantiles).
    serve_max: Vec<(String, f64)>,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            floor_ratio: 0.7,
            scheme_floors: Vec::new(),
            serve_floors: Vec::new(),
            serve_min: Vec::new(),
            serve_max: Vec::new(),
        }
    }
}

impl GuardConfig {
    /// The floor ratio that applies to `scheme`.
    fn floor_for(&self, scheme: &str) -> f64 {
        self.scheme_floors
            .iter()
            .find(|(s, _)| s == scheme)
            .map_or(self.floor_ratio, |&(_, r)| r)
    }

    /// Parses the TOML subset described in the module docs.
    fn parse(text: &str) -> Result<GuardConfig, String> {
        #[derive(Clone, Copy, PartialEq)]
        enum Section {
            Top,
            SchemeFloors,
            ServeFloors,
            ServeMin,
            ServeMax,
        }
        let mut cfg = GuardConfig::default();
        let mut section = Section::Top;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match header.trim() {
                    "scheme_floors" => Section::SchemeFloors,
                    "serve_floors" => Section::ServeFloors,
                    "serve_min" => Section::ServeMin,
                    "serve_max" => Section::ServeMax,
                    other => return Err(format!("line {}: unknown section [{other}]", lineno + 1)),
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            // Keys like `d+plan` must be quoted to stay valid TOML;
            // accept them bare or quoted alike.
            let (key, value) = (key.trim().trim_matches('"'), value.trim());
            let num: f64 = value
                .parse()
                .map_err(|_| format!("line {}: `{value}` is not a number", lineno + 1))?;
            // Ratios vs a baseline must stay in 0..=1; absolute bounds
            // (`[serve_min]`/`[serve_max]`) just need to be finite and
            // non-negative.
            let is_ratio = !matches!(section, Section::ServeMin | Section::ServeMax);
            if is_ratio && !(0.0..=1.0).contains(&num) {
                return Err(format!("line {}: ratio {num} outside 0..=1", lineno + 1));
            }
            if !num.is_finite() || num < 0.0 {
                return Err(format!(
                    "line {}: `{num}` is not a usable floor",
                    lineno + 1
                ));
            }
            match section {
                Section::SchemeFloors => cfg.scheme_floors.push((key.to_string(), num)),
                Section::ServeFloors => cfg.serve_floors.push((key.to_string(), num)),
                Section::ServeMin => cfg.serve_min.push((key.to_string(), num)),
                Section::ServeMax => cfg.serve_max.push((key.to_string(), num)),
                Section::Top if key == "floor_ratio" => cfg.floor_ratio = num,
                Section::Top => {
                    return Err(format!("line {}: unknown key `{key}`", lineno + 1));
                }
            }
        }
        Ok(cfg)
    }
}

/// The deterministic per-phase metrics of one scheme row (absent in
/// baselines recorded before simperf emitted them).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowMetrics {
    cycles: u64,
    handler_share: f64,
    exc_per_kinsn: f64,
    /// `(name, cycles)` per stall cause, in simperf's field order.
    stalls: [(&'static str, u64); 8],
}

#[derive(Debug, Clone, PartialEq)]
struct SchemeRow {
    scheme: String,
    mips: f64,
    metrics: Option<RowMetrics>,
}

const STALL_KEYS: [&str; 8] = [
    "stall_imiss",
    "stall_dmiss",
    "stall_branch",
    "stall_regjump",
    "stall_loaduse",
    "stall_hilo",
    "stall_swic",
    "stall_exception",
];

/// The non-empty rows of the array named `key` in a parsed report.
fn rows<'a>(report: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match report.get(key) {
        Some(Json::Arr(rows)) if !rows.is_empty() => Ok(rows),
        Some(Json::Arr(_)) => Err(format!("\"{key}\" array has no rows")),
        _ => Err(format!("no \"{key}\" array")),
    }
}

/// Extracts the scheme rows from the `"schemes"` array of a simperf
/// report.
fn scheme_rows(report: &Json) -> Result<Vec<SchemeRow>, String> {
    rows(report, "schemes")?
        .iter()
        .map(|row| {
            let num = |key: &str| row.get(key).and_then(Json::as_f64);
            let int = |key: &str| row.get(key).and_then(Json::as_u64);
            let scheme = row
                .get("scheme")
                .and_then(Json::as_str)
                .ok_or("row missing scheme")?
                .to_string();
            let mips = num("sim_mips").ok_or(format!("{scheme}: row missing sim_mips"))?;
            // The phase metrics arrived later; a row without them is an
            // old baseline, not an error.
            let metrics = (|| -> Option<RowMetrics> {
                let mut stalls = [("", 0u64); 8];
                for (slot, key) in stalls.iter_mut().zip(STALL_KEYS) {
                    *slot = (key.strip_prefix("stall_").expect("key shape"), int(key)?);
                }
                Some(RowMetrics {
                    cycles: int("cycles")?,
                    handler_share: num("handler_share")?,
                    exc_per_kinsn: num("exc_per_kinsn")?,
                    stalls,
                })
            })();
            Ok(SchemeRow {
                scheme,
                mips,
                metrics,
            })
        })
        .collect()
}

/// One servebench metric row: `{"metric": "warm_build_rps", "value": ...}`.
#[derive(Debug, Clone, PartialEq)]
struct ServeRow {
    metric: String,
    value: f64,
}

/// Extracts the metric rows from the `"serve"` array of a servebench
/// report.
fn serve_rows(report: &Json) -> Result<Vec<ServeRow>, String> {
    rows(report, "serve")?
        .iter()
        .map(|row| {
            let metric = row
                .get("metric")
                .and_then(Json::as_str)
                .ok_or("row missing metric")?
                .to_string();
            let value = row
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("row missing value for {metric}"))?;
            Ok(ServeRow { metric, value })
        })
        .collect()
}

/// A parsed report of either shape.
#[derive(Debug, PartialEq)]
enum Report {
    /// A simperf report (`"schemes"` array).
    Schemes(Vec<SchemeRow>),
    /// A servebench report (`"serve"` array).
    Serve(Vec<ServeRow>),
}

/// Parses a report by shape: simperf's `"schemes"` array wins, then
/// servebench's `"serve"` array.
fn parse_report(text: &str) -> Result<Report, String> {
    let report = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    if report.get("schemes").is_some() {
        return scheme_rows(&report).map(Report::Schemes);
    }
    if report.get("serve").is_some() {
        return serve_rows(&report).map(Report::Serve);
    }
    Err("neither a \"schemes\" nor a \"serve\" array — not a benchmark report".into())
}

/// Prints the non-blocking per-phase diff for one scheme present in both
/// reports with metrics on both sides.
fn print_metrics_diff(scheme: &str, base: &RowMetrics, cur: &RowMetrics) {
    if base == cur {
        return;
    }
    println!("{scheme:<10} phase metrics changed (deterministic — the simulated machine changed):");
    if base.cycles != cur.cycles {
        println!(
            "  cycles        {:>14} -> {:>14} ({:+.2}%)",
            base.cycles,
            cur.cycles,
            100.0 * (cur.cycles as f64 - base.cycles as f64) / base.cycles.max(1) as f64
        );
    }
    if (base.handler_share - cur.handler_share).abs() > 1e-9 {
        println!(
            "  handler_share {:>13.2}% -> {:>13.2}%",
            100.0 * base.handler_share,
            100.0 * cur.handler_share
        );
    }
    if (base.exc_per_kinsn - cur.exc_per_kinsn).abs() > 1e-9 {
        println!(
            "  exc_per_kinsn {:>14.3} -> {:>14.3}",
            base.exc_per_kinsn, cur.exc_per_kinsn
        );
    }
    for ((name, b), (_, c)) in base.stalls.iter().zip(cur.stalls.iter()) {
        if b != c {
            println!("  stall {name:<9} {b:>12} -> {c:>12} cycles");
        }
    }
}

fn run() -> Result<bool, String> {
    const USAGE: &str = "usage: benchguard <baseline.json> <current.json> [--config FILE]";
    let mut paths: Vec<String> = Vec::new();
    let mut config = GuardConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--config" {
            let path = args.next().ok_or("--config needs a file")?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            config = GuardConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        } else if arg.starts_with('-') {
            return Err(format!("unexpected option `{arg}`\n{USAGE}"));
        } else {
            paths.push(arg);
        }
    }
    let (baseline_path, current_path) = match paths.as_slice() {
        [b, c] => (b.clone(), c.clone()),
        _ => return Err(USAGE.into()),
    };
    let baseline =
        std::fs::read_to_string(&baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let current =
        std::fs::read_to_string(&current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let baseline = parse_report(&baseline).map_err(|e| format!("{baseline_path}: {e}"))?;
    let current = parse_report(&current).map_err(|e| format!("{current_path}: {e}"))?;
    match (baseline, current) {
        (Report::Schemes(b), Report::Schemes(c)) => guard_schemes(&config, &b, &c),
        (Report::Serve(b), Report::Serve(c)) => guard_serve(&config, &b, &c),
        _ => Err(format!(
            "{baseline_path} and {current_path} are different report shapes"
        )),
    }
}

/// The sim-MIPS gate over two simperf reports. Returns `Ok(false)` on a
/// regression below the configured floor.
fn guard_schemes(
    config: &GuardConfig,
    baseline: &[SchemeRow],
    current: &[SchemeRow],
) -> Result<bool, String> {
    let mut ok = true;
    for row in baseline {
        let (scheme, base) = (&row.scheme, row.mips);
        match current.iter().find(|r| &r.scheme == scheme) {
            None => {
                println!("{scheme:<10} baseline {base:>8.2} sim-MIPS, not in current (skipped)")
            }
            Some(cur_row) => {
                let cur = cur_row.mips;
                let ratio = config.floor_for(scheme);
                let floor = base * ratio;
                let verdict = if cur < floor {
                    ok = false;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "{scheme:<10} baseline {base:>8.2} current {cur:>8.2} sim-MIPS (floor {floor:>7.2})  {verdict}"
                );
            }
        }
    }
    for row in current {
        if !baseline.iter().any(|r| r.scheme == row.scheme) {
            println!(
                "{:<10} current {:>8.2} sim-MIPS, not in baseline (new scheme)",
                row.scheme, row.mips
            );
        }
    }

    // Per-phase metrics diff: informational only, never fails the guard.
    let mut any_metrics = false;
    for row in baseline {
        let Some(base_m) = &row.metrics else { continue };
        let Some(cur_row) = current.iter().find(|r| r.scheme == row.scheme) else {
            continue;
        };
        let Some(cur_m) = &cur_row.metrics else {
            continue;
        };
        any_metrics = true;
        print_metrics_diff(&row.scheme, base_m, cur_m);
    }
    if !any_metrics {
        println!("(no per-phase metrics on both sides — pre-tracing baseline; diff skipped)");
    }
    Ok(ok)
}

/// The serving-throughput gate over two servebench reports. A metric
/// fails if it is named in `[serve_min]` and below its absolute floor,
/// named in `[serve_floors]` and below that fraction of its baseline
/// value, or named in `[serve_max]` and above its absolute ceiling.
/// Everything else is informational.
fn guard_serve(
    config: &GuardConfig,
    baseline: &[ServeRow],
    current: &[ServeRow],
) -> Result<bool, String> {
    let lookup = |table: &[(String, f64)], metric: &str| -> Option<f64> {
        table.iter().find(|(m, _)| m == metric).map(|&(_, v)| v)
    };
    let mut ok = true;
    for row in current {
        let metric = &row.metric;
        let cur = row.value;
        let base = baseline
            .iter()
            .find(|r| &r.metric == metric)
            .map(|r| r.value);
        // The effective floor: the tighter of the absolute minimum and
        // the baseline-relative one (when both apply, both must hold).
        let abs_floor = lookup(&config.serve_min, metric);
        let rel_floor = match (lookup(&config.serve_floors, metric), base) {
            (Some(ratio), Some(b)) => Some(b * ratio),
            _ => None,
        };
        let floor = match (abs_floor, rel_floor) {
            (Some(a), Some(r)) => Some(a.max(r)),
            (a, r) => a.or(r),
        };
        let ceiling = lookup(&config.serve_max, metric);
        let base_str = base.map_or_else(|| "       (new)".into(), |b| format!("{b:>12.2}"));
        if floor.is_none() && ceiling.is_none() {
            println!("{metric:<18} baseline {base_str} current {cur:>12.2}  (info)");
            continue;
        }
        let breached = floor.is_some_and(|f| cur < f) || ceiling.is_some_and(|c| cur > c);
        let verdict = if breached {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        let bounds = match (floor, ceiling) {
            (Some(f), Some(c)) => format!("floor {f:.2}, ceiling {c:.2}"),
            (Some(f), None) => format!("floor {f:>9.2}"),
            (None, Some(c)) => format!("ceiling {c:>7.2}"),
            (None, None) => unreachable!("handled above"),
        };
        println!("{metric:<18} baseline {base_str} current {cur:>12.2} ({bounds})  {verdict}");
    }
    for row in baseline {
        if !current.iter().any(|r| r.metric == row.metric) {
            println!(
                "{:<18} baseline {:>12.2}, not in current (skipped)",
                row.metric, row.value
            );
        }
    }
    // A `[serve_min]`/`[serve_max]` bound with no row to check is a
    // silent hole in the gate — fail loudly instead.
    for (metric, min) in &config.serve_min {
        if !current.iter().any(|r| &r.metric == metric) {
            ok = false;
            println!("{metric:<18} required >= {min:.2} but missing from current  REGRESSION");
        }
    }
    for (metric, max) in &config.serve_max {
        if !current.iter().any(|r| &r.metric == metric) {
            ok = false;
            println!("{metric:<18} required <= {max:.2} but missing from current  REGRESSION");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("benchguard: all gated metrics within their configured bounds");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("benchguard: benchmark regression detected");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchguard: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_all_sections() {
        let cfg = GuardConfig::parse(
            r#"
            floor_ratio = 0.8      # tightened
            [scheme_floors]
            "d+plan" = 0.6
            [serve_floors]
            run_rps = 0.5
            [serve_min]
            build_speedup = 5.0
            hit_rate = 0.9
            [serve_max]
            build_p99_ms = 250.0
            "#,
        )
        .expect("parses");
        assert_eq!(cfg.floor_ratio, 0.8);
        assert_eq!(cfg.scheme_floors, vec![("d+plan".to_string(), 0.6)]);
        assert_eq!(cfg.serve_floors, vec![("run_rps".to_string(), 0.5)]);
        assert_eq!(
            cfg.serve_min,
            vec![
                ("build_speedup".to_string(), 5.0),
                ("hit_rate".to_string(), 0.9)
            ]
        );
        assert_eq!(cfg.serve_max, vec![("build_p99_ms".to_string(), 250.0)]);
    }

    #[test]
    fn ratios_stay_bounded_but_minimums_do_not() {
        assert!(GuardConfig::parse("floor_ratio = 1.5").is_err());
        assert!(GuardConfig::parse("[serve_floors]\nx = 1.5").is_err());
        assert!(GuardConfig::parse("[serve_min]\nx = 1.5").is_ok());
        assert!(GuardConfig::parse("[serve_min]\nx = -1").is_err());
    }

    const SERVE_REPORT: &str = r#"{
  "serve": [
    {"metric": "cold_build_rps", "value": 10.0},
    {"metric": "warm_build_rps", "value": 80.0},
    {"metric": "build_speedup", "value": 8.0},
    {"metric": "run_p99_ms", "value": 3.5}
  ]
}"#;

    #[test]
    fn serve_reports_parse_and_dispatch() {
        let rows = match parse_report(SERVE_REPORT).expect("parses") {
            Report::Serve(rows) => rows,
            Report::Schemes(_) => panic!("mis-detected shape"),
        };
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2].metric, "build_speedup");
        assert_eq!(rows[2].value, 8.0);
    }

    /// `v` re-rendered compactly: no whitespace, every row on one line,
    /// object keys in sorted order.
    fn compact(v: &Json) -> String {
        match v {
            Json::Obj(m) => {
                let mut w = json::ObjWriter::new();
                for (k, v) in m {
                    w.raw(k, &compact(v));
                }
                w.finish()
            }
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(compact).collect();
                format!("[{}]", items.join(","))
            }
            Json::Str(s) => json::escape(s),
            Json::Num(n) => n.to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Null => "null".into(),
        }
    }

    #[test]
    fn checked_in_reports_parse_the_same_in_any_layout() {
        for text in [
            include_str!("../../../../BENCH_sim.json"),
            include_str!("../../../../BENCH_serve.json"),
        ] {
            let pretty = parse_report(text).expect("checked-in report parses");
            let squeezed = compact(&json::parse(text).unwrap());
            assert!(!squeezed.contains(": ") && !squeezed.contains('\n'));
            assert_eq!(
                parse_report(&squeezed).expect("compact form parses"),
                pretty
            );
            if let Report::Schemes(rows) = pretty {
                assert!(rows.iter().all(|row| row.metrics.is_some()));
            }
        }
    }

    #[test]
    fn rows_without_phase_metrics_are_old_baselines() {
        let old = r#"{"schemes": [{"name": "all", "scheme": "d", "sim_mips": 12.5}]}"#;
        assert_eq!(
            parse_report(old).unwrap(),
            Report::Schemes(vec![SchemeRow {
                scheme: "d".into(),
                mips: 12.5,
                metrics: None,
            }])
        );
        assert!(parse_report(r#"{"schemes": []}"#).is_err());
        assert!(parse_report(r#"{"schemes": [{"scheme": "d"}]}"#).is_err());
        assert!(parse_report(r#"{"other": []}"#).is_err());
    }

    #[test]
    fn serve_gate_applies_both_floor_kinds() {
        let cfg = GuardConfig::parse(
            "[serve_floors]\nwarm_build_rps = 0.5\n[serve_min]\nbuild_speedup = 5.0",
        )
        .unwrap();
        let base = match parse_report(SERVE_REPORT).unwrap() {
            Report::Serve(r) => r,
            Report::Schemes(_) => unreachable!(),
        };
        // Identical current: passes.
        assert!(guard_serve(&cfg, &base, &base).unwrap());
        // Halve-minus-epsilon the relative-gated metric: fails.
        let mut slow = base.clone();
        slow[1].value = 39.0;
        assert!(!guard_serve(&cfg, &base, &slow).unwrap());
        // Below the absolute minimum: fails even when the baseline was
        // just as bad (absolute floors do not ratchet down).
        let mut weak = base.clone();
        weak[2].value = 4.0;
        assert!(!guard_serve(&cfg, &weak, &weak).unwrap());
        // A `[serve_min]`-gated metric missing entirely: fails.
        let gone: Vec<ServeRow> = base[..2].to_vec();
        assert!(!guard_serve(&cfg, &base, &gone).unwrap());
    }

    #[test]
    fn serve_gate_enforces_latency_ceilings() {
        let cfg = GuardConfig::parse("[serve_max]\nrun_p99_ms = 10.0").unwrap();
        let base = match parse_report(SERVE_REPORT).unwrap() {
            Report::Serve(r) => r,
            Report::Schemes(_) => unreachable!(),
        };
        // 3.5ms under a 10ms ceiling: passes.
        assert!(guard_serve(&cfg, &base, &base).unwrap());
        // Latency blowing past the ceiling: fails, even though nothing
        // dropped below a floor.
        let mut slow = base.clone();
        slow[3].value = 25.0;
        assert!(!guard_serve(&cfg, &base, &slow).unwrap());
        // A ceiling-gated metric missing from current: fails (a silent
        // hole would let a latency regression hide by renaming the row).
        let gone: Vec<ServeRow> = base[..3].to_vec();
        assert!(!guard_serve(&cfg, &base, &gone).unwrap());
    }
}
