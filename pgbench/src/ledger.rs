//! Machine-readable results: the one-line result the driver reads, the
//! `BENCH_*.json` ledgers, and the two tools that work on ledgers —
//! `calibrate` (measure run-to-run spread, set the regression bounds in
//! `BENCHMARK.json`) and `compare` (apply those bounds to two ledgers).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use pgraph::json::Json;

use crate::run::Outcome;
use crate::stats;
use crate::workload::push_string;

/// The benchmark's contract file, at the root of the checkout.
pub const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// No bound is set below this: tighter than the sandbox can resolve.
const BOUND_FLOOR: f64 = 0.05;
/// The contract allows no bound above this.
const BOUND_CAP: f64 = 0.25;

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` on one line.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints the shortest text that reads back as the same f64:
        // the value as measured, with all its digits.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// Where and on what the numbers were taken.
fn env_json() -> String {
    let git_sha =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/version").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\"git_sha\": ");
    push_string(&mut out, &git_sha);
    let _ = write!(out, ", \"nproc\": {nproc}, \"kernel\": ");
    push_string(&mut out, kernel.trim());
    out.push('}');
    out
}

/// Writes a ledger: the environment and one entry per run.
pub fn write_ledger(path: &Path, outcomes: &[Outcome]) -> std::io::Result<()> {
    let mut out = format!("{{\n  \"env\": {},\n  \"results\": [\n", env_json());
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"daemon_flags\": [",
            o.workload,
            o.seed,
            o.seconds,
            u8::from(o.trace)
        );
        for (j, flag) in o.daemon_flags.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_string(&mut out, flag);
        }
        let line = result_line(o);
        let _ = write!(out, "], {}", &line[1..]);
        out.push_str(if i + 1 == outcomes.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// `(workload, metric) → values`, over a ledger's untraced, correct runs.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn read_ledger(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no results array"))?;
    let mut series = Series::new();
    for entry in results {
        let workload = entry.get("workload").and_then(Json::as_str);
        let (Some(workload), Some(Json::Object(metrics))) = (workload, entry.get("metrics")) else {
            return Err(format!("{path}: malformed result entry"));
        };
        if entry.get("trace").and_then(Json::as_i64) != Some(0) {
            continue;
        }
        if entry.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{path}: an incorrect run of {workload} cannot be compared"
            ));
        }
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(number)
                .ok_or("metric without a value")?;
            series
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(series)
}

/// An end-to-end metric as BENCHMARK.json declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_declared() -> Result<(Json, Vec<Declared>), String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let declared = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound").and_then(number)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json has a malformed end_to_end entry")?;
    Ok((doc, declared))
}

/// How much worse `new` is than `old`, as a share of `old`.
fn worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

/// Spread of a series; one value has no measured spread.
fn series_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::spread(&mut values.to_vec())
    }
}

/// `compare OLD NEW`: every (end-to-end metric, workload) gets its own
/// row. A median worse by more than the bound is a regression; where the
/// spread of either side exceeds the bound the row is unresolved, not
/// unchanged. Returns whether no row regressed.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (_, declared) = read_declared()?;
    let old = read_ledger(old_path)?;
    let new = read_ledger(new_path)?;
    let mut clean = true;
    println!(
        "{:<22} {:<24} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "old median", "new median", "worse", "spread", "bound"
    );
    for ((workload, name), old_values) in &old {
        let Some(d) = declared.iter().find(|d| &d.name == name) else {
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<22} {name:<24} missing from {new_path}");
            clean = false;
            continue;
        };
        let old_median = stats::median(&mut old_values.clone());
        let new_median = stats::median(&mut new_values.clone());
        let worse = worsening(old_median, new_median, d.higher_is_better);
        let spread = series_spread(old_values).max(series_spread(new_values));
        let verdict = if spread > d.bound {
            "unresolved (spread exceeds the bound)"
        } else if worse > d.bound {
            clean = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{workload:<22} {name:<24} {old_median:>12.3} {new_median:>12.3} {:>7.1}% {:>6.1}% {:>5.0}%  {verdict}",
            worse * 100.0,
            spread * 100.0,
            d.bound * 100.0
        );
    }
    Ok(clean)
}

/// The bound a measured spread supports: three times the interquartile
/// spread (the contract wants spread under a third of the bound) and
/// twice the worst single deviation, at least the floor, at most the cap.
fn bound_for(spread: f64, worst_deviation: f64) -> f64 {
    let wanted = (3.0 * spread).max(2.0 * worst_deviation).max(BOUND_FLOOR);
    // Rounded up to a whole per cent (the epsilon keeps 9.000…02 at 9).
    (wanted.min(BOUND_CAP) * 100.0 - 1e-9).ceil() / 100.0
}

/// `calibrate`: prints median, quartiles, spread and worst deviation per
/// (metric, workload) of a ledger of repeated runs and rewrites each
/// end-to-end `bound` in BENCHMARK.json from them. `setup_s` keeps the
/// largest bound the contract allows.
pub fn calibrate(ledger_path: &str) -> Result<(), String> {
    let (mut doc, declared) = read_declared()?;
    let series = read_ledger(ledger_path)?;
    let mut bounds: BTreeMap<String, f64> = BTreeMap::new();
    println!(
        "{:<22} {:<24} {:>4} {:>12} {:>12} {:>12} {:>7} {:>9}",
        "workload", "metric", "runs", "q1", "median", "q3", "spread", "worst dev"
    );
    for ((workload, name), values) in &series {
        if values.len() < 2 || !declared.iter().any(|d| &d.name == name) {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&mut values.clone());
        let spread = series_spread(values);
        let worst = values
            .iter()
            .map(|v| (v - q2).abs() / q2)
            .fold(0.0, f64::max);
        println!(
            "{workload:<22} {name:<24} {:>4} {q1:>12.3} {q2:>12.3} {q3:>12.3} {:>6.1}% {:>8.1}%",
            values.len(),
            spread * 100.0,
            worst * 100.0
        );
        if spread > BOUND_CAP {
            println!("  ^ spread exceeds the largest bound allowed ({BOUND_CAP}): not a usable metric here");
        } else if 3.0 * spread > BOUND_CAP {
            println!("  ^ spread is more than a third of the largest bound allowed ({BOUND_CAP})");
        }
        let bound = bounds.entry(name.clone()).or_insert(BOUND_FLOOR);
        *bound = bound.max(bound_for(spread, worst));
    }
    bounds.insert("setup_s".to_owned(), BOUND_CAP);
    if let Some(Json::Array(entries)) = member_mut(&mut doc, "end_to_end") {
        for entry in entries {
            let name = entry.get("name").and_then(Json::as_str).map(str::to_owned);
            if let (Some(bound), Some(slot)) = (
                name.and_then(|n| bounds.get(&n)),
                member_mut(entry, "bound"),
            ) {
                *slot = Json::Float(*bound);
            }
        }
    }
    std::fs::write(BENCHMARK_JSON, format!("{doc}\n"))
        .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    println!("bounds written to {BENCHMARK_JSON}: {bounds:?}");
    Ok(())
}

fn member_mut<'j>(doc: &'j mut Json, key: &str) -> Option<&'j mut Json> {
    match doc {
        Json::Object(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;

    #[test]
    fn the_result_line_has_the_contract_keys_and_full_precision() {
        let outcome = Outcome {
            workload: "oneshot_mid",
            seed: 1,
            seconds: 10,
            trace: false,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_mean_us",
                    value: 1203.4567891,
                    unit: "us",
                },
                Metric {
                    name: "setup_s",
                    value: 0.5,
                    unit: "s",
                },
            ],
            notes: Vec::new(),
            daemon_flags: vec!["--cores".to_owned(), "1".to_owned()],
        };
        let line = result_line(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_mean_us\": {\"value\": 1203.4567891, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn bounds_follow_spread_within_floor_and_cap() {
        assert_eq!(bound_for(0.001, 0.002), 0.05);
        assert_eq!(bound_for(0.03, 0.02), 0.09);
        assert_eq!(bound_for(0.01, 0.06), 0.12);
        assert_eq!(bound_for(0.2, 0.1), 0.25);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }
}
