//! `pgbench`: the served-validation benchmark.
//!
//! Drives the unmodified `pgschema serve` daemon as a child process over
//! loopback, checks what it answers against a library oracle, and prints
//! every metric by name with its unit. See `README.md` beside this
//! package for the workloads, the metrics and how to read a result.

mod daemon;
mod http;
mod layers;
mod ledger;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use run::Outcome;
use workload::{Spec, WORKLOADS};

const USAGE: &str = "\
usage: pgbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       pgbench calibrate [--sets N] [--seconds S]
       pgbench compare OLD.json NEW.json

run        one workload (or, without --workload, all four, untraced then traced);
           the last line of a single-workload run is its JSON result
calibrate  N untraced runs per workload on seeds 1..N, spread per metric,
           regression bounds rewritten in BENCHMARK.json
compare    apply those bounds to two ledgers (target/pgbench/BENCH_*.json)";

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug)]
struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    sets: u64,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        sets: 10,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            parsed.positional.push(arg.clone());
            continue;
        };
        let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("--{flag}: not a number: {value}"))
        };
        match flag {
            "workload" => {
                parsed.workload = Some(workload::spec(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?);
            }
            "seed" => parsed.seed = number()?,
            "seconds" => parsed.seconds = number()?.max(1),
            "sets" => parsed.sets = number()?.max(2),
            "trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    Ok(parsed)
}

fn print_outcome(spec: &Spec, o: &Outcome) {
    println!(
        "== {}  seed {}  {} s  {} ==",
        spec.name,
        o.seed,
        o.seconds,
        if o.trace {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        }
    );
    println!("  why: {}", spec.why);
    for m in &o.metrics {
        println!("  {:<36} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted {}  failed {}  correct {}",
        o.attempted,
        o.failed,
        o.correct()
    );
    for note in &o.notes {
        println!("  note: {note}");
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    let bin = daemon::build().map_err(|e| format!("cannot build the daemon: {e}"))?;
    let specs: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    let traces: Vec<bool> = match args.trace {
        Some(trace) => vec![trace],
        None => vec![false, true],
    };
    let mut all_correct = true;
    for spec in specs {
        let mut outcomes = Vec::new();
        for &trace in &traces {
            let outcome = run::run(spec, args.seed, args.seconds, trace, &bin)
                .map_err(|e| format!("{}: {e}", spec.name))?;
            print_outcome(spec, &outcome);
            all_correct &= outcome.correct();
            outcomes.push(outcome);
        }
        let ledger = daemon::scratch_dir().join(format!("BENCH_{}.json", spec.name));
        ledger::write_ledger(&ledger, &outcomes)
            .map_err(|e| format!("{}: {e}", ledger.display()))?;
        // Last, so that a single-workload run ends with its result line.
        for outcome in &outcomes {
            println!("{}", ledger::result_line(outcome));
        }
    }
    Ok(all_correct)
}

fn calibrate_command(args: &Args) -> Result<bool, String> {
    let bin = daemon::build().map_err(|e| format!("cannot build the daemon: {e}"))?;
    let mut outcomes = Vec::new();
    for seed in 1..=args.sets {
        for spec in &WORKLOADS {
            let outcome = run::run(spec, seed, args.seconds, false, &bin)
                .map_err(|e| format!("{}: {e}", spec.name))?;
            eprintln!(
                "set {seed}/{}: {} {}",
                args.sets,
                spec.name,
                ledger::result_line(&outcome)
            );
            outcomes.push(outcome);
        }
    }
    let path = daemon::scratch_dir().join("BENCH_calibration.json");
    ledger::write_ledger(&path, &outcomes).map_err(|e| format!("{}: {e}", path.display()))?;
    ledger::calibrate(&path.to_string_lossy())?;
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|parsed| match command.as_str() {
        "run" => run_command(&parsed),
        "calibrate" => calibrate_command(&parsed),
        "compare" => match parsed.positional.as_slice() {
            [old, new] => ledger::compare(old, new),
            _ => Err("compare takes two ledger files".to_owned()),
        },
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pgbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::json::Json;

    /// BENCHMARK.json is written by hand; this holds it to what the
    /// harness really runs and prints.
    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_does() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str, fields: [&str; 2]| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("no {key} list"))
                .iter()
                .map(|entry| {
                    let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field(fields[0]), field(fields[1]))
                })
                .collect()
        };
        let owned = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs
                .into_iter()
                .map(|(a, b)| (a.to_owned(), b.to_owned()))
                .collect()
        };
        assert_eq!(
            list("workloads", ["name", "why"]),
            owned(WORKLOADS.iter().map(|w| (w.name, w.why)).collect())
        );
        for spec in &WORKLOADS {
            assert_eq!(
                list("end_to_end", ["name", "unit"]),
                owned(run::printed_names(spec, false))
            );
            assert_eq!(
                list("per_layer", ["name", "unit"]),
                owned(run::printed_names(spec, true))
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_i64),
            Some(DEFAULT_SECONDS as i64)
        );
        let paths = doc.get("paths").and_then(Json::as_array).unwrap();
        assert_eq!(paths, [Json::Str("pgbench".to_owned())]);
    }

    #[test]
    fn flags_parse_and_bad_ones_are_named() {
        let args =
            |words: &[&str]| parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>());
        let parsed = args(&[
            "--workload",
            "oneshot_mid",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.unwrap().name, "oneshot_mid");
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, 3, Some(true))
        );
        assert!(args(&["--workload", "nope"])
            .unwrap_err()
            .contains("session_fanout_rw"));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert_eq!(
            args(&["a.json", "b.json"]).unwrap().positional,
            ["a.json", "b.json"]
        );
    }
}
