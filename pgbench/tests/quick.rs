//! Drives the real binary against the real daemon for one second per
//! workload: set-up, timed loop, oracle, crash-recovery check and result
//! line, end to end. Skips when the daemon has not been built, so a bare
//! `cargo test` of this package does not start a release build.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("pgbench/ sits in the checkout")
}

fn daemon_binary() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    repo_root().join(target).join("release").join("pgschema")
}

#[test]
fn every_workload_runs_verifies_and_prints_its_result() {
    if !daemon_binary().is_file() {
        eprintln!("skipped: {} is not built", daemon_binary().display());
        return;
    }
    for workload in [
        "oneshot_mid",
        "oneshot_schema_pgs",
        "session_txn_durable",
        "session_fanout_rw",
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pgbench"))
            .args([
                "run",
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .current_dir(repo_root())
            .output()
            .expect("pgbench starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{workload}: {}\n{stdout}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
        for metric in [
            "throughput_rps",
            "latency_mean_us",
            "server_cpu_us_per_req",
            "server_rss_mb",
            "setup_s",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{workload}: no {metric} in {last}"
            );
        }
    }
}
