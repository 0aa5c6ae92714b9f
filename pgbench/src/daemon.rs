//! The system under test: the unmodified `pgschema serve` binary, built
//! from the checkout, run as a child process and observed from outside —
//! its flags, its loopback socket, `/metrics`, and `/proc/<pid>`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;

/// How long a freshly spawned daemon may take to print its address and
/// answer `/healthz` (recovery of a 10 k-element store takes ~10 ms).
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// Linux reports process times in `USER_HZ` ticks, 100 per second on
/// every architecture this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// Cargo's target directory for this invocation, relative to the root
/// of the checkout (the driver sets `CARGO_TARGET_DIR`).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// All harness state lives here: data dirs, daemon logs, traces, ledgers.
pub fn scratch_dir() -> PathBuf {
    target_dir().join("pgbench")
}

/// Builds the daemon from the checkout the benchmark runs in and returns
/// the binary's path. Cargo makes this a sub-second no-op when fresh.
pub fn build() -> io::Result<PathBuf> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "pgschema-cli",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building pgschema-cli failed: {status}"
        )));
    }
    let bin = target_dir().join("release").join("pgschema");
    if !bin.is_file() {
        return Err(io::Error::other(format!("{} was not built", bin.display())));
    }
    Ok(bin)
}

/// A running `pgschema serve` child. Dropping it kills the process and
/// reaps it, so neither a failed check nor a panic leaves an orphan.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub flags: Vec<String>,
}

impl Daemon {
    /// Spawns `bin serve --addr 127.0.0.1:0 <flags>`, reads the bound port
    /// from the daemon's stderr (kept in `log`), and waits for `/healthz`.
    pub fn spawn(bin: &Path, flags: &[String], log: &Path) -> io::Result<Daemon> {
        let stderr = fs::File::create(log)?;
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--log-format", "off"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            flags: flags.to_vec(),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        daemon.addr = loop {
            let text = fs::read_to_string(log)?;
            if let Some(addr) = listening_addr(&text) {
                break addr;
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited at start ({status}): {text}"
                )));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!(
                    "daemon printed no address: {text}"
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let health = Conn::connect(daemon.addr)?.get("/healthz")?;
        if health.status != 200 {
            return Err(io::Error::other(format!(
                "/healthz answered {}",
                health.status
            )));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system) the daemon has used so far.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        cpu_ticks(&stat)
            .map(|ticks| ticks as f64 / TICKS_PER_SECOND)
            .ok_or_else(|| io::Error::other(format!("unreadable /proc stat: {stat}")))
    }

    /// Peak resident set size so far, in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kib| kib.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The counters the daemon exposes, scraped over a fresh connection.
    pub fn scrape(&self) -> io::Result<Counters> {
        let response = Conn::connect(self.addr)?.get("/metrics")?;
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                response.status
            )));
        }
        Ok(Counters::parse(response.text()))
    }

    /// SIGKILL, then wait until the process is gone.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The address in the daemon's `listening on http://…` line.
fn listening_addr(stderr: &str) -> Option<SocketAddr> {
    let rest = stderr.split("listening on http://").nth(1)?;
    // The line is complete once the text after the address has arrived.
    let (addr, _) = rest.split_once(' ')?;
    addr.parse().ok()
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces, so fields are counted from its closing paren.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// One `/metrics` scrape: sample name (labels included) → value.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn parse(text: &str) -> Counters {
        Counters(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (name, value) = line.rsplit_once(' ')?;
                    Some((name.to_owned(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Sum of every sample of the family `name` (all label sets), or of
    /// the one sample `name{…}` when labels are given.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name
                    || (k.starts_with(name) && k.as_bytes().get(name.len()) == Some(&b'{'))
            })
            .map(|(_, v)| v)
            // An empty f64 sum is -0.0; adding 0.0 makes it print as 0.
            .sum::<f64>()
            + 0.0
    }

    /// What happened between an `earlier` scrape and this one.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_address_is_read_only_from_a_complete_line() {
        assert_eq!(
            listening_addr("pg-schemad listening on http://127.0.0.1:41"),
            None
        );
        assert_eq!(
            listening_addr("pg-schemad listening on http://127.0.0.1:4173 (1 core(s))\n"),
            Some("127.0.0.1:4173".parse().unwrap())
        );
        assert_eq!(listening_addr("error: cannot bind"), None);
    }

    #[test]
    fn cpu_ticks_survive_spaces_in_the_command_name() {
        let stat = "812 (pg schemad) core) S 1 812 812 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 3 0 100 1000 200";
        assert_eq!(cpu_ticks(stat), Some(42));
        assert_eq!(cpu_ticks("garbage"), None);
    }

    #[test]
    fn counters_sum_families_and_subtract_scrapes() {
        let before = Counters::parse(
            "# HELP x\npgschemad_rule_nanos_total{rule=\"WS1\"} 100\n\
             pgschemad_rule_nanos_total{rule=\"DS7\"} 50\n\
             pgschemad_rule_nanos_totally_else 9\npgschemad_wal_fsyncs_total 2\n",
        );
        assert_eq!(before.sum("pgschemad_rule_nanos_total"), 150.0);
        assert_eq!(before.sum("pgschemad_rule_nanos_total{rule=\"DS7\"}"), 50.0);
        let after = Counters::parse(
            "pgschemad_rule_nanos_total{rule=\"WS1\"} 160\n\
             pgschemad_rule_nanos_total{rule=\"DS7\"} 50\npgschemad_wal_fsyncs_total 5\n\
             pgschemad_new_total 4\n",
        );
        let delta = after.since(&before);
        assert_eq!(delta.sum("pgschemad_rule_nanos_total"), 60.0);
        assert_eq!(delta.sum("pgschemad_wal_fsyncs_total"), 3.0);
        assert_eq!(delta.sum("pgschemad_new_total"), 4.0);
        assert_eq!(delta.sum("pgschemad_absent"), 0.0);
    }
}
