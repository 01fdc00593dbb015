//! `perfbench`: wall-clock request latency of the kvstore guest in steady
//! state and through live updates, measured from outside the program
//! through its public APIs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--git-rev <rev>]
//! ```
//!
//! Prints one `metric` line per number (name, value, unit, direction,
//! sample count), then, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the measured time is split
//! between an untraced and a traced pass, and the metrics are the
//! per-layer ones plus the tracing overhead. Exits 1 when any reply or update was wrong, or when
//! the watchdog stops a run that hung or panicked.

mod fleet;
mod kv;
mod load;
mod report;
mod setup;
mod stats;
mod trace;
mod update;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use report::Outcome;

/// Request and update counts published while a run is in progress, and
/// a heartbeat, so the watchdog can tell a hung run from a slow one and
/// report the counts if the run never finishes.
#[derive(Debug)]
pub struct Progress {
    origin: Instant,
    attempted: AtomicU64,
    failed: AtomicU64,
    beat_ms: AtomicU64,
}

impl Progress {
    fn new() -> Progress {
        Progress {
            origin: Instant::now(),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            beat_ms: AtomicU64::new(0),
        }
    }

    /// Publishes the counts so far (and beats).
    pub fn set(&self, attempted: u64, failed: u64) {
        self.attempted.store(attempted, Ordering::Relaxed);
        self.failed.store(failed, Ordering::Relaxed);
        self.beat();
    }

    /// Records that the run is making progress.
    pub fn beat(&self) {
        self.beat_ms
            .store(self.origin.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn silent_for(&self) -> Duration {
        let last = Duration::from_millis(self.beat_ms.load(Ordering::Relaxed));
        self.origin.elapsed().saturating_sub(last)
    }
}

/// The workloads this harness runs.
pub const WORKLOADS: [&str; 2] = ["kv-stream-eager", "kv-stream-lazy"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the request mix.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Revision reported in the header.
    pub git_rev: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        git_rev: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--git-rev" => args.git_rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

/// Where runs write bundles and span files (relative to the working
/// directory, the checkout root).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// The process's peak resident set, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Longest a run may take before the watchdog stops it: well under the
/// harness's 180 s limit.
fn deadline(args: &Args) -> Duration {
    Duration::from_secs((2 * args.seconds + 60).min(170))
}

/// A run that makes no progress this long is stopped: every chain,
/// update, window and fleet roll beats well within it.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Resident memory past which the watchdog stops a run.
const RSS_LIMIT_MB: u64 = 4096;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={cpus} git_rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.git_rev
    );

    let progress = Arc::new(Progress::new());
    let (tx, rx) = mpsc::channel();
    let worker = {
        let (args, progress) = (args.clone(), Arc::clone(&progress));
        std::thread::Builder::new()
            .name("perfbench".into())
            .spawn(move || {
                let outcome = report::run(&args, &progress);
                let _ = tx.send(outcome);
            })
            .expect("spawn the benchmark thread")
    };

    let started = Instant::now();
    let limit = deadline(&args);
    let failure = loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(outcome) => {
                worker.join().expect("the benchmark thread finished");
                return finish(outcome);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let why = match worker.join() {
                    Err(panic) => panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "unknown panic".into()),
                    Ok(()) => "the benchmark thread ended without a result".into(),
                };
                break format!("panicked: {why}");
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if started.elapsed() > limit {
                    break format!("no result after {limit:?}");
                }
                if progress.silent_for() > STALL_LIMIT {
                    break format!("no progress for {STALL_LIMIT:?}");
                }
                if proc_status_kb("VmRSS:").is_some_and(|kb| kb / 1024 > RSS_LIMIT_MB) {
                    break format!("resident memory passed {RSS_LIMIT_MB} MB");
                }
            }
        }
    };
    // A hung or crashed run is counted failures and a nonzero exit. The
    // process exit ends any thread still stuck in the program.
    let attempted = progress.attempted.load(Ordering::Relaxed).max(1);
    let failed = (progress.failed.load(Ordering::Relaxed) + 1).min(attempted);
    println!("watchdog: run stopped: {failure}");
    println!(
        "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    );
    std::process::exit(1);
}

fn finish(outcome: Outcome) -> ExitCode {
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload kv-stream-lazy --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-stream-lazy", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload kv-stream-eager --trace 2")).is_err());
        assert!(parse_args(&argv("--workload kv-stream-eager --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload kv-stream-eager --seed")).is_err());
    }
}
