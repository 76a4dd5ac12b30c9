//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir DIR]
//! ```
//!
//! Workloads: `serve_churn`, `sweep_fig6`, `sweep_delay` (see
//! `perfbench/README.md`). Context lines go first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end catalog with
//! `--trace 0`, the per-layer catalog with `--trace 1`. A failed
//! correctness check exits with code 1 and prints no result.

mod calib;
mod child;
mod layers;
mod loadgen;
mod report;
mod schedule;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
    /// Set in a child process (`--child <workload>`): the daemon of a
    /// daemon workload, or one pass of sweep variant `variant`.
    child: bool,
    variant: usize,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut spans_dir = None;
        let mut child = false;
        let mut variant = 0;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
                "--child" => {
                    child = true;
                    workload = Some(value.clone());
                }
                "--variant" => variant = value.parse().map_err(|e| format!("--variant: {e}"))?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: match (seconds, child) {
                (Some(s), _) => s,
                (None, true) => 0.0,
                (None, false) => return Err("--seconds is required".into()),
            },
            trace,
            spans_dir,
            child,
            variant,
        })
    }

    /// Writes the traced run's spans, when a directory was given.
    pub fn write_spans(&self, tracer: &spans::Tracer) -> Result<(), String> {
        let Some(dir) = &self.spans_dir else {
            return Ok(());
        };
        let path = dir.join(format!("{}-seed{}.jsonl", self.workload, self.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// SplitMix64 finaliser: spreads a workload seed over a 64-bit
/// simulation seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let done = match args.workload.as_str() {
            "serve_churn" => serve::daemon_main(args.seed),
            "sweep_fig6" => sweep::rss_main(&sweep::FIG6, args.seed, args.variant),
            "sweep_delay" => sweep::rss_main(&sweep::DELAY, args.seed, args.variant),
            other => Err(format!("no child mode for {other}")),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::from(1)
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "serve_churn" => serve::churn(&args),
        "sweep_fig6" => sweep::run(&args, &sweep::FIG6),
        "sweep_delay" => sweep::run(&args, &sweep::DELAY),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match report::result_line(&outcome, args.trace, true) {
        Ok(line) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
