//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paths|triangles|serve-rw --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Inputs come from `crates/workloads`
//! seeded by `--seed`; the run measures for `--seconds`, checks every
//! answer, prints a human-readable report and, as its last line, one
//! JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
//! (from a separate traced pass) with `--trace 1`. See `LAYERS.md` for
//! what each metric means and which end-to-end figure it should move.

mod inputs;
mod layers;
mod query;
mod report;
mod serve;
mod speed;
mod trace;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload paths|triangles|serve-rw --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "paths" => query::run(&query::PATHS, args.seed, args.seconds, args.trace),
        "triangles" => query::run(&query::TRIANGLES, args.seed, args.seconds, args.trace),
        "serve-rw" => match serve::run(args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve-rw: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print(args.trace);
    ExitCode::SUCCESS
}
