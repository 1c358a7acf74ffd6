//! wasmbench: the repository's benchmark. One run measures one workload
//! for a fixed time and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and every metric by name and unit.
//!
//! ```text
//! wasmbench --workload batch-compute|batch-io|serve-mix --seed N
//!           --seconds S --trace 0|1 --fleet PATH
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics, writing its spans
//! to `.bench_out/`. `--fleet` names the `wasmperf-fleet` binary
//! serve-mix runs. `run.sh` builds both binaries and passes it.

mod batch;
mod cells;
mod layers;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;

use report::{END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fleet: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut fleet) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--fleet" => fleet = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fleet: fleet.ok_or("--fleet is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wasmbench: {e}");
            std::process::exit(2);
        }
    };
    let spans = PathBuf::from(format!(
        ".bench_out/{}-seed{}.spans.jsonl",
        args.workload, args.seed
    ));
    let trace = args.trace.then_some(spans.as_path());
    if trace.is_some() {
        let _ = std::fs::remove_file(&spans);
    }
    let result = match args.workload.as_str() {
        "batch-compute" => {
            cells::batch_compute().and_then(|c| batch::run(&c, args.seed, args.seconds, trace))
        }
        "batch-io" => {
            cells::batch_io().and_then(|c| batch::run(&c, args.seed, args.seconds, trace))
        }
        "serve-mix" => serve::run(&args.fleet, args.seed, args.seconds, trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result.and_then(|r| r.render(catalogue)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("wasmbench: {e}");
            std::process::exit(1);
        }
    }
}
