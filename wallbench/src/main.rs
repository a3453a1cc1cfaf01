//! `mggcn-wallbench`: host wall-clock benchmark of the MG-GCN workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload train-large --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count, better
//! direction), a provenance line, and as the last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits 1 when the
//! run cannot complete and 2 on a bad command line; a failed output check
//! still prints a result, with `correct: false`.

mod kernels;
mod metrics;
mod workload;

use metrics::{END_TO_END, PER_LAYER};
use mggcn_trace::json::{escape, JsonWriter};
use std::process::ExitCode;
use workload::RunOptions;

/// Seed kept out of all tuning; a later claim of a gain must also hold on
/// it.
const HELD_OUT_SEED: u64 = 1_000_003;

struct Args {
    workload: workload::Spec,
    opts: RunOptions,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::spec(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: RunOptions {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

/// The commit checked out in the working directory, read from `.git`
/// without looking above it; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(argv: &[String], args: &Args, out: &workload::Outcome) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let set = if args.opts.trace { PER_LAYER } else { END_TO_END };
    let quoted: Vec<String> = argv.iter().map(|a| format!("\"{}\"", escape(a))).collect();
    let notes: Vec<String> = out.notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
    let inner = JsonWriter::new()
        .str("clock", "wall")
        .str("workload", args.workload.name)
        .u64("seed", args.opts.seed)
        .u64("held_out_seed", HELD_OUT_SEED)
        .f64("seconds", args.opts.seconds, 3)
        .bool("trace", args.opts.trace)
        .usize("host_cores", cores)
        .usize("kernel_pool", mggcn_exec::pool_size())
        .str("kernel_pool_env", &std::env::var("MGGCN_THREADS").unwrap_or_else(|_| "unset".into()))
        .usize("gpu_workers", workload::GPUS)
        .str("backend", "threaded")
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .str("commit", &commit())
        .raw("argv", &format!("[{}]", quoted.join(", ")))
        .raw("samples", &out.report.sample_counts(set))
        .raw("notes", &format!("[{}]", notes.join(", ")))
        .finish();
    JsonWriter::new().raw("provenance", &inner).finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mggcn-wallbench --workload <train-large|serve-mixed> \
                 --seed <n> --seconds <s> [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let out = match workload::run(&args.workload, args.opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let set = if args.opts.trace { PER_LAYER } else { END_TO_END };
    let line = match out.report.render(set, out.tally) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", out.report.human(set));
    println!("{}", provenance(&argv, &args, &out));
    println!("{line}");
    ExitCode::SUCCESS
}
