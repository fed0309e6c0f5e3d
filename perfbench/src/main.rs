//! The dgsched benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|serve|oracle> --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it records spans around calls into each layer's public
//! functions and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`,
//! and the exit code is non-zero when any correctness gate fails.
//! `BENCHMARK.json` at the repository root names the workloads and
//! metrics. `--size tiny` shrinks every input for the self-check.

mod common;
mod layers;
mod oracle;
mod serve;
mod sweep;

use common::{Sheet, Tracer, WorkDir};
use std::path::Path;
use std::process::ExitCode;

/// Input scale: the benchmark's own, or the self-check's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(args.workload.as_str(), "sweep" | "serve" | "oracle") {
        return Err(format!(
            "--workload must be sweep, serve or oracle, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The traced run: the named workload's traced pass feeds the layers on
/// its path; the other layers are measured by fixed-size probes, so every
/// per-layer metric is printed for every workload.
fn trace_run(sheet: &mut Sheet, work: &Path, a: &Args) -> std::io::Result<()> {
    let tracer = Tracer::new(true);
    sweep::canary(sheet);
    oracle::canary(sheet);
    let probe_s = match a.size {
        Size::Full => 3.0,
        Size::Tiny => 1.0,
    };
    match a.workload.as_str() {
        "sweep" => {
            serve::trace(sheet, &tracer, &work.join("serve"), a.seed, probe_s, a.size)?;
            oracle::trace(sheet, &tracer, a.seed, a.size, false);
            sweep::trace(sheet, &tracer, a.seed, a.size);
        }
        "serve" => {
            oracle::trace(sheet, &tracer, a.seed, a.size, false);
            let cold = serve::trace(
                sheet,
                &tracer,
                &work.join("serve"),
                a.seed,
                a.seconds,
                a.size,
            )?;
            sheet.put("trace.overhead", cold.overhead, "ratio");
            serve::sim_probes(sheet, &tracer, &cold, a.seed);
        }
        _ => {
            serve::trace(sheet, &tracer, &work.join("serve"), a.seed, probe_s, a.size)?;
            oracle::trace(sheet, &tracer, a.seed, a.size, true);
        }
    }
    serve::codec(sheet, a.seed, a.size);
    serve::journal(sheet, &work.join("journal"), a.seed)?;
    sheet.put(
        "failed_frac",
        sheet.failed as f64 / sheet.attempted.max(1) as f64,
        "ratio",
    );
    let spans = Path::new(".bench_work").join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
    let n = tracer.write(&spans)?;
    eprintln!("wrote {n} spans to {}", spans.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut sheet = Sheet::default();
    let outcome = if args.trace {
        trace_run(&mut sheet, &work.path, &args)
    } else {
        match args.workload.as_str() {
            "sweep" => {
                sweep::canary(&mut sheet);
                sweep::run(&mut sheet, args.seed, args.seconds, args.size);
                Ok(())
            }
            "serve" => serve::run(&mut sheet, &work.path, args.seed, args.seconds, args.size),
            _ => {
                oracle::canary(&mut sheet);
                oracle::run(&mut sheet, args.seed, args.seconds, args.size);
                Ok(())
            }
        }
        .map(|()| sheet.put("peak_rss_mb", common::peak_rss_mb(), "MB"))
    };
    drop(work);
    if let Err(e) = outcome {
        sheet.fail(format!("run aborted: {e}"));
    }
    sheet.settle();
    eprint!("{}", sheet.summary());
    println!("{}", sheet.result_line());
    if sheet.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
