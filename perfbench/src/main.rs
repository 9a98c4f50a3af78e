//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]`
//!
//! Runs one workload and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--spans` also writes the traced window's raw spans
//! as CSV. Exits 1 if a correctness check failed, 2 on bad usage.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use mbtls_perfbench::alloc::CountingAlloc;
use mbtls_perfbench::bench;
use mbtls_perfbench::report;
use mbtls_perfbench::trace;
use mbtls_perfbench::workload::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]",
                Workload::ALL.map(Workload::name).join("|"));
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        bench::per_layer(args.workload, args.seed, args.seconds)
    } else {
        bench::end_to_end(args.workload, args.seed, args.seconds)
    };
    if let Some(path) = &args.spans {
        let written = File::create(path)
            .and_then(|f| trace::write_spans(&report.raw_spans, &mut BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {path}: {e}");
        }
    }
    println!(
        "{}",
        report::header(args.workload, args.seed, args.seconds, args.trace, &report)
    );
    for line in report::span_lines(&report) {
        println!("{line}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", report::result(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
