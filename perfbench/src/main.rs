//! End-to-end and per-layer benchmark of the StreamPIM stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_closed|dse_matmul|flow_gemm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints every
//! end-to-end metric; with `--trace 1` it prints every per-layer metric
//! from a separate traced run. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md
//! for the metrics and what each should move.

mod checks;
mod flow;
mod gen;
mod replay;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::Outcome;
use std::process::ExitCode;

const USAGE: &str = "usage: streampim-perfbench --workload <serve_closed|dse_matmul|flow_gemm> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeClosed,
    DseMatmul,
    FlowGemm,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("serve_closed", Workload::ServeClosed),
        ("dse_matmul", Workload::DseMatmul),
        ("flow_gemm", Workload::FlowGemm),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("streampim-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Clients, batch workers or flow lanes in flight: never above nproc.
    let threads = match args.workload {
        Workload::FlowGemm => flow::threads(),
        _ => nproc,
    };
    assert!(
        threads <= nproc,
        "benchmark would run {threads} threads on {nproc}"
    );

    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let calib_start = stats::calibration_ns();
    let outcome = match args.workload {
        Workload::ServeClosed => serve::run(seed, seconds, threads, traced),
        Workload::DseMatmul => Ok(sweep::run(seed, seconds, threads, traced)),
        Workload::FlowGemm => Ok(flow::run(seed, seconds, traced)),
    };
    let mut outcome: Outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!(
                "streampim-perfbench: {} could not run: {e}",
                args.workload.name()
            );
            return ExitCode::from(1);
        }
    };

    let calib_end = stats::calibration_ns();
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    if traced {
        outcome.metrics.set("error_rate", error_rate);
        outcome.metrics.set("threads", threads as f64);
        outcome
            .metrics
            .set("host.calib_ns", (calib_start + calib_end) / 2.0);
    }
    println!(
        "host: {{\"nproc\": {nproc}, \"arch\": \"{}\", \"simd\": \"{}\", \"threads\": {threads}, \"calib_ns_start\": {calib_start}, \"calib_ns_end\": {calib_end}}}",
        std::env::consts::ARCH,
        streampim::rm_core::wide::simd_level()
    );
    println!(
        "run: workload {} seed {seed} seconds {seconds} trace {}",
        args.workload.name(),
        u8::from(traced)
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "error_rate: {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let defs = if traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for d in defs {
        let value = outcome.metrics.get(&d.name);
        println!(
            "metric {} = {} {}",
            d.name,
            value.map_or("0 (not exercised)".to_string(), |v| v.to_string()),
            d.unit
        );
    }
    if let Some(tracer) = &outcome.tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{seed}.jsonl", args.workload.name()));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report::result_line(&outcome, defs, !traced));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse(&argv(
            "--workload dse_matmul --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::DseMatmul,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload flow_gemm --seed x --seconds 1 --trace 0",
            "--workload flow_gemm --seed 1 --seconds 0 --trace 0",
            "--workload flow_gemm --seed 1 --seconds 1 --trace 2",
            "--workload flow_gemm --seed 1 --seconds 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
