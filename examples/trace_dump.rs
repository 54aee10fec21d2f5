//! Record one workload end to end — simulated device timelines plus the
//! host-side batch runtime — into a single Perfetto-loadable trace file,
//! and print the utilization report derived from it.
//!
//! ```sh
//! cargo run --release --example trace_dump -- gemm 0.02 trace.json
//! ```
//!
//! Arguments (all optional, in order): kernel name (default `gemm`),
//! problem-size scale (default `0.02`), output path (default
//! `trace.json`). Pass `--check` anywhere to additionally validate the
//! written file: it must parse, every complete event must carry
//! `ph`/`ts`/`dur`/`pid`/`tid`, every resource class must have at least
//! one span, and the analytic overlap fraction under `unblock` must
//! strictly exceed `base` — the CI trace-validation gate.
//!
//! Open the file at <https://ui.perfetto.dev> (or `chrome://tracing`):
//! the "StreamPIM device" process holds the simulated timelines, the
//! "pim-runtime host" process the wall-clock ones.

use std::sync::Arc;
use streampim::pim_baselines::platform::PlatformKind;
use streampim::pim_device::engine::Engine;
use streampim::pim_device::engine_event::EventEngine;
use streampim::pim_device::{Instruments, OptLevel, StreamPim, StreamPimConfig};
use streampim::pim_runtime::{Job, Runtime, RuntimeConfig};
use streampim::pim_trace::analyze::Analysis;
use streampim::pim_trace::{chrome, Collector, TraceSink};
use streampim::pim_workloads::polybench::Kernel;
use streampim::pim_workloads::spec::WorkloadSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut positional: Vec<String> = Vec::new();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            positional.push(arg);
        }
    }
    let kernel = match positional.first().map(String::as_str) {
        None => Kernel::Gemm,
        Some(name) => Kernel::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown kernel {name:?} (try: gemm, atax, mvt, ...)"))?,
    };
    let scale: f64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let out_path = positional
        .get(2)
        .cloned()
        .unwrap_or_else(|| "trace.json".to_string());

    let spec = WorkloadSpec::polybench(kernel, scale);
    let cfg = StreamPimConfig::paper_default();
    let device = StreamPim::new(cfg.clone())?;
    let schedule = spec.build_task().lower(&device)?;
    println!(
        "kernel {} at scale {scale}: {} VPCs in {} rounds",
        kernel.name(),
        schedule.counts().total(),
        schedule.len()
    );

    let sink = Collector::new();
    let traced = Instruments {
        sink: &sink,
        ..Instruments::NONE
    };

    // Simulated timelines: the operational engine's per-command spans
    // (subarray / transfer-lane / decoder tracks) ...
    EventEngine::new(&cfg).run(&schedule, &traced);
    // ... plus the analytic engine's phase spans for the same schedule.
    Engine::new(&cfg).run(&schedule, &traced, 1);

    // The analytic overlap comparison (Figure 22's mechanism): same
    // schedule, optimizations off vs on.
    let overlap = |opt: OptLevel| {
        let c = Collector::new();
        let traced = Instruments {
            sink: &c,
            ..Instruments::NONE
        };
        Engine::new(&cfg.clone().with_opt(opt)).run(&schedule, &traced, 1);
        Analysis::of(&c.spans()).overlap_fraction
    };
    let overlap_base = overlap(OptLevel::Base);
    let overlap_unblock = overlap(OptLevel::Unblock);

    // Host timelines: push the same workload (plus a host baseline for
    // contrast) through the traced batch runtime.
    let shared: Arc<Collector> = Arc::new(Collector::new());
    let runtime = Runtime::with_sink(
        RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        },
        Arc::clone(&shared) as Arc<dyn TraceSink>,
    );
    let jobs = vec![
        Job::new(spec, PlatformKind::StPim),
        Job::new(spec, PlatformKind::StPim),
        Job::new(spec, PlatformKind::CpuRm),
    ];
    let batch = runtime.run_batch(&jobs);
    assert_eq!(batch.failed(), 0, "trace workload jobs must succeed");
    for span in shared.spans() {
        sink.record_span(span);
    }
    for event in shared.events() {
        sink.record_instant(event);
    }

    let spans = sink.spans();
    let json = chrome::to_chrome_json(&spans, &sink.events());
    std::fs::write(&out_path, &json)?;
    println!(
        "wrote {} ({} spans, {} instants)\n",
        out_path,
        spans.len(),
        sink.event_count()
    );

    println!("{}", Analysis::of(&spans));
    println!(
        "\noverlap fraction: base {overlap_base:.4}, unblock {overlap_unblock:.4} \
         (transfers hidden under compute)"
    );

    if check {
        validate(&json, overlap_base, overlap_unblock)?;
        println!("\ntrace validation: OK");
    }
    Ok(())
}

/// The CI gate: structural Chrome-format validity plus the coverage and
/// overlap acceptance criteria.
fn validate(
    json: &str,
    overlap_base: f64,
    overlap_unblock: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    use serde::Value;

    let root: Value = serde_json::from_str(json)?;
    let events = match root.field("traceEvents")? {
        Value::Seq(items) => items,
        other => return Err(format!("traceEvents must be an array, got {other:?}").into()),
    };
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    let as_number = |v: &Value| -> Option<f64> {
        match *v {
            Value::UInt(u) => Some(u as f64),
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    };

    let mut classes_seen: Vec<&'static str> = Vec::new();
    for ev in events {
        let ph = match ev.field("ph")? {
            Value::Str(s) => s.clone(),
            other => return Err(format!("ph must be a string, got {other:?}").into()),
        };
        match ph.as_str() {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    if as_number(ev.field(key)?).is_none() {
                        return Err(format!("complete event has non-numeric {key}").into());
                    }
                }
                let tid = match *ev.field("tid")? {
                    Value::UInt(u) => u,
                    _ => return Err("tid must be unsigned".into()),
                };
                let class = class_of_tid(tid).ok_or(format!("tid {tid} outside track ranges"))?;
                if !classes_seen.contains(&class) {
                    classes_seen.push(class);
                }
            }
            "i" | "M" => {}
            other => return Err(format!("unexpected ph {other:?}").into()),
        }
    }

    for required in ["subarray", "lane", "decoder", "phase", "worker", "cache"] {
        // The cache track only carries instants; spans are not required
        // there — every other class must have at least one span.
        if required != "cache" && !classes_seen.contains(&required) {
            return Err(format!("no span on any {required} track").into());
        }
    }

    if overlap_unblock <= overlap_base {
        return Err(format!(
            "unblock overlap {overlap_unblock} must strictly exceed base {overlap_base}"
        )
        .into());
    }
    Ok(())
}

/// Maps a Perfetto thread id back to its resource class (the inverse of
/// `Track::tid`'s documented ranges).
fn class_of_tid(tid: u64) -> Option<&'static str> {
    match tid {
        900 => Some("cache"),
        1..=899 => Some("worker"),
        10_000..=19_999 => Some("subarray"),
        20_000..=29_999 => Some("lane"),
        30_000 => Some("decoder"),
        40_000..=40_002 => Some("phase"),
        _ => None,
    }
}
