//! Machine-readable device-kernel benchmark: packed vs scalar medians.
//!
//! Runs the same four comparisons as the criterion `device` group —
//! bulk faulted nanowire shift, 64-track mat row read/write, and a
//! GEMV-shaped dot product — and writes median ns/op per variant plus the
//! speedup to a JSON report (default `BENCH_device.json`). A second,
//! informational `parallel` group times the functional [`DeviceFlow`]
//! gemv/gemm at several intra-run worker counts, recording the machine's
//! `available_parallelism` alongside — thread speedups are meaningless
//! without knowing how many cores the run actually had.
//!
//! Usage: `bench_device [--smoke] [--out PATH] [--compare PATH [--tolerance PCT]]`.
//! `--smoke` shrinks the sample counts so CI can validate the pipeline in
//! well under a second. `--compare` checks this run's speedups against a
//! previously written report (e.g. the committed `BENCH_device.json`) and
//! exits non-zero when any kernel's speedup moved by more than the
//! tolerance — speedups are same-machine ratios, so they transfer across
//! machines where absolute ns/op do not. The default tolerance (60%) is
//! deliberately loose: it rides through sampling noise and CI-runner
//! variation but still catches a packed kernel collapsing to scalar speed.
//! The `parallel` group is never gated: its speedups depend on the core
//! count of the machine at hand.

use pim_device::flow::DeviceFlow;
use pim_device::{Instruments, Parallelism};
use rm_core::reference::{ScalarMat, ScalarNanowire};
use rm_core::{Mat, Nanowire, ShiftDir, ShiftFaultModel};
use rm_proc::RmProcessor;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// The host environment a report was produced on. Absolute timings — and
/// thread speedups especially — only transfer between hosts that match on
/// these fields; `--compare` reads them to decide which gates apply.
#[derive(Debug, Serialize, Deserialize)]
struct HostEnv {
    /// `std::thread::available_parallelism` at bench time.
    available_parallelism: usize,
    /// Target architecture (`std::env::consts::ARCH`).
    arch: String,
    /// SIMD level the wide kernels dispatch to (`rm_core::wide::simd_level`).
    simd: String,
}

impl HostEnv {
    fn current() -> Self {
        HostEnv {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            arch: std::env::consts::ARCH.to_string(),
            simd: rm_core::wide::simd_level().to_string(),
        }
    }
}

/// Median ns/op comparison of one kernel.
#[derive(Debug, Serialize, Deserialize)]
struct KernelResult {
    name: String,
    scalar_ns: f64,
    packed_ns: f64,
    speedup: f64,
}

/// Median ns/op of one kernel's wide word-group path against its retained
/// single-word reference path (PR 8 tentpole): `ratio` is `word_ns /
/// wide_ns`, so ≥ 1 means the widening pays off.
#[derive(Debug, Serialize, Deserialize)]
struct WideResult {
    name: String,
    word_ns: f64,
    wide_ns: f64,
    ratio: f64,
}

/// Cold pricing vs near-miss re-pricing of one submission, medianed over a
/// shape-swept workload: `cold_ns` builds the task, lowers, and prices every
/// row from scratch (the pre-cache submission path); `repriced_ns` lowers
/// the shape-only task and replays already-priced rows through a warmed
/// [`pim_device::PriceTable`] (the runtime's near-miss path). `ratio` is
/// `repriced_ns / cold_ns` — the acceptance gate wants it under 0.5.
#[derive(Debug, Serialize, Deserialize)]
struct RepriceResult {
    shapes: usize,
    cold_ns: f64,
    repriced_ns: f64,
    ratio: f64,
}

/// One intra-run parallelism measurement: the same `DeviceFlow` workload
/// under `threads` workers vs serial, on a machine that reported
/// `available_parallelism` hardware threads.
#[derive(Debug, Serialize, Deserialize)]
struct ParallelResult {
    name: String,
    threads: usize,
    available_parallelism: usize,
    serial_ns: f64,
    parallel_ns: f64,
    speedup: f64,
}

/// The whole report (`BENCH_device.json`).
#[derive(Debug, Serialize, Deserialize)]
struct Report {
    bench: String,
    mode: String,
    host: HostEnv,
    iters_per_sample: u64,
    samples: usize,
    results: Vec<KernelResult>,
    wide: Vec<WideResult>,
    reprice: RepriceResult,
    parallel: Vec<ParallelResult>,
}

/// Median of `samples` timings of `iters` calls to `op`, in ns per call.
fn median_ns<F: FnMut()>(iters: u64, samples: usize, mut op: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_device.json".to_string());
    let compare_path = args
        .iter()
        .position(|a| a == "--compare")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tolerance_pct = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(60.0);

    let (iters, samples, gemv_iters) = if smoke { (200, 3, 2) } else { (20_000, 9, 30) };

    let mut results = Vec::new();

    // Kernel 1: bulk faulted shift — STEPS faulty single-domain steps
    // right, STEPS back, then a fault-free correction re-centring the
    // drift the injected over/under-shifts left behind (identical on both
    // sides, so the comparison stays apples-to-apples). The packed side
    // amortizes range checks and offset bookkeeping across the whole bulk
    // via `shift_bulk_with_faults`; the scalar reference pays them per
    // step, which is exactly how the pre-bulk engine behaved.
    {
        const STEPS: u64 = 32;
        let mut packed = Nanowire::with_even_ports(512, 8);
        let mut packed_faults = ShiftFaultModel::new(0.01, 0.01, 0xB13);
        let packed_ns = median_ns(iters, samples, || {
            packed
                .shift_bulk_with_faults(ShiftDir::Right, 1, STEPS, &mut packed_faults)
                .unwrap();
            packed
                .shift_bulk_with_faults(ShiftDir::Left, 1, STEPS, &mut packed_faults)
                .unwrap();
            let drift = packed.offset();
            if drift != 0 {
                let dir = if drift > 0 {
                    ShiftDir::Left
                } else {
                    ShiftDir::Right
                };
                packed.shift(dir, drift.unsigned_abs()).unwrap();
            }
        });
        let mut scalar = ScalarNanowire::with_even_ports(512, 8);
        let mut scalar_faults = ShiftFaultModel::new(0.01, 0.01, 0xB13);
        let scalar_ns = median_ns(iters, samples, || {
            for _ in 0..STEPS {
                scalar
                    .shift_with_faults(ShiftDir::Right, 1, &mut scalar_faults)
                    .unwrap();
            }
            for _ in 0..STEPS {
                scalar
                    .shift_with_faults(ShiftDir::Left, 1, &mut scalar_faults)
                    .unwrap();
            }
            let drift = scalar.offset();
            if drift != 0 {
                let dir = if drift > 0 {
                    ShiftDir::Left
                } else {
                    ShiftDir::Right
                };
                scalar.shift(dir, drift.unsigned_abs()).unwrap();
            }
        });
        results.push(KernelResult {
            name: "shift".into(),
            scalar_ns,
            packed_ns,
            speedup: scalar_ns / packed_ns,
        });
    }

    // Kernels 2-3: 64-track mat row read and write.
    {
        let data = [0xA5u8; 8];
        let mut packed = Mat::new(64, 32, 64, 4);
        let mut scalar = ScalarMat::new(64, 32, 64, 4);
        for r in 0..64 {
            packed.write_row(r, &data).unwrap();
            scalar.write_row(r, &data).unwrap();
        }

        let mut buf = [0u8; 8];
        let mut r = 0;
        let packed_ns = median_ns(iters, samples, || {
            packed.read_row_into(black_box(r), &mut buf).unwrap();
            r = (r + 17) % 64;
        });
        let mut r = 0;
        let scalar_ns = median_ns(iters, samples, || {
            black_box(scalar.read_row(black_box(r)).unwrap());
            r = (r + 17) % 64;
        });
        results.push(KernelResult {
            name: "read_row".into(),
            scalar_ns,
            packed_ns,
            speedup: scalar_ns / packed_ns,
        });

        let mut r = 0;
        let packed_ns = median_ns(iters, samples, || {
            packed.write_row(black_box(r), &data).unwrap();
            r = (r + 17) % 64;
        });
        let mut r = 0;
        let scalar_ns = median_ns(iters, samples, || {
            scalar.write_row(black_box(r), &data).unwrap();
            r = (r + 17) % 64;
        });
        results.push(KernelResult {
            name: "write_row".into(),
            scalar_ns,
            packed_ns,
            speedup: scalar_ns / packed_ns,
        });
    }

    // Kernel 4: GEMV-shaped 256-element dot product through the datapath.
    {
        let a: Vec<u64> = (0..256).map(|i| (i * 37 + 11) % 256).collect();
        let b: Vec<u64> = (0..256).map(|i| (i * 91 + 13) % 256).collect();
        let mut packed = RmProcessor::new(8, 2);
        let packed_ns = median_ns(gemv_iters, samples, || {
            black_box(packed.dot(black_box(&a), black_box(&b)));
        });
        let mut scalar = RmProcessor::new(8, 2);
        let scalar_ns = median_ns(gemv_iters, samples, || {
            black_box(scalar.dot_scalar(black_box(&a), black_box(&b)));
        });
        results.push(KernelResult {
            name: "gemv".into(),
            scalar_ns,
            packed_ns,
            speedup: scalar_ns / packed_ns,
        });
    }

    // Wide group: each widened hot path against its retained single-word
    // reference (PR 8): the processor dot datapath, the aligned row copy
    // under `Mat` reads/writes, and the bus's closed-form bulk stream.
    let mut wide = Vec::new();
    {
        let a: Vec<u64> = (0..256).map(|i| (i * 37 + 11) % 256).collect();
        let b: Vec<u64> = (0..256).map(|i| (i * 91 + 13) % 256).collect();
        let mut proc = RmProcessor::new(8, 2);
        let wide_ns = median_ns(gemv_iters, samples, || {
            black_box(proc.dot(black_box(&a), black_box(&b)));
        });
        let word_ns = median_ns(gemv_iters, samples, || {
            black_box(proc.dot_words(black_box(&a), black_box(&b)));
        });
        wide.push(WideResult {
            name: "gemv".into(),
            word_ns,
            wide_ns,
            ratio: word_ns / wide_ns,
        });
    }
    {
        // A full 4096-lane plane row, the grain `Mat` row reads copy.
        const LANES: usize = 4096;
        let mut src = rm_core::PackedBits::new(LANES);
        for i in (0..LANES).step_by(3) {
            src.set(i, true);
        }
        let mut dst = rm_core::PackedBits::new(LANES);
        let wide_ns = median_ns(iters, samples, || {
            dst.copy_range_from(0, black_box(&src), 0, LANES);
            black_box(&dst);
        });
        let word_ns = median_ns(iters, samples, || {
            dst.copy_range_from_by_words(0, black_box(&src), 0, LANES);
            black_box(&dst);
        });
        wide.push(WideResult {
            name: "read_row".into(),
            word_ns,
            wide_ns,
            ratio: word_ns / wide_ns,
        });
    }
    {
        let words: Vec<u64> = (0..64).map(|i| i * 0x9E37_79B9_7F4A_7C15u64).collect();
        let (src, dst) = (0usize, 8usize);
        let mut bulk = rm_bus::SegmentedBus::new(16);
        let wide_ns = median_ns(iters / 4, samples, || {
            black_box(bulk.stream_words(src, dst, black_box(&words)));
        });
        let mut cycled = rm_bus::SegmentedBus::new(16);
        let word_ns = median_ns(iters / 4, samples, || {
            black_box(cycled.stream_words_cycled_reference(src, dst, black_box(&words)));
        });
        wide.push(WideResult {
            name: "stream_words".into(),
            word_ns,
            wide_ns,
            ratio: word_ns / wide_ns,
        });
    }

    // Reprice group: the runtime's near-miss submission path (shape-only
    // lowering + memoized pricing) against the cold path (task build + full
    // pricing), medianed over a shape-swept MatMul workload whose price
    // table was warmed by one sibling shape.
    let reprice = {
        use pim_device::{PriceTable, StreamPim, StreamPimConfig};
        use pim_workloads::WorkloadSpec;
        let device = StreamPim::new(StreamPimConfig::paper_default()).expect("device builds");
        let shapes: Vec<WorkloadSpec> = (0..6)
            .map(|i| WorkloadSpec::MatMul {
                m: 32 + 8 * i,
                k: 48 + 4 * i,
                n: 16 + 2 * i,
            })
            .collect();
        let (rep_iters, rep_samples) = if smoke { (2, 3) } else { (20, 7) };
        let cold_ns = median_ns(rep_iters, rep_samples, || {
            for spec in &shapes {
                let schedule = spec.build_task().lower(&device).expect("lowers");
                black_box(device.execute(&schedule, &Instruments::NONE));
            }
        });
        // Warm the table with the first shape, then sweep the rest —
        // exactly what the runtime does after one shape-class submission.
        let mut table = PriceTable::new();
        let warm = shapes[0].shape_task().lower(&device).expect("lowers");
        device.execute_repriced(&warm, &Instruments::NONE, &mut table);
        let repriced_ns = median_ns(rep_iters, rep_samples, || {
            for spec in &shapes {
                let schedule = spec.shape_task().lower(&device).expect("lowers");
                black_box(device.execute_repriced(&schedule, &Instruments::NONE, &mut table));
            }
        });
        RepriceResult {
            shapes: shapes.len(),
            cold_ns,
            repriced_ns,
            ratio: repriced_ns / cold_ns,
        }
    };

    // Parallel group: functional DeviceFlow gemv/gemm sharded across
    // intra-run worker threads. Gated by --compare only when the baseline
    // ran with the same hardware thread count: the speedup is a property
    // of the machine's core count, which is why each entry records
    // `available_parallelism` next to `threads`.
    let host = HostEnv::current();
    let available = host.available_parallelism;
    let (par_iters, par_samples) = if smoke { (1, 3) } else { (4, 7) };
    let mut parallel = Vec::new();
    {
        let (m, k, n) = (16usize, 32usize, 4usize);
        let a: Vec<u8> = (0..(m * k) as u32).map(|i| (i * 37 % 251) as u8).collect();
        let b: Vec<u8> = (0..(k * n) as u32).map(|i| (i * 91 % 247) as u8).collect();
        let x: Vec<u8> = (0..k as u32).map(|i| (i * 13 + 1) as u8).collect();
        type FlowRun<'a> = Box<dyn FnMut(&mut DeviceFlow, Parallelism) + 'a>;
        let workloads: [(&str, FlowRun); 2] = [
            (
                "flow_gemv",
                Box::new(|flow, par| {
                    black_box(flow.gemv(&a, &x, m, k, par).unwrap());
                }),
            ),
            (
                "flow_gemm",
                Box::new(|flow, par| {
                    black_box(flow.gemm(&a, &b, m, k, n, par).unwrap());
                }),
            ),
        ];
        for (name, mut run) in workloads {
            let mut flow = DeviceFlow::new(8).expect("flow builds");
            let serial_ns = median_ns(par_iters, par_samples, || {
                run(&mut flow, Parallelism::Serial);
            });
            for threads in [2usize, 4, 8] {
                let parallel_ns = median_ns(par_iters, par_samples, || {
                    run(&mut flow, Parallelism::Threads(threads));
                });
                parallel.push(ParallelResult {
                    name: name.into(),
                    threads,
                    available_parallelism: available,
                    serial_ns,
                    parallel_ns,
                    speedup: serial_ns / parallel_ns,
                });
            }
        }
    }

    let report = Report {
        bench: "device".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        host,
        iters_per_sample: iters,
        samples,
        results,
        wide,
        reprice,
        parallel,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("report written");

    println!(
        "device kernels ({} mode, {} / {} / {} threads):",
        report.mode, report.host.arch, report.host.simd, report.host.available_parallelism
    );
    for k in &report.results {
        println!(
            "  {:<10} scalar {:>10.1} ns/op   packed {:>10.1} ns/op   {:>6.1}x",
            k.name, k.scalar_ns, k.packed_ns, k.speedup
        );
    }
    println!("wide word-group vs single-word paths:");
    for w in &report.wide {
        println!(
            "  {:<12} word {:>10.1} ns/op   wide {:>10.1} ns/op   {:>6.2}x",
            w.name, w.word_ns, w.wide_ns, w.ratio
        );
    }
    println!(
        "near-miss re-pricing over {} swept shapes: cold {:>10.1} ns   repriced {:>10.1} ns   {:.2}x",
        report.reprice.shapes, report.reprice.cold_ns, report.reprice.repriced_ns, report.reprice.ratio
    );
    println!("intra-run parallel flow (machine has {available} hardware threads):");
    for p in &report.parallel {
        println!(
            "  {:<10} x{:<2} serial {:>10.1} ns/op   parallel {:>10.1} ns/op   {:>5.2}x",
            p.name, p.threads, p.serial_ns, p.parallel_ns, p.speedup
        );
    }
    println!("wrote {out_path}");

    if let Some(base_path) = compare_path {
        return compare(&report, &base_path, tolerance_pct);
    }
    ExitCode::SUCCESS
}

/// The ways `now`'s host differs from the baseline's, one description per
/// mismatched field. Speedup ratios only transfer between matching hosts:
/// packed-vs-scalar depends on the SIMD level, everything on the
/// architecture, and thread ratios on the core count.
fn host_mismatches(base: &HostEnv, now: &HostEnv) -> Vec<String> {
    let mut out = Vec::new();
    if base.arch != now.arch {
        out.push(format!("arch: baseline {} vs {}", base.arch, now.arch));
    }
    if base.simd != now.simd {
        out.push(format!("simd: baseline {} vs {}", base.simd, now.simd));
    }
    if base.available_parallelism != now.available_parallelism {
        out.push(format!(
            "threads: baseline {} vs {}",
            base.available_parallelism, now.available_parallelism
        ));
    }
    out
}

/// Whether the parallel speedup gate is meaningful on this host. On a
/// single-hardware-thread host the "speedup" of the threaded engine is
/// pure scheduler overhead; the ratio swings 2x run to run and gating it
/// only produces flaky CI.
fn parallel_gate_applies(host: &HostEnv) -> bool {
    host.available_parallelism > 1
}

/// Gates this run's speedups against a baseline report's.
fn compare(report: &Report, base_path: &str, tolerance_pct: f64) -> ExitCode {
    let baseline: Report = match std::fs::read_to_string(base_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("{e:?}")))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("loading baseline {base_path} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A mismatched host block used to gate the kernel speedups anyway and
    // silently skip the parallel group — a baseline from another machine
    // then "passed" without checking anything real. Refuse instead: the
    // committed baseline must be regenerated on the class of machine that
    // runs the gate.
    let mismatches = host_mismatches(&baseline.host, &report.host);
    if !mismatches.is_empty() {
        eprintln!("bench_device: refusing to compare against {base_path} — host mismatch:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        eprintln!("  (speedup ratios do not transfer across hosts; regenerate the baseline on this machine class)");
        return ExitCode::FAILURE;
    }
    println!("\ncomparing speedups against {base_path} (tolerance {tolerance_pct}%):");
    let mut failed = false;
    for k in &report.results {
        let Some(base) = baseline.results.iter().find(|b| b.name == k.name) else {
            eprintln!("  {:<10} MISSING from baseline", k.name);
            failed = true;
            continue;
        };
        let drift_pct = (k.speedup / base.speedup - 1.0) * 100.0;
        let ok = drift_pct.abs() <= tolerance_pct;
        failed |= !ok;
        println!(
            "  {:<10} baseline {:>6.2}x   now {:>6.2}x   {:>+7.1}%  {}",
            k.name,
            base.speedup,
            k.speedup,
            drift_pct,
            if ok { "ok" } else { "FAIL" }
        );
    }
    for b in &baseline.results {
        if !report.results.iter().any(|k| k.name == b.name) {
            eprintln!("  {:<10} in baseline but not measured", b.name);
            failed = true;
        }
    }
    // Host blocks match (checked above), so the only remaining reason to
    // skip the parallel gate is a host where thread ratios are noise.
    if !parallel_gate_applies(&report.host) {
        eprintln!(
            "  WARNING: skipping parallel speedup gate — host has 1 hardware thread, ratios are scheduler noise"
        );
    } else {
        for p in &report.parallel {
            let Some(base) = baseline
                .parallel
                .iter()
                .find(|b| b.name == p.name && b.threads == p.threads)
            else {
                eprintln!(
                    "  {:<10} x{:<2} MISSING from baseline parallel group",
                    p.name, p.threads
                );
                failed = true;
                continue;
            };
            let drift_pct = (p.speedup / base.speedup - 1.0) * 100.0;
            let ok = drift_pct.abs() <= tolerance_pct;
            failed |= !ok;
            println!(
                "  {:<10} x{:<2} baseline {:>6.2}x   now {:>6.2}x   {:>+7.1}%  {}",
                p.name,
                p.threads,
                base.speedup,
                p.speedup,
                drift_pct,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    if failed {
        eprintln!("bench_device: speedup drift beyond {tolerance_pct}% of {base_path}");
        ExitCode::FAILURE
    } else {
        println!("bench_device: all speedups within {tolerance_pct}% of {base_path}");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(threads: usize, arch: &str, simd: &str) -> HostEnv {
        HostEnv {
            available_parallelism: threads,
            arch: arch.into(),
            simd: simd.into(),
        }
    }

    #[test]
    fn matching_hosts_compare() {
        let a = host(8, "x86_64", "avx2");
        let b = host(8, "x86_64", "avx2");
        assert!(host_mismatches(&a, &b).is_empty());
    }

    #[test]
    fn every_host_field_is_checked() {
        let base = host(8, "x86_64", "avx2");
        for (other, field) in [
            (host(1, "x86_64", "avx2"), "threads"),
            (host(8, "aarch64", "avx2"), "arch"),
            (host(8, "x86_64", "portable"), "simd"),
        ] {
            let mismatches = host_mismatches(&base, &other);
            assert_eq!(mismatches.len(), 1, "{field}: {mismatches:?}");
            assert!(mismatches[0].starts_with(field), "{mismatches:?}");
        }
        assert_eq!(
            host_mismatches(&base, &host(2, "aarch64", "portable")).len(),
            3
        );
    }

    #[test]
    fn one_thread_hosts_skip_the_parallel_gate() {
        assert!(!parallel_gate_applies(&host(1, "x86_64", "avx2")));
        assert!(parallel_gate_applies(&host(2, "x86_64", "avx2")));
        assert!(parallel_gate_applies(&host(8, "x86_64", "avx2")));
    }
}
