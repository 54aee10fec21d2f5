//! `flow_gemm`: the functional, bit-accurate path. A `DeviceFlow` of
//! [`LANES`] subarray lanes computes a seeded `u8` gemm with
//! `Parallelism::Auto` twice per iteration: once fault-free, once with a
//! seeded shift-fault model and a wear tracker attached.

use crate::checks;
use crate::gen::{self, FlowOperands, FLOW_K, FLOW_M, FLOW_N};
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use streampim::dw_logic::{GateTally, Multiplier};
use streampim::pim_device::flow::{DeviceFlow, DeviceFlowStats};
use streampim::pim_device::Parallelism;
use streampim::rm_bus::SegmentedBus;
use streampim::rm_core::{Mat, Nanowire, ShiftDir, ShiftFaultModel, WearTracker};
use streampim::rm_proc::RmProcessor;

pub const LANES: usize = 8;
/// Over- and under-shift probability per domain step of the faulted run.
const FAULT_P: f64 = 1e-5;
/// Flow and operand constructions timed for `setup_s` before each iteration.
const SETUP_REPS: usize = 5;
const MACS: f64 = (FLOW_M * FLOW_K * FLOW_N) as f64;

/// Worker threads `Parallelism::Auto` gives a gemm on this host.
pub fn threads() -> usize {
    Parallelism::Auto.resolve_here().min(LANES)
}

struct Flows {
    clean: DeviceFlow,
    faulted: DeviceFlow,
}

fn build(seed: u64) -> Flows {
    Flows {
        clean: DeviceFlow::new(LANES).expect("flow builds"),
        faulted: DeviceFlow::new(LANES)
            .expect("flow builds")
            .with_fault_model(FAULT_P, FAULT_P, gen::flow_fault_seed(seed))
            .with_health(Arc::new(WearTracker::new())),
    }
}

/// One iteration's products, activity and host times.
struct Iteration {
    clean: Vec<u64>,
    clean_stats: DeviceFlowStats,
    faulted: Vec<u64>,
    faulted_stats: DeviceFlowStats,
    total_ns: u64,
    clean_ns: u64,
    faulted_ns: u64,
    peak_rss_mb: f64,
}

fn iteration(
    ops: &FlowOperands,
    seed: u64,
    parallelism: Parallelism,
    tracer: Option<(&mut Tracer, u64)>,
) -> Iteration {
    let gemm = |flow: &mut DeviceFlow| {
        flow.gemm(&ops.a, &ops.b, FLOW_M, FLOW_K, FLOW_N, parallelism)
            .expect("gemm shape fits the flow")
    };
    let t0 = Instant::now();
    let mut flows = build(seed);
    let t1 = Instant::now();
    let clean = gemm(&mut flows.clean);
    let t2 = Instant::now();
    let faulted = gemm(&mut flows.faulted);
    let t3 = Instant::now();
    let peak_rss_mb = stats::peak_rss_mb();
    if let Some((tracer, job)) = tracer {
        let parent = tracer.push("flow.iteration", job, None, t0, t3);
        tracer.push("flow.build", job, Some(parent), t0, t1);
        tracer.push("flow.gemm", job, Some(parent), t1, t2);
        tracer.push("flow.gemm_faulted", job, Some(parent), t2, t3);
    }
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Iteration {
        clean,
        clean_stats: flows.clean.stats(),
        faulted,
        faulted_stats: flows.faulted.stats(),
        total_ns: ns(t0, t3),
        clean_ns: ns(t1, t2),
        faulted_ns: ns(t2, t3),
        peak_rss_mb,
    }
}

/// Iterations until the next would overrun `budget` seconds (at least
/// one). Before each it times [`SETUP_REPS`] constructions of the flows and
/// operands into `setup_s`, so the set-up samples span the whole phase.
fn timed(
    ops: &FlowOperands,
    seed: u64,
    budget: f64,
    setup_s: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Iteration> {
    let mut runs: Vec<Iteration> = Vec::new();
    let mut spent = 0.0;
    loop {
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let built = black_box((build(seed), gen::flow_operands(seed)));
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(built);
        }
        let job = runs.len() as u64;
        let it = iteration(
            ops,
            seed,
            Parallelism::Auto,
            tracer.as_deref_mut().map(|t| (t, job)),
        );
        spent += it.total_ns as f64 / 1e9;
        runs.push(it);
        if spent + spent / runs.len() as f64 > budget {
            return runs;
        }
    }
}

/// Every iteration's products equal the host reference, and its activity
/// and fault tallies equal a serial rerun's.
fn check(ops: &FlowOperands, seed: u64, runs: &[&Iteration], outcome: &mut Outcome) {
    let reference = checks::gemm_reference(&ops.a, &ops.b, FLOW_M, FLOW_K, FLOW_N);
    let serial = iteration(ops, seed, Parallelism::Serial, None);
    for it in runs {
        let clean_bad = checks::element_mismatches(&it.clean, &reference);
        let faulted_bad = checks::element_mismatches(&it.faulted, &serial.faulted);
        let stats_ok =
            it.clean_stats == serial.clean_stats && it.faulted_stats == serial.faulted_stats;
        outcome.count(clean_bad == 0);
        outcome.count(faulted_bad == 0);
        outcome.count(stats_ok);
        if clean_bad + faulted_bad > 0 || !stats_ok {
            outcome.note(format!(
                "flow_gemm: {clean_bad} elements differ from the host reference, {faulted_bad} from the serial faulted run, stats equal: {stats_ok}"
            ));
        }
    }
    outcome.note(format!(
        "flow_gemm: fault-free {:?}; faulted {:?}",
        serial.clean_stats, serial.faulted_stats
    ));
    let m = &mut outcome.metrics;
    m.set(
        "flow.shifts_per_mac",
        serial.clean_stats.shifts as f64 / MACS,
    );
    m.set(
        "flow.faults_injected",
        serial.faulted_stats.faults_injected as f64,
    );
}

fn iteration_ms(runs: &[Iteration]) -> Vec<f64> {
    runs.iter().map(|r| r.total_ns as f64 / 1e6).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let ops = gen::flow_operands(seed);
    let mut setup_s = Vec::new();
    if !traced {
        let runs = timed(&ops, seed, seconds, &mut setup_s, None);
        check(&ops, seed, &runs.iter().collect::<Vec<_>>(), &mut outcome);
        let ms = iteration_ms(&runs);
        let secs = ms.iter().sum::<f64>() / 1e3;
        let m = &mut outcome.metrics;
        m.set("setup_s", stats::median(&setup_s));
        m.set("jobs_per_s", runs.len() as f64 / secs);
        m.set("latency_p50_ms", stats::median(&ms));
        m.set("peak_rss_mb", runs[0].peak_rss_mb);
        outcome.note(format!(
            "flow_gemm: {} iterations of 2 gemm {FLOW_M}x{FLOW_K}x{FLOW_N} in {secs:.3} s = {:.3} MMAC/s",
            runs.len(),
            2.0 * MACS * runs.len() as f64 / secs / 1e6
        ));
        return outcome;
    }

    let base = timed(&ops, seed, seconds / 3.0, &mut setup_s, None);
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let runs = timed(&ops, seed, seconds / 3.0, &mut setup_s, Some(&mut tracer));
    check(
        &ops,
        seed,
        &base.iter().chain(&runs).collect::<Vec<_>>(),
        &mut outcome,
    );
    let m = &mut outcome.metrics;
    let (base_ms, run_ms) = (iteration_ms(&base), iteration_ms(&runs));
    let ms_of =
        |f: fn(&Iteration) -> u64| runs.iter().map(|r| f(r) as f64 / 1e6).collect::<Vec<_>>();
    m.set("flow.gemm_ms", stats::median(&ms_of(|r| r.clean_ns)));
    m.set(
        "flow.gemm_faulted_ms",
        stats::median(&ms_of(|r| r.faulted_ns)),
    );
    m.set(
        "flow.mmac_per_s",
        2.0 * MACS * base.len() as f64 / (base_ms.iter().sum::<f64>() / 1e3) / 1e6,
    );
    let latency = stats::summarize(&base_ms).expect("at least one iteration");
    m.set("latency_p99_ms", latency.p99.unwrap_or(0.0));
    m.set("latency_samples", latency.count as f64);
    let overhead = mean(&run_ms) - mean(&base_ms);
    m.set("trace.overhead_ms", overhead);
    m.set("trace.overhead_pct", 100.0 * overhead / mean(&base_ms));
    kernels(&mut outcome);
    outcome.tracer = Some(tracer);
    outcome
}

/// Median host ns per call of `f` over 9 samples of enough calls to fill
/// about two milliseconds each.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed().as_micros() < 2_000 {
        f();
        calls += 1;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&samples)
}

/// Host ns per call of each bit-accurate kernel at the flow's widths: a
/// 16-track mat of 64-domain tracks, 8-bit operands, `FLOW_K`-element dot
/// products, and an 8-segment bus carrying one operand vector.
fn kernels(outcome: &mut Outcome) {
    let m = &mut outcome.metrics;

    let mut mat = Mat::new(16, 16, 64, 4);
    let row = vec![0xA5u8; mat.row_bytes()];
    for r in 0..64 {
        mat.write_row(r, &row).expect("row in range");
    }
    let mut buf = vec![0u8; mat.row_bytes()];
    let mut r = 0;
    m.set(
        "rm_core.read_row_ns",
        ns_per_call(|| {
            mat.read_row_into(black_box(r), &mut buf)
                .expect("row in range");
            r = (r + 17) % 64;
        }),
    );

    let mut wire = Nanowire::with_even_ports(64, 4);
    let mut faults = ShiftFaultModel::new(FAULT_P, FAULT_P, 0x5EED);
    m.set(
        "rm_core.shift_ns",
        ns_per_call(|| {
            for dir in [ShiftDir::Right, ShiftDir::Left] {
                wire.shift_bulk_with_faults(dir, 1, 8, &mut faults)
                    .expect("shift stays in the overhead region");
            }
            let drift = wire.offset();
            if drift != 0 {
                let dir = if drift > 0 {
                    ShiftDir::Left
                } else {
                    ShiftDir::Right
                };
                wire.shift(dir, drift.unsigned_abs())
                    .expect("recentring shift");
            }
        }) / 2.0,
    );

    let a: Vec<u64> = (0..FLOW_K as u64).map(|i| (i * 37 + 11) % 256).collect();
    let b: Vec<u64> = (0..FLOW_K as u64).map(|i| (i * 91 + 13) % 256).collect();
    let multiplier = Multiplier::new(8);
    let mut tally = GateTally::default();
    m.set(
        "dw_logic.multiply_ns",
        ns_per_call(|| {
            black_box(multiplier.multiply_many(black_box(&a), black_box(&b), &mut tally));
        }),
    );

    let mut processor = RmProcessor::new(8, 2);
    m.set(
        "rm_proc.dot_ns",
        ns_per_call(|| {
            black_box(processor.dot(black_box(&a), black_box(&b)));
        }),
    );

    let words: Vec<u64> = (0..(FLOW_K / 8) as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut bus = SegmentedBus::new(8);
    m.set(
        "rm_bus.stream_ns",
        ns_per_call(|| {
            black_box(bus.stream_words(0, 7, black_box(&words)));
        }),
    );
}
