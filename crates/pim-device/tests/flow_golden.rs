//! Golden pin of what the functional Figure 13 flow computes.
//!
//! The other flow tests compare a serial run against a sharded one, so they
//! cannot notice a change that moves both. This suite runs a fixed faulted
//! gemm and gemv with a wear tracker attached and checks the products, the
//! activity counters, the health snapshot and the probe record sequence
//! against constants recorded from the cycle-by-cycle, dot-at-a-time
//! implementation. Any datapath rewrite must reproduce them exactly, on
//! both the AVX2 and the portable (`STREAMPIM_WIDE_PORTABLE=1`) kernels.

use pim_device::flow::{DeviceFlow, DeviceFlowStats};
use pim_device::Parallelism;
use rm_core::{BufferProbe, DeviceHealth, SubarrayWear, WearTracker};
use std::sync::Arc;

const LANES: usize = 8;
const M: usize = 64;
const K: usize = 32;
const N: usize = 32;
const P_OVER: f64 = 2e-3;
const P_UNDER: f64 = 1e-3;
const SEED: u64 = 0x60_1D;

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn products_digest(values: &[u64]) -> u64 {
    fnv(values.iter().flat_map(|v| v.to_le_bytes()))
}

fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{value:?}").into_bytes())
}

fn operands() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let a = (0..M * K)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
        .collect();
    let b = (0..K * N).map(|i| (i * 37 + 11) as u8).collect();
    let x = (0..K).map(|i| (i * 91 + 13) as u8).collect();
    (a, b, x)
}

fn faulted_flow(tracker: &Arc<WearTracker>) -> DeviceFlow {
    DeviceFlow::new(LANES)
        .expect("flow builds")
        .with_fault_model(P_OVER, P_UNDER, SEED)
        .with_health(Arc::clone(tracker))
}

struct Run {
    products: Vec<u64>,
    stats: DeviceFlowStats,
    health: DeviceHealth,
}

fn gemm(parallelism: Parallelism) -> Run {
    let (a, b, _) = operands();
    let tracker = Arc::new(WearTracker::new());
    let mut flow = faulted_flow(&tracker);
    let products = flow.gemm(&a, &b, M, K, N, parallelism).expect("gemm");
    Run {
        products,
        stats: flow.stats(),
        health: tracker.snapshot(16),
    }
}

fn gemv(parallelism: Parallelism) -> (Run, BufferProbe) {
    let (a, _, x) = operands();
    let tracker = Arc::new(WearTracker::new());
    let mut flow = faulted_flow(&tracker);
    let probe = BufferProbe::new();
    let products = flow
        .gemv_probed(&a, &x, M, K, parallelism, &probe)
        .expect("gemv");
    let run = Run {
        products,
        stats: flow.stats(),
        health: tracker.snapshot(16),
    };
    (run, probe)
}

fn wear(shifts: u64, faults_sampled: u64, over_shifts: u64, under_shifts: u64) -> SubarrayWear {
    SubarrayWear {
        shifts,
        shift_distance: shifts,
        faults_sampled,
        over_shifts,
        under_shifts,
        busy_ns: 0.0,
    }
}

#[test]
fn faulted_gemm_matches_the_recorded_flow() {
    for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
        let run = gemm(parallelism);
        assert_eq!(
            products_digest(&run.products),
            0xc7f6_bae4_5e40_1225,
            "{parallelism:?} products"
        );
        assert_eq!(
            run.stats,
            DeviceFlowStats {
                shifts: 685_832,
                pim_conversions: 0,
                faults_sampled: 2048,
                faults_injected: 1190,
            },
            "{parallelism:?} stats"
        );
        assert_eq!(run.health.totals, wear(622_592, 2048, 798, 392));
        assert_eq!(
            debug_digest(&run.health),
            0x3cb3_fb53_73ab_4b08,
            "{parallelism:?} health snapshot"
        );
    }
}

#[test]
fn faulted_gemv_matches_the_recorded_flow_and_probe_sequence() {
    for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
        let (run, probe) = gemv(parallelism);
        assert_eq!(
            products_digest(&run.products),
            0xe92a_9369_18af_d705,
            "{parallelism:?} products"
        );
        assert_eq!(
            run.stats,
            DeviceFlowStats {
                shifts: 21_496,
                pim_conversions: 0,
                faults_sampled: 64,
                faults_injected: 33,
            },
            "{parallelism:?} stats"
        );
        assert_eq!(run.health.totals, wear(19_456, 64, 27, 6));
        assert_eq!(
            debug_digest(&run.health),
            0xeb2b_917e_b3fa_5c82,
            "{parallelism:?} health snapshot"
        );
        let records = probe.take();
        assert_eq!(records.len(), 3 * M, "three stage records per row");
        let gate_ops = |i: usize| (records[i].0.as_str(), records[i].1.ops.gate_ops);
        assert_eq!(
            [gate_ops(0), gate_ops(1), gate_ops(2)],
            [
                ("lane0/duplicator", 4096),
                ("lane0/multiplier", 36_352),
                ("lane0/adder_tree", 20_160),
            ]
        );
        assert_eq!(
            debug_digest(&records),
            0x9da8_4a36_4165_a981,
            "{parallelism:?} probe records"
        );
    }
}
