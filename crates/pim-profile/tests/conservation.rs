//! Conservation properties: an enabled [`AttributionTree`] accounts for
//! *exactly* what the simulator charged globally. Counters must match
//! bit-for-bit (they are integers); energy must match bit-for-bit too,
//! because every emission site records the very value it added to the
//! global accumulator, in the same order — so the tree's running total
//! replays the identical f64 addition sequence.

use pim_baselines::platform::{Platform, PlatformKind, Workload};
use pim_device::schedule::Round;
use pim_device::vpc::{VecRef, Vpc};
use pim_device::{Instruments, StreamPim, StreamPimConfig};
use pim_profile::AttributionProbe;
use pim_workloads::polybench::Kernel;
use proptest::prelude::*;
use rm_core::EnergyBreakdown;

/// Bit-exact comparison of every energy component.
fn assert_energy_bits(a: &EnergyBreakdown, b: &EnergyBreakdown, ctx: &str) {
    for (name, x, y) in [
        ("read_pj", a.read_pj, b.read_pj),
        ("write_pj", a.write_pj, b.write_pj),
        ("shift_pj", a.shift_pj, b.shift_pj),
        ("compute_pj", a.compute_pj, b.compute_pj),
        ("other_pj", a.other_pj, b.other_pj),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: {name} drifted ({x} vs {y})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Platform-level conservation: for every platform and a range of
    /// kernels/scales, the tree total is bit-identical to the report.
    #[test]
    fn tree_total_matches_report_exactly(idx in 0usize..9, scale in 0.01f64..0.08, pidx in 0usize..7) {
        let kind = PlatformKind::FIGURE_17[pidx];
        let workload = Workload::from_kernel(&Kernel::ALL[idx].scaled(scale));
        let platform = Platform::new(kind).unwrap();
        let probe = AttributionProbe::new();
        let report = platform
            .run_instrumented(&workload, None, &Instruments { probe: &probe, ..Instruments::NONE })
            .unwrap();
        let tree = probe.into_tree();
        prop_assert!(!tree.is_empty(), "{kind}: nothing attributed");
        prop_assert_eq!(tree.total().ops, report.counters, "{} counters", kind);
        assert_energy_bits(&tree.total().energy, &report.energy, kind.name());
    }

    /// Leaf-exclusive sums reproduce the root (counters exactly; energy up
    /// to re-association, since the path-ordered fold adds in a different
    /// order than arrival).
    #[test]
    fn exclusive_sum_reproduces_total(idx in 0usize..9, scale in 0.01f64..0.08) {
        let workload = Workload::from_kernel(&Kernel::ALL[idx].scaled(scale));
        let platform = Platform::new(PlatformKind::StPim).unwrap();
        let probe = AttributionProbe::new();
        platform
            .run_instrumented(&workload, None, &Instruments { probe: &probe, ..Instruments::NONE })
            .unwrap();
        let tree = probe.into_tree();
        let sum = tree.exclusive_sum();
        prop_assert_eq!(sum.ops, tree.total().ops);
        let (a, b) = (sum.energy.total_pj(), tree.total().energy.total_pj());
        prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        let (x, y) = (sum.busy_ns, tree.total().busy_ns);
        prop_assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "{x} vs {y}");
    }
}

/// Device-level conservation on a hand-built schedule: every component
/// class appears and the totals match the engine report bit-for-bit.
#[test]
fn engine_profile_covers_all_component_classes() {
    let mut schedule = pim_device::schedule::Schedule::new();
    for r in 0..4u32 {
        let mut round = Round::new();
        round.broadcasts.push(Vpc::Tran {
            src: 600,
            dst: r % 8,
            len: 256,
        });
        for i in 0..8u32 {
            let sub = (r * 8 + i) % 512;
            round.computes.push(Vpc::Mul {
                src1: VecRef::new(sub, 256),
                src2: VecRef::new(sub, 256),
            });
            round.collects.push(Vpc::Tran {
                src: sub,
                dst: sub.wrapping_add(64),
                len: 1,
            });
        }
        schedule.push(round);
    }
    let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
    let probe = AttributionProbe::new();
    let report = device.execute(
        &schedule,
        &Instruments {
            probe: &probe,
            ..Instruments::NONE
        },
    );
    let plain = device.execute(&schedule, &Instruments::NONE);
    assert_eq!(report, plain, "profiling must not change the report");

    let tree = probe.into_tree();
    assert_eq!(tree.total().ops, report.counters);
    assert_energy_bits(&tree.total().energy, &report.energy, "engine");
    for class in ["bus/lane[", "device/subarray[", "device/controller"] {
        assert!(
            tree.iter().any(|(path, _)| path.starts_with(class)),
            "missing component class {class}"
        );
    }
    // Inclusive rollups partition the tree: bus + device cover everything.
    let bus = tree.inclusive("bus");
    let dev = tree.inclusive("device");
    assert_eq!(bus.ops + dev.ops, tree.total().ops);
}
