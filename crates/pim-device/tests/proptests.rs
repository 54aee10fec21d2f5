//! Property-based tests for the device layer: functional correctness over
//! arbitrary shapes/values, and engine model invariants.

use pim_device::engine::Engine;
use pim_device::engine_event::EventEngine;
use pim_device::flow::DeviceFlow;
use pim_device::matrix::Matrix;
use pim_device::schedule::{Round, Schedule};
use pim_device::task::{MatrixOp, PimTask};
use pim_device::vpc::{VecRef, Vpc};
use pim_device::{Instruments, OptLevel, Parallelism, StreamPim, StreamPimConfig};
use pim_trace::{Collector, Track};
use proptest::prelude::*;

fn device() -> StreamPim {
    StreamPim::new(StreamPimConfig::paper_default()).expect("valid")
}

/// A broadcast/compute/collect schedule shaped like real kernel lowerings,
/// small enough for the event engine's expanded timelines.
fn event_schedule(rounds: usize, computes: usize, len: u32) -> Schedule {
    let mut s = Schedule::new();
    for r in 0..rounds {
        let mut round = Round::new();
        round.broadcasts.push(Vpc::Tran {
            src: 600,
            dst: r as u32 % 8,
            len,
        });
        for i in 0..computes {
            let sub = ((r * computes + i) % 512) as u32;
            round.computes.push(Vpc::Mul {
                src1: VecRef::new(sub, len),
                src2: VecRef::new(sub, len),
            });
            round.collects.push(Vpc::Tran {
                src: sub,
                dst: sub.wrapping_add(64),
                len: 1,
            });
        }
        s.push(round);
    }
    s
}

fn small_matrix(rows: usize, cols: usize, seed: i64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i as i64 * 31 + j as i64 * 17 + seed) % 16).abs()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MatMul over arbitrary shapes equals the host reference.
    #[test]
    fn matmul_matches_reference(m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0i64..100) {
        let a = small_matrix(m, k, seed);
        let b = small_matrix(k, n, seed + 1);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&b).unwrap();
        let hc = task.add_output(m, n).unwrap();
        task.add_operation(MatrixOp::MatMul { a: ha, b: hb, dst: hc }).unwrap();
        let out = task.run(&device()).unwrap();
        prop_assert_eq!(out.matrix(hc).unwrap(), &a.matmul(&b));
    }

    /// A random chain of shape-compatible square-matrix operations applies
    /// in program order, independent of the optimization level.
    #[test]
    fn random_op_chains_apply_in_order(
        n in 2usize..10,
        ops in proptest::collection::vec(0u8..4, 1..6),
        seed in 0i64..50,
        opt_pick in 0u8..3,
    ) {
        let opt = [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock][opt_pick as usize];
        let dev = StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).unwrap();
        let a = small_matrix(n, n, seed);
        let b = small_matrix(n, n, seed + 9);

        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&b).unwrap();
        let mut cur = ha;
        let mut reference = a.clone();
        for &op in &ops {
            let dst = task.add_output(n, n).unwrap();
            match op {
                0 => {
                    task.add_operation(MatrixOp::MatMul { a: cur, b: hb, dst }).unwrap();
                    reference = reference.matmul(&b);
                }
                1 => {
                    task.add_operation(MatrixOp::MatAdd { a: cur, b: hb, dst }).unwrap();
                    reference = reference.add(&b);
                }
                2 => {
                    task.add_operation(MatrixOp::ScalarMul { alpha: 3, a: cur, dst }).unwrap();
                    reference = reference.scale(3);
                }
                _ => {
                    task.add_operation(MatrixOp::Axpby { alpha: 2, a: cur, beta: -1, b: hb, dst })
                        .unwrap();
                    reference = reference.scale(2).add(&b.scale(-1));
                }
            }
            cur = dst;
        }
        let out = task.run(&dev).unwrap();
        prop_assert_eq!(out.matrix(cur).unwrap(), &reference);
    }

    /// Engine pricing is monotone in vector length and in repeat count.
    #[test]
    fn engine_monotone(len in 1u32..4000, repeat in 1u64..1000) {
        let dev = device();
        let mk = |len: u32, repeat: u64| {
            let mut s = Schedule::new();
            let mut r = Round::new().repeated(repeat);
            r.computes.push(Vpc::Mul { src1: VecRef::new(0, len), src2: VecRef::new(0, len) });
            r.collects.push(Vpc::Tran { src: 0, dst: 1, len: 1 });
            s.push(r);
            dev.execute(&s, &Instruments::NONE)
        };
        let base = mk(len, repeat);
        let longer = mk(len + 64, repeat);
        let more = mk(len, repeat + 10);
        prop_assert!(longer.total_ns() >= base.total_ns());
        prop_assert!(more.total_ns() >= base.total_ns());
        prop_assert!(longer.total_pj() >= base.total_pj());
        prop_assert!(more.total_pj() > base.total_pj());
    }

    /// Energy scales exactly linearly with repeat (the prototype-pricing
    /// optimization is exact for identical rounds).
    #[test]
    fn energy_linear_in_repeat(len in 1u32..2000, repeat in 1u64..500) {
        let dev = device();
        let mk = |repeat: u64| {
            let mut s = Schedule::new();
            let mut r = Round::new().repeated(repeat);
            r.computes.push(Vpc::Mul { src1: VecRef::new(3, len), src2: VecRef::new(3, len) });
            s.push(r);
            dev.execute(&s, &Instruments::NONE).total_pj()
        };
        let e1 = mk(repeat);
        let e2 = mk(2 * repeat);
        prop_assert!((e2 - 2.0 * e1).abs() < 1e-6 * e2.max(1.0));
    }

    /// Flattened trace counts agree with the arithmetic counts, repeat
    /// included.
    #[test]
    fn trace_counts_agree(n_computes in 1usize..20, repeat in 1u64..20) {
        let mut s = Schedule::new();
        let mut r = Round::new().repeated(repeat);
        for i in 0..n_computes {
            r.computes.push(Vpc::Smul { src: VecRef::new(i as u32, 10) });
            r.collects.push(Vpc::Tran { src: i as u32, dst: 600, len: 10 });
        }
        s.push(r);
        let arithmetic = s.counts();
        let flattened = s.unblock_order().counts();
        prop_assert_eq!(arithmetic, flattened);
        let natural = s.natural_order().counts();
        prop_assert_eq!(arithmetic, natural);
    }

    /// EventEngine trace spans never overlap on the same subarray or
    /// transfer-lane timeline: the operational model respects resource
    /// exclusivity for every schedule shape.
    #[test]
    fn event_spans_never_overlap_per_resource(
        rounds in 1usize..4,
        computes in 1usize..16,
        len in 1u32..600,
        opt_pick in 0u8..2,
    ) {
        let opt = [OptLevel::Base, OptLevel::Unblock][opt_pick as usize];
        let cfg = StreamPimConfig::paper_default().with_opt(opt);
        let s = event_schedule(rounds, computes, len);
        let sink = Collector::new();
        EventEngine::new(&cfg).run(&s, &Instruments { sink: &sink, ..Instruments::NONE });
        let mut per_track: std::collections::HashMap<Track, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for sp in sink.spans() {
            if matches!(sp.track, Track::Subarray(_) | Track::TransferLane(_)) {
                per_track.entry(sp.track).or_default().push((sp.start_ns, sp.end_ns()));
            }
        }
        for (track, mut iv) in per_track {
            iv.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in iv.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0 + 1e-9,
                    "{:?} overlap on {:?} ({:?})", w, track, opt
                );
            }
        }
    }

    /// The EventEngine makespan is reproducible from its own spans: the
    /// latest span end (or the controller decode floor, whichever is
    /// larger) equals the reported makespan, and for Base that in turn
    /// matches the analytic engine exactly.
    #[test]
    fn event_span_ends_reproduce_makespan(
        rounds in 1usize..4,
        computes in 1usize..16,
        len in 1u32..600,
        opt_pick in 0u8..2,
    ) {
        let opt = [OptLevel::Base, OptLevel::Unblock][opt_pick as usize];
        let cfg = StreamPimConfig::paper_default().with_opt(opt);
        let s = event_schedule(rounds, computes, len);
        let sink = Collector::new();
        let (makespan, _) = EventEngine::new(&cfg).run(&s, &Instruments { sink: &sink, ..Instruments::NONE });
        let lanes = cfg.device.pim_banks.max(1) as f64;
        let floor = s.counts().total() as f64 * cfg.engine.controller_ns_per_vpc / lanes;
        let latest = sink
            .spans()
            .iter()
            .filter(|sp| !matches!(sp.track, Track::Decoder))
            .fold(0.0f64, |m, sp| m.max(sp.end_ns()));
        prop_assert!(
            (latest.max(floor) - makespan).abs() <= 1e-9 * makespan.max(1.0),
            "span ends {} / floor {} vs makespan {} ({:?})", latest, floor, makespan, opt
        );
        if opt == OptLevel::Base {
            let analytic = Engine::new(&cfg).run(&s, &Instruments::NONE, 1).total_ns();
            prop_assert!(
                (makespan - analytic).abs() <= 1e-9 * analytic.max(1.0),
                "base event makespan {} != analytic {}", makespan, analytic
            );
        }
    }

    /// Differential: gemv through the functional device — which runs the
    /// wide word-group dot datapath in every lane — produces byte-identical
    /// results and identical fault tallies at every worker count, for
    /// arbitrary shapes, operand values, fault probabilities, and seeds.
    /// Same-seed per-lane fault streams are a function of the work
    /// assignment alone, never of scheduling.
    #[test]
    fn faulted_gemv_tallies_invariant_across_workers(
        m in 1usize..12,
        k in 1usize..24,
        seed in any::<u64>(),
        p_over in 0.0f64..0.5,
        p_under in 0.0f64..0.5,
        workers in 2usize..5,
    ) {
        let a: Vec<u8> = (0..m * k).map(|i| (i as u64 * 37 + seed) as u8).collect();
        let x: Vec<u8> = (0..k).map(|i| (i as u64 * 13 + seed / 7) as u8).collect();
        let mut serial = DeviceFlow::new(4).unwrap().with_fault_model(p_over, p_under, seed);
        let y0 = serial.gemv(&a, &x, m, k, Parallelism::Serial).unwrap();
        let host: Vec<u64> = (0..m)
            .map(|i| (0..k).map(|j| a[i * k + j] as u64 * x[j] as u64).sum())
            .collect();
        prop_assert_eq!(&y0, &host);
        let mut sharded = DeviceFlow::new(4).unwrap().with_fault_model(p_over, p_under, seed);
        let y = sharded.gemv(&a, &x, m, k, Parallelism::Threads(workers)).unwrap();
        prop_assert_eq!(&y, &y0);
        prop_assert_eq!(sharded.stats(), serial.stats());
    }

    /// Optimizations never make execution slower.
    #[test]
    fn optimizations_never_hurt(m in 4usize..24, seed in 0i64..20) {
        let a = small_matrix(m, m, seed);
        let run = |opt: OptLevel| {
            let dev = StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).unwrap();
            let mut task = PimTask::new();
            let ha = task.add_matrix(&a).unwrap();
            let hb = task.add_matrix(&a).unwrap();
            let hc = task.add_output(m, m).unwrap();
            task.add_operation(MatrixOp::MatMul { a: ha, b: hb, dst: hc }).unwrap();
            task.price(&dev).unwrap().total_ns()
        };
        let base = run(OptLevel::Base);
        let dist = run(OptLevel::Distribute);
        let unblock = run(OptLevel::Unblock);
        prop_assert!(dist <= base);
        prop_assert!(unblock <= dist);
    }
}
