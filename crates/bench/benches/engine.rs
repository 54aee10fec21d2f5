//! Benchmarks of the execution engine and task lowering: how fast the
//! analytic simulator prices work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_device::matrix::Matrix;
use pim_device::task::{MatrixOp, PimTask};
use pim_device::{Instruments, OptLevel, StreamPim, StreamPimConfig};
use std::hint::black_box;

fn matmul_task(n: usize) -> PimTask {
    let mut task = PimTask::new();
    let a = task.add_matrix(&Matrix::zeros(n, n)).unwrap();
    let b = task.add_matrix(&Matrix::zeros(n, n)).unwrap();
    let c = task.add_output(n, n).unwrap();
    task.add_operation(MatrixOp::MatMul { a, b, dst: c })
        .unwrap();
    task
}

fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_lowering");
    group.sample_size(20);
    for n in [128usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
            let task = matmul_task(n);
            b.iter(|| task.lower(black_box(&device)).unwrap())
        });
    }
    group.finish();
}

fn bench_pricing(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_pricing");
    group.sample_size(20);
    for n in [128usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
            let schedule = matmul_task(n).lower(&device).unwrap();
            b.iter(|| device.execute(black_box(&schedule), &Instruments::NONE))
        });
    }
    group.finish();
}

fn bench_opt_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_opt_levels");
    group.sample_size(20);
    for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
        group.bench_with_input(
            BenchmarkId::new("price", format!("{opt:?}")),
            &opt,
            |b, &opt| {
                let device =
                    StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).unwrap();
                let schedule = matmul_task(256).lower(&device).unwrap();
                b.iter(|| device.execute(black_box(&schedule), &Instruments::NONE))
            },
        );
    }
    group.finish();
}

fn bench_functional_run(c: &mut Criterion) {
    c.bench_function("task_functional_run_32", |b| {
        let device = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
        let a = Matrix::from_fn(32, 32, |i, j| ((i * j) % 13) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&a).unwrap();
        let hc = task.add_output(32, 32).unwrap();
        task.add_operation(MatrixOp::MatMul {
            a: ha,
            b: hb,
            dst: hc,
        })
        .unwrap();
        b.iter(|| task.run(black_box(&device)).unwrap())
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20);
    targets = bench_lowering,
    bench_pricing,
    bench_opt_levels,
    bench_functional_run
}
criterion_main!(engine);
