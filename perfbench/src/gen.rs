//! Seeded input generation. Every job list and operand matrix the benchmark
//! feeds the program is a pure function of the workload seed, so two runs
//! with one seed drive the program with identical inputs.

use streampim::pim_baselines::PlatformKind;
use streampim::pim_device::{OptLevel, StreamPimConfig};
use streampim::pim_runtime::{ClusterSpec, Job};
use streampim::pim_workloads::{Kernel, WorkloadSpec};

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed by its
/// seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift: unbiased enough for input generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Tenants of the serving mix with their dispatch weights.
pub const TENANTS: [(&str, u64); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];

/// The fixed `MatMul` shapes (m, k, n) of the serving mix. A repeated shape
/// is a full-key cache hit; a shape's first use on a platform is a near hit
/// (the dimension-blind shape key is shared by every `MatMul`).
pub const SERVE_SHAPES: [(usize, usize, usize); 8] = [
    (16, 16, 16),
    (32, 32, 32),
    (32, 64, 16),
    (48, 48, 48),
    (64, 64, 64),
    (64, 128, 32),
    (96, 96, 96),
    (128, 128, 128),
];

/// Polybench scale of the serving mix's occasional kernel job.
pub const SERVE_POLYBENCH_SCALE: f64 = 0.05;

/// The `index`-th submission of the serving stream, a pure function of
/// `(seed, index)`: seven in eight are `MatMul` on StPIM or StPIM-e drawn
/// from [`SERVE_SHAPES`], one in eight a polybench kernel at
/// [`SERVE_POLYBENCH_SCALE`] on a Figure 17 platform.
pub fn serve_job(seed: u64, index: u64) -> Job {
    let stream = Rng::new(seed ^ 0x5E12_7E00).next_u64();
    let mut rng = Rng::new(stream ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let tenant = TENANTS[rng.below(TENANTS.len() as u64) as usize].0;
    let job = if rng.below(8) == 0 {
        let kernel = rng.pick(&Kernel::ALL);
        let platform = rng.pick(&PlatformKind::FIGURE_17);
        Job::new(
            WorkloadSpec::polybench(kernel, SERVE_POLYBENCH_SCALE),
            platform,
        )
    } else {
        let (m, k, n) = rng.pick(&SERVE_SHAPES);
        let platform = rng.pick(&[PlatformKind::StPim, PlatformKind::StPimE]);
        Job::new(WorkloadSpec::MatMul { m, k, n }, platform)
    };
    job.for_tenant(tenant)
}

/// PIM subarray counts of the design-space sweep.
pub const DSE_SUBARRAYS: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// Optimization levels of the design-space sweep (Figure 22's axis).
pub const DSE_OPTS: [OptLevel; 3] = [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock];

/// Device counts of the design-space sweep's scale-out jobs.
pub const DSE_DEVICES: [u32; 3] = [2, 4, 8];

/// One design-space batch of `count` StPIM `MatMul` jobs: m in 64..=8192
/// (multiples of 64), k in 128..=320 and n in 64..=192 (multiples of 32),
/// each on a configuration drawn from [`DSE_OPTS`] x [`DSE_SUBARRAYS`]. One
/// job in eight runs data-parallel on [`DSE_DEVICES`] devices, the
/// scale-out axis of the design space; the rest run on one device.
pub fn dse_batch(rng: &mut Rng, count: usize) -> Vec<Job> {
    (0..count)
        .map(|_| {
            let m = 64 * (1 + rng.below(128) as usize);
            let k = 128 + 32 * rng.below(7) as usize;
            let n = 64 + 32 * rng.below(5) as usize;
            let config = StreamPimConfig::paper_default()
                .with_opt(rng.pick(&DSE_OPTS))
                .with_pim_subarrays(rng.pick(&DSE_SUBARRAYS));
            let job =
                Job::new(WorkloadSpec::MatMul { m, k, n }, PlatformKind::StPim).with_config(config);
            if rng.below(8) == 0 {
                job.with_cluster(ClusterSpec::data(rng.pick(&DSE_DEVICES)))
            } else {
                job
            }
        })
        .collect()
}

/// Shape of the functional gemm: `C[m,n] = A[m,k] * B[k,n]` over bytes.
pub const FLOW_M: usize = 2048;
pub const FLOW_K: usize = 32;
pub const FLOW_N: usize = 32;

/// Seeded `u8` operands of the functional gemm, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowOperands {
    pub a: Vec<u8>,
    pub b: Vec<u8>,
}

pub fn flow_operands(seed: u64) -> FlowOperands {
    let mut rng = Rng::new(seed ^ 0xF10A_0B5E);
    let mut bytes = |len: usize| (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
    FlowOperands {
        a: bytes(FLOW_M * FLOW_K),
        b: bytes(FLOW_K * FLOW_N),
    }
}

/// Seed of the faulted run's per-lane fault streams.
pub fn flow_fault_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0xFA17).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let serve = |seed| (0..64).map(|i| serve_job(seed, i)).collect::<Vec<_>>();
        assert_eq!(serve(3), serve(3));
        assert_ne!(serve(3), serve(4));
        let dse = |seed| dse_batch(&mut Rng::new(seed), 50);
        assert_eq!(dse(3), dse(3));
        assert_ne!(dse(3), dse(4));
        assert_eq!(flow_operands(3), flow_operands(3));
        assert_ne!(flow_operands(3), flow_operands(4));
        assert_eq!(flow_fault_seed(3), flow_fault_seed(3));
    }

    #[test]
    fn generated_inputs_stay_in_their_declared_ranges() {
        let polybench = (0..4000)
            .map(|i| serve_job(5, i))
            .filter(|j| matches!(j.workload, WorkloadSpec::Polybench { .. }))
            .count();
        assert!(
            (400..600).contains(&polybench),
            "about one in eight: {polybench}"
        );

        let dse = dse_batch(&mut Rng::new(2), 800);
        let scaled_out = dse.iter().filter(|j| j.cluster.is_some()).count();
        assert!(
            (60..140).contains(&scaled_out),
            "about one in eight: {scaled_out}"
        );
        for job in dse {
            let WorkloadSpec::MatMul { m, k, n } = job.workload else {
                panic!("design-space jobs are MatMul");
            };
            assert!((64..=8192).contains(&m) && m % 64 == 0);
            assert!((128..=320).contains(&k) && (64..=192).contains(&n));
        }
        let ops = flow_operands(1);
        assert_eq!(
            (ops.a.len(), ops.b.len()),
            (FLOW_M * FLOW_K, FLOW_K * FLOW_N)
        );
    }

    #[test]
    fn draws_are_in_range() {
        let mut rng = Rng::new(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
