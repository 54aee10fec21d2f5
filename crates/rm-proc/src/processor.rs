//! Bit-accurate functional datapath of the RM processor.
//!
//! Wires the `dw-logic` structures together exactly as Figure 11 describes:
//! duplicator bank → multiplier (partial products) → adder tree → circle
//! adder. Every gate traversal is tallied, so small-scale runs double as
//! energy ground truth for the closed-form model.

use crate::op::ProcOp;
use crate::pipeline::PipelineModel;
use dw_logic::adder_tree::AdderTree;
use dw_logic::circle_adder::CircleAdder;
use dw_logic::cost::GateTally;
use dw_logic::duplicator::DuplicatorBank;
use dw_logic::multiplier::Multiplier;

/// Caller-provided scratch for the processor's vector hot paths.
///
/// Holds the intermediate product stream, the multiplier's bit planes and
/// the per-dot results of [`RmProcessor::dot_batch_probed_with`], so a
/// caller looping over many rows (or a shard of a parallel run) reuses its
/// buffers instead of allocating per call. The buffers start empty and grow
/// on first use. Scratch lives *outside* the processor on purpose:
/// differential tests compare whole processors with `==`, and transient
/// buffers must not participate in that state.
#[derive(Debug, Clone, Default)]
pub struct ProcScratch {
    products: Vec<u64>,
    planes: Vec<u64>,
    results: Vec<u64>,
}

impl ProcScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        ProcScratch::default()
    }

    /// The results of the last batched dot, one per dot in order.
    pub fn results(&self) -> &[u64] {
        &self.results
    }
}

/// A functional RM processor for `width`-bit elements.
///
/// The accumulator is 64-bit (wrapping), comfortably holding dot products of
/// any realistic vector length of `width ≤ 16` elements.
///
/// ```
/// use rm_proc::RmProcessor;
///
/// let mut proc = RmProcessor::new(8, 2);
/// let (result, tally) = proc.dot(&[1, 2, 3], &[4, 5, 6]);
/// assert_eq!(result, 32);
/// assert!(tally.total() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RmProcessor {
    width: u32,
    duplicators: DuplicatorBank,
    multiplier: Multiplier,
    product_tree: AdderTree,
    circle: CircleAdder,
    ops_executed: u64,
}

impl RmProcessor {
    /// Creates a processor for `width`-bit elements with `duplicators`
    /// duplicator units.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=16` or `duplicators` is zero.
    pub fn new(width: u32, duplicators: u32) -> Self {
        assert!(
            (1..=16).contains(&width),
            "functional processor supports widths 1..=16"
        );
        RmProcessor {
            width,
            duplicators: DuplicatorBank::new(duplicators, width),
            multiplier: Multiplier::new(width),
            product_tree: AdderTree::new(2 * width),
            circle: CircleAdder::new(63),
            ops_executed: 0,
        }
    }

    /// Element width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Vector operations executed so far.
    #[inline]
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// One scalar multiplication through stages 1-3, returning the exact
    /// `2*width`-bit product.
    pub fn scalar_mul(&mut self, a: u64, b: u64, tally: &mut GateTally) -> u64 {
        // Stage 2a: the duplicator bank replicates `a` once per bit of `b`.
        let (replicas, _cycles) = self.duplicators.replicate(a, self.width as usize, tally);
        // Stage 2b: AND replicas against the bits of `b`.
        let pps = self
            .multiplier
            .partial_products(&replicas, b & self.mask(), tally);
        // Stage 3: the adder tree sums the partial products.
        self.product_tree.sum(&pps, tally)
    }

    /// Dot product of two element slices (values masked to `width` bits).
    ///
    /// Runs the wide word-group datapath: the duplicator bank accounts all
    /// replications in bulk, the multiplier evaluates up to
    /// [`rm_core::wide::GROUP_LANES`] scalar products per plane-group gate
    /// op, and the circle adder accumulates the product stream in one pass.
    /// Results, gate tallies, and unit state are identical to
    /// [`Self::dot_words`] and [`Self::dot_scalar`].
    ///
    /// Returns the result and the accumulated gate tally.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&mut self, a: &[u64], b: &[u64]) -> (u64, GateTally) {
        self.dot_probed(a, b, &rm_core::NullProbe, "proc")
    }

    /// [`Self::dot`] with per-stage attribution: the gate-op delta of each
    /// pipeline stage is recorded on `probe` under `{prefix}/duplicator`
    /// (stage 2a), `{prefix}/multiplier` (stages 2b-3: partial products and
    /// the product adder tree, whose tallies are fused in the word path) and
    /// `{prefix}/adder_tree` (stage 4: the circle-adder accumulation).
    /// Result, tally, and unit state are identical to the unprobed call.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_probed(
        &mut self,
        a: &[u64],
        b: &[u64],
        probe: &dyn rm_core::Probe,
        prefix: &str,
    ) -> (u64, GateTally) {
        self.dot_probed_with(a, b, probe, prefix, &mut ProcScratch::new())
    }

    /// [`Self::dot`] with caller-provided scratch: the intermediate product
    /// stream lands in `scratch` instead of a fresh allocation, so per-row
    /// callers (and allocation-free shards) reuse one buffer. Result, tally,
    /// and unit state are identical to [`Self::dot`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_with(
        &mut self,
        a: &[u64],
        b: &[u64],
        scratch: &mut ProcScratch,
    ) -> (u64, GateTally) {
        self.dot_probed_with(a, b, &rm_core::NullProbe, "proc", scratch)
    }

    /// [`Self::dot_probed`] with caller-provided scratch (see
    /// [`Self::dot_with`]): the one-dot case of
    /// [`Self::dot_batch_probed_with`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_probed_with(
        &mut self,
        a: &[u64],
        b: &[u64],
        probe: &dyn rm_core::Probe,
        prefix: &str,
        scratch: &mut ProcScratch,
    ) -> (u64, GateTally) {
        let tally = self.dot_batch_probed_with(a, b, 1, probe, prefix, scratch);
        (scratch.results[0], tally)
    }

    /// `dots` dot products in one pass through the datapath. `a` and `b`
    /// each hold `dots` equal segments back to back; segment `d` of `a`
    /// pairs with segment `d` of `b`. Every product of every dot goes
    /// through the multiplier in one call, so its word-groups fill up
    /// instead of carrying one short segment each. The duplicator bank and
    /// the circle adder then run dot by dot: reset, replicate, accumulate
    /// the segment's products, yield the result. The results land in
    /// [`ProcScratch::results`] in dot order.
    ///
    /// Results, the returned tally (the sum over all dots) and unit state
    /// are identical to `dots` separate [`Self::dot_probed`] calls, and so
    /// is the probe record sequence: three stage records per dot, in dot
    /// order. This holds because the gate tallies are per-lane additive
    /// and data independent, and lanes never interact, so each dot's share
    /// of the multiplier tally is exactly `1/dots` of the batch's.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths, `dots` is zero, or the
    /// length is not a multiple of `dots`.
    pub fn dot_batch_probed_with(
        &mut self,
        a: &[u64],
        b: &[u64],
        dots: usize,
        probe: &dyn rm_core::Probe,
        prefix: &str,
        scratch: &mut ProcScratch,
    ) -> GateTally {
        assert_eq!(a.len(), b.len(), "dot product needs equal-length vectors");
        assert!(
            dots > 0 && a.len().is_multiple_of(dots),
            "a batch of {dots} dots needs equal segments, got {} elements",
            a.len()
        );
        let segment = a.len() / dots;
        // Stages 2b-3 for every dot at once: plane-form partial products and
        // adder tree, up to a full word-group per gate op. Operands are
        // masked inside the transpose.
        let mut tally = GateTally::new();
        scratch.products.clear();
        self.multiplier.multiply_many_into(
            a,
            b,
            &mut tally,
            &mut scratch.products,
            &mut scratch.planes,
        );
        let multiplier_per_dot = tally.total() / dots as u64;
        scratch.results.clear();
        for products in (0..dots).map(|d| &scratch.products[d * segment..(d + 1) * segment]) {
            let mut dot = GateTally::new();
            self.circle.reset();
            // Stage 2a: one replicate call per element, accounted in bulk.
            self.duplicators
                .replicate_bulk(self.width as usize, segment as u64, &mut dot);
            let duplicator = dot.total();
            // Stage 4: the circle adder accumulates the product stream.
            self.circle.accumulate_many(products, &mut dot);
            self.ops_executed += 1;
            if probe.enabled() {
                record_stage(probe, prefix, "duplicator", duplicator);
                record_stage(probe, prefix, "multiplier", multiplier_per_dot);
                record_stage(probe, prefix, "adder_tree", dot.total() - duplicator);
            }
            scratch.results.push(self.circle.take_result());
            tally += dot;
        }
        tally
    }

    /// Single-word reference datapath for [`Self::dot`]: same bulk staging,
    /// but the multiplier evaluates one 64-lane word per gate op
    /// ([`Multiplier::multiply_many_words_into`]) instead of a wide
    /// word-group. Retained for differential tests and as the bench
    /// comparison point for the wide path; must match [`Self::dot`]
    /// bit-for-bit in result, tally, and unit state.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_words(&mut self, a: &[u64], b: &[u64]) -> (u64, GateTally) {
        assert_eq!(a.len(), b.len(), "dot product needs equal-length vectors");
        let mut tally = GateTally::new();
        self.circle.reset();
        self.duplicators
            .replicate_bulk(self.width as usize, a.len() as u64, &mut tally);
        let mut products = Vec::new();
        self.multiplier
            .multiply_many_words_into(a, b, &mut tally, &mut products);
        self.circle.accumulate_many(&products, &mut tally);
        self.ops_executed += 1;
        (self.circle.take_result(), tally)
    }

    /// Serial reference datapath for [`Self::dot`]: one element at a time
    /// through duplicators → multiplier → tree → circle adder. Retained for
    /// differential tests; the word and wide paths must match it bit-for-bit
    /// in result, tally, and unit state.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_scalar(&mut self, a: &[u64], b: &[u64]) -> (u64, GateTally) {
        assert_eq!(a.len(), b.len(), "dot product needs equal-length vectors");
        let mut tally = GateTally::new();
        self.circle.reset();
        for (&x, &y) in a.iter().zip(b) {
            let product = self.scalar_mul(x & self.mask(), y & self.mask(), &mut tally);
            // Stage 4: the circle adder accumulates.
            self.circle.accumulate(product, &mut tally);
        }
        self.ops_executed += 1;
        (self.circle.take_result(), tally)
    }

    /// Element-wise vector addition (stages 1-3 bypassed; circle adder in
    /// scalar mode). Sums wrap at `width + 1` bits — the carry-out travels
    /// with the result, as in the ripple adder.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn vadd(&mut self, a: &[u64], b: &[u64]) -> (Vec<u64>, GateTally) {
        self.vadd_probed(a, b, &rm_core::NullProbe, "proc")
    }

    /// [`Self::vadd`] with attribution: every gate op lands on
    /// `{prefix}/adder_tree` (the addition path uses the circle adder in
    /// scalar mode only). Behaviour is identical to the unprobed call.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn vadd_probed(
        &mut self,
        a: &[u64],
        b: &[u64],
        probe: &dyn rm_core::Probe,
        prefix: &str,
    ) -> (Vec<u64>, GateTally) {
        assert_eq!(
            a.len(),
            b.len(),
            "vector addition needs equal-length vectors"
        );
        let mut tally = GateTally::new();
        let av: Vec<u64> = a.iter().map(|&x| x & self.mask()).collect();
        let bv: Vec<u64> = b.iter().map(|&y| y & self.mask()).collect();
        let out = self
            .circle
            .scalar_add_many(&av, &bv, &mut tally)
            .into_iter()
            .map(|(sum, carry)| sum | ((carry as u64) << self.width))
            .collect();
        self.ops_executed += 1;
        if probe.enabled() {
            record_stage(probe, prefix, "adder_tree", tally.total());
        }
        (out, tally)
    }

    /// Serial reference for [`Self::vadd`], retained for differential tests.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn vadd_scalar(&mut self, a: &[u64], b: &[u64]) -> (Vec<u64>, GateTally) {
        assert_eq!(
            a.len(),
            b.len(),
            "vector addition needs equal-length vectors"
        );
        let mut tally = GateTally::new();
        let out = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let (sum, carry) =
                    self.circle
                        .scalar_add(x & self.mask(), y & self.mask(), &mut tally);
                sum | ((carry as u64) << self.width)
            })
            .collect();
        self.ops_executed += 1;
        (out, tally)
    }

    /// Scalar-vector multiplication: duplicates `s` repeatedly and pipelines
    /// scalar multiplications (circle adder bypassed). Word-parallel like
    /// [`Self::dot`]; [`Self::svmul_scalar`] is the serial reference.
    pub fn svmul(&mut self, s: u64, v: &[u64]) -> (Vec<u64>, GateTally) {
        self.svmul_probed(s, v, &rm_core::NullProbe, "proc")
    }

    /// [`Self::svmul`] with attribution: stage gate-op deltas land on
    /// `{prefix}/duplicator` and `{prefix}/multiplier` (the circle adder is
    /// bypassed). Behaviour is identical to the unprobed call.
    pub fn svmul_probed(
        &mut self,
        s: u64,
        v: &[u64],
        probe: &dyn rm_core::Probe,
        prefix: &str,
    ) -> (Vec<u64>, GateTally) {
        let mut tally = GateTally::new();
        self.duplicators
            .replicate_bulk(self.width as usize, v.len() as u64, &mut tally);
        let after_dup = tally.total();
        let sv = vec![s; v.len()];
        let out = self.multiplier.multiply_many(&sv, v, &mut tally);
        self.ops_executed += 1;
        if probe.enabled() {
            record_stage(probe, prefix, "duplicator", after_dup);
            record_stage(probe, prefix, "multiplier", tally.total() - after_dup);
        }
        (out, tally)
    }

    /// Serial reference for [`Self::svmul`], retained for differential tests.
    pub fn svmul_scalar(&mut self, s: u64, v: &[u64]) -> (Vec<u64>, GateTally) {
        let mut tally = GateTally::new();
        let out = v
            .iter()
            .map(|&x| self.scalar_mul(s, x, &mut tally))
            .collect();
        self.ops_executed += 1;
        (out, tally)
    }

    /// The pipeline cost model matching this processor's configuration,
    /// given the row width (save tracks per mat).
    pub fn pipeline_model(&self, save_tracks: u32) -> PipelineModel {
        PipelineModel::new(self.width, self.duplicators.count() as u32, save_tracks)
    }

    /// Cost of `op` under this processor's pipeline model (convenience).
    pub fn cost(&self, op: ProcOp, save_tracks: u32) -> crate::op::ProcCost {
        self.pipeline_model(save_tracks).cost(op)
    }

    fn mask(&self) -> u64 {
        (1u64 << self.width) - 1
    }
}

/// Records a pipeline stage's gate-op delta under `{prefix}/{stage}`.
fn record_stage(probe: &dyn rm_core::Probe, prefix: &str, stage: &str, gate_ops: u64) {
    probe.record(
        &format!("{prefix}/{stage}"),
        rm_core::ProbeSample::ops(rm_core::OpCounters {
            gate_ops,
            ..rm_core::OpCounters::default()
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_mul_matches_host() {
        let mut p = RmProcessor::new(8, 2);
        let mut t = GateTally::new();
        for (a, b) in [(0, 0), (1, 1), (255, 255), (17, 13), (128, 2)] {
            assert_eq!(p.scalar_mul(a, b, &mut t), a * b);
        }
    }

    #[test]
    fn dot_matches_host() {
        let mut p = RmProcessor::new(8, 2);
        let a = [1u64, 2, 3, 4, 5];
        let b = [10u64, 20, 30, 40, 50];
        let (r, tally) = p.dot(&a, &b);
        assert_eq!(r, 550);
        assert!(tally.fanout > 0, "duplications happened");
        assert!(tally.nand > 0, "adders ran");
        assert_eq!(p.ops_executed(), 1);
    }

    #[test]
    fn probed_stages_partition_the_gate_tally() {
        use rm_core::{Probe, ProbeSample};
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        #[derive(Debug, Default)]
        struct MapProbe(Mutex<BTreeMap<String, u64>>);
        impl Probe for MapProbe {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, path: &str, sample: ProbeSample) {
                *self.0.lock().unwrap().entry(path.to_string()).or_default() += sample.ops.gate_ops;
            }
        }

        let a = [1u64, 2, 3, 4, 5];
        let b = [10u64, 20, 30, 40, 50];
        let probe = MapProbe::default();
        let mut probed = RmProcessor::new(8, 2);
        let (r, tally) = probed.dot_probed(&a, &b, &probe, "proc");
        let mut plain = RmProcessor::new(8, 2);
        assert_eq!(
            (r, tally),
            plain.dot(&a, &b),
            "probing must not change results"
        );
        assert_eq!(probed, plain, "probing must not change unit state");
        {
            let map = probe.0.lock().unwrap();
            assert_eq!(
                map.keys().collect::<Vec<_>>(),
                ["proc/adder_tree", "proc/duplicator", "proc/multiplier"]
            );
            assert_eq!(map.values().sum::<u64>(), tally.total());
            assert!(map.values().all(|&v| v > 0));
        }

        let (_, vt) = probed.vadd_probed(&[3, 4], &[5, 6], &probe, "proc");
        let (_, st) = probed.svmul_probed(7, &[1, 2, 3], &probe, "proc");
        let map = probe.0.lock().unwrap();
        assert_eq!(
            map.values().sum::<u64>(),
            tally.total() + vt.total() + st.total()
        );
    }

    #[test]
    fn dot_masks_oversized_elements() {
        let mut p = RmProcessor::new(8, 2);
        let (r, _) = p.dot(&[0x1FF], &[2]);
        assert_eq!(r, 0xFF * 2);
    }

    #[test]
    fn vadd_matches_host_with_carry() {
        let mut p = RmProcessor::new(8, 2);
        let (out, _) = p.vadd(&[200, 1], &[100, 2]);
        assert_eq!(out, vec![300, 3]);
    }

    #[test]
    fn svmul_matches_host() {
        let mut p = RmProcessor::new(8, 1);
        let (out, _) = p.svmul(7, &[0, 1, 2, 36]);
        assert_eq!(out, vec![0, 7, 14, 252]);
    }

    #[test]
    fn empty_vectors_are_fine() {
        let mut p = RmProcessor::new(8, 2);
        let (r, tally) = p.dot(&[], &[]);
        assert_eq!(r, 0);
        assert_eq!(tally.total(), 0);
        let (out, _) = p.vadd(&[], &[]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn dot_length_mismatch_panics() {
        let mut p = RmProcessor::new(8, 2);
        let _ = p.dot(&[1], &[1, 2]);
    }

    #[test]
    fn sixteen_bit_width_works() {
        let mut p = RmProcessor::new(16, 2);
        let (r, _) = p.dot(&[60_000, 2], &[60_000, 3]);
        assert_eq!(r, 60_000u64 * 60_000 + 6);
    }

    #[test]
    fn gate_energy_consistency_dot_vs_components() {
        // A 1-element dot product tallies exactly one scalar_mul plus one
        // circle accumulation.
        let mut p1 = RmProcessor::new(8, 2);
        let (_, t_dot) = p1.dot(&[123], &[45]);
        let mut p2 = RmProcessor::new(8, 2);
        let mut t_parts = GateTally::new();
        let product = p2.scalar_mul(123, 45, &mut t_parts);
        let mut circle = CircleAdder::new(63);
        circle.accumulate(product, &mut t_parts);
        assert_eq!(t_dot, t_parts);
    }

    #[test]
    fn dot_with_reuses_scratch_and_matches_dot() {
        let a: Vec<u64> = (0..130).map(|i| i * 11 % 256).collect();
        let b: Vec<u64> = (0..130).map(|i| i * 5 + 2).collect();
        let mut with = RmProcessor::new(8, 2);
        let mut plain = RmProcessor::new(8, 2);
        let mut scratch = ProcScratch::new();
        for _ in 0..3 {
            let (rw, tw) = with.dot_with(&a, &b, &mut scratch);
            let (rp, tp) = plain.dot(&a, &b);
            assert_eq!((rw, tw), (rp, tp));
        }
        assert_eq!(with, plain, "scratch must stay out of processor state");
    }

    #[test]
    fn batched_dots_match_separate_dots_in_results_state_tally_and_probe() {
        // 32 dots of 32 elements fill two 512-lane word-groups; 3 dots of
        // 7 leave a ragged single group.
        for (dots, segment) in [(32usize, 32usize), (3, 7), (1, 0)] {
            let a: Vec<u64> = (0..dots * segment).map(|i| (i * 37 % 256) as u64).collect();
            let b: Vec<u64> = (0..dots * segment).map(|i| (i * 91 + 13) as u64).collect();
            let batch_probe = rm_core::BufferProbe::new();
            let mut batched = RmProcessor::new(8, 2);
            let mut scratch = ProcScratch::new();
            let tally =
                batched.dot_batch_probed_with(&a, &b, dots, &batch_probe, "p", &mut scratch);
            let split_probe = rm_core::BufferProbe::new();
            let mut split = RmProcessor::new(8, 2);
            let mut split_tally = GateTally::new();
            let mut results = Vec::new();
            for d in 0..dots {
                let span = d * segment..(d + 1) * segment;
                let (r, t) = split.dot_probed(&a[span.clone()], &b[span], &split_probe, "p");
                results.push(r);
                split_tally += t;
            }
            assert_eq!(scratch.results(), results, "{dots}x{segment} results");
            assert_eq!(tally, split_tally, "{dots}x{segment} tally");
            assert_eq!(batched, split, "{dots}x{segment} unit state");
            assert_eq!(
                batch_probe.take(),
                split_probe.take(),
                "{dots}x{segment} probe"
            );
        }
    }

    #[test]
    fn word_dot_matches_scalar_dot_state_and_tally() {
        let a: Vec<u64> = (0..150).map(|i| i * 37 % 256).collect();
        let b: Vec<u64> = (0..150).map(|i| i * 91 + 13).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rw, tw) = pw.dot(&a, &b);
        let (rs, ts) = ps.dot_scalar(&a, &b);
        assert_eq!(rw, rs);
        assert_eq!(tw, ts);
        assert_eq!(pw, ps, "all duplicator/circle/diode state must match");
    }

    #[test]
    fn wide_dot_matches_word_dot_state_and_tally() {
        // Cross the 512-lane group boundary with a ragged tail.
        let a: Vec<u64> = (0..600).map(|i| i * 37 % 256).collect();
        let b: Vec<u64> = (0..600).map(|i| i * 91 + 13).collect();
        let mut pg = RmProcessor::new(8, 2);
        let mut pw = RmProcessor::new(8, 2);
        let (rg, tg) = pg.dot(&a, &b);
        let (rw, tw) = pw.dot_words(&a, &b);
        assert_eq!(rg, rw);
        assert_eq!(tg, tw);
        assert_eq!(pg, pw, "all duplicator/circle/diode state must match");
    }

    #[test]
    fn word_vadd_matches_scalar_vadd_state_and_tally() {
        let a: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..100).map(|i| 255 - i).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rw, tw) = pw.vadd(&a, &b);
        let (rs, ts) = ps.vadd_scalar(&a, &b);
        assert_eq!(rw, rs);
        assert_eq!(tw, ts);
        assert_eq!(pw, ps);
    }

    #[test]
    fn word_svmul_matches_scalar_svmul_state_and_tally() {
        let v: Vec<u64> = (0..100).map(|i| i * 7 % 256).collect();
        let mut pw = RmProcessor::new(8, 2);
        let mut ps = RmProcessor::new(8, 2);
        let (rw, tw) = pw.svmul(0xAB, &v);
        let (rs, ts) = ps.svmul_scalar(0xAB, &v);
        assert_eq!(rw, rs);
        assert_eq!(tw, ts);
        assert_eq!(pw, ps);
    }

    #[test]
    fn cost_model_accessible() {
        let p = RmProcessor::new(8, 2);
        let model = p.pipeline_model(512);
        assert_eq!(model.lanes, 64);
        let c = p.cost(ProcOp::VectorAdd { n: 64 }, 512);
        assert!(c.cycles > 0);
    }
}
