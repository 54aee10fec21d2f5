//! The w-bit scalar multiplier: AND partial products + adder tree
//! (paper Figure 8).
//!
//! A scalar multiplication `A * B` proceeds in three steps: duplicate `A`
//! once per bit of `B` (done by the [`crate::duplicator`]), AND each replica
//! with one bit of `B` to form partial products, and sum the shifted partial
//! products with the adder tree. This module implements steps two and three;
//! the processor pipeline in `rm-proc` wires the duplicator in front.

use crate::adder_tree::AdderTree;
use crate::cost::GateTally;
use crate::gate::{and, and_words, and_words_group};
use rm_core::wide::transpose64;
use serde::{Deserialize, Serialize};

/// Transposes up to 64 lane values into `width` bit planes: plane `i`, bit
/// `l` = bit `i` of `values[l]`. Values are masked to `width` bits.
pub fn transpose_to_planes(values: &[u64], width: u32) -> Vec<u64> {
    assert!(values.len() <= 64, "at most 64 lanes per plane word");
    let mut planes = vec![0u64; width as usize];
    for (l, &v) in values.iter().enumerate() {
        for (i, plane) in planes.iter_mut().enumerate() {
            *plane |= ((v >> i) & 1) << l;
        }
    }
    planes
}

/// Inverse of [`transpose_to_planes`]: gathers `lanes` values back out of
/// bit planes.
pub fn planes_to_values(planes: &[u64], lanes: usize) -> Vec<u64> {
    assert!(lanes <= 64, "at most 64 lanes per plane word");
    (0..lanes)
        .map(|l| {
            planes
                .iter()
                .enumerate()
                .fold(0u64, |v, (i, &plane)| v | (((plane >> l) & 1) << i))
        })
        .collect()
}

/// A multiplier for `width`-bit operands producing `2*width`-bit products.
///
/// ```
/// use dw_logic::{GateTally, Multiplier};
///
/// let m = Multiplier::new(8);
/// let mut tally = GateTally::new();
/// assert_eq!(m.multiply(0xFF, 0xFF, &mut tally), 0xFE01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Multiplier {
    width: u32,
    tree: AdderTree,
}

impl Multiplier {
    /// Creates a multiplier for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=31` (the product needs `2*width`
    /// bits, staged in `u64` through the adder tree).
    pub fn new(width: u32) -> Self {
        assert!((1..=31).contains(&width), "width must be in 1..=31");
        Multiplier {
            width,
            tree: AdderTree::new(2 * width),
        }
    }

    /// Operand width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Product width in bits (`2 * width`).
    #[inline]
    pub fn product_width(&self) -> u32 {
        2 * self.width
    }

    /// Forms the `width` partial products of `a * b` from replicas of `a`
    /// (one AND per product bit), already shifted into position.
    ///
    /// `replicas` must contain at least `width` copies of `a`; in the real
    /// pipeline these come from the duplicator bank.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` replicas are supplied.
    pub fn partial_products(&self, replicas: &[u64], b: u64, tally: &mut GateTally) -> Vec<u64> {
        assert!(
            replicas.len() >= self.width as usize,
            "need {} replicas, got {}",
            self.width,
            replicas.len()
        );
        let mask = (1u64 << self.width) - 1;
        (0..self.width)
            .map(|i| {
                let a = replicas[i as usize] & mask;
                let bit = (b >> i) & 1 == 1;
                // One AND gate per bit of the replica.
                let mut pp = 0u64;
                for j in 0..self.width {
                    let abit = (a >> j) & 1 == 1;
                    if and(abit, bit, tally) {
                        pp |= 1 << j;
                    }
                }
                pp << i
            })
            .collect()
    }

    /// Multiplies `a * b` (operands masked to `width` bits), tallying every
    /// gate traversal, and returns the exact `2*width`-bit product.
    pub fn multiply(&self, a: u64, b: u64, tally: &mut GateTally) -> u64 {
        let mask = (1u64 << self.width) - 1;
        let a = a & mask;
        let replicas = vec![a; self.width as usize];
        let pps = self.partial_products(&replicas, b & mask, tally);
        self.tree.sum(&pps, tally)
    }

    /// Latency in cycles of the combinational part (partial products are one
    /// gate traversal; the tree dominates).
    pub fn latency_cycles(&self) -> u64 {
        1 + self.tree.latency_cycles(self.width as usize)
    }

    /// Multiplies many independent `a[i] * b[i]` pairs with word-parallel
    /// gate lanes: operands are transposed to bit planes, the `width²` AND
    /// partial-product gates and the adder tree evaluate 64 lanes per word
    /// op, and the products are transposed back. Results and gate tallies
    /// are identical to calling [`Self::multiply`] once per pair.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn multiply_many(&self, a: &[u64], b: &[u64], tally: &mut GateTally) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len());
        self.multiply_many_into(a, b, tally, &mut out, &mut Vec::new());
        out
    }

    /// [`Self::multiply_many`] into caller-provided buffers: products are
    /// appended to `out`, and `planes` holds the bit planes of one
    /// word-group (grown on first use, then reused). A caller that keeps
    /// both across calls multiplies without allocating. Results and tallies
    /// are identical to [`Self::multiply_many`].
    ///
    /// This is the wide path: operands are chunked into word-groups of up
    /// to [`rm_core::wide::GROUP_LANES`] lanes, transposed 64 lanes at a
    /// time with the word-level [`rm_core::wide::transpose64`], and the
    /// `width²` AND partial-product gates plus the adder tree evaluate whole
    /// word-groups per op via the `*_words_group` gate kernels. Gate tallies
    /// are per-lane additive and lanes never interact, so one call over
    /// many lanes equals separate calls over any split of them. The
    /// single-word path is retained as [`Self::multiply_many_words_into`];
    /// differential tests prove both bit-identical in results and tallies.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn multiply_many_into(
        &self,
        a: &[u64],
        b: &[u64],
        tally: &mut GateTally,
        out: &mut Vec<u64>,
        planes: &mut Vec<u64>,
    ) {
        assert_eq!(a.len(), b.len(), "operand vectors must pair up");
        let w = self.width as usize;
        let pw = 2 * w;
        let mask = (1u64 << self.width) - 1;
        out.reserve(a.len());
        let mut buf = [0u64; 64];
        for (ca, cb) in a
            .chunks(rm_core::wide::GROUP_LANES)
            .zip(b.chunks(rm_core::wide::GROUP_LANES))
        {
            let lanes = ca.len();
            let lanes_u64 = lanes as u64;
            let g = lanes.div_ceil(64);
            // One flat buffer: the `w` partial products (`pw` planes each)
            // first, then the operand planes. Plane i of word column wi
            // lives at `i * g + wi` within its operand.
            planes.clear();
            planes.resize(w * pw * g + 2 * w * g, 0);
            let (pps, operand_planes) = planes.split_at_mut(w * pw * g);
            let (a_planes, b_planes) = operand_planes.split_at_mut(w * g);
            for (operand, op_planes) in [(ca, &mut *a_planes), (cb, &mut *b_planes)] {
                for (wi, sub) in operand.chunks(64).enumerate() {
                    buf.fill(0);
                    for (l, &v) in sub.iter().enumerate() {
                        buf[l] = v & mask;
                    }
                    transpose64(&mut buf);
                    for (i, chunk) in op_planes.chunks_mut(g).enumerate() {
                        chunk[wi] = buf[i];
                    }
                }
            }
            // Partial product i = (a AND b_i) << i in plane-group form: its
            // plane i+j is the AND of a's plane j with bit i of b, evaluated
            // over the whole word-group at once.
            for (i, pp) in pps.chunks_mut(pw * g).enumerate() {
                for j in 0..w {
                    and_words_group(
                        &a_planes[j * g..(j + 1) * g],
                        &b_planes[i * g..(i + 1) * g],
                        &mut pp[(i + j) * g..(i + j + 1) * g],
                        lanes_u64,
                        tally,
                    );
                }
            }
            self.tree.sum_planes_group(pps, g, lanes_u64, tally);
            // Back-transpose each word column and gather the live lanes.
            for wi in 0..g {
                buf.fill(0);
                for j in 0..pw {
                    buf[j] = pps[j * g + wi];
                }
                transpose64(&mut buf);
                let sub_lanes = (lanes - wi * 64).min(64);
                out.extend_from_slice(&buf[..sub_lanes]);
            }
        }
    }

    /// The retained single-word path of [`Self::multiply_many_into`]:
    /// transposes per 64-lane chunk with the scalar gather and evaluates one
    /// lane-word per gate op. Kept as the differential reference (and bench
    /// comparison point) for the wide path.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn multiply_many_words_into(
        &self,
        a: &[u64],
        b: &[u64],
        tally: &mut GateTally,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(a.len(), b.len(), "operand vectors must pair up");
        let w = self.width as usize;
        let pw = 2 * w;
        out.reserve(a.len());
        for (ca, cb) in a.chunks(64).zip(b.chunks(64)) {
            let lanes = ca.len() as u32;
            let a_planes = transpose_to_planes(ca, self.width);
            let b_planes = transpose_to_planes(cb, self.width);
            // Partial product i = (a AND b_i) << i, expressed directly in
            // plane form: its plane i+j is the AND of a's plane j with bit i
            // of b across all lanes.
            let pps: Vec<Vec<u64>> = (0..w)
                .map(|i| {
                    let mut planes = vec![0u64; pw];
                    for j in 0..w {
                        planes[i + j] = and_words(a_planes[j], b_planes[i], lanes, tally);
                    }
                    planes
                })
                .collect();
            let product_planes = self.tree.sum_planes(&pps, lanes, tally);
            out.extend(planes_to_values(&product_planes, ca.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_4bit() {
        let m = Multiplier::new(4);
        let mut t = GateTally::new();
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(m.multiply(a, b, &mut t), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn sampled_8bit() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        for a in (0u64..256).step_by(5) {
            for b in (0u64..256).step_by(7) {
                assert_eq!(m.multiply(a, b, &mut t), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn masks_operands_to_width() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        assert_eq!(m.multiply(0x1FF, 2, &mut t), 0xFF * 2);
    }

    #[test]
    fn partial_products_are_shifted_ands() {
        let m = Multiplier::new(4);
        let mut t = GateTally::new();
        let pps = m.partial_products(&[0b1011; 4], 0b0101, &mut t);
        assert_eq!(pps, vec![0b1011, 0, 0b1011 << 2, 0]);
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn partial_products_need_enough_replicas() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        let _ = m.partial_products(&[1; 3], 1, &mut t);
    }

    #[test]
    fn gate_cost_is_quadratic_in_width() {
        let mut t4 = GateTally::new();
        Multiplier::new(4).multiply(5, 5, &mut t4);
        let mut t8 = GateTally::new();
        Multiplier::new(8).multiply(5, 5, &mut t8);
        // AND gates: width^2 ANDs = width^2 NAND+NOT pairs.
        assert_eq!(t4.nand - count_tree_nands(4), 16);
        assert_eq!(t8.nand - count_tree_nands(8), 64);
        assert!(t8.total() > t4.total());
    }

    fn count_tree_nands(width: u64) -> u64 {
        // The tree performs (width - 1) adds of 2*width bits, 9 NANDs per bit.
        (width - 1) * 2 * width * 9
    }

    #[test]
    fn multiply_many_matches_scalar_multiply_and_tally() {
        let m = Multiplier::new(8);
        // More than one 64-lane chunk to exercise the chunking.
        let a: Vec<u64> = (0..100).map(|i| (i * 37) % 256).collect();
        let b: Vec<u64> = (0..100).map(|i| (i * 91 + 13) % 256).collect();
        let mut tw = GateTally::new();
        let products = m.multiply_many(&a, &b, &mut tw);
        let mut ts = GateTally::new();
        for i in 0..a.len() {
            assert_eq!(products[i], m.multiply(a[i], b[i], &mut ts), "pair {i}");
            assert_eq!(products[i], a[i] * b[i], "pair {i} exact");
        }
        assert_eq!(tw, ts);
    }

    #[test]
    fn multiply_many_wide_matches_word_path_and_tally() {
        let m = Multiplier::new(8);
        // Cross a group boundary (512 lanes) and leave a ragged tail.
        for n in [1usize, 63, 64, 65, 511, 512, 700] {
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 256).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| (i * 91 + 13) % 256).collect();
            let mut tg = GateTally::new();
            let mut wide = Vec::new();
            m.multiply_many_into(&a, &b, &mut tg, &mut wide, &mut Vec::new());
            let mut tw = GateTally::new();
            let mut word = Vec::new();
            m.multiply_many_words_into(&a, &b, &mut tw, &mut word);
            assert_eq!(wide, word, "products at {n} lanes");
            assert_eq!(tg, tw, "tally at {n} lanes");
        }
    }

    #[test]
    fn multiply_many_empty_is_empty() {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        assert!(m.multiply_many(&[], &[], &mut t).is_empty());
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn transpose_round_trips() {
        let values: Vec<u64> = (0..64).map(|i| i * 3 % 256).collect();
        let planes = transpose_to_planes(&values, 8);
        assert_eq!(planes.len(), 8);
        assert_eq!(planes_to_values(&planes, 64), values);
        // Masking to width applies on the way in.
        let planes = transpose_to_planes(&[0x1FF], 8);
        assert_eq!(planes_to_values(&planes, 1), vec![0xFF]);
    }

    #[test]
    fn latency_grows_with_width() {
        assert!(Multiplier::new(8).latency_cycles() > Multiplier::new(4).latency_cycles());
        assert_eq!(Multiplier::new(8).product_width(), 16);
    }
}
