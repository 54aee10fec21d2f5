//! Multi-operand adder tree for summing partial products (paper §III-C).

use crate::adder::RippleCarryAdder;
use crate::cost::GateTally;
use serde::{Deserialize, Serialize};

/// A balanced tree of ripple-carry adders summing many operands.
///
/// StreamPIM's multiplier produces `w` partial products per scalar multiply
/// and sums them with an adder tree of depth `ceil(log2(w))`; each level
/// halves the operand count. The tree operates on `width`-bit words — wide
/// enough to hold the final product (2w bits for a w-bit multiply).
///
/// ```
/// use dw_logic::{AdderTree, GateTally};
///
/// let tree = AdderTree::new(16);
/// let mut tally = GateTally::new();
/// assert_eq!(tree.sum(&[1, 2, 3, 4, 5], &mut tally), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdderTree {
    width: u32,
}

impl AdderTree {
    /// Creates a tree operating on `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=63` (see [`RippleCarryAdder::new`]).
    pub fn new(width: u32) -> Self {
        let _ = RippleCarryAdder::new(width); // validates width
        AdderTree { width }
    }

    /// Word width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Tree depth (adder levels) needed to sum `n` operands.
    pub fn depth_for(n: usize) -> u32 {
        if n <= 1 {
            0
        } else {
            usize::BITS - (n - 1).leading_zeros()
        }
    }

    /// Latency in cycles for summing `n` operands: each level costs one
    /// ripple traversal of `width` cycles.
    pub fn latency_cycles(&self, n: usize) -> u64 {
        Self::depth_for(n) as u64 * self.width as u64
    }

    /// Sums the operands modulo `2^width`, tallying every gate.
    ///
    /// Returns 0 for an empty slice.
    pub fn sum(&self, operands: &[u64], tally: &mut GateTally) -> u64 {
        let adder = RippleCarryAdder::new(self.width);
        let mask = if self.width == 63 {
            (1u64 << 63) - 1
        } else {
            (1u64 << self.width) - 1
        };
        let mut level: Vec<u64> = operands.iter().map(|&x| x & mask).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if let [a, b] = pair {
                    let (s, _carry) = adder.add(*a, *b, false, tally);
                    next.push(s);
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level.first().copied().unwrap_or(0)
    }

    /// Bit-sliced sibling of [`Self::sum`] over `lanes` independent lane
    /// sets: each operand is a vector of `width` planes (`operand[i]` holds
    /// bit `i` of every lane). The pairwise reduction and therefore the gate
    /// tallies are identical to running [`Self::sum`] once per lane.
    ///
    /// Returns `width` zero planes for an empty slice.
    ///
    /// # Panics
    ///
    /// Panics if any operand does not have exactly `width` planes.
    pub fn sum_planes(&self, operands: &[Vec<u64>], lanes: u32, tally: &mut GateTally) -> Vec<u64> {
        let width = self.width as usize;
        for op in operands {
            assert_eq!(op.len(), width, "operand plane count");
        }
        let adder = RippleCarryAdder::new(self.width);
        let mut level: Vec<Vec<u64>> = operands.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if let [a, b] = pair {
                    let (s, _carry) = adder.add_planes(a, b, 0, lanes, tally);
                    next.push(s);
                } else {
                    next.push(pair[0].clone());
                }
            }
            level = next;
        }
        level
            .into_iter()
            .next()
            .unwrap_or_else(|| vec![0u64; width])
    }

    /// Word-group sibling of [`Self::sum_planes`], reducing in place: `planes`
    /// holds the operands back to back, each `width` bit planes of
    /// `group_words` lane-words flattened plane-major, over `lanes` total
    /// lanes. Operand `i` absorbs operand `i + stride` at strides 1, 2, 4, …,
    /// which is exactly the pairwise level order of [`Self::sum_planes`], so
    /// the sum left in the first operand and the tallies are bit-identical
    /// to [`Self::sum_planes`] applied per word column. Carries live on the
    /// stack; nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is not a whole number of `width * group_words`
    /// operands, or `group_words` exceeds [`rm_core::wide::GROUP_WORDS`].
    pub fn sum_planes_group(
        &self,
        planes: &mut [u64],
        group_words: usize,
        lanes: u64,
        tally: &mut GateTally,
    ) {
        let op = self.width as usize * group_words;
        assert!(
            op > 0 && planes.len().is_multiple_of(op),
            "operand plane-group length"
        );
        let adder = RippleCarryAdder::new(self.width);
        let n = planes.len() / op;
        let mut stride = 1;
        while stride < n {
            let mut i = 0;
            while i + stride < n {
                let (lo, hi) = planes.split_at_mut((i + stride) * op);
                adder.add_planes_group(
                    &mut lo[i * op..(i + 1) * op],
                    &hi[..op],
                    group_words,
                    lanes,
                    tally,
                );
                i += 2 * stride;
            }
            stride *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_match_reference() {
        let tree = AdderTree::new(16);
        let mut t = GateTally::new();
        assert_eq!(tree.sum(&[], &mut t), 0);
        assert_eq!(tree.sum(&[42], &mut t), 42);
        assert_eq!(tree.sum(&[1, 2], &mut t), 3);
        assert_eq!(tree.sum(&[10, 20, 30, 40, 50, 60, 70], &mut t), 280);
    }

    #[test]
    fn sums_wrap_modulo_width() {
        let tree = AdderTree::new(8);
        let mut t = GateTally::new();
        assert_eq!(tree.sum(&[200, 100], &mut t), 300 % 256);
    }

    #[test]
    fn depth_is_log2_ceiling() {
        assert_eq!(AdderTree::depth_for(0), 0);
        assert_eq!(AdderTree::depth_for(1), 0);
        assert_eq!(AdderTree::depth_for(2), 1);
        assert_eq!(AdderTree::depth_for(3), 2);
        assert_eq!(AdderTree::depth_for(4), 2);
        assert_eq!(AdderTree::depth_for(8), 3);
        assert_eq!(AdderTree::depth_for(9), 4);
    }

    #[test]
    fn latency_scales_with_depth_and_width() {
        let tree = AdderTree::new(16);
        assert_eq!(tree.latency_cycles(8), 3 * 16);
        assert_eq!(tree.latency_cycles(1), 0);
    }

    #[test]
    fn gate_count_matches_pairwise_adds() {
        // Summing 8 operands takes 7 two-operand adds of `width` bits each.
        let tree = AdderTree::new(16);
        let mut t = GateTally::new();
        let _ = tree.sum(&[1; 8], &mut t);
        assert_eq!(t.nand, 7 * 16 * 9);
    }

    #[test]
    fn sum_planes_matches_scalar_sum_per_lane() {
        let tree = AdderTree::new(16);
        // 5 operands, 3 lanes.
        let lanes: [[u64; 5]; 3] = [
            [1, 2, 3, 4, 5],
            [100, 200, 300, 400, 500],
            [65535, 1, 0, 9999, 123],
        ];
        let width = 16usize;
        let operands: Vec<Vec<u64>> = (0..5)
            .map(|op| {
                let mut planes = vec![0u64; width];
                for (l, lane) in lanes.iter().enumerate() {
                    for (i, plane) in planes.iter_mut().enumerate() {
                        *plane |= ((lane[op] >> i) & 1) << l;
                    }
                }
                planes
            })
            .collect();
        let mut tw = GateTally::new();
        let sum_planes = tree.sum_planes(&operands, 3, &mut tw);
        let mut ts = GateTally::new();
        for (l, lane) in lanes.iter().enumerate() {
            let expect = tree.sum(lane, &mut ts);
            let mut got = 0u64;
            for (i, plane) in sum_planes.iter().enumerate() {
                got |= ((plane >> l) & 1) << i;
            }
            assert_eq!(got, expect, "lane {l}");
        }
        assert_eq!(tw, ts);
    }

    #[test]
    fn sum_planes_group_matches_per_word_sum_planes() {
        let tree = AdderTree::new(12);
        let width = 12usize;
        // Odd and even operand counts cover every carried-over-operand case
        // of the pairwise levels.
        for count in [1u64, 2, 3, 5, 8, 9] {
            for lanes in [1u64, 64, 70, 128, 190] {
                let g = (lanes as usize).div_ceil(64);
                let partial = (lanes % 64) as u32;
                let tail_mask = if partial == 0 {
                    u64::MAX
                } else {
                    (1u64 << partial) - 1
                };
                let operands: Vec<Vec<u64>> = (0..count)
                    .map(|op| {
                        let mut planes = vec![0u64; width * g];
                        for (i, word) in planes.iter_mut().enumerate() {
                            *word = (op * 131 + i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        }
                        for i in 0..width {
                            planes[i * g + g - 1] &= tail_mask;
                        }
                        planes
                    })
                    .collect();
                let mut tg = GateTally::new();
                let mut sum_g = operands.concat();
                tree.sum_planes_group(&mut sum_g, g, lanes, &mut tg);
                let mut tw = GateTally::new();
                for w in 0..g {
                    let wl = (lanes - 64 * w as u64).min(64) as u32;
                    let cols: Vec<Vec<u64>> = operands
                        .iter()
                        .map(|op| (0..width).map(|i| op[i * g + w]).collect())
                        .collect();
                    let sum_w = tree.sum_planes(&cols, wl, &mut tw);
                    for i in 0..width {
                        assert_eq!(
                            sum_g[i * g + w],
                            sum_w[i],
                            "plane {i} word {w} at {lanes} lanes, {count} operands"
                        );
                    }
                }
                assert_eq!(tg, tw, "tally at {lanes} lanes, {count} operands");
            }
        }
    }

    #[test]
    fn sum_planes_empty_is_zero() {
        let tree = AdderTree::new(8);
        let mut t = GateTally::new();
        assert_eq!(tree.sum_planes(&[], 4, &mut t), vec![0u64; 8]);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn single_operand_costs_no_gates() {
        let tree = AdderTree::new(8);
        let mut t = GateTally::new();
        let _ = tree.sum(&[99], &mut t);
        assert_eq!(t.total(), 0);
    }
}
