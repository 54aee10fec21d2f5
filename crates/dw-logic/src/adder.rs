//! Full adder and ripple-carry word adder (paper Figure 6).

use crate::cost::GateTally;
use crate::gate::{lane_mask, nand, nand_words};
use rm_core::wide::GROUP_WORDS;
use serde::{Deserialize, Serialize};

/// The 1-bit full adder built from nine domain-wall NAND gates, exactly as
/// depicted in the paper's Figure 6.
///
/// ```
/// use dw_logic::{FullAdder, GateTally};
///
/// let mut tally = GateTally::new();
/// let (sum, carry) = FullAdder.add(true, true, false, &mut tally);
/// assert_eq!((sum, carry), (false, true));
/// assert_eq!(tally.nand, 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FullAdder;

impl FullAdder {
    /// Number of NAND gates in the structural realization.
    pub const NAND_COUNT: u64 = 9;

    /// Adds `a + b + cin`, returning `(sum, carry_out)`.
    pub fn add(self, a: bool, b: bool, cin: bool, tally: &mut GateTally) -> (bool, bool) {
        // Classic 9-NAND full adder.
        let t1 = nand(a, b, tally);
        let t2 = nand(a, t1, tally);
        let t3 = nand(b, t1, tally);
        let axb = nand(t2, t3, tally); // a XOR b
        let t5 = nand(axb, cin, tally);
        let t6 = nand(axb, t5, tally);
        let t7 = nand(cin, t5, tally);
        let sum = nand(t6, t7, tally); // a XOR b XOR cin
        let carry = nand(t1, t5, tally); // ab + cin(a XOR b)
        (sum, carry)
    }

    /// `lanes` full adders evaluated at once: bit `l` of each operand word
    /// belongs to lane `l`. Same nine-NAND structure, tallied per lane, so
    /// the gate accounting equals `lanes` scalar [`Self::add`] calls.
    pub fn add_words(
        self,
        a: u64,
        b: u64,
        cin: u64,
        lanes: u32,
        tally: &mut GateTally,
    ) -> (u64, u64) {
        let t1 = nand_words(a, b, lanes, tally);
        let t2 = nand_words(a, t1, lanes, tally);
        let t3 = nand_words(b, t1, lanes, tally);
        let axb = nand_words(t2, t3, lanes, tally); // a XOR b
        let t5 = nand_words(axb, cin, lanes, tally);
        let t6 = nand_words(axb, t5, lanes, tally);
        let t7 = nand_words(cin, t5, lanes, tally);
        let sum = nand_words(t6, t7, lanes, tally); // a XOR b XOR cin
        let carry = nand_words(t1, t5, lanes, tally); // ab + cin(a XOR b)
        (sum, carry)
    }

    /// Word-group sibling of [`Self::add_words`]: `lanes` full adders across
    /// a slice of lane-words, evaluated in one fused wide pass
    /// (`rm_core::wide::full_adder_into`). The boolean closed form equals the
    /// masked nine-NAND composition lane-for-lane, and the tally charges the
    /// full nine NANDs per lane, so results and accounting are bit-identical
    /// to per-word [`Self::add_words`] calls over the same lanes.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or are not exactly
    /// `ceil(lanes / 64)` words.
    #[allow(clippy::too_many_arguments)]
    pub fn add_words_group(
        self,
        a: &[u64],
        b: &[u64],
        cin: &[u64],
        sum: &mut [u64],
        carry: &mut [u64],
        lanes: u64,
        tally: &mut GateTally,
    ) {
        assert!(lanes > 0, "word-group adds need at least one lane");
        assert_eq!(
            (lanes as usize).div_ceil(64),
            a.len(),
            "word-group slice must be exactly ceil(lanes/64) words"
        );
        tally.nand += Self::NAND_COUNT * lanes;
        rm_core::wide::full_adder_into(a, b, cin, sum, carry);
        let partial = (lanes % 64) as u32;
        if partial != 0 {
            let m = lane_mask(partial);
            *sum.last_mut().expect("non-empty group") &= m;
            *carry.last_mut().expect("non-empty group") &= m;
        }
    }
}

/// A `width`-bit ripple-carry adder chaining [`FullAdder`]s.
///
/// Latency is one full-adder traversal per bit (the carry ripples), so the
/// cycle cost reported by [`RippleCarryAdder::latency_cycles`] is `width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RippleCarryAdder {
    width: u32,
}

impl RippleCarryAdder {
    /// Creates an adder for `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63 (results are staged in
    /// `u64` with a carry bit).
    pub fn new(width: u32) -> Self {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        RippleCarryAdder { width }
    }

    /// Word width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Cycles for one word addition (carry ripple: one per bit).
    #[inline]
    pub fn latency_cycles(&self) -> u64 {
        self.width as u64
    }

    /// Adds `a + b + cin`, returning `(sum mod 2^width, carry_out)`.
    ///
    /// Operand bits above `width` are ignored.
    pub fn add(&self, a: u64, b: u64, cin: bool, tally: &mut GateTally) -> (u64, bool) {
        let mut carry = cin;
        let mut sum = 0u64;
        for i in 0..self.width {
            let abit = (a >> i) & 1 == 1;
            let bbit = (b >> i) & 1 == 1;
            let (s, c) = FullAdder.add(abit, bbit, carry, tally);
            if s {
                sum |= 1 << i;
            }
            carry = c;
        }
        (sum, carry)
    }

    /// Bit-sliced word addition over `lanes` independent lane pairs:
    /// `a[i]`/`b[i]` hold bit `i` of every lane (one plane per bit of the
    /// word). Returns the sum planes and the carry-out word. The carry still
    /// ripples plane-to-plane, but each plane step adds all lanes at once;
    /// gate tallies equal `lanes` scalar [`Self::add`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` does not have exactly `width` planes.
    pub fn add_planes(
        &self,
        a: &[u64],
        b: &[u64],
        cin: u64,
        lanes: u32,
        tally: &mut GateTally,
    ) -> (Vec<u64>, u64) {
        assert_eq!(a.len(), self.width as usize, "operand a plane count");
        assert_eq!(b.len(), self.width as usize, "operand b plane count");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(self.width as usize);
        for i in 0..self.width as usize {
            let (s, c) = FullAdder.add_words(a[i], b[i], carry, lanes, tally);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Word-group sibling of [`Self::add_planes`], accumulating in place:
    /// each bit plane is a group of `group_words` lane-words, flattened
    /// plane-major (`acc[i * group_words..]` is plane `i`), covering `lanes`
    /// total lanes, and the sum overwrites `acc`. The carry ripples
    /// plane-to-plane in stack buffers while each plane step adds every lane
    /// at once; results and tallies are bit-identical to per-word
    /// [`Self::add_planes`] calls over the same lane-word columns because
    /// lanes never interact across words.
    ///
    /// Returns the carry-out word group in the first `group_words` words.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths are not `width * group_words`,
    /// `group_words` exceeds [`GROUP_WORDS`], or `group_words` is not exactly
    /// `ceil(lanes / 64)`.
    pub fn add_planes_group(
        &self,
        acc: &mut [u64],
        b: &[u64],
        group_words: usize,
        lanes: u64,
        tally: &mut GateTally,
    ) -> [u64; GROUP_WORDS] {
        let w = self.width as usize;
        let g = group_words;
        assert_eq!(acc.len(), w * g, "operand a plane-group length");
        assert_eq!(b.len(), w * g, "operand b plane-group length");
        assert!(g <= GROUP_WORDS, "at most {GROUP_WORDS} words per group");
        let mut carry = [0u64; GROUP_WORDS];
        let mut carry_next = [0u64; GROUP_WORDS];
        let mut sum = [0u64; GROUP_WORDS];
        for i in 0..w {
            let span = i * g..(i + 1) * g;
            FullAdder.add_words_group(
                &acc[span.clone()],
                &b[span.clone()],
                &carry[..g],
                &mut sum[..g],
                &mut carry_next[..g],
                lanes,
                tally,
            );
            acc[span].copy_from_slice(&sum[..g]);
            std::mem::swap(&mut carry, &mut carry_next);
        }
        carry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_adder_truth_table() {
        let mut t = GateTally::new();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let (sum, carry) = FullAdder.add(a, b, c, &mut t);
                    let expect = a as u8 + b as u8 + c as u8;
                    assert_eq!(sum, expect & 1 == 1, "sum for {a},{b},{c}");
                    assert_eq!(carry, expect >= 2, "carry for {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn full_adder_costs_nine_nands() {
        let mut t = GateTally::new();
        let _ = FullAdder.add(true, false, true, &mut t);
        assert_eq!(t.nand, FullAdder::NAND_COUNT);
        assert_eq!(t.total(), 9);
    }

    #[test]
    fn ripple_adder_exhaustive_8bit_sample() {
        let adder = RippleCarryAdder::new(8);
        let mut t = GateTally::new();
        for a in (0u64..256).step_by(7) {
            for b in (0u64..256).step_by(11) {
                let (sum, carry) = adder.add(a, b, false, &mut t);
                assert_eq!(sum, (a + b) & 0xFF);
                assert_eq!(carry, a + b > 0xFF);
            }
        }
    }

    #[test]
    fn ripple_adder_carry_in() {
        let adder = RippleCarryAdder::new(8);
        let mut t = GateTally::new();
        let (sum, carry) = adder.add(0xFF, 0x00, true, &mut t);
        assert_eq!(sum, 0x00);
        assert!(carry);
    }

    #[test]
    fn ripple_adder_masks_high_bits() {
        let adder = RippleCarryAdder::new(4);
        let mut t = GateTally::new();
        let (sum, _) = adder.add(0xF5, 0x01, false, &mut t);
        assert_eq!(sum, 0x6); // only the low 4 bits participate
    }

    #[test]
    fn gate_cost_scales_with_width() {
        let mut t8 = GateTally::new();
        RippleCarryAdder::new(8).add(1, 2, false, &mut t8);
        let mut t16 = GateTally::new();
        RippleCarryAdder::new(16).add(1, 2, false, &mut t16);
        assert_eq!(t8.nand, 8 * 9);
        assert_eq!(t16.nand, 16 * 9);
        assert_eq!(RippleCarryAdder::new(8).latency_cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=63")]
    fn rejects_zero_width() {
        let _ = RippleCarryAdder::new(0);
    }

    #[test]
    fn word_full_adder_matches_scalar_per_lane() {
        let a: u64 = 0b1100_1010;
        let b: u64 = 0b1010_0110;
        let cin: u64 = 0b0110_0011;
        let mut tw = GateTally::new();
        let (sw, cw) = FullAdder.add_words(a, b, cin, 8, &mut tw);
        let mut ts = GateTally::new();
        for i in 0..8 {
            let (s, c) = FullAdder.add(
                (a >> i) & 1 == 1,
                (b >> i) & 1 == 1,
                (cin >> i) & 1 == 1,
                &mut ts,
            );
            assert_eq!((sw >> i) & 1 == 1, s, "sum lane {i}");
            assert_eq!((cw >> i) & 1 == 1, c, "carry lane {i}");
        }
        assert_eq!(tw, ts);
    }

    #[test]
    fn add_planes_matches_scalar_add_across_lanes() {
        let adder = RippleCarryAdder::new(8);
        let lanes: Vec<(u64, u64)> = (0..16).map(|i| (i * 17 % 256, i * 31 % 256)).collect();
        // Transpose operands into bit planes.
        let mut a_planes = vec![0u64; 8];
        let mut b_planes = vec![0u64; 8];
        for (l, &(a, b)) in lanes.iter().enumerate() {
            for (i, plane) in a_planes.iter_mut().enumerate() {
                *plane |= ((a >> i) & 1) << l;
            }
            for (i, plane) in b_planes.iter_mut().enumerate() {
                *plane |= ((b >> i) & 1) << l;
            }
        }
        let mut tw = GateTally::new();
        let (sum_planes, carry) = adder.add_planes(&a_planes, &b_planes, 0, 16, &mut tw);
        let mut ts = GateTally::new();
        for (l, &(a, b)) in lanes.iter().enumerate() {
            let (s, c) = adder.add(a, b, false, &mut ts);
            let mut got = 0u64;
            for (i, plane) in sum_planes.iter().enumerate() {
                got |= ((plane >> l) & 1) << i;
            }
            assert_eq!(got, s, "lane {l}");
            assert_eq!((carry >> l) & 1 == 1, c, "carry lane {l}");
        }
        assert_eq!(tw, ts);
    }

    #[test]
    fn add_planes_group_matches_per_word_add_planes() {
        let adder = RippleCarryAdder::new(8);
        for lanes in [1u64, 64, 100, 128, 130] {
            let g = (lanes as usize).div_ceil(64);
            // Pseudorandom bit planes, tail-masked like real callers.
            let mut a = vec![0u64; 8 * g];
            let mut b = vec![0u64; 8 * g];
            for (i, word) in a.iter_mut().enumerate() {
                *word = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            for (i, word) in b.iter_mut().enumerate() {
                *word = (i as u64 + 7).wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            for i in 0..8 {
                let partial = (lanes % 64) as u32;
                if partial != 0 {
                    a[i * g + g - 1] &= lane_mask(partial);
                    b[i * g + g - 1] &= lane_mask(partial);
                }
            }
            let mut tg = GateTally::new();
            let mut sum_g = a.clone();
            let carry_g = adder.add_planes_group(&mut sum_g, &b, g, lanes, &mut tg);
            // Reference: per-word-column add_planes over the same lanes.
            let mut tw = GateTally::new();
            for w in 0..g {
                let wl = (lanes - 64 * w as u64).min(64) as u32;
                let a_col: Vec<u64> = (0..8).map(|i| a[i * g + w]).collect();
                let b_col: Vec<u64> = (0..8).map(|i| b[i * g + w]).collect();
                let (sum_w, carry_w) = adder.add_planes(&a_col, &b_col, 0, wl, &mut tw);
                for i in 0..8 {
                    assert_eq!(
                        sum_g[i * g + w],
                        sum_w[i],
                        "plane {i} word {w} at {lanes} lanes"
                    );
                }
                assert_eq!(carry_g[w], carry_w, "carry word {w} at {lanes} lanes");
            }
            assert_eq!(tg, tw, "group tally at {lanes} lanes");
        }
    }
}
