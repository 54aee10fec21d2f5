//! Wide word-group kernels: 256/512-bit bitwise operations over `u64` slices.
//!
//! PR 3 packed the device's bit planes 64 lanes per `u64`; this module widens
//! the hot loops a second time, from single words to *word-groups* of
//! [`GROUP_WORDS`] words (512 lanes). Each kernel has two implementations:
//!
//! * an **x86_64 AVX2 path** (`std::arch` 256-bit loads, four lane-words per
//!   vector op) selected at runtime via `is_x86_feature_detected!` for
//!   slices of at least four words, and
//! * a **portable fallback** with manually unrolled 4x word loops that the
//!   compiler auto-vectorizes on any target. Slices shorter than one vector
//!   always take it inline: the AVX2 body would only run its scalar tail.
//!
//! Setting the environment variable `STREAMPIM_WIDE_PORTABLE` (to any
//! non-empty value other than `0`) forces the portable path — CI uses this to
//! exercise both implementations on the same runner. The selected level is
//! reported by [`simd_level`] and recorded in bench metadata.
//!
//! Like the word packing before it, widening is purely a simulator-speed
//! change: callers in `dw-logic`/`rm-proc`/`rm-bus` keep their own lane
//! masking and gate-tally accounting, so results, counters and probe samples
//! are bit-identical to the single-word path — enforced by differential
//! proptests at every consuming layer.

use std::sync::OnceLock;

/// Words per wide group (512 bits = 8 lane-words).
pub const GROUP_WORDS: usize = 8;

/// Lanes per wide group.
pub const GROUP_LANES: usize = GROUP_WORDS * 64;

/// Whether the portable fallback is forced via `STREAMPIM_WIDE_PORTABLE`.
fn portable_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("STREAMPIM_WIDE_PORTABLE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether the AVX2 path is active (feature detected and not overridden).
#[inline]
pub fn avx2_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if portable_forced() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The SIMD level the wide kernels dispatch to: `"avx2"` or `"portable"`.
/// Recorded in bench environment metadata so baselines from different hosts
/// can be told apart.
pub fn simd_level() -> &'static str {
    if avx2_active() {
        "avx2"
    } else {
        "portable"
    }
}

macro_rules! define_binop {
    ($name:ident, $portable:ident, $avx2:ident, $doc:literal, |$a:ident, $b:ident| $expr:expr) => {
        #[doc = $doc]
        ///
        /// # Panics
        ///
        /// Panics if the slices differ in length.
        #[inline]
        pub fn $name(a: &[u64], b: &[u64], out: &mut [u64]) {
            assert!(
                a.len() == b.len() && a.len() == out.len(),
                "word-group slices must have equal length"
            );
            // Under four words the AVX2 body never runs a vector op, so the
            // inlined portable loop skips a non-inlinable call.
            #[cfg(target_arch = "x86_64")]
            if a.len() >= 4 && avx2_active() {
                // SAFETY: AVX2 availability was checked at runtime.
                unsafe { $avx2(a, b, out) };
                return;
            }
            $portable(a, b, out);
        }

        #[inline]
        fn $portable(a: &[u64], b: &[u64], out: &mut [u64]) {
            let mut i = 0;
            while i + 4 <= a.len() {
                out[i] = {
                    let ($a, $b) = (a[i], b[i]);
                    $expr
                };
                out[i + 1] = {
                    let ($a, $b) = (a[i + 1], b[i + 1]);
                    $expr
                };
                out[i + 2] = {
                    let ($a, $b) = (a[i + 2], b[i + 2]);
                    $expr
                };
                out[i + 3] = {
                    let ($a, $b) = (a[i + 3], b[i + 3]);
                    $expr
                };
                i += 4;
            }
            while i < a.len() {
                out[i] = {
                    let ($a, $b) = (a[i], b[i]);
                    $expr
                };
                i += 1;
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(a: &[u64], b: &[u64], out: &mut [u64]) {
            use std::arch::x86_64::*;
            let n = a.len();
            let mut i = 0;
            // SAFETY: all pointer offsets stay within the equal-length
            // slices; loadu/storeu have no alignment requirement.
            unsafe {
                let ones = _mm256_set1_epi64x(-1);
                let _ = &ones; // some ops below don't need the constant
                while i + 4 <= n {
                    let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                    let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
                    let vr = {
                        let ($a, $b) = (va, vb);
                        $crate::wide::avx2_expr!($name, $a, $b, ones)
                    };
                    _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, vr);
                    i += 4;
                }
            }
            while i < n {
                out[i] = {
                    let ($a, $b) = (a[i], b[i]);
                    $expr
                };
                i += 1;
            }
        }
    };
}

/// Maps a named op to its AVX2 intrinsic expression (internal helper for
/// [`define_binop`]).
macro_rules! avx2_expr {
    (and_into, $a:ident, $b:ident, $ones:ident) => {
        std::arch::x86_64::_mm256_and_si256($a, $b)
    };
    (or_into, $a:ident, $b:ident, $ones:ident) => {
        std::arch::x86_64::_mm256_or_si256($a, $b)
    };
    (xor_into, $a:ident, $b:ident, $ones:ident) => {
        std::arch::x86_64::_mm256_xor_si256($a, $b)
    };
    (nand_into, $a:ident, $b:ident, $ones:ident) => {
        std::arch::x86_64::_mm256_xor_si256(std::arch::x86_64::_mm256_and_si256($a, $b), $ones)
    };
    (nor_into, $a:ident, $b:ident, $ones:ident) => {
        std::arch::x86_64::_mm256_xor_si256(std::arch::x86_64::_mm256_or_si256($a, $b), $ones)
    };
}
pub(crate) use avx2_expr;

define_binop!(
    and_into,
    and_portable,
    and_avx2,
    "`out[i] = a[i] & b[i]` over whole slices.",
    |a, b| a & b
);
define_binop!(
    or_into,
    or_portable,
    or_avx2,
    "`out[i] = a[i] | b[i]` over whole slices.",
    |a, b| a | b
);
define_binop!(
    xor_into,
    xor_portable,
    xor_avx2,
    "`out[i] = a[i] ^ b[i]` over whole slices.",
    |a, b| a ^ b
);
define_binop!(
    nand_into,
    nand_portable,
    nand_avx2,
    "`out[i] = !(a[i] & b[i])` over whole slices.",
    |a, b| !(a & b)
);
define_binop!(
    nor_into,
    nor_portable,
    nor_avx2,
    "`out[i] = !(a[i] | b[i])` over whole slices.",
    |a, b| !(a | b)
);

/// `out[i] = !a[i]` over whole slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn not_into(a: &[u64], out: &mut [u64]) {
    assert_eq!(
        a.len(),
        out.len(),
        "word-group slices must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 4 && avx2_active() {
        // SAFETY: AVX2 availability was checked at runtime.
        unsafe { not_avx2(a, out) };
        return;
    }
    let mut i = 0;
    while i + 4 <= a.len() {
        out[i] = !a[i];
        out[i + 1] = !a[i + 1];
        out[i + 2] = !a[i + 2];
        out[i + 3] = !a[i + 3];
        i += 4;
    }
    while i < a.len() {
        out[i] = !a[i];
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn not_avx2(a: &[u64], out: &mut [u64]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut i = 0;
    // SAFETY: offsets stay within the equal-length slices.
    unsafe {
        let ones = _mm256_set1_epi64x(-1);
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_xor_si256(va, ones),
            );
            i += 4;
        }
    }
    while i < n {
        out[i] = !a[i];
        i += 1;
    }
}

/// Fused bit-sliced full adder over word-groups: for every word `i`,
/// `sum[i] = a[i] ^ b[i] ^ cin[i]` and
/// `carry[i] = (a[i] & b[i]) | (cin[i] & (a[i] ^ b[i]))` — the boolean
/// closed form of the nine-NAND full adder, evaluated once per lane-word
/// instead of nine gate passes. Callers account the nine NANDs per lane on
/// their tally; the *results* are exactly those of the gate composition.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn full_adder_into(a: &[u64], b: &[u64], cin: &[u64], sum: &mut [u64], carry: &mut [u64]) {
    assert!(
        a.len() == b.len()
            && a.len() == cin.len()
            && a.len() == sum.len()
            && a.len() == carry.len(),
        "word-group slices must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 4 && avx2_active() {
        // SAFETY: AVX2 availability was checked at runtime.
        unsafe { full_adder_avx2(a, b, cin, sum, carry) };
        return;
    }
    for i in 0..a.len() {
        let axb = a[i] ^ b[i];
        sum[i] = axb ^ cin[i];
        carry[i] = (a[i] & b[i]) | (cin[i] & axb);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn full_adder_avx2(a: &[u64], b: &[u64], cin: &[u64], sum: &mut [u64], carry: &mut [u64]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut i = 0;
    // SAFETY: offsets stay within the equal-length slices.
    unsafe {
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let vc = _mm256_loadu_si256(cin.as_ptr().add(i) as *const __m256i);
            let axb = _mm256_xor_si256(va, vb);
            let vs = _mm256_xor_si256(axb, vc);
            let vcy = _mm256_or_si256(_mm256_and_si256(va, vb), _mm256_and_si256(vc, axb));
            _mm256_storeu_si256(sum.as_mut_ptr().add(i) as *mut __m256i, vs);
            _mm256_storeu_si256(carry.as_mut_ptr().add(i) as *mut __m256i, vcy);
            i += 4;
        }
    }
    while i < n {
        let axb = a[i] ^ b[i];
        sum[i] = axb ^ cin[i];
        carry[i] = (a[i] & b[i]) | (cin[i] & axb);
        i += 1;
    }
}

/// In-place 64×64 bit-matrix transpose, LSB-first: after the call,
/// bit `l` of `a[j]` is what bit `j` of `a[l]` was. This is the word-level
/// replacement for the per-bit plane transposes in the multiplier: one call
/// moves all 64 bit positions of 64 lanes in ~6·64 word ops, where the
/// scalar gather costs `64 × width` ops *per direction*.
pub fn transpose64(a: &mut [u64; 64]) {
    // Recursive block swap (Hacker's Delight fig. 7-3, adapted to LSB-first
    // bit order): at step `j`, swap the (rows k..k+j, cols j..2j) block with
    // the (rows k+j..k+2j, cols 0..j) block.
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        if j != 0 {
            m ^= m << j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(i: usize) -> u64 {
        (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x0123_4567_89AB_CDEF)
    }

    #[test]
    fn binops_match_scalar_ops_at_all_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13, 16, 33] {
            let a: Vec<u64> = (0..n).map(pattern).collect();
            let b: Vec<u64> = (0..n).map(|i| pattern(i + 77)).collect();
            let mut out = vec![0u64; n];
            and_into(&a, &b, &mut out);
            assert!(out.iter().zip(&a).zip(&b).all(|((&o, &x), &y)| o == x & y));
            or_into(&a, &b, &mut out);
            assert!(out.iter().zip(&a).zip(&b).all(|((&o, &x), &y)| o == x | y));
            xor_into(&a, &b, &mut out);
            assert!(out.iter().zip(&a).zip(&b).all(|((&o, &x), &y)| o == x ^ y));
            nand_into(&a, &b, &mut out);
            assert!(out
                .iter()
                .zip(&a)
                .zip(&b)
                .all(|((&o, &x), &y)| o == !(x & y)));
            nor_into(&a, &b, &mut out);
            assert!(out
                .iter()
                .zip(&a)
                .zip(&b)
                .all(|((&o, &x), &y)| o == !(x | y)));
            not_into(&a, &mut out);
            assert!(out.iter().zip(&a).all(|(&o, &x)| o == !x));
        }
    }

    #[test]
    fn full_adder_matches_bitwise_reference() {
        let n = 11;
        let a: Vec<u64> = (0..n).map(pattern).collect();
        let b: Vec<u64> = (0..n).map(|i| pattern(i + 3)).collect();
        let c: Vec<u64> = (0..n).map(|i| pattern(i + 9)).collect();
        let mut sum = vec![0u64; n];
        let mut carry = vec![0u64; n];
        full_adder_into(&a, &b, &c, &mut sum, &mut carry);
        for i in 0..n {
            for bit in 0..64 {
                let (x, y, z) = ((a[i] >> bit) & 1, (b[i] >> bit) & 1, (c[i] >> bit) & 1);
                let total = x + y + z;
                assert_eq!((sum[i] >> bit) & 1, total & 1, "sum word {i} bit {bit}");
                assert_eq!(
                    (carry[i] >> bit) & 1,
                    (total >= 2) as u64,
                    "carry word {i} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn transpose64_matches_reference_gather() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = pattern(i);
        }
        let orig = a;
        transpose64(&mut a);
        for (j, &row) in a.iter().enumerate() {
            for (l, &orow) in orig.iter().enumerate() {
                assert_eq!((row >> l) & 1, (orow >> j) & 1, "transposed[{j}] bit {l}");
            }
        }
        // An involution: transposing twice restores the original.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_paths_agree() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // nothing to compare on this host
        }
        let n = 29;
        let a: Vec<u64> = (0..n).map(pattern).collect();
        let b: Vec<u64> = (0..n).map(|i| pattern(i + 1000)).collect();
        let c: Vec<u64> = (0..n).map(|i| pattern(i + 2000)).collect();
        let mut s1 = vec![0u64; n];
        let mut c1 = vec![0u64; n];
        let mut s2 = vec![0u64; n];
        let mut c2 = vec![0u64; n];
        // SAFETY: guarded by the runtime feature check above.
        unsafe {
            nand_avx2(&a, &b, &mut s1);
            full_adder_avx2(&a, &b, &c, &mut s2, &mut c2);
        }
        nand_portable(&a, &b, &mut c1);
        assert_eq!(s1, c1, "nand avx2 vs portable");
        let mut s3 = vec![0u64; n];
        let mut c3 = vec![0u64; n];
        for i in 0..n {
            let axb = a[i] ^ b[i];
            s3[i] = axb ^ c[i];
            c3[i] = (a[i] & b[i]) | (c[i] & axb);
        }
        assert_eq!(s2, s3, "full adder sums avx2 vs portable");
        assert_eq!(c2, c3, "full adder carries avx2 vs portable");
    }

    #[test]
    fn simd_level_is_reported() {
        assert!(["avx2", "portable"].contains(&simd_level()));
        assert_eq!(simd_level() == "avx2", avx2_active());
    }
}
