//! Precision abstraction for the numeric kernels.
//!
//! [`Scalar`] is a **sealed** trait implemented for exactly two types,
//! `f64` and `f32`. Element-wise operations ([`crate::ops`], the hyperbolic
//! kernels) are generic over it and order-preserving, so the `f64`
//! instantiation performs bit-identical arithmetic to the historical
//! `f64`-only code. The *reductions* ([`Scalar::dot`] / [`Scalar::dist_sq`])
//! are trait methods with per-type bodies: the `f64` body keeps the
//! historical strictly-sequential single-accumulator order (bit-identical
//! results, pinned by the determinism suite), while the `f32` body
//! accumulates in eight independent lanes so LLVM's autovectorizer keeps the
//! whole reduction in SIMD registers (see DESIGN.md, "Precision & kernels").

mod sealed {
    /// Prevents downstream impls: the numeric kernels are only validated for
    /// the two IEEE-754 binary formats.
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A floating-point element type the numeric kernels can run in.
///
/// Implemented for `f64` (the default everywhere) and `f32` (the packed
/// serving/training precision). All conversions go through `f64`:
/// [`Scalar::from_f64`] rounds, [`Scalar::to_f64`] widens exactly.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + core::fmt::Debug
    + core::fmt::Display
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
    + core::ops::DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this precision, widened to `f64`.
    const EPSILON: f64;

    /// Rounds an `f64` into this precision (identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact for both implementors).
    fn to_f64(self) -> f64;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Hyperbolic cosine.
    fn cosh(self) -> Self;
    /// Hyperbolic sine.
    fn sinh(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Inverse hyperbolic tangent.
    fn atanh(self) -> Self;
    /// Inverse hyperbolic cosine.
    fn acosh(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, like `f64::min`).
    fn min(self, other: Self) -> Self;
    /// Clamps into `[lo, hi]`.
    fn clamp(self, lo: Self, hi: Self) -> Self;
    /// True when neither NaN nor ±∞.
    fn is_finite(self) -> bool;

    /// Dot-product reduction `Σ xᵢ·yᵢ`.
    ///
    /// Accumulation order is part of this method's contract: `f64` sums
    /// strictly left-to-right (the historical order the determinism suite
    /// byte-compares against); `f32` sums in fixed-width chunks.
    fn dot(x: &[Self], y: &[Self]) -> Self;

    /// `B` dot products against one shared `y` in a single pass over it:
    /// `xt` holds the `B` left-hand vectors transposed (`xt[j][b]` is
    /// element `j` of vector `b`), and lane `b` of the result equals
    /// `Self::dot(x_b, y)` bit for bit — each lane accumulates in exactly
    /// the order [`Scalar::dot`] uses, so blocking changes which loop is
    /// outermost, never a rounding.
    fn dot_block<const B: usize>(xt: &[[Self; B]], y: &[Self]) -> [Self; B];

    /// Squared-distance reduction `Σ (xᵢ−yᵢ)²`, same order contract as
    /// [`Scalar::dot`].
    fn dist_sq(x: &[Self], y: &[Self]) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: f64 = f64::EPSILON;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn cosh(self) -> Self {
        f64::cosh(self)
    }
    #[inline(always)]
    fn sinh(self) -> Self {
        f64::sinh(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline(always)]
    fn atanh(self) -> Self {
        f64::atanh(self)
    }
    #[inline(always)]
    fn acosh(self) -> Self {
        f64::acosh(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn clamp(self, lo: Self, hi: Self) -> Self {
        f64::clamp(self, lo, hi)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn dot(x: &[Self], y: &[Self]) -> Self {
        // Historical sequential order — must stay bit-identical to the
        // pre-generic `ops::dot`.
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[inline]
    fn dot_block<const B: usize>(xt: &[[Self; B]], y: &[Self]) -> [Self; B] {
        // Each lane starts where `Iterator::sum` starts and adds strictly
        // left to right, as `dot` does.
        let mut acc = [core::iter::empty::<f64>().sum::<f64>(); B];
        for (xj, &yj) in xt.iter().zip(y) {
            for b in 0..B {
                acc[b] += xj[b] * yj;
            }
        }
        acc
    }

    #[inline]
    fn dist_sq(x: &[Self], y: &[Self]) -> Self {
        x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}

/// Lane count of the chunked `f32` reductions. Eight `f32` lanes fill one
/// 256-bit vector register; narrower targets still vectorize the inner loop
/// as two 128-bit operations.
const F32_LANES: usize = 8;

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: f64 = f32::EPSILON as f64;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn cosh(self) -> Self {
        f32::cosh(self)
    }
    #[inline(always)]
    fn sinh(self) -> Self {
        f32::sinh(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline(always)]
    fn atanh(self) -> Self {
        f32::atanh(self)
    }
    #[inline(always)]
    fn acosh(self) -> Self {
        f32::acosh(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn clamp(self, lo: Self, hi: Self) -> Self {
        f32::clamp(self, lo, hi)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    #[inline]
    fn dot(x: &[Self], y: &[Self]) -> Self {
        let mut acc = [0.0f32; F32_LANES];
        let mut xc = x.chunks_exact(F32_LANES);
        let mut yc = y.chunks_exact(F32_LANES);
        for (xb, yb) in (&mut xc).zip(&mut yc) {
            for l in 0..F32_LANES {
                acc[l] += xb[l] * yb[l];
            }
        }
        let mut tail = 0.0f32;
        for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
            tail += a * b;
        }
        reduce_lanes(&acc) + tail
    }

    #[inline]
    fn dot_block<const B: usize>(xt: &[[Self; B]], y: &[Self]) -> [Self; B] {
        // `dot`'s eight chunk lanes and sequential tail, kept per block lane.
        let mut acc = [[0.0f32; B]; F32_LANES];
        let mut xc = xt.chunks_exact(F32_LANES);
        let mut yc = y.chunks_exact(F32_LANES);
        for (xb, yb) in (&mut xc).zip(&mut yc) {
            for l in 0..F32_LANES {
                for b in 0..B {
                    acc[l][b] += xb[l][b] * yb[l];
                }
            }
        }
        let mut tail = [0.0f32; B];
        for (xj, &yj) in xc.remainder().iter().zip(yc.remainder()) {
            for b in 0..B {
                tail[b] += xj[b] * yj;
            }
        }
        // `reduce_lanes` per block lane, written over whole lane rows so
        // the reduction vectorizes across the block.
        let mut out = [0.0f32; B];
        for b in 0..B {
            out[b] = ((acc[0][b] + acc[4][b]) + (acc[1][b] + acc[5][b]))
                + ((acc[2][b] + acc[6][b]) + (acc[3][b] + acc[7][b]))
                + tail[b];
        }
        out
    }

    #[inline]
    fn dist_sq(x: &[Self], y: &[Self]) -> Self {
        let mut acc = [0.0f32; F32_LANES];
        let mut xc = x.chunks_exact(F32_LANES);
        let mut yc = y.chunks_exact(F32_LANES);
        for (xb, yb) in (&mut xc).zip(&mut yc) {
            for l in 0..F32_LANES {
                let d = xb[l] - yb[l];
                acc[l] += d * d;
            }
        }
        let mut tail = 0.0f32;
        for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
            let d = a - b;
            tail += d * d;
        }
        reduce_lanes(&acc) + tail
    }
}

/// Pairwise horizontal reduction of the lane accumulators (fixed shape, so
/// the summation order is deterministic).
#[inline]
fn reduce_lanes(acc: &[f32; F32_LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_reductions_keep_the_sequential_order() {
        // A sequence whose sequential and pairwise sums differ in the last
        // bits: the f64 impl must match the literal sequential loop.
        let x: Vec<f64> = (0..23).map(|i| 1.0 + (i as f64) * 1e-13).collect();
        let y: Vec<f64> = (0..23).map(|i| 1.0 - (i as f64) * 3e-7).collect();
        let sequential: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_eq!(<f64 as Scalar>::dot(&x, &y), sequential);
        let seq_d: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        assert_eq!(<f64 as Scalar>::dist_sq(&x, &y), seq_d);
    }

    #[test]
    fn f32_reductions_match_f64_within_single_precision() {
        let x: Vec<f32> = (0..67).map(|i| ((i * 37) % 19) as f32 * 0.083 - 0.7).collect();
        let y: Vec<f32> = (0..67).map(|i| ((i * 11) % 23) as f32 * 0.041 - 0.4).collect();
        let wide: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| f64::from(*a) * f64::from(*b))
            .sum();
        let narrow = <f32 as Scalar>::dot(&x, &y);
        assert!(
            (f64::from(narrow) - wide).abs() < 1e-3 * (1.0 + wide.abs()),
            "{narrow} vs {wide}"
        );
        let wide_d: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
            .sum();
        let narrow_d = <f32 as Scalar>::dist_sq(&x, &y);
        assert!((f64::from(narrow_d) - wide_d).abs() < 1e-3 * (1.0 + wide_d.abs()));
    }

    #[test]
    fn f32_reductions_cover_remainder_lengths() {
        for len in 0..=17 {
            let x: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let expect: f32 = x.iter().map(|v| v * v).sum();
            // Small integer-valued inputs are exact in every order.
            assert_eq!(<f32 as Scalar>::dot(&x, &x), expect, "len {len}");
            assert_eq!(<f32 as Scalar>::dist_sq(&x, &x), 0.0, "len {len}");
        }
    }

    /// `xs` transposed into the `dot_block` layout.
    fn transpose<S: Scalar, const B: usize>(xs: &[Vec<S>]) -> Vec<[S; B]> {
        (0..xs[0].len()).map(|j| core::array::from_fn(|b| xs[b][j])).collect()
    }

    fn dot_block_matches_dot<S: Scalar, const B: usize>() {
        for len in 0..=19 {
            let mut seed = 0x9e37_79b9_u64 ^ len as u64;
            let mut next = || {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                S::from_f64(((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
            };
            let xs: Vec<Vec<S>> = (0..B).map(|_| (0..len).map(|_| next()).collect()).collect();
            let y: Vec<S> = (0..len).map(|_| next()).collect();
            let got = S::dot_block::<B>(&transpose::<S, B>(&xs), &y);
            for b in 0..B {
                let want = S::dot(&xs[b], &y);
                assert!(
                    got[b].to_f64().to_bits() == want.to_f64().to_bits(),
                    "B={B} len={len} lane {b}: {} vs {}",
                    got[b],
                    want
                );
            }
        }
    }

    #[test]
    fn dot_block_lanes_equal_dot_bitwise() {
        dot_block_matches_dot::<f64, 1>();
        dot_block_matches_dot::<f64, 3>();
        dot_block_matches_dot::<f64, 8>();
        dot_block_matches_dot::<f32, 1>();
        dot_block_matches_dot::<f32, 5>();
        dot_block_matches_dot::<f32, 8>();
    }

    #[test]
    fn dot_block_keeps_the_sign_of_an_all_negative_zero_sum() {
        // The one case the initial value is visible in: every product −0.
        let y = [0.0f64, 0.0];
        let xt = [[-0.0f64], [-0.0]];
        let want = <f64 as Scalar>::dot(&[-0.0, -0.0], &y);
        assert_eq!(<f64 as Scalar>::dot_block(&xt, &y)[0].to_bits(), want.to_bits());
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(<f64 as Scalar>::from_f64(0.1), 0.1);
        assert_eq!(<f32 as Scalar>::from_f64(0.1), 0.1f32);
        assert_eq!(Scalar::to_f64(0.5f32), 0.5);
        assert_eq!(<f32 as Scalar>::ONE + <f32 as Scalar>::ZERO, 1.0);
    }
}
