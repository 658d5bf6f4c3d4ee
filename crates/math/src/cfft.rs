//! Complex arithmetic and the "special" FFT used by the CKKS encoder.
//!
//! CKKS packs `n = N/2` complex values into a degree-`N-1` real polynomial
//! via the canonical embedding (Sec. 2.2): slot `j` is the evaluation of the
//! polynomial at `ζ^{5^j}`, where `ζ` is a primitive `2N`-th complex root of
//! unity. The transform between slots and coefficients is an FFT over the
//! orbit of 5 — the `SpecialFft` of the HEAAN/Lattigo implementations.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Range, Sub};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex number `e^{i theta}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Precomputed tables for the CKKS special FFT over `n` slots (ring degree
/// `N = 2n`).
///
/// # Example
///
/// ```
/// use cl_math::{Complex, SpecialFft};
/// let fft = SpecialFft::new(4); // 4 slots, ring degree 8
/// let mut v = vec![
///     Complex::new(1.0, 0.0),
///     Complex::new(2.0, -1.0),
///     Complex::new(0.5, 3.0),
///     Complex::new(-1.0, 0.25),
/// ];
/// let orig = v.clone();
/// fft.inverse(&mut v);
/// fft.forward(&mut v);
/// for (a, b) in v.iter().zip(&orig) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SpecialFft {
    slots: usize,
    /// Powers of the primitive 4n-th root of unity: `zeta^k, k in [0, 4n)`.
    zeta_pows: Vec<Complex>,
    /// `5^j mod 4n` for `j in [0, n)`.
    rot_group: Vec<usize>,
}

impl SpecialFft {
    /// Builds tables for `slots` slots (`slots` a power of two `>= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two() && slots >= 1);
        let m = 4 * slots; // = 2N
        let zeta_pows = (0..m)
            .map(|k| Complex::from_angle(2.0 * std::f64::consts::PI * k as f64 / m as f64))
            .collect();
        let mut rot_group = Vec::with_capacity(slots);
        let mut five = 1usize;
        for _ in 0..slots {
            rot_group.push(five);
            five = (five * 5) % m;
        }
        Self {
            slots,
            zeta_pows,
            rot_group,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of butterfly levels, `log2(slots)`.
    fn levels(&self) -> u32 {
        self.slots.trailing_zeros()
    }

    /// Forward special FFT (decode direction: coefficients → slots),
    /// in place: the bit reversal, then every butterfly level of
    /// [`SpecialFft::forward_levels`].
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.slots()`.
    pub fn forward(&self, vals: &mut [Complex]) {
        assert_eq!(vals.len(), self.slots);
        crate::bit_reverse_permute(vals);
        self.forward_levels(vals, 0..self.levels());
    }

    /// The forward butterfly levels in `levels`, ascending, in place and
    /// without the bit reversal [`SpecialFft::forward`] starts with. Level
    /// `k` combines entries `2^k` apart, so a sub-range of levels is one
    /// radix stage of the transform.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.slots()` or `levels` reaches past
    /// `log2(slots)`.
    pub fn forward_levels(&self, vals: &mut [Complex], levels: Range<u32>) {
        assert_eq!(vals.len(), self.slots);
        assert!(levels.end <= self.levels(), "butterfly level out of range");
        let n = self.slots;
        let m = 4 * n;
        for k in levels {
            let lenh = 1usize << k;
            let len = lenh << 1;
            let lenq = len << 2;
            for i in (0..n).step_by(len) {
                for j in 0..lenh {
                    let idx = (self.rot_group[j] % lenq) * (m / lenq);
                    let u = vals[i + j];
                    let v = vals[i + j + lenh] * self.zeta_pows[idx];
                    vals[i + j] = u + v;
                    vals[i + j + lenh] = u - v;
                }
            }
        }
    }

    /// Inverse special FFT (encode direction: slots → coefficients),
    /// in place: every butterfly level of [`SpecialFft::inverse_levels`],
    /// then the bit reversal and the `1/n` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.slots()`.
    pub fn inverse(&self, vals: &mut [Complex]) {
        assert_eq!(vals.len(), self.slots);
        self.inverse_levels(vals, 0..self.levels());
        crate::bit_reverse_permute(vals);
        let n = self.slots as f64;
        for v in vals.iter_mut() {
            *v = *v / n;
        }
    }

    /// The inverse butterfly levels in `levels`, descending (the order
    /// [`SpecialFft::inverse`] applies them), in place and without its bit
    /// reversal or `1/n` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.slots()` or `levels` reaches past
    /// `log2(slots)`.
    pub fn inverse_levels(&self, vals: &mut [Complex], levels: Range<u32>) {
        assert_eq!(vals.len(), self.slots);
        assert!(levels.end <= self.levels(), "butterfly level out of range");
        let n = self.slots;
        let m = 4 * n;
        for k in levels.rev() {
            let lenh = 1usize << k;
            let len = lenh << 1;
            let lenq = len << 2;
            for i in (0..n).step_by(len) {
                for j in 0..lenh {
                    let idx = (lenq - (self.rot_group[j] % lenq)) * (m / lenq);
                    let u = vals[i + j] + vals[i + j + lenh];
                    let v = (vals[i + j] - vals[i + j + lenh]) * self.zeta_pows[idx];
                    vals[i + j] = u;
                    vals[i + j + lenh] = v;
                }
            }
        }
    }

    /// Reference O(n^2) evaluation of the canonical embedding: given real
    /// polynomial coefficients `coeffs` (length `2n`, as f64), returns the
    /// slot values `p(zeta^{5^j})`. Used by tests.
    pub fn embed_reference(&self, coeffs: &[f64]) -> Vec<Complex> {
        assert_eq!(coeffs.len(), 2 * self.slots);
        let m = 4 * self.slots;
        (0..self.slots)
            .map(|j| {
                let root_exp = self.rot_group[j];
                let mut acc = Complex::default();
                for (i, &c) in coeffs.iter().enumerate() {
                    acc += self.zeta_pows[(root_exp * i) % m] * c;
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_slots(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn complex_arithmetic() {
        let i = Complex::new(0.0, 1.0);
        assert!((i * i + Complex::new(1.0, 0.0)).abs() < 1e-15);
        assert!((Complex::from_angle(std::f64::consts::PI) + Complex::new(1.0, 0.0)).abs() < 1e-15);
        assert_eq!(i.conj(), -i);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for slots in [1usize, 2, 8, 256] {
            let fft = SpecialFft::new(slots);
            let mut v = rand_slots(slots, 3);
            let orig = v.clone();
            fft.inverse(&mut v);
            fft.forward(&mut v);
            for (a, b) in v.iter().zip(&orig) {
                assert!((*a - *b).abs() < 1e-9, "slots={slots}");
            }
        }
    }

    #[test]
    fn level_ranges_compose_to_the_full_transform() {
        // Any split point: the two sub-ranges in turn are the butterfly
        // network of forward / inverse, bit-exactly.
        for slots in [1usize, 2, 8, 64] {
            let fft = SpecialFft::new(slots);
            let log = slots.trailing_zeros();
            let orig = rand_slots(slots, 11);
            for split in 0..=log {
                let mut whole = orig.clone();
                fft.forward(&mut whole);
                let mut staged = orig.clone();
                crate::bit_reverse_permute(&mut staged);
                fft.forward_levels(&mut staged, 0..split);
                fft.forward_levels(&mut staged, split..log);
                assert_eq!(staged, whole, "forward, slots={slots} split={split}");

                let mut whole = orig.clone();
                fft.inverse(&mut whole);
                let mut staged = orig.clone();
                fft.inverse_levels(&mut staged, split..log);
                fft.inverse_levels(&mut staged, 0..split);
                crate::bit_reverse_permute(&mut staged);
                for v in staged.iter_mut() {
                    *v = *v / slots as f64;
                }
                assert_eq!(staged, whole, "inverse, slots={slots} split={split}");
            }
        }
    }

    #[test]
    fn forward_matches_canonical_embedding() {
        // inverse() produces "complexified" coefficients c_j + i*c_{j+n};
        // check that forward() of real coefficient pairs equals the true
        // canonical embedding of the real polynomial.
        let slots = 16;
        let fft = SpecialFft::new(slots);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let coeffs: Vec<f64> = (0..2 * slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut vals: Vec<Complex> = (0..slots)
            .map(|j| Complex::new(coeffs[j], coeffs[j + slots]))
            .collect();
        fft.forward(&mut vals);
        let reference = fft.embed_reference(&coeffs);
        for (a, b) in vals.iter().zip(&reference) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_of_embedding_recovers_real_coefficients() {
        // Round-trip through encode direction: slots -> coeffs must give the
        // complexified layout whose forward matches the original slots, and
        // whose implied length-2n real coefficient vector is real (exact by
        // construction).
        let slots = 32;
        let fft = SpecialFft::new(slots);
        let slots_vals = rand_slots(slots, 9);
        let mut v = slots_vals.clone();
        fft.inverse(&mut v);
        // Real coefficients: re -> c[0..n], im -> c[n..2n].
        let coeffs: Vec<f64> = v
            .iter()
            .map(|c| c.re)
            .chain(v.iter().map(|c| c.im))
            .collect();
        let emb = fft.embed_reference(&coeffs);
        for (a, b) in emb.iter().zip(&slots_vals) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }
}
