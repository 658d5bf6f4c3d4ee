//! Plaintext and ciphertext containers.

use cl_rns::RnsPoly;

/// An encoded (but not encrypted) CKKS message: a scaled integer polynomial.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    pub(crate) poly: RnsPoly,
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

impl Plaintext {
    /// The underlying RNS polynomial (NTT form).
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// The level (number of RNS limbs) this plaintext is encoded at.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The encoding scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A CKKS ciphertext: two RNS polynomials `(c0, c1)` with
/// `c0 + c1·s ≈ scale·message` (Sec. 2.2), plus its level and scale.
///
/// Each ciphertext also carries a secret-key-free *noise estimate*
/// (`log2` of the absolute noise magnitude), updated analytically by every
/// homomorphic operation and consumed by
/// [`CkksContext::budget_bits`](crate::CkksContext::budget_bits) and the
/// [`GuardrailPolicy`](crate::GuardrailPolicy)'s budget floor. The estimate
/// is metadata: it does not participate in equality comparisons.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    pub(crate) level: usize,
    pub(crate) scale: f64,
    /// Analytic estimate of `log2(noise magnitude)`; `0.0` means "at most
    /// one coefficient unit" (e.g. a trivial encryption).
    pub(crate) noise_bits_est: f64,
}

impl PartialEq for Ciphertext {
    /// Compares payload (polynomials, level, scale) only; the noise
    /// estimate is bookkeeping and two ciphertexts with identical payloads
    /// are the same ciphertext regardless of how their noise was tracked.
    fn eq(&self, other: &Self) -> bool {
        self.c0 == other.c0
            && self.c1 == other.c1
            && self.level == other.level
            && self.scale == other.scale
    }
}

impl Ciphertext {
    /// The `c0` polynomial (NTT form).
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// The `c1` polynomial (NTT form).
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Current level: the number of RNS limbs per polynomial (the paper's
    /// remaining multiplicative budget `L`).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The analytic noise estimate: `log2` of the (absolute) noise
    /// magnitude this ciphertext is believed to carry. Tracked without the
    /// secret key; validated against the exact
    /// [`noise_bits`](crate::CkksContext::noise_bits) oracle in tests.
    pub fn noise_estimate_bits(&self) -> f64 {
        self.noise_bits_est
    }

    /// Payload size in machine words (both polynomials).
    pub fn num_words(&self) -> usize {
        self.c0.num_words() + self.c1.num_words()
    }

    /// Overrides the recorded scale (advanced; used by bootstrapping to
    /// reinterpret values, e.g. reading `m·Δ + q0·I` as `(m·Δ)/q0 + I` by
    /// recording the scale as `q0`). The absolute noise magnitude — and
    /// therefore the noise estimate — is unchanged by reinterpretation.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Overrides the tracked noise estimate (advanced; used when a
    /// ciphertext is assembled from raw parts, e.g. bootstrapping's
    /// ModRaise, where the caller knows the true noise better than any
    /// generic default).
    pub fn with_noise_bits(mut self, bits: f64) -> Self {
        self.noise_bits_est = bits;
        self
    }
}
