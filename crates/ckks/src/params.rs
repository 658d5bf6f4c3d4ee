//! CKKS parameter sets.

use std::fmt;

/// Parameters of a CKKS instance.
///
/// `levels` is the paper's multiplicative budget `L`: the number of
/// ciphertext moduli in the chain. `special_limbs` is the number of special
/// moduli `P` available to boosted keyswitching (the paper's 1-digit variant
/// needs `special_limbs == levels`; `t`-digit needs `ceil(levels/t)`).
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    pub(crate) n: usize,
    pub(crate) levels: usize,
    pub(crate) special_limbs: usize,
    pub(crate) limb_bits: u32,
    pub(crate) scale_bits: u32,
}

impl CkksParams {
    /// Starts building a parameter set.
    pub fn builder() -> CkksParamsBuilder {
        CkksParamsBuilder::default()
    }

    /// Ring degree `N`.
    pub fn ring_degree(&self) -> usize {
        self.n
    }

    /// Number of plaintext slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// Maximum multiplicative budget `L` (number of ciphertext moduli).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of special (keyswitching) moduli.
    pub fn special_limbs(&self) -> usize {
        self.special_limbs
    }

    /// Bit width of each RNS modulus (the paper's hardware uses 28).
    pub fn limb_bits(&self) -> u32 {
        self.limb_bits
    }

    /// Default encoding scale `2^scale_bits`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Total `log2(QP)` in bits (levels + special limbs), the quantity the
    /// security model constrains.
    pub fn log_qp(&self) -> u32 {
        (self.levels + self.special_limbs) as u32 * self.limb_bits
    }

    /// Bytes per ciphertext at level `level`, using the hardware's
    /// `limb_bits`-bit packing (2 polynomials x level limbs x N coefficients).
    pub fn ciphertext_bytes(&self, level: usize) -> usize {
        2 * level * self.n * self.limb_bits as usize / 8
    }
}

/// Builder for [`CkksParams`].
#[derive(Debug, Clone, Default)]
pub struct CkksParamsBuilder {
    n: Option<usize>,
    levels: Option<usize>,
    special_limbs: Option<usize>,
    limb_bits: Option<u32>,
    scale_bits: Option<u32>,
}

/// Error from parameter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamsError(pub(crate) String);

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CKKS parameters: {}", self.0)
    }
}

impl std::error::Error for ParamsError {}

impl CkksParamsBuilder {
    /// Sets the ring degree `N` (power of two, >= 8).
    pub fn ring_degree(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the number of ciphertext moduli (the multiplicative budget).
    pub fn levels(mut self, l: usize) -> Self {
        self.levels = Some(l);
        self
    }

    /// Sets the number of special keyswitching moduli.
    pub fn special_limbs(mut self, k: usize) -> Self {
        self.special_limbs = Some(k);
        self
    }

    /// Sets the RNS modulus width in bits (8..=59).
    pub fn limb_bits(mut self, bits: u32) -> Self {
        self.limb_bits = Some(bits);
        self
    }

    /// Sets the default encoding scale to `2^bits`.
    pub fn scale_bits(mut self, bits: u32) -> Self {
        self.scale_bits = Some(bits);
        self
    }

    /// Validates and builds the parameter set.
    ///
    /// # Errors
    ///
    /// Returns an error when a field is missing or out of range.
    pub fn build(self) -> Result<CkksParams, ParamsError> {
        let n = self.n.ok_or_else(|| ParamsError("ring_degree not set".into()))?;
        let levels = self.levels.ok_or_else(|| ParamsError("levels not set".into()))?;
        let special_limbs = self.special_limbs.unwrap_or(levels);
        let limb_bits = self.limb_bits.unwrap_or(28);
        let scale_bits = self.scale_bits.unwrap_or(limb_bits);
        if !n.is_power_of_two() || n < 8 {
            return Err(ParamsError(format!(
                "ring degree must be a power of two >= 8, got {n}"
            )));
        }
        if levels == 0 {
            return Err(ParamsError("levels must be >= 1".into()));
        }
        if !(8..=59).contains(&limb_bits) {
            return Err(ParamsError(format!(
                "limb_bits must be in [8, 59], got {limb_bits}"
            )));
        }
        if scale_bits as usize >= 2 * limb_bits as usize {
            return Err(ParamsError(
                "scale_bits must be below twice the limb width".into(),
            ));
        }
        Ok(CkksParams {
            n,
            levels,
            special_limbs,
            limb_bits,
            scale_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let p = CkksParams::builder()
            .ring_degree(64)
            .levels(4)
            .build()
            .unwrap();
        assert_eq!(p.special_limbs(), 4);
        assert_eq!(p.limb_bits(), 28);
        assert_eq!(p.slots(), 32);
        assert_eq!(p.log_qp(), 8 * 28);
    }

    #[test]
    fn ciphertext_bytes_matches_paper_scale() {
        // N=64K, L=60, 28-bit words: ~26.9 MB per ciphertext (Sec. 6 says
        // "each ciphertext is 26 MB").
        let p = CkksParams::builder()
            .ring_degree(1 << 16)
            .levels(60)
            .special_limbs(30)
            .build()
            .unwrap();
        let mb = p.ciphertext_bytes(60) as f64 / (1024.0 * 1024.0);
        assert!((26.0..28.0).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(CkksParams::builder().levels(2).build().is_err());
        assert!(CkksParams::builder()
            .ring_degree(100)
            .levels(2)
            .build()
            .is_err());
        assert!(CkksParams::builder()
            .ring_degree(64)
            .levels(0)
            .build()
            .is_err());
        assert!(CkksParams::builder()
            .ring_degree(64)
            .levels(2)
            .limb_bits(62)
            .build()
            .is_err());
        assert!(CkksParams::builder()
            .ring_degree(64)
            .levels(2)
            .limb_bits(30)
            .scale_bits(60)
            .build()
            .is_err());
    }
}
