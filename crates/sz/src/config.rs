//! Configuration types for the SZ-style compressor.

use foresight_util::{Error, Result};

/// Logical dimensions of the input array: the workspace's one shape type.
///
/// GPU-SZ in the paper only supports 3-D inputs; the HACC 1-D arrays are
/// reshaped to 3-D before compression (paper §IV-B-4). This implementation
/// supports 1-D/2-D/3-D natively, and the benchmark harness reproduces the
/// paper's reshaping through `cosmo-data`'s dimension-conversion helpers.
pub use foresight_util::Dims;

/// Error-bound mode (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute: `|x' - x| <= eb`.
    Abs(f64),
    /// Value-range relative: `|x' - x| <= rel * (max - min)`.
    Rel(f64),
    /// Point-wise relative: `|x' - x| <= pw * |x|`, implemented with the
    /// logarithmic transform of Liang et al. (paper §IV-B-4).
    PwRel(f64),
}

impl ErrorBound {
    /// Stream tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            ErrorBound::Abs(_) => 0,
            ErrorBound::Rel(_) => 1,
            ErrorBound::PwRel(_) => 2,
        }
    }

    /// Reconstructs a mode from its tag and parameter.
    pub fn from_tag(tag: u8, value: f64) -> Option<Self> {
        match tag {
            0 => Some(ErrorBound::Abs(value)),
            1 => Some(ErrorBound::Rel(value)),
            2 => Some(ErrorBound::PwRel(value)),
            _ => None,
        }
    }

    /// The numeric bound parameter.
    pub fn value(&self) -> f64 {
        match *self {
            ErrorBound::Abs(v) | ErrorBound::Rel(v) | ErrorBound::PwRel(v) => v,
        }
    }

    /// Validates positivity and finiteness.
    pub fn validate(&self) -> Result<()> {
        let v = self.value();
        if !(v.is_finite() && v > 0.0) {
            return Err(Error::invalid(format!("error bound must be finite and positive, got {v}")));
        }
        Ok(())
    }
}

/// Prediction scheme selection (SZ 2.x adaptive predictor, paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// First-order Lorenzo predictor on reconstructed neighbors.
    Lorenzo,
    /// Per-block linear regression `b0 + b1 x + b2 y + b3 z`.
    Regression,
    /// Choose per block whichever predictor has smaller sampled residuals.
    #[default]
    Adaptive,
}

/// Lossless backend applied to the entropy-coded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyBackend {
    /// Canonical Huffman only (SZ default).
    #[default]
    Huffman,
    /// Huffman followed by an LZSS pass over the payload bytes
    /// (stands in for SZ's Zstd stage).
    HuffmanLzss,
}

/// Full compressor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SzConfig {
    /// Error-bound mode and magnitude.
    pub mode: ErrorBound,
    /// Prediction scheme.
    pub predictor: PredictorKind,
    /// Cubic block edge (3-D), tile edge (2-D), or segment length scale
    /// (1-D uses `block_size^3` long segments — 32 768 values by default —
    /// so a block holds as many cells in every dimensionality).
    pub block_size: usize,
    /// Entropy/lossless backend.
    pub entropy: EntropyBackend,
    /// Quantization radius: codes span `[-(radius-1), radius-1]`.
    pub radius: u32,
}

impl Default for SzConfig {
    fn default() -> Self {
        Self {
            mode: ErrorBound::Abs(1e-3),
            predictor: PredictorKind::Adaptive,
            block_size: 32,
            entropy: EntropyBackend::Huffman,
            radius: 32768,
        }
    }
}

impl SzConfig {
    /// Convenience constructor for ABS mode with default everything else.
    pub fn abs(eb: f64) -> Self {
        Self { mode: ErrorBound::Abs(eb), ..Self::default() }
    }

    /// Convenience constructor for value-range-relative mode.
    pub fn rel(rel: f64) -> Self {
        Self { mode: ErrorBound::Rel(rel), ..Self::default() }
    }

    /// Convenience constructor for point-wise-relative mode.
    pub fn pw_rel(pw: f64) -> Self {
        Self { mode: ErrorBound::PwRel(pw), ..Self::default() }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.mode.validate()?;
        if self.block_size < 2 {
            return Err(Error::invalid("block_size must be at least 2"));
        }
        if self.radius < 2 || self.radius > 1 << 20 {
            return Err(Error::invalid("radius must be in [2, 2^20]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_len_and_extents() {
        assert_eq!(Dims::D1(10).len(), 10);
        assert_eq!(Dims::D2(4, 5).len(), 20);
        assert_eq!(Dims::D3(2, 3, 4).len(), 24);
        assert_eq!(Dims::D3(2, 3, 4).extents(), [2, 3, 4]);
        assert_eq!(Dims::D1(7).extents(), [7, 1, 1]);
        assert_eq!(Dims::D2(7, 8).ndim(), 2);
    }

    #[test]
    fn error_bound_validation() {
        assert!(ErrorBound::Abs(0.1).validate().is_ok());
        assert!(ErrorBound::Abs(0.0).validate().is_err());
        assert!(ErrorBound::Rel(-1.0).validate().is_err());
        assert!(ErrorBound::PwRel(f64::NAN).validate().is_err());
    }

    #[test]
    fn config_validation() {
        assert!(SzConfig::abs(1.0).validate().is_ok());
        let mut c = SzConfig::abs(1.0);
        c.block_size = 1;
        assert!(c.validate().is_err());
        let mut c = SzConfig::abs(1.0);
        c.radius = 1;
        assert!(c.validate().is_err());
    }
}
