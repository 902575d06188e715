//! Configuration types for the ZFP-style compressor.

use foresight_util::{Error, Result};

/// Logical dimensions of the input array: the workspace's one shape
/// type (x fastest).
pub use foresight_util::Dims;

/// Compression mode.
///
/// cuZFP at the paper's time supported only [`ZfpMode::FixedRate`]
/// (§IV-B-1); precision and accuracy modes are implemented as the
/// CPU library's counterparts for completeness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// Exactly `rate` bits per value (e.g. rate 4 on f32 is ratio 8x).
    FixedRate(f64),
    /// Keep the most significant `precision` bit planes of every block.
    FixedPrecision(u32),
    /// Keep enough planes that absolute error stays below the tolerance.
    FixedAccuracy(f64),
}

impl ZfpMode {
    /// Stream tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            ZfpMode::FixedRate(_) => 0,
            ZfpMode::FixedPrecision(_) => 1,
            ZfpMode::FixedAccuracy(_) => 2,
        }
    }

    /// Numeric parameter stored in the stream header.
    pub fn param(&self) -> f64 {
        match *self {
            ZfpMode::FixedRate(r) => r,
            ZfpMode::FixedPrecision(p) => p as f64,
            ZfpMode::FixedAccuracy(t) => t,
        }
    }

    /// Reconstructs a mode from its tag and parameter.
    pub fn from_tag(tag: u8, param: f64) -> Option<Self> {
        match tag {
            0 => Some(ZfpMode::FixedRate(param)),
            1 => Some(ZfpMode::FixedPrecision(param as u32)),
            2 => Some(ZfpMode::FixedAccuracy(param)),
            _ => None,
        }
    }
}

/// Full compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZfpConfig {
    /// Compression mode.
    pub mode: ZfpMode,
}

impl ZfpConfig {
    /// Fixed-rate mode at `rate` bits/value.
    pub fn rate(rate: f64) -> Self {
        Self { mode: ZfpMode::FixedRate(rate) }
    }

    /// Fixed-precision mode keeping `p` bit planes.
    pub fn precision(p: u32) -> Self {
        Self { mode: ZfpMode::FixedPrecision(p) }
    }

    /// Fixed-accuracy mode with absolute tolerance `tol`.
    pub fn accuracy(tol: f64) -> Self {
        Self { mode: ZfpMode::FixedAccuracy(tol) }
    }

    /// Validates mode parameters.
    pub fn validate(&self) -> Result<()> {
        match self.mode {
            ZfpMode::FixedRate(r) => {
                if !(r.is_finite() && r > 0.0 && r <= 64.0) {
                    return Err(Error::invalid(format!("rate must be in (0, 64], got {r}")));
                }
            }
            ZfpMode::FixedPrecision(p) => {
                if p == 0 || p > 64 {
                    return Err(Error::invalid(format!("precision must be in [1, 64], got {p}")));
                }
            }
            ZfpMode::FixedAccuracy(t) => {
                if !(t.is_finite() && t > 0.0) {
                    return Err(Error::invalid(format!(
                        "tolerance must be finite and positive, got {t}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_basics() {
        assert_eq!(Dims::D3(4, 5, 6).len(), 120);
        assert_eq!(Dims::D2(4, 5).extents(), [4, 5, 1]);
        assert_eq!(Dims::D1(9).ndim(), 1);
    }

    #[test]
    fn mode_tag_roundtrip() {
        for m in [ZfpMode::FixedRate(3.5), ZfpMode::FixedPrecision(17), ZfpMode::FixedAccuracy(0.25)]
        {
            let back = ZfpMode::from_tag(m.tag(), m.param()).unwrap();
            assert_eq!(back, m);
        }
        assert!(ZfpMode::from_tag(9, 1.0).is_none());
    }

    #[test]
    fn validation() {
        assert!(ZfpConfig::rate(4.0).validate().is_ok());
        assert!(ZfpConfig::rate(0.0).validate().is_err());
        assert!(ZfpConfig::rate(100.0).validate().is_err());
        assert!(ZfpConfig::precision(0).validate().is_err());
        assert!(ZfpConfig::accuracy(-1.0).validate().is_err());
    }
}
