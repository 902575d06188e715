//! The shape of an array, shared by both codecs, the `.fstr` store, the
//! scheduler and the simulated-GPU backend.
//!
//! One type, x fastest everywhere: `index = x + nx*(y + ny*z)`. The codec
//! crates re-export it as `lossy_sz::Dims` / `lossy_zfp::Dims`, the store
//! as `FieldShape`, the framework as `foresight::codec::Shape`; no layer
//! converts between shape types. [`Region`] is a box inside such an
//! array, the unit of a store read.

use crate::{Error, Result};

/// Logical dimensions of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dims {
    /// 1-D array of `n` values.
    D1(usize),
    /// 2-D array, `nx` fastest.
    D2(usize, usize),
    /// 3-D array, `nx` fastest: `index = x + nx*(y + ny*z)`.
    D3(usize, usize, usize),
}

impl Dims {
    /// 1-D shape of `n` values.
    pub fn d1(n: usize) -> Self {
        Dims::D1(n)
    }

    /// 2-D shape, `nx` fastest.
    pub fn d2(nx: usize, ny: usize) -> Self {
        Dims::D2(nx, ny)
    }

    /// 3-D shape, `nx` fastest.
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Self {
        Dims::D3(nx, ny, nz)
    }

    /// The `ndim`-dimensional shape over the leading extents of `ext`
    /// (the rest are ignored), or `None` unless `ndim` is 1, 2 or 3.
    pub fn from_ndim(ndim: u8, ext: [usize; 3]) -> Option<Self> {
        match ndim {
            1 => Some(Dims::D1(ext[0])),
            2 => Some(Dims::D2(ext[0], ext[1])),
            3 => Some(Dims::D3(ext[0], ext[1], ext[2])),
            _ => None,
        }
    }

    /// Builds a shape from a dimensionality tag and raw extents,
    /// rejecting zero extents, a bad tag, and non-1 extents on unused
    /// axes. This is the untrusted-input constructor the store's
    /// directory parser uses.
    pub fn from_parts(ndim: u8, ext: [usize; 3]) -> Result<Self> {
        let dims = Dims::from_ndim(ndim, ext)
            .ok_or_else(|| Error::corrupt(format!("field ndim {ndim} not in 1..=3")))?;
        for (i, &e) in ext.iter().enumerate() {
            if e == 0 {
                return Err(Error::corrupt(format!("field extent {i} is zero")));
            }
            if i >= ndim as usize && e != 1 {
                return Err(Error::corrupt(format!(
                    "extent {i} = {e} on an unused axis (ndim {ndim})"
                )));
            }
        }
        Ok(dims)
    }

    /// Total number of values, saturating at `usize::MAX`: a shape whose
    /// count overflows never matches a real buffer length.
    pub fn len(&self) -> usize {
        self.checked_len().unwrap_or(usize::MAX)
    }

    /// True when the array holds no values.
    pub fn is_empty(&self) -> bool {
        self.extents().contains(&0)
    }

    /// Total number of values, or `None` on arithmetic overflow — for
    /// dims that come from a caller or an untrusted header.
    pub fn checked_len(&self) -> Option<usize> {
        let [nx, ny, nz] = self.extents();
        nx.checked_mul(ny)?.checked_mul(nz)
    }

    /// Checks that `n` values fill these dims exactly; an overflowing
    /// value count never matches.
    pub fn check_len(&self, n: usize) -> Result<()> {
        if self.checked_len() != Some(n) {
            return Err(Error::invalid(format!("data length {n} does not match dims {self:?}")));
        }
        Ok(())
    }

    /// Number of dimensions (1, 2, or 3).
    pub fn ndim(&self) -> u8 {
        match self {
            Dims::D1(_) => 1,
            Dims::D2(..) => 2,
            Dims::D3(..) => 3,
        }
    }

    /// Extents as `[nx, ny, nz]` (unused axes are 1).
    pub fn extents(&self) -> [usize; 3] {
        match *self {
            Dims::D1(n) => [n, 1, 1],
            Dims::D2(nx, ny) => [nx, ny, 1],
            Dims::D3(nx, ny, nz) => [nx, ny, nz],
        }
    }

    /// The same dimensionality over new extents (unused axes ignored).
    pub fn with_extents(&self, ext: [usize; 3]) -> Self {
        match self {
            Dims::D1(_) => Dims::D1(ext[0]),
            Dims::D2(..) => Dims::D2(ext[0], ext[1]),
            Dims::D3(..) => Dims::D3(ext[0], ext[1], ext[2]),
        }
    }
}

/// Half-open axis-aligned box of values inside an array: `lo[i] <=
/// coordinate < hi[i]` on each axis. Unused axes of lower-dimensional
/// arrays use `lo = 0, hi = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Inclusive lower corner.
    pub lo: [usize; 3],
    /// Exclusive upper corner.
    pub hi: [usize; 3],
}

impl Region {
    /// A region from corners, rejecting empty or inverted boxes.
    pub fn new(lo: [usize; 3], hi: [usize; 3]) -> Result<Self> {
        for i in 0..3 {
            if hi[i] <= lo[i] {
                return Err(Error::invalid(format!(
                    "region axis {i} is empty or inverted ({}..{})",
                    lo[i], hi[i]
                )));
            }
        }
        Ok(Self { lo, hi })
    }

    /// The region covering an entire array.
    pub fn full(shape: Dims) -> Self {
        Self { lo: [0, 0, 0], hi: shape.extents() }
    }

    /// Region extents per axis.
    pub fn extents(&self) -> [usize; 3] {
        [self.hi[0] - self.lo[0], self.hi[1] - self.lo[1], self.hi[2] - self.lo[2]]
    }

    /// Number of values in the region, or `None` on overflow.
    pub fn checked_len(&self) -> Option<usize> {
        let e = self.extents();
        e[0].checked_mul(e[1])?.checked_mul(e[2])
    }

    /// Validates that the region lies inside `shape`.
    pub fn validate_in(&self, shape: Dims) -> Result<()> {
        for (i, &e) in shape.extents().iter().enumerate() {
            if self.hi[i] > e {
                return Err(Error::invalid(format!(
                    "region axis {i} reaches {} but the field extent is {}",
                    self.hi[i], e
                )));
            }
        }
        Ok(())
    }

    /// True when `self` equals the whole of `shape`.
    pub fn is_full(&self, shape: Dims) -> bool {
        self.lo == [0, 0, 0] && self.hi == shape.extents()
    }
}

/// `x0:x1,y0:y1,z0:z1`: one to three half-open `lo:hi` spans; missing
/// trailing axes are `0:1`.
impl std::str::FromStr for Region {
    type Err = Error;

    fn from_str(spec: &str) -> Result<Self> {
        let bad = || Error::invalid(format!("bad region '{spec}' (want x0:x1,y0:y1,z0:z1)"));
        let (mut lo, mut hi) = ([0usize; 3], [1usize; 3]);
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() > 3 {
            return Err(bad());
        }
        for (i, part) in parts.iter().enumerate() {
            let (a, b) = part.split_once(':').ok_or_else(bad)?;
            lo[i] = a.trim().parse().map_err(|_| bad())?;
            hi[i] = b.trim().parse().map_err(|_| bad())?;
        }
        Region::new(lo, hi)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (lo, hi) = (self.lo, self.hi);
        write!(f, "{}:{},{}:{},{}:{}", lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_parse_from_spans() {
        let r: Region = "8:24,8:24,8:24".parse().unwrap();
        assert_eq!((r.lo, r.hi), ([8, 8, 8], [24, 24, 24]));
        assert_eq!(r.to_string().parse::<Region>().unwrap(), r);
        let r: Region = "2:5".parse().unwrap();
        assert_eq!((r.lo, r.hi), ([2, 0, 0], [5, 1, 1]));
        for bad in ["", "1", "1:x", "4:2", "0:1,0:1,0:1,0:1"] {
            assert!(bad.parse::<Region>().is_err(), "{bad}");
        }
    }

    #[test]
    fn constructors_and_with_extents() {
        assert_eq!(Dims::d3(2, 3, 4), Dims::D3(2, 3, 4));
        assert_eq!(Dims::D2(7, 8).with_extents([3, 2, 9]), Dims::D2(3, 2));
        assert!(Dims::D3(4, 0, 2).is_empty() && !Dims::D1(1).is_empty());
        assert_eq!(Dims::from_ndim(1, [5, 9, 9]), Some(Dims::D1(5)));
        assert_eq!(Dims::from_ndim(0, [5, 9, 9]), None);
    }

    #[test]
    fn checked_len_and_check_len_refuse_overflow() {
        let huge = Dims::D3(usize::MAX, 2, 1);
        assert_eq!(huge.checked_len(), None);
        assert!(matches!(huge.check_len(8), Err(Error::InvalidArgument(_))));
        assert!(Dims::D2(4, 2).check_len(8).is_ok());
        let err = Dims::D2(4, 2).check_len(7).unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::invalid("data length 7 does not match dims D2(4, 2)").to_string()
        );
    }
}
