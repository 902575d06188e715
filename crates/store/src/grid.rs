//! Field shapes, regions, and the chunk grid.
//!
//! A field is an up-to-3-D array (x fastest: `index = x + nx*(y + ny*z)`)
//! cut into fixed-shape chunks. Chunks at the high edge of an axis are
//! clamped to the field boundary, so every value belongs to exactly one
//! chunk. All grid math is checked: shapes and chunk shapes that would
//! overflow a `usize` product surface as [`Error::InvalidArgument`] (or
//! [`Error::Corrupt`] when they came from an archive directory), never as
//! a wrapped multiplication.

use foresight_util::{Error, Result};

/// Logical shape of a stored field: the workspace's one [`Dims`].
///
/// Unused axes always report extent 1, so 1-D/2-D fields embed in the
/// same 3-D grid math while keeping the exact dimensionality their chunks
/// were compressed with.
pub use foresight_util::Dims as FieldShape;

/// Half-open axis-aligned box of values inside a field: `lo[i] <=
/// coordinate < hi[i]` on each axis. Unused axes of lower-dimensional
/// fields use `lo = 0, hi = 1`.
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

    /// The region covering an entire field.
    pub fn full(shape: FieldShape) -> Self {
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
    pub fn validate_in(&self, shape: FieldShape) -> Result<()> {
        let ext = shape.extents();
        for (i, &e) in ext.iter().enumerate() {
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
    pub fn is_full(&self, shape: FieldShape) -> bool {
        self.lo == [0, 0, 0] && self.hi == shape.extents()
    }
}

/// The chunk decomposition of one field: a fixed chunk shape tiling the
/// field, with boundary chunks clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGrid {
    shape: FieldShape,
    chunk: [usize; 3],
}

impl ChunkGrid {
    /// Builds the grid, rejecting zero chunk extents and chunk extents
    /// on unused axes.
    pub fn new(shape: FieldShape, chunk: [usize; 3]) -> Result<Self> {
        for (i, &c) in chunk.iter().enumerate() {
            if c == 0 {
                return Err(Error::corrupt(format!("chunk extent {i} is zero")));
            }
            if i >= shape.ndim() as usize && c != 1 {
                return Err(Error::corrupt(format!(
                    "chunk extent {i} = {c} on an unused axis (ndim {})",
                    shape.ndim()
                )));
            }
        }
        Ok(Self { shape, chunk })
    }

    /// The field shape this grid tiles.
    pub fn shape(&self) -> FieldShape {
        self.shape
    }

    /// The nominal (unclamped) chunk shape.
    pub fn chunk(&self) -> [usize; 3] {
        self.chunk
    }

    /// Chunks per axis.
    pub fn counts(&self) -> [usize; 3] {
        let ext = self.shape.extents();
        [
            ext[0].div_ceil(self.chunk[0]),
            ext[1].div_ceil(self.chunk[1]),
            ext[2].div_ceil(self.chunk[2]),
        ]
    }

    /// Total number of chunks, or `None` on overflow.
    pub fn checked_n_chunks(&self) -> Option<usize> {
        let c = self.counts();
        c[0].checked_mul(c[1])?.checked_mul(c[2])
    }

    /// Linear chunk id of grid coordinates (x fastest, mirroring value
    /// order).
    pub fn linear(&self, idx: [usize; 3]) -> usize {
        let c = self.counts();
        idx[0] + c[0] * (idx[1] + c[1] * idx[2])
    }

    /// Origin (lowest corner) of chunk `idx` in field coordinates.
    pub fn origin(&self, idx: [usize; 3]) -> [usize; 3] {
        [idx[0] * self.chunk[0], idx[1] * self.chunk[1], idx[2] * self.chunk[2]]
    }

    /// The (boundary-clamped) shape of chunk `idx`, preserving the
    /// field's dimensionality.
    pub fn chunk_shape_at(&self, idx: [usize; 3]) -> FieldShape {
        let ext = self.shape.extents();
        let o = self.origin(idx);
        let ce = [
            self.chunk[0].min(ext[0] - o[0]),
            self.chunk[1].min(ext[1] - o[1]),
            self.chunk[2].min(ext[2] - o[2]),
        ];
        self.shape.with_extents(ce)
    }

    /// Grid coordinates of every chunk intersecting `region`, in linear
    /// (x-fastest) order.
    pub fn intersecting(&self, region: &Region) -> Vec<[usize; 3]> {
        let counts = self.counts();
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for i in 0..3 {
            lo[i] = region.lo[i] / self.chunk[i];
            hi[i] = ((region.hi[i] - 1) / self.chunk[i]).min(counts[i] - 1);
        }
        let mut out = Vec::new();
        for cz in lo[2]..=hi[2] {
            for cy in lo[1]..=hi[1] {
                for cx in lo[0]..=hi[0] {
                    out.push([cx, cy, cz]);
                }
            }
        }
        out
    }

    /// Copies chunk `idx` out of the full field array into a dense
    /// chunk-local buffer (x fastest within the chunk).
    pub fn gather(&self, data: &[f32], idx: [usize; 3]) -> Vec<f32> {
        let ext = self.shape.extents();
        let o = self.origin(idx);
        let ce = self.chunk_shape_at(idx).extents();
        let mut out = Vec::with_capacity(ce[0] * ce[1] * ce[2]);
        for z in 0..ce[2] {
            for y in 0..ce[1] {
                let row = o[0] + ext[0] * (o[1] + y + ext[1] * (o[2] + z));
                out.extend_from_slice(&data[row..row + ce[0]]);
            }
        }
        out
    }

    /// Copies the intersection of chunk `idx` and `region` from the
    /// chunk-local buffer `chunk_values` into `out`, which is laid out
    /// densely over `region` (x fastest within the region).
    pub fn scatter_into(
        &self,
        chunk_values: &[f32],
        idx: [usize; 3],
        region: &Region,
        out: &mut [f32],
    ) {
        let o = self.origin(idx);
        let ce = self.chunk_shape_at(idx).extents();
        let re = region.extents();
        // Intersection of the chunk box and the region, in field coords.
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for i in 0..3 {
            lo[i] = region.lo[i].max(o[i]);
            hi[i] = region.hi[i].min(o[i] + ce[i]);
        }
        if (0..3).any(|i| hi[i] <= lo[i]) {
            return;
        }
        let run = hi[0] - lo[0];
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                let src = (lo[0] - o[0]) + ce[0] * ((y - o[1]) + ce[1] * (z - o[2]));
                let dst = (lo[0] - region.lo[0])
                    + re[0] * ((y - region.lo[1]) + re[1] * (z - region.lo[2]));
                out[dst..dst + run].copy_from_slice(&chunk_values[src..src + run]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_round_trips_dims() {
        // One type: a field shape is the codecs' dims, with no conversion.
        assert_eq!(FieldShape::d1(7), lossy_sz::Dims::D1(7));
        assert_eq!(FieldShape::d2(4, 5), lossy_sz::Dims::D2(4, 5));
        assert_eq!(FieldShape::d3(2, 3, 4), lossy_zfp::Dims::D3(2, 3, 4));
        assert_eq!(FieldShape::d3(2, 3, 4).len(), 24);
    }

    #[test]
    fn from_parts_rejects_bad_shapes() {
        assert!(FieldShape::from_parts(0, [1, 1, 1]).is_err());
        assert!(FieldShape::from_parts(4, [1, 1, 1]).is_err());
        assert!(FieldShape::from_parts(2, [4, 0, 1]).is_err());
        assert!(FieldShape::from_parts(1, [4, 2, 1]).is_err(), "extent on unused axis");
        assert!(FieldShape::from_parts(3, [4, 2, 2]).is_ok());
    }

    #[test]
    fn region_validation() {
        let shape = FieldShape::d3(8, 8, 8);
        assert!(Region::new([0, 0, 0], [0, 1, 1]).is_err());
        assert!(Region::new([2, 2, 2], [2, 3, 3]).is_err());
        let r = Region::new([1, 2, 3], [4, 5, 6]).unwrap();
        assert_eq!(r.checked_len(), Some(27));
        assert!(r.validate_in(shape).is_ok());
        let r = Region::new([0, 0, 0], [9, 1, 1]).unwrap();
        assert!(r.validate_in(shape).is_err());
        assert!(Region::full(shape).is_full(shape));
    }

    #[test]
    fn grid_counts_and_clamping() {
        let g = ChunkGrid::new(FieldShape::d3(10, 8, 3), [4, 4, 4]).unwrap();
        assert_eq!(g.counts(), [3, 2, 1]);
        assert_eq!(g.checked_n_chunks(), Some(6));
        assert_eq!(g.chunk_shape_at([0, 0, 0]).extents(), [4, 4, 3]);
        assert_eq!(g.chunk_shape_at([2, 1, 0]).extents(), [2, 4, 3]);
        assert_eq!(g.origin([2, 1, 0]), [8, 4, 0]);
        assert_eq!(g.linear([2, 1, 0]), 5);
    }

    #[test]
    fn intersecting_chunks_cover_region_only() {
        let g = ChunkGrid::new(FieldShape::d3(16, 16, 16), [4, 4, 4]).unwrap();
        let r = Region::new([3, 0, 5], [5, 4, 9]).unwrap();
        let hits = g.intersecting(&r);
        // x spans chunks 0..=1, y chunk 0, z chunks 1..=2.
        assert_eq!(hits.len(), 4);
        assert!(hits.contains(&[0, 0, 1]) && hits.contains(&[1, 0, 2]));
    }

    #[test]
    fn gather_scatter_round_trip() {
        let shape = FieldShape::d3(6, 5, 4);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let g = ChunkGrid::new(shape, [4, 2, 3]).unwrap();
        let region = Region::full(shape);
        let mut out = vec![f32::NAN; shape.len()];
        for idx in g.intersecting(&region) {
            let chunk = g.gather(&data, idx);
            g.scatter_into(&chunk, idx, &region, &mut out);
        }
        assert_eq!(data, out);
    }

    #[test]
    fn scatter_into_subregion_matches_slice() {
        let shape = FieldShape::d3(8, 8, 8);
        let data: Vec<f32> = (0..shape.len()).map(|i| (i as f32).sqrt()).collect();
        let g = ChunkGrid::new(shape, [3, 3, 3]).unwrap();
        let region = Region::new([2, 1, 4], [7, 6, 8]).unwrap();
        let re = region.extents();
        let mut out = vec![f32::NAN; region.checked_len().unwrap()];
        for idx in g.intersecting(&region) {
            let chunk = g.gather(&data, idx);
            g.scatter_into(&chunk, idx, &region, &mut out);
        }
        for z in 0..re[2] {
            for y in 0..re[1] {
                for x in 0..re[0] {
                    let src = (region.lo[0] + x)
                        + 8 * ((region.lo[1] + y) + 8 * (region.lo[2] + z));
                    let dst = x + re[0] * (y + re[1] * z);
                    assert_eq!(out[dst], data[src]);
                }
            }
        }
    }
}
