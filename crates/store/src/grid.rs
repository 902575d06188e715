//! Field shapes, regions and the chunk grid: the workspace's one
//! `Dims`, `Region` and `Tiles` under the store's names. A field is an
//! up-to-3-D array (x fastest) cut into fixed-shape chunks, clamped at
//! the high edge of each axis. A chunk shape that is zero on some axis,
//! or not 1 on an axis the field does not use, is an `InvalidArgument`
//! from [`ChunkGrid::new`]; the directory parser reports it as `Corrupt`.

/// Logical shape of a stored field (unused axes report extent 1).
pub use foresight_util::Dims as FieldShape;
/// Half-open box of values inside a field.
pub use foresight_util::Region;
/// The chunk decomposition of one field: field shape plus chunk shape.
pub use foresight_util::Tiles as ChunkGrid;

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
