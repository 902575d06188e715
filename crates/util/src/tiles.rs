//! One tiling: an x-fastest array cut into x-fastest, edge-clamped tiles.
//!
//! SZ's blocks, ZFP's `4^d` blocks and the `.fstr` store's chunks are one
//! thing: a tile edge laid over a [`Dims`] from the origin, tiles numbered
//! x fastest, the last tile on each axis clamped to the array. [`Tiles`]
//! checks the tile count once, when it is built, for header-derived and
//! caller-derived extents alike; maps tile numbers to grid indices,
//! origins, extents and array rows; and splits an output array into
//! slabs: runs of whole tile *layers* along the slowest used axis (the
//! highest axis whose extent exceeds 1). Every axis above that one has
//! extent 1, so a slab owns one contiguous range of the array, and
//! parallel decoders write through disjoint `&mut` slabs with no shared
//! pointer: disjointness is the borrow checker's.

use crate::{Dims, Error, Region, Result};
use rayon::prelude::*;
use std::ops::Range;

/// One tile: its lowest corner and its extent, clamped to the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Array coordinates `(x, y, z)` of the first cell.
    pub origin: [usize; 3],
    /// Cells per axis.
    pub size: [usize; 3],
}

impl Tile {
    /// Number of cells in the tile.
    pub fn cells(&self) -> usize {
        self.size.iter().product()
    }

    /// Array index (extents `ext`) of the first of local row `(j, k)`'s cells.
    #[inline]
    pub fn row_start(&self, ext: [usize; 3], j: usize, k: usize) -> usize {
        self.origin[0] + ext[0] * ((self.origin[1] + j) + ext[1] * (self.origin[2] + k))
    }

    /// `(array offset, length)` of each x-row of the tile, y then z.
    pub fn rows(self, ext: [usize; 3]) -> impl Iterator<Item = (usize, usize)> {
        let [sx, sy, sz] = self.size;
        (0..sz).flat_map(move |k| (0..sy).map(move |j| (self.row_start(ext, j, k), sx)))
    }

    /// Copies the part of the tile inside `region` from `values` (the
    /// tile's cells, x fastest) into `out`, which is laid out densely
    /// over `region` (x fastest).
    pub fn scatter_into(&self, values: &[f32], region: &Region, out: &mut [f32]) {
        let Tile { origin: o, size } = *self;
        let re = region.extents();
        let lo = [0, 1, 2].map(|i| region.lo[i].max(o[i]));
        let hi = [0, 1, 2].map(|i| region.hi[i].min(o[i] + size[i]));
        if (0..3).any(|i| hi[i] <= lo[i]) {
            return;
        }
        let run = hi[0] - lo[0];
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                let src = (lo[0] - o[0]) + size[0] * ((y - o[1]) + size[1] * (z - o[2]));
                let dst = (lo[0] - region.lo[0])
                    + re[0] * ((y - region.lo[1]) + re[1] * (z - region.lo[2]));
                out[dst..dst + run].copy_from_slice(&values[src..src + run]);
            }
        }
    }
}

/// A run of whole tile layers and the array values those tiles own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slab {
    /// Tile numbers in the slab.
    pub tiles: Range<usize>,
    /// Array indices the slab's tiles cover, contiguous.
    pub values: Range<usize>,
}

/// An array's shape tiled by a fixed edge (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiles {
    shape: Dims,
    edge: [usize; 3],
    counts: [usize; 3],
    len: usize,
    /// The slowest used axis, and the tiles and the array values of one
    /// tile layer along it.
    layering: (usize, usize, usize),
}

impl Tiles {
    /// Tiles `shape` with tiles of `edge` (at least 1, and 1 on unused axes).
    /// A bad edge, or a tile count (formed in `u128`) past `usize`, is an
    /// [`Error::InvalidArgument`].
    pub fn new(shape: Dims, edge: [usize; 3]) -> Result<Self> {
        let ndim = shape.ndim() as usize;
        for (i, &e) in edge.iter().enumerate() {
            if e == 0 || (i >= ndim && e != 1) {
                return Err(Error::invalid(format!(
                    "tile edge {i} = {e} is zero or on an unused axis (ndim {ndim})"
                )));
            }
        }
        let ext = shape.extents();
        let counts = [0, 1, 2].map(|i| ext[i].div_ceil(edge[i]));
        let len = (counts[0] as u128 * counts[1] as u128)
            .checked_mul(counts[2] as u128)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| Error::invalid(format!("{counts:?} tiles overflow a usize")))?;
        let axis = (0..3).rev().find(|&a| ext[a] > 1).unwrap_or(0);
        let layer_values = ext[..axis].iter().product::<usize>().saturating_mul(edge[axis]);
        let layering = (axis, counts[..axis].iter().product(), layer_values);
        Ok(Self { shape, edge, counts, len, layering })
    }

    /// Tiles `shape` with cubes of `edge` on its used axes.
    pub fn cubes(shape: Dims, edge: usize) -> Result<Self> {
        Self::new(shape, [0, 1, 2].map(|i| if i < shape.ndim() as usize { edge } else { 1 }))
    }

    /// The tiled array's shape.
    pub fn shape(&self) -> Dims {
        self.shape
    }

    /// The nominal (unclamped) tile edge.
    pub fn chunk(&self) -> [usize; 3] {
        self.edge
    }

    /// Tiles per axis.
    pub fn counts(&self) -> [usize; 3] {
        self.counts
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no tile.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tiles; always `Some` ([`Tiles::new`] checked it).
    pub fn checked_n_chunks(&self) -> Option<usize> {
        Some(self.len)
    }

    /// Tile number of grid index `idx`.
    pub fn linear(&self, idx: [usize; 3]) -> usize {
        idx[0] + self.counts[0] * (idx[1] + self.counts[1] * idx[2])
    }

    /// Grid index of tile number `i < len()`.
    pub fn grid_index(&self, i: usize) -> [usize; 3] {
        let [cx, cy, _] = self.counts;
        [i % cx, i / cx % cy, i / (cx * cy)]
    }

    /// Array coordinates of the first cell of the tile at grid index `idx`.
    pub fn origin(&self, idx: [usize; 3]) -> [usize; 3] {
        [0, 1, 2].map(|i| idx[i] * self.edge[i])
    }

    /// The tile whose first cell is `origin`, its extent clamped to the array.
    #[inline]
    pub fn tile_at(&self, origin: [usize; 3]) -> Tile {
        let ext = self.shape.extents();
        Tile { origin, size: [0, 1, 2].map(|i| self.edge[i].min(ext[i] - origin[i])) }
    }

    /// Tile number `i < len()`.
    pub fn tile(&self, i: usize) -> Tile {
        self.tile_at(self.origin(self.grid_index(i)))
    }

    /// The (clamped) shape of the tile at grid index `idx`, in the
    /// array's dimensionality.
    pub fn chunk_shape_at(&self, idx: [usize; 3]) -> Dims {
        self.shape.with_extents(self.tile_at(self.origin(idx)).size)
    }

    /// Origins of the tiles numbered `range`, in order. Stepped from one
    /// tile to the next — no division per tile — for the codecs' loops.
    pub fn origins(&self, range: Range<usize>) -> impl Iterator<Item = [usize; 3]> + '_ {
        let [nx, ny, _] = self.shape.extents();
        let [ex, ey, ez] = self.edge;
        let first = (!range.is_empty()).then(|| self.origin(self.grid_index(range.start)));
        std::iter::successors(first, move |&[x, y, z]| {
            Some(match (x + ex < nx, y + ey < ny) {
                (true, _) => [x + ex, y, z],
                (false, true) => [0, y + ey, z],
                (false, false) => [0, 0, z + ez],
            })
        })
        .take(range.len())
    }

    /// Every tile, in order.
    pub fn iter(&self) -> impl Iterator<Item = Tile> + '_ {
        self.origins(0..self.len).map(|o| self.tile_at(o))
    }

    /// `(array offset, length)` of each x-row of tile `i`.
    pub fn rows(&self, i: usize) -> impl Iterator<Item = (usize, usize)> {
        self.tile(i).rows(self.shape.extents())
    }

    /// Grid indices of every tile intersecting `region` (which must lie
    /// inside the array), in tile order.
    pub fn intersecting(&self, region: &Region) -> Vec<[usize; 3]> {
        let lo = [0, 1, 2].map(|i| region.lo[i] / self.edge[i]);
        let hi = [0, 1, 2].map(|i| ((region.hi[i] - 1) / self.edge[i]).min(self.counts[i] - 1));
        let row = move |y, z| (lo[0]..=hi[0]).map(move |x| [x, y, z]);
        (lo[2]..=hi[2]).flat_map(|z| (lo[1]..=hi[1]).flat_map(move |y| row(y, z))).collect()
    }

    /// Copies the tile at grid index `idx` out of the whole array `data`
    /// into a dense tile-local buffer (x fastest).
    pub fn gather(&self, data: &[f32], idx: [usize; 3]) -> Vec<f32> {
        let tile = self.tile_at(self.origin(idx));
        let mut out = Vec::with_capacity(tile.cells());
        for (at, n) in tile.rows(self.shape.extents()) {
            out.extend_from_slice(&data[at..at + n]);
        }
        out
    }

    /// Copies the part of the tile at grid index `idx` inside `region`
    /// from the tile-local buffer `tile_values` into `out`, which is laid
    /// out densely over `region` (x fastest).
    pub fn scatter_into(
        &self,
        tile_values: &[f32],
        idx: [usize; 3],
        region: &Region,
        out: &mut [f32],
    ) {
        self.tile_at(self.origin(idx)).scatter_into(tile_values, region, out)
    }

    /// Number of tile layers along the slowest used axis.
    pub fn layer_count(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        self.counts[self.layering.0]
    }

    /// The tile layers `layers` as one slab, clamped to the array.
    pub fn layers(&self, layers: Range<usize>) -> Slab {
        let (_, tiles, values) = self.layering;
        let (n_tiles, n_values) = (self.len, self.shape.len());
        let (a, b) = (layers.start, layers.end);
        Slab {
            tiles: a.saturating_mul(tiles).min(n_tiles)..b.saturating_mul(tiles).min(n_tiles),
            values: a.saturating_mul(values).min(n_values)..b.saturating_mul(values).min(n_values),
        }
    }

    /// The tile layers that `region` intersects, with this array placed
    /// at `at` inside the region's (larger) array, which it must overlap.
    pub fn layers_within(&self, region: &Region, at: [usize; 3]) -> Range<usize> {
        let (axis, ..) = self.layering;
        let e = self.edge[axis];
        let (lo, hi) = (region.lo[axis].saturating_sub(at[axis]), region.hi[axis] - at[axis]);
        if e.is_power_of_two() {
            // Block edges are powers of two, and a warm read plans every
            // chunk it touches: a shift costs a fraction of a divide.
            let s = e.trailing_zeros();
            return lo >> s..((hi >> s) + usize::from(hi & (e - 1) != 0)).min(self.counts[axis]);
        }
        lo / e..hi.div_ceil(e).min(self.counts[axis])
    }

    /// The box the tile layers `layers` cover, shifted by `at` (where
    /// this array starts inside a larger one).
    pub fn layer_box(&self, layers: Range<usize>, at: [usize; 3]) -> Tile {
        let (axis, ..) = self.layering;
        let ext = self.shape.extents();
        let lo = layers.start.saturating_mul(self.edge[axis]).min(ext[axis]);
        let hi = layers.end.saturating_mul(self.edge[axis]).min(ext[axis]);
        let mut tile = Tile { origin: at, size: ext };
        tile.origin[axis] += lo;
        tile.size[axis] = hi - lo;
        tile
    }

    /// The array cut into slabs of whole tile layers along the slowest
    /// used axis, as many layers to a slab as make at least `min_tiles`
    /// tiles (the last slab may hold fewer), in tile order; none when the
    /// array is empty.
    pub fn slabs(&self, min_tiles: usize) -> impl Iterator<Item = Slab> {
        let t = *self;
        let per = min_tiles.div_ceil(t.layering.1.max(1)).max(1);
        (0..t.layer_count().div_ceil(per))
            .map(move |s| t.layers(s.saturating_mul(per)..(s + 1).saturating_mul(per)))
    }

    /// Splits `out` (one element per array value) into [`Tiles::slabs`].
    pub fn split<'a, T>(&self, out: &'a mut [T], min_tiles: usize) -> Vec<(Slab, &'a mut [T])> {
        debug_assert_eq!(out.len(), self.shape.len());
        let mut rest = out;
        self.slabs(min_tiles)
            .map(|slab| {
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(slab.values.len());
                rest = tail;
                (slab, part)
            })
            .collect()
    }

    /// Runs `f(slab, its part of out)` for every slab of [`Tiles::split`]
    /// across the rayon workers. The lowest slab's error wins, so a decoder
    /// that stops at its first failing tile reports the lowest failing
    /// tile on any thread count.
    pub fn par_slabs<T: Send, E: Send>(
        &self,
        out: &mut [T],
        min_tiles: usize,
        f: impl Fn(Slab, &mut [T]) -> std::result::Result<(), E> + Sync,
    ) -> std::result::Result<(), E> {
        self.split(out, min_tiles).into_par_iter().try_for_each(|(slab, part)| f(slab, part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    /// Shapes and edges: 1-D / 2-D / 3-D, edge tiles on every axis, a
    /// single cell, and tiles larger than the array.
    fn cases() -> Vec<(Dims, [usize; 3])> {
        vec![
            (Dims::D1(1), [4, 1, 1]),
            (Dims::D1(37), [8, 1, 1]),
            (Dims::D1(37), [64, 1, 1]),
            (Dims::D2(7, 5), [2, 3, 1]),
            (Dims::D2(1, 9), [4, 4, 1]),
            (Dims::D2(4, 9), [2, 2, 1]),
            (Dims::D3(1, 1, 1), [1, 1, 1]),
            (Dims::D3(9, 5, 7), [4, 2, 3]),
            (Dims::D3(8, 8, 8), [4, 4, 4]),
            (Dims::D3(6, 4, 1), [4, 4, 4]),
            (Dims::D3(3, 2, 5), [16, 16, 16]),
        ]
    }

    /// The naive answer: each cell's tile number, from its coordinates.
    fn owner(shape: Dims, edge: [usize; 3]) -> Vec<usize> {
        let ext = shape.extents();
        let c = [0, 1, 2].map(|i| ext[i].div_ceil(edge[i]));
        let mut out = Vec::new();
        for z in 0..ext[2] {
            for y in 0..ext[1] {
                for x in 0..ext[0] {
                    out.push(x / edge[0] + c[0] * (y / edge[1] + c[1] * (z / edge[2])));
                }
            }
        }
        out
    }

    /// The cells of tile `i` by walking its rows.
    fn cells_by_rows(t: &Tiles, i: usize) -> Vec<usize> {
        t.rows(i).flat_map(|(at, n)| at..at + n).collect()
    }

    #[test]
    fn every_cell_lies_in_exactly_one_tile_in_x_fastest_order() {
        for (shape, edge) in cases() {
            let t = Tiles::new(shape, edge).unwrap();
            let owner = owner(shape, edge);
            assert_eq!(t.len(), owner.iter().max().map_or(0, |m| m + 1), "{shape:?} {edge:?}");
            let mut seen = vec![usize::MAX; shape.len()];
            for (i, tile) in t.iter().enumerate() {
                assert_eq!(tile, t.tile(i));
                assert_eq!(t.linear(t.grid_index(i)), i);
                assert_eq!(tile.origin, t.origin(t.grid_index(i)));
                let cells = cells_by_rows(&t, i);
                assert_eq!(cells.len(), tile.cells());
                assert_eq!(shape.with_extents(tile.size), t.chunk_shape_at(t.grid_index(i)));
                // Rows run y then z, each x-contiguous: cells ascend.
                assert!(cells.windows(2).all(|w| w[0] < w[1]), "{shape:?} tile {i}");
                for c in cells {
                    assert_eq!(owner[c], i, "{shape:?} {edge:?}: cell {c}");
                    assert_eq!(std::mem::replace(&mut seen[c], i), usize::MAX, "cell {c} twice");
                }
            }
            assert!(seen.iter().all(|&s| s != usize::MAX), "{shape:?}: a cell in no tile");
        }
    }

    #[test]
    fn origins_step_like_the_per_tile_division() {
        for (shape, edge) in cases() {
            let t = Tiles::new(shape, edge).unwrap();
            for start in 0..=t.len() {
                for end in start..=t.len() {
                    let stepped: Vec<_> = t.origins(start..end).collect();
                    let divided: Vec<_> = (start..end).map(|i| t.tile(i).origin).collect();
                    assert_eq!(stepped, divided, "{shape:?} {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn intersecting_names_the_tiles_that_own_a_cell_of_the_region() {
        for (shape, edge) in cases() {
            let t = Tiles::new(shape, edge).unwrap();
            let ext = shape.extents();
            let owner = owner(shape, edge);
            let data: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
            for lo in [[0, 0, 0], [ext[0] / 2, ext[1] / 3, ext[2] / 2]] {
                for hi in [ext, [0, 1, 2].map(|i| (lo[i] + 3).min(ext[i]))] {
                    let region = Region::new(lo, hi).unwrap();
                    let mut want: Vec<usize> = Vec::new();
                    let mut region_values = Vec::new();
                    for z in lo[2]..hi[2] {
                        for y in lo[1]..hi[1] {
                            for x in lo[0]..hi[0] {
                                let c = x + ext[0] * (y + ext[1] * z);
                                want.push(owner[c]);
                                region_values.push(data[c]);
                            }
                        }
                    }
                    want.sort_unstable();
                    want.dedup();
                    let hits = t.intersecting(&region);
                    let got: Vec<usize> = hits.iter().map(|&idx| t.linear(idx)).collect();
                    assert_eq!(got, want, "{shape:?} {edge:?} {region:?}");
                    // Gather then scatter the hits rebuilds the region.
                    let mut out = vec![f32::NAN; region.checked_len().unwrap()];
                    for idx in hits {
                        t.scatter_into(&t.gather(&data, idx), idx, &region, &mut out);
                    }
                    assert_eq!(out, region_values);
                }
            }
        }
    }

    #[test]
    fn slabs_are_contiguous_disjoint_and_covering() {
        for (shape, edge) in cases() {
            let t = Tiles::new(shape, edge).unwrap();
            for min in [1, 2, 3, 4, 1024] {
                let slabs: Vec<Slab> = t.slabs(min).collect();
                let (mut tiles, mut values) = (0, 0);
                for (k, s) in slabs.iter().enumerate() {
                    assert_eq!((s.tiles.start, s.values.start), (tiles, values), "{shape:?} {min}");
                    assert!(!s.tiles.is_empty() && !s.values.is_empty());
                    assert!(k + 1 == slabs.len() || s.tiles.len() >= min);
                    // The slab's values are exactly its tiles' cells.
                    let mut cells: Vec<usize> =
                        s.tiles.clone().flat_map(|i| cells_by_rows(&t, i)).collect();
                    cells.sort_unstable();
                    assert_eq!(
                        cells,
                        s.values.clone().collect::<Vec<_>>(),
                        "{shape:?} {min} slab {k}"
                    );
                    (tiles, values) = (s.tiles.end, s.values.end);
                }
                assert_eq!((tiles, values), (t.len(), shape.len()), "{shape:?} {min}");
                let mut out = vec![0u8; shape.len()];
                let parts = t.split(&mut out, min);
                assert_eq!(parts.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(), slabs);
                assert!(parts.iter().all(|(s, p)| p.len() == s.values.len()));
            }
        }
        // A 128^3 field of 32^3 blocks: four layers, so four slabs of 16.
        let t = Tiles::cubes(Dims::D3(128, 128, 128), 32).unwrap();
        assert_eq!(t.slabs(4).map(|s| s.tiles.len()).collect::<Vec<_>>(), [16; 4]);
        let empty = Tiles::cubes(Dims::D3(5, 0, 3), 4).unwrap();
        assert_eq!((empty.len(), empty.slabs(1).count()), (0, 0));
    }

    #[test]
    fn bad_edges_and_overflowing_counts_are_typed_errors() {
        for (shape, edge) in [
            (Dims::D3(4, 4, 4), [0, 4, 4]),
            (Dims::D2(4, 4), [4, 4, 2]),
            (Dims::D1(4), [4, 2, 1]),
            (Dims::D3(usize::MAX, usize::MAX, 2), [1, 1, 1]),
            (Dims::D3(usize::MAX, usize::MAX, usize::MAX), [1, 1, 1]),
        ] {
            let err = Tiles::new(shape, edge).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{shape:?} {edge:?}: {err}");
            assert!(matches!(err.into_corrupt(), Error::Corrupt(_)));
        }
        assert_eq!(Tiles::cubes(Dims::D2(9, 9), 4).unwrap().chunk(), [4, 4, 1]);
        assert_eq!(Tiles::cubes(Dims::D1(9), usize::MAX).unwrap().len(), 1);
    }

    #[test]
    fn par_slabs_reports_the_lowest_failing_tile_on_any_thread_count() {
        let t = Tiles::new(Dims::D3(16, 8, 8), [4, 4, 2]).unwrap();
        for failing in [vec![], vec![5], vec![31, 3], vec![17, 9, 30], vec![0, 31]] {
            for threads in [1, 2, 4] {
                for min in [1, 8, 20] {
                    let mut out = vec![0usize; 16 * 8 * 8];
                    let got = with_threads(threads, || {
                        t.par_slabs(&mut out, min, |slab, part| {
                            for i in slab.tiles {
                                if failing.contains(&i) {
                                    return Err(i);
                                }
                                for (at, n) in t.rows(i) {
                                    let at = at - slab.values.start;
                                    part[at..at + n].fill(i + 1);
                                }
                            }
                            Ok(())
                        })
                    });
                    assert_eq!(got.err(), failing.iter().min().copied(), "{threads} {min}");
                    if failing.is_empty() {
                        assert_eq!(
                            out.iter().map(|&v| v - 1).collect::<Vec<_>>(),
                            owner(t.shape(), t.chunk())
                        );
                    }
                }
            }
        }
    }
}
