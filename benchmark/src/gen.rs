//! Seeded generators: Zipf draws, region reads and Poisson arrivals.
//! The same seed always yields the same list.

use foresight_store::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent generator streams are forked from the run seed by purpose
/// so adding a draw to one list never shifts another.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Zipf popularity over ranks `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the cumulative distribution once.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws a rank; rank 0 is the most popular.
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Shape class of a region read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// 32³ cube whose corner sits off the chunk grid.
    Cube32,
    /// One full x-y plane.
    Plane,
    /// Exactly one chunk.
    Chunk,
    /// One full row along x.
    Pencil,
}

impl RegionKind {
    /// Span name of a read of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            RegionKind::Cube32 => "store.read_region.cube32",
            RegionKind::Plane => "store.read_region.plane",
            RegionKind::Chunk => "store.read_region.chunk",
            RegionKind::Pencil => "store.read_region.pencil",
        }
    }
}

/// One region read of one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRead {
    /// Index of the field read.
    pub field: usize,
    /// Shape class.
    pub kind: RegionKind,
    /// The subvolume.
    pub region: Region,
}

fn below(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n as u64) as usize
}

/// Seed of the request mix. Which class a read has, whether it revisits
/// a hot region and which, and when a request arrives define a workload,
/// so they are the same for every `--seed`; the run seed decides where in
/// the data each request lands. Otherwise the draw of a few hot regions
/// would move byte counts and medians more than any code change.
pub const MIX_SEED: u64 = 0x004D_4958;

fn draw_kind(mix: &mut StdRng) -> RegionKind {
    let u: f64 = mix.gen();
    if u < 0.4 {
        RegionKind::Cube32
    } else if u < 0.7 {
        RegionKind::Plane
    } else if u < 0.9 {
        RegionKind::Chunk
    } else {
        RegionKind::Pencil
    }
}

fn place_region(
    kind: RegionKind,
    field: usize,
    place: &mut StdRng,
    n_side: usize,
    chunk: usize,
) -> RegionRead {
    let (lo, hi) = match kind {
        RegionKind::Cube32 => {
            // Off-grid on every axis, so the cube straddles 27 chunks.
            let mut corner = || loop {
                let c = below(place, n_side - 32 + 1);
                if !c.is_multiple_of(chunk) {
                    break c;
                }
            };
            let lo = [corner(), corner(), corner()];
            (lo, lo.map(|c| c + 32))
        }
        RegionKind::Plane => {
            let z = below(place, n_side);
            ([0, 0, z], [n_side, n_side, z + 1])
        }
        RegionKind::Chunk => {
            let lo = [0; 3].map(|_| below(place, n_side / chunk) * chunk);
            (lo, lo.map(|c| c + chunk))
        }
        RegionKind::Pencil => {
            let (y, z) = (below(place, n_side), below(place, n_side));
            ([0, y, z], [n_side, y + 1, z + 1])
        }
    };
    let region = Region::new(lo, hi).expect("every class has a positive extent on each axis");
    RegionRead { field, kind, region }
}

/// The round's region reads: 40 % off-grid 32³ cubes, 30 % planes, 20 %
/// single chunks, 10 % pencils; 70 % of reads revisit one of 16 hot
/// regions by Zipf(1.1) rank, the rest are fresh uniform draws.
pub fn region_reads(
    seed: u64,
    n_side: usize,
    chunk: usize,
    n_fields: usize,
    count: usize,
) -> Vec<RegionRead> {
    let mut mix = rng_for(MIX_SEED, 1);
    let mut place = rng_for(seed, 1);
    // The field decides the codec, so it belongs to the mix as well.
    let mut fresh = |mix: &mut StdRng| {
        let (kind, field) = (draw_kind(mix), below(mix, n_fields));
        place_region(kind, field, &mut place, n_side, chunk)
    };
    let hot: Vec<RegionRead> = (0..16).map(|_| fresh(&mut mix)).collect();
    let zipf = Zipf::new(hot.len(), 1.1);
    (0..count)
        .map(|_| if mix.gen::<f64>() < 0.7 { hot[zipf.draw(&mut mix)] } else { fresh(&mut mix) })
        .collect()
}

/// `count` Poisson arrival times at `rate_hz` on the simulated clock.
pub fn poisson_arrivals(rng: &mut StdRng, rate_hz: f64, count: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_hz;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_reads_other_seed_other_reads() {
        let a = region_reads(13, 128, 16, 6, 160);
        assert_eq!(a, region_reads(13, 128, 16, 6, 160));
        let b = region_reads(14, 128, 16, 6, 160);
        assert_ne!(a, b);
        assert_eq!(a.len(), 160);
        // The mix is the workload's, not the seed's.
        assert!(a.iter().zip(&b).all(|(x, y)| (x.kind, x.field) == (y.kind, y.field)));
    }

    #[test]
    fn reads_stay_in_the_field_and_follow_the_mix() {
        let reads = region_reads(7, 128, 16, 6, 4000);
        let mut counts = [0usize; 4];
        for r in &reads {
            assert!(r.field < 6);
            let ext = r.region.extents();
            assert!((0..3).all(|i| r.region.hi[i] <= 128 && ext[i] >= 1));
            match r.kind {
                RegionKind::Cube32 => {
                    assert_eq!(ext, [32, 32, 32]);
                    assert!(r.region.lo.iter().all(|c| c % 16 != 0));
                    counts[0] += 1;
                }
                RegionKind::Plane => {
                    assert_eq!(ext, [128, 128, 1]);
                    counts[1] += 1;
                }
                RegionKind::Chunk => {
                    assert_eq!(ext, [16, 16, 16]);
                    assert!(r.region.lo.iter().all(|c| c % 16 == 0));
                    counts[2] += 1;
                }
                RegionKind::Pencil => {
                    assert_eq!(ext, [128, 1, 1]);
                    counts[3] += 1;
                }
            }
        }
        // Hot regions dominate, so a few distinct regions carry most reads.
        let mut distinct = reads.clone();
        distinct.sort_by_key(|r| (r.field, r.region.lo, r.region.hi));
        distinct.dedup();
        assert!(distinct.len() < reads.len() / 2, "{} distinct", distinct.len());
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn zipf_prefers_low_ranks_and_arrivals_increase() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = rng_for(3, 9);
        let mut hits = [0usize; 64];
        for _ in 0..20_000 {
            hits[zipf.draw(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[63]);
        let arrivals = poisson_arrivals(&mut rng, 6000.0, 4096);
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        let mean_gap = arrivals[4095] / 4096.0;
        assert!((mean_gap * 6000.0 - 1.0).abs() < 0.1, "mean gap {mean_gap}");
    }
}
