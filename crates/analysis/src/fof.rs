//! Friends-of-Friends halo finder (paper Metric 3a, Fig. 6).
//!
//! Particles closer than a linking length `b` are "friends"; connected
//! components of the friendship graph are halos. The implementation uses a
//! periodic cell grid with cell size >= `b` (so only 27 neighbouring cells
//! need searching) and a union-find with path halving.
//!
//! Besides the halo assignment the catalog reports the quantities the
//! paper names: halo mass (member count), centre, the **most connected
//! particle** (most friends within the halo), and the **most bound
//! particle** (lowest internal gravitational potential).

use foresight_util::{Error, Result};
use rayon::prelude::*;

/// Union-find with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    /// Finds the root of `i` with path halving.
    pub fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let gp = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = gp;
            i = gp;
        }
        i
    }

    /// Merges the sets containing `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// One identified halo.
#[derive(Debug, Clone)]
pub struct Halo {
    /// Member particle indices (into the input arrays).
    pub members: Vec<u32>,
    /// Mass proxy: the member count.
    pub count: usize,
    /// Periodic-aware centre of mass.
    pub center: [f64; 3],
    /// Index of the particle with the most friends within the halo.
    pub most_connected: u32,
    /// Index of the particle with the lowest internal potential.
    pub most_bound: u32,
}

/// Output of a FoF run.
#[derive(Debug, Clone)]
pub struct HaloCatalog {
    /// Halos with at least `min_members` particles, largest first.
    pub halos: Vec<Halo>,
    /// Linking length used.
    pub linking_length: f64,
    /// Total number of input particles.
    pub n_particles: usize,
}

/// Friends-of-Friends over periodic coordinates.
///
/// `linking_length` is in the same units as the coordinates; the paper's
/// convention is `b = 0.2 * mean interparticle spacing`, see
/// [`linking_length_for`]. Halos smaller than `min_members` are dropped
/// (the standard FoF practice; the paper's halo-count plots start at a
/// minimum mass too).
pub fn friends_of_friends(
    x: &[f32],
    y: &[f32],
    z: &[f32],
    box_size: f64,
    linking_length: f64,
    min_members: usize,
) -> Result<HaloCatalog> {
    let n = x.len();
    if y.len() != n || z.len() != n {
        return Err(Error::invalid("coordinate arrays must have equal length"));
    }
    if !(linking_length > 0.0 && linking_length < box_size / 2.0) {
        return Err(Error::invalid(format!(
            "linking length {linking_length} must be in (0, box/2)"
        )));
    }

    // Cell grid: cell edge >= linking length, and at most ~one cell per particle.
    let per_particle = (n as f64).cbrt().ceil() as usize;
    let ncell = ((box_size / linking_length) as usize).min(per_particle).max(1);
    let cell_of = |px: f32, py: f32, pz: f32| -> usize {
        let c = |v: f32| -> usize {
            let g = (v as f64 / box_size).rem_euclid(1.0);
            ((g * ncell as f64) as usize).min(ncell - 1)
        };
        c(px) + ncell * (c(py) + ncell * c(pz))
    };
    // Bucket particles per cell.
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncell * ncell * ncell];
    for i in 0..n {
        cells[cell_of(x[i], y[i], z[i])].push(i as u32);
    }

    let b2 = linking_length * linking_length;
    let dist2 = |i: u32, j: u32| -> f64 {
        let half = box_size / 2.0;
        let mut d2 = 0.0;
        for (a, b) in [(x, x), (y, y), (z, z)] {
            let mut d = (a[i as usize] as f64) - (b[j as usize] as f64);
            if d > half {
                d -= box_size;
            } else if d < -half {
                d += box_size;
            }
            d2 += d * d;
        }
        d2
    };

    // Friend pairs, gathered in parallel per cell (each cell pairs
    // internally and with its 13 "forward" neighbours so no pair is
    // generated twice), then merged through a sequential union-find. A cell
    // keeps a spanning forest of its pairs: the same halos from one pair per
    // particle, however densely a reconstruction piles particles into it.
    let forward: Vec<(i64, i64, i64)> = (0..27)
        .map(|k| (k % 3 - 1, k / 3 % 3 - 1, k / 9 - 1))
        .filter(|&(dx, dy, dz)| (dz, dy, dx) > (0, 0, 0))
        .collect();
    let nc = ncell as i64;
    let pairs: Vec<Vec<(u32, u32)>> = (0..cells.len())
        .into_par_iter()
        .map(|ci| {
            let me = &cells[ci];
            if me.is_empty() {
                return Vec::new();
            }
            let (cx, cy, cz) =
                ((ci % ncell) as i64, ((ci / ncell) % ncell) as i64, (ci / (ncell * ncell)) as i64);
            // This cell's particles, then its forward neighbours' (periodic wrap).
            let mut local = me.clone();
            for &(dx, dy, dz) in &forward {
                let nx = (cx + dx).rem_euclid(nc) as usize;
                let ny = (cy + dy).rem_euclid(nc) as usize;
                let nz = (cz + dz).rem_euclid(nc) as usize;
                let oi = nx + ncell * (ny + ncell * nz);
                if oi != ci {
                    local.extend_from_slice(&cells[oi]); // else the wrap collapsed onto self
                }
            }
            let mut forest = UnionFind::new(local.len());
            let mut out = Vec::new();
            for a in 0..me.len() {
                for b in a + 1..local.len() {
                    let (la, lb) = (a as u32, b as u32);
                    if forest.find(la) != forest.find(lb) && dist2(local[a], local[b]) <= b2 {
                        forest.union(la, lb);
                        out.push((local[a], local[b]));
                    }
                }
            }
            out
        })
        .collect();

    let mut uf = UnionFind::new(n);
    for batch in &pairs {
        for &(a, b) in batch {
            uf.union(a, b);
        }
    }

    // Group members by root.
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for i in 0..n as u32 {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let mut halos: Vec<Halo> = groups
        .into_values()
        .filter(|m| m.len() >= min_members.max(1))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|members| finalize_halo(members, x, y, z, box_size, linking_length))
        .collect();
    halos.sort_by(|a, b| b.count.cmp(&a.count).then(a.members[0].cmp(&b.members[0])));
    Ok(HaloCatalog { halos, linking_length, n_particles: n })
}

/// The standard linking length: `b_frac` (usually 0.2) of the mean
/// interparticle spacing.
pub fn linking_length_for(n_particles: usize, box_size: f64, b_frac: f64) -> f64 {
    if n_particles == 0 {
        return b_frac * box_size;
    }
    b_frac * box_size / (n_particles as f64).cbrt()
}

/// Computes centre, most-connected, and most-bound for one halo.
fn finalize_halo(
    members: Vec<u32>,
    x: &[f32],
    y: &[f32],
    z: &[f32],
    box_size: f64,
    linking_length: f64,
) -> Halo {
    let m = members.len();
    // Periodic-aware mean: unwrap relative to the first member.
    let (rx, ry, rz) =
        (x[members[0] as usize] as f64, y[members[0] as usize] as f64, z[members[0] as usize] as f64);
    let unwrap = |v: f64, r: f64| -> f64 {
        let mut d = v - r;
        if d > box_size / 2.0 {
            d -= box_size;
        } else if d < -box_size / 2.0 {
            d += box_size;
        }
        r + d
    };
    let mut cx = 0.0;
    let mut cy = 0.0;
    let mut cz = 0.0;
    for &i in &members {
        cx += unwrap(x[i as usize] as f64, rx);
        cy += unwrap(y[i as usize] as f64, ry);
        cz += unwrap(z[i as usize] as f64, rz);
    }
    let center = [
        (cx / m as f64).rem_euclid(box_size),
        (cy / m as f64).rem_euclid(box_size),
        (cz / m as f64).rem_euclid(box_size),
    ];

    let half = box_size / 2.0;
    let dist = |i: u32, j: u32| -> f64 {
        let mut d2 = 0.0;
        for arr in [x, y, z] {
            let mut d = arr[i as usize] as f64 - arr[j as usize] as f64;
            if d > half {
                d -= box_size;
            } else if d < -half {
                d += box_size;
            }
            d2 += d * d;
        }
        d2.sqrt()
    };

    // Most connected / most bound. O(m^2) pairwise work is capped by
    // sampling for very large halos; sampled estimates keep the ranking
    // stable because both quantities are sums over many members.
    let sample: Vec<u32> = if m > 2048 {
        members.iter().step_by(m / 2048 + 1).copied().collect()
    } else {
        members.clone()
    };
    let mut best_conn = (0usize, members[0]);
    let mut best_bound = (f64::INFINITY, members[0]);
    for &i in &members {
        let mut friends = 0usize;
        let mut potential = 0.0f64;
        for &j in &sample {
            if i == j {
                continue;
            }
            let d = dist(i, j);
            if d <= linking_length {
                friends += 1;
            }
            potential -= 1.0 / d.max(1e-6);
        }
        if friends > best_conn.0 {
            best_conn = (friends, i);
        }
        if potential < best_bound.0 {
            best_bound = (potential, i);
        }
    }
    Halo { count: m, members, center, most_connected: best_conn.1, most_bound: best_bound.1 }
}

/// Halo-count histogram over logarithmic mass bins (paper Fig. 6 x-axis).
///
/// Returns `(bin_low_mass, count)` pairs for bins `[2^i, 2^(i+1))`.
pub fn mass_function(catalog: &HaloCatalog) -> Vec<(usize, usize)> {
    let mut bins: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for h in &catalog.halos {
        let bin = (h.count as f64).log2().floor() as u32;
        *bins.entry(bin).or_default() += 1;
    }
    bins.into_iter().map(|(b, c)| (1usize << b, c)).collect()
}

/// Per-mass-bin ratio of halo counts (reconstructed / original), the right
/// axis of the paper's Fig. 6. Bins missing on either side get ratio 0 or
/// are reported with the available counts.
pub fn halo_count_ratio(
    orig: &HaloCatalog,
    recon: &HaloCatalog,
) -> Vec<(usize, usize, usize, f64)> {
    let o = mass_function(orig);
    let r: std::collections::BTreeMap<usize, usize> =
        mass_function(recon).into_iter().collect();
    o.into_iter()
        .map(|(mass, oc)| {
            let rc = r.get(&mass).copied().unwrap_or(0);
            (mass, oc, rc, rc as f64 / oc as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clump(cx: f32, cy: f32, cz: f32, n: usize, spread: f32, into: &mut (Vec<f32>, Vec<f32>, Vec<f32>)) {
        for i in 0..n {
            let t = i as f32;
            into.0.push(cx + (t * 0.7).sin() * spread);
            into.1.push(cy + (t * 1.3).cos() * spread);
            into.2.push(cz + (t * 2.1).sin() * spread);
        }
    }

    type Particles = (Vec<f32>, Vec<f32>, Vec<f32>);

    /// FoF by its definition: every pair within `b` joined, O(n^2), then
    /// the same finalisation and order.
    fn brute_force(p: &Particles, box_size: f64, b: f64, min: usize) -> String {
        let n = p.0.len();
        let mut uf = UnionFind::new(n);
        let d = |a: &[f32], i: usize, j: usize| {
            let d = (a[i] as f64 - a[j] as f64).abs();
            d.min(box_size - d)
        };
        for i in 0..n {
            for j in i + 1..n {
                let (dx, dy, dz) = (d(&p.0, i, j), d(&p.1, i, j), d(&p.2, i, j));
                if dx * dx + dy * dy + dz * dz <= b * b {
                    uf.union(i as u32, j as u32);
                }
            }
        }
        let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        for i in 0..n as u32 {
            groups.entry(uf.find(i)).or_default().push(i);
        }
        let mut halos: Vec<Halo> = (groups.into_values().filter(|m| m.len() >= min.max(1)))
            .map(|m| finalize_halo(m, &p.0, &p.1, &p.2, box_size, b))
            .collect();
        halos.sort_by(|a, b| b.count.cmp(&a.count).then(a.members[0].cmp(&b.members[0])));
        format!("{halos:?}")
    }

    #[test]
    fn catalogues_equal_the_all_pairs_oracle() {
        // A small LCG: uniform field particles in [0, side).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut uniform = |side: f32| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 40) as f32 / (1u64 << 24) as f32 * side
        };
        let mut field = |k: usize, p: &mut (Vec<f32>, Vec<f32>, Vec<f32>)| {
            for _ in 0..k {
                let v = [uniform(64.0), uniform(64.0), uniform(64.0)];
                p.0.push(v[0]);
                p.1.push(v[1]);
                p.2.push(v[2]);
            }
        };
        let mut clumps = (vec![], vec![], vec![]);
        clump(10.0, 10.0, 10.0, 60, 0.4, &mut clumps);
        clump(40.0, 20.0, 50.0, 25, 0.3, &mut clumps);
        clump(30.0, 30.0, 30.0, 12, 1.5, &mut clumps);
        field(400, &mut clumps);
        let mut pile = (vec![33.0f32; 500], vec![7.0f32; 500], vec![60.0f32; 500]);
        clump(33.0, 7.0, 60.0, 40, 0.6, &mut pile);
        field(100, &mut pile);
        // One clump across the corner of the box, on all three seams.
        let mut seam = (vec![], vec![], vec![]);
        clump(0.0, 0.0, 0.0, 30, 0.4, &mut seam);
        for v in [&mut seam.0, &mut seam.1, &mut seam.2] {
            v.iter_mut().for_each(|c| *c = c.rem_euclid(64.0));
        }
        let tiny = (seam.0[..6].to_vec(), seam.1[..6].to_vec(), seam.2[..6].to_vec());
        field(50, &mut seam);
        let mut uniform_only = (vec![], vec![], vec![]);
        field(1500, &mut uniform_only);
        let cases = [(&clumps, 1.0, 5), (&pile, 1.0, 10), (&seam, 0.8, 5), (&tiny, 0.8, 2)];
        for (i, (p, b, min)) in cases.into_iter().chain([(&uniform_only, 2.5, 2)]).enumerate() {
            let cat = friends_of_friends(&p.0, &p.1, &p.2, 64.0, b, min).unwrap();
            assert!(!cat.halos.is_empty(), "case {i} finds no halo");
            assert_eq!(format!("{:?}", cat.halos), brute_force(p, 64.0, b, min), "case {i}");
        }
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_ne!(uf.find(0), uf.find(1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(4));
    }

    #[test]
    fn two_separated_clumps_are_two_halos() {
        let mut p = (vec![], vec![], vec![]);
        clump(10.0, 10.0, 10.0, 50, 0.3, &mut p);
        clump(40.0, 40.0, 40.0, 30, 0.3, &mut p);
        let cat = friends_of_friends(&p.0, &p.1, &p.2, 64.0, 1.0, 5).unwrap();
        assert_eq!(cat.halos.len(), 2);
        assert_eq!(cat.halos[0].count, 50);
        assert_eq!(cat.halos[1].count, 30);
        let c = cat.halos[0].center;
        assert!((c[0] - 10.0).abs() < 1.0 && (c[1] - 10.0).abs() < 1.0);
    }

    #[test]
    fn a_dense_pile_is_one_halo() {
        // 3 000 particles on one point, where a codec at a few bits a value
        // can leave them, plus one far away: one halo of the pile.
        let mut x = vec![10.0f32; 3000];
        x.push(40.0);
        let cat = friends_of_friends(&x, &x, &x, 64.0, 1.0, 10).unwrap();
        assert_eq!(cat.halos.len(), 1);
        assert_eq!(cat.halos[0].count, 3000);
    }

    #[test]
    fn min_members_filters_field_particles() {
        let mut p = (vec![], vec![], vec![]);
        clump(10.0, 10.0, 10.0, 40, 0.3, &mut p);
        // Isolated singles.
        for i in 0..20 {
            p.0.push(30.0 + i as f32 * 1.5);
            p.1.push(50.0);
            p.2.push(20.0);
        }
        let cat = friends_of_friends(&p.0, &p.1, &p.2, 64.0, 1.0, 5).unwrap();
        assert_eq!(cat.halos.len(), 1);
    }

    #[test]
    fn halo_links_across_periodic_boundary() {
        // A clump straddling the box edge must be found as one halo.
        let mut p = (vec![], vec![], vec![]);
        for i in 0..20 {
            let off = (i as f32) * 0.05;
            p.0.push((63.8 + off) % 64.0); // wraps past 64
            p.1.push(32.0);
            p.2.push(32.0);
        }
        let cat = friends_of_friends(&p.0, &p.1, &p.2, 64.0, 0.5, 5).unwrap();
        assert_eq!(cat.halos.len(), 1, "boundary clump split: {:?}", cat.halos.len());
        assert_eq!(cat.halos[0].count, 20);
    }

    #[test]
    fn chain_connectivity_is_transitive() {
        // Particles in a line spaced just under b form one halo even
        // though the ends are far apart.
        let n = 30;
        let x: Vec<f32> = (0..n).map(|i| 5.0 + i as f32 * 0.9).collect();
        let y = vec![10.0f32; n];
        let z = vec![10.0f32; n];
        let cat = friends_of_friends(&x, &y, &z, 64.0, 1.0, 5).unwrap();
        assert_eq!(cat.halos.len(), 1);
        assert_eq!(cat.halos[0].count, n);
    }

    #[test]
    fn most_connected_and_bound_prefer_the_core() {
        // Dense core + sparse envelope: both markers should sit in the core.
        let mut p = (vec![], vec![], vec![]);
        clump(20.0, 20.0, 20.0, 30, 0.2, &mut p); // core
        clump(20.0, 20.0, 20.0, 10, 2.5, &mut p); // envelope
        let cat = friends_of_friends(&p.0, &p.1, &p.2, 64.0, 3.0, 5).unwrap();
        assert_eq!(cat.halos.len(), 1);
        let h = &cat.halos[0];
        assert!((h.most_connected as usize) < 30, "most connected in envelope");
        assert!((h.most_bound as usize) < 30, "most bound in envelope");
    }

    #[test]
    fn mass_function_bins_log2() {
        let mut p = (vec![], vec![], vec![]);
        clump(10.0, 10.0, 10.0, 40, 0.2, &mut p); // bin 32
        clump(40.0, 40.0, 40.0, 9, 0.2, &mut p); // bin 8
        clump(10.0, 40.0, 10.0, 12, 0.2, &mut p); // bin 8
        let cat = friends_of_friends(&p.0, &p.1, &p.2, 64.0, 1.0, 5).unwrap();
        let mf = mass_function(&cat);
        assert_eq!(mf, vec![(8, 2), (32, 1)]);
    }

    #[test]
    fn count_ratio_detects_halo_loss() {
        let mut orig = (vec![], vec![], vec![]);
        clump(10.0, 10.0, 10.0, 20, 0.2, &mut orig);
        clump(40.0, 40.0, 40.0, 20, 0.2, &mut orig);
        // "Reconstruction" scatters the second clump so it dissolves.
        let mut rec = (vec![], vec![], vec![]);
        clump(10.0, 10.0, 10.0, 20, 0.2, &mut rec);
        clump(40.0, 40.0, 40.0, 20, 8.0, &mut rec);
        let co = friends_of_friends(&orig.0, &orig.1, &orig.2, 64.0, 1.0, 5).unwrap();
        let cr = friends_of_friends(&rec.0, &rec.1, &rec.2, 64.0, 1.0, 5).unwrap();
        let ratios = halo_count_ratio(&co, &cr);
        assert_eq!(ratios.len(), 1);
        let (_, oc, rc, ratio) = ratios[0];
        assert_eq!(oc, 2);
        assert_eq!(rc, 1);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(friends_of_friends(&[1.0], &[1.0, 2.0], &[1.0], 64.0, 1.0, 1).is_err());
        assert!(friends_of_friends(&[1.0], &[1.0], &[1.0], 64.0, 0.0, 1).is_err());
        assert!(friends_of_friends(&[1.0], &[1.0], &[1.0], 64.0, 40.0, 1).is_err());
    }

    #[test]
    fn linking_length_formula() {
        // 64^3 particles in a 256 box: spacing 4, b = 0.8.
        let b = linking_length_for(64 * 64 * 64, 256.0, 0.2);
        assert!((b - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_empty_catalog() {
        let cat = friends_of_friends(&[], &[], &[], 64.0, 1.0, 1).unwrap();
        assert!(cat.halos.is_empty());
        assert_eq!(cat.n_particles, 0);
    }
}
