//! Parallel helpers over the rayon workers: a scoped way to bound the
//! number of worker threads so the benchmark harness can measure 1-core vs
//! N-core throughput (paper Fig. 8), and near-equal contiguous ranges for
//! work that writes disjoint slices.

use rayon::prelude::*;

/// Runs `f` inside a rayon pool restricted to `threads` workers.
///
/// Used by the throughput benchmarks to pin the degree of parallelism
/// (e.g. 1 thread to emulate the paper's single-core Xeon measurements).
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build thread pool");
    pool.install(f)
}

/// Splits `len` items into per-worker ranges of near-equal size.
///
/// Returns `(start, end)` pairs covering `0..len` without overlap. The
/// remainder is spread over the leading ranges so sizes differ by at most 1.
pub fn split_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < rem);
        if sz == 0 {
            break;
        }
        out.push((start, start + sz));
        start += sz;
    }
    out
}

/// Runs `f(start, views)` once per worker range, in parallel.
///
/// The slices must have equal lengths, a multiple of `unit`. The ranges
/// tile `0..len` in whole units, near-equal and in order, one per worker
/// thread; `views` holds range `start..start + views[k].len()` of each
/// slice `k`. Work that writes element `i` only through `views` and reads
/// anything else gives the same result on any thread count.
pub fn par_ranges_mut<T: Send, const K: usize>(
    slices: [&mut [T]; K],
    unit: usize,
    f: impl Fn(usize, [&mut [T]; K]) + Sync,
) {
    assert!(unit > 0, "unit must be positive");
    let len = slices.first().map_or(0, |s| s.len());
    assert!(slices.iter().all(|s| s.len() == len), "slices must have equal lengths");
    assert!(len.is_multiple_of(unit), "slice length must be a multiple of unit");
    let mut rest = slices;
    let parts: Vec<(usize, [&mut [T]; K])> = split_ranges(len / unit, rayon::current_num_threads())
        .into_iter()
        .map(|(a, b)| {
            let views = std::array::from_fn(|k| {
                let (head, tail) = std::mem::take(&mut rest[k]).split_at_mut((b - a) * unit);
                rest[k] = tail;
                head
            });
            (a * unit, views)
        })
        .collect();
    parts.into_par_iter().for_each(|(start, views)| f(start, views));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_ranges_mut_tiles_every_slice_on_any_thread_count() {
        for threads in [1, 2, 3, 4] {
            let (mut a, mut b) = (vec![0usize; 48], vec![0usize; 48]);
            with_threads(threads, || {
                par_ranges_mut([&mut a[..], &mut b[..]], 4, |start, [a, b]| {
                    assert_eq!(start % 4, 0);
                    assert_eq!(a.len() % 4, 0);
                    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                        *x = start + i;
                        *y = 2 * (start + i);
                    }
                })
            });
            assert_eq!(a, (0..48).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(b, (0..48).map(|i| 2 * i).collect::<Vec<_>>(), "{threads} threads");
        }
        par_ranges_mut::<u8, 1>([&mut []], 3, |_, _| panic!("no range for an empty slice"));
    }

    #[test]
    fn with_threads_bounds_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
        let n = with_threads(1, rayon::current_num_threads);
        assert_eq!(n, 1);
    }

    #[test]
    fn split_ranges_covers_everything() {
        for len in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 3, 8, 150] {
                let ranges = split_ranges(len, parts);
                let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                // Contiguity.
                let mut cursor = 0;
                for &(a, b) in &ranges {
                    assert_eq!(a, cursor);
                    assert!(b > a);
                    cursor = b;
                }
                // Balance within 1.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|(a, b)| b - a).min(),
                    ranges.iter().map(|(a, b)| b - a).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }
}
