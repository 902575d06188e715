//! Regression tests for the determinism fixes flagged by
//! `foresight-lint`'s det-hash-iter rule: `histogram` and the overflow map
//! inside `global_codebook` used to accumulate into a HashMap and rely on
//! a post-hoc sort for stable output. Both now use BTreeMap so iteration
//! order is sorted by construction. These tests pin the observable
//! guarantees: histograms are symbol-sorted and permutation-invariant,
//! and the full compressed stream is byte-identical across repeated runs
//! of the rayon-parallel pipeline.

use lossy_sz::huffman::histogram;
use lossy_sz::{compress, Dims, ErrorBound, PredictorKind, SzConfig};

/// Deterministic xorshift so the test needs no RNG dependency.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn histogram_is_sorted_by_symbol() {
    let mut s = 0x9e37_79b9u64;
    let codes: Vec<u32> = (0..4096).map(|_| (xorshift(&mut s) % 700) as u32).collect();
    let hist = histogram(&codes);
    assert!(
        hist.windows(2).all(|w| w[0].0 < w[1].0),
        "histogram must be strictly sorted by symbol"
    );
    let total: u64 = hist.iter().map(|&(_, f)| f).sum();
    assert_eq!(total, codes.len() as u64);
}

#[test]
fn histogram_is_permutation_invariant() {
    let mut s = 0xdead_beefu64;
    let mut codes: Vec<u32> = (0..2048).map(|_| (xorshift(&mut s) % 300) as u32).collect();
    let base = histogram(&codes);
    // A couple of deterministic shuffles: reverse and an even/odd split.
    codes.reverse();
    assert_eq!(histogram(&codes), base);
    let interleaved: Vec<u32> = codes
        .iter()
        .step_by(2)
        .chain(codes.iter().skip(1).step_by(2))
        .copied()
        .collect();
    assert_eq!(histogram(&interleaved), base);
}

#[test]
fn compressed_stream_is_byte_identical_across_runs() {
    // End-to-end determinism: the parallel fold/reduce inside
    // global_codebook must not leak scheduling order into the bytes.
    let mut s = 0x1234_5678u64;
    let data: Vec<f32> = (0..20_000)
        .map(|i| (i as f32 * 0.01).sin() + (xorshift(&mut s) % 1000) as f32 * 1e-4)
        .collect();
    let dims = Dims::D1(data.len());
    for predictor in [PredictorKind::Lorenzo, PredictorKind::Regression] {
        let cfg = SzConfig {
            mode: ErrorBound::Abs(1e-3),
            predictor,
            ..SzConfig::abs(1.0)
        };
        let first = compress(&data, dims, &cfg).expect("compress");
        for _ in 0..3 {
            let again = compress(&data, dims, &cfg).expect("compress");
            assert_eq!(first, again, "stream bytes must be run-invariant");
        }
    }
}
