//! Mutation fuzzing of the ZFP stream decoder.
//!
//! Start from valid streams, then truncate, bit-flip, splice, and rewrite
//! windows of bytes. The decoder must never panic and must fail closed.
//! Fixed-rate streams are fully CRC-covered (header CRC + payload CRC), so
//! every mutation errors. Variable-rate streams carry an uncovered
//! per-block length table; mutations there must still decode safely — an
//! `Ok` result must at least have the right shape.
//!
//! The decoder hands runs of blocks to worker items, so the directed cases
//! at the end aim at its accounting — a payload cut inside the last run
//! (plainly, and with both CRCs re-sealed), a length table that disagrees
//! with the payload, a block that does not consume its stored length — and
//! at the order in which items report errors.

use foresight_util::crc::crc32;
use foresight_util::Error;
use lossy_zfp::{compress, decompress, Dims3, ZfpConfig};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn make_stream(variant: u8, seed: u32) -> (Vec<u8>, usize) {
    let dims = match variant % 3 {
        0 => Dims3::D1(300 + (seed as usize % 64)),
        1 => Dims3::D2(13, 17),
        _ => Dims3::D3(8, 8, 8),
    };
    let data: Vec<f32> = (0..dims.len())
        .map(|i| ((i as u32).wrapping_mul(seed | 1) as f32 * 1e-7).sin() * 40.0)
        .collect();
    let cfg = match variant % 4 {
        0 => ZfpConfig::rate(6.0),
        1 => ZfpConfig::rate(14.0),
        2 => ZfpConfig::precision(20),
        _ => ZfpConfig::accuracy(1e-2),
    };
    (compress(&data, dims, &cfg).unwrap(), dims.len())
}

fn is_fixed_rate(variant: u8) -> bool {
    variant % 4 < 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any strict prefix of a valid stream must be rejected (the header
    /// records exact table and payload lengths).
    #[test]
    fn truncation_always_errors(variant in 0u8..12, seed in any::<u32>(), cut_sel in any::<u32>()) {
        let (stream, _) = make_stream(variant, seed);
        let cut = cut_sel as usize % stream.len();
        prop_assert!(decompress(&stream[..cut]).is_err());
    }

    /// Bit flips: fixed-rate streams must always error; variable-rate
    /// streams must never panic, and an accepted decode keeps its shape.
    #[test]
    fn bit_flip_fails_closed(variant in 0u8..12, seed in any::<u32>(), flip_sel in any::<u32>()) {
        let (stream, n) = make_stream(variant, seed);
        let mut bad = stream.clone();
        let bit = flip_sel as usize % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        match decompress(&bad) {
            Err(_) => {}
            Ok((rec, _)) => {
                prop_assert!(
                    !is_fixed_rate(variant),
                    "fixed-rate flip at bit {} accepted", bit
                );
                prop_assert_eq!(rec.len(), n);
            }
        }
    }

    /// Overwriting a window with arbitrary bytes must not panic.
    #[test]
    fn window_rewrite_never_panics(
        variant in 0u8..12,
        seed in any::<u32>(),
        start_sel in any::<u32>(),
        junk in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let (stream, n) = make_stream(variant, seed);
        let mut bad = stream.clone();
        let start = start_sel as usize % bad.len();
        let end = (start + junk.len()).min(bad.len());
        bad[start..end].copy_from_slice(&junk[..end - start]);
        if let Ok((rec, _)) = decompress(&bad) {
            prop_assert_eq!(rec.len(), n);
        }
    }

    /// Cut-and-join of two valid streams must fail closed.
    #[test]
    fn splice_never_panics(
        va in 0u8..12, vb in 0u8..12,
        sa in any::<u32>(), sb in any::<u32>(),
        cut_sel in any::<u32>(),
    ) {
        let (a, na) = make_stream(va, sa);
        let (b, nb) = make_stream(vb, sb);
        let cut = cut_sel as usize % a.len();
        let mut spliced = a[..cut].to_vec();
        spliced.extend_from_slice(&b[cut.min(b.len())..]);
        if let Ok((rec, _)) = decompress(&spliced) {
            prop_assert!(rec.len() == na || rec.len() == nb);
        }
    }

    /// Raw garbage of any size must be rejected without panicking.
    #[test]
    fn garbage_never_panics(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(decompress(&junk).is_err());
    }
}

/// Header bytes, and where the fields a forger must patch sit in them.
const HDR: usize = 64;
const PAYLOAD_LEN_AT: usize = 48;
const PAYLOAD_CRC_AT: usize = 56;
const HDR_CRC_AT: usize = 60;

/// Several runs of blocks in every mode: 1-D items hold 1024 blocks.
const N: usize = 4 * 1024 * 3 + 10;

fn long_stream(cfg: &ZfpConfig) -> Vec<u8> {
    let data: Vec<f32> = (0..N).map(|i| (i as f32 * 0.37).sin() * 90.0 + 100.0).collect();
    compress(&data, Dims3::D1(N), cfg).unwrap()
}

/// Cuts `drop` bytes off the payload and re-seals both CRCs, so only the
/// decoder's own accounting can notice.
fn forge_shorter_payload(stream: &[u8], table: usize, drop: usize) -> Vec<u8> {
    let mut bad = stream[..stream.len() - drop].to_vec();
    let payload_len = (bad.len() - HDR - table) as u64;
    bad[PAYLOAD_LEN_AT..PAYLOAD_LEN_AT + 8].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&bad[HDR + table..]);
    bad[PAYLOAD_CRC_AT..PAYLOAD_CRC_AT + 4].copy_from_slice(&crc.to_le_bytes());
    let hcrc = crc32(&bad[..HDR_CRC_AT]);
    bad[HDR_CRC_AT..HDR].copy_from_slice(&hcrc.to_le_bytes());
    bad
}

fn stored_len(stream: &[u8], bi: usize) -> u32 {
    u32::from_le_bytes(stream[HDR + bi * 4..HDR + bi * 4 + 4].try_into().unwrap())
}

fn set_stored_len(stream: &mut [u8], bi: usize, len: u32) {
    stream[HDR + bi * 4..HDR + bi * 4 + 4].copy_from_slice(&len.to_le_bytes());
}

fn assert_corrupt(stream: &[u8], what: &str) -> String {
    for threads in [1, 2, 4] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        match pool.install(|| decompress(stream)) {
            Err(Error::Corrupt(_)) => {}
            other => panic!("{what} on {threads} threads: {:?}", other.map(|(v, d)| (v.len(), d))),
        }
    }
    decompress(stream).unwrap_err().to_string()
}

#[test]
fn payload_cut_inside_the_last_run_is_corrupt() {
    for cfg in [ZfpConfig::rate(6.0), ZfpConfig::precision(18), ZfpConfig::accuracy(1e-2)] {
        let stream = long_stream(&cfg);
        let nblocks = N.div_ceil(4);
        let table =
            if matches!(cfg.mode, lossy_zfp::ZfpMode::FixedRate(_)) { 0 } else { nblocks * 4 };
        for drop in [1, 2, 9, 300] {
            assert_corrupt(&stream[..stream.len() - drop], "plain cut");
            assert_corrupt(&forge_shorter_payload(&stream, table, drop), "re-sealed cut");
        }
    }
}

#[test]
fn length_table_that_disagrees_with_the_payload_is_corrupt() {
    for cfg in [ZfpConfig::precision(18), ZfpConfig::accuracy(1e-2)] {
        let stream = long_stream(&cfg);
        let last = N.div_ceil(4) - 1;
        for delta in [8i64, 64, -8] {
            let mut bad = stream.clone();
            let len = stored_len(&bad, last) as i64 + delta;
            set_stored_len(&mut bad, last, len as u32);
            let msg = assert_corrupt(&bad, "length sum off");
            assert!(msg.contains("length table disagrees"), "{msg}");
        }
    }
}

#[test]
fn a_block_that_misses_its_stored_length_fails_first_in_block_order() {
    for cfg in [ZfpConfig::precision(18), ZfpConfig::accuracy(1e-2)] {
        let stream = long_stream(&cfg);
        // Move a byte of length from a later block to an earlier one, in
        // two places that land in different work items: the sum still
        // matches the payload, so only the items can tell, and the
        // earliest block must be the one reported.
        let mut bad = stream.clone();
        for (grow, shrink) in [(1500, 1700), (2600, 2900)] {
            assert!(stored_len(&bad, shrink) > 8);
            let (g, s) = (stored_len(&bad, grow), stored_len(&bad, shrink));
            set_stored_len(&mut bad, grow, g + 8);
            set_stored_len(&mut bad, shrink, s - 8);
        }
        let msg = assert_corrupt(&bad, "shifted lengths");
        assert!(msg.contains("block 1500 consumed"), "{msg}");
    }
}
