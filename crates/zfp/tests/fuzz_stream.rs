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
//! at the order in which items report errors. The last group aims at the
//! block kernel, whose reads cannot fail one by one: hand-written blocks
//! whose unary runs straddle the cut — one of them longer than the
//! decoder's 56-bit peek window — must be refused by every entry point,
//! and by the kernel itself when it is handed the short bytes directly.
//! The 1-D run driver takes fixed-rate blocks a word each straight from
//! the payload, so a 1-D stream is also cut at every byte of its last
//! blocks, and one block's header is flipped bit by bit behind re-sealed
//! CRCs: what still decodes must be what the bit-at-a-time reference
//! (`reference/mod.rs`) reads from the same bytes.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::crc::crc32;
use foresight_util::Error;
use gpu_sim::{Device, GpuSpec};
use lossy_zfp::codec::BlockCoding;
use lossy_zfp::gpu_exec::decompress_on;
use lossy_zfp::{compress, decompress, Dims, ZfpConfig};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

mod reference;

fn make_stream(variant: u8, seed: u32) -> (Vec<u8>, usize) {
    let dims = match variant % 3 {
        0 => Dims::D1(300 + (seed as usize % 64)),
        1 => Dims::D2(13, 17),
        _ => Dims::D3(8, 8, 8),
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
    compress(&data, Dims::D1(N), cfg).unwrap()
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

/// The stream is [`Error::Corrupt`] on 1, 2 and 4 threads and on the
/// device, with the same text on each; returns the text.
fn assert_corrupt(stream: &[u8], what: &str) -> String {
    let text = decompress(stream).unwrap_err().to_string();
    for threads in [1, 2, 4] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        match pool.install(|| decompress(stream)) {
            Err(e @ Error::Corrupt(_)) => assert_eq!(e.to_string(), text, "{what} on {threads} threads"),
            other => panic!("{what} on {threads} threads: {:?}", other.map(|(v, d)| (v.len(), d))),
        }
    }
    match decompress_on(&mut Device::new(GpuSpec::tesla_v100()), stream) {
        Err(e @ Error::Corrupt(_)) => assert_eq!(e.to_string(), text, "{what} on the device path"),
        other => panic!("{what} on the device path: {:?}", other.map(|(v, d, _)| (v.len(), d))),
    }
    text
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
        // Hostile spans — none, one bit, less than a header, the cap, and
        // the largest a table holds — with the blocks behind taking up the
        // difference wherever they can, so that the sum still matches the
        // payload and only the lanes can tell.
        let cap = BlockCoding::new(&cfg.mode, 1).maxbits;
        for (bi, span) in [(700, 0), (1023, 1), (1024, 8), (2047, cap), (3000, u32::MAX)] {
            let mut bad = stream.clone();
            let mut owed = stored_len(&bad, bi) as i64 - span as i64;
            set_stored_len(&mut bad, bi, span);
            for next in bi + 1..N.div_ceil(4) {
                let len = (stored_len(&bad, next) as i64 + owed).max(0);
                owed -= len - stored_len(&bad, next) as i64;
                set_stored_len(&mut bad, next, len as u32);
            }
            let msg = assert_corrupt(&bad, &format!("span {span} at block {bi}"));
            let want = if span == u32::MAX {
                "length table disagrees".to_string()
            } else {
                format!("block {bi} consumed")
            };
            assert!(msg.contains(&want), "span {span} at block {bi}: {msg}");
        }
    }
}

/// The code of one 64-value block, written by hand: a non-zero header,
/// then a first plane whose group test passes and whose run is
/// `zeros` zeros long — 63 of them reach the last coefficient, whose one
/// is implied, and pass the decoder's 56-bit peek window on the way —
/// then alternating bits up to `nbits`.
fn run_then_filler(zeros: u32, nbits: u32) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1 | (127 + 3) << 1, 9);
    w.write_bits(1, 1);
    w.write_bits(0, zeros);
    w.write_bits(1, (zeros < 63) as u32);
    while w.bit_len() < nbits as u64 {
        w.write_bits(0x5555_5555_5555_5555, (nbits as u64 - w.bit_len()).min(64) as u32);
    }
    w.into_bytes()
}

/// [`run_then_filler`] as one whole block under `c`, with its length in
/// bits: the rate's at a fixed rate, else as many as the coder reads.
fn block_with_a_run(zeros: u32, cfg: &ZfpConfig) -> (Vec<u8>, u32) {
    let c = reference::Coding::new(&cfg.mode, 3);
    let ample = run_then_filler(zeros, c.maxbits);
    let mut out = [0.0f32; 64];
    let nbits = reference::decode_block(&mut BitReader::new(&ample), &c, c.maxbits, &mut out);
    let nbits = nbits.unwrap();
    let mut w = BitWriter::new();
    w.append(&ample, nbits as u64);
    (w.into_bytes(), nbits)
}

/// A one-block 4x4x4 stream in `cfg`'s mode around a hand-written
/// `payload` of `nbits` bits: the header of a real stream with the length
/// table and payload swapped and both CRCs re-sealed.
fn one_block_stream(cfg: &ZfpConfig, payload: &[u8], nbits: u32) -> Vec<u8> {
    let real = compress(&[1.0; 64], Dims::D3(4, 4, 4), cfg).unwrap();
    let mut stream = real[..HDR].to_vec();
    if !matches!(cfg.mode, lossy_zfp::ZfpMode::FixedRate(_)) {
        stream.extend_from_slice(&nbits.to_le_bytes());
    }
    let table = stream.len() - HDR;
    stream.extend_from_slice(payload);
    forge_shorter_payload(&stream, table, 0)
}

#[test]
fn cuts_inside_unary_runs_are_corrupt_on_every_path() {
    for (cfg, table) in [(ZfpConfig::rate(8.0), 0), (ZfpConfig::precision(32), 4)] {
        for zeros in [5, 40, 63] {
            let (payload, nbits) = block_with_a_run(zeros, &cfg);
            let stream = one_block_stream(&cfg, &payload, nbits);
            let (values, _) = decompress(&stream).expect("the hand-written block is valid");
            assert!(values.iter().all(|v| v.is_finite()));
            // Cuts that leave the payload ending inside the run — short of
            // the peek window, at its edge, past it — then behind the run,
            // and one byte before the block ends.
            for keep in [2, 5, 8, 9, 10, 30, payload.len() - 1] {
                let drop = payload.len() - keep;
                let what = format!("{:?}, run of {zeros}, {keep} payload bytes", cfg.mode);
                assert_corrupt(&stream[..stream.len() - drop], &format!("plain cut: {what}"));
                assert_corrupt(
                    &forge_shorter_payload(&stream, table, drop),
                    &format!("re-sealed cut: {what}"),
                );
            }
        }
    }
}

/// The stream layer checks sizes before any block is read, and a lane
/// reads zeros past the bytes, so the cut is the driver's to see: a block
/// behind a one-bit all-zero block in a variable-length stream, or
/// behind a whole block at a fixed rate, cut wherever the bits end inside
/// it — in a run, in the long run, one byte before it ends — under its
/// stored length, the cap and a length far past the bytes, is refused on
/// every path; a length one bit short of the code reads it cut short.
#[test]
fn kernel_refuses_a_block_the_bits_end_inside_of() {
    for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(32)] {
        let fixed = matches!(cfg.mode, lossy_zfp::ZfpMode::FixedRate(_));
        let cap = BlockCoding::new(&cfg.mode, 3).maxbits;
        for zeros in [5, 40, 63] {
            let (block, nbits) = block_with_a_run(zeros, &cfg);
            // Block 0 is all zero: one bit, or a whole fixed-rate block.
            let first = if fixed { cap } else { 1 };
            let mut w = BitWriter::new();
            w.tail().write_zeros(first);
            w.append(&block, nbits as u64);
            let payload = w.into_bytes();
            let real = compress(&[0.0; 128], Dims::D3(4, 4, 8), &cfg).unwrap();
            let table = if fixed { 0 } else { 8 };
            let spans = |span: u32| -> Vec<u8> {
                let mut stream = real[..HDR].to_vec();
                if !fixed {
                    stream.extend_from_slice(&first.to_le_bytes());
                    stream.extend_from_slice(&span.to_le_bytes());
                }
                stream.extend_from_slice(&payload);
                forge_shorter_payload(&stream, table, 0)
            };
            let whole = spans(nbits);
            decompress(&whole).expect("the hand-written block is valid");
            let full = payload.len();
            for keep in [2, 5, 8, 9, 10, 30, full - 1].map(|k| k + (first as usize / 8)) {
                let drop = full.saturating_sub(keep);
                if drop == 0 {
                    continue;
                }
                for span in [nbits, cap, 1 << 16] {
                    let what = format!("{:?}, run of {zeros}, {keep} bytes, span {span}", cfg.mode);
                    let stream = spans(span);
                    assert_corrupt(&stream[..stream.len() - drop], &format!("plain cut: {what}"));
                    let resealed = forge_shorter_payload(&stream, table, drop);
                    assert_corrupt(&resealed, &format!("re-sealed cut: {what}"));
                }
            }
            if !fixed {
                // A stored length one bit short reads the code cut there.
                let cut = spans(nbits - 1);
                let mut r = BitReader::new(&cut[HDR + table..]);
                r.skip_bits(1);
                let c = reference::Coding::new(&cfg.mode, 3);
                let mut want = [0.0f32; 64];
                assert_eq!(reference::decode_block(&mut r, &c, nbits - 1, &mut want).unwrap(), nbits - 1);
                let got = decompress(&cut).unwrap().0;
                assert!(got[64..].iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }
}

/// A 1-D fixed-rate stream whose blocks are 10 bits (straddling bytes and
/// words), one word, or two words, over a run boundary and with a partial
/// last block: cut at every byte inside its last three blocks, plainly
/// and re-sealed, it is refused on every path.
#[test]
fn one_d_fixed_rate_stream_cut_inside_its_last_blocks_is_corrupt() {
    for rate in [2.5, 8.0, 20.0] {
        let cfg = ZfpConfig::rate(rate);
        let n = 4 * 1024 + 7;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 90.0 + 100.0).collect();
        let stream = compress(&data, Dims::D1(n), &cfg).unwrap();
        let block_bits = BlockCoding::new(&cfg.mode, 1).maxbits as usize;
        for drop in 1..=(3 * block_bits).div_ceil(8) {
            assert_corrupt(&stream[..stream.len() - drop], &format!("rate {rate}: plain cut"));
            let resealed = forge_shorter_payload(&stream, 0, drop);
            assert_corrupt(&resealed, &format!("rate {rate}: re-sealed cut of {drop} bytes"));
        }
    }
}

/// Every bit of one block's zero flag and exponent flipped behind
/// re-sealed CRCs leaves a stream that is valid to look at. Each must be
/// a typed error or decode — on every thread count and on the device
/// path — to exactly the values the bit-at-a-time reference reads from
/// the same payload, with nothing written outside the array.
#[test]
fn one_d_block_header_flips_decode_like_the_reference_or_are_refused() {
    for rate in [2.5, 8.0, 20.0] {
        let cfg = ZfpConfig::rate(rate);
        let n = 4 * 1024 + 7;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 90.0 + 100.0).collect();
        let stream = compress(&data, Dims::D1(n), &cfg).unwrap();
        let coding = reference::Coding::new(&cfg.mode, 1);
        // A block inside the first run, the first of the second run, and
        // the partial last one.
        for block in [517, 1024, n.div_ceil(4) - 1] {
            for bit in 0..9 {
                let at = HDR * 8 + block * coding.maxbits as usize + bit;
                let mut bad = stream.clone();
                bad[at / 8] ^= 1 << (at % 8);
                let bad = forge_shorter_payload(&bad, 0, 0);

                let mut want = vec![0.0f32; n];
                let mut r = BitReader::new(&bad[HDR..]);
                for vals in want.chunks_mut(4) {
                    let mut out = [0.0f32; 4];
                    let used = reference::decode_block(&mut r, &coding, coding.maxbits, &mut out);
                    assert_eq!(used.unwrap(), coding.maxbits);
                    vals.copy_from_slice(&out[..vals.len()]);
                }
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let what = format!("rate {rate}, block {block}, header bit {bit}");
                for threads in [1, 2, 4] {
                    let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                    match pool.install(|| decompress(&bad)) {
                        Ok((got, dims)) => {
                            assert_eq!(dims, Dims::D1(n));
                            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                            assert!(got == want, "{what}, {threads} threads");
                        }
                        Err(e) => assert!(matches!(e, Error::Corrupt(_)), "{what}: {e}"),
                    }
                }
                match decompress_on(&mut Device::new(GpuSpec::tesla_v100()), &bad) {
                    Ok((got, ..)) => {
                        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        assert!(got == want, "{what}, device path");
                    }
                    Err(e) => assert!(matches!(e, Error::Corrupt(_)), "{what}: {e}"),
                }
            }
        }
    }
}
