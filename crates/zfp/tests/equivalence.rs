//! Equivalence and metamorphic tests of the ZFP block kernel and the
//! run-of-blocks driver.
//!
//! Two oracles, both code this crate used to ship, kept as test code. The
//! *coder* oracle ([`reference`]) is the bit-at-a-time embedded coder; the
//! kernel under test must produce its bytes, its bit counts, its decoded
//! values and its reader position for every block size, value class, bit
//! budget and plane count, and must agree with it on arbitrary bits. The
//! *driver* oracle is the per-block driver: one `BitWriter` per block
//! spliced into the payload bit by bit, a clamp per gathered sample, one
//! reader per decoded block and a bounds test per scattered sample, over
//! the reference coder. It also writes the container by hand, so the
//! `ZFPR` layout is pinned twice. The driver under test must produce the
//! same bytes and the same values for every mode, dimensionality, ragged
//! extent and run-boundary block count, on any number of threads, and the
//! traced device path must agree with both.
//!
//! The vector kernels — fixed-rate 1-D blocks coded [`LANES`] at a time,
//! and the cast + lift of 2-D and 3-D blocks — run here at every
//! [`Level`] this CPU has, through `cpu::at`, against the scalar coder
//! and the per-axis lift they stand in for. Only a release build widens
//! them; a debug build runs the same scalar code at every level.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::cpu::{self, Level};
use foresight_util::crc::crc32;
use foresight_util::Error;
use gpu_sim::{Device, GpuSpec};
use lossy_zfp::codec::{self, block_cells, BlockCoding, HEADER_BITS};
use lossy_zfp::codec::{DecodeLanes, EncodeLanes, LaneRows, Stage, Unstage, LANES, ROWS};
use lossy_zfp::gpu_exec::{compress_on, decompress_on};
use lossy_zfp::{compress, decompress, Dims, ZfpConfig};
use rayon::ThreadPoolBuilder;
use reference::{decode_block, encode_block, Coding};

mod reference;

/// Blocks per work item in `lossy_zfp::stream`; the block counts below
/// sit on either side of it.
const G: usize = 1024;

fn block_origins(dims: Dims) -> Vec<[usize; 3]> {
    let [nx, ny, nz] = dims.extents();
    let mut origins = Vec::new();
    for bz in 0..nz.div_ceil(4) {
        for by in 0..ny.div_ceil(4) {
            for bx in 0..nx.div_ceil(4) {
                origins.push([bx * 4, by * 4, bz * 4]);
            }
        }
    }
    origins
}

/// Block-local sample offsets `(dx, dy, dz)` in coding order.
fn cells(d: u8) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..block_cells(d)).map(|i| (i % 4, i / 4 % 4, i / 16))
}

fn oracle_compress(data: &[f32], dims: Dims, cfg: &ZfpConfig) -> Vec<u8> {
    let d = dims.ndim();
    let [nx, ny, nz] = dims.extents();
    let coding = Coding::new(&cfg.mode, d);
    let origins = block_origins(dims);
    let mut payload = BitWriter::new();
    let mut lens = Vec::new();
    for o in &origins {
        let vals: Vec<f32> = cells(d)
            .map(|(dx, dy, dz)| {
                let x = (o[0] + dx).min(nx - 1);
                let y = (o[1] + dy).min(ny - 1);
                let z = (o[2] + dz).min(nz - 1);
                data[x + nx * (y + ny * z)]
            })
            .collect();
        let mut w = BitWriter::new();
        let used = encode_block(&vals, &coding, &mut w).expect("finite input");
        let bytes = w.into_bytes();
        for i in 0..used as usize {
            payload.write_bit(bytes[i / 8] >> (i % 8) & 1 != 0);
        }
        lens.push(used);
    }
    let payload = payload.into_bytes();

    let mut out = Vec::new();
    out.extend_from_slice(b"ZFPR");
    out.extend_from_slice(&[2, cfg.mode.tag(), d, 0]);
    for e in dims.extents() {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    out.extend_from_slice(&cfg.mode.param().to_le_bytes());
    out.extend_from_slice(&(origins.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    let hcrc = crc32(&out);
    out.extend_from_slice(&hcrc.to_le_bytes());
    if !coding.fixed_rate {
        for l in &lens {
            out.extend_from_slice(&l.to_le_bytes());
        }
    }
    out.extend_from_slice(&payload);
    out
}

/// Decodes a stream the oracle way. The header is trusted: the streams
/// here come from the encoders above.
fn oracle_decompress(stream: &[u8], dims: Dims, cfg: &ZfpConfig) -> Vec<f32> {
    let d = dims.ndim();
    let [nx, ny, nz] = dims.extents();
    let coding = Coding::new(&cfg.mode, d);
    let origins = block_origins(dims);
    let table = if coding.fixed_rate { 0 } else { origins.len() * 4 };
    let payload = &stream[64 + table..];
    let mut out = vec![0.0f32; dims.len()];
    let mut at = 0u64;
    for (bi, o) in origins.iter().enumerate() {
        let span = if coding.fixed_rate {
            coding.maxbits
        } else {
            u32::from_le_bytes(stream[64 + bi * 4..68 + bi * 4].try_into().unwrap())
        };
        let mut r = BitReader::new(&payload[(at / 8) as usize..]);
        r.read_bits((at % 8) as u32).unwrap();
        let mut vals = vec![0.0f32; block_cells(d)];
        assert_eq!(decode_block(&mut r, &coding, span, &mut vals).unwrap(), span, "block {bi}");
        for (v, (dx, dy, dz)) in vals.iter().zip(cells(d)) {
            let (x, y, z) = (o[0] + dx, o[1] + dy, o[2] + dz);
            if x < nx && y < ny && z < nz {
                out[x + nx * (y + ny * z)] = *v;
            }
        }
        at += span as u64;
    }
    out
}

/// A field with structure at every scale plus a band of exact zeros, so
/// variable-length blocks really vary (all-zero blocks are one bit).
fn field(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if i % 97 < 11 {
                return 0.0;
            }
            let t = (i as u32).wrapping_mul(seed | 1) as f32 * 1e-9;
            (t.sin() * 300.0 + (i as f32 * 0.013).cos() * 40.0) * (1.0 + (i % 7) as f32)
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn on_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

/// Every shape class the issue names: ragged extents in each
/// dimensionality, 1×1×N, and block counts below, at and around `G` and
/// around the merged-slab item sizes in 2-D and 3-D.
fn shapes() -> Vec<Dims> {
    vec![
        Dims::D1(1),
        Dims::D1(101),
        Dims::D1(4 * G - 6),  // G - 1 blocks, the last one partial
        Dims::D1(4 * G),      // exactly G
        Dims::D1(4 * G + 1),  // G + 1: a one-block second run
        Dims::D1(12 * G + 3), // several runs
        Dims::D2(17, 9),
        Dims::D2(3, 2),
        Dims::D2(258, 70), // 65 x 18 blocks: two merged-slab items on decode
        Dims::D3(13, 7, 5),
        Dims::D3(1, 1, 50),
        Dims::D3(50, 1, 1),
        Dims::D3(64, 64, 21), // 256 blocks a slab: items of 4 slabs, ragged last
    ]
}

fn configs(d: u8) -> Vec<ZfpConfig> {
    let mut v = vec![
        ZfpConfig::rate(4.0),
        ZfpConfig::rate(11.0),
        ZfpConfig::precision(14),
        ZfpConfig::accuracy(0.5),
    ];
    // Block sizes that are not whole bytes: 10 bits in 1-D, 19 in 3-D.
    match d {
        1 => v.push(ZfpConfig::rate(2.5)),
        3 => v.push(ZfpConfig::rate(0.3)),
        _ => v.push(ZfpConfig::rate(0.7)),
    }
    v
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Blocks of every value class the coder treats differently.
fn value_classes<const N: usize>(seed: &mut u64) -> Vec<(&'static str, [f32; N])> {
    let unit = |s: &mut u64| (xorshift(s) >> 40) as f32 / (1 << 24) as f32 - 0.5;
    let mut delta = [0.0f32; N];
    delta[N / 3] = -7.25;
    let mut last = [0.0f32; N];
    last[N - 1] = 1e-3;
    vec![
        (
            "smooth",
            std::array::from_fn(|i| {
                let (x, y, z) = ((i % 4) as f32, (i / 4 % 4) as f32, (i / 16) as f32);
                900.0 + (x * 0.4 + y * 0.3 - z * 0.2).sin() * 35.0
            }),
        ),
        ("noise", std::array::from_fn(|_| unit(seed) * 2e4)),
        ("noise, second draw", std::array::from_fn(|_| unit(seed) * 3e-6)),
        ("constant", [-123.456; N]),
        ("all zero", [0.0; N]),
        ("negative zeros", [-0.0; N]),
        ("one non-zero value", delta),
        ("only the last value", last),
        ("subnormals", std::array::from_fn(|i| f32::from_bits(1 + 977 * i as u32))),
        ("largest finite", std::array::from_fn(|i| if i % 3 == 0 { f32::MAX } else { f32::MIN })),
        (
            "mixed signs",
            std::array::from_fn(|i| (i as f32 - 1.5) * if i % 2 == 0 { 1.0 } else { -1e-3 }),
        ),
        ("wide range", std::array::from_fn(|i| unit(seed) * 10f32.powi(i as i32 % 30 - 15))),
    ]
}

/// Codes `values` with both coders behind a `phase`-bit prefix, decodes
/// the result with both, and requires them to agree on everything a
/// caller can observe.
fn assert_block_equivalent<const N: usize>(what: &str, values: &[f32; N], c: &Coding, phase: u32) {
    let kernel = c.kernel();
    let ctx = || format!("{what}, N = {N}, {c:?}, phase {phase}");
    let mut want = BitWriter::new();
    let mut got = BitWriter::new();
    for w in [&mut want, &mut got] {
        w.write_bits(0x2D5A_96B4_C3E1_F078, phase);
    }
    let want_used = encode_block(values, c, &mut want).expect("finite block");
    let got_used = codec::encode_block(values, &kernel, &mut got).expect("finite block");
    assert_eq!(got_used, want_used, "bits written: {}", ctx());
    assert_eq!(got.bit_len(), want.bit_len(), "writer position: {}", ctx());
    // A marker behind the block shows the writer is left usable.
    for w in [&mut want, &mut got] {
        w.write_bits(0b1_0110_1001, 9);
    }
    let bytes = want.into_bytes();
    assert!(got.into_bytes() == bytes, "bytes: {}", ctx());

    // The stored length, and the cap a caller without a table passes.
    for budget in [want_used, c.maxbits] {
        assert_decodes_equivalent::<N>(&bytes, phase, c, budget, &ctx);
    }
}

/// Decodes the block at bit `phase` of `bytes` with both coders: the same
/// values, bits consumed and reader position, or an error from both.
fn assert_decodes_equivalent<const N: usize>(
    bytes: &[u8],
    phase: u32,
    c: &Coding,
    budget: u32,
    ctx: &dyn Fn() -> String,
) {
    let mut want_r = BitReader::new(bytes);
    let mut got_r = BitReader::new(bytes);
    want_r.read_bits(phase).unwrap();
    got_r.read_bits(phase).unwrap();
    let mut want = [f32::NAN; N];
    let mut got = [f32::NAN; N];
    let want_used = decode_block(&mut want_r, c, budget, &mut want);
    let got_used = codec::decode_block(&mut got_r, &c.kernel(), budget, &mut got);
    match (want_used, got_used) {
        (Ok(w), Ok(g)) => {
            assert_eq!(g, w, "bits consumed at budget {budget}: {}", ctx());
            assert!(bits(&got) == bits(&want), "values at budget {budget}: {}", ctx());
            assert_eq!(
                got_r.remaining_bits(),
                want_r.remaining_bits(),
                "reader position at budget {budget}: {}",
                ctx()
            );
            assert_eq!(got_r.read_bits(7).ok(), want_r.read_bits(7).ok(), "next bits: {}", ctx());
        }
        (Err(Error::Corrupt(_)), Err(Error::Corrupt(_))) => {
            assert!(got.iter().all(|v| v.is_nan()), "values from a failed block: {}", ctx());
        }
        (w, g) => panic!("reference {w:?}, kernel {g:?} at budget {budget}: {}", ctx()),
    }
}

/// Every plane setting: each count, and tolerances on either side of the
/// data's scale, including the ones that bound nothing.
fn plane_settings() -> Vec<reference::Planes> {
    use reference::Planes::{Count, Tolerance};
    let mut v: Vec<_> = (1..=32).map(Count).collect();
    v.extend([1e-30, 1e-6, 0.37, 1.0, 4096.0, 1e30, 0.0, f64::NAN].map(Tolerance));
    v
}

fn coder_oracle<const N: usize>(budgets: impl Iterator<Item = u32> + Clone) {
    let d = N.ilog(4) as u8;
    let mut seed = 0x9E37_79B9_7F4A_7C15 ^ N as u64;
    let classes = value_classes::<N>(&mut seed);
    let mut phase = 0;
    for maxbits in budgets {
        assert!(maxbits >= 10);
        // Fixed rate: all planes, padded. Variable length: every plane
        // setting under this budget as the cap.
        let fixed = Coding { d, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) };
        let variable = plane_settings().into_iter().map(|planes| Coding {
            fixed_rate: false,
            planes,
            ..fixed
        });
        for c in std::iter::once(fixed).chain(variable) {
            for (what, values) in &classes {
                assert_block_equivalent(what, values, &c, phase % 64);
                phase += 1;
            }
        }
    }
}

/// Every budget from the smallest block to the cap — one word, two words,
/// more than the longest code — and under each, fixed rate and every
/// plane count and tolerance of the variable-length modes.
#[test]
fn kernel_matches_the_bit_at_a_time_coder_on_4_value_blocks_at_every_budget() {
    coder_oracle::<4>(10..=9 + 32 * 6);
    // A fixed rate may ask for more than the cap: the rest is padding.
    coder_oracle::<4>([9 + 32 * 6 + 1, 256].into_iter());
}

/// The two tables of the 4-value plane step, entry by entry, against the
/// reference's plane loop: what it writes for each (significant count,
/// plane), and what it reads from each (significant count, bits) under
/// every budget a table entry stands for — seven bits, the longest code,
/// and each shorter one, where the budget cuts the plane.
#[test]
fn four_value_tables_equal_the_reference_plane_coder_entry_by_entry() {
    for sig in 0..=4usize {
        for nibble in 0..16u64 {
            let mut w = BitWriter::new();
            let (mut after, mut bits) = (sig, 64);
            reference::code_plane(&mut w, nibble, 4, &mut after, &mut bits);
            let len = 64 - bits;
            let code = w.into_bytes()[0] as u16;
            let entry = codec::PLANE4_ENCODE[sig << 4 | nibble as usize];
            let want = code as u32 | len << 8 | (after as u32) << 12;
            assert_eq!(entry, want, "encode entry ({sig}, {nibble:#06b})");
            assert!((1..=7).contains(&len));
        }
        for r in 0..=7u32 {
            for x in 0..1u8 << r {
                let bytes = [x, 0];
                let mut reader = BitReader::new(&bytes);
                let (mut after, mut bits) = (sig, r);
                let plane = reference::read_plane(&mut reader, 4, &mut after, &mut bits).unwrap();
                let len = r - bits;
                let entry = codec::PLANE4_STEP[sig << 8 | 1 << r | x as usize];
                let want = len | (plane as u32) << 6 | (after as u32) << 10;
                assert_eq!(entry, want, "step entry ({sig}, {x:#09b} of {r} bits)");
            }
        }
    }
}

/// The prefix property the tables rest on: a block coded with no budget
/// and cut after `bits` bits is the budgeted code, because verbatim bits,
/// group tests and unary runs each stop exactly where the budget does.
/// Held by the reference coder and by the kernel, for every value class
/// and every budget up to the cap.
#[test]
fn budgeted_code_is_the_unbudgeted_code_cut_at_the_budget() {
    fn check<const N: usize>() {
        let d = N.ilog(4) as u8;
        let mut seed = 0x2545_F491_4F6C_DD1D ^ N as u64;
        let cap = BlockCoding::new(&lossy_zfp::ZfpMode::FixedPrecision(32), d).maxbits;
        let coding = |maxbits| Coding {
            d,
            maxbits,
            fixed_rate: false,
            planes: reference::Planes::Count(32),
        };
        for (what, values) in value_classes::<N>(&mut seed) {
            let free = coding(1 << 16);
            let mut whole = BitWriter::new();
            let full = encode_block(&values, &free, &mut whole).unwrap();
            let whole = whole.into_bytes();
            for budget in HEADER_BITS + 1..=cap {
                let mut want = BitWriter::new();
                want.append(&whole, full.min(budget) as u64);
                let want = want.into_bytes();
                let c = coding(budget);
                let mut by_reference = BitWriter::new();
                let used = encode_block(&values, &c, &mut by_reference).unwrap();
                assert_eq!(used, full.min(budget), "{what}, N = {N}, budget {budget}");
                assert!(by_reference.into_bytes() == want, "{what}, N = {N}, budget {budget}");
                let mut by_kernel = BitWriter::new();
                let used = codec::encode_block(&values, &c.kernel(), &mut by_kernel).unwrap();
                assert_eq!(used, full.min(budget), "kernel: {what}, N = {N}, budget {budget}");
                assert!(by_kernel.into_bytes() == want, "kernel: {what}, N = {N}, budget {budget}");
            }
        }
    }
    check::<4>();
    check::<16>();
    check::<64>();
}

#[test]
fn kernel_matches_the_bit_at_a_time_coder_on_16_value_blocks_at_every_budget() {
    coder_oracle::<16>(10..=9 + 32 * 18);
}

/// Every budget through the first planes — where budgets end inside a
/// unary run, right behind a passed test, and exactly at the last
/// coefficient — then a stride that is coprime to the block and word
/// sizes, up to the cap.
#[test]
fn kernel_matches_the_bit_at_a_time_coder_on_64_value_blocks_at_a_dense_sample_of_budgets() {
    let cap = 9 + 32 * 66;
    coder_oracle::<64>((10..=330).chain((331..cap).step_by(37)).chain([cap - 1, cap]));
}

/// Arbitrary bits are a stream too: whatever they hold, both decoders
/// must read the same block from them or both refuse — including when the
/// bits run out inside the block.
#[test]
fn kernel_and_reference_agree_on_arbitrary_bits() {
    fn check<const N: usize>(seed: &mut u64) {
        let d = N.ilog(4) as u8;
        for round in 0..1500u32 {
            // Dense noise, and sparse noise that makes long runs.
            let len = 1 + (xorshift(seed) % 300) as usize;
            let mut bytes: Vec<u8> = (0..len)
                .map(|_| match round % 3 {
                    0 => xorshift(seed) as u8,
                    1 => (xorshift(seed) & xorshift(seed) & xorshift(seed)) as u8,
                    _ => {
                        (xorshift(seed) & xorshift(seed) & xorshift(seed) & xorshift(seed) >> 3)
                            as u8
                    }
                })
                .collect();
            bytes[0] |= 1; // mostly non-zero blocks
            let maxbits = 10 + (xorshift(seed) % 700) as u32;
            let planes = plane_settings()[(xorshift(seed) % 40) as usize];
            let c = Coding { d, maxbits, fixed_rate: round % 2 == 0, planes };
            let phase = (xorshift(seed) % 8) as u32 * (round % 5 == 0) as u32;
            let ctx = || format!("round {round}, N = {N}, {c:?}, {len} bytes");
            assert_decodes_equivalent::<N>(&bytes, phase, &c, maxbits, &ctx);
        }
    }
    let mut seed = 0x0123_4567_89AB_CDEF;
    check::<4>(&mut seed);
    check::<16>(&mut seed);
    check::<64>(&mut seed);
}

/// Any word is a 4-value block under any budget a word can hold: both
/// decoders must read the same values from it or both refuse — budgets
/// short of the header, budgets that cut every plane of every code, and
/// the whole word. The table step sees each of them here.
#[test]
fn kernel_and_reference_agree_on_arbitrary_words_as_4_value_blocks_at_every_budget() {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..400u32 {
        // Dense words, sparse words (long runs, empty planes), and words
        // that announce a block with a small exponent field.
        let word = match round % 3 {
            0 => xorshift(&mut seed),
            1 => xorshift(&mut seed) & xorshift(&mut seed) & xorshift(&mut seed),
            _ => xorshift(&mut seed) << 20 | xorshift(&mut seed) & 0x1ff,
        } | (round % 7 != 0) as u64;
        let mut bytes = word.to_le_bytes().to_vec();
        bytes.extend_from_slice(&xorshift(&mut seed).to_le_bytes());
        let phase = (round % 4) * 3;
        for budget in 1..=64 {
            for fixed_rate in [false, true] {
                for planes in [reference::Planes::Count(32), plane_settings()[round as usize % 40]]
                {
                    let c = Coding { d: 1, maxbits: budget, fixed_rate, planes };
                    let ctx = || format!("word {word:#018x}, phase {phase}, {c:?}");
                    assert_decodes_equivalent::<4>(&bytes, phase, &c, budget, &ctx);
                }
            }
        }
    }
}

/// A 64-value block whose first coded plane is one unary run of every
/// length, behind every reader phase: the run's one sits at each place
/// inside and outside the decoder's 56-bit window, is implied at the last
/// coefficient, or is cut off by each budget.
#[test]
fn kernel_and_reference_agree_on_runs_around_the_peek_window() {
    let mut seed = 0xD1B5_4A32_D192_ED03u64;
    for zeros in 0..=63u32 {
        for phase in [0, 1, 7, 8, 9, 13, 55, 56, 57, 63] {
            let mut w = BitWriter::new();
            w.write_bits(xorshift(&mut seed), phase);
            w.write_bits(1 | (127 + 4) << 1, 9); // non-zero block, emax = 4
            w.write_bits(1, 1); // the first plane's group test passes
            w.write_bits(0, zeros);
            w.write_bits(u64::MAX, 1 + zeros % 2); // the one, then whatever follows
            for _ in 0..12 {
                w.write_bits(xorshift(&mut seed) & xorshift(&mut seed), 64);
            }
            let bytes = w.into_bytes();
            let budgets = (10..=80).chain([200, 512, 9 + 32 * 66]);
            for maxbits in budgets {
                for fixed_rate in [false, true] {
                    let planes = reference::Planes::Count(32);
                    let c = Coding { d: 3, maxbits, fixed_rate, planes };
                    let ctx = || format!("{zeros} zeros, phase {phase}, {c:?}");
                    assert_decodes_equivalent::<64>(&bytes, phase, &c, maxbits, &ctx);
                }
            }
        }
    }
}

#[test]
fn fractional_rates_give_block_sizes_that_are_not_whole_bytes() {
    use lossy_zfp::ZfpMode::FixedRate;
    assert_eq!(BlockCoding::new(&FixedRate(2.5), 1).maxbits, 10);
    assert_eq!(BlockCoding::new(&FixedRate(0.3), 3).maxbits, 19);
    assert_eq!(BlockCoding::new(&FixedRate(0.7), 2).maxbits, 11);
}

#[test]
fn driver_matches_the_per_block_oracle_byte_for_byte() {
    for dims in shapes() {
        let data = field(dims.len(), 0x9E37_79B9);
        for cfg in configs(dims.ndim()) {
            let want = oracle_compress(&data, dims, &cfg);
            let got = compress(&data, dims, &cfg).unwrap();
            assert!(got == want, "{dims:?} {:?}: stream bytes differ", cfg.mode);

            let (rec, rdims) = decompress(&got).unwrap();
            assert_eq!(rdims, dims);
            assert!(
                bits(&rec) == bits(&oracle_decompress(&got, dims, &cfg)),
                "{dims:?} {:?}: decoded values differ",
                cfg.mode
            );
        }
    }
    // The 1-D run driver walks the slice: every length up to a group of
    // lanes and a block past it, and around a run of `G` blocks, where
    // the last block and the last group are whole, partial or alone;
    // 10-bit blocks that straddle bytes and words (rates 1 and
    // 2.5), one-word blocks, two-word blocks, blocks wider than the
    // longest code (rate 64), and both variable-length modes; on every
    // thread count and on the device path.
    let configs = [1.0, 2.5, 8.0, 16.0, 20.0, 64.0]
        .map(ZfpConfig::rate)
        .into_iter()
        .chain([ZfpConfig::precision(14), ZfpConfig::accuracy(0.5)]);
    for cfg in configs {
        for len in (0..=4 * LANES + 3).chain([4 * G - 1, 4 * G, 4 * G + 1]) {
            let dims = Dims::D1(len);
            let data = field(len, 0x51ED_270B);
            let want = oracle_compress(&data, dims, &cfg);
            let values = bits(&oracle_decompress(&want, dims, &cfg));
            for threads in [1, 2, 4] {
                let got = on_threads(threads, || compress(&data, dims, &cfg).unwrap());
                assert!(got == want, "{len} values, {:?}, {threads} threads: bytes", cfg.mode);
                let rec = on_threads(threads, || decompress(&got).unwrap().0);
                assert!(bits(&rec) == values, "{len} values, {:?}, {threads} threads", cfg.mode);
            }
            let mut dev = Device::new(GpuSpec::tesla_v100());
            let (traced, _) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            assert!(traced == want, "{len} values, {:?}, device: bytes", cfg.mode);
            let (rec, ..) = decompress_on(&mut dev, &traced).unwrap();
            assert!(bits(&rec) == values, "{len} values, {:?}, device: values", cfg.mode);
        }
    }
}

#[test]
fn bytes_and_values_do_not_depend_on_the_thread_count() {
    for dims in [Dims::D1(12 * G + 3), Dims::D2(258, 70), Dims::D3(64, 64, 21)] {
        let data = field(dims.len(), 77);
        for cfg in configs(dims.ndim()) {
            let base = on_threads(1, || compress(&data, dims, &cfg).unwrap());
            let base_rec = on_threads(1, || decompress(&base).unwrap().0);
            for threads in [2, 4] {
                let stream = on_threads(threads, || compress(&data, dims, &cfg).unwrap());
                assert!(stream == base, "{dims:?} {:?} on {threads} threads", cfg.mode);
                let rec = on_threads(threads, || decompress(&stream).unwrap().0);
                assert!(bits(&rec) == bits(&base_rec), "{dims:?} {:?} on {threads}", cfg.mode);
            }
        }
    }
}

#[test]
fn device_path_matches_the_host_path() {
    for dims in [Dims::D1(4 * G + 1), Dims::D2(258, 70), Dims::D3(13, 7, 5)] {
        let data = field(dims.len(), 5);
        for cfg in configs(dims.ndim()) {
            let host = compress(&data, dims, &cfg).unwrap();
            let mut dev = Device::new(GpuSpec::tesla_v100());
            let (traced, _) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            assert!(traced == host, "{dims:?} {:?}", cfg.mode);
            let (rec, rdims, _) = decompress_on(&mut dev, &traced).unwrap();
            assert_eq!(rdims, dims);
            assert!(bits(&rec) == bits(&decompress(&host).unwrap().0), "{dims:?} {:?}", cfg.mode);
        }
    }
}

#[test]
fn empty_arrays_roundtrip() {
    for dims in [Dims::D1(0), Dims::D2(0, 7), Dims::D3(5, 0, 3), Dims::D3(5, 3, 0)] {
        for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(10)] {
            let stream = compress(&[], dims, &cfg).unwrap();
            assert_eq!(stream.len(), 64);
            let (rec, rdims) = decompress(&stream).unwrap();
            assert_eq!(rdims, dims);
            assert!(rec.is_empty());
        }
    }
}

/// ZFP has no representation for NaN or ±inf and the stream no side
/// channel, so they are a typed error naming the first offending index —
/// the same one on every path and thread count.
#[test]
fn non_finite_input_is_a_typed_error_in_every_mode() {
    let dims = Dims::D3(20, 12, 9);
    for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(16), ZfpConfig::accuracy(1e-3)] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Two bad values: the later block order comes first in memory.
            let mut data = field(dims.len(), 3);
            let (first, second) = (20 * 12 * 2 + 7, 20 * 12 * 8 + 19);
            data[first] = bad;
            data[second] = f32::NAN;
            for threads in [1, 2, 4] {
                let err = on_threads(threads, || compress(&data, dims, &cfg)).unwrap_err();
                assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains(&format!("value {first} ")), "{err}");
            }
            let mut dev = Device::new(GpuSpec::tesla_v100());
            let err = compress_on(&mut dev, &data, dims, &cfg).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
            assert!(err.to_string().contains(&format!("value {first} ")), "{err}");
            assert_eq!(dev.allocated_bytes(), 0, "a refused input must not leak device buffers");
        }
    }
    // The extremes of the finite range are data, not errors.
    let edge = [f32::MAX, f32::MIN, f32::MIN_POSITIVE, -0.0, 1e-45, 0.0, 1.0, -1.0];
    let stream = compress(&edge, Dims::D1(8), &ZfpConfig::rate(32.0)).unwrap();
    assert!(decompress(&stream).unwrap().0.iter().all(|v| v.is_finite()));
}

/// The levels this CPU runs, narrowest first; the others are reported as
/// skipped.
fn levels() -> Vec<Level> {
    let (run, skipped): (Vec<Level>, Vec<Level>) =
        Level::ALL.into_iter().partition(|&l| l <= cpu::level());
    if !skipped.is_empty() {
        eprintln!("skipped, this CPU does not run them: {skipped:?}");
    }
    run
}

/// Groups of [`LANES`] 4-value blocks of every class the lanes treat
/// differently: all zero, subnormal, near the top of the range, mixed
/// exponents within a block and across the lanes, ties in magnitude and
/// values on powers of two, smooth and noisy, and groups whose lanes
/// alternate with all-zero blocks.
fn lane_groups(seed: &mut u64) -> Vec<(&'static str, [f32; 4 * LANES])> {
    lane_values(seed, 4).into_iter().map(|(what, v)| (what, v.try_into().unwrap())).collect()
}

/// The fifteen classes of [`lane_groups`] for a group of [`LANES`]
/// blocks of `block` values each: the group's values, one block after
/// the other.
fn lane_values(seed: &mut u64, block: usize) -> Vec<(&'static str, Vec<f32>)> {
    let unit = |s: &mut u64| (xorshift(s) >> 40) as f32 / (1 << 24) as f32 - 0.5;
    let n = block * LANES;
    let of = |f: &mut dyn FnMut(usize) -> f32| (0..n).map(f).collect::<Vec<f32>>();
    let mut walk = 37.25f32;
    vec![
        ("all zero", of(&mut |_| 0.0)),
        ("negative zeros", of(&mut |_| -0.0)),
        ("subnormals", of(&mut |_| f32::from_bits((xorshift(seed) & 0x807f_ffff) as u32))),
        ("the smallest subnormals", of(&mut |i| f32::from_bits(i as u32 % 5))),
        ("near 1e38", of(&mut |_| unit(seed) * 2e38)),
        ("the finite extremes", of(&mut |i| [f32::MAX, f32::MIN, 1e38, -0.0][i % 4])),
        (
            "mixed exponents in a block",
            of(&mut |i| unit(seed) * 10f32.powi([-30, 30, -3, 8][i % 4])),
        ),
        (
            "one exponent a lane",
            of(&mut |i| unit(seed) * 10f32.powi((i / block) as i32 - 8)),
        ),
        ("ties in magnitude", of(&mut |i| if i % 2 == 0 { 3.75 } else { -3.75 })),
        ("powers of two", of(&mut |i| 2f32.powi(i as i32 % 17 - 8))),
        (
            "just below powers of two",
            of(&mut |i| f32::from_bits((i as u32 % 30 + 100) << 23) - 1e-30),
        ),
        (
            "smooth",
            of(&mut |_| {
                walk += unit(seed) * 0.01;
                walk
            }),
        ),
        ("noise", of(&mut |_| unit(seed) * 2e4)),
        ("one-hot", of(&mut |i| if i == 37 { -1e-3 } else { 0.0 })),
        (
            "lanes alternating with all-zero blocks",
            of(&mut |i| if (i / block).is_multiple_of(2) { unit(seed) * 9.0 } else { 0.0 }),
        ),
    ]
}

fn rate_coding(maxbits: u32) -> Coding {
    Coding { d: 1, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) }
}

/// Block `l` of `values`, coded by the scalar kernel and by the reference
/// coder — they must agree — as the word the lanes leave for it.
fn scalar_word(values: &[f32; 4 * LANES], l: usize, c: &Coding) -> u64 {
    let block: [f32; 4] = values[4 * l..4 * l + 4].try_into().unwrap();
    let mut by_kernel = BitWriter::new();
    assert_eq!(codec::encode_block(&block, &c.kernel(), &mut by_kernel), Some(c.maxbits));
    let mut by_reference = BitWriter::new();
    assert_eq!(encode_block(&block, c, &mut by_reference), Some(c.maxbits));
    let bytes = by_kernel.into_bytes();
    assert!(bytes == by_reference.into_bytes(), "lane {l}, {c:?}");
    BitReader::new(&bytes).take_bits(c.maxbits)
}

/// Codes of at most 64 bits laid out as the lanes take them: one word a
/// lane, nothing past it.
fn one_word_rows(words: &[u64; LANES]) -> LaneRows {
    let mut rows = [[0; LANES]; ROWS];
    rows[0] = *words;
    rows
}

/// Block `l` of `words` read by the scalar kernel.
fn scalar_values(words: &[u64; LANES], l: usize, c: &Coding) -> [f32; 4] {
    let bytes = words[l].to_le_bytes();
    let mut out = [f32::NAN; 4];
    let used = codec::decode_block(&mut BitReader::new(&bytes), &c.kernel(), c.maxbits, &mut out);
    assert_eq!(used.unwrap(), c.maxbits, "lane {l}, word {:#x}", words[l]);
    out
}

/// The lanes code every group as the scalar coder codes its blocks one
/// by one, at every fixed-rate budget a word holds and at every level,
/// and read those words back to the scalar decoder's values.
#[test]
fn lanes_code_and_read_like_the_scalar_coder_at_every_level_and_budget() {
    let mut seed = 0x5851_F42D_4C95_7F2Du64;
    let groups = lane_groups(&mut seed);
    for maxbits in HEADER_BITS + 1..=64 {
        let c = rate_coding(maxbits);
        for (what, values) in &groups {
            let want: [u64; LANES] = std::array::from_fn(|l| scalar_word(values, l, &c));
            let want_values: Vec<u32> =
                (0..LANES).flat_map(|l| bits(&scalar_values(&want, l, &c))).collect();
            for level in levels() {
                let mut words = [0u64; LANES];
                let coded = cpu::at(level, EncodeLanes { values, maxbits, words: &mut words });
                assert_eq!(coded, Some(Some(())), "{what}, {maxbits} bits, {level:?}");
                assert_eq!(words, want, "{what}, {maxbits} bits, {level:?}: words");
                let mut out = [[f32::NAN; 4 * LANES]];
                let rows = one_word_rows(&words);
                cpu::at(level, DecodeLanes::<4> { rows: &rows, maxbits, out: &mut out }).unwrap();
                assert!(bits(&out[0]) == want_values, "{what}, {maxbits} bits, {level:?}: values");
            }
        }
    }
}

/// Any word is a fixed-rate block: random, sparse and dense words, and
/// hostile headers — the smallest and largest exponents, runs of empty
/// planes up to and past the budget — decode in the lanes, at every
/// level, to exactly what the scalar reader makes of each word.
#[test]
fn lanes_read_arbitrary_words_like_the_scalar_reader_at_every_level() {
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    for maxbits in HEADER_BITS + 1..=64 {
        let c = rate_coding(maxbits);
        let budget = if maxbits == 64 { u64::MAX } else { (1 << maxbits) - 1 };
        for round in 0..24 {
            let words: [u64; LANES] = std::array::from_fn(|l| {
                let w = match (round + l) % 6 {
                    0 => xorshift(&mut seed),
                    1 => xorshift(&mut seed) & xorshift(&mut seed) & xorshift(&mut seed),
                    2 => !(xorshift(&mut seed) & xorshift(&mut seed)),
                    3 => 1 | ((xorshift(&mut seed) & 1) * 0x1fe) | xorshift(&mut seed) << 40,
                    4 => 1 | (xorshift(&mut seed) % 256) << 1,
                    _ => xorshift(&mut seed) & !1,
                };
                w & budget
            });
            let want: Vec<u32> =
                (0..LANES).flat_map(|l| bits(&scalar_values(&words, l, &c))).collect();
            for level in levels() {
                let mut out = [[f32::NAN; 4 * LANES]];
                let rows = one_word_rows(&words);
                cpu::at(level, DecodeLanes::<4> { rows: &rows, maxbits, out: &mut out }).unwrap();
                assert!(
                    bits(&out[0]) == want,
                    "{maxbits} bits, round {round}, {level:?}: {words:#x?}"
                );
            }
        }
    }
}

/// A NaN or an infinity anywhere in a group refuses the whole group: the
/// kernel leaves every word as it was, and the line coder writes nothing
/// of that group — at every level.
#[test]
fn a_non_finite_value_in_any_lane_refuses_its_group_and_writes_nothing() {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let c = BlockCoding::new(&lossy_zfp::ZfpMode::FixedRate(8.0), 1);
    for level in levels() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in 0..4 * LANES {
                let mut values: [f32; 4 * LANES] = std::array::from_fn(|_| {
                    (xorshift(&mut seed) >> 40) as f32 / (1 << 24) as f32 - 0.5
                });
                values[at] = bad;
                let mut words = [0x5A5A_A5A5_C3C3_3C3C; LANES];
                let coded =
                    cpu::at(level, EncodeLanes { values: &values, maxbits: 32, words: &mut words });
                assert_eq!(coded, Some(None), "{bad} at {at}, {level:?}");
                assert_eq!(words, [0x5A5A_A5A5_C3C3_3C3C; LANES], "{bad} at {at}, {level:?}");
            }
        }
    }
    // Through the line coder: the groups before the bad one are written,
    // nothing of it or after it.
    for bad_group in 0..3 {
        let mut line = field(3 * 4 * LANES + 5, 9);
        line[bad_group * 4 * LANES + 17] = f32::NAN;
        let mut w = BitWriter::new();
        let mut coded = 0;
        assert_eq!(codec::encode_line(&line, &c, &mut w, |_| coded += 1), None);
        assert_eq!(coded, bad_group * LANES, "group {bad_group}");
        assert_eq!(w.bit_len(), (bad_group * LANES) as u64 * 32, "group {bad_group}");
    }
}

/// The cast, transform, reorder and negabinary of a 2-D or 3-D block,
/// one kernel at every level, against the f64 cast, the per-axis lift
/// that ran a line at a time, and the reference's reorder — and the
/// mirror of each on decode, from arbitrary coefficient bytes.
#[test]
fn staging_equals_the_per_axis_lift_at_every_level() {
    fn check<const N: usize>(seed: &mut u64) {
        let d = N.ilog(4) as u8;
        let perm = reference::perm(d);
        for (what, values) in value_classes::<N>(seed) {
            let top = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let emax = if top == 0.0 { 0 } else { reference::exponent(top).clamp(-127, 128) };
            let mut q: Vec<i32> = values
                .iter()
                .map(|&v| (v as f64 * reference::f64_pow2(30 - emax)) as i32)
                .collect();
            reference::old_lift::fwd_xform(&mut q, d);
            let u: Vec<u32> =
                perm.iter().map(|&p| lossy_zfp::lift::int2uint(q[p as usize])).collect();
            let want: [[u8; N]; 4] =
                std::array::from_fn(|g| std::array::from_fn(|i| (u[i] >> (8 * g)) as u8));
            let any = u.iter().fold(0, |a, &x| a | x);
            for level in levels() {
                let mut rows = [[0u8; N]; 4];
                let got = cpu::at(level, Stage { values: &values, emax, rows: &mut rows }).unwrap();
                assert_eq!(got, any, "{what}, N = {N}, {level:?}");
                assert!(rows == want, "{what}, N = {N}, {level:?}: rows");
            }
        }
        for round in 0..200 {
            let rows: [[u8; N]; 4] =
                std::array::from_fn(|_| std::array::from_fn(|_| xorshift(seed) as u8));
            let emax = (xorshift(seed) % 256) as i32 - 127;
            let mut q = vec![0i32; N];
            for (i, &p) in perm.iter().enumerate() {
                let u = u32::from_le_bytes([rows[0][i], rows[1][i], rows[2][i], rows[3][i]]);
                q[p as usize] = lossy_zfp::lift::uint2int(u);
            }
            reference::old_lift::inv_xform(&mut q, d);
            let want: Vec<u32> = q
                .iter()
                .map(|&qi| ((qi as f64 * reference::f64_pow2(emax - 30)) as f32).to_bits())
                .collect();
            for level in levels() {
                let mut out = [f32::NAN; N];
                cpu::at(level, Unstage { emax, rows: &rows, out: &mut out }).unwrap();
                assert!(bits(&out) == want, "round {round}, N = {N}, {level:?}");
            }
        }
    }
    let mut seed = 0xD1B5_4A32_D192_ED03u64;
    check::<16>(&mut seed);
    check::<64>(&mut seed);
}

/// Fixed-rate codes of `N`-value blocks, each `maxbits` bits, laid out as
/// the lanes take them: word `j` of lane `l`'s code in `rows[j][l]`.
fn rows_of(codes: &[Vec<u8>], maxbits: u32) -> LaneRows {
    assert!(codes.len() <= LANES && maxbits as usize <= 64 * (ROWS - 1));
    let mut rows = [[0; LANES]; ROWS];
    for (l, code) in codes.iter().enumerate() {
        let mut r = BitReader::new(code);
        for (j, row) in rows.iter_mut().enumerate().take(maxbits.div_ceil(64) as usize) {
            row[l] = r.take_bits((maxbits - 64 * j as u32).min(64));
        }
    }
    rows
}

/// Reads `codes` — a group of fixed-rate `N`-value blocks, all-zero
/// blocks past them — in the lanes at every level, and requires each
/// block's values to be the scalar `decode_block::<N>`'s, bit for bit.
fn assert_lanes_read_like_the_scalar_reader<const N: usize>(
    codes: &[Vec<u8>],
    maxbits: u32,
    what: &dyn Fn() -> String,
) {
    let d = N.ilog(4) as u8;
    let c = Coding { d, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) };
    let zero = vec![0u8; maxbits.div_ceil(8) as usize];
    let want: Vec<[f32; N]> = (0..LANES)
        .map(|l| {
            let mut out = [f32::NAN; N];
            let code = codes.get(l).unwrap_or(&zero);
            let used = codec::decode_block(&mut BitReader::new(code), &c.kernel(), maxbits, &mut out);
            assert_eq!(used.unwrap(), maxbits, "lane {l}: {}", what());
            out
        })
        .collect();
    let rows = rows_of(codes, maxbits);
    for level in levels() {
        let mut out = vec![[f32::NAN; 4 * LANES]; N / 4];
        cpu::at(level, DecodeLanes::<N> { rows: &rows, maxbits, out: &mut out }).unwrap();
        for (l, want) in want.iter().enumerate() {
            let got: Vec<f32> = (0..N).map(|i| out[i / 4][4 * l + i % 4]).collect();
            assert!(bits(&got) == bits(want), "lane {l}, {level:?}: {}", what());
        }
    }
}

/// The fixed-rate code of `block`, as the scalar kernel writes it.
fn code_of<const N: usize>(block: &[f32], maxbits: u32) -> Vec<u8> {
    let d = N.ilog(4) as u8;
    let c = Coding { d, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) };
    let block: &[f32; N] = block.try_into().unwrap();
    let mut w = BitWriter::new();
    assert_eq!(codec::encode_block(block, &c.kernel(), &mut w), Some(maxbits));
    w.into_bytes()
}

/// 16- and 64-value blocks (and 4-value blocks past one word) read in
/// the lanes as the scalar reader reads them, at every level, at every
/// fixed-rate budget from 10 to 1 024 bits — all a 2-D config can ask
/// for, and the 3-D ones up to rate 16, whole words or not — on groups
/// that mix the fifteen value classes across the lanes, and at a spread
/// of budgets on groups of one class each, the last of them partial.
#[test]
fn lanes_read_16_and_64_value_blocks_like_the_scalar_reader_at_every_level_and_budget() {
    fn check<const N: usize>(budgets: impl Iterator<Item = u32>, seed: &mut u64) {
        let classes = lane_values(seed, N);
        let block = |class: usize, l: usize| &classes[class % 15].1[N * l..N * l + N];
        for maxbits in budgets {
            let what = || format!("N = {N}, {maxbits} bits");
            for turn in [0, 7] {
                let codes: Vec<Vec<u8>> = (0..LANES)
                    .map(|l| code_of::<N>(block(l + turn + maxbits as usize, l), maxbits))
                    .collect();
                assert_lanes_read_like_the_scalar_reader::<N>(&codes, maxbits, &what);
            }
            if maxbits % 61 == 10 || [64, 65, 128, 256, 512, 1024].contains(&maxbits) {
                for (class, (name, _)) in classes.iter().enumerate() {
                    let blocks = LANES - class % 4;
                    let codes: Vec<Vec<u8>> =
                        (0..blocks).map(|l| code_of::<N>(block(class, l), maxbits)).collect();
                    let what = || format!("{name}, {blocks} blocks, N = {N}, {maxbits} bits");
                    assert_lanes_read_like_the_scalar_reader::<N>(&codes, maxbits, &what);
                }
            }
        }
    }
    let mut seed = 0x6A09_E667_F3BC_C908u64;
    check::<16>(HEADER_BITS + 1..=1024, &mut seed);
    check::<64>(HEADER_BITS + 1..=1024, &mut seed);
    check::<4>(65..=9 + 32 * 6, &mut seed);
}

/// Any bits are a fixed-rate block. Random, sparse and dense codes, and
/// hostile ones — exponent fields 0 and 255, empty planes up to and past
/// the budget, unary runs of 50 to 63 zeros, longer than the scalar
/// reader's 56-bit window, ended by a one or by the budget — read in the
/// lanes, at every level, as the scalar reader reads each of them.
#[test]
fn lanes_read_arbitrary_and_hostile_codes_like_the_scalar_reader_at_every_level() {
    fn code(kind: usize, maxbits: u32, seed: &mut u64) -> Vec<u8> {
        let mut w = BitWriter::new();
        let random = |w: &mut BitWriter, bits: u32, seed: &mut u64, kind: usize| {
            for at in (0..bits).step_by(64) {
                let x = match kind % 3 {
                    0 => xorshift(seed),
                    1 => xorshift(seed) & xorshift(seed) & xorshift(seed) & xorshift(seed),
                    _ => !(xorshift(seed) & xorshift(seed)),
                };
                w.write_bits(x, (bits - at).min(64));
            }
        };
        let field = [0u64, 255, xorshift(seed) % 256][kind % 3];
        match kind % 6 {
            // Random bits, the flag and exponent included.
            0 | 1 => random(&mut w, maxbits, seed, kind),
            // A hostile exponent, then random planes.
            2 => {
                w.write_bits(1 | field << 1, HEADER_BITS);
                random(&mut w, maxbits - HEADER_BITS, seed, kind / 6);
            }
            // Nothing but empty planes, up to and past the budget.
            3 => w.write_bits(1 | field << 1, HEADER_BITS),
            // A passed test and a run of 50..=63 zeros behind it, the
            // run ended by a one and random bits, or by the budget.
            _ => {
                w.write_bits(1 | field << 1, HEADER_BITS);
                let zeros = 50 + (xorshift(seed) % 14) as u32;
                w.write_bits(1, 1);
                w.write_bits(0, zeros.min(maxbits - HEADER_BITS - 1));
                let left = maxbits.saturating_sub(HEADER_BITS + 1 + zeros);
                if left > 0 && !kind.is_multiple_of(4) {
                    w.write_bits(1, 1);
                    random(&mut w, left - 1, seed, kind / 6);
                }
            }
        }
        let mut bytes = w.into_bytes();
        bytes.resize(maxbits.div_ceil(8) as usize, 0);
        // Bits past the budget are not the block's.
        if !maxbits.is_multiple_of(8) {
            *bytes.last_mut().unwrap() &= (1u8 << (maxbits % 8)) - 1;
        }
        bytes
    }
    fn check<const N: usize>(budgets: impl Iterator<Item = u32>, seed: &mut u64) {
        for maxbits in budgets {
            for round in 0..6 {
                let codes: Vec<Vec<u8>> =
                    (0..LANES).map(|l| code(round * LANES + l, maxbits, seed)).collect();
                let what = || format!("N = {N}, {maxbits} bits, round {round}");
                assert_lanes_read_like_the_scalar_reader::<N>(&codes, maxbits, &what);
            }
        }
    }
    let mut seed = 0xBB67_AE85_84CA_A73Bu64;
    let budgets = || (HEADER_BITS + 1..=80).chain((81..=1024).step_by(13)).chain([1024]);
    check::<16>(budgets(), &mut seed);
    check::<64>(budgets(), &mut seed);
    check::<4>(65..=200, &mut seed);
}

/// The scalar per-block decode the lanes stand in for: each block of a
/// fixed-rate stream through `decode_block::<N>` and scattered, no lanes.
fn scalar_decompress(stream: &[u8]) -> Vec<f32> {
    fn run<const N: usize>(stream: &[u8], dims: Dims, c: &codec::BlockCoding) -> Vec<f32> {
        let [nx, ny, nz] = dims.extents();
        let mut r = BitReader::new(&stream[64..]);
        let mut out = vec![0.0f32; dims.len()];
        for o in block_origins(dims) {
            let mut vals = [f32::NAN; N];
            assert_eq!(codec::decode_block(&mut r, c, c.maxbits, &mut vals).unwrap(), c.maxbits);
            for (v, (dx, dy, dz)) in vals.iter().zip(cells(dims.ndim())) {
                let (x, y, z) = (o[0] + dx, o[1] + dy, o[2] + dz);
                if x < nx && y < ny && z < nz {
                    out[x + nx * (y + ny * z)] = *v;
                }
            }
        }
        out
    }
    let info = lossy_zfp::info(stream).unwrap();
    let c = codec::BlockCoding::new(&info.mode, info.dims.ndim());
    assert!(c.fixed_rate);
    match info.dims.ndim() {
        1 => run::<4>(stream, info.dims, &c),
        2 => run::<16>(stream, info.dims, &c),
        _ => run::<64>(stream, info.dims, &c),
    }
}

/// Through `decompress`: fixed-rate 2-D and 3-D streams whose last group
/// of lanes is partial, whose extents are not multiples of 4 and whose
/// blocks are not whole bytes or words, read on 1, 2 and 4 threads to
/// the scalar per-block decode's values; and every range of block layers
/// reads to its slice of them.
#[test]
fn lanes_decode_streams_and_every_layer_range_like_the_scalar_reader_on_any_thread_count() {
    let shapes = [
        Dims::D2(17, 9),
        Dims::D2(70, 66),
        Dims::D2(3, 2),
        Dims::D3(13, 7, 5),
        Dims::D3(24, 20, 9),
        Dims::D3(16, 16, 16),
        Dims::D3(5, 1, 30),
        Dims::D3(66, 3, 4),
    ];
    for dims in shapes {
        let data = field(dims.len(), 0x3C6E_F372);
        let tiles = foresight_util::Tiles::cubes(dims, 4).unwrap();
        for rate in [0.7, 2.5, 4.0, 5.5, 8.0, 16.0, 33.0] {
            let stream = compress(&data, dims, &ZfpConfig::rate(rate)).unwrap();
            let want = bits(&scalar_decompress(&stream));
            for threads in [1, 2, 4] {
                let got = on_threads(threads, || decompress(&stream).unwrap().0);
                assert!(bits(&got) == want, "{dims:?} rate {rate}, {threads} threads");
            }
            let n = tiles.layer_count();
            for a in 0..n {
                for b in a + 1..=n {
                    let got = lossy_zfp::decompress_layers(&stream, a..b).unwrap().0;
                    let slice = &want[tiles.layers(a..b).values];
                    assert!(bits(&got) == slice, "{dims:?} rate {rate}, layers {a}..{b}");
                }
            }
        }
    }
}
