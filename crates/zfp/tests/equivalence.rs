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

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::crc::crc32;
use foresight_util::Error;
use gpu_sim::{Device, GpuSpec};
use lossy_zfp::codec::{self, block_cells, BlockCoding, HEADER_BITS};
use lossy_zfp::gpu_exec::{compress_on, decompress_on};
use lossy_zfp::{compress, decompress, Dims3, ZfpConfig};
use rayon::ThreadPoolBuilder;
use reference::{decode_block, encode_block, Coding};

mod reference;

/// Blocks per work item in `lossy_zfp::stream`; the block counts below
/// sit on either side of it.
const G: usize = 1024;

fn block_origins(dims: Dims3) -> Vec<[usize; 3]> {
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

fn oracle_compress(data: &[f32], dims: Dims3, cfg: &ZfpConfig) -> Vec<u8> {
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
fn oracle_decompress(stream: &[u8], dims: Dims3, cfg: &ZfpConfig) -> Vec<f32> {
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
fn shapes() -> Vec<Dims3> {
    vec![
        Dims3::D1(1),
        Dims3::D1(101),
        Dims3::D1(4 * G - 6),  // G - 1 blocks, the last one partial
        Dims3::D1(4 * G),      // exactly G
        Dims3::D1(4 * G + 1),  // G + 1: a one-block second run
        Dims3::D1(12 * G + 3), // several runs
        Dims3::D2(17, 9),
        Dims3::D2(3, 2),
        Dims3::D2(258, 70), // 65 x 18 blocks: two merged-slab items on decode
        Dims3::D3(13, 7, 5),
        Dims3::D3(1, 1, 50),
        Dims3::D3(50, 1, 1),
        Dims3::D3(64, 64, 21), // 256 blocks a slab: items of 4 slabs, ragged last
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
            let entry = codec::PLANE4_ENCODE[sig][nibble as usize];
            let want = code | (len as u16) << 8 | (after as u16) << 12;
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
                let entry = codec::PLANE4_STEP[sig][1 << r | x as usize];
                let want = len as u16 | (plane as u16) << 6 | (after as u16) << 10;
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
    // The 1-D run driver walks the slice: every length around a block and
    // around a run of `G` blocks, where the last block is whole, partial
    // or alone; 10-bit blocks that straddle bytes and words (rates 1 and
    // 2.5), one-word blocks, two-word blocks, blocks wider than the
    // longest code (rate 64), and both variable-length modes; on every
    // thread count and on the device path.
    let configs = [1.0, 2.5, 8.0, 16.0, 20.0, 64.0]
        .map(ZfpConfig::rate)
        .into_iter()
        .chain([ZfpConfig::precision(14), ZfpConfig::accuracy(0.5)]);
    for cfg in configs {
        for len in (0..=17).chain([4 * G - 1, 4 * G, 4 * G + 1]) {
            let dims = Dims3::D1(len);
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
    for dims in [Dims3::D1(12 * G + 3), Dims3::D2(258, 70), Dims3::D3(64, 64, 21)] {
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
    for dims in [Dims3::D1(4 * G + 1), Dims3::D2(258, 70), Dims3::D3(13, 7, 5)] {
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
    for dims in [Dims3::D1(0), Dims3::D2(0, 7), Dims3::D3(5, 0, 3), Dims3::D3(5, 3, 0)] {
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
    let dims = Dims3::D3(20, 12, 9);
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
    let stream = compress(&edge, Dims3::D1(8), &ZfpConfig::rate(32.0)).unwrap();
    assert!(decompress(&stream).unwrap().0.iter().all(|v| v.is_finite()));
}
