//! Equivalence and metamorphic tests of the ZFP block coder and the
//! run-of-blocks driver.
//!
//! Two oracles, both code this crate used to ship, kept as test code. The
//! *coder* oracle ([`reference`]) is the bit-at-a-time embedded coder; the
//! lanes under test ([`EncodeLanes`], [`DecodeLanes`]) must produce its
//! bytes, its bit counts and its decoded values for every block size,
//! value class, bit budget and plane count — fixed rate and both
//! variable-length modes — and must agree with it on arbitrary bits. The
//! *driver* oracle is the per-block driver: one `BitWriter` per block
//! spliced into the payload bit by bit, a clamp per gathered sample, one
//! reader per decoded block and a bounds test per scattered sample, over
//! the reference coder. It also writes the container by hand, so the
//! `ZFPR` layout is pinned twice. The driver under test must produce the
//! same bytes and the same values for every mode, dimensionality, ragged
//! extent and run-boundary block count, on any number of threads, and the
//! traced device path must agree with both.
//!
//! The lanes — [`LANES`] blocks coded and read side by side, and the lift
//! across them — run here at every [`Level`] this CPU has, through
//! `cpu::at`. Only a release build widens them; a debug build runs the
//! same scalar code at every level.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::cpu::{self, Level};
use foresight_util::crc::crc32;
use foresight_util::Error;
use gpu_sim::{Device, GpuSpec};
use lossy_zfp::codec::{self, block_cells, BlockCoding, HEADER_BITS};
use lossy_zfp::codec::{DecodeLanes, EncodeLanes, Fixed, LaneRows, LaneRun, Variable, LANES, ROWS};
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

/// The lanes' coder at `level`, under the limits the coding's mode picks
/// as the driver picks them.
fn encode_at<const N: usize>(
    level: Level,
    values: &[LaneRun],
    c: &BlockCoding,
    rows: &mut LaneRows,
) -> Option<Option<[u32; LANES]>> {
    if c.fixed() {
        cpu::at(level, EncodeLanes::<N, _> { values, lim: Fixed(c.maxbits), rows })
    } else {
        let lim = Variable::new(*c, [c.maxbits; LANES]);
        cpu::at(level, EncodeLanes::<N, _> { values, lim, rows })
    }
}

/// The lanes' reader at `level`, lane `l`'s budget `spans[l]` unless the
/// mode is a fixed rate, under the limits the mode picks.
fn decode_at<const N: usize>(
    level: Level,
    rows: &LaneRows,
    c: &BlockCoding,
    spans: &[u32; LANES],
    out: &mut [LaneRun],
) -> Option<[u32; LANES]> {
    if c.fixed() {
        cpu::at(level, DecodeLanes::<N, _> { rows, lim: Fixed(c.maxbits), out })
    } else {
        cpu::at(level, DecodeLanes::<N, _> { rows, lim: Variable::new(*c, *spans), out })
    }
}

/// A group of [`LANES`] `N`-value blocks as the encoder's lanes take it:
/// `blocks[l]` is lane `l`'s block, x fastest, all-zero blocks past them;
/// row `r` of the result holds values `4r..4r + 4` of every block side by
/// side.
fn lane_runs<const N: usize>(blocks: &[&[f32]]) -> Vec<[f32; 4 * LANES]> {
    (0..N / 4)
        .map(|r| std::array::from_fn(|i| blocks.get(i / 4).map_or(0.0, |b| b[4 * r + i % 4])))
        .collect()
}

/// `blocks` (at most [`LANES`]) coded side by side under `c` by the
/// driver's group coder, written back to back behind `phase` filler bits:
/// the bytes and each code's bit length, or `None` with nothing written.
fn lanes_code<const N: usize>(blocks: &[&[f32]], c: &Coding, phase: u32) -> (Vec<u8>, Vec<u32>) {
    let (mut w, mut rows, mut lens) = (BitWriter::new(), [[0; LANES]; ROWS], Vec::new());
    w.write_bits(0x2D5A_96B4_C3E1_F078, phase);
    let coded = codec::encode_group::<N>(
        &lane_runs::<N>(blocks),
        blocks.len(),
        &c.kernel(),
        &mut rows,
        &mut w.tail(),
        |len| lens.push(len),
    );
    assert_eq!(coded, Some(()), "{c:?}");
    (w.into_bytes(), lens)
}

/// The 64 bits of `bytes` from bit `at`, zero past their end.
fn word(bytes: &[u8], at: u64) -> u64 {
    let mut b = [0u8; 16];
    b.iter_mut().zip(bytes.iter().skip((at / 8) as usize)).for_each(|(d, s)| *d = *s);
    (u128::from_le_bytes(b) >> (at % 8)) as u64
}

/// Lane `l`'s code laid out as the lanes take it: the `budget` bits of
/// `bytes` from bit `at`, zero past the budget.
fn set_lane(rows: &mut LaneRows, l: usize, bytes: &[u8], at: u64, budget: u32) {
    for (j, row) in rows.iter_mut().enumerate().take(ROWS - 1) {
        let left = budget.saturating_sub(64 * j as u32);
        row[l] = if left == 0 { 0 } else { word(bytes, at + 64 * j as u64) & u64::MAX >> (64 - left.min(64)) };
    }
}

/// Blocks read in the lanes at `level`, lane `l` the `(start bit, budget)`
/// `blocks[l]` of `bytes`, under `c`: each lane's bits read and values.
fn lanes_read<const N: usize>(
    bytes: &[u8],
    blocks: &[(u64, u32)],
    c: &Coding,
    level: Level,
) -> Option<Vec<(u32, Vec<f32>)>> {
    let (mut rows, mut spans) = ([[0; LANES]; ROWS], [0; LANES]);
    for (l, &(at, budget)) in blocks.iter().enumerate() {
        set_lane(&mut rows, l, bytes, at, budget);
        spans[l] = budget;
    }
    let mut out = vec![[f32::NAN; 4 * LANES]; N / 4];
    let coding = c.kernel();
    let used = decode_at::<N>(level, &rows, &coding, &spans, &mut out)?;
    let values = |l: usize| (0..N).map(|i| out[i / 4][4 * l + i % 4]).collect();
    Some((0..blocks.len()).map(|l| (used[l], values(l))).collect())
}

/// Codes the blocks of `classes` side by side in the lanes under `c`,
/// behind a `phase`-bit prefix, and with the reference one by one; both
/// must write the same bytes and lengths. Then both read every block back
/// under its stored length and under the cap a caller without a table
/// passes, and must agree on everything a caller can observe.
fn assert_group_equivalent<const N: usize>(classes: &[(&str, [f32; N])], c: &Coding, phase: u32) {
    let ctx = || format!("N = {N}, {c:?}, phase {phase}");
    let blocks: Vec<&[f32]> = classes.iter().map(|(_, v)| &v[..]).collect();
    let (got, got_lens) = lanes_code::<N>(&blocks, c, phase);
    let mut want = BitWriter::new();
    want.write_bits(0x2D5A_96B4_C3E1_F078, phase);
    let want_lens: Vec<u32> =
        blocks.iter().map(|b| encode_block(b, c, &mut want).expect("finite block")).collect();
    assert_eq!(got_lens, want_lens, "bits written: {}", ctx());
    let bytes = want.into_bytes();
    assert!(got == bytes, "bytes: {}", ctx());
    let starts = want_lens.iter().scan(phase as u64, |at, &len| {
        *at += len as u64;
        Some(*at - len as u64)
    });
    let starts: Vec<u64> = starts.collect();
    for cap in [false, true] {
        let lanes: Vec<(u64, u32)> = starts
            .iter()
            .zip(&want_lens)
            .map(|(&at, &len)| (at, if cap { c.maxbits } else { len }))
            .collect();
        assert_reads_equivalent::<N>(&bytes, &lanes, c, cpu::level(), &ctx);
    }
}

/// Reads the blocks `lanes` of `bytes` — a `(start bit, budget)` each, at
/// most [`LANES`] — in the lanes and with the reference: the same values
/// and bits consumed, or a refusal from both. A lane refuses a block whose
/// header is longer than its budget; the driver refuses one that ends past
/// the bytes it holds. At a fixed rate a block spans its whole budget.
fn assert_reads_equivalent<const N: usize>(
    bytes: &[u8],
    lanes: &[(u64, u32)],
    c: &Coding,
    level: Level,
    ctx: &dyn Fn() -> String,
) {
    // At a fixed rate every lane's budget is the coding's.
    let got = if !c.fixed_rate || lanes.iter().all(|&(_, b)| b == c.maxbits) {
        lanes_read::<N>(bytes, lanes, c, level)
    } else {
        let one = |&(at, b): &(u64, u32)| lanes_read::<N>(bytes, &[(at, b)], &Coding { maxbits: b, ..*c }, level);
        lanes.iter().map(one).collect::<Option<Vec<_>>>().map(|v| v.concat())
    };
    let got = got.expect("a level this CPU runs");
    for (l, (&(at, budget), (used, values))) in lanes.iter().zip(got).enumerate() {
        let mut r = BitReader::new(bytes);
        r.skip_bits(at);
        let mut want = vec![f32::NAN; N];
        let span = if c.fixed_rate { budget } else { used };
        let refused = used > budget || at + span as u64 > 8 * bytes.len() as u64;
        match decode_block(&mut r, c, budget, &mut want) {
            Ok(w) => {
                assert!(!refused, "lane {l} refused what the reference reads: {}", ctx());
                assert_eq!(span, w, "lane {l}: bits consumed at budget {budget}: {}", ctx());
                assert!(bits(&values) == bits(&want), "lane {l}, values at budget {budget}: {}", ctx());
            }
            Err(Error::Corrupt(_)) => assert!(refused, "lane {l} read a block the reference refused: {}", ctx()),
            Err(e) => panic!("lane {l}: reference {e} at budget {budget}: {}", ctx()),
        }
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
            // Every class in a lane of its own, the classes turned by one
            // lane each time.
            let turn = phase % classes.len();
            let turned: Vec<_> = classes[turn..].iter().chain(&classes[..turn]).copied().collect();
            assert_group_equivalent(&turned, &c, (phase % 64) as u32);
            phase += 1;
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
/// Held by the reference coder and by the lanes, for every value class
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
                let (by_lanes, used) = lanes_code::<N>(&[&values], &c, 0);
                assert_eq!(used, [full.min(budget)], "lanes: {what}, N = {N}, budget {budget}");
                assert!(by_lanes == want, "lanes: {what}, N = {N}, budget {budget}");
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

/// Arbitrary bits are a stream too: whatever they hold, the lanes and the
/// reference must read the same block from them or both refuse —
/// including when the bits run out inside the block.
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
            assert_reads_equivalent::<N>(&bytes, &[(phase as u64, maxbits)], &c, cpu::level(), &ctx);
        }
    }
    let mut seed = 0x0123_4567_89AB_CDEF;
    check::<4>(&mut seed);
    check::<16>(&mut seed);
    check::<64>(&mut seed);
}

/// Any word is a 4-value block under any budget a word can hold: the
/// lanes and the reference must read the same values from it or both
/// refuse — budgets short of the header, budgets that cut every plane of
/// every code, and the whole word. The table step sees each of them here.
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
        for fixed_rate in [false, true] {
            for planes in [reference::Planes::Count(32), plane_settings()[round as usize % 40]] {
                // The same block under sixteen budgets at once, a lane each.
                for budgets in (1..=64u32).collect::<Vec<_>>().chunks(LANES) {
                    let c = Coding { d: 1, maxbits: budgets[0], fixed_rate, planes };
                    let lanes: Vec<(u64, u32)> = budgets.iter().map(|&b| (phase as u64, b)).collect();
                    let ctx = || format!("word {word:#018x}, phase {phase}, budgets {budgets:?}, {c:?}");
                    assert_reads_equivalent::<4>(&bytes, &lanes, &c, cpu::level(), &ctx);
                }
            }
        }
    }
}

/// A 64-value block whose first coded plane is one unary run of every
/// length, behind every reader phase: the run's one sits at each place
/// inside and outside a 56-bit window, is implied at the last
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
            let budgets: Vec<u32> = (10..=80).chain([200, 512, 9 + 32 * 66]).collect();
            for budgets in budgets.chunks(LANES) {
                for fixed_rate in [false, true] {
                    let planes = reference::Planes::Count(32);
                    let c = Coding { d: 3, maxbits: budgets[0], fixed_rate, planes };
                    let lanes: Vec<(u64, u32)> = budgets.iter().map(|&b| (phase as u64, b)).collect();
                    let ctx = || format!("{zeros} zeros, phase {phase}, budgets {budgets:?}, {c:?}");
                    assert_reads_equivalent::<64>(&bytes, &lanes, &c, cpu::level(), &ctx);
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

/// Block `l` of `values`, coded by the reference coder, as the word the
/// lanes leave for it.
fn reference_word(values: &[f32; 4 * LANES], l: usize, c: &Coding) -> u64 {
    let mut w = BitWriter::new();
    assert_eq!(encode_block(&values[4 * l..4 * l + 4], c, &mut w), Some(c.maxbits));
    BitReader::new(&w.into_bytes()).take_bits(c.maxbits)
}

/// Codes of at most 64 bits laid out as the lanes take them: one word a
/// lane, nothing past it.
fn one_word_rows(words: &[u64; LANES]) -> LaneRows {
    let mut rows = [[0; LANES]; ROWS];
    rows[0] = *words;
    rows
}

/// Block `l` of `words` read by the reference reader.
fn reference_values(words: &[u64; LANES], l: usize, c: &Coding) -> [f32; 4] {
    let bytes = words[l].to_le_bytes();
    let mut out = [f32::NAN; 4];
    let used = decode_block(&mut BitReader::new(&bytes), c, c.maxbits, &mut out);
    assert_eq!(used.unwrap(), c.maxbits, "lane {l}, word {:#x}", words[l]);
    out
}

/// The lanes code every group as the reference codes its blocks one by
/// one, at every fixed-rate budget a word holds and at every level, and
/// read those words back to the reference's values.
#[test]
fn lanes_code_and_read_like_the_scalar_coder_at_every_level_and_budget() {
    let mut seed = 0x5851_F42D_4C95_7F2Du64;
    let groups = lane_groups(&mut seed);
    for maxbits in HEADER_BITS + 1..=64 {
        let c = rate_coding(maxbits);
        let coding = c.kernel();
        for (what, values) in &groups {
            let want: [u64; LANES] = std::array::from_fn(|l| reference_word(values, l, &c));
            let want_values: Vec<u32> =
                (0..LANES).flat_map(|l| bits(&reference_values(&want, l, &c))).collect();
            for level in levels() {
                let (mut rows, values) = ([[0u64; LANES]; ROWS], std::slice::from_ref(values));
                let coded =
                    encode_at::<4>(level, values, &coding, &mut rows);
                let lens = coded.flatten().unwrap_or_else(|| panic!("{what}, {maxbits} bits, {level:?}"));
                assert!(lens.iter().all(|&len| len > 0), "{what}, {maxbits} bits, {level:?}");
                let words = rows[0];
                assert_eq!(words, want, "{what}, {maxbits} bits, {level:?}: words");
                let (mut out, rows) = ([[f32::NAN; 4 * LANES]], one_word_rows(&words));
                let spans = [maxbits; LANES];
                decode_at::<4>(level, &rows, &coding, &spans, &mut out).unwrap();
                assert!(bits(&out[0]) == want_values, "{what}, {maxbits} bits, {level:?}: values");
            }
        }
    }
}

/// Any word is a fixed-rate block: random, sparse and dense words, and
/// hostile headers — the smallest and largest exponents, runs of empty
/// planes up to and past the budget — decode in the lanes, at every
/// level, to exactly what the reference reader makes of each word.
#[test]
fn lanes_read_arbitrary_words_like_the_scalar_reader_at_every_level() {
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    for maxbits in HEADER_BITS + 1..=64 {
        let c = rate_coding(maxbits);
        let (coding, spans) = (c.kernel(), [maxbits; LANES]);
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
                (0..LANES).flat_map(|l| bits(&reference_values(&words, l, &c))).collect();
            for level in levels() {
                let (mut out, rows) = ([[f32::NAN; 4 * LANES]], one_word_rows(&words));
                decode_at::<4>(level, &rows, &coding, &spans, &mut out).unwrap();
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
/// of that group — at every level, in every mode.
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
                let mut rows = [[0x5A5A_A5A5_C3C3_3C3C; LANES]; ROWS];
                let values = std::slice::from_ref(&values);
                let coded = encode_at::<4>(level, values, &c, &mut rows);
                assert_eq!(coded, Some(None), "{bad} at {at}, {level:?}");
                assert_eq!(
                    rows, [[0x5A5A_A5A5_C3C3_3C3C; LANES]; ROWS],
                    "{bad} at {at}, {level:?}"
                );
            }
        }
    }
    // Through the line coder: the groups before the bad one are written,
    // nothing of it or after it.
    let precision = BlockCoding::new(&lossy_zfp::ZfpMode::FixedPrecision(16), 1);
    for bad_group in 0..3 {
        let mut line = field(3 * 4 * LANES + 5, 9);
        line[bad_group * 4 * LANES + 17] = f32::NAN;
        let mut w = BitWriter::new();
        let mut coded = 0;
        assert_eq!(codec::encode_line(&line, &c, &mut w, |_| coded += 1), None);
        assert_eq!(coded, bad_group * LANES, "group {bad_group}");
        assert_eq!(w.bit_len(), (bad_group * LANES) as u64 * 32, "group {bad_group}");
        let (mut w, mut written) = (BitWriter::new(), 0);
        assert_eq!(codec::encode_line(&line, &precision, &mut w, |len| written += len as u64), None);
        assert_eq!(w.bit_len(), written, "group {bad_group}, precision");
    }
}

/// A kernel that lifts `L` blocks side by side, forward or back.
struct Lift<'a, const N: usize>(&'a mut [[i32; LANES]; N], bool);

impl<const N: usize> cpu::Kernel for Lift<'_, N> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        lossy_zfp::lift::xform_lanes(self.0, self.1);
    }
}

/// The transform of 2-D and 3-D blocks across the lanes, at every level,
/// against the per-axis lift that ran a line at a time, both ways, on the
/// cast of every value class and on arbitrary coefficients.
#[test]
fn staging_equals_the_per_axis_lift_at_every_level() {
    fn check<const N: usize>(seed: &mut u64) {
        let d = N.ilog(4) as u8;
        let mut blocks: Vec<Vec<i32>> = value_classes::<N>(seed)
            .iter()
            .map(|(_, values)| {
                let top = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let emax = if top == 0.0 { 0 } else { reference::exponent(top).clamp(-127, 128) };
                values.iter().map(|&v| (v as f64 * reference::f64_pow2(30 - emax)) as i32).collect()
            })
            .collect();
        while blocks.len() < 200 {
            blocks.push((0..N).map(|_| (xorshift(seed) as i32) >> 2).collect());
        }
        for (round, group) in blocks.chunks(LANES).enumerate() {
            for forward in [true, false] {
                let mut want: Vec<Vec<i32>> = group.to_vec();
                for q in &mut want {
                    if forward {
                        reference::old_lift::fwd_xform(q, d);
                    } else {
                        reference::old_lift::inv_xform(q, d);
                    }
                }
                for level in levels() {
                    let mut q = [[0i32; LANES]; N];
                    for (l, block) in group.iter().enumerate() {
                        (0..N).for_each(|i| q[i][l] = block[i]);
                    }
                    cpu::at(level, Lift(&mut q, forward)).unwrap();
                    for (l, want) in want.iter().enumerate() {
                        let got: Vec<i32> = (0..N).map(|i| q[i][l]).collect();
                        assert!(got == *want, "round {round}, lane {l}, N = {N}, {forward}, {level:?}");
                    }
                }
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
        set_lane(&mut rows, l, code, 0, maxbits);
    }
    rows
}

/// Reads `codes` — a group of fixed-rate `N`-value blocks, all-zero
/// blocks past them — in the lanes at every level, and requires each
/// block's values to be the reference's, bit for bit.
fn assert_lanes_read_like_the_scalar_reader<const N: usize>(
    codes: &[Vec<u8>],
    maxbits: u32,
    what: &dyn Fn() -> String,
) {
    let d = N.ilog(4) as u8;
    let c = Coding { d, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) };
    let zero = vec![0u8; maxbits.div_ceil(8) as usize];
    let want: Vec<Vec<f32>> = (0..LANES)
        .map(|l| {
            let mut out = vec![f32::NAN; N];
            let code = codes.get(l).unwrap_or(&zero);
            let used = decode_block(&mut BitReader::new(code), &c, maxbits, &mut out);
            assert_eq!(used.unwrap(), maxbits, "lane {l}: {}", what());
            out
        })
        .collect();
    let (rows, coding, spans) = (rows_of(codes, maxbits), c.kernel(), [maxbits; LANES]);
    for level in levels() {
        let mut out = vec![[f32::NAN; 4 * LANES]; N / 4];
        decode_at::<N>(level, &rows, &coding, &spans, &mut out).unwrap();
        for (l, want) in want.iter().enumerate() {
            let got: Vec<f32> = (0..N).map(|i| out[i / 4][4 * l + i % 4]).collect();
            assert!(bits(&got) == bits(want), "lane {l}, {level:?}: {}", what());
        }
    }
}

/// The fixed-rate code of `block`, as the reference writes it.
fn code_of<const N: usize>(block: &[f32], maxbits: u32) -> Vec<u8> {
    let d = N.ilog(4) as u8;
    let c = Coding { d, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) };
    let mut w = BitWriter::new();
    assert_eq!(encode_block(block, &c, &mut w), Some(maxbits));
    w.into_bytes()
}

/// 16- and 64-value blocks (and 4-value blocks past one word) read in
/// the lanes as the reference reads them, at every level, at every
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

/// Through `decompress`: 2-D and 3-D streams in every mode — fixed-rate
/// ones whose last group of lanes is partial, whose extents are not
/// multiples of 4 and whose blocks are not whole bytes or words, and
/// variable-length ones — read on 1, 2 and 4 threads to the per-block
/// oracle's values; and every range of block layers reads to its slice of
/// them.
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
    let configs = [0.7, 2.5, 4.0, 5.5, 8.0, 16.0, 33.0]
        .map(ZfpConfig::rate)
        .into_iter()
        .chain([ZfpConfig::precision(12), ZfpConfig::accuracy(1e-3), ZfpConfig::accuracy(30.0)]);
    for cfg in configs {
        for dims in shapes {
            let data = field(dims.len(), 0x3C6E_F372);
            let tiles = foresight_util::Tiles::cubes(dims, 4).unwrap();
            let stream = compress(&data, dims, &cfg).unwrap();
            let want = bits(&oracle_decompress(&stream, dims, &cfg));
            for threads in [1, 2, 4] {
                let got = on_threads(threads, || decompress(&stream).unwrap().0);
                assert!(bits(&got) == want, "{dims:?} {:?}, {threads} threads", cfg.mode);
            }
            let n = tiles.layer_count();
            for a in 0..n {
                for b in a + 1..=n {
                    let got = lossy_zfp::decompress_layers(&stream, a..b).unwrap().0;
                    let slice = &want[tiles.layers(a..b).values];
                    assert!(bits(&got) == slice, "{dims:?} {:?}, layers {a}..{b}", cfg.mode);
                }
            }
        }
    }
}

/// The first `maxbits` bits of lane `l`'s code in `rows`, a word at a
/// time: the bits past the budget are not the block's.
fn lane_code(rows: &LaneRows, l: usize, maxbits: u32) -> Vec<u64> {
    (0..maxbits.div_ceil(64) as usize)
        .map(|j| rows[j][l] & (u64::MAX >> 64u32.saturating_sub(maxbits - 64 * j as u32)))
        .collect()
}

/// The reference coder's code of `block` under `c`, a word at a time, and
/// its length.
fn reference_code(block: &[f32], c: &Coding) -> (Vec<u64>, u32) {
    let mut w = BitWriter::new();
    let len = encode_block(block, c, &mut w).unwrap();
    let bytes = w.into_bytes();
    let mut r = BitReader::new(&bytes);
    ((0..len.div_ceil(64)).map(|j| r.take_bits((len - 64 * j).min(64))).collect(), len)
}

/// The encoder's lanes code 16- and 64-value blocks (and 4-value blocks
/// past one word) as the bit-at-a-time reference coder codes each of
/// them, at every level: at every fixed-rate budget from 10 to 1 024 bits,
/// and at fixed precisions and accuracies, whose lanes stop at planes of
/// their own; on groups that mix the fifteen value classes across the
/// lanes, and at a spread of budgets on groups of one class each.
#[test]
fn lanes_encode_16_and_64_value_blocks_like_the_scalar_coder_at_every_level_and_budget() {
    fn check<const N: usize>(budgets: impl Iterator<Item = u32>, seed: &mut u64) {
        let d = N.ilog(4) as u8;
        let classes = lane_values(seed, N);
        let block = |class: usize, l: usize| &classes[class % 15].1[N * l..N * l + N];
        let rate = |maxbits| Coding { d, maxbits, fixed_rate: true, planes: reference::Planes::Count(32) };
        let cap = Coding::new(&lossy_zfp::ZfpMode::FixedPrecision(32), d).maxbits;
        let variable = plane_settings().into_iter().map(|planes| Coding {
            d,
            maxbits: cap,
            fixed_rate: false,
            planes,
        });
        for c in budgets.map(rate).chain(variable) {
            let mut groups: Vec<(String, Vec<&[f32]>)> = [0, 7]
                .iter()
                .map(|turn| {
                    let blocks =
                        (0..LANES).map(|l| block(l + turn + c.maxbits as usize, l)).collect();
                    (format!("mixed classes, turn {turn}"), blocks)
                })
                .collect();
            let spread = c.maxbits % 61 == 10 || [64, 65, 128, 256, 512, 1024].contains(&c.maxbits);
            if spread || !c.fixed_rate {
                for (class, (name, _)) in classes.iter().enumerate() {
                    groups.push((name.to_string(), (0..LANES).map(|l| block(class, l)).collect()));
                }
            }
            let coding = c.kernel();
            for (what, blocks) in &groups {
                let want: Vec<(Vec<u64>, u32)> = blocks.iter().map(|b| reference_code(b, &c)).collect();
                let values = lane_runs::<N>(blocks);
                for level in levels() {
                    let mut rows = [[0x5A5A_A5A5_C3C3_3C3C; LANES]; ROWS];
                    let lens = encode_at::<N>(level, &values, &coding, &mut rows).unwrap();
                    let lens = lens.unwrap_or_else(|| panic!("{what}, N = {N}, {c:?}, {level:?}"));
                    for (l, (want, len)) in want.iter().enumerate() {
                        let got = lane_code(&rows, l, *len);
                        let ctx = || format!("{what}, N = {N}, {c:?}, lane {l}, {level:?}");
                        // A fixed-rate code is padded to its budget.
                        let cut = lens[l].min(c.maxbits);
                        assert!(cut == *len || c.fixed_rate && cut < *len, "{}", ctx());
                        assert!(got == *want, "{}", ctx());
                    }
                }
            }
        }
    }
    let mut seed = 0x3C6E_F372_FE94_F82Bu64;
    check::<16>(HEADER_BITS + 1..=1024, &mut seed);
    check::<64>(HEADER_BITS + 1..=1024, &mut seed);
    check::<4>(65..=9 + 32 * 6, &mut seed);
}

/// A NaN or an infinity in any single lane refuses the group at every
/// level, the rows left as they were; through `encode_group` the writer
/// is left untouched; and through `compress` the error is the typed one,
/// naming the first such index, wherever in a group it sits — in every
/// mode.
#[test]
fn lanes_refuse_a_non_finite_value_in_any_single_lane_and_leave_the_writer_untouched() {
    fn check<const N: usize>(c: &BlockCoding, seed: &mut u64) {
        let unit = |s: &mut u64| (xorshift(s) >> 40) as f32 / (1 << 24) as f32 - 0.5;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for l in 0..LANES {
                let mut blocks: Vec<Vec<f32>> =
                    (0..LANES).map(|_| (0..N).map(|_| unit(seed) * 1e3).collect()).collect();
                blocks[l][(l * 7 + 3) % N] = bad;
                let refs: Vec<&[f32]> = blocks.iter().map(|b| &b[..]).collect();
                let values = lane_runs::<N>(&refs);
                let what = format!("{bad} in lane {l}, N = {N}, {c:?}");
                for level in levels() {
                    let mut rows = [[0x5A5A_A5A5_C3C3_3C3C; LANES]; ROWS];
                    let coded =
                        encode_at::<N>(level, &values, c, &mut rows);
                    assert_eq!(coded, Some(None), "{what}, {level:?}");
                    assert!(
                        rows == [[0x5A5A_A5A5_C3C3_3C3C; LANES]; ROWS],
                        "{what}, {level:?}: rows"
                    );
                }
                let (mut w, mut rows) = (BitWriter::new(), [[0; LANES]; ROWS]);
                w.write_bits(0b101, 3);
                let coded = codec::encode_group::<N>(&values, LANES, c, &mut rows, &mut w.tail(), |_| ());
                assert_eq!(coded, None, "{what}");
                assert_eq!(w.bit_len(), 3, "{what}: writer");
            }
        }
    }
    let mut seed = 0x510E_527F_ADE6_82D1u64;
    let rate = |d: u8, maxbits: u32| BlockCoding::new(&lossy_zfp::ZfpMode::FixedRate(maxbits as f64 / 4f64.powi(d as i32)), d);
    check::<16>(&rate(2, 64), &mut seed);
    check::<64>(&rate(3, 256), &mut seed);
    check::<64>(&rate(3, 1000), &mut seed);
    check::<4>(&rate(1, 80), &mut seed);
    check::<64>(&BlockCoding::new(&lossy_zfp::ZfpMode::FixedAccuracy(1e-3), 3), &mut seed);
    check::<4>(&BlockCoding::new(&lossy_zfp::ZfpMode::FixedPrecision(16), 1), &mut seed);
    // Through the driver: the bad value in each lane of the first group,
    // whose blocks span block rows (and, in 3-D, block layers).
    for dims in [Dims::D3(9, 5, 6), Dims::D2(5, 70)] {
        let [nx, ny, _] = dims.extents();
        for (l, o) in block_origins(dims).into_iter().enumerate().take(LANES) {
            let at = o[0] + nx * (o[1] + ny * o[2]) + nx.min(3) - 1;
            let mut data = field(dims.len(), 11);
            data[at] = f32::NAN;
            for cfg in [ZfpConfig::rate(4.0), ZfpConfig::rate(16.0), ZfpConfig::accuracy(1e-2)] {
                let err = compress(&data, dims, &cfg).unwrap_err();
                assert!(matches!(err, Error::InvalidArgument(_)), "{dims:?} lane {l}: {err}");
                assert!(
                    err.to_string().contains(&format!("value {at} ")),
                    "{dims:?} lane {l}: {err}"
                );
            }
        }
    }
}

/// The driver codes streams whose groups of lanes cross block rows, block
/// layers and ragged edges byte for byte as the per-block oracle does, in
/// every mode, and they decode to the oracle's values, on 1, 2 and 4
/// threads and on the device: 3-D and 2-D shapes at rates whose blocks
/// are not whole bytes or words and at fixed precisions and accuracies,
/// and 1-D blocks past one word.
#[test]
fn lanes_encode_streams_like_the_per_block_oracle_on_any_thread_count() {
    let mut cases: Vec<(Dims, ZfpConfig)> = Vec::new();
    let variable = [ZfpConfig::precision(10), ZfpConfig::precision(24), ZfpConfig::accuracy(1e-2)];
    for dims in [Dims::D3(9, 5, 6), Dims::D3(17, 1, 33), Dims::D2(5, 70), Dims::D3(16, 16, 16)] {
        for rate in [0.3, 1.0, 2.5, 4.0, 5.5, 8.0, 16.0, 33.0] {
            cases.push((dims, ZfpConfig::rate(rate)));
        }
        cases.extend(variable.map(|cfg| (dims, cfg)));
    }
    for len in [1, 63, 64, 65, 4 * LANES + 3, 4 * G + 1] {
        for cfg in [ZfpConfig::rate(20.0), ZfpConfig::rate(33.0)].into_iter().chain(variable) {
            cases.push((Dims::D1(len), cfg));
        }
    }
    for (dims, cfg) in cases {
        let data = field(dims.len(), 0xA54F_F53A);
        let want = oracle_compress(&data, dims, &cfg);
        let values = bits(&oracle_decompress(&want, dims, &cfg));
        for threads in [1, 2, 4] {
            let got = on_threads(threads, || compress(&data, dims, &cfg).unwrap());
            assert!(got == want, "{dims:?} {:?}, {threads} threads: bytes", cfg.mode);
            let rec = on_threads(threads, || decompress(&got).unwrap().0);
            assert!(bits(&rec) == values, "{dims:?} {:?}, {threads} threads: values", cfg.mode);
        }
        let mut dev = Device::new(GpuSpec::tesla_v100());
        let (traced, _) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
        assert!(traced == want, "{dims:?} {:?}, device: bytes", cfg.mode);
        let (rec, ..) = decompress_on(&mut dev, &traced).unwrap();
        assert!(bits(&rec) == values, "{dims:?} {:?}, device: values", cfg.mode);
    }
}

/// Fixed-rate codes are embedded: in 1-D, 2-D and 3-D streams, for every
/// pair of rates r' < r of 1, 2, 4, 8, 12 and 16, each block's rate-r'
/// code is the first bits of its rate-r code — so a stream read at a
/// lower rate is a prefix read of each block.
#[test]
fn lanes_code_each_block_at_a_lower_rate_as_a_prefix_of_its_code_at_a_higher_rate() {
    let rates = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0];
    for dims in [Dims::D1(4 * LANES * 5 + 3), Dims::D2(37, 29), Dims::D3(21, 13, 10)] {
        let data = field(dims.len(), 0x9B05_688C);
        let blocks = block_origins(dims).len();
        let payload = |rate: f64| {
            let stream = compress(&data, dims, &ZfpConfig::rate(rate)).unwrap();
            (
                stream[64..].to_vec(),
                BlockCoding::new(&lossy_zfp::ZfpMode::FixedRate(rate), dims.ndim()).maxbits,
            )
        };
        let coded: Vec<(Vec<u8>, u32)> = rates.iter().map(|&r| payload(r)).collect();
        for (i, (low, low_bits)) in coded.iter().enumerate() {
            for (high, high_bits) in &coded[i + 1..] {
                for b in 0..blocks {
                    let mut lo = BitReader::new(low);
                    let mut hi = BitReader::new(high);
                    lo.skip_bits(b as u64 * *low_bits as u64);
                    hi.skip_bits(b as u64 * *high_bits as u64);
                    for at in (0..*low_bits).step_by(56) {
                        let n = (low_bits - at).min(56);
                        assert_eq!(
                            lo.take_bits(n),
                            hi.take_bits(n),
                            "{dims:?}: block {b}, {low_bits} bits against {high_bits}, bit {at}"
                        );
                    }
                }
            }
        }
    }
}
