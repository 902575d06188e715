//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! GenericIO — the HACC file format the paper's datasets ship in — protects
//! every block with a CRC; our GIO-lite format keeps that property, and so
//! do every SZ body, ZFP payload and `.fstr` fragment. A span of
//! `FOLD_MIN` (128) bytes or more runs on the CPU's carry-less multiply when it
//! has one (`fold`, DESIGN §22): four 128-bit lanes folded 64 bytes
//! ahead, then one lane, then a Barrett reduction to 32 bits. Shorter
//! spans, the fold's last < 16 bytes and CPUs without the instruction go
//! through slice-by-8 (`slice_by_8`): eight derived tables consume one
//! 64-bit word per step, and the bytes left over go through table 0 one
//! at a time. Both paths give the same register for the same bytes.

use rayon::prelude::*;
use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// Shortest span worth folding: the four lanes load 64 bytes before the
/// loop, and below two strides the table loop is as fast.
pub(crate) const FOLD_MIN: usize = 128;

/// `tables()[k][b]` is the CRC of byte `b` followed by `k` zero bytes;
/// table 0 is the classic bytewise table.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// The portable update: the CRC register after `data`, from `state`.
/// Fallback for short spans and other CPUs, and the fold's test oracle.
fn slice_by_8(state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = state;
    let (words, rest) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// The CRC register after `data`, from `state`, by carry-less folding
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ", Intel 2009, bit-reflected form). Every constant is
/// `x^n mod P` for the fold distance `n`, bit-reflected; the bytes are
/// read through slices only. Called through [`crate::cpu::crc32_fold`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
pub(crate) fn fold(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // (x^(4·128+32), x^(4·128−32)): four lanes forward by 64 bytes.
    const K1_K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    // (x^(128+32), x^(128−32)): one lane forward by 16 bytes.
    const K3_K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    // x^64 mod P, for 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    // P(x) and μ = ⌊x^64 / P(x)⌋ for the Barrett step.
    const P_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    let (lanes, tail) = data.as_chunks::<16>();
    let [l3, l2, l1, l0, rest @ ..] = lanes else {
        return slice_by_8(state, data);
    };
    let k1k2 = _mm_set_epi64x(K1_K2.1, K1_K2.0);
    let k3k4 = _mm_set_epi64x(K3_K4.1, K3_K4.0);
    let mut x =
        [_mm_xor_si128(lane(l3), _mm_cvtsi32_si128(state as i32)), lane(l2), lane(l1), lane(l0)];
    let (quads, singles) = rest.as_chunks::<4>();
    for quad in quads {
        for (xi, l) in x.iter_mut().zip(quad) {
            *xi = fold_into(*xi, lane(l), k1k2);
        }
    }
    let [x3, x2, x1, x0] = x;
    let mut acc = fold_into(fold_into(fold_into(x3, x2, k3k4), x1, k3k4), x0, k3k4);
    for l in singles {
        acc = fold_into(acc, lane(l), k3k4);
    }

    // 128 → 96 → 64 bits, then Barrett down to the 32-bit register,
    // which the bit-reflected form leaves in bits 32..64.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
    let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
    slice_by_8(crc, tail)
}

/// 16 bytes as one lane, little-endian as a vector load would read them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn lane(bytes: &[u8; 16]) -> std::arch::x86_64::__m128i {
    let v = u128::from_le_bytes(*bytes);
    std::arch::x86_64::_mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// `acc` carried forward over the distance `keys` encodes, plus `next`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn fold_into(
    acc: std::arch::x86_64::__m128i,
    next: std::arch::x86_64::__m128i,
    keys: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
    let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// Streaming CRC32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.state = match crate::cpu::crc32_fold(self.state, data) {
            Some(crc) => crc,
            None => slice_by_8(self.state, data),
        };
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// `vec` times the GF(2) matrix whose row `i` is `mat[i]`.
const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

const fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut square = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        square[i] = gf2_times(mat, mat[i]);
        i += 1;
    }
    square
}

/// `ZEROS[k]` advances a CRC register over `2^k` zero bytes: the one-bit
/// shift operator squared `k + 3` times.
static ZEROS: [[u32; 32]; 64] = {
    let mut bit = [0u32; 32];
    bit[0] = POLY;
    let mut i = 1;
    while i < 32 {
        bit[i] = 1 << (i - 1);
        i += 1;
    }
    let mut ops = [gf2_square(&gf2_square(&gf2_square(&bit))); 64];
    let mut k = 1;
    while k < 64 {
        ops[k] = gf2_square(&ops[k - 1]);
        k += 1;
    }
    ops
};

/// CRC32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and the length of `b`, so
/// pieces checksummed where they are produced — on any thread — join into
/// the checksum of the whole. Appending `b` to `a` is, for the register,
/// appending `len_b` zero bytes (a linear map, applied here one set bit of
/// `len_b` at a time) and then adding `b`'s own checksum.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut crc = crc_a;
    let mut rest = len_b;
    while rest != 0 {
        crc = gf2_times(&ZEROS[rest.trailing_zeros() as usize], crc);
        rest &= rest - 1;
    }
    crc ^ crc_b
}

/// [`crc32`] with the work spread over the worker threads: `data` is
/// checksummed in pieces and the pieces combined, so the checksum of a
/// large payload is not a serial pass behind parallel ones. A payload of
/// one piece — anything a chunk-sized call produces — stays on the
/// calling thread.
pub fn crc32_parallel(data: &[u8]) -> u32 {
    const PIECE: usize = 1 << 18;
    if data.len() <= PIECE {
        return crc32(data);
    }
    let crcs: Vec<u32> = data.par_chunks(PIECE).map(crc32).collect();
    let lens = data.chunks(PIECE).map(|piece| piece.len() as u64);
    crcs.into_iter().zip(lens).fold(0, |crc, (piece, len)| crc32_combine(crc, piece, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slice-by-8 update replaced.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        let t = &tables()[0];
        data.iter().fold(state, |c, &b| (c >> 8) ^ t[((c ^ b as u32) & 0xff) as usize])
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    }

    /// The portable checksum, bypassing the dispatch.
    fn portable(data: &[u8]) -> u32 {
        slice_by_8(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
        let buf = noise(80);
        for start in 0..8 {
            for len in 0..=67 {
                let data = &buf[start..start + len];
                assert_eq!(
                    portable(data),
                    bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF,
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn hardware_path_runs_where_the_cpu_has_it() {
        let data = noise(FOLD_MIN);
        let folded = crate::cpu::crc32_fold(0xFFFF_FFFF, &data);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(folded.is_some(), std::arch::is_x86_feature_detected!("pclmulqdq"));
        if let Some(register) = folded {
            assert_eq!(register ^ 0xFFFF_FFFF, portable(&data));
        }
        assert_eq!(crate::cpu::crc32_fold(0xFFFF_FFFF, &data[1..]), None, "below FOLD_MIN");
    }

    #[test]
    fn fold_matches_slice_by_8_at_every_length_and_offset() {
        let buf = noise(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), portable(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn fold_matches_slice_by_8_on_a_field_sized_buffer() {
        let big = noise(9_400_000 + 7);
        assert_eq!(crc32(&big), portable(&big));
        assert_eq!(crc32(&big[3..]), portable(&big[3..]));
    }

    #[test]
    fn arbitrary_update_splits_match_bytewise() {
        // Every first cut up to 300, second cuts around the word, lane,
        // four-lane and FOLD_MIN thresholds.
        const SECOND: [usize; 18] =
            [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 143, 144, 200, 257];
        let buf = noise(700);
        let want = bytewise(0xFFFF_FFFF, &buf) ^ 0xFFFF_FFFF;
        for a in 0..=300 {
            for b in SECOND {
                let (a, b) = (a.min(buf.len()), (a + b).min(buf.len()));
                let mut h = Crc32::new();
                h.update(&buf[..a]);
                h.update(&buf[a..b]);
                h.update(&buf[b..]);
                assert_eq!(h.finish(), want, "split {a}/{b}");
            }
        }
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation_at_every_split() {
        let buf = noise(67);
        for len in 0..=buf.len() {
            for cut in 0..=len {
                let (a, b) = buf[..len].split_at(cut);
                let got = crc32_combine(crc32(a), crc32(b), b.len() as u64);
                assert_eq!(got, crc32(&buf[..len]), "len {len} cut {cut}");
            }
        }
        // Lengths with many set bits, across the slice-by-8 word size.
        let big = noise(300_000);
        for cut in [0, 1, 4095, 4096, 65_537, 262_143, 299_999, 300_000] {
            let (a, b) = big.split_at(cut);
            assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32(&big), "{cut}");
        }
    }

    #[test]
    fn combine_is_associative_over_three_pieces() {
        let buf = noise(1000);
        for (i, j) in [(0, 0), (0, 1000), (1, 2), (13, 700), (500, 500), (999, 1000)] {
            let (a, b, c) = (&buf[..i], &buf[i..j], &buf[j..]);
            let (ca, cb, cc) = (crc32(a), crc32(b), crc32(c));
            let (lb, lc) = (b.len() as u64, c.len() as u64);
            let left = crc32_combine(crc32_combine(ca, cb, lb), cc, lc);
            let right = crc32_combine(ca, crc32_combine(cb, cc, lc), lb + lc);
            assert_eq!(left, crc32(&buf), "({i}, {j})");
            assert_eq!(right, crc32(&buf), "({i}, {j})");
        }
    }

    #[test]
    fn parallel_crc_equals_the_serial_one_on_any_thread_count() {
        let big = noise(3 * (1 << 18) + 12_345);
        for len in [0, 1, (1 << 18) - 1, 1 << 18, (1 << 18) + 1, big.len()] {
            for threads in [1, 2, 3] {
                let got = crate::parallel::with_threads(threads, || crc32_parallel(&big[..len]));
                assert_eq!(got, crc32(&big[..len]), "len {len} on {threads} threads");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        data[10] = 0x55;
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
