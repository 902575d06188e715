//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! GenericIO — the HACC file format the paper's datasets ship in — protects
//! every block with a CRC; our GIO-lite format keeps that property, and so
//! do every SZ body, ZFP payload and `.fstr` fragment. The checksum runs
//! serially over all of those bytes, so the update loop is slice-by-8:
//! eight derived tables consume one 64-bit word per step, and the bytes
//! left over go through table 0 one at a time.

use rayon::prelude::*;
use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

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
        let t = tables();
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        self.state = crc;
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

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
        let buf = noise(80);
        for start in 0..8 {
            for len in 0..=67 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF,
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn arbitrary_update_splits_match_bytewise() {
        let buf = noise(300);
        let want = bytewise(0xFFFF_FFFF, &buf) ^ 0xFFFF_FFFF;
        for a in 0..=40 {
            for b in [0usize, 1, 7, 8, 9, 63, 64, 65, 200] {
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
