//! SHA-256 (FIPS 180-4), dependency-free.
//!
//! The golden-vector conformance suite pins compressed bitstreams by
//! digest; CRC32 ([`crate::crc`]) is too easy to collide for that job, so
//! this module provides a real cryptographic hash. `foresight-store` also
//! runs every packed and every verified byte through it, so whole blocks
//! run on the CPU's SHA extensions when it has them (`rounds`, ~1 GB/s,
//! DESIGN §22) and on the portable scalar `compress` (~200 MB/s)
//! otherwise; both give the same state for the same blocks. A field's
//! digest is sequential by definition, so the store hashes different
//! fields on different workers.

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

/// Runs the compression function over every 64-byte block of its input.
type Blocks = fn(&mut [u32; 8], &[u8]);

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
                0x1f83d9ab, 0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, blocks);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(blocks)
    }

    fn absorb(&mut self, data: &[u8], blocks: Blocks) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            let (head, tail) = rest.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            rest = tail;
            if self.buf_len < 64 {
                return;
            }
            blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (whole, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !whole.is_empty() {
            blocks(&mut self.state, whole);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finish(mut self, blocks: Blocks) -> [u8; 32] {
        // The message, 0x80, zeros, then the bit length in the last eight
        // bytes of the first block boundary that leaves room for it.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        blocks(&mut self.state, &pad[..end]);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The block function every digest uses: the SHA extensions when the CPU
/// has them, the portable rounds otherwise.
fn blocks(state: &mut [u32; 8], data: &[u8]) {
    if !crate::cpu::sha256_blocks(state, data) {
        portable(state, data);
    }
}

/// The portable block function: fallback and the SHA extensions' oracle.
fn portable(state: &mut [u32; 8], data: &[u8]) {
    for block in data.as_chunks::<64>().0 {
        compress(state, block);
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (wi, c) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*c);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let add = [a, b, c, d, e, f, g, h];
    for (s, v) in state.iter_mut().zip(add) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function over every 64-byte block of `data` on the
/// SHA extensions (Intel, "New Instructions Supporting the Secure Hash
/// Algorithm on Intel Architecture Processors", 2013). `sha256rnds2`
/// keeps the state as the lane pairs ABEF / CDGH and does two rounds per
/// call; `sha256msg1` / `sha256msg2` extend the schedule four words at a
/// time. Bytes are read through slices only. Called through
/// [`crate::cpu::sha256_blocks`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(crate) fn rounds(state: &mut [u32; 8], data: &[u8]) {
    use std::arch::x86_64::*;
    // Byte-swaps every 32-bit lane: message words are big-endian.
    let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let dcba = _mm_set_epi32(d, c, b, a);
    let hgfe = _mm_set_epi32(h, g, f, e);
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    let quads = K.as_chunks::<4>().0;
    for block in data.as_chunks::<64>().0 {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [_mm_setzero_si128(); 4];
        for (wi, bytes) in w.iter_mut().zip(block.as_chunks::<16>().0) {
            let v = u128::from_le_bytes(*bytes);
            *wi = _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), be);
        }
        let [mut w0, mut w1, mut w2, mut w3] = w;
        for (i, k) in quads.iter().enumerate() {
            // Four rounds on the words of `w0`, then the schedule moves on.
            let [k0, k1, k2, k3] = k.map(|k| k as i32);
            let wk = _mm_add_epi32(w0, _mm_set_epi32(k3, k2, k1, k0));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            if i < 12 {
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                    w3,
                );
                (w0, w1, w2, w3) = (w1, w2, w3, next);
            } else {
                (w0, w1, w2) = (w1, w2, w3);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    let word = |v: __m128i, i| match i {
        0 => _mm_cvtsi128_si32(v),
        1 => _mm_extract_epi32(v, 1),
        2 => _mm_extract_epi32(v, 2),
        _ => _mm_extract_epi32(v, 3),
    };
    for (i, s) in state.iter_mut().enumerate() {
        *s = word(if i < 4 { dcba } else { hgef }, i % 4) as u32;
    }
}

/// One-shot digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest rendered as lowercase hex (the manifest format).
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Lowercase hex of an arbitrary byte string.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest on the portable rounds, bypassing the dispatch.
    fn portable_digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.absorb(data, portable);
        h.finish(portable)
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// `msg` digests to `hex` through the dispatch and the portable rounds.
    fn both_paths(msg: &[u8], hex: &str) {
        assert_eq!(sha256_hex(msg), hex, "dispatched, {} bytes", msg.len());
        assert_eq!(to_hex(&portable_digest(msg)), hex, "portable, {} bytes", msg.len());
    }

    #[test]
    fn hardware_path_runs_where_the_cpu_has_it() {
        let block = noise(64);
        let mut state = Sha256::new().state;
        let ran = crate::cpu::sha256_blocks(&mut state, &block);
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            assert_eq!(ran, has!("sha") && has!("ssse3") && has!("sse4.1"));
        }
        let mut want = Sha256::new().state;
        portable(&mut want, &block);
        if ran {
            assert_eq!(state, want);
        }
    }

    #[test]
    fn rounds_match_portable_at_every_length_and_offset() {
        let buf = noise(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                let data = &buf[start..start + len];
                assert_eq!(sha256(data), portable_digest(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn update_splits_around_the_block_thresholds_match_portable() {
        let buf = noise(400);
        let want = portable_digest(&buf);
        for a in 0..=200 {
            for b in [0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129] {
                let b = (a + b).min(buf.len());
                let mut h = Sha256::new();
                h.update(&buf[..a]);
                h.update(&buf[a..b]);
                h.update(&buf[b..]);
                assert_eq!(h.finalize(), want, "split {a}/{b}");
            }
        }
    }

    #[test]
    fn rounds_match_portable_on_a_field_sized_buffer() {
        let big = noise(9_400_000 + 7);
        assert_eq!(sha256(&big), portable_digest(&big));
    }

    // FIPS 180-4 / NIST CAVP reference vectors, through both paths.
    #[test]
    fn empty_vector() {
        both_paths(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc_vector() {
        both_paths(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_vector() {
        both_paths(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn two_block_896_bit_vector() {
        both_paths(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a_vector() {
        both_paths(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let one = sha256(&data);
        for chunk in [1usize, 7, 63, 64, 65, 500] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), one, "chunk size {chunk}");
        }
    }

    #[test]
    fn single_bit_changes_digest() {
        let mut data = vec![0u8; 256];
        let base = sha256(&data);
        data[100] ^= 1;
        assert_ne!(sha256(&data), base);
    }
}
