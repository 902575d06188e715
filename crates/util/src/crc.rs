//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! GenericIO — the HACC file format the paper's datasets ship in — protects
//! every block with a CRC; our GIO-lite format keeps that property, and so
//! do every SZ body, ZFP payload and `.fstr` fragment. The checksum runs
//! serially over all of those bytes, so the update loop is slice-by-8:
//! eight derived tables consume one 64-bit word per step, and the bytes
//! left over go through table 0 one at a time.

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
