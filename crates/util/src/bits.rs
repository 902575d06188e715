//! Bit-granular stream I/O.
//!
//! Both compressors need sub-byte output: SZ's Huffman stage emits
//! variable-length codes and ZFP's embedded coder emits individual
//! significance bits. [`BitWriter`] and [`BitReader`] provide an LSB-first
//! bit stream over a byte buffer: the first bit written is the lowest bit of
//! the first byte. Up to 64 bits can be moved per call.
//!
//! A codec that moves a few bits per call through `&mut BitWriter` /
//! `&mut BitReader` pays a load and a store of the tail word each time. Both
//! types can be worked *by value* instead, so the tail word and its fill
//! count stay in registers across a whole block: [`BitWriter::tail`] lends a
//! [`WriterTail`], and a [`BitReader`] is cloned into a local, read with the
//! zero-padding [`BitReader::take_bits`] / [`BitReader::peek_bits`] /
//! [`BitReader::skip_bits`], and stored back.

use crate::error::{Error, Result};

/// Accumulates bits LSB-first into a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Partially-filled tail word.
    acc: u64,
    /// Number of valid bits in `acc` (0..64).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with capacity for roughly `nbytes` of output.
    pub fn with_capacity(nbytes: usize) -> Self {
        Self { buf: Vec::with_capacity(nbytes), acc: 0, nbits: 0 }
    }

    /// Appends the low `n` bits of `value` (`n <= 64`).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        self.acc |= value << self.nbits;
        let free = 64 - self.nbits;
        if n < free {
            self.nbits += n;
        } else {
            // `acc` is full: flush it and keep the spill-over.
            let full = self.acc;
            self.buf.extend_from_slice(&full.to_le_bytes());
            self.acc = if free == 64 { 0 } else { value >> free };
            self.nbits = n - free;
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= (bit as u64) << self.nbits;
        self.nbits += 1;
        if self.nbits == 64 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends the first `nbits` bits of `bytes`, laid out as
    /// [`BitWriter::into_bytes`] returns them, so separately written runs
    /// join into one stream. A byte-aligned writer takes the whole bytes
    /// as one copy; otherwise they move a 64-bit word at a time.
    ///
    /// # Panics
    /// If `bytes` holds fewer than `nbits` bits.
    pub fn append(&mut self, bytes: &[u8], nbits: u64) {
        let whole = (nbits / 8) as usize;
        if self.nbits.is_multiple_of(8) {
            let held = (self.nbits / 8) as usize;
            self.buf.extend_from_slice(&self.acc.to_le_bytes()[..held]);
            self.acc = 0;
            self.nbits = 0;
            self.buf.extend_from_slice(&bytes[..whole]);
        } else {
            let mut words = bytes[..whole].chunks_exact(8);
            for w in &mut words {
                self.write_bits(u64::from_le_bytes(w.try_into().expect("8-byte chunk")), 64);
            }
            let rest = words.remainder();
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_bits(u64::from_le_bytes(tail), 8 * rest.len() as u32);
        }
        let rem = (nbits % 8) as u32;
        if rem > 0 {
            self.write_bits(bytes[whole] as u64, rem);
        }
    }

    /// A writer that continues after the whole bytes of `bytes`, for
    /// payloads that follow a header in one buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { buf: bytes, acc: 0, nbits: 0 }
    }

    /// Lends the tail word by value; see [`WriterTail`].
    #[inline]
    pub fn tail(&mut self) -> WriterTail<'_> {
        WriterTail { acc: self.acc, nbits: self.nbits, w: self }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        (self.buf.len() as u64) * 8 + self.nbits as u64
    }

    /// Pads with zero bits to the next byte boundary and returns the buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let nbytes = self.nbits.div_ceil(8) as usize;
        let tail = self.acc.to_le_bytes();
        self.buf.extend_from_slice(&tail[..nbytes]);
        self.buf
    }
}

/// A [`BitWriter`]'s tail word held by value.
///
/// Writes go to the copy, which a caller keeps in a local and the compiler
/// in registers; the writer's buffer is touched only when the word fills.
/// Dropping the tail stores it back, so the writer is whole again whenever
/// it can be observed.
#[derive(Debug)]
pub struct WriterTail<'a> {
    w: &'a mut BitWriter,
    acc: u64,
    nbits: u32,
}

impl WriterTail<'_> {
    /// Appends the low `n` bits of `value` (`n <= 64`), exactly as
    /// [`BitWriter::write_bits`] does.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        self.acc |= value << self.nbits;
        let free = 64 - self.nbits;
        if n < free {
            self.nbits += n;
        } else {
            self.w.buf.extend_from_slice(&self.acc.to_le_bytes());
            self.acc = if free == 64 { 0 } else { value >> free };
            self.nbits = n - free;
        }
    }

    /// Appends `n` zero bits, for any `n`.
    #[inline]
    pub fn write_zeros(&mut self, mut n: u32) {
        while n > 64 {
            self.write_bits(0, 64);
            n -= 64;
        }
        self.write_bits(0, n);
    }
}

impl Drop for WriterTail<'_> {
    #[inline]
    fn drop(&mut self) {
        self.w.acc = self.acc;
        self.w.nbits = self.nbits;
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, acc: 0, nbits: 0 }
    }

    #[inline]
    fn refill(&mut self) {
        if self.nbits > 56 {
            return;
        }
        if self.pos + 8 <= self.data.len() {
            // Fast path: one unaligned little-endian word load, inserting as
            // many whole bytes as the accumulator has room for (1..=8).
            let w = u64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
            let take = (64 - self.nbits) >> 3;
            self.acc |= (w & (u64::MAX >> (64 - 8 * take))) << self.nbits;
            self.pos += take as usize;
            self.nbits += 8 * take;
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Reads the next `n` bits (`n <= 64`), erroring on stream exhaustion.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if n <= 56 {
            if self.nbits < n {
                self.refill();
                if self.nbits < n {
                    return Err(Error::corrupt("bit stream exhausted"));
                }
            }
            let v = self.acc & ((1u64 << n) - 1);
            self.acc >>= n;
            self.nbits -= n;
            Ok(v)
        } else {
            // Split large reads: low 32 bits then the rest.
            let lo = self.read_bits(32)?;
            let hi = self.read_bits(n - 32)?;
            Ok(lo | (hi << 32))
        }
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.nbits == 0 {
            self.refill();
            if self.nbits == 0 {
                return Err(Error::corrupt("bit stream exhausted"));
            }
        }
        let bit = self.acc & 1 != 0;
        self.acc >>= 1;
        self.nbits -= 1;
        Ok(bit)
    }

    /// Returns the next `n` bits (`n <= 56`) without consuming them.
    ///
    /// Unlike [`BitReader::read_bits`] this never fails: bits past the end
    /// of the stream read as zero. Callers that act on the peeked value must
    /// [`BitReader::consume`] only as many bits as the stream still holds.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 56);
        if n == 0 {
            return 0;
        }
        if self.nbits < n {
            self.refill();
        }
        self.acc & ((1u64 << n) - 1)
    }

    /// Discards `n` bits (`n <= 56`), erroring on stream exhaustion.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        debug_assert!(n <= 56);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(Error::corrupt("bit stream exhausted"));
            }
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Reads the next `n` bits (`n <= 64`) and never fails: bits past the
    /// end of the stream read as zero and the reader stops at the end. A
    /// caller that must not run past the end compares what it consumed
    /// with [`BitReader::remaining_bits`] taken beforehand.
    #[inline(always)]
    pub fn take_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n > 56 {
            // Split large reads: low 32 bits then the rest.
            let lo = self.take_window(32);
            return lo | self.take_window(n - 32) << 32;
        }
        self.take_window(n)
    }

    /// [`BitReader::take_bits`] within the peek window (`n <= 56`).
    #[inline(always)]
    fn take_window(&mut self, n: u32) -> u64 {
        let v = self.peek_bits(n);
        self.acc >>= n;
        self.nbits = self.nbits.saturating_sub(n);
        v
    }

    /// Discards `n` bits, for any `n`, stopping at the end of the stream.
    #[inline(always)]
    pub fn skip_bits(&mut self, n: u64) {
        if n <= 56 {
            self.take_window(n as u32);
        } else {
            self.skip_far(n);
        }
    }

    /// [`BitReader::skip_bits`] beyond the peek window.
    #[cold]
    fn skip_far(&mut self, n: u64) {
        let held = self.nbits as u64;
        if n < held {
            self.acc >>= n;
            self.nbits -= n as u32;
            return;
        }
        // Drop the held bits, then whole bytes by position, then the rest.
        let n = n - held;
        self.acc = 0;
        self.nbits = 0;
        let left = self.data.len() - self.pos;
        self.pos += left.min(usize::try_from(n / 8).unwrap_or(usize::MAX));
        self.take_window((n % 8) as u32);
    }

    /// Number of bits still available.
    pub fn remaining_bits(&self) -> u64 {
        self.nbits as u64 + 8 * (self.data.len() - self.pos) as u64
    }

    /// The bytes under the reader and the index of its next unread bit in
    /// them, for a caller that loads words from the slice itself and then
    /// brings the reader along with [`BitReader::skip_bits`].
    pub fn position(&self) -> (&'a [u8], usize) {
        (self.data, 8 * self.pos - self.nbits as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xff, 8);
        w.write_bits(0, 5);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bits(5).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 9);
        assert_eq!(w.bit_len(), 10);
        assert_eq!(w.into_bytes().len(), 2);
    }

    #[test]
    fn exhausted_stream_errors() {
        let bytes = [0xabu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xab);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn masks_high_bits_of_value() {
        let mut w = BitWriter::new();
        // Only the low 4 bits of 0xff must land in the stream.
        w.write_bits(0xff, 4);
        w.write_bits(0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x0f]);
    }

    #[test]
    fn zero_bit_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn interleaved_single_bits() {
        let mut w = BitWriter::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn append_matches_bit_by_bit_at_every_length_and_phase() {
        let src: Vec<u8> = (0..17u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for phase in 0..64u32 {
            for len in 0..=130u64 {
                let mut bulk = BitWriter::new();
                let mut slow = BitWriter::new();
                for w in [&mut bulk, &mut slow] {
                    w.write_bits(0x5A5A_A5A5_C3C3_3C3C, phase);
                }
                bulk.append(&src, len);
                for i in 0..len as usize {
                    slow.write_bit(src[i / 8] >> (i % 8) & 1 != 0);
                }
                // A trailing marker checks the writer is left in a usable state.
                for w in [&mut bulk, &mut slow] {
                    w.write_bits(0b1011, 4);
                }
                assert_eq!(bulk.bit_len(), slow.bit_len(), "phase {phase} len {len}");
                assert_eq!(bulk.into_bytes(), slow.into_bytes(), "phase {phase} len {len}");
            }
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Every length at every tail phase, then a pseudo-random interleaving
    /// of plain and by-value calls: the views must be indistinguishable
    /// from the methods they stand in for, bit for bit and position for
    /// position.
    #[test]
    fn by_value_views_equal_the_plain_calls_at_every_length_and_phase() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for phase in 0..64u32 {
            for len in 0..=64u32 {
                // A script of (value, nbits, through the view?) calls.
                let mut script = vec![(0x5A5A_A5A5_C3C3_3C3Cu64, phase, false)];
                script.push((xorshift(&mut seed), len, true));
                for _ in 0..6 {
                    let v = xorshift(&mut seed);
                    script.push((v, (v >> 58) as u32 + (v & 1) as u32, v & 2 != 0));
                }
                script.push((0b1011, 4, false));

                let mut plain = BitWriter::new();
                let mut mixed = BitWriter::new();
                for &(v, n, _) in &script {
                    plain.write_bits(v, n);
                }
                let mut i = 0;
                while i < script.len() {
                    if script[i].2 {
                        // One tail serves a run of consecutive view calls.
                        let mut t = mixed.tail();
                        while i < script.len() && script[i].2 {
                            t.write_bits(script[i].0, script[i].1);
                            i += 1;
                        }
                    } else {
                        mixed.write_bits(script[i].0, script[i].1);
                        i += 1;
                    }
                    let so_far: u64 = script[..i].iter().map(|c| c.1 as u64).sum();
                    assert_eq!(mixed.bit_len(), so_far, "phase {phase} len {len}");
                }
                let bytes = plain.into_bytes();
                assert_eq!(mixed.into_bytes(), bytes, "phase {phase} len {len}");

                let mut plain = BitReader::new(&bytes);
                let mut mixed = BitReader::new(&bytes);
                for &(v, n, view) in &script {
                    let want = plain.read_bits(n).unwrap();
                    assert_eq!(want, if n == 64 { v } else { v & ((1 << n) - 1) });
                    let got = if view {
                        let mut head = mixed.clone();
                        if n <= 56 {
                            assert_eq!(head.peek_bits(n), want);
                        }
                        let got = head.take_bits(n);
                        mixed = head;
                        got
                    } else {
                        mixed.read_bits(n).unwrap()
                    };
                    assert_eq!(got, want, "phase {phase} len {len}");
                    assert_eq!(mixed.remaining_bits(), plain.remaining_bits());
                }
            }
        }
    }

    #[test]
    fn write_zeros_and_skip_bits_match_chunked_calls() {
        let src: Vec<u8> = (0..40u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        for phase in 0..64u32 {
            for n in [0u32, 1, 7, 8, 55, 56, 57, 63, 64, 65, 127, 128, 200] {
                let mut plain = BitWriter::new();
                let mut viewed = BitWriter::new();
                for w in [&mut plain, &mut viewed] {
                    w.write_bits(u64::MAX, phase);
                }
                (0..n).for_each(|_| plain.write_bit(false));
                viewed.tail().write_zeros(n);
                for w in [&mut plain, &mut viewed] {
                    w.write_bits(0b1101, 4);
                }
                assert_eq!(viewed.into_bytes(), plain.into_bytes(), "phase {phase} n {n}");

                let mut plain = BitReader::new(&src);
                let mut viewed = BitReader::new(&src);
                plain.read_bits(phase).unwrap();
                viewed.take_bits(phase);
                for _ in 0..n {
                    plain.read_bit().unwrap();
                }
                viewed.skip_bits(n as u64);
                assert_eq!(viewed.remaining_bits(), plain.remaining_bits(), "phase {phase} n {n}");
                assert_eq!(viewed.take_bits(13), plain.read_bits(13).unwrap());
            }
        }
    }

    #[test]
    fn infallible_reads_zero_pad_and_stop_at_the_end() {
        let bytes = [0xffu8, 0x01];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.take_bits(4), 0xf);
        // 12 real bits are left: the rest of the 64 read as zero.
        assert_eq!(r.take_bits(64), 0x1f);
        assert_eq!(r.remaining_bits(), 0);
        assert_eq!(r.take_bits(9), 0);
        r.skip_bits(1000);
        assert_eq!(r.remaining_bits(), 0);
        assert!(r.read_bit().is_err());
        let mut r = BitReader::new(&bytes);
        r.skip_bits(u64::MAX);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn from_bytes_continues_after_the_prefix() {
        let mut w = BitWriter::from_bytes(vec![0xAA, 0xBB]);
        assert_eq!(w.bit_len(), 16);
        w.write_bits(0b101, 3);
        w.append(&[0xff], 8);
        assert_eq!(w.into_bytes(), vec![0xAA, 0xBB, 0b1111_1101, 0b0000_0111]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101_0110_1011, 12);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(12), 0b1101_0110_1011);
        assert_eq!(r.peek_bits(12), 0b1101_0110_1011);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.peek_bits(8), 0b1101_0110);
    }

    #[test]
    fn peek_zero_pads_past_end_but_consume_errors() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        // Only 8 real bits exist; the peek window beyond them reads zero.
        assert_eq!(r.peek_bits(12), 0x0ff);
        assert!(r.consume(9).is_err());
        assert!(r.consume(8).is_ok());
        assert_eq!(r.peek_bits(12), 0);
        assert!(r.consume(1).is_err());
    }

    #[test]
    fn peek_consume_tracks_read_bits() {
        let vals: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) & 0x1fff).collect();
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_bits(v, 13);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.peek_bits(13), v);
            r.consume(13).unwrap();
        }
    }

    #[test]
    fn word_boundary_crossings() {
        // Write 13-bit chunks so the accumulator boundary is crossed at
        // varying offsets.
        let vals: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) & 0x1fff).collect();
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_bits(v, 13);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_bits(13).unwrap(), v);
        }
    }
}
