//! Checked little-endian byte-slice reader for untrusted stream headers.
//!
//! Both compressor crates parse binary headers from byte slices that may
//! be truncated or corrupted. Raw `stream[o..o + 8].try_into().unwrap()`
//! slicing panics on short input unless every offset is pre-validated;
//! [`ByteReader`] centralizes the bounds checks so malformed input can
//! only ever produce [`Error::Corrupt`], never a panic.

use crate::{Error, Result};

/// Cursor over an untrusted byte slice; every read is bounds-checked.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader at offset zero.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current offset from the start of the slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corrupt(format!(
                "truncated input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes `n` bytes of fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        // Length is guaranteed by take(); this conversion cannot fail.
        Ok(s.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16_le(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    pub fn u32_le(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    pub fn u64_le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian f32.
    pub fn f32_le(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian f64.
    pub fn f64_le(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Consumes a magic tag, erroring when it does not match.
    pub fn expect_magic(&mut self, magic: &[u8], what: &str) -> Result<()> {
        let got = self.take(magic.len())?;
        if got != magic {
            return Err(Error::corrupt(format!("bad magic (not {what})")));
        }
        Ok(())
    }

    /// A header's count of `n` entries of at least `size` bytes each,
    /// refused unless the unread bytes can hold them: a bound to
    /// allocate by that grows with the input, not with the header.
    pub fn count(&self, n: u64, size: usize, what: &str) -> Result<usize> {
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / size.max(1) => Ok(n),
            _ => Err(Error::corrupt(format!(
                "{what} count {n} exceeds the {} bytes left",
                self.remaining()
            ))),
        }
    }

    /// Reads a little-endian u64 and converts it to usize, rejecting
    /// values that do not fit (32-bit hosts) or exceed `cap`.
    pub fn u64_le_capped(&mut self, cap: u64, what: &str) -> Result<usize> {
        let v = self.u64_le()?;
        if v > cap {
            return Err(Error::corrupt(format!("implausible {what}: {v} > {cap}")));
        }
        usize::try_from(v).map_err(|_| Error::corrupt(format!("{what} overflows usize")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_all_widths_in_order() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f64).to_le_bytes());
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64_le().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f32_le().unwrap(), 1.5);
        assert_eq!(r.f64_le().unwrap(), -2.25);
        assert_eq!(r.count(1, 2, "u16").unwrap(), 1);
        assert!(r.count(2, 2, "u16").is_err() && r.count(u64::MAX, 1, "byte").is_err());
        assert_eq!(r.u16_le().unwrap(), 0xBEEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.u32_le().is_err());
        assert_eq!(r.pos(), 0, "failed read consumes nothing");
        assert!(r.take(4).is_err());
        assert!(r.take(3).is_ok());
        assert!(r.u8().is_err());
    }

    #[test]
    fn magic_checked() {
        let mut r = ByteReader::new(b"SZRSxxxx");
        assert!(r.expect_magic(b"SZRS", "an SZRS stream").is_ok());
        let mut r = ByteReader::new(b"NOPE");
        let e = r.expect_magic(b"SZRS", "an SZRS stream").unwrap_err();
        assert!(e.to_string().contains("bad magic"));
        let mut r = ByteReader::new(b"SZ");
        assert!(r.expect_magic(b"SZRS", "an SZRS stream").is_err());
    }

    #[test]
    fn capped_u64_rejects_implausible_sizes() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u64 << 60).to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert!(r.u64_le_capped(1 << 40, "dim").is_err());
        assert_eq!(r.u64_le_capped(1 << 40, "dim").unwrap(), 42);
    }
}
