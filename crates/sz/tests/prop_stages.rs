//! Property tests for the SZ pipeline's entropy stages: Huffman coding
//! and the LZSS backend. (The block kernel's error-bound properties are
//! in `prop_bound.rs`.)

use lossy_sz::huffman::{histogram, Codebook};
use lossy_sz::lossless;
use foresight_util::bits::{BitReader, BitWriter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Huffman roundtrips arbitrary symbol streams (bounded alphabet).
    #[test]
    fn huffman_roundtrip(codes in prop::collection::vec(0u32..5000, 1..3000)) {
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            prop_assert_eq!(book.decode(&mut r).unwrap(), c);
        }
    }

    /// A serialized codebook decodes streams encoded by the original.
    #[test]
    fn huffman_table_portability(codes in prop::collection::vec(0u32..300, 1..500)) {
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut table = Vec::new();
        book.serialize(&mut table);
        let (book2, _) = Codebook::deserialize(&table).unwrap();
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            prop_assert_eq!(book2.decode(&mut r).unwrap(), c);
        }
    }

    /// The packed multi-bit encoder emits bit-identical streams to the
    /// original bit-at-a-time oracle, and both the LUT decoder and the
    /// bulk multi-symbol decoder reproduce what the oracle decodes.
    #[test]
    fn fast_entropy_paths_match_bitwise_oracle(
        codes in prop::collection::vec(0u32..5000, 1..3000),
    ) {
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let (mut fast, mut oracle) = (BitWriter::new(), BitWriter::new());
        for &c in &codes {
            book.encode(c, &mut fast).unwrap();
            book.encode_bitwise(c, &mut oracle).unwrap();
        }
        let bytes = fast.into_bytes();
        prop_assert_eq!(&bytes, &oracle.into_bytes(), "encoders must be bit-identical");
        let mut bulk = Vec::new();
        book.decode_into(&mut BitReader::new(&bytes), codes.len(), &mut bulk).unwrap();
        prop_assert_eq!(&bulk, &codes);
        let (mut lut_r, mut oracle_r) = (BitReader::new(&bytes), BitReader::new(&bytes));
        for &c in &codes {
            prop_assert_eq!(book.decode(&mut lut_r).unwrap(), c);
            prop_assert_eq!(book.decode_bitwise(&mut oracle_r).unwrap(), c);
        }
    }

    /// Same oracle agreement on narrow, heavily repeated alphabets, where
    /// codes are short enough that every LUT probe packs several symbols.
    #[test]
    fn fast_entropy_paths_match_oracle_short_codes(
        codes in prop::collection::vec(0u32..6, 1..4000),
    ) {
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let (mut fast, mut oracle) = (BitWriter::new(), BitWriter::new());
        for &c in &codes {
            book.encode(c, &mut fast).unwrap();
            book.encode_bitwise(c, &mut oracle).unwrap();
        }
        let bytes = fast.into_bytes();
        prop_assert_eq!(&bytes, &oracle.into_bytes(), "encoders must be bit-identical");
        let mut bulk = Vec::new();
        book.decode_into(&mut BitReader::new(&bytes), codes.len(), &mut bulk).unwrap();
        prop_assert_eq!(&bulk, &codes);
    }

    /// LZSS roundtrips arbitrary byte streams exactly.
    #[test]
    fn lzss_roundtrip(data in prop::collection::vec(any::<u8>(), 0..5000)) {
        let c = lossless::compress(&data);
        let d = lossless::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    /// LZSS with repetitive structure compresses; random data expands
    /// boundedly (flag-bit overhead is 1/8).
    #[test]
    fn lzss_expansion_bound(data in prop::collection::vec(any::<u8>(), 1..2000)) {
        let c = lossless::compress(&data);
        prop_assert!(c.len() <= 8 + data.len() + data.len() / 8 + 2);
    }
}
