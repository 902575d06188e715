//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ's third stage entropy-codes the quantization integers; following the
//! reference implementation we build **one global code table** from the
//! histogram of all blocks, then encode each block's code sequence
//! independently (so blocks stay decodable in parallel).
//!
//! Codes are canonical: lengths come from the Huffman tree, the actual bit
//! patterns are reassigned in (length, symbol) order. Only the
//! (symbol, length) pairs are serialized; both sides rebuild identical
//! codebooks.
//!
//! The bit-level convention is MSB-first code emission into the
//! workspace's LSB-first bitstream. A [`Codebook`] itself holds only the
//! lengths and the canonical per-length tables; the two fast-path tables
//! are *views* built on first use by the side that needs them:
//!
//! - the [`Encoder`] keeps each code in bit-reversed form so a whole
//!   symbol goes out in one [`BitWriter::write_bits`] call, in a dense
//!   table that spans only the non-zero symbols present;
//! - the [`Decoder`] resolves most symbols with a single window-table
//!   lookup (the coarse-grained codebook scheme GPU Huffman
//!   implementations use), escaping to a walk of the per-length tables
//!   only for rare codes longer than the window. The window is
//!   [`window_bits`] wide: 8 bits for a few hundred values, the full 12
//!   above 16 Ki, because a table of `2^12` packed entries costs more to
//!   build than a 16 KiB call spends probing it.
//!
//! Compression never builds a decode window and decompression never
//! builds an encoder table.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::{ByteReader, Error, Result};
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Maximum supported code length (paranoia guard; real tables are shorter).
const MAX_LEN: u8 = 58;

/// Narrowest and widest decode window. Codes at most the window long (the
/// common case by construction — high-frequency symbols get short codes)
/// decode with one table access.
const MIN_WINDOW_BITS: u32 = 8;
const MAX_WINDOW_BITS: u32 = 12;

/// Non-zero symbols closer than this to the smallest one get a
/// direct-indexed encoder slot; symbol 0 (SZ's outlier marker, far below
/// the codes centred on the radius) and rarer, farther symbols fall back
/// to binary search so a single huge symbol cannot blow up the table.
const ENC_DENSE_LIMIT: u32 = 1 << 16;

/// Maximum symbols resolved per decode-table probe.
const LUT_PACK: usize = 8;

/// Decode window width for a stream of `n_values` symbols:
/// `clamp(⌈log₂ n⌉ − 3, 8, 12)`. A 16³ chunk makes ~1 400 probes, so it
/// gets 512 entries (9 bits) rather than 4 096; above 16 Ki values the
/// table is the full 12 bits.
pub fn window_bits(n_values: usize) -> u32 {
    let log2_ceil = usize::BITS - n_values.saturating_sub(1).leading_zeros();
    log2_ceil.saturating_sub(3).clamp(MIN_WINDOW_BITS, MAX_WINDOW_BITS)
}

/// One decode-window table slot: up to [`LUT_PACK`] complete codes
/// resolved from the next window of stream bits.
#[derive(Debug, Clone, Copy, Default)]
struct LutEntry {
    /// Decoded symbols; slots past `nsyms` are zero.
    syms: [u32; LUT_PACK],
    /// Complete codes in the window prefix: 0 escapes to the long-code
    /// walk, 1..=LUT_PACK decode directly.
    nsyms: u8,
    /// Total bits consumed by all `nsyms` symbols.
    bits: u8,
    /// Bits consumed by the first symbol alone.
    len1: u8,
}

/// The encoder's table: symbol -> (bit-reversed code, length).
#[derive(Debug, Clone)]
struct EncodeTable {
    /// Smallest non-zero symbol; `dense[s - base]` is symbol `s`'s slot.
    base: u32,
    /// Dense slots from `base` to the largest non-zero symbol within
    /// `ENC_DENSE_LIMIT` of it; length 0 marks absent.
    dense: Vec<(u64, u8)>,
    /// `(symbol, bit-reversed code, length)` for every other symbol
    /// (symbol 0 among them), sorted by symbol.
    sparse: Vec<(u32, u64, u8)>,
}

impl EncodeTable {
    fn build(book: &Codebook) -> Self {
        let nonzero = || book.entries.iter().map(|e| e.0).filter(|&s| s != 0);
        let base = nonzero().min().unwrap_or(0);
        let slots = nonzero()
            .map(|s| s - base)
            .filter(|&d| d < ENC_DENSE_LIMIT)
            .max()
            .map_or(0, |d| d as usize + 1);
        let mut dense = vec![(0u64, 0u8); slots];
        let mut sparse = Vec::new();
        for (sym, rev, len) in book.codes() {
            // Only symbol 0 lies below `base`; it wraps past every slot.
            match dense.get_mut(sym.wrapping_sub(base) as usize) {
                Some(slot) => *slot = (rev, len),
                None => sparse.push((sym, rev, len)),
            }
        }
        sparse.sort_unstable_by_key(|e| e.0);
        Self { base, dense, sparse }
    }
}

/// The decoder's window table, indexed by the next `bits` stream bits and
/// resolving up to [`LUT_PACK`] symbols per probe.
#[derive(Debug, Clone)]
struct DecodeTable {
    bits: u32,
    lut: Vec<LutEntry>,
}

impl DecodeTable {
    fn build(book: &Codebook, bits: u32) -> Self {
        // `with_window!` has a loop for these widths and no other.
        let bits = bits.clamp(MIN_WINDOW_BITS, MAX_WINDOW_BITS);
        let mut singles = vec![(0u32, 0u8); 1usize << bits];
        for (sym, rev, len) in book.codes() {
            if len as u32 > bits {
                break; // canonical order: every later code is as long
            }
            // Every window whose low `len` bits equal this (reversed)
            // code decodes to this symbol.
            let step = 1usize << len;
            let mut idx = rev as usize;
            while idx < singles.len() {
                singles[idx] = (sym, len);
                idx += step;
            }
        }
        // Pack as many complete codes as fit into each window slot — short
        // codes dominate skewed quantization histograms, so most probes
        // then resolve several symbols at once.
        let mut lut = vec![LutEntry::default(); singles.len()];
        for w in 0..singles.len() {
            if singles[w].1 == 0 {
                continue; // escape: code longer than the window
            }
            let mut e = LutEntry { len1: singles[w].1, ..LutEntry::default() };
            let mut cur = w;
            while (e.nsyms as usize) < LUT_PACK {
                let (s, l) = singles[cur];
                if l == 0 || (e.bits + l) as u32 > bits {
                    break;
                }
                e.syms[e.nsyms as usize] = s;
                e.nsyms += 1;
                e.bits += l;
                cur >>= l;
            }
            lut[w] = e;
        }
        Self { bits, lut }
    }
}

/// A canonical Huffman codebook.
#[derive(Debug, Clone)]
pub struct Codebook {
    /// (symbol, length) sorted by (length, symbol) — the canonical order.
    entries: Vec<(u32, u8)>,
    /// Per length: first canonical code, and slice range in `entries`.
    first_code: [u64; MAX_LEN as usize + 1],
    offset: [u32; MAX_LEN as usize + 1],
    count: [u32; MAX_LEN as usize + 1],
    /// The views, each built by the first call that needs it.
    enc: OnceLock<EncodeTable>,
    dec: OnceLock<DecodeTable>,
}

impl Codebook {
    /// Builds a codebook from symbol frequencies (`(symbol, count)` pairs
    /// with nonzero counts). Returns an empty book for an empty histogram.
    pub fn from_frequencies(freqs: &[(u32, u64)]) -> Result<Self> {
        let lengths = code_lengths(freqs)?;
        Self::from_lengths(lengths)
    }

    /// Rebuilds a codebook from (symbol, length) pairs.
    pub fn from_lengths(mut entries: Vec<(u32, u8)>) -> Result<Self> {
        for &(_, len) in &entries {
            if len == 0 || len > MAX_LEN {
                return Err(Error::corrupt(format!("huffman length {len} out of range")));
            }
        }
        entries.sort_unstable_by_key(|&(sym, len)| (len, sym));
        // Check for duplicate symbols.
        let mut sorted_syms: Vec<u32> = entries.iter().map(|e| e.0).collect();
        sorted_syms.sort_unstable();
        if sorted_syms.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::corrupt("duplicate symbol in huffman table"));
        }
        // Assign canonical codes and build per-length decode tables.
        let mut first_code = [0u64; MAX_LEN as usize + 1];
        let mut offset = [0u32; MAX_LEN as usize + 1];
        let mut count = [0u32; MAX_LEN as usize + 1];
        for &(_, len) in &entries {
            count[len as usize] += 1;
        }
        let mut code = 0u64;
        let mut idx = 0u32;
        for len in 1..=MAX_LEN as usize {
            code <<= 1;
            first_code[len] = code;
            offset[len] = idx;
            // Kraft validity: codes of this length must fit.
            if count[len] as u64 > (1u64 << len) - code {
                return Err(Error::corrupt("huffman table violates Kraft inequality"));
            }
            code += count[len] as u64;
            idx += count[len];
        }
        // A non-empty table must exactly satisfy Kraft (complete code) unless
        // it's the single-symbol degenerate case.
        // (We tolerate incompleteness to keep single-symbol tables simple.)
        Ok(Self { entries, first_code, offset, count, enc: OnceLock::new(), dec: OnceLock::new() })
    }

    /// Number of coded symbols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the codebook codes no symbols.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The canonical (symbol, length) entries.
    pub fn entries(&self) -> &[(u32, u8)] {
        &self.entries
    }

    /// `(symbol, bit-reversed code, length)` in canonical order. Codes are
    /// bit-reversed because they are emitted MSB-first into an LSB-first
    /// stream: the reversed code goes out (and indexes the decode window)
    /// as one word.
    fn codes(&self) -> impl Iterator<Item = (u32, u64, u8)> + '_ {
        let mut next = self.first_code;
        self.entries.iter().map(move |&(sym, len)| {
            let code = next[len as usize];
            next[len as usize] += 1;
            (sym, code.reverse_bits() >> (64 - len as u32), len)
        })
    }

    /// The encoder view, built on the first call. Take it once per block
    /// of symbols, not once per symbol.
    pub fn encoder(&self) -> Encoder<'_> {
        let table = self.enc.get_or_init(|| EncodeTable::build(self));
        Encoder { base: table.base, dense: &table.dense, sparse: &table.sparse }
    }

    /// The decoder view for a stream of `n_values` symbols in all. The
    /// first call builds the window, [`window_bits`]`(n_values)` wide;
    /// later calls return that same view whatever they pass, since every
    /// width decodes every stream alike.
    pub fn decoder_for(&self, n_values: usize) -> Decoder<'_> {
        let table = self.dec.get_or_init(|| DecodeTable::build(self, window_bits(n_values)));
        Decoder { book: self, table }
    }

    /// The decoder view with the full-width window unless one exists.
    pub fn decoder(&self) -> Decoder<'_> {
        self.decoder_for(usize::MAX)
    }

    /// Dense encoder slots and decode-window entries, `None` for a view
    /// nothing has asked for yet.
    #[cfg(test)]
    fn view_sizes(&self) -> (Option<usize>, Option<usize>) {
        (self.enc.get().map(|t| t.dense.len()), self.dec.get().map(|t| t.lut.len()))
    }

    /// Encodes one symbol with a single multi-bit write;
    /// [`Encoder::encode`] through the view, fetched per call.
    #[inline]
    pub fn encode(&self, sym: u32, w: &mut BitWriter) -> Result<()> {
        self.encoder().encode(sym, w)
    }

    /// Reference encoder: emits the canonical code MSB-first, one bit at a
    /// time — the original implementation, kept as the oracle for
    /// bit-identity tests and before/after throughput measurements.
    #[doc(hidden)]
    #[inline]
    pub fn encode_bitwise(&self, sym: u32, w: &mut BitWriter) -> Result<()> {
        let (rev, len) = self.encoder().lookup(sym)?;
        let code = rev.reverse_bits() >> (64 - len as u32);
        for i in (0..len).rev() {
            w.write_bit((code >> i) & 1 != 0);
        }
        Ok(())
    }

    /// Decodes one symbol; [`Decoder::decode`] through the default view.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32> {
        self.decoder().decode(r)
    }

    /// Decodes exactly `n` symbols into `out`; [`Decoder::decode_into`]
    /// through the default view.
    pub fn decode_into(&self, r: &mut BitReader<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        self.decoder().decode_into(r, n, out)
    }

    /// Reference decoder: walks the per-length tables one bit at a time.
    /// Runtime escape path for codes longer than the peek window, and
    /// the oracle for equivalence tests and throughput baselines.
    #[doc(hidden)]
    #[inline]
    pub fn decode_bitwise(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let mut code = 0u64;
        for len in 1..=MAX_LEN as usize {
            code = (code << 1) | r.read_bits(1)?;
            let c = self.count[len];
            if c != 0 {
                let rel = code.wrapping_sub(self.first_code[len]);
                if rel < c as u64 {
                    return Ok(self.entries[(self.offset[len] + rel as u32) as usize].0);
                }
            }
        }
        Err(Error::corrupt("invalid huffman code"))
    }

    /// Serializes the (symbol, length) table.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for &(sym, len) in &self.entries {
            out.extend_from_slice(&sym.to_le_bytes());
            out.push(len);
        }
    }

    /// Bytes [`Codebook::serialize`] appends.
    pub fn serialized_len(&self) -> usize {
        4 + 5 * self.entries.len()
    }

    /// Deserializes a table written by [`Codebook::serialize`];
    /// returns the codebook and the number of bytes consumed.
    pub fn deserialize(stream: &[u8]) -> Result<(Self, usize)> {
        let mut rd = ByteReader::new(stream);
        let n = rd.u32_le()? as usize;
        if n > rd.remaining() / 5 {
            return Err(Error::corrupt("huffman table truncated"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let sym = rd.u32_le()?;
            entries.push((sym, rd.u8()?));
        }
        let consumed = rd.pos();
        Ok((Self::from_lengths(entries)?, consumed))
    }
}

/// The encoder view of a [`Codebook`]: a `Copy` handle holding its table's
/// base and slices by value, so a loop over a block keeps them in
/// registers.
#[derive(Debug, Clone, Copy)]
pub struct Encoder<'a> {
    base: u32,
    dense: &'a [(u64, u8)],
    sparse: &'a [(u32, u64, u8)],
}

impl Encoder<'_> {
    /// Encodes one symbol with a single multi-bit write.
    #[inline]
    pub fn encode(&self, sym: u32, w: &mut BitWriter) -> Result<()> {
        let (rev, len) = self.lookup(sym)?;
        w.write_bits(rev, len as u32);
        Ok(())
    }

    /// The (bit-reversed code, length) pair of a symbol.
    #[inline]
    fn lookup(&self, sym: u32) -> Result<(u64, u8)> {
        let slot = sym.wrapping_sub(self.base) as usize;
        if slot < self.dense.len() {
            let e = self.dense[slot];
            if e.1 != 0 {
                return Ok(e);
            }
        } else if let Ok(i) = self.sparse.binary_search_by_key(&sym, |e| e.0) {
            let (_, rev, len) = self.sparse[i];
            return Ok((rev, len));
        }
        Err(Error::invalid(format!("symbol {sym} not in codebook")))
    }
}

/// The decoder view of a [`Codebook`]: a `Copy` handle on its window
/// table and on the per-length tables the escape path walks.
#[derive(Debug, Clone, Copy)]
pub struct Decoder<'a> {
    book: &'a Codebook,
    table: &'a DecodeTable,
}

/// Runs `$self.$method::<W>($args)` with `W` the view's window width, so
/// the width is a constant inside the loop it selects.
macro_rules! with_window {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match $self.table.bits {
            8 => $self.$method::<8>($($arg),*),
            9 => $self.$method::<9>($($arg),*),
            10 => $self.$method::<10>($($arg),*),
            11 => $self.$method::<11>($($arg),*),
            _ => $self.$method::<12>($($arg),*),
        }
    };
}

impl Decoder<'_> {
    /// Decodes one symbol, resolving codes up to the window long (the
    /// overwhelming majority) with a single table lookup. Longer codes are
    /// resolved from the same peeked window by walking the per-length
    /// tables in registers — still a single `consume` per symbol, never a
    /// per-bit stream read.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32> {
        with_window!(self.decode_one(r))
    }

    /// Decodes exactly `n` symbols into `out`, resolving up to
    /// [`LUT_PACK`] symbols per table probe. This is the bulk path
    /// `decompress` uses; equivalent to calling [`Decoder::decode`] `n`
    /// times.
    pub fn decode_into(&self, r: &mut BitReader<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        with_window!(self.decode_run(r, n, out))
    }

    #[inline]
    fn decode_one<const W: u32>(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let e = &self.table.lut[r.peek_bits(W) as usize];
        if e.nsyms != 0 {
            // Zero-padded peek bits past the end of the stream cannot
            // fabricate a symbol: consume() still errors if fewer than
            // `len1` real bits remain.
            r.consume(e.len1 as u32)?;
            return Ok(e.syms[0]);
        }
        self.decode_escape::<W>(r)
    }

    fn decode_run<const W: u32>(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let lut = &self.table.lut[..];
        // Scratch tail: every probe stores all LUT_PACK slots
        // unconditionally and advances the cursor by the real count, so
        // over-stored slots are rewritten by the next probe or truncated.
        let start = out.len();
        out.resize(start + n + (LUT_PACK - 1), 0);
        // Work on a local copy of the reader so its accumulator state stays
        // in registers across the loop (the caller's &mut would pin it in
        // memory); written back on every exit path.
        let mut lr = r.clone();
        let s = &mut out[start..];
        let mut i = 0usize;
        let res = loop {
            if i + LUT_PACK > n {
                break Ok(());
            }
            let e = &lut[lr.peek_bits(W) as usize];
            if e.nsyms == 0 {
                match self.decode_escape::<W>(&mut lr) {
                    Ok(sym) => s[i] = sym,
                    Err(err) => break Err(err),
                }
                i += 1;
                continue;
            }
            if let Err(err) = lr.consume(e.bits as u32) {
                break Err(err);
            }
            s[i..i + LUT_PACK].copy_from_slice(&e.syms);
            i += e.nsyms as usize;
        };
        if let Err(err) = res {
            *r = lr;
            out.truncate(start + i.min(n));
            return Err(err);
        }
        // Tail: fewer than LUT_PACK symbols remain; decode one at a time so
        // a multi-symbol probe cannot consume bits past the n-th code.
        while i < n {
            match self.decode_one::<W>(&mut lr) {
                Ok(sym) => s[i] = sym,
                Err(err) => {
                    *r = lr;
                    out.truncate(start + i);
                    return Err(err);
                }
            }
            i += 1;
        }
        *r = lr;
        out.truncate(start + n);
        Ok(())
    }

    /// Resolves a code longer than the window: peeks a full-width word,
    /// rebuilds the MSB-first code value for its first `W` bits, then
    /// extends one bit at a time in registers — still a single `consume`,
    /// never a per-bit stream read.
    #[cold]
    fn decode_escape<const W: u32>(&self, r: &mut BitReader<'_>) -> Result<u32> {
        foresight_util::telemetry::counter("huffman.escape_hits", 1);
        const PEEK: u32 = 56;
        let book = self.book;
        let window = r.peek_bits(PEEK);
        let mut code = (window & ((1 << W) - 1)).reverse_bits() >> (64 - W);
        for len in (W + 1)..=PEEK.min(MAX_LEN as u32) {
            code = (code << 1) | ((window >> (len - 1)) & 1);
            let c = book.count[len as usize];
            if c != 0 {
                let rel = code.wrapping_sub(book.first_code[len as usize]);
                if rel < c as u64 {
                    r.consume(len)?;
                    return Ok(book.entries[(book.offset[len as usize] + rel as u32) as usize].0);
                }
            }
        }
        // Codes longer than the peek window (56 < len <= MAX_LEN) are
        // pathological; the reader is unconsumed, so the per-bit reference
        // walk still decodes them (or reports corruption/exhaustion).
        book.decode_bitwise(r)
    }
}

/// Computes Huffman code lengths from a histogram.
fn code_lengths(freqs: &[(u32, u64)]) -> Result<Vec<(u32, u8)>> {
    let active: Vec<(u32, u64)> = freqs.iter().copied().filter(|&(_, f)| f > 0).collect();
    match active.len() {
        0 => return Ok(Vec::new()),
        1 => return Ok(vec![(active[0].0, 1)]),
        _ => {}
    }
    // Standard heap-based tree construction over node indices.
    #[derive(PartialEq, Eq)]
    struct Node {
        freq: u64,
        id: u32,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on id for determinism.
            other.freq.cmp(&self.freq).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let n = active.len();
    let mut parent = vec![u32::MAX; 2 * n - 1];
    let mut heap = BinaryHeap::with_capacity(n);
    for (i, &(_, f)) in active.iter().enumerate() {
        heap.push(Node { freq: f, id: i as u32 });
    }
    let mut next_id = n as u32;
    while heap.len() > 1 {
        let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else { break };
        parent[a.id as usize] = next_id;
        parent[b.id as usize] = next_id;
        heap.push(Node { freq: a.freq.saturating_add(b.freq), id: next_id });
        next_id += 1;
    }
    // Depth of each leaf = code length.
    let mut out = Vec::with_capacity(n);
    for (i, &(sym, _)) in active.iter().enumerate() {
        let mut d = 0u8;
        let mut cur = i as u32;
        while parent[cur as usize] != u32::MAX {
            cur = parent[cur as usize];
            d += 1;
        }
        if d == 0 || d > MAX_LEN {
            return Err(Error::corrupt("degenerate huffman tree"));
        }
        out.push((sym, d));
    }
    Ok(out)
}

/// Convenience: builds a histogram of `codes`.
///
/// A BTreeMap keeps the result sorted by symbol by construction — the
/// histogram feeds codebook construction, so its order must not depend
/// on hash iteration.
pub fn histogram(codes: &[u32]) -> Vec<(u32, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &c in codes {
        *map.entry(c).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codes: &[u32]) {
        let book = Codebook::from_frequencies(&histogram(codes)).unwrap();
        let mut w = BitWriter::new();
        for &c in codes {
            book.encode(c, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &c in codes {
            assert_eq!(book.decode(&mut r).unwrap(), c);
        }
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(&[1, 2, 2, 3, 3, 3, 3, 7, 7, 1, 2]);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[42; 100]);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(&[0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn roundtrip_skewed_distribution() {
        // Strongly skewed: symbol i has frequency ~ 2^(16-i).
        let mut codes = Vec::new();
        for sym in 0u32..16 {
            for _ in 0..(1u32 << (16 - sym)) {
                codes.push(sym);
            }
        }
        roundtrip(&codes);
    }

    #[test]
    fn compresses_skewed_data() {
        // 90% zeros should code in well under 8 bits/symbol.
        let codes: Vec<u32> = (0..10_000).map(|i| if i % 10 == 0 { i as u32 % 7 + 1 } else { 0 }).collect();
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let bits = w.bit_len();
        assert!(bits < 2 * codes.len() as u64, "got {} bits", bits);
    }

    #[test]
    fn table_serialization_roundtrip() {
        let codes = [5u32, 5, 5, 9, 9, 1000, 65535, 65535, 65535, 65535];
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut buf = Vec::new();
        book.serialize(&mut buf);
        let (book2, consumed) = Codebook::deserialize(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(book.entries(), book2.entries());
        // Cross encode/decode.
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            assert_eq!(book2.decode(&mut r).unwrap(), c);
        }
    }

    #[test]
    fn unknown_symbol_errors() {
        let book = Codebook::from_frequencies(&[(1, 5), (2, 5)]).unwrap();
        let mut w = BitWriter::new();
        assert!(book.encode(3, &mut w).is_err());
        assert!(book.encode(1000, &mut w).is_err());
    }

    #[test]
    fn corrupt_table_rejected() {
        assert!(Codebook::deserialize(&[1, 0, 0]).is_err());
        // Duplicate symbols.
        assert!(Codebook::from_lengths(vec![(1, 1), (1, 2)]).is_err());
        // Kraft violation: three 1-bit codes.
        assert!(Codebook::from_lengths(vec![(1, 1), (2, 1), (3, 1)]).is_err());
        // Zero length.
        assert!(Codebook::from_lengths(vec![(1, 0)]).is_err());
    }

    #[test]
    fn empty_codebook() {
        let book = Codebook::from_frequencies(&[]).unwrap();
        assert!(book.is_empty());
        let mut buf = Vec::new();
        book.serialize(&mut buf);
        let (book2, _) = Codebook::deserialize(&buf).unwrap();
        assert!(book2.is_empty());
    }

    #[test]
    fn sparse_symbols_use_binary_search_path() {
        // Symbols beyond the dense encoder cap (2^16) exercise the sorted
        // sparse fallback; mix in small symbols so both paths run.
        let codes = [
            3u32, 3, 3, 3, 70_000, 70_000, 1_000_000, 3, 70_000, u32::MAX - 1, 3,
        ];
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            assert_eq!(book.decode(&mut r).unwrap(), c);
        }
        // Absent symbols on both sides of the cap still error.
        let mut w = BitWriter::new();
        assert!(book.encode(4, &mut w).is_err());
        assert!(book.encode(70_001, &mut w).is_err());
        assert!(book.encode(u32::MAX, &mut w).is_err());
    }

    #[test]
    fn fast_encode_bit_identical_to_bitwise() {
        let codes: Vec<u32> = (0..4096u32).map(|i| (i * i % 97) % 31).collect();
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut fast = BitWriter::new();
        let mut slow = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut fast).unwrap();
            book.encode_bitwise(c, &mut slow).unwrap();
        }
        assert_eq!(fast.into_bytes(), slow.into_bytes());
    }

    #[test]
    fn long_codes_take_escape_path() {
        // Frequency ~2^(20-i) forces code lengths past MAX_WINDOW_BITS for
        // the rare symbols, so decode must mix LUT hits and escapes.
        let mut codes = Vec::new();
        for sym in 0u32..20 {
            for _ in 0..(1u32 << (20 - sym)) {
                codes.push(sym);
            }
        }
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let max_len = book.entries().iter().map(|e| e.1).max().unwrap();
        assert!(
            max_len as u32 > MAX_WINDOW_BITS,
            "distribution too flat to exercise the escape path (max len {max_len})"
        );
        // Interleave so escapes occur at varying bit offsets.
        let sample: Vec<u32> = (0..4096).map(|i| codes[(i * 2654435761usize) % codes.len()]).collect();
        let mut w = BitWriter::new();
        for &c in &sample {
            book.encode(c, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut fast = BitReader::new(&bytes);
        let mut slow = BitReader::new(&bytes);
        for &c in &sample {
            assert_eq!(book.decode(&mut fast).unwrap(), c);
            assert_eq!(book.decode_bitwise(&mut slow).unwrap(), c);
        }
    }

    #[test]
    fn bulk_decode_matches_per_symbol_decode() {
        // Mix of very short (pair-packed), mid, and >LUT-window codes, with
        // odd counts so decode_into exercises the rem==1 tail guard.
        let mut codes = Vec::new();
        for sym in 0u32..18 {
            for _ in 0..(1u32 << (18 - sym)) {
                codes.push(sym);
            }
        }
        for take in [1usize, 2, 3, 101, 4096] {
            let sample: Vec<u32> =
                (0..take).map(|i| codes[(i * 2654435761usize) % codes.len()]).collect();
            let book = Codebook::from_frequencies(&histogram(&sample)).unwrap();
            let mut w = BitWriter::new();
            for &c in &sample {
                book.encode(c, &mut w).unwrap();
            }
            let bytes = w.into_bytes();
            let mut bulk = Vec::new();
            book.decode_into(&mut BitReader::new(&bytes), sample.len(), &mut bulk).unwrap();
            assert_eq!(bulk, sample, "bulk decode mismatch at n={take}");
            let mut r = BitReader::new(&bytes);
            for &c in &sample {
                assert_eq!(book.decode(&mut r).unwrap(), c);
            }
        }
    }

    #[test]
    fn truncated_stream_cannot_fabricate_symbols() {
        let codes: Vec<u32> = (0..512u32).map(|i| i % 7).collect();
        let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let bits = w.bit_len();
        let bytes = w.into_bytes();
        // Decode all symbols, then confirm the reader refuses to produce
        // more from padding alone once real bits run out.
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            assert_eq!(book.decode(&mut r).unwrap(), c);
        }
        let leftover = bytes.len() as u64 * 8 - bits;
        let shortest = book.entries().iter().map(|e| e.1 as u64).min().unwrap();
        if leftover < shortest {
            assert!(book.decode(&mut r).is_err());
        }
    }

    #[test]
    fn optimality_vs_entropy() {
        // Average code length must be within 1 bit of the entropy bound.
        let codes: Vec<u32> = (0..4096u32).map(|i| (i * i % 37) % 11).collect();
        let hist = histogram(&codes);
        let total: u64 = hist.iter().map(|&(_, f)| f).sum();
        let entropy: f64 = hist
            .iter()
            .map(|&(_, f)| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let book = Codebook::from_frequencies(&hist).unwrap();
        let mut w = BitWriter::new();
        for &c in &codes {
            book.encode(c, &mut w).unwrap();
        }
        let avg = w.bit_len() as f64 / codes.len() as f64;
        assert!(avg >= entropy - 1e-9, "avg {avg} below entropy {entropy}");
        assert!(avg <= entropy + 1.0, "avg {avg} vs entropy {entropy}");
    }

    /// The two views against the bit-at-a-time oracles: every window
    /// width, every book shape, every count around the `LUT_PACK` seam.
    mod views {
        use super::*;

        /// An SZ-shaped histogram: `n` symbols centred on 32 768 falling
        /// off geometrically, plus the outlier marker 0.
        fn sz_shaped(n: u32) -> Vec<(u32, u64)> {
            let lo = 32_768 - n / 2;
            let mut freqs = vec![(0u32, 3u64)];
            let freq = |s: u32| 1 + (1u64 << 20 >> (s.abs_diff(32_768) / 2).min(20));
            freqs.extend((lo..lo + n - 1).map(|s| (s, freq(s))));
            freqs
        }

        fn books() -> Vec<(&'static str, Codebook)> {
            let geometric: Vec<(u32, u64)> =
                (0..=30u32).map(|i| (i + 5, 1u64 << (30 - i))).collect();
            [
                ("one symbol", vec![(32_768, 10)]),
                ("two symbols", vec![(32_767, 3), (32_768, 9)]),
                ("sz 47", sz_shaped(47)),
                ("sz 120", sz_shaped(120)),
                ("geometric", geometric),
            ]
            .into_iter()
            .map(|(name, freqs)| (name, Codebook::from_frequencies(&freqs).unwrap()))
            .collect()
        }

        /// `n` symbols cycling through the whole book, long codes included.
        fn sample(book: &Codebook, n: usize) -> Vec<u32> {
            let syms = book.entries();
            (0..n).map(|i| syms[(i * 2_654_435_761) % syms.len()].0).collect()
        }

        /// The canonical code of `sym` from the per-length tables alone.
        fn oracle_code(book: &Codebook, sym: u32) -> Option<(u64, u8)> {
            let pos = book.entries.iter().position(|e| e.0 == sym)?;
            let len = book.entries[pos].1;
            let rank = pos as u64 - book.offset[len as usize] as u64;
            Some((book.first_code[len as usize] + rank, len))
        }

        fn oracle_encode(book: &Codebook, syms: &[u32]) -> BitWriter {
            let mut w = BitWriter::new();
            for &s in syms {
                let (code, len) = oracle_code(book, s).unwrap();
                for i in (0..len).rev() {
                    w.write_bit((code >> i) & 1 != 0);
                }
            }
            w
        }

        #[test]
        fn every_width_decodes_what_the_oracle_decodes() {
            for (name, book) in books() {
                let max_len = book.entries().iter().map(|e| e.1).max().unwrap();
                assert_eq!(name == "geometric", max_len == 30, "{name}: max len {max_len}");
                for n in [0usize, 1, 7, 8, 9, 4096] {
                    let syms = sample(&book, n);
                    let bytes = oracle_encode(&book, &syms).into_bytes();
                    let mut slow = BitReader::new(&bytes);
                    for &s in &syms {
                        assert_eq!(book.decode_bitwise(&mut slow).unwrap(), s);
                    }
                    for bits in MIN_WINDOW_BITS..=MAX_WINDOW_BITS {
                        let table = DecodeTable::build(&book, bits);
                        assert_eq!(table.lut.len(), 1 << bits);
                        let view = Decoder { book: &book, table: &table };
                        let mut r = BitReader::new(&bytes);
                        let mut out = vec![77];
                        view.decode_into(&mut r, n, &mut out).unwrap();
                        assert_eq!(out[0], 77, "{name} n={n} w={bits}: prefix kept");
                        assert_eq!(&out[1..], &syms[..], "{name} n={n} w={bits}");
                        assert_eq!(
                            r.remaining_bits(),
                            slow.remaining_bits(),
                            "{name} n={n} w={bits}: bit position"
                        );
                        let mut r = BitReader::new(&bytes);
                        for &s in &syms[..n.min(64)] {
                            assert_eq!(view.decode(&mut r).unwrap(), s, "{name} w={bits}");
                        }
                    }
                }
            }
        }

        #[test]
        fn a_cut_stream_is_an_error_at_every_width() {
            for (name, book) in books() {
                let syms = sample(&book, 257);
                let bytes = oracle_encode(&book, &syms).into_bytes();
                for bits in MIN_WINDOW_BITS..=MAX_WINDOW_BITS {
                    let table = DecodeTable::build(&book, bits);
                    let view = Decoder { book: &book, table: &table };
                    for cut in 0..bytes.len() {
                        let mut out = Vec::new();
                        let mut r = BitReader::new(&bytes[..cut]);
                        let res = view.decode_into(&mut r, 257, &mut out);
                        assert!(res.is_err(), "{name} w={bits}: cut at {cut} decoded");
                        assert!(out.len() < 257 && out[..] == syms[..out.len()], "{name} w={bits}");
                    }
                }
            }
        }

        #[test]
        fn encoder_view_matches_the_oracle_dense_and_sparse() {
            // {0} ∪ a dense span with a hole ∪ {base + 65 536, u32::MAX}.
            let base = 32_700u32;
            let mut freqs = vec![(0u32, 7u64)];
            let dense = (base..base + 130).filter(|&s| s != base + 64);
            freqs.extend(dense.map(|s| (s, 1 + (s % 13) as u64 * 9)));
            freqs.extend([(base + ENC_DENSE_LIMIT, 2), (u32::MAX, 1)]);
            let book = Codebook::from_frequencies(&freqs).unwrap();
            let syms: Vec<u32> = freqs.iter().map(|f| f.0).collect();
            let encoder = book.encoder();
            let (mut fast, mut bitwise) = (BitWriter::new(), BitWriter::new());
            for &s in &syms {
                encoder.encode(s, &mut fast).unwrap();
                book.encode_bitwise(s, &mut bitwise).unwrap();
            }
            let want = oracle_encode(&book, &syms).into_bytes();
            assert_eq!(fast.into_bytes(), want);
            assert_eq!(bitwise.into_bytes(), want);
            // Slots span the non-zero symbols within the limit, not 0..=max.
            assert_eq!(book.view_sizes().0, Some(130));
            assert_eq!(encoder.sparse.iter().map(|e| e.0).collect::<Vec<_>>(), [
                0,
                base + ENC_DENSE_LIMIT,
                u32::MAX
            ]);
            let far = base + ENC_DENSE_LIMIT;
            for absent in [1, base - 1, base + 64, base + 130, far - 1, far + 1, u32::MAX - 1] {
                let err = encoder.encode(absent, &mut BitWriter::new()).unwrap_err();
                assert!(matches!(err, Error::InvalidArgument(_)), "{absent}: {err}");
                assert!(oracle_code(&book, absent).is_none());
            }
        }

        #[test]
        fn each_side_builds_only_its_own_view_sized_to_the_call() {
            assert_eq!([0, 1, 512, 513].map(window_bits), [8; 4]);
            assert_eq!([4096, 8192, 16_384, 16_385].map(window_bits), [9, 10, 11, 12]);
            assert_eq!([32_768, 1 << 21, usize::MAX].map(window_bits), [12; 3]);

            let freqs = sz_shaped(47);
            let book = Codebook::from_frequencies(&freqs).unwrap();
            assert_eq!(book.view_sizes(), (None, None));
            let syms = sample(&book, 4096);
            let mut w = BitWriter::new();
            let encoder = book.encoder();
            syms.iter().for_each(|&s| encoder.encode(s, &mut w).unwrap());
            // 46 non-zero symbols: max - min + 1 slots, not max + 1; still
            // no decode window on the compress side.
            assert_eq!(book.view_sizes(), (Some(46), None));

            let mut table = Vec::new();
            book.serialize(&mut table);
            assert_eq!(table.len(), book.serialized_len());
            let bytes = w.into_bytes();
            for (n_values, entries) in [(512, 256), (4096, 512), (32_768, 4096)] {
                let (parsed, _) = Codebook::deserialize(&table).unwrap();
                assert_eq!(parsed.view_sizes(), (None, None));
                let view = parsed.decoder_for(n_values);
                let mut out = Vec::new();
                view.decode_into(&mut BitReader::new(&bytes), syms.len(), &mut out).unwrap();
                assert_eq!(out, syms);
                // No encoder table on the decompress side; the first call
                // fixed the width.
                assert_eq!(parsed.view_sizes(), (None, Some(entries)));
                assert_eq!(parsed.decoder().table.bits, window_bits(n_values));
            }
            // The signature-compatible wrappers default to the full window.
            let (parsed, _) = Codebook::deserialize(&table).unwrap();
            let mut out = Vec::new();
            parsed.decode_into(&mut BitReader::new(&bytes), syms.len(), &mut out).unwrap();
            assert_eq!((out, parsed.view_sizes()), (syms, (None, Some(4096))));
        }

        #[test]
        fn hostile_tables_cost_no_view_until_one_is_used_and_a_bounded_one_then() {
            let table = |entries: &[(u32, u8)]| {
                let mut bytes = (entries.len() as u32).to_le_bytes().to_vec();
                for &(sym, len) in entries {
                    bytes.extend_from_slice(&sym.to_le_bytes());
                    bytes.push(len);
                }
                bytes
            };
            // 13 000 entries: a count the bytes do not back is refused
            // before any allocation, a Kraft violation after the parse.
            let wide: Vec<(u32, u8)> = (0..13_000u32).map(|i| (i * 5 + 1, 14)).collect();
            let bytes = table(&wide);
            let err = Codebook::deserialize(&bytes[..bytes.len() - 1]).unwrap_err();
            assert!(err.to_string().contains("huffman table truncated"), "{err}");
            let crowded: Vec<(u32, u8)> = wide.iter().map(|&(s, _)| (s, 13)).collect();
            let err = Codebook::deserialize(&table(&crowded)).unwrap_err();
            assert!(err.to_string().contains("Kraft"), "{err}");
            // A valid one parses with no table on either side; decoding
            // builds a window sized by the stream, never an encoder table.
            let (book, used) = Codebook::deserialize(&bytes).unwrap();
            assert_eq!((used, book.len(), book.view_sizes()), (bytes.len(), 13_000, (None, None)));
            let syms = sample(&book, 300);
            let stream = oracle_encode(&book, &syms).into_bytes();
            let mut out = Vec::new();
            book.decoder_for(300).decode_into(&mut BitReader::new(&stream), 300, &mut out).unwrap();
            assert_eq!((out, book.view_sizes()), (syms, (None, Some(256))));

            // A 65 536-wide symbol span: the last symbol inside the dense
            // limit makes the encoder's largest table, one step farther
            // goes to the sparse list; both encode what the oracle does.
            for (far, slots) in [(ENC_DENSE_LIMIT, 1 << 16), (ENC_DENSE_LIMIT + 1, 1)] {
                let (book, _) = Codebook::deserialize(&table(&[(1, 1), (far, 1)])).unwrap();
                assert_eq!(book.view_sizes(), (None, None));
                let mut w = BitWriter::new();
                for s in [far, 1, 1, far] {
                    book.encode(s, &mut w).unwrap();
                }
                assert_eq!(w.into_bytes(), oracle_encode(&book, &[far, 1, 1, far]).into_bytes());
                assert_eq!(book.view_sizes(), (Some(slots), None));
            }
        }
    }
}
