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
//! - the [`Decoder`] is a two-level table of `u32` entries: a root indexed
//!   by the next [`window_bits`] stream bits (8 for a few hundred values,
//!   the full 12 above 16 Ki, which is 16 KiB) whose entries hold a
//!   symbol and its length, two short codes at once, or a link to a
//!   sub-table indexed by up to [`SUB_BITS`] further bits. What the tables
//!   do not hold — a code more than `SUB_BITS` past the root, a symbol
//!   that does not fit an entry, a sub-table past [`SUB_BUDGET`] — escapes
//!   to a walk of the per-length tables. Block streams are independent
//!   and byte-aligned, so [`Decoder::decode_lanes`] steps [`LANES`] of
//!   them side by side, two probes per 64-bit load each, and the chains
//!   of dependent loads overlap.
//!
//! Compression never builds a decode table and decompression never
//! builds an encoder table.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::{ByteReader, Error, Result};
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Maximum supported code length (paranoia guard; real tables are shorter).
const MAX_LEN: u8 = 58;

/// Narrowest and widest root of the decode table. Codes at most the root
/// long (the common case by construction — high-frequency symbols get short
/// codes) decode with one table access.
const MIN_WINDOW_BITS: u32 = 8;
const MAX_WINDOW_BITS: u32 = 12;

/// Block streams [`Decoder::decode_lanes`] decodes side by side.
pub const LANES: usize = 4;

/// Most bits past the root a sub-table indexes: root + 10 = 22 bits holds
/// every code of a field-sized histogram but a handful, and two such codes
/// still fit the 57 bits a byte-aligned 64-bit load guarantees.
const SUB_BITS: u32 = 10;

/// Most sub-table entries of one view (256 KiB): room for every book the
/// default radius allows (65 535 symbols) and a cap on what a table of many
/// long codes — five stream bytes buy one — can make a decoder allocate.
/// Root prefixes past the budget escape instead.
const SUB_BUDGET: usize = 1 << 16;

/// Decode-table entry: 0 escapes; `symbol << 8 | length` is one code;
/// `offset << 8 | LINK | sub_bits` sends a root prefix to its sub-table at
/// `offset`; `rel_b << 22 | rel_a << 12 | len_a << 8 | PAIR | length` is
/// two codes `length` bits long in all, the first `len_a` of them, their
/// symbols `rel` above the view's pair base.
const LEN_MASK: u32 = 0x3f;
const PAIR: u32 = 0x40;
const LINK: u32 = 0x80;
/// Symbols an entry's 24 symbol bits can hold.
const LEAF_SYMBOLS: u32 = 1 << 24;
/// Symbols a pair entry's 10-bit fields can hold.
const PAIR_SPAN: u32 = 1 << 10;

/// Non-zero symbols closer than this to the smallest one get a
/// direct-indexed encoder slot; symbol 0 (SZ's outlier marker, far below
/// the codes centred on the radius) and rarer, farther symbols fall back
/// to binary search so a single huge symbol cannot blow up the table.
const ENC_DENSE_LIMIT: u32 = 1 << 16;

/// Decode-table root width for a stream of `n_values` symbols:
/// `clamp(⌈log₂ n⌉ − 3, 8, 12)`. A 16³ chunk makes ~1 400 probes, so it
/// gets 512 entries (9 bits) rather than 4 096; above 16 Ki values the
/// table is the full 12 bits.
pub fn window_bits(n_values: usize) -> u32 {
    let log2_ceil = usize::BITS - n_values.saturating_sub(1).leading_zeros();
    log2_ceil.saturating_sub(3).clamp(MIN_WINDOW_BITS, MAX_WINDOW_BITS)
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

/// The decoder's table: a root indexed by the next `bits` stream bits, then
/// the sub-tables its link entries point to.
#[derive(Debug, Clone)]
struct DecodeTable {
    bits: u32,
    /// Symbol the `rel` fields of pair entries count from.
    pair_base: u32,
    /// Whether the root has pair entries at all.
    pairs: bool,
    entries: Vec<u32>,
}

impl DecodeTable {
    fn build(book: &Codebook, bits: u32) -> Self {
        let bits = bits.clamp(MIN_WINDOW_BITS, MAX_WINDOW_BITS);
        let root = 1usize << bits;
        let mut t = vec![0u32; root];
        // Leaves for the codes the root holds; for longer ones the widest
        // sub-index their root prefix needs (a prefix cannot have both).
        for (sym, rev, len) in book.codes() {
            let len = len as u32;
            if len > bits + SUB_BITS {
                break; // canonical order: every later code is as long
            }
            if len > bits {
                let link = &mut t[rev as usize & (root - 1)];
                *link = (*link).max(LINK | (len - bits));
            } else if sym < LEAF_SYMBOLS {
                // Every index whose low `len` bits are this (reversed) code.
                for idx in (rev as usize..root).step_by(1 << len) {
                    t[idx] = sym << 8 | len;
                }
            }
        }
        for prefix in 0..root {
            if t[prefix] & LINK != 0 {
                let size = 1usize << (t[prefix] & LEN_MASK);
                if t.len() - root + size > SUB_BUDGET {
                    t[prefix] = 0;
                    continue;
                }
                t[prefix] |= ((t.len() - root) as u32) << 8;
                t.resize(t.len() + size, 0);
            }
        }
        for (sym, rev, len) in book.codes().skip_while(|c| c.2 as u32 <= bits) {
            let len = len as u32;
            if len > bits + SUB_BITS {
                break;
            }
            let link = t[rev as usize & (root - 1)];
            if link & LINK != 0 && sym < LEAF_SYMBOLS {
                let (at, size) = (root + (link >> 8) as usize, 1usize << (link & LEN_MASK));
                for idx in ((rev >> bits) as usize..size).step_by(1 << (len - bits)) {
                    t[at + idx] = sym << 8 | len;
                }
            }
        }
        // Two short codes per root entry where both fit the root and both
        // symbols lie within `PAIR_SPAN` of the base — the peaked
        // histograms whose codes are two or three bits long. Downwards, so
        // the entry of the second code (a lower index) is still single.
        let pair_base = book.entries.first().map_or(0, |e| e.0.saturating_sub(PAIR_SPAN / 2));
        let mut pairs = false;
        for w in (0..root).rev() {
            let (a, b) = (t[w], t[w >> (t[w] & LEN_MASK)]);
            let (len_a, len_b) = (a & LEN_MASK, b & LEN_MASK);
            let (rel_a, rel_b) = ((a >> 8).wrapping_sub(pair_base), (b >> 8).wrapping_sub(pair_base));
            let leaves = (a | b) & LINK == 0 && len_a != 0 && len_b != 0;
            if leaves && len_a + len_b <= bits && rel_a < PAIR_SPAN && rel_b < PAIR_SPAN {
                t[w] = rel_b << 22 | rel_a << 12 | len_a << 8 | PAIR | (len_a + len_b);
                pairs = true;
            }
        }
        Self { bits, pair_base, pairs, entries: t }
    }

    fn view<'a>(&'a self, book: &'a Codebook) -> Decoder<'a> {
        let (root, subs) = self.entries.split_at(1 << self.bits);
        Decoder { book, bits: self.bits, pair_base: self.pair_base, pairs: self.pairs, root, subs }
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
    /// first call builds the table, its root [`window_bits`]`(n_values)`
    /// wide; later calls return that same view whatever they pass, since
    /// every width decodes every stream alike.
    pub fn decoder_for(&self, n_values: usize) -> Decoder<'_> {
        let table = self.dec.get_or_init(|| DecodeTable::build(self, window_bits(n_values)));
        table.view(self)
    }

    /// The decoder view with the full-width root unless one exists.
    pub fn decoder(&self) -> Decoder<'_> {
        self.decoder_for(usize::MAX)
    }

    /// Dense encoder slots and decode-table entries (root and sub-tables),
    /// `None` for a view nothing has asked for yet.
    #[cfg(test)]
    fn view_sizes(&self) -> (Option<usize>, Option<usize>) {
        (self.enc.get().map(|t| t.dense.len()), self.dec.get().map(|t| t.entries.len()))
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

/// The decoder view of a [`Codebook`]: a `Copy` handle holding its table by
/// value and the book whose per-length tables the escape path walks.
#[derive(Debug, Clone, Copy)]
pub struct Decoder<'a> {
    book: &'a Codebook,
    bits: u32,
    pair_base: u32,
    pairs: bool,
    root: &'a [u32],
    subs: &'a [u32],
}

/// Why the word loop left off.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// A lane has fewer than 8 readable bytes or four symbols to go.
    Short,
    /// The code at a lane's cursor is not in the tables.
    Escape,
}

/// One lane of a decode run: where its next code starts in its stream and
/// how many symbols of its output are decoded.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    bit: usize,
    done: usize,
}

/// A reader over `data` from bit `bit` on.
fn reader_at(data: &[u8], bit: usize) -> BitReader<'_> {
    let mut r = BitReader::new(data.get(bit / 8..).unwrap_or_default());
    r.skip_bits((bit % 8) as u64);
    r
}

/// Escapes are counted per run: the collector takes a lock per call.
fn count_escapes(escapes: u64) {
    if escapes != 0 {
        foresight_util::telemetry::counter("huffman.escape_hits", escapes);
    }
}

/// Runs `$self.$method::<PAIRS>($args)` with `PAIRS` whether the view's
/// root has pair entries: a wide book has none, and its loop then carries
/// no pair arithmetic.
macro_rules! with_pairs {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        if $self.pairs { $self.$method::<true>($($arg),*) } else { $self.$method::<false>($($arg),*) }
    };
}

impl Decoder<'_> {
    /// Decodes one symbol: one or two table accesses for all but the codes
    /// the tables do not hold, which walk the per-length tables.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let mut escapes = 0;
        let sym = self.decode_one(r, &mut escapes);
        count_escapes(escapes);
        sym
    }

    /// Decodes exactly `n` symbols onto the end of `out`; equivalent to
    /// calling [`Decoder::decode`] `n` times. On an error `out` ends with
    /// the symbols decoded before it and `r` stands at the failing code.
    pub fn decode_into(&self, r: &mut BitReader<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        let start = out.len();
        out.resize(start + n, 0);
        let (data, bit) = r.position();
        let (mut cur, mut escapes) = (Cursor { bit, done: 0 }, 0);
        let res = with_pairs!(self.finish(data, &mut out[start..], &mut cur, &mut escapes));
        r.skip_bits((cur.bit - bit) as u64);
        out.truncate(start + cur.done);
        count_escapes(escapes);
        res
    }

    /// Decodes `counts[l]` symbols of stream `l` into `outs[l]` (replacing
    /// its contents) for [`LANES`] independent streams side by side. The
    /// result is that of [`Decoder::decode_into`] on each stream in turn:
    /// on an error, that of the lowest failing lane, whose output — and
    /// possibly those of the lanes after it — is left short.
    pub fn decode_lanes(
        &self,
        streams: [&[u8]; LANES],
        counts: [usize; LANES],
        outs: &mut [Vec<u32>; LANES],
    ) -> Result<()> {
        with_pairs!(self.lanes(streams, counts, outs))
    }

    fn lanes<const PAIRS: bool>(
        &self,
        streams: [&[u8]; LANES],
        counts: [usize; LANES],
        outs: &mut [Vec<u32>; LANES],
    ) -> Result<()> {
        // No clear: every slot kept is overwritten, so a scratch vector of
        // the right length is not zeroed again for each group.
        for (out, n) in outs.iter_mut().zip(counts) {
            out.resize(n, 0);
        }
        let mut tails = outs.each_mut().map(|out| &mut out[..]);
        let (mut cur, mut escapes) = ([Cursor::default(); LANES], 0);
        // An escape in one lane is resolved on the spot. If that fails the
        // lanes finish in order below, so the lowest failing lane reports.
        while let (l, Stop::Escape) = self.run::<PAIRS>(streams, &mut tails, &mut cur) {
            let mut tried = 0;
            if self.checked(streams[l], tails[l], &mut cur[l], 1, &mut tried).is_err() {
                break;
            }
            escapes += tried;
        }
        let mut res = Ok(());
        for l in 0..LANES {
            if res.is_ok() {
                res = self.finish::<PAIRS>(streams[l], tails[l], &mut cur[l], &mut escapes);
            }
        }
        for (out, c) in outs.iter_mut().zip(cur) {
            out.truncate(c.done);
        }
        count_escapes(escapes);
        res
    }

    /// The entry for the code at the low end of `word`: the root's, or its
    /// sub-table's when the root links to one.
    #[inline(always)]
    fn lookup(&self, word: u64) -> u32 {
        let mut e = self.root[word as usize & (self.root.len() - 1)];
        if e & LINK != 0 {
            let sub = (word >> self.bits) as usize & ((1 << (e & LEN_MASK)) - 1);
            e = self.subs.get((e >> 8) as usize + sub).copied().unwrap_or(0);
        }
        e
    }

    /// One step of the one block-decode loop: loads the word at the cursor
    /// and resolves two entries from it — at most 2 × 22 of the 57 bits a
    /// load at any bit offset holds, all inside the lane's own slice, so
    /// exhaustion cannot be missed here. Stops, the cursor before the code
    /// in question, short of 8 readable bytes or four symbols to go, or at
    /// an escape.
    #[inline(always)]
    fn step<const PAIRS: bool>(
        &self,
        data: &[u8],
        out: &mut [u32],
        cur: &mut Cursor,
    ) -> Option<Stop> {
        let slots = out.get_mut(cur.done..).and_then(|s| s.first_chunk_mut::<4>());
        let bytes = data.get(cur.bit / 8..).and_then(|s| s.first_chunk::<8>());
        let (Some(slots), Some(bytes)) = (slots, bytes) else { return Some(Stop::Short) };
        let mut word = u64::from_le_bytes(*bytes) >> (cur.bit % 8);
        let mut at = 0;
        for _ in 0..2 {
            let e = self.lookup(word);
            let (len, pair) = (e & LEN_MASK, PAIRS && e & PAIR != 0);
            if len == 0 {
                cur.done += at;
                return Some(Stop::Escape);
            }
            slots[at] = if pair { self.pair_base.wrapping_add((e >> 12) % PAIR_SPAN) } else { e >> 8 };
            if PAIRS {
                // A second symbol only a pair has; the next probe, or the
                // tail, overwrites it otherwise.
                slots[at + 1] = self.pair_base.wrapping_add(e >> 22);
            }
            at += 1 + pair as usize;
            cur.bit += len as usize;
            word >>= len;
        }
        cur.done += at;
        None
    }

    /// Steps every lane in turn until one stops; which, and why.
    fn run<const PAIRS: bool>(
        &self,
        streams: [&[u8]; LANES],
        outs: &mut [&mut [u32]; LANES],
        cursors: &mut [Cursor; LANES],
    ) -> (usize, Stop) {
        // Lanes by name, not by index: the cursors must live in registers.
        let [mut a, mut b, mut c, mut d] = *cursors;
        let [out_a, out_b, out_c, out_d] = outs;
        let stop = loop {
            if let Some(stop) = self.step::<PAIRS>(streams[0], out_a, &mut a) {
                break (0, stop);
            }
            if let Some(stop) = self.step::<PAIRS>(streams[1], out_b, &mut b) {
                break (1, stop);
            }
            if let Some(stop) = self.step::<PAIRS>(streams[2], out_c, &mut c) {
                break (2, stop);
            }
            if let Some(stop) = self.step::<PAIRS>(streams[3], out_d, &mut d) {
                break (3, stop);
            }
        };
        *cursors = [a, b, c, d];
        stop
    }

    /// Decodes the next `n` symbols of `out`, or as many as it has left,
    /// through a checked reader.
    fn checked(
        &self,
        data: &[u8],
        out: &mut [u32],
        cur: &mut Cursor,
        n: usize,
        escapes: &mut u64,
    ) -> Result<()> {
        let mut r = reader_at(data, cur.bit);
        let rest = out.get_mut(cur.done..).unwrap_or_default();
        let res = rest.iter_mut().take(n).try_for_each(|slot| {
            *slot = self.decode_one(&mut r, escapes)?;
            cur.done += 1;
            Ok(())
        });
        cur.bit = 8 * data.len() - r.remaining_bits() as usize;
        res
    }

    /// Runs one lane to the end of `out`: the word loop with its escapes
    /// resolved one by one, then the last few symbols checked.
    fn finish<const PAIRS: bool>(
        &self,
        data: &[u8],
        out: &mut [u32],
        cur: &mut Cursor,
        escapes: &mut u64,
    ) -> Result<()> {
        loop {
            let mut lane = *cur;
            let stop = loop {
                if let Some(stop) = self.step::<PAIRS>(data, out, &mut lane) {
                    break stop;
                }
            };
            *cur = lane;
            match stop {
                Stop::Escape => self.checked(data, out, cur, 1, escapes)?,
                Stop::Short => return self.checked(data, out, cur, usize::MAX, escapes),
            }
        }
    }

    #[inline]
    fn decode_one(&self, r: &mut BitReader<'_>, escapes: &mut u64) -> Result<u32> {
        let e = self.lookup(r.peek_bits(MAX_WINDOW_BITS + SUB_BITS));
        let (sym, len) = if e & PAIR != 0 {
            (self.pair_base.wrapping_add((e >> 12) % PAIR_SPAN), (e >> 8) & 0xf)
        } else {
            (e >> 8, e & LEN_MASK)
        };
        if len == 0 {
            *escapes += 1;
            return self.decode_escape(r);
        }
        // Zero-padded peek bits past the end of the stream cannot
        // fabricate a symbol: consume() still errors if fewer than `len`
        // real bits remain.
        r.consume(len)?;
        Ok(sym)
    }

    /// Resolves a code the tables do not hold: peeks a full-width word and
    /// walks the per-length tables over it in registers — a single
    /// `consume`, never a per-bit stream read.
    #[cold]
    fn decode_escape(&self, r: &mut BitReader<'_>) -> Result<u32> {
        const PEEK: u32 = 56;
        let book = self.book;
        let window = r.peek_bits(PEEK);
        let mut code = 0u64;
        for len in 1..=PEEK.min(MAX_LEN as u32) {
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

    /// The two views against the bit-at-a-time oracles: every root width,
    /// every book shape, every count around the word loop's four-symbol
    /// seam, one lane and four.
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
            // 11- and 12-bit codes only: past every root but the widest.
            let uniform: Vec<(u32, u64)> = (0..3000u32).map(|i| (31_000 + i, 50 + i as u64 % 7)).collect();
            // Short codes on symbols no entry can hold, long ones on some
            // it can.
            let huge: Vec<(u32, u64)> = (0..40u32)
                .map(|i| (if i % 3 == 0 { LEAF_SYMBOLS + i } else { 32_768 + i }, 1 + (1u64 << (i / 2))))
                .collect();
            [
                ("one symbol", vec![(32_768, 10)]),
                ("two symbols", vec![(32_767, 3), (32_768, 9)]),
                ("sz 47", sz_shaped(47)),
                ("sz 120", sz_shaped(120)),
                ("geometric", geometric),
                ("uniform 3000", uniform),
                ("symbols past 2^24", huge),
            ]
            .into_iter()
            .map(|(name, freqs)| (name, Codebook::from_frequencies(&freqs).unwrap()))
            .collect()
        }

        /// `n` symbols cycling through the whole book from `salt` on, long
        /// codes included.
        fn sample(book: &Codebook, n: usize, salt: usize) -> Vec<u32> {
            let syms = book.entries();
            (salt..salt + n).map(|i| syms[(i * 2_654_435_761) % syms.len()].0).collect()
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

        /// Four lanes of `counts` symbols, each stream followed by `pads`
        /// bytes that are not code.
        fn lanes(book: &Codebook, counts: [usize; LANES], pads: [usize; LANES]) -> [(Vec<u32>, Vec<u8>); LANES] {
            std::array::from_fn(|l| {
                let syms = sample(book, counts[l], 7 * l);
                let mut bytes = oracle_encode(book, &syms).into_bytes();
                bytes.resize(bytes.len() + pads[l], 0xa5);
                (syms, bytes)
            })
        }

        #[test]
        fn every_width_decodes_what_the_oracle_decodes() {
            for (name, book) in books() {
                let max_len = book.entries().iter().map(|e| e.1).max().unwrap();
                assert_eq!(name == "geometric", max_len == 30, "{name}: max len {max_len}");
                for n in [0usize, 1, 2, 3, 7, 8, 9, 4096] {
                    let syms = sample(&book, n, 0);
                    let bytes = oracle_encode(&book, &syms).into_bytes();
                    let mut slow = BitReader::new(&bytes);
                    for &s in &syms {
                        assert_eq!(book.decode_bitwise(&mut slow).unwrap(), s);
                    }
                    for bits in MIN_WINDOW_BITS..=MAX_WINDOW_BITS {
                        let table = DecodeTable::build(&book, bits);
                        assert_eq!(table.bits, bits);
                        let view = table.view(&book);
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
                        // One to four live lanes of unequal counts, an empty
                        // one among them, 0..=9 bytes behind the last code.
                        for live in 1..=LANES {
                            let counts = std::array::from_fn(|l| {
                                if (l + n) % LANES < live { (n + 5 * l) / (1 + l % 2) } else { 0 }
                            });
                            let pads = std::array::from_fn(|l| (3 * l + n + live) % 10);
                            let want = lanes(&book, counts, pads);
                            let mut outs: [Vec<u32>; LANES] = Default::default();
                            outs[live - 1] = vec![9; 3];
                            view.decode_lanes(want.each_ref().map(|w| &w.1[..]), counts, &mut outs)
                                .unwrap();
                            for (l, (out, (syms, _))) in outs.iter().zip(&want).enumerate() {
                                assert_eq!(out, syms, "{name} n={n} w={bits}: lane {l} of {counts:?}");
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn a_cut_stream_is_an_error_at_every_width() {
            for (name, book) in books() {
                let syms = sample(&book, 257, 0);
                let bytes = oracle_encode(&book, &syms).into_bytes();
                let counts = [257, 64, 300, 9];
                let whole = lanes(&book, counts, [0, 5, 1, 9]);
                for bits in MIN_WINDOW_BITS..=MAX_WINDOW_BITS {
                    let table = DecodeTable::build(&book, bits);
                    let view = table.view(&book);
                    for cut in 0..bytes.len() {
                        let mut out = Vec::new();
                        let mut r = BitReader::new(&bytes[..cut]);
                        let res = view.decode_into(&mut r, 257, &mut out);
                        assert!(res.is_err(), "{name} w={bits}: cut at {cut} decoded");
                        assert!(out.len() < 257 && out[..] == syms[..out.len()], "{name} w={bits}");
                    }
                    // Any one lane cut anywhere fails the four with the
                    // error that stream gives alone, wherever the other
                    // lanes stand; the lanes before it are whole.
                    for (l, (syms, bytes)) in whole.iter().enumerate() {
                        let coded = oracle_encode(&book, syms).into_bytes().len();
                        for cut in 0..coded {
                            let alone = view
                                .decode_into(&mut BitReader::new(&bytes[..cut]), counts[l], &mut Vec::new())
                                .unwrap_err();
                            let mut streams = whole.each_ref().map(|w| &w.1[..]);
                            streams[l] = &bytes[..cut];
                            let mut outs: [Vec<u32>; LANES] = Default::default();
                            let err = view.decode_lanes(streams, counts, &mut outs).unwrap_err();
                            let ctx = format!("{name} w={bits}: lane {l} cut at {cut}");
                            assert_eq!(err.to_string(), alone.to_string(), "{ctx}");
                            assert!(outs[l].len() < counts[l] && outs[l][..] == syms[..outs[l].len()], "{ctx}");
                            for (before, (syms, _)) in outs.iter().zip(&whole).take(l) {
                                assert_eq!(before, syms, "{ctx}");
                            }
                        }
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
            let syms = sample(&book, 4096, 0);
            let mut w = BitWriter::new();
            let encoder = book.encoder();
            syms.iter().for_each(|&s| encoder.encode(s, &mut w).unwrap());
            // 46 non-zero symbols: max - min + 1 slots, not max + 1; still
            // no decode table on the compress side.
            assert_eq!(book.view_sizes(), (Some(46), None));

            let mut table = Vec::new();
            book.serialize(&mut table);
            assert_eq!(table.len(), book.serialized_len());
            let bytes = w.into_bytes();
            // The root, then one sub-table per root prefix with longer codes
            // (up to 14 bits here), as wide as its longest: at 8 bits two
            // prefixes of two 9-bit codes, one of four 10-bit ones and one
            // that runs to 14 bits; and so on.
            let sized = [
                (512, 256 + 2 + 2 + 4 + 64),
                (4096, 512 + 2 + 2 + 4 + 32),
                (32_768, 4096 + 2 + 4),
            ];
            for (n_values, entries) in sized {
                let (parsed, _) = Codebook::deserialize(&table).unwrap();
                assert_eq!(parsed.view_sizes(), (None, None));
                let view = parsed.decoder_for(n_values);
                let mut out = Vec::new();
                view.decode_into(&mut BitReader::new(&bytes), syms.len(), &mut out).unwrap();
                assert_eq!(out, syms);
                // No encoder table on the decompress side; the first call
                // fixed the width.
                assert_eq!(parsed.view_sizes(), (None, Some(entries)));
                assert_eq!(parsed.decoder().bits, window_bits(n_values));
            }
            // The signature-compatible wrappers default to the full root.
            let (parsed, _) = Codebook::deserialize(&table).unwrap();
            let mut out = Vec::new();
            parsed.decode_into(&mut BitReader::new(&bytes), syms.len(), &mut out).unwrap();
            assert_eq!((out, parsed.view_sizes()), (syms, (None, Some(4096 + 2 + 4))));
            // This book's short codes pair up; a book whose shortest code is
            // 11 bits long has no pair to make and takes the lean loop.
            assert!(parsed.decoder().pairs);
            let books = books();
            assert!(!books.iter().find(|b| b.0 == "uniform 3000").unwrap().1.decoder().pairs);
            // A symbol past 2^24 gets no entry, however short its code.
            let (_, huge) = books.iter().find(|b| b.0 == "symbols past 2^24").unwrap();
            let (sym, rev, len) = huge.codes().find(|c| c.0 >= LEAF_SYMBOLS).unwrap();
            assert!(len < 8 && huge.decoder().root[rev as usize] == 0, "{sym}: {len} bits");
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
            // builds a table sized by the stream — an 8-bit root and a
            // 64-entry sub-table under each of the 204 prefixes the 14-bit
            // codes fill — never an encoder table.
            let (book, used) = Codebook::deserialize(&bytes).unwrap();
            assert_eq!((used, book.len(), book.view_sizes()), (bytes.len(), 13_000, (None, None)));
            let syms = sample(&book, 300, 0);
            let stream = oracle_encode(&book, &syms).into_bytes();
            let mut out = Vec::new();
            book.decoder_for(300).decode_into(&mut BitReader::new(&stream), 300, &mut out).unwrap();
            assert_eq!((out, book.view_sizes()), (syms, (None, Some(256 + 204 * 64))));
            // 70 000 22-bit codes ask for 69 sub-tables of 1 024 entries:
            // the budget grants 64 and the last five prefixes escape, which
            // decodes like the oracle all the same.
            let long: Vec<(u32, u8)> = (0..70_000u32).map(|i| (i + 1, 22)).collect();
            let (book, _) = Codebook::deserialize(&table(&long)).unwrap();
            let syms = sample(&book, 3000, 0);
            assert!(syms.iter().any(|&s| s > 69_000));
            let stream = oracle_encode(&book, &syms).into_bytes();
            let mut out = Vec::new();
            book.decoder().decode_into(&mut BitReader::new(&stream), 3000, &mut out).unwrap();
            assert_eq!((out, book.view_sizes()), (syms, (None, Some(4096 + SUB_BUDGET))));

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
