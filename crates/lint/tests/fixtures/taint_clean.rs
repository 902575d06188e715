// Near-miss clean file for the taint pass: the same sink shapes as
// taint_tp.rs (allocation, read length, indexing), but every
// header-derived value is sanitized first — capped read, comparison
// guard rejecting with Err, checked arithmetic, explicit .min cap.
// Scanned under crates/sz/src/stream.rs; no dataflow findings (decode-index is tagged).
fn decode(stream: &[u8]) -> Result<(), Error> {
    let mut r = ByteReader::new(stream);
    let n = r.u64_le_capped(MAX_COUNT, "count")? as usize;
    let raw = r.u32_le()? as usize;
    let blocks = r.u32_le()? as usize;
    if blocks > stream.len() {
        return Err(Error::corrupt("count too big"));
    }
    let buf: Vec<u8> = Vec::with_capacity(n);
    let spec = r.take(raw.checked_mul(4).ok_or_else(|| Error::corrupt("overflow"))?)?;
    let clamped = r.u32_le()? as usize;
    let idx = clamped.min(stream.len());
    let first = stream[idx]; // EXPECT: decode-index
    for _b in 0..blocks {
        let _ = first;
    }
    drop((buf, spec, first));
    Ok(())
}
