// Seeded taint-pass true positives. Lines carrying an EXPECT tag must
// be reported with exactly the tagged rules; analyze_fixtures.rs parses
// the tags and compares against the analyzer output. The file is scanned
// under the virtual path crates/sz/src/stream.rs (decode-critical).
fn helper_alloc(count: usize) -> Vec<u8> {
    Vec::with_capacity(count)
}

fn decode(stream: &[u8]) -> Result<(), Error> {
    let mut r = ByteReader::new(stream);
    let n = r.u32_le()? as usize;
    let raw = r.u64_le()? as usize;
    let buf: Vec<u8> = Vec::with_capacity(n); // EXPECT: taint-alloc
    let spec = r.take(raw * 4)?; // EXPECT: taint-arith
    let first = stream[n]; // EXPECT: taint-index, decode-index
    for _i in 0..raw { // EXPECT: taint-loop
        let _ = first;
    }
    let v = helper_alloc(n); // EXPECT: taint-alloc
    drop((buf, spec, v));
    Ok(())
}
