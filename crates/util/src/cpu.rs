//! Runtime dispatch onto the CPU's checksum instructions (DESIGN §22).
//!
//! The kernels — [`crate::crc`]'s carry-less fold and [`crate::sha256`]'s
//! SHA-extension rounds — are safe `#[target_feature]` functions that
//! touch memory only through slices. Calling one from code compiled
//! without those features is the crate's only `unsafe`, and it happens
//! here, right after the runtime check that makes it sound. Each entry
//! returns `None` / `false` when the CPU (or the target) lacks the
//! instructions, and the caller runs its portable code instead; both paths
//! produce the same bits.

// The crate denies unsafe_code; this module is the audited exception
// (calling a target-feature function after checking the CPU has it).
#![allow(unsafe_code)]

/// CRC-32 register after `data`, by carry-less folding, when the CPU
/// can fold and `data` is long enough to be worth it.
#[cfg(target_arch = "x86_64")]
pub(crate) fn crc32_fold(state: u32, data: &[u8]) -> Option<u32> {
    if data.len() < crate::crc::FOLD_MIN || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `fold` enables `pclmulqdq`, which the line above found on
    // this CPU, and `sse2`, which every x86_64 CPU has; it reads `data`
    // only through safe slicing.
    Some(unsafe { crate::crc::fold(state, data) })
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn crc32_fold(_state: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// Runs SHA-256's compression over every 64-byte block of `blocks` on
/// the SHA extensions, if the CPU has them; `false` leaves `state`
/// untouched.
#[cfg(target_arch = "x86_64")]
pub(crate) fn sha256_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    use std::arch::is_x86_feature_detected as has;
    if !(has!("sha") && has!("ssse3") && has!("sse4.1")) {
        return false;
    }
    // SAFETY: `rounds` enables `sha`, `ssse3` and `sse4.1`, all found on
    // this CPU by the line above, and `sse2`, which every x86_64 CPU has;
    // it reads `blocks` and writes `state` only through safe slicing.
    unsafe { crate::sha256::rounds(state, blocks) };
    true
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn sha256_blocks(_state: &mut [u32; 8], _blocks: &[u8]) -> bool {
    false
}
