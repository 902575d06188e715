//! Runtime dispatch onto the CPU's wider instructions (DESIGN §22, §23).
//!
//! Two kinds of caller come through here:
//!
//! - **The checksum kernels** — [`crate::crc`]'s carry-less fold and
//!   [`crate::sha256`]'s SHA-extension rounds — are safe
//!   `#[target_feature]` functions that touch memory only through slices.
//!   [`crc32_fold`] and [`sha256_blocks`] return `None` / `false` when the
//!   CPU (or the target) lacks the instructions, and the caller runs its
//!   portable code instead.
//! - **Any [`Kernel`]** — one `#[inline(always)]` body, such as SZ's
//!   lattice passes — runs through [`widest`], which compiles it once per
//!   [`Level`] and picks the widest one the CPU has. [`at`] runs a chosen
//!   level (or `None` above the host's), so tests reach every width
//!   without a switch.
//!
//! Calling a function compiled with features the caller was not is the
//! crate's only `unsafe`, and it happens here, right after the runtime
//! check that makes it sound. Every path produces the same bits.

// The crate denies unsafe_code; this module is the audited exception
// (calling a target-feature function after checking the CPU has it).
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// A vector width a [`Kernel`] is compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The target's baseline (SSE2 on x86_64): every CPU runs it, and it
    /// is the only level on other targets.
    Baseline,
    /// AVX2, FMA and BMI2: 256-bit lanes.
    Avx2,
    /// AVX-512 F, DQ, VL and BW on top of [`Level::Avx2`]: 512-bit lanes.
    Avx512,
}

impl Level {
    /// Every level, narrowest first.
    pub const ALL: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512];
}

/// A body [`widest`] and [`at`] compile once per [`Level`].
///
/// Implementations mark `run` `#[inline(always)]`, and everything it
/// calls down to the leaves, so each instantiation is one function built
/// for its level. A call that stays out of line (a thread-local access,
/// say) is compiled at the baseline whatever level reaches it: do such
/// work before the dispatch and pass the result in.
pub trait Kernel {
    /// What the body returns.
    type Output;

    /// Runs the body.
    fn run(self) -> Self::Output;

    /// Runs the body at [`Level::Baseline`]; [`Kernel::run`] unless the
    /// body has a form for it. SSE2 has no per-lane variable shift, no
    /// gather and no bit count, so a body built on them may do better one
    /// lane at a time there than widened. Both forms return the same
    /// value.
    #[inline(always)]
    fn run_baseline(self) -> Self::Output
    where
        Self: Sized,
    {
        self.run()
    }
}

/// The widest level this CPU runs, detected once per process.
pub fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    use std::arch::is_x86_feature_detected as has;
    let avx2 = has!("avx2") && has!("fma") && has!("bmi2");
    let avx512 = has!("avx512f") && has!("avx512dq") && has!("avx512vl") && has!("avx512bw");
    match (avx2, avx512) {
        (true, true) => Level::Avx512,
        (true, false) => Level::Avx2,
        (false, _) => Level::Baseline,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Baseline
}

/// Runs `body` compiled for the widest level this CPU has.
pub fn widest<K: Kernel>(body: K) -> K::Output {
    // SAFETY: `level()` is the level this CPU was detected to run.
    unsafe { run_at(level(), body) }
}

/// Runs `body` compiled for `level`, or returns `None` when this CPU
/// does not run that level.
pub fn at<K: Kernel>(level: Level, body: K) -> Option<K::Output> {
    // SAFETY: `level` is at most the level this CPU was detected to run.
    (level <= self::level()).then(|| unsafe { run_at(level, body) })
}

/// `body` compiled for `level`.
///
/// # Safety
///
/// `level` must not exceed [`level()`]: the instantiation for a level
/// executes that level's instructions.
unsafe fn run_at<K: Kernel>(level: Level, body: K) -> K::Output {
    match level {
        Level::Baseline => body.run_baseline(),
        // SAFETY: `avx2` enables `avx2`, `fma` and `bmi2`, which `detect`
        // found on this CPU for any level from `Avx2` up; the body is safe
        // code, so those instructions are all it adds.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { avx2(body) },
        // SAFETY: `avx512` enables those three plus `avx512f`, `avx512dq`,
        // `avx512vl` and `avx512bw`, which `detect` found on this CPU for
        // the `Avx512` level; the body is safe code.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { avx512(body) },
        // `detect` never reports more than the baseline here.
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => body.run_baseline(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,bmi2")]
fn avx2<K: Kernel>(body: K) -> K::Output {
    body.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,bmi2,avx512f,avx512dq,avx512vl,avx512bw")]
fn avx512<K: Kernel>(body: K) -> K::Output {
    body.run()
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Work the vectorizer widens at every level: divisions, roundings,
    /// conversions and integer reductions over a few thousand values.
    struct Sum<'a>(&'a [f32]);

    impl Kernel for Sum<'_> {
        type Output = (Vec<u64>, i64, u32);

        #[inline(always)]
        fn run(self) -> Self::Output {
            let scaled: Vec<u64> =
                self.0.iter().map(|&v| (v as f64 / 0.3).round().to_bits()).collect();
            let total = self.0.iter().map(|&v| (v * 7.0) as i64).fold(0i64, i64::wrapping_add);
            let top = self.0.iter().map(|v| v.to_bits()).max().unwrap_or(0);
            (scaled, total, top)
        }
    }

    fn values() -> Vec<f32> {
        (0..5_000)
            .map(|i| (i as f32 * 0.37).sin() * 1e3 + if i % 97 == 0 { f32::NAN } else { 0.0 })
            .collect()
    }

    #[test]
    fn level_is_stable_across_calls_and_threads() {
        let here = level();
        assert!((0..100).all(|_| level() == here));
        let there: Vec<Level> =
            (0..4).map(|_| std::thread::spawn(level)).map(|t| t.join().unwrap()).collect();
        assert_eq!(there, [here; 4]);
    }

    #[test]
    fn at_refuses_levels_above_the_host() {
        let data = values();
        for l in Level::ALL {
            assert_eq!(at(l, Sum(&data)).is_some(), l <= level(), "{l:?}");
        }
        assert!(at(Level::Baseline, Sum(&data)).is_some(), "every CPU runs the baseline");
    }

    #[test]
    fn a_body_returns_the_same_value_at_every_level() {
        let data = values();
        let want = Sum(&data).run();
        let mut ran = Vec::new();
        for l in Level::ALL {
            if let Some(got) = at(l, Sum(&data)) {
                assert_eq!(got, want, "{l:?}");
                ran.push(l);
            }
        }
        assert_eq!(ran.last(), Some(&level()), "ran {ran:?}");
        assert_eq!(widest(Sum(&data)), want);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn level_matches_the_detected_features() {
        use std::arch::is_x86_feature_detected as has;
        let avx2 = has!("avx2") && has!("fma") && has!("bmi2");
        assert_eq!(level() >= Level::Avx2, avx2);
        if level() == Level::Avx512 {
            assert!(has!("avx512f") && has!("avx512dq") && has!("avx512vl") && has!("avx512bw"));
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn other_targets_run_the_baseline() {
        assert_eq!(level(), Level::Baseline);
        assert!(at(Level::Avx2, Sum(&values())).is_none());
    }
}
