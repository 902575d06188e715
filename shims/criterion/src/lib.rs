//! Vendored stand-in for the `criterion` crate (offline build).
//!
//! Supports the benchmark-definition API this workspace uses
//! (`benchmark_group`, `bench_function`, `bench_with_input`,
//! `iter`/`iter_batched`, `Throughput`, `criterion_group!`/
//! `criterion_main!`) with a simple adaptive timing loop instead of
//! criterion's statistical machinery: each benchmark is warmed up, then
//! run until the measurement window is filled, and the mean
//! per-iteration time (plus derived throughput) is printed.
//!
//! Environment knobs: `CRITERION_MEASURE_MS` (default 300) bounds the
//! per-benchmark measurement window. As with criterion, the first
//! positional argument (`cargo bench --bench codecs -- zfp_block`) keeps
//! only the benchmarks whose `group/id` contains it.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How input size converts into throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Input bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`] (ignored by the shim).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
}

/// A benchmark identifier with a function name and parameter label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id like `name/param`.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        Self { id: format!("{name}/{param}") }
    }

    /// Creates an id from the parameter value alone.
    pub fn from_parameter(param: impl Display) -> Self {
        Self { id: param.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { id: s }
    }
}

/// Runs one benchmark body repeatedly and records timing.
pub struct Bencher {
    measure: Duration,
    /// (total duration, iterations) filled by `iter*`.
    result: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times `f` over the measurement window.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup + rate estimate.
        let warm_start = Instant::now();
        black_box(f());
        let first = warm_start.elapsed();
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let batch = if first.is_zero() {
            1024
        } else {
            (self.measure.as_nanos() / first.as_nanos().max(1) / 8).clamp(1, 1 << 20) as u64
        };
        while total < self.measure {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            total += t.elapsed();
            iters += batch;
        }
        self.result = Some((total, iters));
    }

    /// Times `routine` on fresh inputs from `setup` (setup time excluded).
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        while total < self.measure {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total += t.elapsed();
            iters += 1;
        }
        self.result = Some((total, iters));
    }
}

fn measure_window() -> Duration {
    let ms = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

fn report(group: &str, id: &str, throughput: Option<Throughput>, total: Duration, iters: u64) {
    let per_iter = total.as_secs_f64() / iters.max(1) as f64;
    let time_str = if per_iter >= 1.0 {
        format!("{per_iter:.3} s")
    } else if per_iter >= 1e-3 {
        format!("{:.3} ms", per_iter * 1e3)
    } else if per_iter >= 1e-6 {
        format!("{:.3} us", per_iter * 1e6)
    } else {
        format!("{:.1} ns", per_iter * 1e9)
    };
    let thrpt = match throughput {
        Some(Throughput::Bytes(b)) => {
            format!("  thrpt: {:.2} MiB/s", b as f64 / per_iter / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(e)) => {
            format!("  thrpt: {:.2} Melem/s", e as f64 / per_iter / 1e6)
        }
        None => String::new(),
    };
    let name = if group.is_empty() { id.to_string() } else { format!("{group}/{id}") };
    println!("{name:<40} time: {time_str}{thrpt}  ({iters} iters)");
}

/// A named group of benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the throughput basis for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        self.run(id.into(), f);
        self
    }

    /// Runs one parameterized benchmark.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.run(id, |b| f(b, input));
        self
    }

    fn run(&mut self, id: BenchmarkId, mut f: impl FnMut(&mut Bencher)) {
        if !self.criterion.selects(&format!("{}/{}", self.name, id.id)) {
            return;
        }
        let mut b = Bencher { measure: measure_window(), result: None };
        f(&mut b);
        if let Some((total, iters)) = b.result {
            report(&self.name, &id.id, self.throughput, total, iters);
        }
    }

    /// Ends the group (formatting no-op in the shim).
    pub fn finish(&mut self) {}
}

/// Benchmark registry entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    /// Takes the name filter from the command line, skipping the flags
    /// cargo passes (`--bench`).
    fn default() -> Self {
        Self { filter: std::env::args().skip(1).find(|a| !a.starts_with('-')) }
    }
}

impl Criterion {
    fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), throughput: None, criterion: self }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        if !self.selects(&id.id) {
            return self;
        }
        let mut b = Bencher { measure: measure_window(), result: None };
        f(&mut b);
        if let Some((total, iters)) = b.result {
            report("", &id.id, None, total, iters);
        }
        self
    }
}

/// Declares a benchmark group function list.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the benchmark `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_measures() {
        std::env::set_var("CRITERION_MEASURE_MS", "5");
        let mut b = Bencher { measure: Duration::from_millis(5), result: None };
        b.iter(|| std::hint::black_box(3u64.wrapping_mul(7)));
        let (total, iters) = b.result.unwrap();
        assert!(iters > 0);
        assert!(total >= Duration::from_millis(5));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        std::env::set_var("CRITERION_MEASURE_MS", "2");
        let mut c = Criterion { filter: None };
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(1024));
        g.bench_function("f", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("p", 3), &3, |b, &x| b.iter(|| x * 2));
        g.finish();
    }

    #[test]
    fn filter_keeps_only_matching_names() {
        std::env::set_var("CRITERION_MEASURE_MS", "2");
        let mut c = Criterion { filter: Some("g/keep".into()) };
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("g");
        g.bench_function("keep_me", |b| {
            ran.push("keep_me");
            b.iter(|| 1 + 1)
        });
        g.bench_function("skip_me", |b| {
            ran.push("skip_me");
            b.iter(|| 1 + 1)
        });
        assert_eq!(ran, ["keep_me"]);
    }

    #[test]
    fn iter_batched_runs_setup_each_iteration() {
        std::env::set_var("CRITERION_MEASURE_MS", "2");
        let mut b = Bencher { measure: Duration::from_millis(2), result: None };
        let mut setups = 0u64;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 64]
            },
            |v| v.len(),
            BatchSize::LargeInput,
        );
        let (_, iters) = b.result.unwrap();
        assert_eq!(setups, iters);
    }
}
