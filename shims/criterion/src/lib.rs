//! Offline shim for the parts of `criterion` this workspace uses.
//!
//! The build environment has no crates.io access, so this crate keeps the
//! `criterion_group!` / `criterion_main!` / `bench_function` surface but
//! replaces the statistical machinery with a tiny best-of-N wall-clock
//! timer that prints one line per benchmark. Good enough to run the
//! benches and eyeball relative cost; not a measurement instrument.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Opaque-to-the-optimizer value passthrough.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for a parameterised benchmark (`group/function/param`).
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Id made of a function name and a parameter value.
    pub fn new<P: std::fmt::Display>(function: &str, parameter: P) -> Self {
        BenchmarkId {
            function: function.to_string(),
            parameter: parameter.to_string(),
        }
    }

    fn label(&self) -> String {
        format!("{}/{}", self.function, self.parameter)
    }
}

/// Passed to benchmark closures; `iter` times the routine.
pub struct Bencher {
    samples: usize,
    best_ns: u128,
}

impl Bencher {
    /// Run `routine` `samples` times and keep the best wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            let ns = start.elapsed().as_nanos();
            self.best_ns = self.best_ns.min(ns);
        }
    }
}

fn run_bench(group: &str, name: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        best_ns: u128::MAX,
    };
    f(&mut b);
    let label = if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}/{name}")
    };
    if b.best_ns == u128::MAX {
        println!("bench {label}: no samples");
    } else {
        println!(
            "bench {label}: best {} ns over {} samples",
            b.best_ns, samples
        );
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set how many samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Benchmark a routine parameterised by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_bench(&self.name, &id.label(), self.samples, &mut |b| f(b, input));
        self
    }

    /// Benchmark a plain routine within the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&self.name, name, self.samples, &mut f);
        self
    }

    /// Finish the group (no-op here; criterion emits summaries).
    pub fn finish(self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    samples: usize,
}

impl Criterion {
    /// Begin a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let samples = self.default_samples();
        BenchmarkGroup {
            name: name.to_string(),
            samples,
            _criterion: self,
        }
    }

    /// Benchmark a standalone routine.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let samples = self.default_samples();
        run_bench("", name, samples, &mut f);
        self
    }

    fn default_samples(&self) -> usize {
        if self.samples == 0 {
            10
        } else {
            self.samples
        }
    }
}

/// Define a benchmark group function, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Define `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_and_chains() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut ran = 0u32;
        group.bench_with_input(BenchmarkId::new("square", 7u32), &7u32, |b, &n| {
            b.iter(|| {
                ran += 1;
                black_box(n * n)
            });
        });
        group.finish();
        assert_eq!(ran, 3);
        c.bench_function("standalone", |b| b.iter(|| black_box(1 + 1)));
    }
}
