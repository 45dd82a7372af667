//! # wg-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation section
//! (`src/bin/table*.rs`, `src/bin/fig*.rs`) plus criterion
//! microbenchmarks for the core ops (`benches/`). Each binary prints the
//! same rows/series the paper reports, alongside the paper's numbers
//! where applicable, so EXPERIMENTS.md can record paper-vs-measured.
//!
//! Absolute times come from the simulated-machine cost models, so they
//! are *comparable in structure* (who wins, by what factor, where
//! crossovers fall) but not in absolute scale to a physical DGX-A100 —
//! see DESIGN.md.
//!
//! The five artifact-writing bins (`wallclock` and the four `*_sweep`s)
//! gate themselves: measure → `gate` (plain `assert!`s over the typed
//! points) → write, in one process, so a `BENCH_*.json` on disk is one
//! that passed and the bin's exit status is the gate.

use std::collections::HashMap;
use std::sync::Arc;

use wg_graph::DatasetKind;
use wholegraph::prelude::*;

/// Default scale divisors for the performance stand-ins: large enough to
/// run in seconds on a laptop, small enough that sampling does not
/// saturate the whole graph in two hops.
pub fn bench_scale(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::OgbnProducts => 100,    // ~24k nodes
        DatasetKind::OgbnPapers100M => 2000, // ~55k nodes
        DatasetKind::Friendster => 1000,     // ~68k nodes (R-MAT rounds up)
        DatasetKind::UkDomain => 1500,       // ~70k nodes
    }
}

/// Generate the standard benchmark stand-in for a dataset.
pub fn bench_dataset(kind: DatasetKind, seed: u64) -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(kind, bench_scale(kind), seed))
}

/// A paper-shaped pipeline configuration sized for the benchmark
/// stand-ins: the paper's batch size, 3 layers and fanout 30, with a
/// hidden width that keeps real CPU execution tractable (the *simulated*
/// compute time is computed from the configured width, so the reported
/// shape is faithful).
pub fn bench_pipeline_config(fw: Framework, model: ModelKind) -> PipelineConfig {
    PipelineConfig {
        hidden: 256,
        num_layers: 3,
        heads: 4,
        fanouts: vec![30, 30, 30],
        batch_size: 512,
        dropout: 0.5,
        lr: 3e-3,
        ..PipelineConfig::tiny(fw, model)
    }
}

/// Parse a bench bin's command line against its own flag list: a flag
/// takes the next non-flag argument as its value, else `"true"` (the `wg`
/// CLI's rule). Any other argument is an error naming it — a typo'd
/// `--cache-row 4096` must not silently run, and pass, the default leg.
pub fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}` (known: {known:?})"));
        }
        let value = it.next_if(|v| !v.starts_with("--")).cloned();
        out.insert(flag.clone(), value.unwrap_or_else(|| "true".to_string()));
    }
    Ok(out)
}

/// [`parse_flags`] over the process's own arguments; exits 2 on an error.
pub fn flags(known: &[&str]) -> HashMap<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flags(&args, known).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// FNV-1a over a word stream: the bit-exactness witness the benches pin
/// (`wg_tensor::simd::fnv1a_f32` is its byte-identical `f32` twin).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    use wg_tensor::simd::{FNV_OFFSET, FNV_PRIME};
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Counter value by exact name, zero when the counter never fired.
pub fn counter(snap: &wg_trace::metrics::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// A *harder* learnable stand-in for the accuracy experiments: noisier
/// features and weaker homophily than the default generator, so accuracy
/// climbs over many epochs and plateaus below 100% (the default SBM is
/// separable enough that curves saturate after two epochs, which makes
/// Figure 7 uninformative).
pub fn hard_accuracy_dataset(kind: DatasetKind, scale: u64, seed: u64) -> Arc<SyntheticDataset> {
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    let (paper_nodes, paper_edges, feature_dim) = kind.paper_stats();
    let n = (paper_nodes / scale).max(1000) as usize;
    let avg_degree = 2.0 * paper_edges as f64 / paper_nodes as f64;
    let num_classes = kind.num_classes();
    let (graph, labels) = wg_graph::gen::sbm(n, num_classes, avg_degree, 0.55, seed);
    let features =
        wg_graph::gen::class_features(&labels, num_classes, feature_dim, 3.0, seed ^ 0xfeed);
    let mut order: Vec<wg_graph::NodeId> = (0..n as u64).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x51137));
    let n_train = (n / 10).max(1);
    let n_eval = (n / 50).max(1);
    Arc::new(SyntheticDataset {
        kind,
        scale,
        graph,
        features,
        feature_dim,
        labels,
        num_classes,
        train: order[..n_train].to_vec(),
        val: order[n_train..n_train + n_eval].to_vec(),
        test: order[n_train + n_eval..n_train + 2 * n_eval].to_vec(),
    })
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            widths: headers.iter().map(|h| h.len()).collect(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        for (w, c) in self.widths.iter_mut().zip(cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let line = |cells: &[String], widths: &[usize]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers, &self.widths);
        let total: usize = self.widths.iter().sum::<usize>() + 2 * self.widths.len();
        println!("  {}", "-".repeat(total));
        for r in &self.rows {
            line(r, &self.widths);
        }
    }
}

/// Format a simulated span in seconds with 4 significant digits (the
/// paper's epoch-time unit).
pub fn secs(t: SimTime) -> String {
    format!("{:.4}", t.as_secs())
}

/// Format a speedup.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// The SIMD levels a kernel microbenchmark times, with their row names:
/// whatever the runtime dispatcher picked (`WG_SIMD` overrides it), the
/// forced-scalar path, and forced AVX2 on hosts that have it.
pub fn simd_levels() -> Vec<(&'static str, wg_tensor::simd::Level)> {
    use wg_tensor::simd::{self, Level};
    let mut levels = vec![("dispatched", simd::level()), ("scalar", Level::Scalar)];
    if simd::avx2_available() {
        levels.push(("simd-avx2", Level::Avx2));
    }
    levels
}

/// Standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("(simulated DGX-A100; shapes comparable to the paper, absolute");
    println!(" numbers are simulator outputs — see DESIGN.md/EXPERIMENTS.md)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_and_aligns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["wide-cell".into(), "3".into()]);
        t.print();
        assert_eq!(t.rows.len(), 2);
        assert!(t.widths[0] >= "wide-cell".len());
    }

    #[test]
    fn bench_datasets_are_reasonably_sized() {
        for kind in DatasetKind::ALL {
            let scale = bench_scale(kind);
            let (nodes, _, _) = kind.paper_stats();
            let expect = nodes / scale;
            assert!(expect > 10_000, "{kind:?} stand-in too small");
            assert!(expect < 200_000, "{kind:?} stand-in too large for CI");
        }
    }

    #[test]
    fn flags_parse_known_and_reject_typos() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known = ["--trace", "--cache-rows", "--sequential"];
        let f = parse_flags(&args(&["--cache-rows", "4096", "--sequential"]), &known).unwrap();
        assert_eq!(f["--cache-rows"], "4096");
        assert_eq!(f["--sequential"], "true");
        assert!(!f.contains_key("--trace"));
        let err = parse_flags(&args(&["--cache-row", "4096"]), &known).unwrap_err();
        assert!(err.contains("`--cache-row`"), "{err}");
        assert!(parse_flags(&args(&["stray"]), &[]).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(SimTime::from_secs(1.23456)), "1.2346");
        assert_eq!(speedup(57.321), "57.32x");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
