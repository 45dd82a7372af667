//! The metric and workload tables — the single source `BENCHMARK.json` is
//! generated from (`wg-benchmark manifest`) and `compare` judges by.
//!
//! Two clocks, named in every metric: `host_*` / `op_host_*` / `setup_s` /
//! `peak_heap_mb` come from this machine (wall clock and the counting
//! allocator); `sim_*` are simulated device time from `wg_sim::cost` and,
//! with `accuracy`, are exact for a fixed seed.

use std::collections::BTreeMap;

use crate::json::Value;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end only; per-layer metrics carry none).
    pub bound: f64,
}

impl Metric {
    /// Simulated-clock values and counts repeat exactly for a fixed seed:
    /// `compare` holds them to a relative 1e-9 instead of the noise bound
    /// when both sides ran the same seeds.
    pub fn exact_at_fixed_seed(&self) -> bool {
        self.name.starts_with("sim_") || self.name == "accuracy"
    }
}

pub const RUN_SECONDS: u64 = 10;

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_paper",
        why: "the paper's config (GAT 4 heads, 3x30, hidden 256, batch 1024): ~90% of host time is tensor/autograd/gnn math, every kernel family runs",
    },
    Workload {
        name: "train_input",
        why: "power-law graph, GCN hidden 16, CLOCK cache 5% + disk tier 10% resident: sampling+gather are ~half of host time, sim clock is ~all storage",
    },
    Workload {
        name: "serve_zipf",
        why: "open-loop Poisson/Zipf(1.1) serving, <=64-seed coalesced batches, cache hits: the forward-only small-batch path that bulk-training gains can hurt",
    },
    Workload {
        name: "multinode_4",
        why: "4 simulated nodes, tiny GraphSAGE, batch 16: the only workload with halo exchange and GradSync, on iterations where fixed cost dominates",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// The twelve end-to-end metrics. Every workload reports every one; the
/// README's table says what each measures on each workload.
pub static END_TO_END: [Metric; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_seeds_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_host_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_host_ms_p75", "ms", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.15),
    e2e("sim_epoch_ms", "ms", Better::Lower, 0.25),
    e2e("sim_seeds_per_s", "1/s", Better::Higher, 0.25),
    e2e("sim_time_to_loss_ms", "ms", Better::Lower, 0.25),
    e2e("sim_p50_us", "us", Better::Lower, 0.15),
    e2e("sim_p99_us", "us", Better::Lower, 0.15),
    e2e("sim_dev_mem_mb", "MiB", Better::Lower, 0.25),
    e2e("accuracy", "ratio", Better::Higher, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

/// The per-layer ledger (layer = crate). A metric a workload does not
/// exercise reads 0 there.
pub static PER_LAYER: [Metric; 85] = [
    layer("host.threads", "count", H),
    layer("host.cores", "count", H),
    layer("host.copy_gbps", "GB/s", H),
    layer("host.calibration_ms", "ms", L),
    layer("graph.gen_ms", "ms", L),
    layer("graph.store_build_ms", "ms", L),
    layer("pool.speedup.sample", "ratio", H),
    layer("pool.speedup.gather", "ratio", H),
    layer("pool.speedup.train", "ratio", H),
    layer("pool.speedup.op", "ratio", H),
    layer("sample.minibatch_ms", "ms", L),
    layer("sample.append_unique_ms", "ms", L),
    layer("sample.edges", "count", L),
    layer("sample.input_nodes", "count", L),
    layer("sample.keys_inserted", "count", L),
    layer("sample.edges_per_s", "1/s", H),
    layer("mem.gather_ms", "ms", L),
    layer("mem.rows", "count", L),
    layer("mem.remote_rows", "count", L),
    layer("mem.algo_bytes", "count", L),
    layer("mem.bus_bytes", "count", L),
    layer("mem.cache_hit_share", "ratio", H),
    layer("mem.ooc_rows", "count", L),
    layer("mem.ooc_bytes", "count", L),
    layer("mem.gather_gbps", "GB/s", H),
    layer("tensor.matmul_ms", "ms", L),
    layer("tensor.matmul_gflops", "GFLOP/s", H),
    layer("tensor.spmm_ms", "ms", L),
    layer("tensor.spmm_bwd_ms", "ms", L),
    layer("tensor.sddmm_ms", "ms", L),
    layer("tensor.edge_softmax_ms", "ms", L),
    layer("tensor.edge_softmax_bwd_ms", "ms", L),
    layer("gnn.convert_ms", "ms", L),
    layer("gnn.forward_ms", "ms", L),
    layer("gnn.loss_ms", "ms", L),
    layer("gnn.gcn.iter_ms", "ms", L),
    layer("gnn.sage.iter_ms", "ms", L),
    layer("gnn.gat.iter_ms", "ms", L),
    layer("autograd.backward_ms", "ms", L),
    layer("autograd.optimizer_ms", "ms", L),
    layer("autograd.allocs_per_iter", "count", L),
    layer("pipeline.sample_ms", "ms", L),
    layer("pipeline.gather_ms", "ms", L),
    layer("pipeline.train_ms", "ms", L),
    layer("pipeline.op_ms", "ms", L),
    layer("pipeline.first_iter_ms", "ms", L),
    layer("pipeline.replay_gap", "ratio", L),
    layer("sim.sampling_ms", "ms", L),
    layer("sim.gather_ms", "ms", L),
    layer("sim.training_ms", "ms", L),
    layer("sim.comm_ms", "ms", L),
    layer("sim.epoch_ms", "ms", L),
    layer("sim.storage_ms", "ms", L),
    layer("sim.storage_exposed_ms", "ms", L),
    layer("sim.gpu0_busy_share", "ratio", H),
    layer("multinode.sim_scaling_eff", "ratio", H),
    layer("multinode.n1_sim_epoch_ms", "ms", L),
    layer("multinode.sim_sync_ms", "ms", L),
    layer("multinode.sync_bytes", "count", L),
    layer("multinode.halo_rows", "count", L),
    layer("multinode.halo_bytes", "count", L),
    layer("multinode.waves", "count", L),
    layer("multinode.epochs_to_loss", "count", L),
    layer("multinode.final_loss", "loss", L),
    layer("serve.traffic_gen_ms", "ms", L),
    layer("serve.coalesce_ms", "ms", L),
    layer("serve.forward_ms", "ms", L),
    layer("serve.engine_overhead_ms", "ms", L),
    layer("serve.batches", "count", L),
    layer("serve.mean_batch", "count", H),
    layer("serve.dedup_factor", "ratio", H),
    layer("serve.sim_queue_us_p50", "us", L),
    layer("serve.sim_sample_ms", "ms", L),
    layer("serve.sim_gather_ms", "ms", L),
    layer("serve.sim_compute_ms", "ms", L),
    layer("serve.shed", "count", L),
    layer("serve.expired", "count", L),
    layer("serve.causality_violations", "count", L),
    layer("serve.causality_probe_violations", "count", L),
    layer("serve.sim_p99_us_12k5", "us", L),
    layer("serve.sim_p99_us_50k", "us", L),
    layer("serve.sim_p99_us_100k", "us", L),
    layer("serve.sim_p99_us_200k", "us", L),
    layer("trace.bench_overhead_share", "ratio", L),
    layer("trace.probe_overhead_share", "ratio", L),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Values for one metric table; every name starts at 0 and unknown names
/// are a bug in the benchmark, caught on the first run.
pub struct Ledger {
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new(table: &'static [Metric]) -> Self {
        Ledger {
            table,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.name == name),
            "metric {name:?} is not in the table"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(metric, value)` in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().map(|m| (m, self.get(m.name)))
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Value {
        Value::obj(self.rows().map(|(m, v)| {
            (
                m.name,
                Value::obj([("value", Value::from(v)), ("unit", Value::from(m.unit))]),
            )
        }))
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Value {
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", Value::from(m.name)),
            ("unit", Value::from(m.unit)),
            ("better", Value::from(m.better.name())),
        ];
        if bounded {
            fields.push(("bound", Value::from(m.bound)));
        }
        Value::obj(fields)
    };
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Value::from)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::from("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_manifest_contract() {
        assert_eq!(WORKLOADS.len(), 4);
        assert_eq!(END_TO_END.len(), 12);
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "{} unit {:?}", m.name, m.unit);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `wg-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn ledger_defaults_to_zero_and_rejects_unknown_names() {
        let mut l = Ledger::new(&PER_LAYER);
        l.set("mem.rows", 5.0);
        assert_eq!(l.get("mem.rows"), 5.0);
        assert_eq!(l.get("mem.ooc_rows"), 0.0);
        assert_eq!(l.rows().count(), PER_LAYER.len());
        let r = std::panic::catch_unwind(move || l.set("mem.typo", 1.0));
        assert!(r.is_err());
    }
}
