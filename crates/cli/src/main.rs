//! `wg` — command-line front end for the WholeGraph reproduction.
//!
//! ```text
//! wg gen   --dataset products --scale 800 --out data.wgds     generate + save a stand-in
//! wg train --data data.wgds --model sage --framework wholegraph --epochs 5
//! wg train --dataset products --scale 800 --model gat ...      (generate on the fly)
//! wg serve --dataset products --scale 800 --rate 20000 --zipf 1.1  online inference
//! wg info  --data data.wgds                                    dataset summary
//! ```
//!
//! Argument parsing is deliberately dependency-free (flag pairs only).

use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;

use wg_graph::io::{load_dataset, save_dataset};
use wg_graph::{DatasetKind, SyntheticDataset};
use wholegraph::prelude::*;

/// The usage text — also the flag list: [`parse_flags`] accepts exactly
/// the `--flags` named here.
const USAGE: &str = "usage:\n  wg gen   --dataset <products|papers100m|friendster|uk> --scale <N> --out <file> [--seed <N>]\n           [--out-of-core <resident-frac>]   (heavy-tailed profile; prints the --storage-rows budget)\n  wg train [--data <file> | --dataset <kind> --scale <N>] [--model <gcn|sage|gat>]\n           [--framework <wholegraph|dgl|pyg>] [--epochs <N>] [--batch <N>] [--hidden <N>]\n           [--layers <N>] [--fanout <N>] [--gpus <N>] [--seed <N>] [--overlap]\n           [--cache-rows <N>] [--cache-mode <static|clock>] [--storage-rows <N>]\n           [--trace <out.json>]\n  wg multinode --nodes <N> [--compress topk:<frac>] [--delayed-agg [<period>]]\n           [--gpus <per-node>] [--epochs <N>] [--trace <out.json>]\n           [--cache-rows <N>] [--cache-mode <static|clock>] [--storage-rows <N>]\n           [dataset/model/batch/seed flags as in train]\n  wg serve [--data <file> | --dataset <kind> --scale <N>] [--model <gcn|sage|gat>]\n           [--epochs <warmup-epochs>] [--gpus <N>] [--seed <N>]\n           [--requests <N>] [--rate <qps>] [--burst <N>] [--zipf <s>]\n           [--max-batch <N>] [--max-delay-us <f>] [--queue-cap <N>] [--sequential]\n           [--deadline-us <f>] [--cache-rows <N>] [--cache-mode <static|clock>]\n           [--storage-rows <N>] [--trace <out.json>]\n  wg info  --data <file>";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

/// Whether `flag` (with its `--`) is named, as a whole word, in [`USAGE`].
fn known_flag(flag: &str) -> bool {
    USAGE.match_indices(flag).any(|(i, _)| {
        !USAGE[i + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

/// Split `args` into flag → value pairs. Anything that is not a flag the
/// usage text names is an error naming it: a typo'd `--overlapp` must not
/// silently run serial.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let k = &args[i];
        if !k.starts_with("--") {
            return Err(format!("bad argument: {k}"));
        }
        if !known_flag(k) {
            return Err(format!("unknown flag: {k}"));
        }
        // A flag with no value (end of args, or followed by another
        // flag) is a boolean switch, e.g. `--overlap`.
        if i + 1 >= args.len() || args[i + 1].starts_with("--") {
            out.insert(k[2..].to_string(), "true".to_string());
            i += 1;
        } else {
            out.insert(k[2..].to_string(), args[i + 1].clone());
            i += 2;
        }
    }
    Ok(out)
}

fn dataset_kind(name: &str) -> DatasetKind {
    match name.to_ascii_lowercase().as_str() {
        "products" | "ogbn-products" => DatasetKind::OgbnProducts,
        "papers100m" | "papers" | "ogbn-papers100m" => DatasetKind::OgbnPapers100M,
        "friendster" => DatasetKind::Friendster,
        "uk" | "uk_domain" | "ukdomain" => DatasetKind::UkDomain,
        other => {
            eprintln!("unknown dataset {other}");
            usage();
        }
    }
}

fn model_kind(name: &str) -> ModelKind {
    match name.to_ascii_lowercase().as_str() {
        "gcn" => ModelKind::Gcn,
        "sage" | "graphsage" => ModelKind::GraphSage,
        "gat" => ModelKind::Gat,
        other => {
            eprintln!("unknown model {other}");
            usage();
        }
    }
}

fn framework(name: &str) -> Framework {
    match name.to_ascii_lowercase().as_str() {
        "wholegraph" | "wg" => Framework::WholeGraph,
        "dgl" => Framework::Dgl,
        "pyg" => Framework::Pyg,
        other => {
            eprintln!("unknown framework {other}");
            usage();
        }
    }
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects a number, got {v}");
            usage();
        }),
    }
}

/// `--<key> <N>` for a count that must be at least 1, or `default` when
/// the flag is absent. Zero is refused by name here rather than left to
/// divide by zero or trip an assertion inside the library.
fn positive<T>(flags: &HashMap<String, String>, key: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let Some(v) = flags.get(key) else {
        return Ok(default);
    };
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("--{key} expects a count of at least 1, got {v}")),
    }
}

/// The pipeline configuration `train`, `multinode` and `serve` share:
/// [`PipelineConfig::tiny`] resized by `--batch` / `--hidden` / `--layers`
/// / `--fanout`, seeded by `--seed`, with the tiers of [`with_tiers`].
fn pipeline_config(
    flags: &HashMap<String, String>,
    fw: Framework,
    model: ModelKind,
) -> Result<PipelineConfig, String> {
    let layers: usize = positive(flags, "layers", 2)?;
    let fanout: usize = num(flags, "fanout", 10);
    let cfg = PipelineConfig {
        batch_size: positive(flags, "batch", 128)?,
        hidden: num(flags, "hidden", 64),
        num_layers: layers,
        fanouts: vec![fanout; layers],
        ..PipelineConfig::tiny(fw, model)
    }
    .with_seed(num(flags, "seed", 0));
    with_tiers(flags, cfg)
}

/// Set `cfg`'s tiers from `--cache-rows <N>` / `--cache-mode
/// <static|clock>` / `--storage-rows <N>`; an absent flag leaves its tier
/// off. A `--cache-mode` without `--cache-rows`, and either row count
/// for a framework that gathers from host memory, are refused by name:
/// they would configure nothing.
fn with_tiers(
    flags: &HashMap<String, String>,
    cfg: PipelineConfig,
) -> Result<PipelineConfig, String> {
    if !cfg.framework.uses_dsm() {
        if let Some(key) = ["cache-rows", "storage-rows"]
            .into_iter()
            .find(|k| flags.contains_key(*k))
        {
            return Err(format!(
                "--{key} needs --framework wholegraph: {} gathers features \
                 from host memory, which has no tiers",
                cfg.framework.name()
            ));
        }
    }
    let rows = |key: &str| {
        flags.get(key).map_or(Ok(0), |v| {
            v.parse()
                .map_err(|_| format!("--{key} expects a row count, got {v}"))
        })
    };
    let mode = match flags.get("cache-mode") {
        None => CacheMode::default(),
        Some(_) if !flags.contains_key("cache-rows") => {
            return Err("--cache-mode needs --cache-rows <N>".to_string())
        }
        Some(m) => CacheMode::parse(m)
            .ok_or_else(|| format!("--cache-mode expects static|clock, got {m}"))?,
    };
    Ok(cfg
        .with_cache(rows("cache-rows")?, mode)
        .with_storage(rows("storage-rows")?))
}

/// Report a command-line error, then the usage text, and exit 2.
fn usage_error(e: String) -> ! {
    eprintln!("{e}");
    usage();
}

fn load_or_generate(flags: &HashMap<String, String>) -> Arc<SyntheticDataset> {
    if let Some(path) = flags.get("data") {
        match load_dataset(path) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                eprintln!("failed to load {path}: {e}");
                exit(1);
            }
        }
    } else if let Some(name) = flags.get("dataset") {
        let kind = dataset_kind(name);
        let scale = num(flags, "scale", 800u64);
        let seed = num(flags, "seed", 0u64);
        Arc::new(SyntheticDataset::generate(kind, scale, seed))
    } else {
        eprintln!("need --data <file> or --dataset <kind>");
        usage();
    }
}

fn cmd_gen(flags: HashMap<String, String>) {
    let kind = dataset_kind(
        flags
            .get("dataset")
            .map(String::as_str)
            .unwrap_or_else(|| usage()),
    );
    let scale = num(&flags, "scale", 800u64);
    let seed = num(&flags, "seed", 0u64);
    let out = flags.get("out").cloned().unwrap_or_else(|| usage());
    // `--out-of-core <frac>` generates a larger-than-memory configuration:
    // heavy-tailed degree profile plus a suggested DSM residency budget
    // covering only <frac> of the feature rows.
    let ooc_budget = flags.get("out-of-core").map(|v| {
        let frac: f64 = v.parse().unwrap_or_else(|_| {
            eprintln!("--out-of-core expects a resident fraction in (0, 1], got {v}");
            usage();
        });
        if !(frac > 0.0 && frac <= 1.0) {
            eprintln!("--out-of-core expects a resident fraction in (0, 1], got {v}");
            usage();
        }
        frac
    });
    let (d, budget) = match ooc_budget {
        Some(frac) => {
            let (d, budget) = SyntheticDataset::generate_out_of_core(kind, scale, seed, frac);
            (d, Some(budget))
        }
        None => (SyntheticDataset::generate(kind, scale, seed), None),
    };
    if let Err(e) = save_dataset(&d, &out) {
        eprintln!("failed to save {out}: {e}");
        exit(1);
    }
    println!(
        "wrote {out}: {} stand-in at 1/{scale} — {} nodes, {} edges, {} features, {} classes",
        kind.name(),
        d.num_nodes(),
        d.num_edges(),
        d.feature_dim,
        d.num_classes
    );
    if let Some(budget) = budget {
        println!(
            "out-of-core: keep {budget} of {} feature rows DSM-resident — train with \
             `--storage-rows {budget}`",
            d.num_nodes()
        );
    }
}

fn cmd_info(flags: HashMap<String, String>) {
    let d = load_or_generate(&flags);
    println!("dataset: {} (scale 1/{})", d.kind.name(), d.scale);
    println!("  nodes: {}", d.num_nodes());
    println!("  edges: {} (stored, symmetrized)", d.num_edges());
    println!("  avg degree: {:.1}", d.graph.avg_degree());
    println!("  max degree: {}", d.graph.max_degree());
    println!("  features: {} (f32)", d.feature_dim);
    println!("  classes: {}", d.num_classes);
    println!(
        "  splits: {} train / {} val / {} test",
        d.train.len(),
        d.val.len(),
        d.test.len()
    );
    println!("  structure bytes: {}", d.graph.structure_bytes());
}

fn cmd_train(flags: HashMap<String, String>) {
    let dataset = load_or_generate(&flags);
    let fw = framework(
        flags
            .get("framework")
            .map(String::as_str)
            .unwrap_or("wholegraph"),
    );
    let model = model_kind(flags.get("model").map(String::as_str).unwrap_or("sage"));
    let epochs: u64 = num(&flags, "epochs", 5);
    let gpus: u32 = positive(&flags, "gpus", 8).unwrap_or_else(|e| usage_error(e));
    let exec = if flags.contains_key("overlap") {
        ExecMode::Overlapped
    } else {
        ExecMode::Serial
    };
    let cfg = pipeline_config(&flags, fw, model)
        .unwrap_or_else(|e| usage_error(e))
        .with_exec(exec);

    let machine = Machine::new(MachineConfig::dgx_like(gpus));
    let cache_desc = match cfg.cache.rows {
        0 => String::new(),
        rows => format!(", {} cache of {rows} rows/device", cfg.cache.mode.as_str()),
    };
    let storage_desc = match cfg.storage.budget_rows {
        0 => String::new(),
        rows => format!(", out-of-core tier with {rows} resident rows"),
    };
    println!(
        "training {} with {} on {} ({} GPUs simulated, {} executor{cache_desc}{storage_desc})",
        model.name(),
        fw.name(),
        dataset.kind.name(),
        gpus,
        exec.name()
    );
    let trace_path = flags.get("trace").cloned();
    if trace_path.is_some() {
        wg_trace::enable_all();
    }
    let mut pipe = match Pipeline::new(machine, dataset, cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipeline setup failed: {e}");
            exit(1);
        }
    };
    for epoch in 0..epochs {
        let r = pipe.train_epoch(epoch);
        let val = pipe.evaluate(&pipe.dataset().val.clone());
        println!(
            "epoch {epoch}: loss {:.4}  val-acc {:5.1}%  epoch {}  (sample {} | gather {} | train {} | comm {})",
            r.loss,
            val * 100.0,
            r.epoch_time,
            r.sample_time,
            r.gather_time,
            r.train_time,
            r.comm_time
        );
        if r.storage_time > SimTime::ZERO {
            println!(
                "  storage tier: {}; blocking {} inside gather, exposed {} after prefetch overlap",
                r.storage_io, r.storage_time, r.storage_exposed_time
            );
        }
        let occ = r.occupancy;
        println!(
            "  gpu0 occupancy: {:.1}% busy ({} busy / {} idle; sampling {}+{} | gather {}+{} | train {}+{} | comm {}+{})",
            occ.utilization() * 100.0,
            occ.busy,
            occ.idle,
            occ.sampling.busy,
            occ.sampling.idle,
            occ.gather.busy,
            occ.gather.idle,
            occ.training.busy,
            occ.training.idle,
            occ.comm.busy,
            occ.comm.idle
        );
    }
    let test = pipe.evaluate(&pipe.dataset().test.clone());
    println!("test accuracy: {:.1}%", test * 100.0);
    if let Some(path) = trace_path {
        wg_trace::disable_all();
        if let Err(e) = wholegraph::observability::write_chrome_trace(&path, pipe.machine()) {
            eprintln!("failed to write trace {path}: {e}");
            exit(1);
        }
        let snap = wg_trace::metrics::snapshot();
        println!(
            "chrome trace written to {path} ({} metric series; load in chrome://tracing or ui.perfetto.dev)",
            snap.counters.len() + snap.gauges.len() + snap.histograms.len()
        );
    }
}

/// Parse `--compress topk:<frac>` / `--delayed-agg [<period>]` into a
/// [`SyncConfig`].
fn sync_config(flags: &HashMap<String, String>) -> Result<SyncConfig, String> {
    let mut sync = SyncConfig::default();
    if let Some(spec) = flags.get("compress") {
        match spec.strip_prefix("topk:").map(str::parse::<f64>) {
            Some(Ok(frac)) if frac > 0.0 && frac <= 1.0 => sync.compress_topk = Some(frac),
            _ => {
                return Err(format!(
                    "--compress expects topk:<frac in (0,1]>, got {spec}"
                ))
            }
        }
    }
    // Bare `--delayed-agg` defaults to syncing every 4th wave.
    match flags.get("delayed-agg").map(String::as_str) {
        None => {}
        Some("true") => sync.delayed_agg_period = 4,
        Some(_) => sync.delayed_agg_period = positive(flags, "delayed-agg", 4)?,
    }
    Ok(sync)
}

fn cmd_multinode(flags: HashMap<String, String>) {
    let dataset = load_or_generate(&flags);
    let fw = framework(
        flags
            .get("framework")
            .map(String::as_str)
            .unwrap_or("wholegraph"),
    );
    let model = model_kind(flags.get("model").map(String::as_str).unwrap_or("sage"));
    let nodes: u32 = positive(&flags, "nodes", 4).unwrap_or_else(|e| usage_error(e));
    let gpus: u32 = positive(&flags, "gpus", 8).unwrap_or_else(|e| usage_error(e));
    let epochs: u64 = num(&flags, "epochs", 3);
    let pipe_cfg = pipeline_config(&flags, fw, model).unwrap_or_else(|e| usage_error(e));
    let sync = sync_config(&flags).unwrap_or_else(|e| usage_error(e));
    let mode = if let Some(f) = sync.compress_topk {
        format!("top-k {:.0}% compressed sync", f * 100.0)
    } else if sync.delayed_agg_period > 1 {
        format!(
            "delayed aggregation every {} waves",
            sync.delayed_agg_period
        )
    } else {
        "full per-wave sync".to_string()
    };
    let cfg = MultiNodeConfig::new(nodes).with_gpus(gpus).with_sync(sync);
    let trace_path = flags.get("trace").cloned();
    if trace_path.is_some() {
        wg_trace::enable_all();
    }
    let mut mn = match MultiNode::new(dataset, pipe_cfg, cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cluster setup failed: {e}");
            exit(1);
        }
    };
    let q = mn.plan().quality();
    println!(
        "multi-node {} x {} GPUs on {} ({} with {}; edge cut {:.1}%, {} boundary nodes)",
        nodes,
        gpus,
        mn.pipeline(0).dataset().kind.name(),
        model.name(),
        mode,
        q.cut_fraction * 100.0,
        q.boundary_nodes
    );
    for epoch in 0..epochs {
        let r = mn.train_epoch(epoch);
        let val = mn.evaluate(&mn.pipeline(0).dataset().val.clone());
        let halo_bytes: u64 = r.per_node.iter().map(|n| n.halo_bytes).sum();
        println!(
            "epoch {epoch}: loss {:.4}  val-acc {:5.1}%  epoch {}  ({} iters / {} waves; sync {} over {} B; halo {} B)",
            r.loss,
            val * 100.0,
            r.epoch_time,
            r.executed_iterations,
            r.waves,
            r.sync_time,
            r.sync_bytes,
            halo_bytes
        );
        for n in &r.per_node {
            let Some(rep) = n.report else { continue };
            println!(
                "  node {}: epoch {}  ({} iters; sample {} | gather {} | train {} | comm {}; halo {} rows)",
                n.node,
                rep.epoch_time,
                n.iterations,
                rep.sample_time,
                rep.gather_time,
                rep.train_time,
                rep.comm_time,
                n.halo_rows
            );
        }
    }
    let test = mn.evaluate(&mn.pipeline(0).dataset().test.clone());
    println!("test accuracy: {:.1}%", test * 100.0);
    if let Some(path) = trace_path {
        wg_trace::disable_all();
        let machines = mn.machines();
        if let Err(e) = wholegraph::observability::write_cluster_chrome_trace(&path, &machines) {
            eprintln!("failed to write trace {path}: {e}");
            exit(1);
        }
        println!(
            "cluster chrome trace written to {path} (one process per node; load in chrome://tracing or ui.perfetto.dev)"
        );
    }
}

fn cmd_serve(flags: HashMap<String, String>) {
    use wg_serve::{ArrivalProcess, ServeConfig, ServeEngine, TrafficConfig};

    let dataset = load_or_generate(&flags);
    let model = model_kind(flags.get("model").map(String::as_str).unwrap_or("sage"));
    let warmup: u64 = num(&flags, "epochs", 1);
    let gpus: u32 = positive(&flags, "gpus", 8).unwrap_or_else(|e| usage_error(e));
    let seed: u64 = num(&flags, "seed", 0);
    let cfg =
        pipeline_config(&flags, Framework::WholeGraph, model).unwrap_or_else(|e| usage_error(e));
    let queue_capacity = positive(&flags, "queue-cap", 4096).unwrap_or_else(|e| usage_error(e));

    let rate_qps: f64 = num(&flags, "rate", 10_000.0);
    let burst: usize = num(&flags, "burst", 0);
    let process = if burst > 1 {
        ArrivalProcess::Bursty { rate_qps, burst }
    } else {
        ArrivalProcess::Poisson { rate_qps }
    };
    let traffic_cfg = TrafficConfig {
        requests: num(&flags, "requests", 2000),
        process,
        zipf_s: num(&flags, "zipf", 1.1),
        num_nodes: dataset.num_nodes() as u64,
        seed: seed ^ 0x5e21,
        deadline: flags.get("deadline-us").map(|v| match v.parse::<f64>() {
            Ok(us) => SimTime::from_micros(us),
            Err(_) => {
                eprintln!("--deadline-us expects microseconds, got {v}");
                usage();
            }
        }),
    };
    let serve_cfg = if flags.contains_key("sequential") {
        ServeConfig {
            queue_capacity,
            ..ServeConfig::sequential()
        }
    } else {
        ServeConfig {
            queue_capacity,
            ..ServeConfig::coalesced(
                num(&flags, "max-batch", 64),
                SimTime::from_micros(num(&flags, "max-delay-us", 1000.0)),
            )
        }
    };

    let machine = Machine::new(MachineConfig::dgx_like(gpus));
    let cache_desc = match cfg.cache.rows {
        0 => String::new(),
        rows => format!(", {} cache of {rows} rows/device", cfg.cache.mode.as_str()),
    };
    println!(
        "serving {} on {} ({} GPUs simulated{cache_desc}); {} requests at {} qps, zipf {}",
        model.name(),
        dataset.kind.name(),
        gpus,
        traffic_cfg.requests,
        rate_qps,
        traffic_cfg.zipf_s,
    );
    let trace_path = flags.get("trace").cloned();
    if trace_path.is_some() {
        wg_trace::enable_all();
    }
    let mut pipe = match Pipeline::new(machine, dataset, cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipeline setup failed: {e}");
            exit(1);
        }
    };
    for epoch in 0..warmup {
        let r = pipe.train_epoch(epoch);
        println!("warmup epoch {epoch}: loss {:.4}", r.loss);
    }
    let traffic = traffic_cfg.generate();
    let report = ServeEngine::new(serve_cfg).run(&mut pipe, &traffic);
    let fmt_lat = |t: Option<SimTime>| match t {
        Some(t) => format!("{:.0} us", t.as_micros()),
        None => "n/a".to_string(),
    };
    println!(
        "served {}/{} requests ({} shed, {} expired) in {} batches: {:.0} qps sustained",
        report.admitted,
        report.offered,
        report.shed,
        report.expired,
        report.batches,
        report.qps()
    );
    println!(
        "  latency p50 {} | p99 {}  (dedup factor {:.2}; sample {} | gather {} | forward {})",
        fmt_lat(report.p50()),
        fmt_lat(report.p99()),
        report.dedup_factor(),
        report.sample_time,
        report.gather_time,
        report.compute_time
    );
    if report.storage_time > SimTime::ZERO {
        println!(
            "  storage tier: {}; blocking {} inside gather",
            report.storage_io, report.storage_time
        );
    }
    if let Some(path) = trace_path {
        wg_trace::disable_all();
        if let Err(e) = wholegraph::observability::write_chrome_trace(&path, pipe.machine()) {
            eprintln!("failed to write trace {path}: {e}");
            exit(1);
        }
        let snap = wg_trace::metrics::snapshot();
        // The serve.latency_us histogram's interpolated quantiles sanity-
        // check the exact ones above (satellite: HistogramSnapshot::quantile).
        if let Some(h) = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve.latency_us")
        {
            println!(
                "  histogram-estimated p50 {:.0} us | p99 {:.0} us (from {} observations)",
                h.p50().unwrap_or(0.0),
                h.p99().unwrap_or(0.0),
                h.count
            );
        }
        println!(
            "chrome trace written to {path} ({} metric series; load in chrome://tracing or ui.perfetto.dev)",
            snap.counters.len() + snap.gauges.len() + snap.histograms.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = parse_flags(rest).unwrap_or_else(|e| usage_error(e));
    match cmd.as_str() {
        "gen" => cmd_gen(flags),
        "info" => cmd_info(flags),
        "train" => cmd_train(flags),
        "multinode" => cmd_multinode(flags),
        "serve" => cmd_serve(flags),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_takes_usage_flags_and_rejects_typos() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags = parse_flags(&args(&["--epochs", "2", "--overlap", "--gpus", "4"])).unwrap();
        assert_eq!(flags["epochs"], "2");
        assert_eq!(flags["overlap"], "true");
        assert_eq!(flags["gpus"], "4");
        // A typo, and a strict prefix of a real flag, are both refused by name.
        for typo in ["--overlapp", "--cache", "--"] {
            let err = parse_flags(&args(&["--epochs", "2", typo])).unwrap_err();
            assert_eq!(err, format!("unknown flag: {typo}"));
        }
        assert!(parse_flags(&args(&["epochs"])).is_err());

        // Tier flags: absent means off; a mode with no row count is
        // refused naming the flag rather than dropped.
        let tiny = || PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
        let tiers = |a: &[&str]| with_tiers(&parse_flags(&args(a)).unwrap(), tiny());
        let off = tiers(&[]).unwrap();
        assert_eq!((off.cache, off.storage), (tiny().cache, tiny().storage));
        let on = [
            "--cache-rows",
            "8",
            "--cache-mode",
            "clock",
            "--storage-rows",
            "9",
        ];
        let on = tiers(&on).unwrap();
        assert_eq!((on.cache.rows, on.cache.mode), (8, CacheMode::Clock));
        assert_eq!(on.storage.budget_rows, 9);
        let err = tiers(&["--cache-mode", "clock"]).unwrap_err();
        assert!(
            err.contains("--cache-mode") && err.contains("--cache-rows"),
            "{err}"
        );
        let err = tiers(&["--cache-rows", "8", "--cache-mode", "lru"]).unwrap_err();
        assert!(err.contains("--cache-mode"), "{err}");

        // The baselines gather from host memory: a tier flag there is
        // refused naming it, not announced and then ignored.
        for fw in [Framework::Dgl, Framework::Pyg] {
            let host = |a: &[&str]| {
                let cfg = PipelineConfig::tiny(fw, ModelKind::Gcn);
                with_tiers(&parse_flags(&args(a)).unwrap(), cfg)
            };
            for key in ["--cache-rows", "--storage-rows"] {
                let err = host(&[key, "8"]).unwrap_err();
                assert!(err.starts_with(key) && err.contains(fw.name()), "{err}");
            }
            assert_eq!(host(&[]).unwrap().cache, tiny().cache);
        }
    }

    #[test]
    fn zero_counts_are_refused_naming_the_flag() {
        let flags = |a: &[&str]| parse_flags(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let (fw, model) = (Framework::WholeGraph, ModelKind::Gcn);
        for key in ["batch", "layers"] {
            let f = flags(&[&format!("--{key}"), "0"]).unwrap();
            let err = pipeline_config(&f, fw, model).unwrap_err();
            assert!(err.starts_with(&format!("--{key} ")), "{err}");
        }
        for key in ["gpus", "nodes", "queue-cap"] {
            let f = flags(&[&format!("--{key}"), "0"]).unwrap();
            let err = positive::<u32>(&f, key, 1).unwrap_err();
            assert!(err.starts_with(&format!("--{key} ")), "{err}");
            let f = flags(&[&format!("--{key}"), "-3"]).unwrap();
            assert!(positive::<usize>(&f, key, 1).is_err());
        }
        let err = sync_config(&flags(&["--delayed-agg", "0"]).unwrap()).unwrap_err();
        assert!(err.starts_with("--delayed-agg "), "{err}");

        // Absent flags keep their defaults; positive values pass through.
        let f = flags(&["--batch", "7", "--layers", "3", "--delayed-agg", "2"]).unwrap();
        let cfg = pipeline_config(&f, fw, model).unwrap();
        assert_eq!(
            (cfg.batch_size, cfg.num_layers, cfg.fanouts.len()),
            (7, 3, 3)
        );
        assert_eq!(sync_config(&f).unwrap().delayed_agg_period, 2);
        assert_eq!(positive::<u32>(&f, "gpus", 8), Ok(8));
        let bare = flags(&["--delayed-agg"]).unwrap();
        assert_eq!(sync_config(&bare).unwrap().delayed_agg_period, 4);
    }
}
