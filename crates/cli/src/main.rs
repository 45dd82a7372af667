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
//! Argument parsing is deliberately dependency-free: every flag takes a
//! value (`--flag value`).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;

use wg_graph::io::{load_dataset, save_dataset};
use wg_graph::{DatasetKind, SyntheticDataset};
use wholegraph::prelude::*;

/// The usage text — also the flag list: [`parse_flags`] accepts exactly
/// the `--flags` a subcommand's own entry names.
const USAGE: &str = "usage:\n  wg gen   --dataset <products|papers100m|friendster|uk> --scale <N> --out <file> [--seed <N>]\n           [--out-of-core <resident-frac>]   (heavy-tailed profile; prints the resident-row budget)\n  wg train [--data <file> | --dataset <kind> --scale <N>] [--model <gcn|sage|gat>]\n           [--framework <wholegraph|dgl|pyg>] [--epochs <N>] [--batch <N>] [--hidden <N>]\n           [--layers <N>] [--fanout <N>] [--gpus <N>] [--seed <N>]\n           [--cache-rows <N>] [--cache-mode <static|clock>] [--storage-rows <N>]\n           [--trace <out.json>]\n  wg multinode --nodes <N>\n           [--data <file> | --dataset <kind> --scale <N>] [--model <gcn|sage|gat>]\n           [--framework <wholegraph|dgl|pyg>] [--epochs <N>] [--batch <N>] [--hidden <N>]\n           [--layers <N>] [--fanout <N>] [--gpus <per-node>] [--seed <N>]\n           [--cache-rows <N>] [--cache-mode <static|clock>] [--storage-rows <N>]\n           [--trace <out.json>]\n  wg serve [--data <file> | --dataset <kind> --scale <N>] [--model <gcn|sage|gat>]\n           [--epochs <warmup-epochs>] [--batch <N>] [--hidden <N>] [--layers <N>]\n           [--fanout <N>] [--gpus <N>] [--seed <N>]\n           [--requests <N>] [--rate <qps>] [--burst <N>] [--zipf <s>]\n           [--max-batch <N>] [--max-delay-us <f>] [--queue-cap <N>]\n           [--deadline-us <f>] [--cache-rows <N>] [--cache-mode <static|clock>]\n           [--storage-rows <N>] [--trace <out.json>]\n  wg info  [--data <file> | --dataset <kind> --scale <N> [--seed <N>]]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

/// Subcommand `cmd`'s entry in [`USAGE`]: its `wg <cmd>` line up to the
/// next subcommand's.
fn usage_of(cmd: &str) -> Option<&'static str> {
    let entry = &USAGE[USAGE.find(&format!("\n  wg {cmd} "))? + 1..];
    let end = entry[1..].find("\n  wg ").map_or(entry.len(), |i| i + 1);
    Some(&entry[..end])
}

/// Whether `flag` (with its `--`) is named, as a whole word, in `text`.
fn names_flag(text: &str, flag: &str) -> bool {
    text.match_indices(flag).any(|(i, _)| {
        !text[i + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

/// Split `args` of subcommand `cmd` into flag → value pairs. Anything
/// that is not a flag `cmd`'s usage entry names is an error naming it: a
/// typo'd `--cache-row`, or another subcommand's flag such as `wg serve
/// --framework pyg`, must not silently run the default. So is a flag with
/// no value (end of args, or followed by another flag): every flag takes
/// one, and `wg train --trace` must not write a trace to a file named
/// `true`.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let text = usage_of(cmd).ok_or_else(|| format!("unknown command: {cmd}"))?;
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let k = &args[i];
        if !k.starts_with("--") {
            return Err(format!("bad argument: {k}"));
        }
        if !names_flag(text, k) {
            return Err(format!("unknown flag for wg {cmd}: {k}"));
        }
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                if out.insert(k[2..].to_string(), v.clone()).is_some() {
                    return Err(format!("{k} given twice"));
                }
            }
            _ => return Err(format!("{k} expects a value")),
        }
        i += 2;
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

/// `--<key> <f>` for a finite real that must be above 0 when `strict`
/// and at least 0 otherwise, or `default` when the flag is absent. A zero
/// rate would panic in the traffic generator and a negative delay would
/// launch a batch before its head request arrives, so they are refused
/// by name here.
fn real(
    flags: &HashMap<String, String>,
    key: &str,
    default: f64,
    strict: bool,
) -> Result<f64, String> {
    let Some(v) = flags.get(key) else {
        return Ok(default);
    };
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && (x > 0.0 || (!strict && x == 0.0)) => Ok(x),
        _ if strict => Err(format!("--{key} expects a finite number above 0, got {v}")),
        _ => Err(format!(
            "--{key} expects a finite number of at least 0, got {v}"
        )),
    }
}

/// `--scale <N>` (default 800): the stand-in is 1/N of the real graph,
/// so 0 is refused by name rather than left to the generator's assertion.
fn scale(flags: &HashMap<String, String>) -> Result<u64, String> {
    positive(flags, "scale", 800)
}

/// The pipeline configuration `train`, `multinode` and `serve` share:
/// [`PipelineConfig::tiny`] resized by `--batch` / `--hidden` / `--layers`
/// / `--fanout`, seeded by `--seed`, with the tiers of [`with_tiers`].
/// A zero width or fanout — a model of constant outputs, blocks with no
/// edges — and a GAT width its heads do not divide are refused by name.
fn pipeline_config(
    flags: &HashMap<String, String>,
    fw: Framework,
    model: ModelKind,
) -> Result<PipelineConfig, String> {
    let layers: usize = positive(flags, "layers", 2)?;
    let fanout: usize = positive(flags, "fanout", 10)?;
    let cfg = PipelineConfig {
        batch_size: positive(flags, "batch", 128)?,
        hidden: positive(flags, "hidden", 64)?,
        num_layers: layers,
        fanouts: vec![fanout; layers],
        ..PipelineConfig::tiny(fw, model)
    }
    .with_seed(num(flags, "seed", 0));
    if model == ModelKind::Gat && !cfg.hidden.is_multiple_of(cfg.heads) {
        return Err(format!(
            "--hidden {} must be a multiple of the {} GAT heads",
            cfg.hidden, cfg.heads
        ));
    }
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
        let scale = scale(flags).unwrap_or_else(|e| usage_error(e));
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
    let scale = scale(&flags).unwrap_or_else(|e| usage_error(e));
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
    let cfg = pipeline_config(&flags, fw, model).unwrap_or_else(|e| usage_error(e));

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
        "training {} with {} on {} ({} GPUs simulated{cache_desc}{storage_desc})",
        model.name(),
        fw.name(),
        dataset.kind.name(),
        gpus
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
            snap.counters.len() + snap.histograms.len()
        );
    }
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
    let cfg = MultiNodeConfig::new(nodes).with_gpus(gpus);
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
    println!(
        "multi-node {} x {} GPUs on {} ({}; full replica per node, gradient AllReduce over IB)",
        nodes,
        gpus,
        mn.pipeline(0).dataset().kind.name(),
        model.name(),
    );
    for epoch in 0..epochs {
        let r = mn.train_epoch(epoch);
        let val = mn.evaluate(&mn.pipeline(0).dataset().val.clone());
        println!(
            "epoch {epoch}: loss {:.4}  val-acc {:5.1}%  epoch {}  ({} iters / {} waves; sync {} over {} B)",
            r.loss,
            val * 100.0,
            r.epoch_time,
            r.executed_iterations,
            r.waves,
            r.sync_time,
            r.sync_bytes,
        );
        for n in &r.per_node {
            let Some(rep) = n.report else { continue };
            println!(
                "  node {}: epoch {}  ({} iters; sample {} | gather {} | train {} | comm {})",
                n.node,
                rep.epoch_time,
                n.iterations,
                rep.sample_time,
                rep.gather_time,
                rep.train_time,
                rep.comm_time,
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

    let real_arg = |key, default, strict| {
        real(&flags, key, default, strict).unwrap_or_else(|e| usage_error(e))
    };
    let rate_qps = real_arg("rate", 10_000.0, true);
    let burst: usize = num(&flags, "burst", 0);
    let process = if burst > 1 {
        ArrivalProcess::Bursty { rate_qps, burst }
    } else {
        ArrivalProcess::Poisson { rate_qps }
    };
    let traffic_cfg = TrafficConfig {
        requests: num(&flags, "requests", 2000),
        process,
        zipf_s: real_arg("zipf", 1.1, false),
        num_nodes: dataset.num_nodes() as u64,
        seed: seed ^ 0x5e21,
        deadline: flags
            .contains_key("deadline-us")
            .then(|| SimTime::from_micros(real_arg("deadline-us", 0.0, false))),
    };
    let max_batch = positive(&flags, "max-batch", 64).unwrap_or_else(|e| usage_error(e));
    let max_delay = SimTime::from_micros(real_arg("max-delay-us", 1000.0, false));
    let serve_cfg = ServeConfig {
        max_batch,
        max_delay,
        queue_capacity,
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
            snap.counters.len() + snap.histograms.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = parse_flags(cmd, rest).unwrap_or_else(|e| usage_error(e));
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

    /// A command line split at whitespace.
    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_flags_takes_usage_flags_and_rejects_typos() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags = parse_flags("serve", &words("--epochs 2 --max-batch 1 --gpus 4")).unwrap();
        assert_eq!(flags["epochs"], "2");
        assert_eq!(flags["max-batch"], "1");
        assert_eq!(flags["gpus"], "4");
        // A typo, and a strict prefix of a real flag, are both refused by name.
        for typo in ["--max-batchh", "--cache", "--"] {
            let err = parse_flags("serve", &args(&["--epochs", "2", typo])).unwrap_err();
            assert_eq!(err, format!("unknown flag for wg serve: {typo}"));
        }
        assert!(parse_flags("train", &args(&["epochs"])).is_err());
        assert!(parse_flags("fit", &[]).is_err());

        // Tier flags: absent means off; a mode with no row count is
        // refused naming the flag rather than dropped.
        let tiny = || PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
        let tiers = |a: &[&str]| with_tiers(&parse_flags("train", &args(a)).unwrap(), tiny());
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
                with_tiers(&parse_flags("train", &args(a)).unwrap(), cfg)
            };
            for key in ["--cache-rows", "--storage-rows"] {
                let err = host(&[key, "8"]).unwrap_err();
                assert!(err.starts_with(key) && err.contains(fw.name()), "{err}");
            }
            assert_eq!(host(&[]).unwrap().cache, tiny().cache);
        }
    }

    /// A repeated flag used to let its last value win silently: `wg serve
    /// ... --rate 30000 --burst 50 --rate 100000` served at 100 000 qps.
    #[test]
    fn a_repeated_flag_is_refused_naming_it() {
        let err = parse_flags("serve", &words("--rate 30000 --burst 50 --rate 100000"));
        assert_eq!(err.unwrap_err(), "--rate given twice");
        let err = parse_flags("train", &words("--epochs 2 --epochs 2"));
        assert_eq!(err.unwrap_err(), "--epochs given twice");
    }

    #[test]
    fn zero_counts_are_refused_naming_the_flag() {
        let flags = |a: &str| parse_flags("multinode", &words(a));
        let (fw, model) = (Framework::WholeGraph, ModelKind::Gcn);
        for key in ["batch", "layers"] {
            let f = flags(&format!("--{key} 0")).unwrap();
            let err = pipeline_config(&f, fw, model).unwrap_err();
            assert!(err.starts_with(&format!("--{key} ")), "{err}");
        }
        for (cmd, key) in [
            ("train", "gpus"),
            ("multinode", "nodes"),
            ("serve", "queue-cap"),
        ] {
            let f = parse_flags(cmd, &words(&format!("--{key} 0"))).unwrap();
            let err = positive::<u32>(&f, key, 1).unwrap_err();
            assert!(err.starts_with(&format!("--{key} ")), "{err}");
            let f = parse_flags(cmd, &words(&format!("--{key} -3"))).unwrap();
            assert!(positive::<usize>(&f, key, 1).is_err());
        }

        // Absent flags keep their defaults; positive values pass through.
        let f = flags("--batch 7 --layers 3").unwrap();
        let cfg = pipeline_config(&f, fw, model).unwrap();
        assert_eq!(
            (cfg.batch_size, cfg.num_layers, cfg.fanouts.len()),
            (7, 3, 3)
        );
        assert_eq!(positive::<u32>(&f, "gpus", 8), Ok(8));
    }

    /// `--scale 0` panicked in the generator (`scale >= 1`) under `wg
    /// gen`, `train` and `info`, exiting 101.
    #[test]
    fn a_zero_scale_is_refused_naming_the_flag() {
        for cmd in ["gen", "train", "multinode", "serve", "info"] {
            let f = parse_flags(cmd, &words("--dataset products --scale 0")).unwrap();
            let err = scale(&f).unwrap_err();
            assert!(err.starts_with("--scale "), "wg {cmd}: {err}");
        }
        let f = parse_flags("info", &words("--dataset uk")).unwrap();
        assert_eq!(scale(&f), Ok(800));
    }

    /// `--hidden 0` trained a constant model to chance accuracy and
    /// exited 0.
    #[test]
    fn a_zero_hidden_width_is_refused_naming_the_flag() {
        for model in ModelKind::ALL {
            let f = parse_flags("train", &words("--hidden 0")).unwrap();
            let err = pipeline_config(&f, Framework::WholeGraph, model).unwrap_err();
            assert!(err.starts_with("--hidden "), "{err}");
        }
    }

    /// `--fanout 0` trained on blocks with no edges (GAT reached 3.8 %
    /// test accuracy) and exited 0.
    #[test]
    fn a_zero_fanout_is_refused_naming_the_flag() {
        for cmd in ["train", "multinode", "serve"] {
            let f = parse_flags(cmd, &words("--fanout 0")).unwrap();
            let err = pipeline_config(&f, Framework::WholeGraph, ModelKind::Gat).unwrap_err();
            assert!(err.starts_with("--fanout "), "wg {cmd}: {err}");
        }
        let f = parse_flags("train", &words("--fanout 3 --layers 2")).unwrap();
        let cfg = pipeline_config(&f, Framework::WholeGraph, ModelKind::Gat).unwrap();
        assert_eq!(cfg.fanouts, vec![3, 3]);
    }

    /// A GAT width its heads do not divide panicked in `GnnModel::new`
    /// ("heads must divide hidden"), exiting 101. The other models take
    /// any width.
    #[test]
    fn a_gat_width_the_heads_do_not_divide_is_refused_naming_the_flag() {
        let gat = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gat).heads;
        let f = parse_flags("train", &words(&format!("--hidden {}", gat + 1))).unwrap();
        let err = pipeline_config(&f, Framework::WholeGraph, ModelKind::Gat).unwrap_err();
        assert!(err.starts_with("--hidden "), "{err}");
        for model in [ModelKind::Gcn, ModelKind::GraphSage] {
            assert!(pipeline_config(&f, Framework::WholeGraph, model).is_ok());
        }
        let f = parse_flags("train", &words(&format!("--hidden {}", 3 * gat))).unwrap();
        let cfg = pipeline_config(&f, Framework::WholeGraph, ModelKind::Gat).unwrap();
        assert_eq!(cfg.hidden, 3 * gat);
    }

    /// `wg serve`'s real-valued knobs: a zero rate panicked in the traffic
    /// generator, a negative coalescing window let a batch launch before
    /// its head request, and `--max-batch 0` silently served one request
    /// per batch. Each is refused naming the flag.
    #[test]
    fn serve_refuses_rates_and_windows_the_engine_cannot_run() {
        let flags = |a: &str| parse_flags("serve", &words(a)).unwrap();
        for (key, bad) in [
            ("rate", "0"),
            ("rate", "-5"),
            ("rate", "inf"),
            ("rate", "NaN"),
            ("max-delay-us", "-500"),
            ("deadline-us", "-1"),
            ("zipf", "-0.5"),
            ("zipf", "NaN"),
        ] {
            let strict = key == "rate";
            let err = real(&flags(&format!("--{key} {bad}")), key, 1.0, strict).unwrap_err();
            assert!(err.starts_with(&format!("--{key} ")), "{err}");
        }
        let err = positive::<usize>(&flags("--max-batch 0"), "max-batch", 64).unwrap_err();
        assert!(err.starts_with("--max-batch "), "{err}");

        // Zero is a valid window, deadline and exponent (uniform
        // popularity); absent flags keep their defaults.
        for key in ["max-delay-us", "deadline-us", "zipf"] {
            assert_eq!(
                real(&flags(&format!("--{key} 0")), key, 1.0, false),
                Ok(0.0)
            );
        }
        assert_eq!(real(&flags("--rate 2.5"), "rate", 1.0, true), Ok(2.5));
        assert_eq!(real(&flags(""), "rate", 10_000.0, true), Ok(10_000.0));
    }

    /// Each subcommand takes the flags on its own usage entry and refuses
    /// another subcommand's by name: `wg serve` reads no `--framework`,
    /// so accepting one would serve WholeGraph whatever it names.
    #[test]
    fn each_subcommand_refuses_flags_it_does_not_read() {
        let refused = |cmd: &str, flag: &str| {
            let err = parse_flags(cmd, &words(&format!("{flag} 3"))).unwrap_err();
            assert_eq!(err, format!("unknown flag for wg {cmd}: {flag}"));
        };
        refused("serve", "--framework");
        for flag in ["--epochs", "--nodes", "--requests"] {
            refused("gen", flag);
        }
        refused("train", "--nodes");
        refused("train", "--rate");
        refused("info", "--out");
        for cmd in ["gen", "train", "multinode", "serve", "info"] {
            assert!(usage_of(cmd).unwrap().starts_with(&format!("  wg {cmd} ")));
            refused(cmd, "--overlap");
        }
        refused("multinode", "--compress");
        refused("multinode", "--delayed-agg");
        refused("serve", "--sequential");

        // `multinode` builds each replica's pipeline from train's flags.
        let train = words(
            "--dataset uk --scale 9 --model gat --framework dgl --epochs 1 --batch 8 \
             --hidden 4 --layers 1 --fanout 2 --gpus 2 --seed 5 --trace t.json",
        );
        let f = parse_flags("multinode", &train).unwrap();
        assert_eq!(f, parse_flags("train", &train).unwrap());
        // `serve` sizes its warm-up pipeline with the same shape flags.
        let shape = words("--batch 8 --hidden 4 --layers 1 --fanout 2");
        assert_eq!(parse_flags("serve", &shape).unwrap().len(), 4);
        // `info` reads the dataset flags `load_or_generate` takes.
        let data = words("--dataset uk --scale 9 --seed 5");
        assert_eq!(parse_flags("info", &data).unwrap().len(), 3);
    }

    /// Every flag takes a value. One with none — at the end of the line,
    /// or followed by another flag — is refused naming it: `wg train
    /// --trace` used to write its Chrome trace to a file named `true`.
    #[test]
    fn a_flag_with_no_value_is_refused_naming_it() {
        for (cmd, line, flag) in [
            (
                "train",
                "--dataset products --scale 3000 --epochs 1 --trace",
                "--trace",
            ),
            ("train", "--trace --epochs 1", "--trace"),
            ("serve", "--max-batch --rate 5", "--max-batch"),
            ("info", "--data", "--data"),
        ] {
            let err = parse_flags(cmd, &words(line)).unwrap_err();
            assert_eq!(err, format!("{flag} expects a value"), "wg {cmd} {line}");
        }
        // A negative number is a value, not a flag (the range checks
        // refuse it later, by name).
        let f = parse_flags("serve", &words("--max-delay-us -500")).unwrap();
        assert_eq!(f["max-delay-us"], "-500");
    }
}
