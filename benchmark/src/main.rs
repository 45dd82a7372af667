//! `wg-benchmark` — the repository's end-to-end benchmark. See README.md
//! beside this crate's manifest and BENCHMARK.json at the repository root.
//!
//! ```text
//! wg-benchmark run --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out runs.jsonl]
//! wg-benchmark compare <a.jsonl> <b.jsonl>
//! wg-benchmark manifest
//! ```

mod alloc;
mod common;
mod compare;
mod json;
mod metrics;
mod replay;
mod span;
mod speed;
mod stats;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use json::Value;
use metrics::{Ledger, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the traced pass writes Chrome traces and the out-of-core tier
/// spills, relative to the working directory (the checkout root).
pub const OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "all".to_string(),
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => run.workload = value.to_string(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => run.out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload != "all" && metrics::workload(&run.workload).is_none() {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    Ok(run)
}

/// Pin everything the environment could otherwise change between two
/// runs: the pool width (min(cores, 2) — the widest pool every box this
/// runs on has; host-clock numbers are taken under `rayon::run_sequential`
/// and the pool serves the identity checks and the `pool.speedup.*`
/// ratios, see the README's thread policy), and a spill directory inside
/// the checkout. Returns the pool width and the core count.
fn pin_environment() -> std::io::Result<(usize, usize)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(2);
    std::env::set_var("WG_THREADS", threads.to_string());
    std::env::remove_var("RAYON_NUM_THREADS");
    let tmp = std::path::Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", std::fs::canonicalize(tmp)?);
    Ok((rayon::init_threads(threads), cores))
}

fn run_one(name: &str, args: &RunArgs, host: (usize, usize)) -> (Ledger, common::Tally) {
    use workloads::{multinode, serve, train};
    println!(
        "== {name}  seed {}  {} s  {}  threads {} cores {}",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        host.0,
        host.1
    );
    let (ledger, tally) = match (name, args.trace) {
        ("train_paper", false) => train::run_e2e(&train::TRAIN_PAPER, args.seed, args.seconds),
        ("train_input", false) => train::run_e2e(&train::TRAIN_INPUT, args.seed, args.seconds),
        ("serve_zipf", false) => serve::run_e2e(args.seed, args.seconds),
        ("multinode_4", false) => multinode::run_e2e(args.seed, args.seconds),
        ("train_paper", true) => train::run_traced(&train::TRAIN_PAPER, args.seed, host),
        ("train_input", true) => train::run_traced(&train::TRAIN_INPUT, args.seed, host),
        ("serve_zipf", true) => serve::run_traced(args.seed, host),
        ("multinode_4", true) => multinode::run_traced(args.seed, host),
        _ => unreachable!("workload names are validated at parse time"),
    };
    for (m, v) in ledger.rows() {
        println!("{:<32} {:>18.6} {}", m.name, v, m.unit);
    }
    println!(
        "ops {}  ops_failed {}  correct {}",
        tally.attempted,
        tally.failed,
        tally.correct()
    );
    (ledger, tally)
}

fn result_line(ledger: &Ledger, tally: &common::Tally) -> Value {
    Value::obj([
        ("correct", Value::from(tally.correct())),
        ("attempted", Value::from(tally.attempted as f64)),
        ("failed", Value::from(tally.failed as f64)),
        ("metrics", ledger.to_json()),
    ])
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let host = pin_environment().map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut log = match &args.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };
    let mut last = None;
    for name in names {
        let (ledger, tally) = run_one(name, &args, host);
        let result = result_line(&ledger, &tally);
        if let Some(log) = &mut log {
            let record = Value::obj([
                ("workload", Value::from(name)),
                ("seed", Value::from(args.seed as f64)),
                ("trace", Value::from(args.trace)),
                ("threads", Value::from(host.0 as f64)),
                ("cores", Value::from(host.1 as f64)),
                ("result", result.clone()),
            ]);
            writeln!(log, "{record}").map_err(|e| format!("--out: {e}"))?;
        }
        last = Some(result);
    }
    // The driver reads the last line of standard output.
    println!("{}", last.expect("at least one workload ran"));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("manifest") => {
            println!("{}", compare::pretty(&metrics::manifest()));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: wg-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out F] | compare A B | manifest".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("wg-benchmark: {e}");
        ExitCode::from(2)
    })
}
