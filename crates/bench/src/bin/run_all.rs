//! Run every table/figure harness in sequence (convenience driver for
//! regenerating EXPERIMENTS.md). Equivalent to invoking each binary
//! individually; see README for the list.

use std::process::Command;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    let bins = [
        "table1_latency",
        "table2_datasets",
        "table3_accuracy",
        "table4_memory",
        "table5_epoch_time",
        "fig7_convergence",
        "fig8_bandwidth",
        "fig9_breakdown",
        "fig10_gather",
        "fig11_layers",
        "fig12_utilization",
        "fig13_scaling",
        "ablation_storage",
        "sweep_hyperparams",
        "wallclock",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n################ {bin} ################\n");
        let status = Command::new(dir.join(bin)).status().unwrap_or_else(|e| {
            panic!("failed to launch {bin}: {e} (build with --release -p wg-bench first)")
        });
        if !status.success() {
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments completed.");
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
