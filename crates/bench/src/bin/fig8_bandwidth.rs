//! Figure 8 — random-read bandwidth of the multi-GPU distributed shared
//! memory library vs the contiguous segment size.
//!
//! Each GPU gathers 4 GB (logical) of randomly placed segments out of a
//! 128 GB distributed allocation, sweeping the segment size 4 B → 4 KB.
//! Prints AlgoBW (seen by the algorithm) and BusBW (seen by NVLink),
//! with the paper's anchor points.

use wg_bench::{banner, Table};
use wg_mem::probe::bandwidth_sweep;
use wg_sim::{CostModel, DeviceSpec};

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Figure 8", "random gather bandwidth vs segment size");
    let model = CostModel::dgx_a100();
    let spec = DeviceSpec::a100_40gb();
    let points = bandwidth_sweep(&model, &spec);

    let mut t = Table::new(&[
        "segment (B)",
        "BusBW (GB/s)",
        "AlgoBW (GB/s)",
        "paper anchor",
    ]);
    for p in &points {
        let anchor = match p.segment_bytes {
            64 => "BusBW ~181",
            128 => "BusBW ~230 (saturated)",
            512 => "AlgoBW ~260",
            _ => "",
        };
        t.row(&[
            p.segment_bytes.to_string(),
            format!("{:.1}", p.bus_gbps),
            format!("{:.1}", p.algo_gbps),
            anchor.to_string(),
        ]);
    }
    t.print();
    println!("\nBelow 64 B bandwidth is proportional to segment size; GNN");
    println!("feature rows (hundreds to thousands of bytes) saturate NVLink.");
    println!("Max AlgoBW = 300/(7/8) = 343 GB/s; max BusBW = 300 GB/s.");
}
