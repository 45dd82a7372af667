//! Table I — UM vs GPUDirect P2P access latency.
//!
//! Reproduces the paper's pointer-chase experiment: one thread walks a
//! dependency chain of random addresses across a distributed allocation of
//! 8–128 GB (logical); every access is charged the mode's dependent-load
//! latency. Paper values are printed beside the measured ones.

use wg_bench::{banner, Table};
use wg_mem::probe::pointer_chase;
use wg_sim::cost::AccessMode;
use wg_sim::CostModel;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Table I", "UM and GPUDirect P2P memory access latency");
    let model = CostModel::dgx_a100();
    const GB: u64 = 1 << 30;
    // Paper Table I, in µs.
    let paper = [
        (8u64, 20.8, 1.35),
        (16, 29.6, 1.37),
        (32, 32.5, 1.43),
        (64, 35.3, 1.51),
        (128, 35.8, 1.56),
    ];

    let mut t = Table::new(&["size (GB)", "UM (us)", "UM paper", "P2P (us)", "P2P paper"]);
    for (gb, um_paper, p2p_paper) in paper {
        // 100K dependent accesses as in the paper; the walked array is a
        // scaled 64K-row cycle, the latency model sees the logical size.
        let um = pointer_chase(
            &model,
            AccessMode::UnifiedMemory,
            gb * GB,
            1 << 16,
            100_000,
            gb,
        );
        let p2p = pointer_chase(
            &model,
            AccessMode::PeerAccess,
            gb * GB,
            1 << 16,
            100_000,
            gb,
        );
        t.row(&[
            gb.to_string(),
            format!("{:.1}", um.avg_latency.as_micros()),
            format!("{um_paper:.1}"),
            format!("{:.2}", p2p.avg_latency.as_micros()),
            format!("{p2p_paper:.2}"),
        ]);
    }
    t.print();
    println!("\nP2P access is handled by hardware over NVLink (~1.4 us);");
    println!("UM takes a page fault serviced by the host (~20-36 us).");
}
