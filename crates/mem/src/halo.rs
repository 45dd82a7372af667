//! Halo (boundary-node) feature exchange for multi-node data-parallel
//! training.
//!
//! When features are partitioned *across machines* (one level above the
//! intra-node DSM of §III-B), a minibatch's input rows split into rows
//! the node owns and **halo rows** owned by a peer machine. DistGNN
//! calls these boundary vertices; fetching them is the dominant
//! cross-node traffic besides gradient AllReduce. Following the repo's
//! "caching changes cost, not values" convention, the halo fetch is
//! charged as an IB transfer in simulated time while the feature values
//! themselves still come from the local full replica — numerics are
//! unchanged, only the clock (and the counters) move.

use wg_sim::{CostModel, SimTime};

/// Accounting for one minibatch's halo exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HaloStats {
    /// Input rows in the minibatch (owned + halo).
    pub total_rows: u64,
    /// Rows owned by this machine (served from local memory).
    pub local_rows: u64,
    /// Rows owned by a peer machine (fetched over IB).
    pub halo_rows: u64,
    /// Bytes pulled over IB for the halo rows.
    pub halo_bytes: u64,
    /// Simulated IB time of the exchange. Exactly zero when there is
    /// nothing to fetch or only one machine exists — single-node
    /// execution must not be charged any IB time.
    pub time: SimTime,
}

/// Split `total_rows` minibatch input rows into local and halo parts and
/// price the halo fetch: one IB latency for the batched request plus the
/// payload over the node's aggregate IB bandwidth.
///
/// `row_bytes` is the feature row width in bytes; `nodes` the machine
/// count. With `nodes <= 1` or `halo_rows == 0` the returned time is
/// [`SimTime::ZERO`] — the N=1 bit/time identity of the multi-node
/// executor depends on this.
pub fn halo_exchange(
    model: &CostModel,
    total_rows: u64,
    halo_rows: u64,
    row_bytes: usize,
    nodes: u32,
) -> HaloStats {
    assert!(halo_rows <= total_rows, "more halo rows than input rows");
    let halo_bytes = halo_rows * row_bytes as u64;
    let time = if nodes <= 1 || halo_rows == 0 {
        SimTime::ZERO
    } else {
        SimTime::from_secs(
            model.ib_latency_s + halo_bytes as f64 / model.topology.node_ib_bandwidth(),
        )
    };
    let stats = HaloStats {
        total_rows,
        local_rows: total_rows - halo_rows,
        halo_rows,
        halo_bytes,
        time,
    };
    if halo_rows > 0 {
        wg_trace::counter!("mem.halo.rows", halo_rows as f64);
        wg_trace::counter!("mem.halo.bytes", halo_bytes as f64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_halo_is_free() {
        let m = CostModel::dgx_a100();
        let s = halo_exchange(&m, 1024, 0, 400, 1);
        assert!(s.time.is_zero());
        assert_eq!(s.local_rows, 1024);
        assert_eq!(s.halo_bytes, 0);
        // Even with nonzero halo rows, one machine pays nothing (there
        // is no peer to fetch from — the "partition" is the whole set).
        let s = halo_exchange(&m, 1024, 512, 400, 1);
        assert!(s.time.is_zero());
    }

    #[test]
    fn halo_cost_scales_with_rows() {
        let m = CostModel::dgx_a100();
        let a = halo_exchange(&m, 4096, 1024, 400, 4);
        let b = halo_exchange(&m, 4096, 2048, 400, 4);
        assert!(b.time > a.time);
        assert_eq!(b.halo_bytes, 2 * a.halo_bytes);
        // Latency floor plus bandwidth term, in the right ballpark.
        let ideal = a.halo_bytes as f64 / m.topology.node_ib_bandwidth();
        assert!(a.time.as_secs() >= ideal);
        assert!(a.time.as_secs() <= ideal + 2.0 * m.ib_latency_s);
    }

    #[test]
    fn halo_counters_accrue() {
        wg_trace::enable_metrics();
        let m = CostModel::dgx_a100();
        halo_exchange(&m, 100, 40, 8, 2);
        halo_exchange(&m, 100, 10, 8, 2);
        wg_trace::disable_all();
        let snap = wg_trace::metrics::snapshot();
        let rows = snap
            .counters
            .iter()
            .find(|(n, _)| n == "mem.halo.rows")
            .expect("halo counter interned")
            .1;
        // The registry is process-global; other tests may add too.
        assert!(rows >= 50.0, "halo rows {rows}");
    }
}
