//! The four workloads. Each has an untraced pass (`run_e2e`, the
//! end-to-end metrics) and a traced pass (`run_traced`, the per-layer
//! ledger); both build their inputs from the run seed alone.

pub mod multinode;
pub mod serve;
pub mod trace;
pub mod train;
