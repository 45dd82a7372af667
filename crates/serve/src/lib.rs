//! # wg-serve — online inference over the WholeGraph DSM feature store
//!
//! The ROADMAP's north star is a production system serving predictions to
//! millions of users. This crate is that serving tier: a request-driven
//! inference engine that reuses the training pipeline's stage substrate
//! (scratch arenas, cached gather, per-node-seeded sampling) to answer
//! per-node queries with sample → gather → forward.
//!
//! The headline optimisation is **adaptive micro-batching**
//! ([`ServeConfig::coalesced`]): the engine drains the request
//! queue up to a deadline- and size-bounded window, merges the query
//! nodes of the window into one deduplicated frontier with the paper's
//! AppendUnique op ([`coalesce::Coalescer`]), runs a *single* shared
//! sample + gather + forward over it, and scatters the per-request
//! predictions back. This amortizes per-batch fixed costs and collapses
//! duplicate work on hot (Zipf-favoured) query nodes — the same
//! redundant-access amortization the paper applies to training gathers —
//! while remaining **bit-identical** to serving every request alone:
//!
//! * the sampler's per-node RNG streams are keyed on a node's *stable
//!   id* (never its batch position), and serving pins the sampling
//!   coordinates to `(SERVE_EPOCH, iteration 0)`, so a query node's
//!   sampled ego-graph is a pure function of its id;
//! * the forward pass is per-row-local (dropout off; the only
//!   `dup_count`-dependent kernel is backward-only), so a node's logits
//!   row does not depend on which other rows share the batch.
//!
//! Each completion carries an FNV-1a checksum of the request's logits
//! row as the bit-identity witness; the integration tests (and the
//! `serving_sweep` bench) compare coalesced and sequential executions
//! checksum-by-checksum.
//!
//! Around the coalescer: **admission control** (a bounded queue that
//! sheds load at capacity, with `admitted + shed == offered` accounting),
//! per-request **deadlines** (expired requests are still answered but
//! counted), and an **open-loop traffic generator** ([`traffic`]) with
//! seeded Poisson or bursty arrivals and Zipf-skewed query nodes.
//!
//! Everything is deterministic: arrivals and service are laid out on the
//! simulated clock ([`wg_sim::SimTime`]), so a (seed, config) pair fully
//! determines every latency, shed decision, and batch composition.

#![forbid(unsafe_code)]

pub mod coalesce;
pub mod engine;
pub mod request;
pub mod traffic;

pub use coalesce::Coalescer;
pub use engine::{ServeConfig, ServeEngine, ServeReport};
pub use request::{Completion, Request};
pub use traffic::{ArrivalProcess, TrafficConfig};
