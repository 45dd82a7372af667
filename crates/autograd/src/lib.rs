//! # wg-autograd — tape-based reverse-mode automatic differentiation
//!
//! WholeGraph "makes use of the automatic differentiation module in
//! PyTorch"; this crate is the equivalent substrate for our reproduction: a
//! small define-by-run tape over [`wg_tensor`] with exactly the ops the
//! three GNN models (GCN, GraphSage, GAT) need — dense linear algebra,
//! activations, dropout, and the sparse g-SpMM / g-SDDMM / edge-softmax
//! message-passing ops of §III-C4.
//!
//! * [`params`] — named parameter store with gradient slots (the
//!   data-parallel AllReduce of §III-D averages these slots in
//!   `wholegraph::multinode::GradSync`);
//! * [`tape`] — the autograd tape: forward ops record their inputs, and
//!   [`tape::Tape::backward`] walks the tape in reverse accumulating
//!   gradients into the parameter store;
//! * [`optim`] — the [`Optimizer`] trait and Adam.

#![forbid(unsafe_code)]

pub mod optim;
pub mod params;
pub mod tape;
pub mod workspace;

pub use optim::{Adam, Optimizer};
pub use params::{ParamId, Params};
pub use tape::{NodeId, Tape};
pub use workspace::Workspace;
