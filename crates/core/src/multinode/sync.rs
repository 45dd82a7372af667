//! Gradient synchronization across machine nodes (§III-D): after every
//! wave "all GPUs synchronize the computed gradients with each other
//! using the Allreduce communication".
//!
//! Per wave, the active replicas' gradients are averaged and written into
//! *every* replica, and every replica then steps — synchronized DDP.
//! Because all replicas always see identical gradients, their parameters
//! (and Adam moments) stay bitwise in lockstep.
//!
//! With a single replica the sync is a complete no-op — gradients are not
//! even read — which preserves the N=1 bit identity (summing one value can
//! still flip `-0.0` to `+0.0`).

use wg_autograd::{ParamId, Params};
use wg_sim::collective::allreduce_inter_node;
use wg_sim::{CostModel, SimTime};

/// The gradient sync: no modes, no fields. It is a type only because the
/// out-of-tree `benchmark/` package passes `SyncConfig::default()` to
/// [`MultiNodeConfig::with_sync`].
///
/// [`MultiNodeConfig::with_sync`]: crate::multinode::MultiNodeConfig::with_sync
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncConfig;

/// What one wave's sync did.
#[derive(Clone, Copy, Debug)]
pub struct WaveSync {
    /// Inter-node time charged to the participating replicas' comm.
    pub time: SimTime,
    /// Inter-node bytes each node moved this wave (ring volume).
    pub bytes: u64,
}

/// The cross-node gradient synchronizer, with its reusable scratch
/// (steady-state waves reuse warm capacity).
pub struct GradSync {
    cost: CostModel,
    nodes: u32,
    sum: Vec<f32>,
}

/// Bytes a ring collective moves per node for `payload` bytes of data.
fn ring_bytes(payload: u64, nodes: u32) -> u64 {
    if nodes <= 1 {
        return 0;
    }
    let n = nodes as f64;
    (2.0 * (n - 1.0) / n * payload as f64) as u64
}

impl GradSync {
    /// A synchronizer for `nodes` replicas.
    pub fn new(cost: CostModel, nodes: u32) -> Self {
        GradSync {
            cost,
            nodes,
            sum: Vec::new(),
        }
    }

    /// Average the gradients of the `active` replicas (the ones that ran
    /// an iteration this wave; trailing waves may have fewer) into every
    /// replica. Callers then step all replicas in lockstep.
    pub fn sync_wave(&mut self, replicas: &mut [&mut Params], active: &[usize]) -> WaveSync {
        if replicas.len() <= 1 || active.is_empty() {
            return WaveSync {
                time: SimTime::ZERO,
                bytes: 0,
            };
        }
        let ids: Vec<ParamId> = replicas[0].ids().collect();
        if active.len() == 1 {
            // Single participant: its gradients are broadcast verbatim
            // (copy, not sum/divide — `0.0 + (-0.0)` would flip sign
            // bits and break the lockstep bit-equality invariant).
            let src = active[0];
            for &id in &ids {
                self.sum.clear();
                self.sum.extend_from_slice(replicas[src].grad(id).data());
                for (k, r) in replicas.iter_mut().enumerate() {
                    if k != src {
                        r.grad_mut(id).data_mut().copy_from_slice(&self.sum);
                    }
                }
            }
        } else {
            let inv = 1.0 / active.len() as f32;
            for &id in &ids {
                let len = replicas[0].grad(id).data().len();
                self.sum.clear();
                self.sum.resize(len, 0.0);
                for &k in active {
                    for (s, g) in self.sum.iter_mut().zip(replicas[k].grad(id).data()) {
                        *s += g;
                    }
                }
                for s in self.sum.iter_mut() {
                    *s *= inv;
                }
                for r in replicas.iter_mut() {
                    r.grad_mut(id).data_mut().copy_from_slice(&self.sum);
                }
            }
        }
        let payload = replicas[0].param_bytes();
        WaveSync {
            time: allreduce_inter_node(&self.cost, payload, self.nodes),
            bytes: ring_bytes(payload, self.nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_tensor::Matrix;

    fn params_with_grad(g: &[f32]) -> Params {
        let mut p = Params::new();
        let id = p.add("w", Matrix::zeros(1, g.len()));
        // Write the gradient bits directly (accumulating into the zeroed
        // gradient would turn -0.0 into +0.0 before the test even runs).
        p.grad_mut(id).data_mut().copy_from_slice(g);
        p
    }

    fn grad(p: &Params) -> Vec<f32> {
        let id = p.ids().next().unwrap();
        p.grad(id).data().to_vec()
    }

    fn sync() -> GradSync {
        GradSync::new(CostModel::dgx_a100(), 2)
    }

    #[test]
    fn single_replica_sync_is_a_complete_noop() {
        let mut p = params_with_grad(&[1.0, -0.0, 3.0]);
        let before = grad(&p);
        let before_bits: Vec<u32> = before.iter().map(|v| v.to_bits()).collect();
        let mut s = GradSync::new(CostModel::dgx_a100(), 1);
        let ws = s.sync_wave(&mut [&mut p], &[0]);
        assert!(ws.time.is_zero());
        assert_eq!(ws.bytes, 0);
        let after_bits: Vec<u32> = grad(&p).iter().map(|v| v.to_bits()).collect();
        // Bitwise untouched, including the negative zero.
        assert_eq!(before_bits, after_bits);
    }

    #[test]
    fn full_sync_averages_into_every_replica() {
        let mut a = params_with_grad(&[1.0, 2.0, 3.0]);
        let mut b = params_with_grad(&[3.0, 2.0, 1.0]);
        let ws = sync().sync_wave(&mut [&mut a, &mut b], &[0, 1]);
        assert!(ws.time > SimTime::ZERO);
        assert!(ws.bytes > 0);
        assert_eq!(grad(&a), vec![2.0, 2.0, 2.0]);
        assert_eq!(grad(&a), grad(&b));
    }

    #[test]
    fn single_active_participant_broadcasts_verbatim() {
        let mut a = params_with_grad(&[1.0, -0.0, 3.0]);
        let mut b = params_with_grad(&[9.0, 9.0, 9.0]);
        sync().sync_wave(&mut [&mut a, &mut b], &[0]);
        let ab: Vec<u32> = grad(&a).iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = grad(&b).iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
        assert_eq!(grad(&b)[0], 1.0);
        // The -0.0 survived the broadcast bit-exactly.
        assert_eq!(grad(&b)[1].to_bits(), (-0.0f32).to_bits());
    }
}
