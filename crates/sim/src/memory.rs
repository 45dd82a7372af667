//! Per-device memory capacity accounting.
//!
//! Table IV of the paper reports WholeGraph's per-GPU memory consumption by
//! phase (graph structure / node features / training state). To regenerate
//! it we track every simulated device allocation against the device's
//! capacity, tagged with the phase that made it.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::device::DeviceId;

/// What an allocation is for — the row labels of Table IV.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AllocKind {
    /// Adjacency (CSR offsets + edge lists).
    GraphStructure,
    /// Node or edge feature storage.
    Features,
    /// Model parameters, activations, gradients, optimizer state.
    Training,
    /// Scratch buffers (sampling outputs, hash tables, gather staging).
    Scratch,
}

impl fmt::Display for AllocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AllocKind::GraphStructure => "graph structure",
            AllocKind::Features => "node feature",
            AllocKind::Training => "training",
            AllocKind::Scratch => "scratch",
        };
        f.write_str(s)
    }
}

/// Error returned when an allocation would exceed device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Device that ran out.
    pub device: DeviceId,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes still available.
    pub available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory on {}: requested {} bytes, {} available",
            self.device, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Byte accounting for a single device.
#[derive(Clone, Debug)]
pub struct MemoryPool {
    device: DeviceId,
    capacity: u64,
    used: u64,
    by_kind: HashMap<AllocKind, u64>,
    peak: u64,
}

impl MemoryPool {
    /// A pool for `device` with the given capacity in bytes.
    pub fn new(device: DeviceId, capacity: u64) -> Self {
        MemoryPool {
            device,
            capacity,
            used: 0,
            by_kind: HashMap::new(),
            peak: 0,
        }
    }

    /// Record an allocation; fails if it would exceed capacity.
    pub fn alloc(&mut self, kind: AllocKind, bytes: u64) -> Result<(), OutOfMemory> {
        let available = self.capacity - self.used;
        if bytes > available {
            return Err(OutOfMemory {
                device: self.device,
                requested: bytes,
                available,
            });
        }
        self.used += bytes;
        *self.by_kind.entry(kind).or_insert(0) += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Record a free. Panics if more is freed than was allocated for the
    /// kind — that is always a bookkeeping bug in the caller.
    pub fn free(&mut self, kind: AllocKind, bytes: u64) {
        let slot = self
            .by_kind
            .get_mut(&kind)
            .unwrap_or_else(|| panic!("freeing {bytes} bytes of {kind} never allocated"));
        assert!(*slot >= bytes, "freeing more {kind} bytes than allocated");
        *slot -= bytes;
        self.used -= bytes;
    }

    /// Bytes currently in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Peak bytes ever in use.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Bytes in use for a given kind.
    pub fn used_by(&self, kind: AllocKind) -> u64 {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Remaining bytes.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }
}

/// Thread-safe accounting across all devices of a machine.
///
/// Real kernels in this workspace run on rayon worker threads, so the
/// accounting is behind a mutex; it is touched only at allocation
/// granularity (setup time), never per element.
pub struct MemoryAccounting {
    pools: Mutex<HashMap<DeviceId, MemoryPool>>,
}

impl MemoryAccounting {
    /// Build accounting from `(device, capacity)` pairs.
    pub fn new(devices: impl IntoIterator<Item = (DeviceId, u64)>) -> Self {
        let pools = devices
            .into_iter()
            .map(|(d, cap)| (d, MemoryPool::new(d, cap)))
            .collect();
        MemoryAccounting {
            pools: Mutex::new(pools),
        }
    }

    /// The pools, taken as they stand even if a holder panicked: the only
    /// panics under the lock (an unknown device, an over-free) fire before
    /// a pool is touched, so a poisoned lock still guards consistent books.
    fn pools(&self) -> MutexGuard<'_, HashMap<DeviceId, MemoryPool>> {
        self.pools.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record an allocation on a device.
    pub fn alloc(&self, device: DeviceId, kind: AllocKind, bytes: u64) -> Result<(), OutOfMemory> {
        let mut pools = self.pools();
        pools
            .get_mut(&device)
            .unwrap_or_else(|| panic!("unknown device {device}"))
            .alloc(kind, bytes)
    }

    /// Record a free on a device.
    pub fn free(&self, device: DeviceId, kind: AllocKind, bytes: u64) {
        let mut pools = self.pools();
        pools
            .get_mut(&device)
            .unwrap_or_else(|| panic!("unknown device {device}"))
            .free(kind, bytes);
    }

    /// Snapshot of one device's pool.
    pub fn pool(&self, device: DeviceId) -> MemoryPool {
        self.pools()[&device].clone()
    }

    /// Per-device bytes in use for a kind, over GPU devices only, as
    /// `(device, bytes)` sorted by rank — the Table IV per-GPU columns.
    pub fn gpu_usage_by(&self, kind: AllocKind) -> Vec<(DeviceId, u64)> {
        let pools = self.pools();
        let mut rows: Vec<_> = pools
            .iter()
            .filter(|(d, _)| d.is_gpu())
            .map(|(d, p)| (*d, p.used_by(kind)))
            .collect();
        rows.sort_by_key(|(d, _)| *d);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = MemoryPool::new(DeviceId::Gpu(0), 1000);
        p.alloc(AllocKind::Features, 600).unwrap();
        assert_eq!(p.used(), 600);
        assert_eq!(p.used_by(AllocKind::Features), 600);
        assert_eq!(p.available(), 400);
        p.free(AllocKind::Features, 200);
        assert_eq!(p.used(), 400);
        assert_eq!(p.peak(), 600);
    }

    #[test]
    fn over_capacity_is_oom() {
        let mut p = MemoryPool::new(DeviceId::Gpu(0), 100);
        p.alloc(AllocKind::Training, 80).unwrap();
        let err = p.alloc(AllocKind::Training, 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 20);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn free_of_unallocated_kind_panics() {
        let mut p = MemoryPool::new(DeviceId::Gpu(0), 100);
        p.free(AllocKind::Scratch, 1);
    }

    #[test]
    fn accounting_tracks_per_device() {
        let acct = MemoryAccounting::new([
            (DeviceId::Gpu(0), 1000),
            (DeviceId::Gpu(1), 1000),
            (DeviceId::Cpu, 5000),
        ]);
        acct.alloc(DeviceId::Gpu(0), AllocKind::GraphStructure, 300)
            .unwrap();
        acct.alloc(DeviceId::Gpu(1), AllocKind::GraphStructure, 310)
            .unwrap();
        acct.alloc(DeviceId::Cpu, AllocKind::Features, 4000)
            .unwrap();
        let rows = acct.gpu_usage_by(AllocKind::GraphStructure);
        assert_eq!(rows, vec![(DeviceId::Gpu(0), 300), (DeviceId::Gpu(1), 310)]);
        assert_eq!(acct.pool(DeviceId::Cpu).used_by(AllocKind::Features), 4000);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(AllocKind::GraphStructure.to_string(), "graph structure");
        assert_eq!(AllocKind::Features.to_string(), "node feature");
        assert_eq!(AllocKind::Training.to_string(), "training");
    }
}
