//! The one-kernel global gather (§III-C3, right half of Figure 4).
//!
//! Because every GPU can load directly from peer memory through its pointer
//! table, gathering an arbitrary list of global rows needs **one kernel and
//! no explicit communication**: each output row is copied straight from
//! whichever region owns it, and "the underlying NVLink and NVSwitch handle
//! all the necessary communication without the involvement of software."
//!
//! There is one gather: [`TierStack::plan`] resolves every row to the
//! region that owns it, [`TierStack::execute`] copies them. The tiers
//! this repo adds around the DSM — the feature cache above it
//! ([`crate::cache`]), the out-of-core tier below it ([`crate::ooc`]) —
//! are optional members of the stack, not separate entry points: with
//! neither attached the pair *is* the paper's gather ([`global_gather`]
//! is that, in one call). The tiers price reads; the DSM serves them.
//! Attaching one changes what a row's read costs — a cache hit is
//! priced at local HBM, a disk row at the NVMe request that would fetch
//! it — and never where its value comes from.
//!
//! The copy below is real (a rayon-parallel loop standing in for the CUDA
//! kernel). The simulated duration comes from the Figure 8 bandwidth curve:
//! random reads of `width × sizeof(T)`-byte segments achieve a
//! segment-size-dependent fraction of NVLink bandwidth.

use std::time::Instant;

use rayon::prelude::*;

use wg_sim::cost::AccessMode;
use wg_sim::device::DeviceSpec;
use wg_sim::{CostModel, SimTime};

use crate::access::{ChunkLocator, Element};
use crate::cache::{CacheMode, FeatureCache};
use crate::handle::WholeMemory;
use crate::ooc::OocTier;

/// Out-of-core storage-tier traffic, field for field the
/// `mem.storage.{rows,bytes,requests,read_bytes}` counters: `rows` and
/// `bytes` are logical (what gather plans asked the tier for),
/// `requests` and `read_bytes` physical (the ranged reads
/// [`OocTier::fetch`] issued for them). One fetch returns it, one
/// gather reports it, and epoch/serve reports sum it. All zero whenever
/// the tier is off or every row was cache- or DSM-resident.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageIo {
    /// Rows served from the disk tier.
    pub rows: u64,
    /// Bytes of those rows (`rows × row bytes`). The conservation
    /// invariant of the tier: DSM-served bytes plus these (plus
    /// cache-served bytes) always equal `algo_bytes`.
    pub bytes: u64,
    /// Ranged reads issued (file-adjacent rows coalesce, so
    /// `requests <= rows`).
    pub requests: u64,
    /// Bytes the reads transferred, bridged gaps included — at least
    /// `bytes` once duplicate rows are discounted.
    pub read_bytes: u64,
}

impl StorageIo {
    /// `read_bytes / bytes`: device bytes moved per byte delivered
    /// (zero when nothing was served from disk).
    pub fn read_amplification(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.read_bytes as f64 / self.bytes as f64
        }
    }
}

/// The CLI storage line's traffic half, in the counters' names: logical
/// rows/bytes, then the reads issued to serve them.
impl std::fmt::Display for StorageIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rows {} ({:.2} MB) in requests {} (read_bytes {:.2} MB, read amplification {:.2}x)",
            self.rows,
            self.bytes as f64 / 1e6,
            self.requests,
            self.read_bytes as f64 / 1e6,
            self.read_amplification()
        )
    }
}

impl std::ops::AddAssign for StorageIo {
    fn add_assign(&mut self, o: StorageIo) {
        self.rows += o.rows;
        self.bytes += o.bytes;
        self.requests += o.requests;
        self.read_bytes += o.read_bytes;
    }
}

/// Statistics of one global gather.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatherStats {
    /// Rows gathered.
    pub rows: usize,
    /// Rows that were local to the executing device (cache hits count as
    /// local — they are served from the device's own HBM).
    pub local_rows: usize,
    /// Rows pulled from peer devices (these cross the bus).
    pub remote_rows: usize,
    /// Total bytes the algorithm gathered.
    pub algo_bytes: u64,
    /// Bytes that actually crossed NVLink (remote rows only) — the
    /// numerator of BusBW.
    pub bus_bytes: u64,
    /// Rows served out of the per-device feature cache (zero without
    /// one).
    pub cache_hits: usize,
    /// Bytes that would have crossed the bus had their rows not been
    /// cached: cache hits whose owning rank is not the executing device,
    /// times the row size.
    pub saved_bus_bytes: u64,
    /// What the out-of-core storage tier priced for this gather (all
    /// zero without one and at full residency).
    pub storage_io: StorageIo,
    /// Priced time of exactly the reads issued — a sub-component of
    /// [`sim_time`](Self::sim_time), split out so the executor can
    /// overlap it against compute (the prefetch model).
    pub storage_time: SimTime,
    /// Simulated duration of the gather kernel (storage fetch included).
    pub sim_time: SimTime,
}

impl GatherStats {
    /// Bandwidth seen by the algorithm, bytes/s.
    pub fn algo_bandwidth(&self) -> f64 {
        self.algo_bytes as f64 / self.sim_time.as_secs()
    }

    /// Bandwidth seen by the bus, bytes/s.
    pub fn bus_bandwidth(&self) -> f64 {
        self.bus_bytes as f64 / self.sim_time.as_secs()
    }

    /// Fraction of gathered rows served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.rows as f64
        }
    }
}

/// One gather row resolved to its owning region and element offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlannedRow {
    rank: u32,
    start: usize,
}

/// A precomputed gather plan: the address translation of a gather
/// hoisted out of the copy kernel.
///
/// [`TierStack::plan`] resolves every index through a pooled
/// [`ChunkLocator`] (division-free, built once per partition) and counts
/// rows per tier, so [`TierStack::execute`] is a pure copy loop —
/// no `locate()`, no reduction, and with a warm plan no heap allocation.
#[derive(Default)]
pub struct RowPlan {
    /// Every row's owning region and offset, whichever tier prices it.
    slots: Vec<PlannedRow>,
    /// DSM-priced rows per owning rank (cache hits and disk rows are
    /// counted by their own tier instead).
    rank_counts: Vec<usize>,
    locator: Option<ChunkLocator>,
    width: usize,
    /// Planned rows served from the cache.
    cache_hits: usize,
    /// Cache hits whose owning rank is not the executing device (the
    /// rows whose bus crossing the cache saved).
    cache_remote_hits: usize,
    /// Global row ids of disk-served rows, in plan order — the prefetch
    /// queue's request batch.
    disk_batch: Vec<u32>,
}

impl RowPlan {
    /// Rows this plan gathers.
    pub fn rows(&self) -> usize {
        self.slots.len()
    }

    /// Rows this plan serves from the feature cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Rows this plan serves from the out-of-core storage tier.
    pub fn disk_rows(&self) -> usize {
        self.disk_batch.len()
    }
}

/// The tiers a gather resolves rows through, top to bottom: **cache →
/// DSM → disk**. The DSM is the [`WholeMemory`] every call passes; the
/// per-device feature cache above it and the out-of-core tier below it
/// are each optional, and the access API is the same whichever are
/// attached (PyTorch-Direct's shape: the backing moves, the call does
/// not). The empty stack — [`TierStack::default`] — is the paper's plain
/// one-kernel gather.
#[derive(Default)]
pub struct TierStack {
    /// The per-device feature cache consulted first, if any.
    pub cache: Option<FeatureCache>,
    /// The out-of-core tier serving rows beyond its residency budget, if
    /// any.
    pub disk: Option<OocTier>,
}

impl TierStack {
    /// Resolve `indices` (global row ids of `wm`) into a reusable
    /// [`RowPlan`]. Every row is planned against its owning region; what
    /// differs is the tier that prices it. Rows found in
    /// `executing_rank`'s cache count as hits; misses that are
    /// DSM-**resident** (every row, when no disk tier is attached) count
    /// against their owning rank; everything else falls to the storage
    /// tier and joins the plan's prefetch batch. In [`CacheMode::Clock`]
    /// mode, misses claim cache slots here regardless of which lower tier
    /// serves them — a hot disk row graduates straight into the top tier.
    ///
    /// Planning is one sequential pass, so CLOCK eviction order is
    /// identical at any worker count, and with a warm plan it is
    /// allocation-free. The plan is bound to this stack and rank: hand it
    /// to [`execute`](Self::execute) on the same stack.
    pub fn plan<T: Element>(
        &mut self,
        wm: &WholeMemory<T>,
        indices: &[usize],
        executing_rank: u32,
        plan: &mut RowPlan,
    ) {
        let partition = wm.partition();
        if plan
            .locator
            .as_ref()
            .is_none_or(|l| l.partition() != partition)
        {
            plan.locator = Some(ChunkLocator::new(partition));
        }
        let locator = plan.locator.as_ref().unwrap();
        let width = wm.width();
        let disk = self.disk.as_ref();
        if let Some(tier) = disk {
            assert_eq!(tier.rows(), wm.rows(), "tier built for a different store");
            assert_eq!(
                tier.row_bytes(),
                width * std::mem::size_of::<T>(),
                "tier built for a different row size"
            );
        }
        plan.width = width;
        plan.rank_counts.clear();
        plan.rank_counts.resize(partition.ranks as usize, 0);
        plan.slots.clear();
        plan.slots.reserve(indices.len());
        plan.cache_hits = 0;
        plan.cache_remote_hits = 0;
        plan.disk_batch.clear();
        let fill_on_miss = self
            .cache
            .as_ref()
            .is_some_and(|c| c.mode() == CacheMode::Clock);
        let mut dc = self.cache.as_mut().map(|c| {
            let dc = c.device_mut(executing_rank);
            dc.begin_batch();
            dc
        });
        for &row in indices {
            let loc = locator.locate(row);
            plan.slots.push(PlannedRow {
                rank: loc.device_rank,
                start: loc.local_row * width,
            });
            if let Some(dc) = dc.as_deref_mut() {
                if let Some(slot) = dc.lookup(row) {
                    dc.touch(slot);
                    plan.cache_hits += 1;
                    if loc.device_rank != executing_rank {
                        plan.cache_remote_hits += 1;
                    }
                    continue;
                }
                if fill_on_miss {
                    dc.insert(row);
                }
            }
            // Miss in the top tier: resolve DSM residency, then disk.
            if disk.is_none_or(|t| t.is_resident(row)) {
                plan.rank_counts[loc.device_rank as usize] += 1;
            } else {
                plan.disk_batch.push(row as u32);
            }
        }
    }

    /// Execute a plan built by [`plan`](Self::plan) on this stack, on
    /// device `executing_rank`: the copy kernel reads every row from the
    /// region that owns it, and the tiers price the reads — cache hits at
    /// local-HBM cost, DSM-resident misses at DSM cost, and disk rows at
    /// the cost of the coalesced ranged requests the disk tier's batched
    /// prefetch turns them into (the list a device would be sent, which
    /// the storage cost model prices). `out` must hold
    /// `plan.rows() * wm.width()` elements.
    pub fn execute<T: Element>(
        &mut self,
        wm: &WholeMemory<T>,
        plan: &RowPlan,
        out: &mut [T],
        executing_rank: u32,
        model: &CostModel,
        spec: &DeviceSpec,
    ) -> GatherStats {
        // Without this, a plan executed on the wrong stack would price
        // its cache hits or disk rows as DSM reads.
        assert!(
            (self.cache.is_some() || plan.cache_hits == 0)
                && (self.disk.is_some() || plan.disk_batch.is_empty()),
            "plan holds cache hits or disk rows this stack has no tier for: \
             execute a plan on the stack that planned it"
        );
        let mut storage_io = StorageIo::default();
        let mut storage_time = SimTime::ZERO;
        if let Some(tier) = self.disk.as_mut() {
            let fetch_start = wg_trace::metrics_enabled().then(Instant::now);
            storage_io = tier.fetch(&plan.disk_batch, &model.storage);
            if let Some(t0) = fetch_start {
                wg_trace::counter!("mem.storage.fetch_host_s", t0.elapsed().as_secs_f64());
            }
            // Priced as issued: one seek share per ranged read, each
            // read's bytes at the bandwidth its size achieves. Zero when
            // every planned row was cache- or DSM-resident.
            storage_time = model
                .storage
                .requests_time(tier.issued().iter().map(|&(_, b)| b));
        }

        let _span = wg_trace::span!("mem.gather");
        let width = wm.width();
        assert_eq!(plan.width, width, "plan was built for a different width");
        assert_eq!(
            out.len(),
            plan.rows() * width,
            "gather output buffer has wrong size"
        );
        let regions = wm.regions();

        // The "kernel": every thread block copies one output row from the
        // owning region through the pointer table. All address translation
        // already happened at plan time.
        out.par_chunks_mut(width.max(1))
            .zip(plan.slots.par_iter())
            .for_each(|(dst, slot)| {
                dst.copy_from_slice(&regions[slot.rank as usize][slot.start..slot.start + width]);
            });

        let rows = plan.rows();
        let hit_rows = plan.cache_hits;
        let disk_rows = storage_io.rows as usize;
        // DSM-served misses: everything the cache and the storage tier did
        // not absorb. On the empty stack both terms are zero and this is
        // `rows`.
        let miss_rows = rows - hit_rows - disk_rows;
        let miss_local = plan
            .rank_counts
            .get(executing_rank as usize)
            .copied()
            .unwrap_or(0);
        // Cache hits are served from the executing device's HBM: local by
        // construction, whoever owns the row's home region.
        let local_rows = miss_local + hit_rows;
        let remote_rows = rows - local_rows - disk_rows;
        let row_bytes = width * std::mem::size_of::<T>();
        let algo_bytes = (rows * row_bytes) as u64;
        let bus_bytes = (remote_rows * row_bytes) as u64;
        let saved_bus_bytes = (plan.cache_remote_hits * row_bytes) as u64;

        // Hits ride the same kernel but stream out of local HBM; only the
        // misses pay the DSM price. On the empty stack (no hits, no
        // storage time) both formulas reduce to exactly the paper's.
        let hit_time = model.hbm_gather_time(hit_rows as u64, row_bytes, spec);
        let sim_time = match wm.mode() {
            AccessMode::PeerAccess => {
                model.dsm_gather_time(miss_rows as u64, row_bytes, spec) + hit_time + storage_time
            }
            AccessMode::UnifiedMemory => {
                // Every remote row triggers a page fault serviced by the host;
                // faults for distinct rows overlap poorly because the fault
                // handler serializes on the driver. We charge a per-fault
                // latency amortized over a small service parallelism, plus the
                // migration of the touched pages.
                const FAULT_PARALLELISM: f64 = 16.0;
                let fault = model.um_access_latency(wm.logical_bytes());
                let fault_time = fault * (remote_rows as f64 / FAULT_PARALLELISM);
                let page = 64 * 1024;
                let pages = remote_rows as u64 * row_bytes.div_ceil(page) as u64;
                let migrate = SimTime::from_secs(
                    (pages * page as u64) as f64 / model.topology.nvlink_bandwidth,
                );
                SimTime::from_secs(spec.kernel_launch_overhead_s)
                    + fault_time
                    + migrate
                    + hit_time
                    + storage_time
            }
        };

        let stats = GatherStats {
            rows,
            local_rows,
            remote_rows,
            algo_bytes,
            bus_bytes,
            cache_hits: hit_rows,
            saved_bus_bytes,
            storage_io,
            storage_time,
            sim_time,
        };
        record_gather_metrics(&stats, model);
        if self.cache.is_some() {
            record_cache_metrics(&stats);
        }
        if self.disk.is_some() {
            record_storage_metrics(&stats);
        }
        stats
    }
}

/// Gather `indices` (global row ids) from `wm` into `out`, executing on
/// device `executing_rank` — the paper's plain gather: the empty
/// [`TierStack`], planned and executed in one shot.
///
/// `out` must hold `indices.len() * wm.width()` elements. Returns the
/// per-op statistics including the simulated kernel duration. Allocates
/// its plan; hot loops keep a pooled [`RowPlan`] and call the pair.
pub fn global_gather<T: Element>(
    wm: &WholeMemory<T>,
    indices: &[usize],
    out: &mut [T],
    executing_rank: u32,
    model: &CostModel,
    spec: &DeviceSpec,
) -> GatherStats {
    let (mut stack, mut plan) = (TierStack::default(), RowPlan::default());
    stack.plan(wm, indices, executing_rank, &mut plan);
    stack.execute(wm, &plan, out, executing_rank, model, spec)
}

/// Rows-per-gather histogram bucket bounds (mini-batch input sets run
/// from hundreds of rows at toy scale to ~100k at paper fanouts). The
/// wallclock epoch's training batches gather ~1.7k rows each, so the
/// 1024–2048 band carries 1280/1536/1792 edges to resolve it — with a
/// bare 1024→2048 step, 90 of 99 calls piled into one `le: 2048`
/// bucket above an empty `le: 1024`.
const ROWS_BUCKETS: [f64; 13] = [
    256.0, 1024.0, 1280.0, 1536.0, 1792.0, 2048.0, 4096.0, 8192.0, 16384.0, 65536.0, 262144.0, 1e6,
    4e6,
];
/// Link-utilization histogram bounds (fraction of peak NVLink bandwidth
/// the gather's bus traffic achieved).
const LINK_UTIL_BUCKETS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];

/// Accrue one gather's statistics into the `mem.gather.*` metrics: byte
/// and row counters, the rows-per-call histogram, and the achieved
/// fraction of peak NVLink bandwidth. One atomic-load probe when
/// metrics are disabled.
fn record_gather_metrics(stats: &GatherStats, model: &CostModel) {
    if !wg_trace::metrics_enabled() {
        return;
    }
    wg_trace::counter!("mem.gather.calls", 1.0);
    wg_trace::counter!("mem.gather.rows", stats.rows as f64);
    wg_trace::counter!("mem.gather.remote_rows", stats.remote_rows as f64);
    wg_trace::counter!("mem.gather.algo_bytes", stats.algo_bytes as f64);
    wg_trace::counter!("mem.gather.bus_bytes", stats.bus_bytes as f64);
    wg_trace::histogram!("mem.gather.rows_per_call", &ROWS_BUCKETS, stats.rows as f64);
    if stats.sim_time.as_secs() > 0.0 && model.topology.nvlink_bandwidth > 0.0 {
        wg_trace::histogram!(
            "mem.gather.link_utilization",
            &LINK_UTIL_BUCKETS,
            stats.bus_bandwidth() / model.topology.nvlink_bandwidth
        );
    }
}

/// Per-call hit-rate histogram bounds.
const HIT_RATE_BUCKETS: [f64; 6] = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

/// Accrue the statistics of one gather on a stack with a cache into the
/// `mem.cache.*` metrics. Hits and misses partition the gathered rows, so
/// summed over a run `mem.cache.hits + mem.cache.misses ==
/// mem.gather.rows` whenever every gather's stack had one.
fn record_cache_metrics(stats: &GatherStats) {
    if !wg_trace::metrics_enabled() {
        return;
    }
    wg_trace::counter!("mem.cache.hits", stats.cache_hits as f64);
    wg_trace::counter!("mem.cache.misses", (stats.rows - stats.cache_hits) as f64);
    wg_trace::counter!("mem.cache.saved_bus_bytes", stats.saved_bus_bytes as f64);
    if stats.rows > 0 {
        wg_trace::histogram!("mem.cache.hit_rate", &HIT_RATE_BUCKETS, stats.hit_rate());
    }
}

/// Accrue the storage side of one gather on a stack with a disk tier
/// into the `mem.storage.*` metrics. `rows`/`bytes` are logical (what the plan
/// asked the tier for), `requests`/`read_bytes` physical (what the
/// tier issued to serve them). Summed over a run with the cache
/// disabled, `mem.storage.bytes + mem.gather.bus_bytes + local DSM
/// bytes == mem.gather.algo_bytes` — the bytes-conservation invariant
/// the `storage_sweep` bench asserts as `dsm + disk == uncached total`.
fn record_storage_metrics(stats: &GatherStats) {
    if !wg_trace::metrics_enabled() {
        return;
    }
    let io = stats.storage_io;
    wg_trace::counter!("mem.storage.rows", io.rows as f64);
    wg_trace::counter!("mem.storage.bytes", io.bytes as f64);
    wg_trace::counter!("mem.storage.requests", io.requests as f64);
    wg_trace::counter!("mem.storage.read_bytes", io.read_bytes as f64);
    wg_trace::counter!("mem.storage.time_s", stats.storage_time.as_secs());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;

    fn setup(
        rows: usize,
        width: usize,
        ranks: u32,
        mode: AccessMode,
    ) -> (WholeMemory<f32>, CostModel, DeviceSpec) {
        let model = CostModel::dgx_a100();
        let mut wm = WholeMemory::<f32>::allocate(&model, ranks, rows, width, mode);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 1000 + j) as f32;
            }
        });
        (wm, model, DeviceSpec::a100_40gb())
    }

    #[test]
    fn gather_matches_scalar_reference() {
        let (wm, model, spec) = setup(1000, 16, 8, AccessMode::PeerAccess);
        let mut rng = SmallRng::seed_from_u64(7);
        let indices: Vec<usize> = (0..333).map(|_| rng.gen_range(0..1000)).collect();
        let mut out = vec![0.0f32; indices.len() * 16];
        let stats = global_gather(&wm, &indices, &mut out, 0, &model, &spec);
        assert_eq!(stats.rows, indices.len());
        let mut expect = vec![0.0f32; 16];
        for (i, &row) in indices.iter().enumerate() {
            wm.read_row(row, &mut expect);
            assert_eq!(&out[i * 16..(i + 1) * 16], &expect[..], "row {row}");
        }
    }

    #[test]
    fn local_remote_split_adds_up() {
        let (wm, model, spec) = setup(800, 4, 8, AccessMode::PeerAccess);
        let indices: Vec<usize> = (0..800).collect();
        let mut out = vec![0.0f32; indices.len() * 4];
        let stats = global_gather(&wm, &indices, &mut out, 3, &model, &spec);
        assert_eq!(stats.local_rows + stats.remote_rows, 800);
        // Chunked partition: exactly 1/8 of all rows live on rank 3.
        assert_eq!(stats.local_rows, 100);
        assert_eq!(stats.bus_bytes, (700 * 4 * 4) as u64);
    }

    #[test]
    fn um_mode_is_far_slower_than_p2p() {
        let (wm_p2p, model, spec) = setup(4096, 32, 8, AccessMode::PeerAccess);
        let (wm_um, _, _) = setup(4096, 32, 8, AccessMode::UnifiedMemory);
        let indices: Vec<usize> = (0..2048).collect();
        let mut out = vec![0.0f32; indices.len() * 32];
        let p2p = global_gather(&wm_p2p, &indices, &mut out, 0, &model, &spec);
        let um = global_gather(&wm_um, &indices, &mut out, 0, &model, &spec);
        assert!(
            um.sim_time / p2p.sim_time > 10.0,
            "UM should be >10x slower"
        );
    }

    #[test]
    fn wide_rows_achieve_near_saturated_bandwidth() {
        // papers100M rows are 512 B; Figure 8 says those saturate NVLink.
        let (wm, model, spec) = setup(100_000, 128, 8, AccessMode::PeerAccess);
        let indices: Vec<usize> = (0..100_000).collect();
        let mut out = vec![0.0f32; indices.len() * 128];
        let stats = global_gather(&wm, &indices, &mut out, 0, &model, &spec);
        let algobw = stats.algo_bandwidth();
        assert!(
            algobw > 0.8 * model.gather_algobw(512),
            "algo bandwidth {algobw:.3e}"
        );
    }

    #[test]
    fn planned_gather_matches_adhoc_and_reuses_plan() {
        let (wm, model, spec) = setup(1000, 16, 8, AccessMode::PeerAccess);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut stack = TierStack::default();
        let mut plan = RowPlan::default();
        let mut planned = vec![0.0f32; 0];
        let mut adhoc = vec![0.0f32; 0];
        // Reuse one plan across batches of different sizes; every batch
        // must match the allocating gather exactly, stats included.
        for batch in [333usize, 57, 999] {
            let indices: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..1000)).collect();
            planned.clear();
            planned.resize(batch * 16, 0.0);
            adhoc.clear();
            adhoc.resize(batch * 16, 0.0);
            stack.plan(&wm, &indices, 2, &mut plan);
            assert_eq!(plan.rows(), batch);
            let sp = stack.execute(&wm, &plan, &mut planned, 2, &model, &spec);
            let sa = global_gather(&wm, &indices, &mut adhoc, 2, &model, &spec);
            assert_eq!(planned, adhoc);
            assert_eq!(sp, sa);
        }
    }

    fn with_cache(cache: FeatureCache) -> TierStack {
        TierStack {
            cache: Some(cache),
            disk: None,
        }
    }

    fn with_disk(disk: OocTier) -> TierStack {
        TierStack {
            cache: None,
            disk: Some(disk),
        }
    }

    /// Gather `indices` through `stack` and through the plain gather; the
    /// values must be bit-identical. Returns (stack stats, plain stats).
    fn gather_vs_plain(
        wm: &WholeMemory<f32>,
        stack: &mut TierStack,
        indices: &[usize],
        rank: u32,
        model: &CostModel,
        spec: &DeviceSpec,
    ) -> (GatherStats, GatherStats) {
        let width = wm.width();
        let mut plan = RowPlan::default();
        let mut stacked = vec![0.0f32; indices.len() * width];
        let mut plain = vec![0.0f32; indices.len() * width];
        stack.plan(wm, indices, rank, &mut plan);
        let ss = stack.execute(wm, &plan, &mut stacked, rank, model, spec);
        let sp = global_gather(wm, indices, &mut plain, rank, model, spec);
        assert_eq!(stacked, plain, "a tier changed gathered values");
        (ss, sp)
    }

    #[test]
    fn static_cache_preserves_values_and_cuts_remote_rows() {
        let (wm, model, spec) = setup(1000, 16, 8, AccessMode::PeerAccess);
        // Hot set = rows 0..100; the access stream is 80% hot.
        let hot: Vec<u64> = (0..1000).map(|r| if r < 100 { 10 } else { 0 }).collect();
        let mut stack = with_cache(FeatureCache::new_static(&wm, &hot, 100));
        let mut rng = SmallRng::seed_from_u64(3);
        let indices: Vec<usize> = (0..500)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    rng.gen_range(0..100)
                } else {
                    rng.gen_range(100..1000)
                }
            })
            .collect();
        let (sc, sp) = gather_vs_plain(&wm, &mut stack, &indices, 2, &model, &spec);
        let expected_hits = indices.iter().filter(|&&r| r < 100).count();
        assert_eq!(sc.cache_hits, expected_hits);
        assert_eq!(sc.rows, sp.rows);
        assert_eq!(sc.local_rows + sc.remote_rows, sc.rows);
        assert!(
            sc.remote_rows < sp.remote_rows / 2,
            "hot-set cache should halve remote rows: {} vs {}",
            sc.remote_rows,
            sp.remote_rows
        );
        assert!(sc.bus_bytes < sp.bus_bytes);
        assert!(sc.sim_time < sp.sim_time, "hits must be cheaper than DSM");
        // Saved bytes = remote-owned hits × row bytes; rank 2 owns rows
        // 250..375, so every hit (rows < 100) was remote-owned.
        assert_eq!(sc.saved_bus_bytes, (expected_hits * 16 * 4) as u64);
        assert_eq!(sc.bus_bytes + sc.saved_bus_bytes, sp.bus_bytes);
    }

    #[test]
    fn zero_capacity_cache_is_cost_identical_to_uncached() {
        let (wm, model, spec) = setup(500, 8, 4, AccessMode::PeerAccess);
        let mut stack = with_cache(FeatureCache::new_clock(&wm, 4, 0));
        let indices: Vec<usize> = (0..300).map(|i| (i * 7) % 500).collect();
        let (sc, sp) = gather_vs_plain(&wm, &mut stack, &indices, 1, &model, &spec);
        assert_eq!(sc, sp);
    }

    #[test]
    fn clock_cache_warms_to_full_hits_at_working_set_size() {
        let (wm, model, spec) = setup(400, 8, 4, AccessMode::PeerAccess);
        // Capacity ≥ working set: after one pass everything is resident.
        let mut stack = with_cache(FeatureCache::new_clock(&wm, 4, 128));
        let working_set: Vec<usize> = (0..100).map(|i| i * 3).collect();
        let (first, _) = gather_vs_plain(&wm, &mut stack, &working_set, 0, &model, &spec);
        assert_eq!(first.cache_hits, 0, "cold cache");
        let (second, plain) = gather_vs_plain(&wm, &mut stack, &working_set, 0, &model, &spec);
        assert_eq!(second.cache_hits, working_set.len());
        assert_eq!(second.remote_rows, 0);
        assert_eq!(second.bus_bytes, 0);
        assert!(second.sim_time < plain.sim_time);
        // A different device's cache is still cold.
        let (other, _) = gather_vs_plain(&wm, &mut stack, &working_set, 3, &model, &spec);
        assert_eq!(other.cache_hits, 0);
    }

    #[test]
    fn clock_same_batch_reuse_hits_the_fresh_insert() {
        let (wm, model, spec) = setup(100, 4, 4, AccessMode::PeerAccess);
        let mut stack = with_cache(FeatureCache::new_clock(&wm, 1, 16));
        // Row 42 appears three times in one batch: miss+insert, then two
        // hits that must read the values the insert wrote.
        let indices = vec![42usize, 7, 42, 42, 9];
        let (stats, _) = gather_vs_plain(&wm, &mut stack, &indices, 0, &model, &spec);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn um_mode_cache_hits_skip_fault_costs() {
        let (wm, model, spec) = setup(512, 16, 8, AccessMode::UnifiedMemory);
        let hot: Vec<u64> = (0..512).map(|r| if r < 64 { 1 } else { 0 }).collect();
        let mut stack = with_cache(FeatureCache::new_static(&wm, &hot, 64));
        // Execute on rank 3: rows 0..64 all live on rank 0, so every
        // uncached access is a remote fault.
        let indices: Vec<usize> = (0..256).map(|i| i % 64).collect();
        let (sc, sp) = gather_vs_plain(&wm, &mut stack, &indices, 3, &model, &spec);
        assert_eq!(sc.cache_hits, indices.len());
        assert!(
            sp.sim_time / sc.sim_time > 10.0,
            "UM fault storm should dwarf HBM hits: {} vs {}",
            sp.sim_time,
            sc.sim_time
        );
    }

    #[test]
    fn tiered_gather_preserves_values_at_any_residency() {
        let (wm, model, spec) = setup(600, 8, 4, AccessMode::PeerAccess);
        let hotness: Vec<u64> = (0..600).map(|r| (600 - r) as u64).collect();
        let indices: Vec<usize> = (0..400).map(|i| (i * 13) % 600).collect();
        for budget in [0usize, 150, 300, 600] {
            let mut stack = with_disk(OocTier::build(&wm, &hotness, budget));
            let (st, sp) = gather_vs_plain(&wm, &mut stack, &indices, 1, &model, &spec);
            // Hotness is highest for the lowest row ids, so residency is
            // exactly the prefix 0..budget.
            let expect_disk = indices.iter().filter(|&&r| r >= budget).count();
            assert_eq!(st.storage_io.rows, expect_disk as u64, "budget {budget}");
            assert_eq!(st.rows, sp.rows);
            assert_eq!(st.algo_bytes, sp.algo_bytes);
        }
    }

    #[test]
    fn full_residency_tier_is_cost_identical_to_uncached() {
        let (wm, model, spec) = setup(500, 8, 4, AccessMode::PeerAccess);
        let hotness = vec![1u64; 500];
        let mut stack = with_disk(OocTier::build(&wm, &hotness, 500));
        let indices: Vec<usize> = (0..300).map(|i| (i * 7) % 500).collect();
        let (st, sp) = gather_vs_plain(&wm, &mut stack, &indices, 2, &model, &spec);
        assert_eq!(st, sp);
    }

    #[test]
    fn tiered_bytes_partition_and_storage_slows_the_gather() {
        let (wm, model, spec) = setup(800, 16, 8, AccessMode::PeerAccess);
        let hotness: Vec<u64> = (0..800).map(|r| (800 - r) as u64).collect();
        // 25% residency: rows 0..200 stay in the DSM.
        let mut stack = with_disk(OocTier::build(&wm, &hotness, 200));
        let indices: Vec<usize> = (0..800).collect();
        let (st, sp) = gather_vs_plain(&wm, &mut stack, &indices, 3, &model, &spec);
        let row_bytes = 16 * 4;
        // Conservation: disk + bus + local-HBM bytes == uncached algo bytes.
        assert_eq!(
            st.storage_io.bytes + st.bus_bytes + (st.local_rows * row_bytes) as u64,
            sp.algo_bytes
        );
        assert_eq!(st.storage_io.rows, 600);
        assert!(st.storage_time > SimTime::ZERO);
        // Priced == issued: the stats and the storage time are those of
        // the reads the tier logged, and the 600 adjacent rows
        // went out as one ranged read with no amplification.
        let issued = stack.disk.as_ref().unwrap().issued();
        assert_eq!(issued, &[(200 * row_bytes as u64, 600 * row_bytes)]);
        assert_eq!(st.storage_io.requests, issued.len() as u64);
        assert_eq!(st.storage_io.read_bytes, (600 * row_bytes) as u64);
        assert_eq!(st.storage_io.read_bytes, st.storage_io.bytes);
        assert_eq!(
            st.storage_time,
            model.storage.requests_time(issued.iter().map(|&(_, b)| b))
        );
        assert!(st.storage_time < model.storage.read_time(600, row_bytes));
        assert!(
            st.sim_time > sp.sim_time,
            "NVMe reads must cost more than DSM: {} vs {}",
            st.sim_time,
            sp.sim_time
        );
    }

    #[test]
    fn clock_cache_warms_from_disk_served_rows() {
        let (wm, model, spec) = setup(300, 8, 4, AccessMode::PeerAccess);
        let hotness = vec![1u64; 300];
        // Nothing resident: every miss is disk-served, and the CLOCK
        // directory still fills from those misses.
        let mut stack = TierStack {
            cache: Some(FeatureCache::new_clock(&wm, 4, 128)),
            disk: Some(OocTier::build(&wm, &hotness, 0)),
        };
        let working_set: Vec<usize> = (0..90).map(|i| i * 3).collect();
        let (first, _) = gather_vs_plain(&wm, &mut stack, &working_set, 0, &model, &spec);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.storage_io.rows, working_set.len() as u64);
        let (second, _) = gather_vs_plain(&wm, &mut stack, &working_set, 0, &model, &spec);
        assert_eq!(second.cache_hits, working_set.len(), "warmed from disk");
        assert_eq!(second.storage_io, StorageIo::default());
        assert_eq!(second.storage_time, SimTime::ZERO);
    }

    /// A plan that holds cache hits or disk rows, executed on a stack
    /// without that tier, is refused by name — not silently priced as
    /// DSM reads.
    #[test]
    fn plan_rejected_by_a_stack_without_its_tier() {
        let (wm, model, spec) = setup(100, 4, 4, AccessMode::PeerAccess);
        let stacks = [
            with_cache(FeatureCache::new_static(&wm, &[1; 100], 8)),
            with_disk(OocTier::build(&wm, &[1; 100], 0)),
        ];
        for mut stack in stacks {
            let mut plan = RowPlan::default();
            stack.plan(&wm, &[1, 2, 3], 0, &mut plan);
            assert_eq!(plan.cache_hits() + plan.disk_rows(), 3);
            let mut out = vec![0.0f32; 12];
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                TierStack::default().execute(&wm, &plan, &mut out, 0, &model, &spec)
            }));
            let msg = refused.expect_err("the empty stack must refuse the plan");
            let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("this stack has no tier for"), "{msg:?}");
        }
    }

    /// Whatever tiers are attached, a plan reads every row from the
    /// region that owns it: the tiers only sort the rows into hits, DSM
    /// reads and disk reads, and those partition the plan.
    #[test]
    fn every_stack_plans_rows_against_their_owning_region() {
        let (wm, ..) = setup(300, 4, 4, AccessMode::PeerAccess);
        let hot: Vec<u64> = (0..300).map(|r| 300 - r).collect();
        let indices: Vec<usize> = (0..200).map(|i| (i * 37) % 150).collect();
        let stacks = [
            TierStack::default(),
            with_cache(FeatureCache::new_static(&wm, &hot, 40)),
            with_cache(FeatureCache::new_clock(&wm, 4, 40)),
            with_disk(OocTier::build(&wm, &hot, 60)),
            TierStack {
                cache: Some(FeatureCache::new_clock(&wm, 4, 40)),
                disk: Some(OocTier::build(&wm, &hot, 60)),
            },
        ];
        let mut slots = Vec::new();
        for (i, mut stack) in stacks.into_iter().enumerate() {
            let mut plan = RowPlan::default();
            stack.plan(&wm, &indices, 1, &mut plan);
            let dsm_rows: usize = plan.rank_counts.iter().sum();
            assert_eq!(
                plan.cache_hits() + plan.disk_rows() + dsm_rows,
                plan.rows(),
                "stack {i}"
            );
            assert_eq!(
                i == 0,
                plan.cache_hits() + plan.disk_rows() == 0,
                "stack {i}"
            );
            slots.push(plan.slots);
        }
        assert!(slots.iter().all(|s| *s == slots[0]));
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn wrong_output_size_panics() {
        let (wm, model, spec) = setup(10, 4, 2, AccessMode::PeerAccess);
        let mut out = vec![0.0f32; 3];
        global_gather(&wm, &[0, 1], &mut out, 0, &model, &spec);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn gather_is_correct_for_any_shape(
            rows in 1usize..500,
            width in 1usize..32,
            ranks in 1u32..8,
            seed in 0u64..1000,
        ) {
            let model = CostModel::dgx_a100();
            let mut wm = WholeMemory::<f32>::allocate(&model, ranks, rows, width, AccessMode::PeerAccess);
            wm.init_rows(|row, out| {
                for (j, v) in out.iter_mut().enumerate() {
                    *v = (row * 37 + j) as f32;
                }
            });
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=rows * 2);
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rows)).collect();
            let mut out = vec![0.0f32; n * width];
            let spec = DeviceSpec::a100_40gb();
            let stats = global_gather(&wm, &indices, &mut out, 0, &model, &spec);
            prop_assert_eq!(stats.local_rows + stats.remote_rows, n);
            for (i, &row) in indices.iter().enumerate() {
                for j in 0..width {
                    prop_assert_eq!(out[i * width + j], (row * 37 + j) as f32);
                }
            }
        }

        /// For any shape, cache mode, capacity and residency budget, on
        /// each of the four stacks (∅, cache, disk, cache + disk): values
        /// equal the plain gather's, the tiers partition the rows, and the
        /// bytes each tier absorbs are conserved.
        #[test]
        fn cached_gather_preserves_values_and_partitions_rows(
            rows in 1usize..300,
            width in 1usize..16,
            ranks in 1u32..8,
            capacity in 0usize..64,
            budget in 0usize..300,
            seed in 0u64..1000,
        ) {
            let clock = seed % 2 == 0;
            let model = CostModel::dgx_a100();
            let mut wm = WholeMemory::<f32>::allocate(&model, ranks, rows, width, AccessMode::PeerAccess);
            wm.init_rows(|row, out| {
                for (j, v) in out.iter_mut().enumerate() {
                    *v = (row * 37 + j) as f32;
                }
            });
            let spec = DeviceSpec::a100_40gb();
            let row_bytes = (width * 4) as u64;
            for (has_cache, has_disk) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let hot: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..10)).collect();
                let mut stack = TierStack {
                    cache: has_cache.then(|| if clock {
                        FeatureCache::new_clock(&wm, ranks, capacity)
                    } else {
                        FeatureCache::new_static(&wm, &hot, capacity)
                    }),
                    disk: has_disk.then(|| OocTier::build(&wm, &hot, budget)),
                };
                let mut plan = RowPlan::default();
                // Several batches so CLOCK actually warms and evicts.
                for _ in 0..3 {
                    let n = rng.gen_range(1..=rows * 2);
                    let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rows)).collect();
                    let rank = rng.gen_range(0..ranks);
                    let mut out = vec![0.0f32; n * width];
                    let mut plain_out = vec![0.0f32; n * width];
                    stack.plan(&wm, &indices, rank, &mut plan);
                    let stats = stack.execute(&wm, &plan, &mut out, rank, &model, &spec);
                    let plain = global_gather(&wm, &indices, &mut plain_out, rank, &model, &spec);
                    prop_assert_eq!(&out, &plain_out);
                    prop_assert_eq!(stats.rows, n);
                    prop_assert!(stats.cache_hits <= n);
                    prop_assert_eq!(
                        stats.local_rows + stats.remote_rows + stats.storage_io.rows as usize,
                        n
                    );
                    prop_assert!(stats.saved_bus_bytes <= stats.cache_hits as u64 * row_bytes);
                    if !has_disk {
                        prop_assert_eq!(stats.bus_bytes + stats.saved_bus_bytes, plain.bus_bytes);
                    }
                    if !has_cache {
                        let dsm_bytes = (stats.local_rows + stats.remote_rows) as u64 * row_bytes;
                        prop_assert_eq!(stats.storage_io.bytes + dsm_bytes, stats.algo_bytes);
                    }
                    if !has_cache && !has_disk {
                        prop_assert_eq!(stats, plain);
                    }
                    for (i, &row) in indices.iter().enumerate() {
                        for j in 0..width {
                            prop_assert_eq!(out[i * width + j], (row * 37 + j) as f32);
                        }
                    }
                }
            }
        }
    }
}
