//! Reusable engine arenas: run many workloads without reallocating.
//!
//! Every engine [`run`](crate::engine::run) borrows an
//! [`EngineScratch`]: a one-off run passes a fresh one, while hot
//! loops pass the same scratch again and again, and the engine
//! *resets* it instead of reallocating — the event
//! heap, message table, channel arbitration table, dead-channel flags,
//! CPU-serialization clocks, and the failure-cascade stack all keep
//! their allocations between runs, and the embedded
//! [`RouteMemo`] keeps the routes themselves.
//!
//! The contract is **byte-identity**: a run replayed into a reused
//! scratch produces a [`RunResult`](crate::RunResult) bit-identical to
//! the fresh-allocation path. The pieces that make this hold are each
//! individually deterministic — the event queue's reset rewinds its
//! sequence counter (same tie-breaking), the channel table's reset
//! restores the pristine free state (cheaply, via a dirty flag that
//! only forces a sweep after runs that didn't drain cleanly), and the
//! route memo returns the same deterministic channel sequences a fresh
//! computation would. `workloads/tests/determinism.rs` pins the claim
//! on cube, torus, and faulted workloads.

use crate::engine::arbitration::Channels;
use crate::engine::events::EventQueue;
use crate::engine::worm::{MsgState, Outcome};
use crate::network::RouteMemo;
use crate::time::SimTime;

/// The reusable arena behind the engine's hot path.
///
/// One scratch serves one engine run at a time; reuse it sequentially
/// (e.g. one scratch per worker thread in a sweep). Reusing across
/// different routers, topologies, and port models is safe — every
/// buffer is resized per run and the route memo restamps itself.
///
/// ```
/// use hcube::{Cube, Ecube, NodeId, Resolution};
/// use hypercast::PortModel;
/// use wormsim::{DepMessage, EngineScratch, FaultPlan, NoopProbe, SimParams, SimTime};
///
/// let router = Ecube::new(Cube::of(4), Resolution::HighToLow);
/// let params = SimParams::ncube2(PortModel::AllPort);
/// let w = [DepMessage { src: NodeId(0), dst: NodeId(5), bytes: 256,
///                       deps: vec![], min_start: SimTime::ZERO }];
/// let mut scratch = EngineScratch::new();
/// let replay = |scratch: &mut EngineScratch| {
///     wormsim::run(router, &params, &w, &FaultPlan::none(), &mut NoopProbe, scratch).unwrap()
/// };
/// let first = replay(&mut scratch);
/// let again = replay(&mut scratch);
/// assert_eq!(first.messages, again.messages); // byte-identical replay
/// assert!(scratch.route_memo().hits() > 0);   // routes were reused
/// ```
#[derive(Default)]
pub struct EngineScratch {
    /// Per-message worm state, reset in place each run.
    pub(crate) msgs: Vec<MsgState>,
    /// Channel arbitration table (holders + FIFO wait queues).
    pub(crate) channels: Channels,
    /// Per-channel dead flags from the run's fault plan.
    pub(crate) dead: Vec<bool>,
    /// The deterministic event heap.
    pub(crate) queue: EventQueue,
    /// Per-node CPU-free clocks for serialized send startup.
    pub(crate) cpu_free: Vec<SimTime>,
    /// Work stack of the failure-cascade walk in `finish`.
    pub(crate) finish_stack: Vec<(usize, Outcome)>,
    /// Memoized `(src, dst, port_model) → route` channel sequences.
    pub(crate) memo: RouteMemo,
    /// Per-dimension external-channel counts, keyed by the router stamp
    /// they were computed for — recomputing them walks every external
    /// channel, which a reused scratch skips.
    pub(crate) dim_channels: Vec<u32>,
    /// External-channel → coordinate-dimension table, cached alongside
    /// `dim_channels`: the per-release busy-time accounting reads this
    /// instead of re-deriving the dimension from channel coordinates.
    pub(crate) dim_table: Vec<u8>,
    /// The router stamp `dim_channels` / `dim_table` belong to.
    pub(crate) dim_stamp: Option<u64>,
}

impl EngineScratch {
    /// An empty scratch; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }

    /// The embedded route memo (hit/miss counters, memoized-route
    /// count) — the observability hook the benchmark harness reports.
    #[must_use]
    pub fn route_memo(&self) -> &RouteMemo {
        &self.memo
    }

    /// Drops the memoized routes (the arenas themselves keep their
    /// allocations; they are reset per run anyway).
    pub fn clear_routes(&mut self) {
        self.memo.clear();
    }
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("msgs", &self.msgs.len())
            .field("memoized_routes", &self.memo.len())
            .field("memo_hits", &self.memo.hits())
            .field("memo_misses", &self.memo.misses())
            .finish_non_exhaustive()
    }
}
