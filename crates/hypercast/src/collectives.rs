//! Collective operations built on the multicast trees (extension beyond
//! the paper).
//!
//! The paper motivates multicast as the building block for the collective
//! routines of MPI-style libraries. This module derives the three classic
//! companions from any multicast tree:
//!
//! * **broadcast** — multicast to every other node;
//! * **reduction / gather** — the multicast tree run *in reverse*: each
//!   node sends its contribution to its tree parent after hearing from
//!   all its tree children (the step schedule is the mirror image of the
//!   multicast schedule, so the same contention-freedom arguments apply
//!   to the reversed channels);
//! * **barrier** — a reduction to the root followed by a broadcast from
//!   it.
//!
//! Beyond the single-tree companions, the module provides the full
//! MPI-style suite as explicit [`CollectiveSchedule`]s — **allgather**,
//! **reduce-scatter**, and **allreduce** — buildable from any
//! [`TreeFamily`] (the paper's algorithms or the Jacobsthal-distance
//! [bine tree](crate::bine)) on the hypercube, and from separate
//! addressing on *any* [`Topology`] (the torus backend). Every schedule
//! records, per constituent unicast, which data segments it carries and
//! whether the receiver combines or copies them, so the
//! [data oracle](crate::oracle) can replay the schedule symbolically
//! and assert that every node ends with exactly the right blocks.

use crate::algorithms::Algorithm;
use crate::bine::bine_broadcast;
use crate::cache::TreeCache;
use crate::schedule::PortModel;
use crate::tree::{MulticastTree, Unicast};
use hcube::{Cube, HcubeError, NodeId, Resolution, Topology};
use std::collections::HashMap;

/// Builds a broadcast (multicast to all `N − 1` other nodes) with the
/// given algorithm.
///
/// ```
/// use hcube::{Cube, NodeId, Resolution};
/// use hypercast::{collectives::broadcast, Algorithm, PortModel};
///
/// let t = broadcast(Algorithm::WSort, Cube::of(4), Resolution::HighToLow,
///                   PortModel::AllPort, NodeId(0))?;
/// assert_eq!(t.message_count(), 15);
/// assert_eq!(t.steps, 4); // the spanning binomial tree
/// # Ok::<(), hcube::HcubeError>(())
/// ```
///
/// # Errors
/// Propagates [`Algorithm::build`] errors (out-of-range source).
pub fn broadcast(
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    source: NodeId,
) -> Result<MulticastTree, HcubeError> {
    cube.check_node(source)?;
    let dests: Vec<NodeId> = cube.nodes().filter(|&v| v != source).collect();
    algo.build(cube, resolution, port_model, source, &dests)
}

/// A reduction (gather-with-combine) schedule: the mirror image of a
/// multicast tree.
#[derive(Clone, Debug)]
pub struct ReductionSchedule {
    /// The node at which contributions accumulate.
    pub root: NodeId,
    /// Constituent unicasts; `src` is the contributor, `dst` its tree
    /// parent. Sorted by step.
    pub unicasts: Vec<Unicast>,
    /// Total number of steps.
    pub steps: u32,
}

impl ReductionSchedule {
    /// Derives the reduction schedule from a multicast tree: every tree
    /// edge is reversed and its step mirrored (`t ↦ steps + 1 − t`), so a
    /// node transmits to its parent strictly after all of its children
    /// transmitted to it.
    #[must_use]
    pub fn from_multicast(tree: &MulticastTree) -> ReductionSchedule {
        let steps = tree.steps;
        let mut unicasts: Vec<Unicast> = tree
            .unicasts
            .iter()
            .map(|u| Unicast {
                src: u.dst,
                dst: u.src,
                step: steps + 1 - u.step,
                order: u.order,
            })
            .collect();
        unicasts.sort_by_key(|u| (u.step, u.src, u.order));
        ReductionSchedule {
            root: tree.source,
            unicasts,
            steps,
        }
    }

    /// Checks the combining constraint: every node sends to its parent
    /// only after hearing from all of its own children.
    #[must_use]
    pub fn is_causal(&self) -> bool {
        self.unicasts.iter().all(|up| {
            self.unicasts
                .iter()
                .filter(|down| down.dst == up.src)
                .all(|down| down.step < up.step)
        })
    }
}

/// A barrier schedule: reduce to the root, then broadcast from it.
#[derive(Clone, Debug)]
pub struct BarrierSchedule {
    /// Phase 1: all nodes report in.
    pub reduce: ReductionSchedule,
    /// Phase 2: the root releases everyone.
    pub release: MulticastTree,
}

impl BarrierSchedule {
    /// Total steps across both phases.
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.reduce.steps + self.release.steps
    }
}

/// A personalized-communication (scatter) schedule: the root sends a
/// *distinct* block to every destination, so a unicast to a subtree root
/// carries all of its subtree's blocks (extension beyond the paper,
/// following the personalized-communication line of its reference \[5]).
#[derive(Clone, Debug)]
pub struct ScatterSchedule {
    /// The underlying multicast tree (who forwards to whom, and when).
    pub tree: MulticastTree,
    /// Payload bytes carried by each unicast, parallel to
    /// `tree.unicasts`: `block_bytes × |subtree(dst)|`.
    pub bytes_per_edge: Vec<u64>,
}

impl ScatterSchedule {
    /// Total bytes injected by the root: exactly `m × block_bytes`
    /// regardless of tree shape (every block leaves the root once).
    #[must_use]
    pub fn root_bytes(&self) -> u64 {
        self.tree
            .unicasts
            .iter()
            .zip(&self.bytes_per_edge)
            .filter(|(u, _)| u.src == self.tree.source)
            .map(|(_, &b)| b)
            .sum()
    }

    /// Total bytes crossing all channels (forwarding inflation): deeper
    /// trees re-transmit blocks more often.
    #[must_use]
    pub fn network_bytes(&self) -> u64 {
        self.tree
            .unicasts
            .iter()
            .zip(&self.bytes_per_edge)
            .map(|(u, &b)| b * u64::from(u.src.distance(u.dst)))
            .sum()
    }
}

/// Builds a scatter schedule on `algo`'s multicast tree: each of the `m`
/// destinations is to receive its own `block_bytes`-byte block.
///
/// # Errors
/// Propagates [`Algorithm::build`] errors.
pub fn scatter(
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    source: NodeId,
    dests: &[NodeId],
    block_bytes: u32,
) -> Result<ScatterSchedule, HcubeError> {
    let tree = algo.build(cube, resolution, port_model, source, dests)?;
    // One post-order pass over the edge list; calling `reachable_set`
    // per unicast would re-walk the whole tree for every edge (O(V·E)).
    let bytes_per_edge = tree
        .subtree_sizes()
        .into_iter()
        .map(|s| u64::from(block_bytes) * s as u64)
        .collect();
    Ok(ScatterSchedule {
        tree,
        bytes_per_edge,
    })
}

/// A gather schedule: the inverse of [`scatter`] — every destination
/// owns a distinct `block_bytes` block and the blocks *concatenate*
/// toward the root, so an edge toward the root carries its subtree's
/// accumulated blocks.
#[derive(Clone, Debug)]
pub struct GatherSchedule {
    /// The node collecting all blocks.
    pub root: NodeId,
    /// Constituent unicasts (`src` = contributor side), sorted by step.
    pub unicasts: Vec<Unicast>,
    /// Payload bytes per unicast, parallel to `unicasts`.
    pub bytes_per_edge: Vec<u64>,
    /// Total steps.
    pub steps: u32,
}

/// Builds a concatenation gather on `algo`'s multicast tree, mirrored:
/// each participant sends once, after hearing from all of its own tree
/// children, carrying its subtree's blocks.
///
/// # Errors
/// Propagates [`Algorithm::build`] errors.
pub fn gather(
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    root: NodeId,
    sources: &[NodeId],
    block_bytes: u32,
) -> Result<GatherSchedule, HcubeError> {
    let tree = algo.build(cube, resolution, port_model, root, sources)?;
    let reduction = ReductionSchedule::from_multicast(&tree);
    // In the mirrored tree, the message from v to its parent carries v's
    // whole multicast subtree worth of blocks. A single post-order pass
    // sizes every subtree at once; the reduction reorders the edges, so
    // index the sizes by the receiving node of the original tree edge.
    let size_of: HashMap<NodeId, usize> = tree
        .unicasts
        .iter()
        .zip(tree.subtree_sizes())
        .map(|(u, s)| (u.dst, s))
        .collect();
    let bytes_per_edge = reduction
        .unicasts
        .iter()
        .map(|u| u64::from(block_bytes) * size_of[&u.src] as u64)
        .collect();
    Ok(GatherSchedule {
        root,
        unicasts: reduction.unicasts,
        bytes_per_edge,
        steps: reduction.steps,
    })
}

/// Builds the `N` broadcast trees of an all-to-all broadcast (allgather):
/// every node broadcasts its block to everyone, all operations running
/// concurrently. Feed the trees to
/// `wormsim::simulate_concurrent_multicasts` to measure the composite.
///
/// # Errors
/// Propagates [`Algorithm::build`] errors.
pub fn all_to_all_broadcast(
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
) -> Result<Vec<MulticastTree>, HcubeError> {
    cube.nodes()
        .map(|src| broadcast(algo, cube, resolution, port_model, src))
        .collect()
}

/// Builds a full-machine barrier at `root` using `algo` for both the
/// gather tree and the release broadcast.
///
/// # Errors
/// Propagates [`Algorithm::build`] errors.
pub fn barrier(
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    root: NodeId,
) -> Result<BarrierSchedule, HcubeError> {
    let release = broadcast(algo, cube, resolution, port_model, root)?;
    let reduce = ReductionSchedule::from_multicast(&release);
    Ok(BarrierSchedule { reduce, release })
}

/// A family of broadcast trees usable as the skeleton of a collective:
/// the paper's algorithms, or the Jacobsthal-distance bine tree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TreeFamily {
    /// One of the paper's tree-construction [`Algorithm`]s.
    Alg(Algorithm),
    /// The bine tree ([`crate::bine`]): ring-distance doubling, one send
    /// per node per step, so the port model is irrelevant to its shape.
    Bine,
}

impl TreeFamily {
    /// The families the collectives sweep compares on the hypercube.
    pub const SWEEP: [TreeFamily; 5] = [
        TreeFamily::Alg(Algorithm::UCube),
        TreeFamily::Alg(Algorithm::Maxport),
        TreeFamily::Alg(Algorithm::WSort),
        TreeFamily::Bine,
        TreeFamily::Alg(Algorithm::Separate),
    ];

    /// Display name used in tables and figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TreeFamily::Alg(a) => a.name(),
            TreeFamily::Bine => "Bine",
        }
    }

    /// Builds the family's broadcast tree from `source` to every other
    /// node. [`Algorithm`] trees go through `cache` when one is supplied
    /// (bine trees are cheap to build and bypass it).
    ///
    /// # Errors
    /// Propagates [`Algorithm::build`] / [`bine_broadcast`] errors.
    pub fn broadcast_tree(
        self,
        cube: Cube,
        resolution: Resolution,
        port_model: PortModel,
        source: NodeId,
        cache: Option<&mut TreeCache>,
    ) -> Result<MulticastTree, HcubeError> {
        match self {
            TreeFamily::Alg(algo) => match cache {
                Some(cache) => {
                    cube.check_node(source)?;
                    let dests: Vec<NodeId> = cube.nodes().filter(|&v| v != source).collect();
                    let tree =
                        cache.get_or_build(algo, cube, resolution, port_model, source, &dests)?;
                    Ok((*tree).clone())
                }
                None => broadcast(algo, cube, resolution, port_model, source),
            },
            TreeFamily::Bine => bine_broadcast(cube, resolution, source),
        }
    }
}

/// The collective operations of the full suite.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectiveKind {
    /// Every node ends with every node's block.
    Allgather,
    /// Every node ends with the reduction of segment `v` over all nodes.
    ReduceScatter,
    /// Every node ends with the full element-wise reduction.
    Allreduce,
}

impl CollectiveKind {
    /// All three collectives, in sweep order.
    pub const ALL: [CollectiveKind; 3] = [
        CollectiveKind::Allgather,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Allreduce,
    ];

    /// Display name used in tables and the sweep artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::ReduceScatter => "reduce-scatter",
            CollectiveKind::Allreduce => "allreduce",
        }
    }

    /// Builds this collective on `cube` from `family` trees built for
    /// `port`, `block_bytes` per node: [`allgather`],
    /// [`reduce_scatter`], or [`allreduce`] rooted at `root` (the other
    /// two have no root).
    ///
    /// # Errors
    /// As the function it dispatches to.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        self,
        family: TreeFamily,
        cube: Cube,
        resolution: Resolution,
        port: PortModel,
        root: NodeId,
        block_bytes: u32,
        cache: Option<&mut TreeCache>,
    ) -> Result<CollectiveSchedule, HcubeError> {
        match self {
            CollectiveKind::Allgather => {
                allgather(family, cube, resolution, port, block_bytes, cache)
            }
            CollectiveKind::ReduceScatter => {
                reduce_scatter(family, cube, resolution, port, block_bytes, cache)
            }
            CollectiveKind::Allreduce => {
                allreduce(family, cube, resolution, port, root, block_bytes, cache)
            }
        }
    }

    /// This collective as direct exchanges on any topology:
    /// [`allgather_separate`], [`reduce_scatter_separate`], or
    /// [`allreduce_separate`] rooted at `root`.
    ///
    /// # Panics
    /// As the function it dispatches to.
    #[must_use]
    pub fn build_separate<T: Topology>(
        self,
        topo: &T,
        root: NodeId,
        block_bytes: u32,
    ) -> CollectiveSchedule {
        match self {
            CollectiveKind::Allgather => allgather_separate(topo, block_bytes),
            CollectiveKind::ReduceScatter => reduce_scatter_separate(topo, block_bytes),
            CollectiveKind::Allreduce => allreduce_separate(topo, root, block_bytes),
        }
    }
}

/// Which data segments a collective unicast carries. Buffers are modeled
/// as `N` equal segments, one per node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segments {
    /// A single segment, identified by the owning node's id.
    One(u32),
    /// The whole `N`-segment vector (allreduce phases).
    All,
}

/// What the receiver does with an arriving payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transfer {
    /// Replace the receiver's segment(s) with the sender's (broadcast
    /// and allgather data movement).
    Copy,
    /// Element-wise combine into the receiver's segment(s) (reduction
    /// data movement).
    Combine,
}

/// One unicast of a [`CollectiveSchedule`], annotated with the data it
/// moves and the operations it must wait for.
#[derive(Clone, Debug)]
pub struct CollectiveOp {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// 1-based schedule step (concurrent trees share the step axis).
    pub step: u32,
    /// The segment(s) carried.
    pub segments: Segments,
    /// Combine or copy at the receiver.
    pub transfer: Transfer,
    /// Indices (into the schedule's `ops`) whose payloads must have
    /// arrived at `src` before this op can issue.
    pub deps: Vec<usize>,
    /// Payload bytes.
    pub bytes: u32,
}

/// A complete collective schedule: an explicit DAG of annotated unicasts
/// that the [data oracle](crate::oracle) can replay symbolically and the
/// wormhole engine can execute as a dependency workload.
#[derive(Clone, Debug)]
pub struct CollectiveSchedule {
    /// Which collective this schedule implements.
    pub kind: CollectiveKind,
    /// Number of participating nodes (= number of buffer segments).
    pub nodes: u32,
    /// Bytes per segment.
    pub block_bytes: u32,
    /// Total steps (max over concurrent trees / phases).
    pub steps: u32,
    /// The constituent unicasts, sorted by `(step, src)`.
    pub ops: Vec<CollectiveOp>,
}

impl CollectiveSchedule {
    /// Total payload bytes injected across all constituent unicasts.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.ops.iter().map(|op| u64::from(op.bytes)).sum()
    }
}

/// The whole-vector payload of an allreduce phase, in bytes.
fn full_vector_bytes(nodes: u32, block_bytes: u32) -> u32 {
    u32::try_from(u64::from(nodes) * u64::from(block_bytes))
        .expect("allreduce vector exceeds u32 bytes")
}

/// Builds an allgather: `N` concurrent broadcast trees of `family`, one
/// rooted at each node, each moving its root's block to everyone.
///
/// # Errors
/// Propagates [`TreeFamily::broadcast_tree`] errors.
pub fn allgather(
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    block_bytes: u32,
    mut cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, HcubeError> {
    let mut ops = Vec::new();
    let mut steps = 0;
    for src in cube.nodes() {
        let tree =
            family.broadcast_tree(cube, resolution, port_model, src, cache.as_deref_mut())?;
        steps = steps.max(tree.steps);
        // Within one tree a forwarder depends on the op that delivered
        // the block to it; `unicasts` is step-sorted, so the inbound op
        // is always indexed before its dependents.
        let mut inbound: HashMap<NodeId, usize> = HashMap::new();
        for u in &tree.unicasts {
            let deps = inbound.get(&u.src).map_or_else(Vec::new, |&i| vec![i]);
            let idx = ops.len();
            ops.push(CollectiveOp {
                src: u.src,
                dst: u.dst,
                step: u.step,
                segments: Segments::One(src.0),
                transfer: Transfer::Copy,
                deps,
                bytes: block_bytes,
            });
            inbound.insert(u.dst, idx);
        }
    }
    Ok(CollectiveSchedule {
        kind: CollectiveKind::Allgather,
        nodes: cube.node_count() as u32,
        block_bytes,
        steps,
        ops,
    })
}

/// Builds a reduce-scatter: `N` concurrent mirrored reductions of
/// `family`'s trees, the one rooted at `r` combining everyone's segment
/// `r` toward node `r`.
///
/// # Errors
/// Propagates [`TreeFamily::broadcast_tree`] errors.
pub fn reduce_scatter(
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    block_bytes: u32,
    mut cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, HcubeError> {
    let mut ops = Vec::new();
    let mut steps = 0;
    for root in cube.nodes() {
        let tree =
            family.broadcast_tree(cube, resolution, port_model, root, cache.as_deref_mut())?;
        let red = ReductionSchedule::from_multicast(&tree);
        steps = steps.max(red.steps);
        // A contributor combines all of its children's payloads before
        // sending; the mirror construction makes those arrive at
        // strictly earlier steps (`is_causal`), hence earlier indices.
        let mut inbound: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for u in &red.unicasts {
            let deps = inbound.get(&u.src).cloned().unwrap_or_default();
            let idx = ops.len();
            ops.push(CollectiveOp {
                src: u.src,
                dst: u.dst,
                step: u.step,
                segments: Segments::One(root.0),
                transfer: Transfer::Combine,
                deps,
                bytes: block_bytes,
            });
            inbound.entry(u.dst).or_default().push(idx);
        }
    }
    Ok(CollectiveSchedule {
        kind: CollectiveKind::ReduceScatter,
        nodes: cube.node_count() as u32,
        block_bytes,
        steps,
        ops,
    })
}

/// Builds an allreduce: reduce the whole vector to `root` along
/// `family`'s mirrored tree, then broadcast the result back along the
/// same tree. Both phases carry the full `N × block_bytes` vector.
///
/// # Errors
/// Propagates [`TreeFamily::broadcast_tree`] errors.
///
/// # Panics
/// If the full vector exceeds `u32::MAX` bytes.
pub fn allreduce(
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    root: NodeId,
    block_bytes: u32,
    cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, HcubeError> {
    let nodes = cube.node_count() as u32;
    let full = full_vector_bytes(nodes, block_bytes);
    let tree = family.broadcast_tree(cube, resolution, port_model, root, cache)?;
    let red = ReductionSchedule::from_multicast(&tree);
    let mut ops = Vec::with_capacity(2 * tree.unicasts.len());
    let mut inbound_red: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for u in &red.unicasts {
        let deps = inbound_red.get(&u.src).cloned().unwrap_or_default();
        let idx = ops.len();
        ops.push(CollectiveOp {
            src: u.src,
            dst: u.dst,
            step: u.step,
            segments: Segments::All,
            transfer: Transfer::Combine,
            deps,
            bytes: full,
        });
        inbound_red.entry(u.dst).or_default().push(idx);
    }
    // Phase 2: the root's sends wait for the entire reduction to reach
    // it; every other forwarder waits for its own broadcast delivery.
    let root_deps = inbound_red.remove(&root).unwrap_or_default();
    let mut inbound_bcast: HashMap<NodeId, usize> = HashMap::new();
    for u in &tree.unicasts {
        let deps = if u.src == root {
            root_deps.clone()
        } else {
            vec![inbound_bcast[&u.src]]
        };
        let idx = ops.len();
        ops.push(CollectiveOp {
            src: u.src,
            dst: u.dst,
            step: red.steps + u.step,
            segments: Segments::All,
            transfer: Transfer::Copy,
            deps,
            bytes: full,
        });
        inbound_bcast.insert(u.dst, idx);
    }
    Ok(CollectiveSchedule {
        kind: CollectiveKind::Allreduce,
        nodes,
        block_bytes,
        steps: red.steps + tree.steps,
        ops,
    })
}

/// Builds a separate-addressing allgather on *any* topology: every node
/// sends its block directly to every other node in one step. This is the
/// baseline the torus rows of the collectives sweep use.
pub fn allgather_separate<T: Topology>(topo: &T, block_bytes: u32) -> CollectiveSchedule {
    let nodes = topo.node_count() as u32;
    let mut ops = Vec::with_capacity((nodes as usize) * (nodes as usize - 1));
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                ops.push(CollectiveOp {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    step: 1,
                    segments: Segments::One(src),
                    transfer: Transfer::Copy,
                    deps: Vec::new(),
                    bytes: block_bytes,
                });
            }
        }
    }
    CollectiveSchedule {
        kind: CollectiveKind::Allgather,
        nodes,
        block_bytes,
        steps: 1,
        ops,
    }
}

/// Builds a separate-addressing reduce-scatter on *any* topology: every
/// node sends segment `r` directly to node `r`, which combines the
/// `N − 1` arrivals with its own segment.
pub fn reduce_scatter_separate<T: Topology>(topo: &T, block_bytes: u32) -> CollectiveSchedule {
    let nodes = topo.node_count() as u32;
    let mut ops = Vec::with_capacity((nodes as usize) * (nodes as usize - 1));
    for src in 0..nodes {
        for root in 0..nodes {
            if src != root {
                ops.push(CollectiveOp {
                    src: NodeId(src),
                    dst: NodeId(root),
                    step: 1,
                    segments: Segments::One(root),
                    transfer: Transfer::Combine,
                    deps: Vec::new(),
                    bytes: block_bytes,
                });
            }
        }
    }
    CollectiveSchedule {
        kind: CollectiveKind::ReduceScatter,
        nodes,
        block_bytes,
        steps: 1,
        ops,
    }
}

/// Builds a separate-addressing allreduce on *any* topology: all nodes
/// send their full vector to `root` (which combines), then `root` sends
/// the result back to everyone.
///
/// # Panics
/// If `root` is outside the topology, or the full vector exceeds
/// `u32::MAX` bytes.
pub fn allreduce_separate<T: Topology>(
    topo: &T,
    root: NodeId,
    block_bytes: u32,
) -> CollectiveSchedule {
    let nodes = topo.node_count() as u32;
    assert!(root.0 < nodes, "allreduce root {root} outside the topology");
    let full = full_vector_bytes(nodes, block_bytes);
    let mut ops = Vec::with_capacity(2 * (nodes as usize - 1));
    for src in 0..nodes {
        if src != root.0 {
            ops.push(CollectiveOp {
                src: NodeId(src),
                dst: root,
                step: 1,
                segments: Segments::All,
                transfer: Transfer::Combine,
                deps: Vec::new(),
                bytes: full,
            });
        }
    }
    let gather_deps: Vec<usize> = (0..ops.len()).collect();
    for dst in 0..nodes {
        if dst != root.0 {
            ops.push(CollectiveOp {
                src: root,
                dst: NodeId(dst),
                step: 2,
                segments: Segments::All,
                transfer: Transfer::Copy,
                deps: gather_deps.clone(),
                bytes: full,
            });
        }
    }
    CollectiveSchedule {
        kind: CollectiveKind::Allreduce,
        nodes,
        block_bytes,
        steps: 2,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_every_node() {
        for algo in Algorithm::PAPER {
            let t = broadcast(
                algo,
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(5),
            )
            .unwrap();
            for v in Cube::of(4).nodes() {
                if v != NodeId(5) {
                    assert!(t.recv_step(v).is_some(), "{algo} missed {v}");
                }
            }
            assert_eq!(t.message_count(), 15);
        }
    }

    #[test]
    fn reduction_mirrors_the_tree() {
        let t = broadcast(
            Algorithm::WSort,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let r = ReductionSchedule::from_multicast(&t);
        assert_eq!(r.root, NodeId(0));
        assert_eq!(r.unicasts.len(), t.unicasts.len());
        assert_eq!(r.steps, t.steps);
        assert!(r.is_causal());
        // Every multicast edge appears reversed.
        for u in &t.unicasts {
            assert!(r
                .unicasts
                .iter()
                .any(|v| v.src == u.dst && v.dst == u.src && v.step == t.steps + 1 - u.step));
        }
    }

    #[test]
    fn reduction_is_causal_for_every_algorithm_and_port_model() {
        for algo in Algorithm::ALL {
            for port in [PortModel::OnePort, PortModel::AllPort] {
                let t = algo
                    .build(
                        Cube::of(4),
                        Resolution::HighToLow,
                        port,
                        NodeId(2),
                        &[NodeId(1), NodeId(7), NodeId(9), NodeId(14)],
                    )
                    .unwrap();
                let r = ReductionSchedule::from_multicast(&t);
                assert!(r.is_causal(), "{algo} {port:?}");
            }
        }
    }

    #[test]
    fn barrier_steps_are_the_sum_of_phases() {
        let b = barrier(
            Algorithm::WSort,
            Cube::of(4),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        assert_eq!(b.steps(), b.reduce.steps + b.release.steps);
        assert!(b.reduce.is_causal());
    }

    #[test]
    fn gather_mirrors_scatter() {
        let sources: Vec<NodeId> = (1..16).map(NodeId).collect();
        let g = gather(
            Algorithm::WSort,
            Cube::of(4),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &sources,
            1024,
        )
        .unwrap();
        assert_eq!(g.unicasts.len(), 15);
        // Edges arriving at the root carry, in total, every block.
        let into_root: u64 = g
            .unicasts
            .iter()
            .zip(&g.bytes_per_edge)
            .filter(|(u, _)| u.dst == NodeId(0))
            .map(|(_, &b)| b)
            .sum();
        assert_eq!(into_root, 15 * 1024);
        // Leaf contributors send exactly one block.
        for (u, &b) in g.unicasts.iter().zip(&g.bytes_per_edge) {
            assert!(b >= 1024);
            assert_eq!(b % 1024, 0);
            let _ = u;
        }
    }

    #[test]
    fn all_to_all_produces_one_tree_per_node() {
        let trees = all_to_all_broadcast(
            Algorithm::WSort,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
        )
        .unwrap();
        assert_eq!(trees.len(), 8);
        for (i, t) in trees.iter().enumerate() {
            assert_eq!(t.source, NodeId(i as u32));
            assert_eq!(t.message_count(), 7);
        }
    }

    #[test]
    fn scatter_edge_bytes_cover_subtrees() {
        let dests: Vec<NodeId> = (1..16).map(NodeId).collect();
        let s = scatter(
            Algorithm::WSort,
            Cube::of(4),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dests,
            1024,
        )
        .unwrap();
        // The root injects every block exactly once.
        assert_eq!(s.root_bytes(), 15 * 1024);
        // Leaves receive exactly one block.
        for (u, &b) in s.tree.unicasts.iter().zip(&s.bytes_per_edge) {
            let subtree = s.tree.reachable_set(u.dst).len() as u64;
            assert_eq!(b, subtree * 1024);
            assert!(b >= 1024);
        }
        // Forwarding inflates network bytes beyond the root's injection.
        assert!(s.network_bytes() >= s.root_bytes());
    }

    #[test]
    fn scatter_separate_addressing_has_no_forwarding_inflation() {
        // Under separate addressing, each block travels directly: edge
        // bytes are exactly one block each.
        let dests: Vec<NodeId> = (1..8).map(NodeId).collect();
        let s = scatter(
            Algorithm::Separate,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dests,
            512,
        )
        .unwrap();
        assert!(s.bytes_per_edge.iter().all(|&b| b == 512));
    }

    #[test]
    fn scatter_and_gather_bytes_match_the_per_edge_reachable_sets() {
        // Regression for the O(V·E) fix: the single post-order pass must
        // reproduce, byte for byte, what per-unicast `reachable_set`
        // calls computed before.
        for algo in Algorithm::ALL {
            for resolution in [Resolution::HighToLow, Resolution::LowToHigh] {
                let dests: Vec<NodeId> =
                    [3u32, 5, 6, 9, 10, 12, 15, 17, 23, 30].map(NodeId).to_vec();
                let s = scatter(
                    algo,
                    Cube::of(5),
                    resolution,
                    PortModel::AllPort,
                    NodeId(1),
                    &dests,
                    640,
                )
                .unwrap();
                for (u, &b) in s.tree.unicasts.iter().zip(&s.bytes_per_edge) {
                    let old = 640 * s.tree.reachable_set(u.dst).len() as u64;
                    assert_eq!(b, old, "{algo} {resolution:?} scatter {u:?}");
                }
                let g = gather(
                    algo,
                    Cube::of(5),
                    resolution,
                    PortModel::AllPort,
                    NodeId(1),
                    &dests,
                    640,
                )
                .unwrap();
                let tree = algo
                    .build(
                        Cube::of(5),
                        resolution,
                        PortModel::AllPort,
                        NodeId(1),
                        &dests,
                    )
                    .unwrap();
                for (u, &b) in g.unicasts.iter().zip(&g.bytes_per_edge) {
                    let old = 640 * tree.reachable_set(u.src).len() as u64;
                    assert_eq!(b, old, "{algo} {resolution:?} gather {u:?}");
                }
            }
        }
    }

    #[test]
    fn allgather_has_one_op_per_tree_edge() {
        for family in TreeFamily::SWEEP {
            let s = allgather(
                family,
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                256,
                None,
            )
            .unwrap();
            assert_eq!(s.ops.len(), 16 * 15, "{}", family.name());
            assert_eq!(s.payload_bytes(), 16 * 15 * 256, "{}", family.name());
            assert!(s.steps >= 1);
            // Dependencies always point backwards (a valid DAG order).
            for (i, op) in s.ops.iter().enumerate() {
                assert!(op.deps.iter().all(|&d| d < i));
            }
        }
    }

    #[test]
    fn reduce_scatter_combines_toward_every_root() {
        let s = reduce_scatter(
            TreeFamily::Alg(Algorithm::WSort),
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            512,
            None,
        )
        .unwrap();
        assert_eq!(s.ops.len(), 8 * 7);
        for root in 0..8u32 {
            // Segment `root` flows only toward node `root` and every
            // non-root node sends it exactly once.
            let seg_ops: Vec<_> = s
                .ops
                .iter()
                .filter(|op| op.segments == Segments::One(root))
                .collect();
            assert_eq!(seg_ops.len(), 7);
            assert!(seg_ops.iter().all(|op| op.transfer == Transfer::Combine));
        }
    }

    #[test]
    fn allreduce_runs_reduce_then_broadcast() {
        let s = allreduce(
            TreeFamily::Bine,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(2),
            128,
            None,
        )
        .unwrap();
        assert_eq!(s.ops.len(), 2 * 7);
        assert_eq!(s.steps, 6); // 3 reduce + 3 broadcast steps
        assert!(s.ops.iter().all(|op| op.bytes == 8 * 128));
        // The root's first broadcast send depends on all 7 reduce ops
        // that terminate at it transitively; directly, on its inbound.
        let first_bcast = s
            .ops
            .iter()
            .find(|op| op.transfer == Transfer::Copy && op.src == NodeId(2))
            .unwrap();
        assert!(!first_bcast.deps.is_empty());
    }

    #[test]
    fn separate_builders_work_on_any_topology() {
        let torus = hcube::Torus::of(3, 2); // 3-ary 2-cube: 9 nodes
        let ag = allgather_separate(&torus, 64);
        assert_eq!(ag.nodes, 9);
        assert_eq!(ag.ops.len(), 9 * 8);
        assert_eq!(ag.steps, 1);
        let rs = reduce_scatter_separate(&torus, 64);
        assert_eq!(rs.ops.len(), 9 * 8);
        let ar = allreduce_separate(&torus, NodeId(0), 64);
        assert_eq!(ar.ops.len(), 2 * 8);
        assert_eq!(ar.steps, 2);
        assert!(ar.ops.iter().all(|op| op.bytes == 9 * 64));
        // Broadcast-phase ops wait on the whole gather phase.
        assert!(ar.ops[8..].iter().all(|op| op.deps.len() == 8));
    }

    #[test]
    fn tree_families_share_the_cache_for_algorithm_trees() {
        let mut cache = TreeCache::new(64);
        let cube = Cube::of(3);
        for _ in 0..2 {
            allgather(
                TreeFamily::Alg(Algorithm::WSort),
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                64,
                Some(&mut cache),
            )
            .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 8); // one build per root, first pass only
        assert_eq!(stats.hits, 8); // second pass entirely cached
    }

    #[test]
    fn empty_reduction_from_trivial_tree() {
        let t = Algorithm::UCube
            .build(
                Cube::of(3),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &[],
            )
            .unwrap();
        let r = ReductionSchedule::from_multicast(&t);
        assert!(r.unicasts.is_empty());
        assert_eq!(r.steps, 0);
        assert!(r.is_causal());
    }
}
