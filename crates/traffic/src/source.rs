//! Session sources: what one session of an open-loop run sends, and on
//! which network (see [`Source`]), plus the multicast sources and the
//! layout helpers they share.

use crate::engine::TrafficSpec;
use crate::patterns::DestPattern;
use hcube::{Cube, Ecube, NodeId, Resolution, Router};
use hypercast::{Algorithm, MulticastTree, NetworkFaults, PortModel, TreeCache};
use rand::rngs::StdRng;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;
use wormsim::{DepMessage, SimTime};

/// A session's messages laid out in the shared workload.
#[derive(Clone, Debug)]
pub struct SessionSpan {
    pub(crate) arrival: SimTime,
    pub(crate) range: Range<usize>,
    /// The destination of each message, in workload order.
    pub(crate) dests: Vec<NodeId>,
    /// Whether the session's tree came out of the [`TreeCache`]; `None`
    /// when the session looks nothing up.
    pub(crate) cache_hit: Option<bool>,
}

/// One chaos attempt's slice of a wave workload: its message range, how
/// many requested destinations its tree could not cover, and whether
/// its tree came out of the cache (`None`: no lookup).
pub struct WaveSpan {
    pub(crate) range: Range<usize>,
    pub(crate) missing: usize,
    pub(crate) cache_hit: Option<bool>,
}

/// What one session of an open-loop run sends, and on which router.
///
/// The paper's evaluation holds one wormhole network fixed and varies
/// only how a multicast is split into unicasts: a tree algorithm or
/// separate addressing. A source is that one axis. It owns the three
/// decisions every traffic run makes: which [`Router`] carries the run,
/// how one session is laid out into [`DepMessage`]s, and whether the
/// session looks its tree up in the run's [`TreeCache`]. It carries no
/// port model: the run passes its `params.port_model` in, so trees are
/// always built for the port model the engine simulates. There are
/// four:
///
/// * [`CubeTrees`] — one multicast per session, built by an
///   [`Algorithm`] through the cache and replayed on [`Ecube`];
/// * [`Separate`] — one multicast per session as one independent unicast
///   per destination, on any router (no tree, no cache);
/// * [`CubeCollective`](crate::CubeCollective) — one full-machine
///   collective per session, its trees from a
///   [`TreeFamily`](hypercast::TreeFamily) on [`Ecube`];
/// * [`SeparateCollective`](crate::SeparateCollective) — one
///   full-machine collective per session as direct exchanges, on any
///   router.
///
/// The first two are [`Multicast`] sources: each session is a single
/// multicast the chaos engine can retry, so only they run under churn
/// ([`run_chaos`](crate::run_chaos) is bounded on [`Multicast`]).
///
/// Sources are sealed: their layout methods name crate-private types,
/// so they can be used but not implemented outside this crate.
pub trait Source {
    /// The router every message of the run travels on.
    type Router: Router + Copy;

    /// The router the run executes on.
    fn router(&self) -> Self::Router;

    /// Lays out session `i`, arriving at `arrival`: draws its
    /// destinations from `rng` (sources that draw any), builds its trees
    /// for `port` (sources that build any), appends its messages to
    /// `workload` with `min_start = arrival`, and returns its span.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn session(
        &self,
        spec: &TrafficSpec,
        port: PortModel,
        rng: &mut StdRng,
        i: usize,
        arrival: SimTime,
        cache: &mut TreeCache,
        workload: &mut Vec<DepMessage>,
    ) -> SessionSpan;
}

/// A [`Source`] whose sessions are single multicasts, so the chaos
/// engine can draw them up front and retry each one.
pub trait Multicast: Source {
    /// Draws one session's `(source, destinations)` from the pattern.
    #[doc(hidden)]
    fn draw(&self, pattern: &DestPattern, rng: &mut StdRng) -> (NodeId, Vec<NodeId>);

    /// Lays out attempt `number` of a drawn session at `launch`, its
    /// tree built for `port`. The first attempt replays the pristine
    /// tree; retries are repaired against `faults`.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        draw: &(NodeId, Vec<NodeId>),
        port: PortModel,
        number: u32,
        faults: &NetworkFaults,
        cache: &mut TreeCache,
        bytes: u32,
        launch: SimTime,
        workload: &mut Vec<DepMessage>,
    ) -> WaveSpan;
}

/// Tree multicast on the hypercube: every session builds (or
/// cache-hits) an `algo` tree for the run's port model and replays it
/// on E-cube routing.
#[derive(Clone, Copy, Debug)]
pub struct CubeTrees {
    /// The hypercube.
    pub cube: Cube,
    /// E-cube dimension order.
    pub resolution: Resolution,
    /// The tree algorithm.
    pub algo: Algorithm,
}

impl CubeTrees {
    /// Trees of `algo` on `cube`.
    #[must_use]
    pub fn new(cube: Cube, resolution: Resolution, algo: Algorithm) -> CubeTrees {
        CubeTrees {
            cube,
            resolution,
            algo,
        }
    }

    /// The session's tree for `port` through the cache (repaired
    /// against `faults` when given) and whether the lookup hit.
    fn tree(
        &self,
        cache: &mut TreeCache,
        port: PortModel,
        source: NodeId,
        dests: &[NodeId],
        faults: Option<&NetworkFaults>,
    ) -> (Arc<MulticastTree>, bool) {
        let (algo, cube, res) = (self.algo, self.cube, self.resolution);
        let before = cache.stats();
        let tree = match faults {
            None => cache.get_or_build(algo, cube, res, port, source, dests),
            Some(f) => cache.get_or_build_repaired(algo, cube, res, port, source, dests, f),
        }
        .expect("traffic destination draw produced an invalid multicast");
        (tree, cache.stats().since(before).hits > 0)
    }
}

impl Source for CubeTrees {
    type Router = Ecube;

    fn router(&self) -> Ecube {
        Ecube::new(self.cube, self.resolution)
    }

    fn session(
        &self,
        spec: &TrafficSpec,
        port: PortModel,
        rng: &mut StdRng,
        _i: usize,
        arrival: SimTime,
        cache: &mut TreeCache,
        workload: &mut Vec<DepMessage>,
    ) -> SessionSpan {
        let (source, dests) = self.draw(&spec.pattern, rng);
        let (tree, hit) = self.tree(cache, port, source, &dests, None);
        SessionSpan {
            arrival,
            range: push_tree(workload, &tree, spec.bytes, arrival),
            // Deliveries are attributed in tree (unicast) order.
            dests: tree.unicasts.iter().map(|u| u.dst).collect(),
            cache_hit: Some(hit),
        }
    }
}

impl Multicast for CubeTrees {
    fn draw(&self, pattern: &DestPattern, rng: &mut StdRng) -> (NodeId, Vec<NodeId>) {
        pattern.draw_cube(rng, self.cube)
    }

    fn attempt(
        &self,
        (source, dests): &(NodeId, Vec<NodeId>),
        port: PortModel,
        number: u32,
        faults: &NetworkFaults,
        cache: &mut TreeCache,
        bytes: u32,
        launch: SimTime,
        workload: &mut Vec<DepMessage>,
    ) -> WaveSpan {
        // End-to-end fault detection: the first attempt always replays
        // the pristine tree (the source has not yet learned of any
        // fault).
        let faults = (number > 1).then_some(faults);
        let (tree, hit) = self.tree(cache, port, *source, dests, faults);
        let range = push_tree(workload, &tree, bytes, launch);
        // Coverage check: which requested destinations does the
        // (possibly repaired) tree actually reach?
        let covered: BTreeSet<NodeId> = tree.unicasts.iter().map(|u| u.dst).collect();
        WaveSpan {
            range,
            missing: dests.iter().filter(|d| !covered.contains(d)).count(),
            cache_hit: Some(hit),
        }
    }
}

/// Separate addressing on any router: every session sends one
/// independent unicast per destination. This is the torus and mesh
/// backend — the paper's tree algorithms are hypercube-specific — and
/// the chaos baseline, whose retries resend unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Separate<R>(pub R);

impl<R: Router + Copy> Source for Separate<R> {
    type Router = R;

    fn router(&self) -> R {
        self.0
    }

    fn session(
        &self,
        spec: &TrafficSpec,
        _port: PortModel,
        rng: &mut StdRng,
        _i: usize,
        arrival: SimTime,
        _cache: &mut TreeCache,
        workload: &mut Vec<DepMessage>,
    ) -> SessionSpan {
        let (source, dests) = self.draw(&spec.pattern, rng);
        SessionSpan {
            arrival,
            range: push_unicasts(workload, source, &dests, spec.bytes, arrival),
            dests,
            cache_hit: None,
        }
    }
}

impl<R: Router + Copy> Multicast for Separate<R> {
    /// # Panics
    /// On [`DestPattern::SubcubeBiased`] (hypercube-only; see
    /// [`DestPattern::is_topology_generic`]).
    fn draw(&self, pattern: &DestPattern, rng: &mut StdRng) -> (NodeId, Vec<NodeId>) {
        pattern.draw_on(rng, &self.0.topology())
    }

    fn attempt(
        &self,
        (source, dests): &(NodeId, Vec<NodeId>),
        _port: PortModel,
        _number: u32,
        _faults: &NetworkFaults,
        _cache: &mut TreeCache,
        bytes: u32,
        launch: SimTime,
        workload: &mut Vec<DepMessage>,
    ) -> WaveSpan {
        WaveSpan {
            range: push_unicasts(workload, *source, dests, bytes, launch),
            missing: 0,
            cache_hit: None,
        }
    }
}

/// Appends one tree's unicasts to `workload` (deps offset to the
/// session's base, `min_start` = `at`).
fn push_tree(
    workload: &mut Vec<DepMessage>,
    tree: &MulticastTree,
    bytes: u32,
    at: SimTime,
) -> Range<usize> {
    let base = workload.len();
    let mut inbound: HashMap<NodeId, usize> = HashMap::new();
    for (i, u) in tree.unicasts.iter().enumerate() {
        inbound.insert(u.dst, base + i);
    }
    for u in &tree.unicasts {
        workload.push(DepMessage {
            src: u.src,
            dst: u.dst,
            bytes,
            deps: inbound.get(&u.src).map(|&i| vec![i]).unwrap_or_default(),
            min_start: at,
        });
    }
    base..workload.len()
}

/// Appends one independent unicast per destination to `workload`.
fn push_unicasts(
    workload: &mut Vec<DepMessage>,
    source: NodeId,
    dests: &[NodeId],
    bytes: u32,
    at: SimTime,
) -> Range<usize> {
    let base = workload.len();
    for &dst in dests {
        workload.push(DepMessage {
            src: source,
            dst,
            bytes,
            deps: vec![],
            min_start: at,
        });
    }
    base..workload.len()
}
