//! Open-loop *collective* traffic: sources whose every session is one
//! full-machine collective operation instead of a single multicast.
//!
//! Each session rebuilds its [`CollectiveSchedule`] — allgather and
//! reduce-scatter re-derive all `N` constituent trees, allreduce the one
//! tree of its (rotating) root. The assembled workload runs under the
//! same windowed engine as plain multicast traffic, so reports are
//! directly comparable.

use crate::engine::TrafficSpec;
use crate::source::{SessionSpan, Source};
use hcube::{Cube, Ecube, NodeId, Resolution, Router, Topology};
use hypercast::{CollectiveKind, CollectiveSchedule, PortModel, TreeCache, TreeFamily};
use rand::rngs::StdRng;
use wormsim::{DepMessage, SimTime};

/// Full-machine collectives on the hypercube: every session is one
/// `kind` collective built from `family` trees for the run's port
/// model. The spec's
/// `bytes` is the per-node block size and allreduce roots rotate
/// round-robin across sessions. Algorithm-family trees go through the
/// run's cache, so after the first session they are pointer-clone hits;
/// bine trees are built directly (they are cheaper to construct than to
/// cache).
#[derive(Clone, Copy, Debug)]
pub struct CubeCollective {
    /// The hypercube.
    pub cube: Cube,
    /// E-cube dimension order.
    pub resolution: Resolution,
    /// The collective every session runs.
    pub kind: CollectiveKind,
    /// The tree family its schedules are built from.
    pub family: TreeFamily,
}

impl Source for CubeCollective {
    type Router = Ecube;

    fn router(&self) -> Ecube {
        Ecube::new(self.cube, self.resolution)
    }

    /// # Panics
    /// If a schedule build fails — impossible for full-machine
    /// collectives on a valid cube (every node is a legal source).
    fn session(
        &self,
        spec: &TrafficSpec,
        port: PortModel,
        _rng: &mut StdRng,
        i: usize,
        arrival: SimTime,
        cache: &mut TreeCache,
        workload: &mut Vec<DepMessage>,
    ) -> SessionSpan {
        let (family, cube, res) = (self.family, self.cube, self.resolution);
        let before = cache.stats();
        let root = NodeId(i as u32 % cube.node_count() as u32);
        let sched = (self.kind)
            .build(family, cube, res, port, root, spec.bytes, Some(cache))
            .expect("full-machine collectives cannot fail to build");
        let cache_hit =
            matches!(family, TreeFamily::Alg(_)).then(|| cache.stats().since(before).hits > 0);
        push_collective(workload, &sched, arrival, cache_hit)
    }
}

/// Full-machine collectives as direct exchanges on any router (the
/// torus backend): no trees, no cache. Allreduce roots rotate
/// round-robin across sessions.
#[derive(Clone, Copy, Debug)]
pub struct SeparateCollective<R> {
    /// The router the exchanges travel on.
    pub router: R,
    /// The collective every session runs.
    pub kind: CollectiveKind,
}

impl<R: Router + Copy> Source for SeparateCollective<R> {
    type Router = R;

    fn router(&self) -> R {
        self.router
    }

    /// # Panics
    /// If the topology has fewer than two nodes.
    fn session(
        &self,
        spec: &TrafficSpec,
        _port: PortModel,
        _rng: &mut StdRng,
        i: usize,
        arrival: SimTime,
        _cache: &mut TreeCache,
        workload: &mut Vec<DepMessage>,
    ) -> SessionSpan {
        let topo = self.router.topology();
        let root = NodeId(i as u32 % topo.node_count() as u32);
        let sched = self.kind.build_separate(&topo, root, spec.bytes);
        push_collective(workload, &sched, arrival, None)
    }
}

/// Appends one collective session to `workload` — one message per op,
/// dependency indices offset to the session's base — and returns its
/// span.
fn push_collective(
    workload: &mut Vec<DepMessage>,
    sched: &CollectiveSchedule,
    arrival: SimTime,
    cache_hit: Option<bool>,
) -> SessionSpan {
    let base = workload.len();
    for op in &sched.ops {
        workload.push(DepMessage {
            src: op.src,
            dst: op.dst,
            bytes: op.bytes,
            deps: op.deps.iter().map(|&d| base + d).collect(),
            min_start: arrival,
        });
    }
    SessionSpan {
        arrival,
        range: base..workload.len(),
        dests: sched.ops.iter().map(|op| op.dst).collect(),
        cache_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, Arrivals};
    use crate::engine::{assemble, run};
    use crate::patterns::DestPattern;
    use hcube::{Torus, TorusRouter};
    use hypercast::Algorithm;
    use wormsim::{EngineScratch, SimParams};

    fn spec(sessions: usize) -> TrafficSpec {
        let mut s = TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, 0.05),
            DestPattern::UniformRandom { m: 6 },
            sessions,
            7,
        );
        s.bytes = 256;
        s
    }

    fn collective(dim: u8, kind: CollectiveKind, family: TreeFamily) -> CubeCollective {
        CubeCollective {
            cube: Cube::of(dim),
            resolution: Resolution::HighToLow,
            kind,
            family,
        }
    }

    #[test]
    fn collective_traffic_is_deterministic() {
        let params = SimParams::ncube2(PortModel::AllPort);
        for kind in CollectiveKind::ALL {
            let source = collective(4, kind, TreeFamily::Alg(Algorithm::WSort));
            let a = run(&spec(12), &source, &params, &mut EngineScratch::new());
            let b = run(&spec(12), &source, &params, &mut EngineScratch::new());
            assert_eq!(a.latency.mean, b.latency.mean, "{}", kind.name());
            assert_eq!(a.completed_measured, b.completed_measured);
            assert_eq!(a.net.makespan, b.net.makespan);
        }
    }

    #[test]
    fn algorithm_families_hit_the_cache_after_the_first_session() {
        let source = collective(
            4,
            CollectiveKind::Allgather,
            TreeFamily::Alg(Algorithm::WSort),
        );
        let sessions = assemble(&spec(5), &source, PortModel::AllPort);
        let stats = sessions.cache_stats();
        assert_eq!(stats.misses, 16, "one build per root, first session");
        assert_eq!(stats.hits, 4 * 16, "later sessions fully cached");
        assert_eq!(sessions.spans[0].cache_hit, Some(false));
        assert!(sessions.spans[1..]
            .iter()
            .all(|s| s.cache_hit == Some(true)));
    }

    #[test]
    fn bine_family_builds_without_touching_the_cache() {
        let source = collective(3, CollectiveKind::Allgather, TreeFamily::Bine);
        let sessions = assemble(&spec(3), &source, PortModel::AllPort);
        let stats = sessions.cache_stats();
        assert_eq!(stats.misses + stats.hits, 0);
        assert_eq!(sessions.sessions(), 3);
        assert!(sessions.spans.iter().all(|s| s.cache_hit.is_none()));
    }

    #[test]
    fn separate_collectives_run_on_the_torus() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let router = TorusRouter::new(Torus::of(4, 2));
        for kind in CollectiveKind::ALL {
            let source = SeparateCollective { router, kind };
            let report = run(&spec(6), &source, &params, &mut EngineScratch::new());
            assert_eq!(report.sessions.len(), 6, "{}", kind.name());
            assert!(report.completion_ratio > 0.0, "{}", kind.name());
        }
    }
}
