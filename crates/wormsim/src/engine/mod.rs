//! The discrete-event wormhole simulation engine.
//!
//! The engine executes a *dependency workload*: a set of messages, each
//! of which becomes eligible once a set of earlier messages has been
//! delivered (multicast trees, reductions, or arbitrary traffic). Each
//! message is simulated at channel granularity:
//!
//! 1. After its dependencies deliver, the sending processor spends
//!    `t_send_sw` (serialized per node when `cpu_serialized_startup`).
//! 2. The worm's header then acquires the channels of its route in order,
//!    paying `t_hop` per external channel; if a channel is busy the worm
//!    *blocks in place*, holding everything acquired so far — wormhole
//!    semantics — and queues FIFO on the busy channel.
//! 3. After the last acquisition the payload drains in `bytes · t_byte`;
//!    all held channels release at drain completion (tail-pass
//!    approximation, see DESIGN.md) and delivery completes `t_recv_sw`
//!    later.
//!
//! ## Layering
//!
//! The engine is split into focused submodules (DESIGN.md §9):
//! [`events`](self) — the deterministic event queue; `worm` — message
//! state machines; `arbitration` — per-channel holder/FIFO state;
//! `watchdog` — the post-drain deadlock classifier; `outcomes` — the
//! public result and error types; `core` — the event loop itself.
//!
//! [`run`] is the engine's single entry point. It is **generic over
//! the router** (hypercube E-cube, torus dimension-ordered with
//! dateline virtual channels, mesh, …) and over the [`Probe`] that
//! observes it, and it borrows the [`EngineScratch`] whose arenas it
//! reuses. An unobserved, one-off run passes `&mut NoopProbe` and
//! `&mut EngineScratch::new()`; both choices are invisible in the
//! result (DESIGN.md §15).
//!
//! ## Faults and the watchdog
//!
//! The [`FaultPlan`] argument threads faults through the run:
//! dead channels abort worms ([`Outcome::Failed`]), stall windows delay
//! acquisition, deadlines abort undelivered messages
//! ([`Outcome::TimedOut`]), and stuck channels wedge their waiters
//! forever. When the event heap drains with unfinished messages the
//! engine's *watchdog* examines the channel wait-for state and reports
//! [`SimError::Deadlock`] with the holder and waiter sets — the typed
//! replacement for silently dropping messages or spinning. An
//! observation window is a plan whose only fault is a global deadline
//! ([`FaultPlan::deadline_all`]): messages still undelivered at the
//! horizon end as [`Outcome::TimedOut`], so a saturated open-loop run
//! cannot grow without bound.
//!
//! The engine is fully deterministic: integer time, FIFO queues, and a
//! sequence-numbered event heap.

pub(crate) mod arbitration;
mod core;
pub(crate) mod events;
mod outcomes;
mod watchdog;
pub(crate) mod worm;

#[cfg(test)]
mod tests;

pub use outcomes::{NetStats, RunResult, SimError};
pub use worm::{DepMessage, FaultCause, MessageResult, Outcome};

use crate::faults::FaultPlan;
use crate::params::SimParams;
use crate::probe::{NoopProbe, Probe};
use crate::scratch::EngineScratch;
use crate::time::SimTime;
use hcube::Router;

/// Runs a dependency workload on any routed topology with a fault
/// plan, an in-loop [`Probe`] observer, and a caller-owned
/// [`EngineScratch`].
///
/// The scratch is *reset*, never reallocated: reusing one scratch
/// across runs keeps the event heap, message table, channel table, and
/// memoized routes warm (see [`crate::scratch`]). Results are
/// byte-identical to a run on a fresh scratch. Even on an `Err`
/// return the scratch stays safe to reuse — the channel table marks
/// itself dirty and sweeps on the next reset.
///
/// The probe is statically dispatched: passing [`NoopProbe`]
/// monomorphizes every observation point away, so an unobserved run
/// costs nothing for the instrumentation it doesn't use. The probe is
/// borrowed (not consumed) so its recording survives even an `Err`
/// return — a deadlocked run still leaves its
/// [`EventRecorder`](crate::probe::EventRecorder) full of blocked
/// events and the watchdog alarm.
///
/// ```
/// use hcube::{Cube, Ecube, NodeId, Resolution};
/// use hypercast::PortModel;
/// use wormsim::{DepMessage, EngineScratch, EventRecorder, FaultPlan, Outcome, SimParams, SimTime};
///
/// let router = Ecube::new(Cube::of(4), Resolution::HighToLow);
/// let params = SimParams::ncube2(PortModel::AllPort);
/// // A two-stage forward: 0 → 0b0111, then 0b0111 → 0b0110 after
/// // delivery, and a third message arriving after the window closes.
/// let workload = [
///     DepMessage { src: NodeId(0), dst: NodeId(0b0111), bytes: 1024,
///                  deps: vec![], min_start: SimTime::ZERO },
///     DepMessage { src: NodeId(0b0111), dst: NodeId(0b0110), bytes: 1024,
///                  deps: vec![0], min_start: SimTime::ZERO },
///     DepMessage { src: NodeId(0), dst: NodeId(2), bytes: 64,
///                  deps: vec![], min_start: SimTime::from_us(900) },
/// ];
/// let mut rec = EventRecorder::new();
/// let run = wormsim::run(
///     router,
///     &params,
///     &workload,
///     FaultPlan::none().deadline_all(SimTime::from_us(800)),
///     &mut rec,
///     &mut EngineScratch::new(),
/// )
/// .unwrap();
/// assert!(run.messages[1].injected >= run.messages[0].delivered);
/// assert_eq!(run.messages[2].outcome, Outcome::TimedOut);
/// // Exact per-channel holds: one occupancy interval per hop.
/// assert_eq!(rec.occupancies().len(), 4);
/// ```
///
/// # Errors
/// [`SimError::SelfSend`] / [`SimError::DependencyOutOfRange`] /
/// [`SimError::WorkloadTooLarge`] / [`SimError::DependencyCycle`] for
/// malformed workloads, and [`SimError::Deadlock`] when blocked worms
/// can never progress (a deadline in `plan` rescues every waiter, so a
/// windowed run cannot deadlock).
pub fn run<R: Router, P: Probe>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    plan: &FaultPlan,
    probe: &mut P,
    scratch: &mut EngineScratch,
) -> Result<RunResult, SimError> {
    let mut engine = core::Engine::new(router, params, workload, plan, probe, scratch)?;
    engine.run()?;
    Ok(engine.into_result())
}

/// [`run`] unobserved inside the observation window `[0, horizon)`.
/// The repository benchmark's traced replay links this function by
/// name, so it stays as a one-line delegation.
///
/// # Errors
/// The malformed-workload errors of [`run`].
pub fn simulate_window_on_with_scratch<R: Router>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    horizon: SimTime,
    scratch: &mut EngineScratch,
) -> Result<RunResult, SimError> {
    run(
        router,
        params,
        workload,
        FaultPlan::none().deadline_all(horizon),
        &mut NoopProbe,
        scratch,
    )
}

/// [`run`] observed by `probe` inside the observation window
/// `[0, horizon)`. The repository benchmark's traced replay links this
/// function by name, so it stays as a one-line delegation.
///
/// # Errors
/// The malformed-workload errors of [`run`].
pub fn simulate_window_observed_on_with_scratch<R: Router, P: Probe>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    horizon: SimTime,
    probe: &mut P,
    scratch: &mut EngineScratch,
) -> Result<RunResult, SimError> {
    run(
        router,
        params,
        workload,
        FaultPlan::none().deadline_all(horizon),
        probe,
        scratch,
    )
}
