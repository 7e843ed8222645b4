//! # traffic — open-loop steady-state multicast load generation
//!
//! The paper's evaluation (and the rest of this workspace's figure
//! machinery) measures *one multicast at a time* on an idle network.
//! This crate asks the complementary question the paper's Section 6
//! leaves open: **how do the tree algorithms behave under sustained
//! load** — sessions arriving continuously, contending for channels,
//! all the way up to saturation?
//!
//! The subsystem is layered on the existing engine rather than beside
//! it:
//!
//! * [`arrivals`] — *when* sessions arrive: deterministic, Poisson, or
//!   bursty on-off point processes at a configured offered load, with a
//!   [deterministic natural log](arrivals::det_ln) so exponential gaps
//!   are byte-identical across platforms;
//! * [`patterns`] — *what* each session multicasts: fixed, uniform,
//!   subcube-biased, hot-spot, or a finite [`DestPattern::Pool`] of
//!   recurring groups (drawing through [`hcube::sampling`], the same
//!   primitives the figure workloads use);
//! * [`Source`] — *how* each session is sent, and on which router: tree
//!   multicast on the cube ([`CubeTrees`], an [`hypercast::Algorithm`]
//!   through a [`hypercast::TreeCache`], where recurring groups are
//!   pointer-clone hits), separate addressing on any router
//!   ([`Separate`]), or a full-machine collective per session
//!   ([`CubeCollective`], [`SeparateCollective`]);
//! * [`engine`] — the session scheduler: [`run`] lays every arrival out
//!   through its source as a batch of [`wormsim::DepMessage`]s whose
//!   `min_start` is the arrival time, and executes the whole run as one
//!   [`wormsim::run`] inside an observation window (a global deadline
//!   in its fault plan), so saturation cannot run away;
//! * [`stats`] — steady-state output analysis: warmup truncation,
//!   batch-means confidence intervals, throughput, and the
//!   [`stats::saturation_point`] detector for latency-vs-load sweeps;
//! * [`churn`] / [`chaos`] — online fault churn and self-healing
//!   recovery: [`run_chaos`] renders a seed-deterministic MTBF/MTTR
//!   failure/repair process into epoch-numbered fault plans and retries
//!   faulted sessions of a [`Multicast`] source under exponential
//!   backoff (tree sources through
//!   [`hypercast::repair`](hypercast::repair::repair)-rebuilt trees),
//!   surfacing delivery ratio, goodput, retry distributions, and
//!   time-to-recover;
//! * [`telemetry`] — the flight recorder: [`run_with_telemetry`] and
//!   [`run_chaos_with_telemetry`] run the same workload once, observed,
//!   returning the byte-identical report **plus** per-session spans with an exact
//!   latency decomposition (queueing / head-flit blocking / transit,
//!   causally chained through retries) and a deterministic windowed
//!   time-series (goodput, latency quantiles, cache hit rate, live
//!   faults, per-dimension blocked time), exportable as Perfetto
//!   traces, Prometheus metrics, or standalone JSON;
//! * [`trials`] — [`run_trials`], the slot-fill thread pool that runs
//!   independent sweep points in parallel and returns them in trial
//!   order.
//!
//! Every run simulates all of its sessions in **one** network, so
//! concurrent sessions contend for channels exactly as the paper's
//! worms do; there is no mode that simulates sessions apart.
//!
//! **Zero-load anchoring.** A one-session run of a
//! [`DestPattern::Fixed`] pattern is byte-identical to the single-shot
//! [`wormsim::multicast::simulate_multicast`] replay — the first
//! arrival of every schedule is at `t = 0` and `min_start` staggering
//! degenerates to the plain workload. The integration tests pin this,
//! which anchors every loaded measurement to the validated single-shot
//! model.
//!
//! ## Quick example
//!
//! ```
//! use hcube::{Cube, Resolution, Torus, TorusRouter};
//! use hypercast::{Algorithm, PortModel};
//! use traffic::{ArrivalProcess, Arrivals, CubeTrees, DestPattern, Separate, TrafficSpec};
//! use wormsim::{EngineScratch, SimParams};
//!
//! let spec = TrafficSpec::new(
//!     Arrivals::new(ArrivalProcess::Poisson, 2.0), // 2 sessions/ms
//!     DestPattern::UniformRandom { m: 8 },
//!     50,
//!     42,
//! );
//! let params = SimParams::ncube2(PortModel::AllPort);
//! let mut scratch = EngineScratch::new();
//! let wsort = CubeTrees::new(Cube::of(6), Resolution::HighToLow, Algorithm::WSort);
//! let report = traffic::run(&spec, &wsort, &params, &mut scratch);
//! assert_eq!(report.sessions.len(), 50);
//! assert!(report.completion_ratio > 0.0);
//!
//! // The same spec as separate addressing on a 4-ary 3-cube torus,
//! // replayed through the same scratch.
//! let torus = Separate(TorusRouter::new(Torus::of(4, 3)));
//! let report = traffic::run(&spec, &torus, &params, &mut scratch);
//! assert_eq!(report.cache.hits + report.cache.misses, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arrivals;
pub mod chaos;
pub mod churn;
mod collective;
pub mod engine;
pub mod patterns;
mod source;
pub mod stats;
pub mod telemetry;
pub mod trials;

pub use arrivals::{ArrivalProcess, Arrivals};
pub use chaos::{
    run_chaos, run_chaos_cube, ChaosReport, ChaosSession, ChaosSpec, RetriesExhausted,
    SessionFailure,
};
pub use churn::ChurnSpec;
pub use collective::{CubeCollective, SeparateCollective};
pub use engine::{
    assemble, assemble_cube_sessions, assemble_separate_sessions_on, run,
    run_sessions_on_with_scratch, SessionRecord, SessionWorkload, TrafficReport, TrafficSpec,
};
pub use patterns::DestPattern;
pub use source::{CubeTrees, Multicast, Separate, Source};
pub use stats::{saturation_point, BatchMeans, LoadPoint, Quantiles};
pub use telemetry::{
    run_chaos_with_telemetry, run_with_telemetry, AttemptSpan, PhaseBreakdown, SessionTrace,
    SpanOutcome, Telemetry, TelemetryBucket, TelemetryConfig, TelemetryProbe, TimeSeries,
};
pub use trials::run_trials;
