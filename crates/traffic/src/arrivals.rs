//! Arrival processes: when do multicast sessions enter the network?
//!
//! An open-loop traffic source injects sessions at a configured
//! *offered load* regardless of how the network is coping — the defining
//! property that lets a sweep find the saturation point. Three processes
//! are modeled:
//!
//! * **Deterministic** — evenly spaced arrivals at exactly the mean
//!   inter-arrival gap (a fluid approximation; zero burstiness);
//! * **Poisson** — i.i.d. exponential gaps (the classic open-loop
//!   memoryless source);
//! * **Bursty (on-off)** — geometrically sized bursts of back-to-back
//!   arrivals separated by compensating idle gaps, preserving the mean
//!   rate while concentrating arrivals in time.
//!
//! The first session of every schedule arrives at `t = 0`; this is what
//! makes a one-session run *byte-identical* to the single-shot
//! simulation entry points (the zero-load equivalence tests pin it).
//!
//! **Determinism.** Exponential sampling needs a natural logarithm, and
//! `f64::ln` is **not** guaranteed bit-identical across platforms/libms.
//! [`det_ln`] reimplements it from correctly-rounded IEEE primitives
//! (multiply, add, divide — which *are* bit-exact everywhere) with a
//! fixed-iteration series, so identical seeds give identical schedules
//! on every host. Accuracy ≈ 1 ulp over the full finite range, far
//! beyond what a simulation schedule can observe.

use rand::{Rng, RngCore};
use wormsim::SimTime;

/// ln 2 to full f64 precision — a compile-time literal, so using it is
/// bit-exact everywhere.
const LN_2: f64 = std::f64::consts::LN_2;

/// √2 to full f64 precision (mantissa-centering threshold).
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Deterministic natural logarithm over positive finite `x`, built only
/// from IEEE-754 basic operations (bit-exact on every conforming
/// platform, unlike libm's `ln`).
///
/// Decomposes `x = m · 2^e` with `m ∈ [1, 2)`, maps `m` to
/// `t = (m − 1)/(m + 1)` (so `|t| < 1/3`) and evaluates the atanh
/// series `ln m = 2(t + t³/3 + t⁵/5 + …)` to a fixed 11 terms — the
/// last term is below `2⁻⁵⁷` of the first, i.e. under the rounding
/// floor.
///
/// ```
/// use traffic::arrivals::det_ln;
/// assert!((det_ln(1.0)).abs() < 1e-15);
/// assert!((det_ln(std::f64::consts::E) - 1.0).abs() < 1e-14);
/// assert!((det_ln(0.125) + 3.0 * std::f64::consts::LN_2).abs() < 1e-14);
/// ```
///
/// # Panics
/// If `x` is not a positive finite number.
#[must_use]
pub fn det_ln(x: f64) -> f64 {
    assert!(
        x.is_finite() && x > 0.0,
        "det_ln domain is positive finite, got {x}"
    );
    let bits = x.to_bits();
    let mut exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mantissa_bits = bits & 0x000f_ffff_ffff_ffff;
    let m = if exp == -1023 {
        // Subnormal: scale into the normal range by 2^52 (an exact
        // power-of-two multiply), then read the true exponent back off.
        let scaled = x * f64::from_bits(1075u64 << 52); // × 2^52
        let sbits = scaled.to_bits();
        exp = ((sbits >> 52) & 0x7ff) as i64 - 1023 - 52;
        f64::from_bits((sbits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52))
    } else {
        f64::from_bits(mantissa_bits | (1023u64 << 52))
    };
    // Center the mantissa on 1 (use m/2 when m > sqrt(2)) so |t| stays
    // small and the series converges fast.
    let (m, exp) = if m > SQRT_2 {
        (m * 0.5, exp + 1)
    } else {
        (m, exp)
    };
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = t;
    for k in 1..11u32 {
        term *= t2;
        sum += term / f64::from(2 * k + 1);
    }
    2.0 * sum + exp as f64 * LN_2
}

/// Draws `u ∈ (0, 1]` from the RNG's top 53 bits (never 0, so
/// `det_ln(u)` is always defined).
fn unit_open_closed<R: RngCore>(rng: &mut R) -> f64 {
    (((rng.next_u64() >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Draws one exponentially distributed gap with the given mean (in
/// nanoseconds), truncated to whole nanoseconds — the shared sampling
/// primitive of the Poisson arrival process and the fault-churn
/// failure/repair streams. Built on [`det_ln`], so identical RNG states
/// give identical gaps on every platform.
#[must_use]
pub fn exp_gap_ns<R: RngCore>(rng: &mut R, mean_ns: f64) -> u64 {
    let u = unit_open_closed(rng);
    (-mean_ns * det_ln(u)) as u64
}

/// The shape of the arrival point process (the rate is carried
/// separately by [`Arrivals`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals, one mean gap apart.
    Deterministic,
    /// Exponential i.i.d. gaps (memoryless source).
    Poisson,
    /// On-off bursts: geometrically distributed burst sizes with mean
    /// `mean_burst` arrive back-to-back (one engine tick apart), then a
    /// compensating idle gap restores the configured mean rate.
    Bursty {
        /// Mean sessions per burst (≥ 1).
        mean_burst: u32,
    },
}

impl ArrivalProcess {
    /// Parses a CLI spelling: `det`, `poisson`, or `bursty[:B]`.
    ///
    /// # Errors
    /// A human-readable message for unknown spellings.
    pub fn parse(s: &str) -> Result<ArrivalProcess, String> {
        match s {
            "det" | "deterministic" => Ok(ArrivalProcess::Deterministic),
            "poisson" => Ok(ArrivalProcess::Poisson),
            "bursty" => Ok(ArrivalProcess::Bursty { mean_burst: 4 }),
            other => {
                if let Some(b) = other.strip_prefix("bursty:") {
                    let mean_burst: u32 = b
                        .parse()
                        .map_err(|_| format!("bad burst size in --arrivals {other}"))?;
                    if mean_burst == 0 {
                        return Err("burst size must be >= 1".into());
                    }
                    Ok(ArrivalProcess::Bursty { mean_burst })
                } else {
                    Err(format!(
                        "unknown arrival process {other:?} (expected det | poisson | bursty[:B])"
                    ))
                }
            }
        }
    }
}

impl std::fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrivalProcess::Deterministic => write!(f, "det"),
            ArrivalProcess::Poisson => write!(f, "poisson"),
            ArrivalProcess::Bursty { mean_burst } => write!(f, "bursty:{mean_burst}"),
        }
    }
}

/// A configured arrival source: a process shape plus an offered load in
/// sessions per millisecond.
#[derive(Clone, Copy, Debug)]
pub struct Arrivals {
    /// Point-process shape.
    pub process: ArrivalProcess,
    /// Offered load, sessions per millisecond of simulated time.
    pub rate_per_ms: f64,
}

impl Arrivals {
    /// Creates a source with the given shape and offered load.
    ///
    /// # Panics
    /// If `rate_per_ms` is not positive and finite.
    #[must_use]
    pub fn new(process: ArrivalProcess, rate_per_ms: f64) -> Arrivals {
        assert!(
            rate_per_ms.is_finite() && rate_per_ms > 0.0,
            "offered load must be positive, got {rate_per_ms}"
        );
        Arrivals {
            process,
            rate_per_ms,
        }
    }

    /// Mean inter-arrival gap implied by the rate.
    #[must_use]
    pub fn mean_gap(&self) -> SimTime {
        SimTime::from_ns((1.0e6 / self.rate_per_ms) as u64)
    }

    /// An upper bound, in nanoseconds, on the last arrival time that
    /// [`schedule`](Arrivals::schedule) can produce for `sessions`
    /// sessions under any RNG state: `sessions - 1` gaps, each at most
    /// the process's largest possible gap. A Poisson gap is at most
    /// `53 ln 2 < 37` mean gaps (the unit draw is never below
    /// `2^-53`); a bursty idle gap is at most `64 * mean_burst` mean
    /// gaps. Front ends compare it against `SimTime`'s range before
    /// scheduling.
    #[must_use]
    pub fn span_bound_ns(&self, sessions: usize) -> f64 {
        let mean_ns = 1.0e6 / self.rate_per_ms;
        let max_gap_ns = match self.process {
            ArrivalProcess::Deterministic => mean_ns,
            ArrivalProcess::Poisson => mean_ns * 37.0,
            ArrivalProcess::Bursty { mean_burst } => {
                (mean_ns * 64.0 * f64::from(mean_burst)).max(1.0)
            }
        };
        sessions.saturating_sub(1) as f64 * max_gap_ns
    }

    /// Generates the arrival times of `sessions` sessions. The first
    /// arrival is always at [`SimTime::ZERO`]; times are nondecreasing.
    /// Identical `(process, rate, rng state)` give identical schedules
    /// on every platform.
    #[must_use]
    pub fn schedule<R: RngCore>(&self, rng: &mut R, sessions: usize) -> Vec<SimTime> {
        let mean_ns = 1.0e6 / self.rate_per_ms;
        let mut times = Vec::with_capacity(sessions);
        let mut now: u64 = 0;
        let mut burst_left: u32 = 0;
        for i in 0..sessions {
            if i > 0 {
                let gap_ns: u64 = match self.process {
                    ArrivalProcess::Deterministic => mean_ns as u64,
                    ArrivalProcess::Poisson => exp_gap_ns(rng, mean_ns),
                    ArrivalProcess::Bursty { mean_burst } => {
                        if burst_left > 0 {
                            burst_left -= 1;
                            1 // back-to-back within the burst
                        } else {
                            // Geometric burst size with mean `mean_burst`
                            // (support ≥ 1), then an idle gap scaled to
                            // keep the long-run rate at the target: each
                            // burst of B sessions is followed by one idle
                            // gap of B mean gaps.
                            let p = 1.0 / f64::from(mean_burst);
                            let mut b: u32 = 1;
                            while !rng.gen_bool(p) && b < mean_burst.saturating_mul(64) {
                                b += 1;
                            }
                            burst_left = b - 1;
                            (mean_ns * f64::from(b)) as u64
                        }
                    }
                };
                now += gap_ns;
            }
            times.push(SimTime::from_ns(now));
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn det_ln_matches_libm_closely() {
        for &x in &[
            1e-300, 1e-10, 0.1, 0.5, 0.9999, 1.0, 1.0001, 2.0, 10.0, 12345.678, 1e300,
        ] {
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-14,
                "ln({x}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn schedules_stay_within_their_span_bound() {
        for process in [
            ArrivalProcess::Deterministic,
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { mean_burst: 3 },
        ] {
            let arrivals = Arrivals::new(process, 0.5);
            let mut rng = StdRng::seed_from_u64(5);
            let last = *arrivals.schedule(&mut rng, 500).last().unwrap();
            assert!(
                last.as_ns() as f64 <= arrivals.span_bound_ns(500),
                "{process}"
            );
        }
        assert_eq!(
            Arrivals::new(ArrivalProcess::Poisson, 1.0).span_bound_ns(1),
            0.0
        );
    }

    #[test]
    fn det_ln_handles_subnormals() {
        let tiny = f64::from_bits(1); // smallest positive subnormal
        let got = det_ln(tiny);
        assert!((got - tiny.ln()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn det_ln_rejects_zero() {
        let _ = det_ln(0.0);
    }

    #[test]
    fn first_arrival_is_zero_for_every_process() {
        for process in [
            ArrivalProcess::Deterministic,
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { mean_burst: 4 },
        ] {
            let a = Arrivals::new(process, 2.0);
            let times = a.schedule(&mut StdRng::seed_from_u64(1), 5);
            assert_eq!(times[0], SimTime::ZERO, "{process}");
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{process}");
        }
    }

    #[test]
    fn deterministic_gaps_are_exact() {
        let a = Arrivals::new(ArrivalProcess::Deterministic, 2.0); // every 0.5 ms
        let times = a.schedule(&mut StdRng::seed_from_u64(0), 4);
        let ns: Vec<u64> = times.iter().map(|t| t.as_ns()).collect();
        assert_eq!(ns, vec![0, 500_000, 1_000_000, 1_500_000]);
    }

    #[test]
    fn poisson_schedule_is_seed_deterministic() {
        let a = Arrivals::new(ArrivalProcess::Poisson, 5.0);
        let x = a.schedule(&mut StdRng::seed_from_u64(42), 100);
        let y = a.schedule(&mut StdRng::seed_from_u64(42), 100);
        assert_eq!(x, y);
        let z = a.schedule(&mut StdRng::seed_from_u64(43), 100);
        assert_ne!(x, z);
    }

    #[test]
    fn poisson_mean_gap_is_near_target() {
        let a = Arrivals::new(ArrivalProcess::Poisson, 2.0); // mean 0.5 ms
        let times = a.schedule(&mut StdRng::seed_from_u64(7), 2000);
        let span_ns = times.last().unwrap().as_ns();
        let mean_gap = span_ns as f64 / 1999.0;
        assert!(
            (mean_gap - 500_000.0).abs() < 50_000.0,
            "mean gap {mean_gap} ns"
        );
    }

    #[test]
    fn bursty_preserves_the_mean_rate() {
        let a = Arrivals::new(ArrivalProcess::Bursty { mean_burst: 4 }, 2.0);
        let times = a.schedule(&mut StdRng::seed_from_u64(9), 2000);
        let mean_gap = times.last().unwrap().as_ns() as f64 / 1999.0;
        assert!(
            (mean_gap - 500_000.0).abs() < 75_000.0,
            "mean gap {mean_gap} ns"
        );
        // Bursts exist: some gaps are exactly 1 ns.
        let tight = times
            .windows(2)
            .filter(|w| w[1].as_ns() - w[0].as_ns() == 1)
            .count();
        assert!(tight > 100, "only {tight} back-to-back arrivals");
    }

    #[test]
    fn parse_round_trips() {
        for s in ["det", "poisson", "bursty:7"] {
            let p = ArrivalProcess::parse(s).unwrap();
            assert_eq!(p.to_string(), s.replace("deterministic", "det"));
        }
        assert!(ArrivalProcess::parse("uniform").is_err());
        assert!(ArrivalProcess::parse("bursty:0").is_err());
    }
}
