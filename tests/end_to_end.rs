//! End-to-end pipeline tests: workload generation → tree construction →
//! scheduling → simulation → figure aggregation, at reduced trial counts.

use hcube::{Cube, NodeId, Resolution};
use hypercast::{Algorithm, PortModel};
use workloads::destsets::{random_dests, trial_rng};
use workloads::figures;
use wormsim::{simulate_multicast, SimParams};

#[test]
fn fig09_pipeline_smoke() {
    let f = figures::fig09(2);
    assert_eq!(f.id, "fig09");
    assert_eq!(f.series.len(), 4);
    for s in &f.series {
        assert_eq!(s.xs.len(), 63);
        assert!(s.ys.iter().all(|&y| (1.0..=6.5).contains(&y)), "{}", s.name);
    }
    // Rendering works.
    assert!(f.to_table().contains("fig09"));
    assert!(f.to_ascii_plot(60, 12).contains("legend"));
    let json = workloads::json::parse(&workloads::artifact::to_json(&f).unwrap()).unwrap();
    assert_eq!(json["id"], "fig09");
    assert_eq!(json["series"].as_array().unwrap().len(), 4);
}

#[test]
fn fig10_pipeline_smoke() {
    let f = figures::fig10(2);
    let pts = figures::ten_cube_points();
    assert_eq!(f.series[0].xs.len(), pts.len());
    // At m = 1023 (broadcast), every algorithm needs exactly 10 steps
    // (spanning binomial tree on a 10-cube).
    for s in &f.series {
        let last = *s.ys.last().unwrap();
        assert!((last - 10.0).abs() < 1e-9, "{}: {last}", s.name);
    }
}

#[test]
fn fig13_14_pipeline_smoke() {
    let (avg, max) = figures::fig13_14(1);
    assert_eq!(avg.id, "fig13");
    assert_eq!(max.id, "fig14");
    for (a, m) in avg.series.iter().zip(&max.series) {
        for i in 0..a.ys.len() {
            assert!(m.ys[i] >= a.ys[i] - 1e-9, "max ≥ avg for {}", a.name);
        }
    }
    // The paper's larger-system observation: W-sort's advantage over
    // U-cube is visible at intermediate sizes on the 10-cube.
    let u = max.series.iter().find(|s| s.name == "U-cube").unwrap();
    let w = max.series.iter().find(|s| s.name == "W-sort").unwrap();
    let pts = figures::ten_cube_points();
    let idx = pts.iter().position(|&m| m == 384).unwrap();
    assert!(w.ys[idx] < u.ys[idx]);
}

#[test]
fn ucube_staircase_vs_wsort_smoothness() {
    // Fixed instance family: U-cube's one-port-style staircase at m = 2^k
    // vs the smoothed all-port algorithms (the paper's "smooth out the
    // staircase behavior" claim), measured exactly.
    let cube = Cube::of(6);
    let mut jumps = 0;
    for k in 1..=5u32 {
        let m_before = (1usize << k) - 1;
        let m_after = 1usize << k;
        let mut total_before = 0u32;
        let mut total_after = 0u32;
        for trial in 0..20 {
            let mut rng = trial_rng("staircase", k as usize, trial);
            let d_after = random_dests(&mut rng, cube, NodeId(0), m_after);
            let d_before = d_after[..m_before].to_vec();
            for (set, acc) in [(&d_before, &mut total_before), (&d_after, &mut total_after)] {
                let t = Algorithm::UCube
                    .build(
                        cube,
                        Resolution::HighToLow,
                        PortModel::OnePort,
                        NodeId(0),
                        set,
                    )
                    .unwrap();
                *acc += t.steps;
            }
        }
        if total_after > total_before {
            jumps += 1;
        }
        // One-port U-cube steps are deterministic in m: exactly
        // ⌈log₂(m+1)⌉ — the staircase jumps at every power of two.
        assert_eq!(total_before, 20 * k);
        assert_eq!(total_after, 20 * (k + 1));
    }
    assert_eq!(jumps, 5);
}

#[test]
fn full_stack_deterministic() {
    // The same seed keys must reproduce identical simulated delays.
    let run = || {
        let cube = Cube::of(8);
        let mut rng = trial_rng("e2e-det", 1, 2);
        let dests = random_dests(&mut rng, cube, NodeId(0), 40);
        let t = Algorithm::WSort
            .build(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests,
            )
            .unwrap();
        simulate_multicast(&t, &SimParams::ncube2(PortModel::AllPort), 4096)
            .max_delay
            .as_ns()
    };
    assert_eq!(run(), run());
}

#[test]
fn results_are_finite_and_positive_everywhere() {
    let (avg, max) = figures::fig11_12(2);
    for f in [avg, max] {
        for s in &f.series {
            for (&x, &y) in s.xs.iter().zip(&s.ys) {
                assert!(x >= 1.0);
                assert!(y.is_finite() && y > 0.0, "{} at {x}", s.name);
            }
        }
    }
}
