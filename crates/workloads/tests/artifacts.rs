//! The artifact registry against the committed `results/` tree: byte
//! regeneration, `--check` on committed and smoke output, tamper
//! detection, strict emission and schema errors with JSON paths.

use workloads::artifact::{from_json, registry, to_json, Codec};
use workloads::{
    chaossweep, collectivessweep, json, lanesweep, telemetrysweep, trafficsweep, Figure,
};

/// The committed `(json, txt)` pair of an artifact.
fn committed(name: &str) -> (String, String) {
    let read = |ext| {
        let path = format!("{}/../../results/{name}.{ext}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    (read("json"), read("txt"))
}

#[test]
fn every_registered_artifact_regenerates_byte_identically() {
    let mut failures = Vec::new();
    for entry in registry() {
        let (json, txt) = committed(entry.name);
        if let Err(e) = entry.check(&json, &txt) {
            failures.push(format!("{}: --check: {e}", entry.name));
        }
        let files = entry.regen(false).expect(entry.name);
        for (ext, ok) in [("json", files.json == json), ("txt", files.txt == txt)] {
            if !ok {
                failures.push(format!("{}.{ext} diverged from regeneration", entry.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}\nrerun `cargo run -p bench --release --bin artifacts -- --regen all` and commit",
        failures.join("\n")
    );
}

#[test]
fn smoke_configurations_emit_strictly_and_pass_their_checks() {
    for entry in registry() {
        let files = entry.regen(true).expect(entry.name);
        if let Err(e) = entry.check(&files.json, &files.txt) {
            panic!("{}: {e}", entry.name);
        }
    }
}

/// `text` with the first ASCII byte at or after `at` changed.
fn flip(text: &str, at: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = (at..bytes.len()).find(|&i| bytes[i].is_ascii()).unwrap();
    bytes[i] = if bytes[i] == b'x' { b'y' } else { b'x' };
    String::from_utf8(bytes).unwrap()
}

#[test]
fn a_changed_byte_in_any_committed_txt_fails_the_check() {
    for entry in registry() {
        let (json, txt) = committed(entry.name);
        for k in 0..8 {
            let at = txt.len() * k / 8;
            let bad = entry.check(&json, &flip(&txt, at));
            assert!(bad.is_err(), "{}.txt: change at {at} passed", entry.name);
        }
    }
}

/// `json` with the leading digit of the `nth` value under `"key"`
/// changed to another digit, re-printed the way the emitter prints it
/// (so the JSON itself still re-emits byte for byte).
fn bump(json: &str, key: &str, nth: usize) -> String {
    let (at, _) = json
        .match_indices(&format!("\"{key}\": "))
        .nth(nth)
        .unwrap();
    let i = at + json[at..].find(|c: char| c.is_ascii_digit()).unwrap();
    let digit = json.as_bytes()[i];
    let bumped = if digit == b'9' {
        '8'
    } else {
        char::from(digit + 1)
    };
    let edited = format!("{}{bumped}{}", &json[..i], &json[i + 1..]);
    json::parse(&edited).unwrap().to_string_pretty()
}

/// A digit changed in a value the `.txt` shows fails `--check`. A value
/// the `.txt` leaves out (a figure's `std`, the `xs` of its later
/// series) re-emits unchanged and passes; the regeneration test above
/// catches those.
#[test]
fn a_changed_digit_in_a_value_the_txt_shows_fails_the_check() {
    // Shown in every artifact that has it: each figure row's ys, the
    // schedule and lane makespans, the chaos and telemetry delivery
    // ratios and the traffic latencies.
    let shown = ["ys", "makespan_ms", "delivery_ratio", "mean_latency_ms"];
    for entry in registry() {
        let (json, txt) = committed(entry.name);
        let key = shown.iter().find(|k| json.contains(&format!("\"{k}\": ")));
        let key = key.unwrap_or_else(|| panic!("{}: no shown key", entry.name));
        let count = json.matches(&format!("\"{key}\": ")).count();
        for k in 0..4 {
            let bad = bump(&json, key, count * k / 4);
            let err = entry.check(&bad, &txt).unwrap_err();
            assert!(
                err.starts_with(".txt does not re-render"),
                "{}: {err}",
                entry.name
            );
        }
    }
}

/// Poisons the committed artifact `name` and expects the strict emitter
/// to fail at `path`.
fn assert_nan_at<T: Codec>(name: &str, path: &str, poison: impl FnOnce(&mut T)) {
    let mut artifact: T = from_json(&committed(name).0).unwrap();
    assert!(to_json(&artifact).is_ok(), "{name}");
    poison(&mut artifact);
    assert_eq!(to_json(&artifact).unwrap_err().path, path);
}

#[test]
fn a_nan_in_any_non_optional_field_is_an_emit_error() {
    use chaossweep::ChaosSweep as Chaos;
    use collectivessweep::CollectivesSweep as Collectives;
    use lanesweep::LaneSweep as Lanes;
    use telemetrysweep::TelemetrySweep as Telemetry;
    use trafficsweep::TrafficSweep as Traffic;
    const NAN: f64 = f64::NAN;
    assert_nan_at("fig09", "/series/1/ys/3", |f: &mut Figure| {
        f.series[1].ys[3] = NAN
    });
    let path = "/series/2/points/1/ci_half_width_ms";
    assert_nan_at("traffic_sweep", path, |s: &mut Traffic| {
        s.series[2].points[1].ci_half_width_ms = NAN
    });
    let path = "/series/0/points/3/mean_latency_ms";
    assert_nan_at("chaos_sweep", path, |s: &mut Chaos| {
        s.series[0].points[3].mean_latency_ms = NAN
    });
    let path = "/config/link_mtbf_ladder_ms/1";
    assert_nan_at("chaos_sweep", path, |s: &mut Chaos| {
        s.config.link_mtbf_ladder_ms[1] = Some(NAN)
    });
    let path = "/series/5/points/0/lane_utilization/0";
    assert_nan_at("lane_sweep", path, |s: &mut Lanes| {
        s.series[5].points[0].lane_utilization[0] = NAN
    });
    let path = "/series/4/mean_latency_ms";
    assert_nan_at("telemetry_sweep", path, |s: &mut Telemetry| {
        s.series[4].mean_latency_ms = NAN
    });
    let path = "/series/0/buckets/2/p95_ms";
    assert_nan_at("telemetry_sweep", path, |s: &mut Telemetry| {
        s.series[0].rows[2].p95_ms = Some(NAN)
    });
    let path = "/traffic/1/throughput_per_ms";
    assert_nan_at("collectives_sweep", path, |s: &mut Collectives| {
        s.traffic[1].throughput_per_ms = NAN
    });
    assert_eq!(to_json(&NAN).unwrap_err().path, "/");
}

#[test]
fn schema_violations_are_rejected_with_a_path() {
    let registry = registry();
    let mut cases: Vec<(&str, String, &str)> = Vec::new();
    // The last five entries are the structured sweeps.
    for name in registry[21..].iter().map(|e| e.name) {
        let wrong_id = r#"{ "id": "fig11", "config": {}, "series": [] }"#;
        cases.push((name, "{}".into(), "/id: missing field"));
        cases.push((name, "[1]".into(), "/: expected an object, found an array"));
        cases.push((name, "not json".into(), "/: JSON parse error"));
        cases.push((name, wrong_id.into(), "/id: expected"));
    }
    let (collectives, _) = committed("collectives_sweep");
    let no_verdict = collectives.replacen("\"verified\": true", "\"checked\": true", 1);
    cases.push((
        "collectives_sweep",
        no_verdict,
        "/rows/0/verified: missing field",
    ));
    let (chaos, _) = committed("chaos_sweep");
    cases.push((
        "chaos_sweep",
        chaos.replacen("\"lost\": 0", "\"lost\": 0.5", 1),
        "/series/0/points/0/lost: expected an integer in u64, found a number",
    ));
    cases.push((
        "chaos_sweep",
        chaos.replacen("\"link_mttr_ms\": 4", "\"link_mttr_ms\": null", 1),
        "/config/link_mttr_ms: expected a finite number, found null",
    ));
    let fig = r#"{"id": 3}"#.into();
    cases.push(("fig09", fig, "/id: expected a string, found a number"));
    for (name, json, want) in &cases {
        let entry = registry.iter().find(|e| e.name == *name).unwrap();
        let err = entry.check(json, "").unwrap_err();
        assert!(
            err.starts_with("schema violation at ") && err.contains(want),
            "{name}: {err}"
        );
    }
}
