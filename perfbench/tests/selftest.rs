//! Self-test: every workload at a tiny size reports exactly the metrics
//! `BENCHMARK.json` declares, with their units, and no failed operation;
//! the traced run reports every per-layer metric, its layer times account
//! for its wall time, and its exact counts repeat between two runs with
//! different seeds.

use hpcnet_core::json::Json;
use hpcnet_perfbench::{run_traced, run_untraced, Opts, Report, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Duration;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(key: &str) -> BTreeMap<String, String> {
    let doc = benchmark_json();
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(r: &Report) -> BTreeMap<String, String> {
    let map: BTreeMap<String, String> = r
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(map.len(), r.metrics.len(), "a metric is reported twice");
    map
}

fn tiny(seed: u64) -> Opts {
    Opts {
        seed,
        budget: Duration::ZERO,
        tiny: true,
    }
}

fn assert_clean(r: &Report) {
    assert!(r.attempted > 0);
    assert_eq!(r.failed, 0, "failed operations: {:?}", r.problems);
    for m in &r.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let r = run_untraced(w, &tiny(1)).expect("known workload");
        assert_clean(&r);
        assert_eq!(reported(&r), want, "{w}");
        for m in &r.metrics {
            assert!(m.value > 0.0, "{w}: end-to-end metric {} is 0", m.name);
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_repeats_its_counts() {
    let want = declared("per_layer");
    let a = run_traced("kernels", &tiny(1)).expect("known workload");
    let b = run_traced("serve", &tiny(2)).expect("known workload");
    for r in [&a, &b] {
        assert_clean(r);
        assert_eq!(reported(r), want);
    }
    for w in WORKLOADS {
        let share = a
            .get(&format!("{w}.self_time_share"))
            .expect("self-time share");
        assert!(
            (0.8..=1.01).contains(&share),
            "{w}: layers cover {share} of the traced wall time"
        );
    }
    // Counts are exact facts of the work — the same for any seed — except
    // the classifier's verdict, which depends on timing.
    for m in a
        .metrics
        .iter()
        .filter(|m| m.unit == "count" && m.name != "kernels.no_steady_state_cells")
    {
        assert_eq!(
            Some(m.value),
            b.get(&m.name),
            "{} differs between two runs",
            m.name
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run_untraced("nope", &tiny(1)).is_err());
    assert!(run_traced("nope", &tiny(1)).is_err());
}
