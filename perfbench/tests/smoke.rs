//! Tiny-n smoke test of every workload: every metric `BENCHMARK.json` names
//! is emitted, every correctness check passes, and the traced run repeats
//! the untraced run's deterministic counters.
//!
//! The heap counters are process-wide, so the runs are serialised.

use std::sync::Mutex;

use congos_harness::Json;
use perfbench::run::{self, Options, Report};
use perfbench::workload::{Size, Workload};

static SERIAL: Mutex<()> = Mutex::new(());

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_string())
        .collect()
}

fn assert_complete(what: &str, report: &Report, key: &str) {
    assert!(
        report.correct,
        "{what}: checks failed: {:?}",
        report.problems
    );
    assert!(report.attempted > 0, "{what}: nothing attempted");
    assert_eq!(report.failed, 0, "{what}");
    for name in names(key) {
        assert!(report.get(&name).is_some(), "{what}: metric {name} missing");
    }
    let line = report.to_json();
    assert!(
        !line.contains('\n') && Json::parse(&line).is_ok(),
        "{what}: bad JSON line"
    );
}

fn smoke(workload: Workload) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.01,
        size: Size::Tiny,
    };
    let timed = run::timed(&opts);
    assert_complete("timed", &timed, "end_to_end");
    let traced = run::traced(&opts).expect("traced run");
    assert_complete("traced", &traced, "per_layer");

    for (e2e, det) in [
        ("msgs_per_round", "det.msgs_per_round"),
        ("bytes_per_round", "det.bytes_per_round"),
    ] {
        assert_eq!(timed.get(e2e), traced.get(det), "{e2e}");
    }
    let (a, b) = (
        timed.get("alloc_mib").unwrap(),
        traced.get("det.alloc_mib").unwrap(),
    );
    let mib = 1024.0 * 1024.0;
    assert!(
        run::same_alloc(a * mib, b * mib),
        "alloc_mib {a} against traced {b}"
    );
}

#[test]
fn pipeline_smoke() {
    smoke(Workload::Pipeline);
}

#[test]
fn churn_smoke() {
    smoke(Workload::Churn);
}
