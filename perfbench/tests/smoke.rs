//! Tiny-size runs of every workload, end to end through the runner.

use spothost_market::time::SimDuration;
use spothost_perfbench::metrics::{END_TO_END, PER_LAYER};
use spothost_perfbench::runner::{run, Outcome, RunArgs};
use spothost_perfbench::workloads::fleet::{check_fleet_report, variants};
use spothost_perfbench::workloads::{Scale, NAMES};
use std::sync::Mutex;

/// Runs share the process-global trace arena (set-up clears it, and the
/// hit fraction reads its counters), so they must not overlap.
static ARENA: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, trace: bool) -> Outcome {
    let _serial = ARENA.lock().unwrap_or_else(|e| e.into_inner());
    let args = RunArgs {
        workload: workload.into(),
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{workload}")),
    };
    let out = run(&args).expect("known workload");
    let _ = std::fs::remove_dir_all(&args.out_dir);
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .1
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for w in NAMES {
        let out = tiny(w, false);
        assert!(out.correct, "{w}: {:?}", out.problems);
        assert_eq!(out.failed, 0, "{w}");
        assert_eq!(metric(&out, "ops_ok_frac"), 1.0, "{w}");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{w}");
        assert!(out.ops >= 100, "{w}: {} ops", out.ops);
        // The result line parses and carries exactly the four keys.
        let doc = spothost_perfbench::json::parse(&out.result_json()).expect("result parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let a = tiny("query", true);
    let b = tiny("query", true);
    assert!(a.correct && b.correct, "{:?} {:?}", a.problems, b.problems);
    let names: Vec<&str> = a.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for ((name, x, unit), (_, y, _)) in a.metrics.iter().zip(&b.metrics) {
        assert!(x.is_finite() && *x >= 0.0, "{name} = {x}");
        if matches!(*unit, "count" | "frac" | "B") {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x} vs {y}");
        }
    }
    assert_eq!(metric(&a, "market.arena_hit_frac"), 1.0);
}

#[test]
fn corrupted_fleet_report_fails_its_check() {
    let cfg = variants()[0].clone();
    let good = spothost_fleet::run_fleet_sim(&cfg, 5, SimDuration::days(1));
    assert_eq!(check_fleet_report(&cfg, &good), Ok(()));
    let mut bad = good.clone();
    bad.unserved_user_seconds = bad.offered_user_seconds * 2.0 + 1.0;
    assert!(check_fleet_report(&cfg, &bad).is_err());
    let mut bad = good.clone();
    bad.peak_vms = cfg.max_vms + 1;
    assert!(check_fleet_report(&cfg, &bad).is_err());
    let mut bad = good;
    bad.total_cost = f64::NAN;
    assert!(check_fleet_report(&cfg, &bad).is_err());
}

#[test]
fn unknown_workload_is_an_error() {
    let args = RunArgs {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::Tiny,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-nope"),
    };
    assert!(run(&args).is_err());
}
