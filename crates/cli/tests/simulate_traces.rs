//! `simulate --traces DIR` against imported price history: its stdout and
//! its `--trace` JSONL are pinned to committed goldens. The imported set
//! feeds both the aggregate run and the recorded telemetry run, so a
//! change in how the directory is loaded shows up here.

use std::path::Path;
use std::process::Command;

fn cli(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn imported_trace_run_matches_its_golden() {
    let dir = std::env::temp_dir().join(format!("spothost-cli-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    cli(
        &dir,
        &[
            "gen-traces",
            "--zone",
            "us-east-1a",
            "--days",
            "7",
            "--seed",
            "3",
            "--out",
            "traces",
        ],
    );
    let stdout = cli(
        &dir,
        &[
            "simulate",
            "--traces",
            "traces",
            "--days",
            "7",
            "--fault-rate",
            "0.1",
            "--trace",
            "run.jsonl",
            "--store",
            "run.col",
            "--metrics",
        ],
    );
    let jsonl = std::fs::read_to_string(dir.join("run.jsonl")).expect("jsonl");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(stdout, include_str!("golden/simulate_traces.txt"));
    assert_eq!(jsonl, include_str!("golden/simulate_traces.jsonl"));
}
