//! Steadiness report: run each workload in `BENCHMARK.json` several
//! times with different seeds, each run in its own process, and compare
//! every end-to-end metric's spread with its bound there.

use crate::json::{self, Value};
use crate::stats::{median, relative_iqr};
use std::process::Command;

#[derive(Debug, Clone)]
pub struct SteadyArgs {
    pub runs: u64,
    /// Seed of the first run; run `r` uses `seed0 + r`.
    pub seed0: u64,
}

/// Where the report reads the workloads, the run time and the bounds.
const BENCH_JSON: &str = "BENCHMARK.json";

struct Bound {
    name: String,
    bound: f64,
}

fn bounds(doc: &Value) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Run the report; returns `false` when a spread exceeds its bound or a
/// run failed.
pub fn report(args: &SteadyArgs) -> Result<bool, String> {
    let text = std::fs::read_to_string(BENCH_JSON).map_err(|e| format!("{BENCH_JSON}: {e}"))?;
    let doc = json::parse(&text)?;
    let bounds = bounds(&doc)?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")? as u64;
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut steady = true;
    for w in &workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        let mut warnings = Vec::new();
        for r in 0..args.runs {
            let seed = args.seed0 + r;
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = match json::parse(last) {
                Ok(v) if out.status.success() => v,
                _ => {
                    println!("{w} seed {seed}: run failed ({})", out.status);
                    steady = false;
                    continue;
                }
            };
            if result.get("correct").and_then(Value::as_bool) != Some(true) {
                warnings.push(format!("seed {seed}: outputs failed their checks"));
                steady = false;
            }
            let mut line = format!("{w} seed {seed}:");
            for (k, b) in bounds.iter().enumerate() {
                if let Some(v) = result
                    .get("metrics")
                    .and_then(|m| m.get(&b.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                {
                    values[k].push(v);
                    line += &format!(" {}={v:.4}", b.name);
                }
            }
            println!("{line}");
            if let Some(info) = stdout
                .lines()
                .find_map(|l| l.strip_prefix("info "))
                .and_then(|l| json::parse(l).ok())
            {
                let num = |k: &str| info.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                if num("ops") < crate::harness::MIN_OPS as f64 {
                    warnings.push(format!("seed {seed}: only {} timed ops", num("ops")));
                }
                if num("min_op_ms") < crate::harness::MIN_OP_MS {
                    warnings.push(format!(
                        "seed {seed}: shortest op took {:.3} ms",
                        num("min_op_ms")
                    ));
                }
                if num("arena_hit_frac") < 1.0 {
                    warnings.push(format!(
                        "seed {seed}: arena hit fraction {} in the timed phase",
                        num("arena_hit_frac")
                    ));
                }
            }
        }
        println!(
            "{w}: {} runs, seeds {}..{}",
            args.runs,
            args.seed0,
            args.seed0 + args.runs - 1
        );
        println!(
            "  {:<14} {:>14} {:>10} {:>8}  verdict",
            "metric", "median", "rel_iqr", "bound"
        );
        for (b, vs) in bounds.iter().zip(&values) {
            if vs.len() < 2 {
                println!("  {:<14} too few runs", b.name);
                continue;
            }
            let spread = relative_iqr(vs);
            let verdict = if spread > b.bound {
                steady = false;
                "OVER BOUND"
            } else if spread > b.bound / 3.0 {
                "within bound, above a third of it"
            } else {
                "steady"
            };
            println!(
                "  {:<14} {:>14.6} {:>10.4} {:>8.3}  {verdict}",
                b.name,
                median(vs),
                spread,
                b.bound
            );
        }
        for warning in warnings {
            println!("  warning: {warning}");
        }
    }
    Ok(steady)
}
