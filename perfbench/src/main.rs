//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload sweep --seed 1 --seconds 10 --trace 0
//! perfbench --workload fleet --seed 1 --seconds 10 --trace 1
//! perfbench --steadiness [--runs 10] [--seed0 1]
//! ```
//!
//! A run prints a `digest` line, an `info` line and, last, one JSON
//! result object. Exit code 2 on bad arguments.

use spothost_perfbench::runner::{run, RunArgs};
use spothost_perfbench::steady::{report, SteadyArgs};
use spothost_perfbench::workloads::{Scale, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench --steadiness [--runs N] [--seed0 N]";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: Vec<(String, Option<String>)> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        if key == "steadiness" {
            opts.push((key.to_string(), None));
        } else {
            let v = it.next().ok_or(format!("--{key} needs a value"))?;
            opts.push((key.to_string(), Some(v)));
        }
    }
    let get = |k: &str| {
        opts.iter()
            .find(|(key, _)| key == k)
            .and_then(|(_, v)| v.clone())
    };
    let num = |k: &str| -> Result<Option<u64>, String> {
        get(k)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{k} takes a whole number, not '{v}'"))
            })
            .transpose()
    };
    for (k, _) in &opts {
        let known = [
            "workload",
            "seed",
            "seconds",
            "trace",
            "steadiness",
            "runs",
            "seed0",
        ];
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown option --{k}"));
        }
    }

    if opts.iter().any(|(k, _)| k == "steadiness") {
        let args = SteadyArgs {
            runs: num("runs")?.unwrap_or(10).max(2),
            seed0: num("seed0")?.unwrap_or(1),
        };
        return Ok(if report(&args)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let workload = get("workload").ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            NAMES.join(", ")
        ));
    }
    let trace = match get("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let args = RunArgs {
        workload: workload.clone(),
        seed: num("seed")?.ok_or("--seed is required")?,
        seconds: num("seconds")?.ok_or("--seconds is required")? as f64,
        trace,
        scale: Scale::Full,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let outcome = run(&args)?;
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("digest {workload} {:016x}", outcome.digest);
    println!("info {}", outcome.info_json());
    println!("{}", outcome.result_json());
    Ok(ExitCode::SUCCESS)
}
