//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all             # every experiment, paper-fidelity settings
//! repro fig6 fig7       # selected experiments
//! repro --quick all     # smaller Monte-Carlo settings (CI smoke)
//! repro --list          # list experiment names
//! repro --csv out/ all  # also write CSV artifacts for the figures
//! repro --trace out/ fig6  # also record one representative seed's
//!                          # telemetry per experiment as out/fig6.col
//! repro --trace-cap 0 all  # unbounded trace arena (default bounds
//!                          # residency to 64 traces, ~50 MB)
//! ```

use spothost_analysis::outln;
use spothost_bench::experiments;
use spothost_bench::ExpSettings;
use std::time::Instant;

/// Default trace-arena residency bound. Seed sweeps walk seeds
/// monotonically, so FIFO eviction keeps only the seeds in flight; 64
/// traces (~50 MB at the 60-day horizon) comfortably covers the widest
/// per-seed market union in the suite while keeping `repro all` flat in
/// memory instead of accumulating every (seed, market) trace generated.
const DEFAULT_TRACE_CAP: u64 = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut trace_cap = DEFAULT_TRACE_CAP;
    let mut names: Vec<String> = Vec::new();
    let mut args_iter = args.iter().peekable();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                let Some(dir) = args_iter.next() else {
                    eprintln!("--csv expects a directory");
                    std::process::exit(2);
                };
                csv_dir = Some(dir.clone());
            }
            "--trace" => {
                let Some(dir) = args_iter.next() else {
                    eprintln!("--trace expects a directory");
                    std::process::exit(2);
                };
                trace_dir = Some(dir.clone());
            }
            "--trace-cap" => {
                let cap = args_iter.next().and_then(|v| v.parse().ok());
                let Some(cap) = cap else {
                    eprintln!("--trace-cap expects a trace count (0 = unbounded)");
                    std::process::exit(2);
                };
                trace_cap = cap;
            }
            "--list" => {
                for (name, desc) in experiments::ALL {
                    outln!("{name:<12} {desc}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!("usage: repro [--quick] [--list] <experiment...|all>");
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        eprintln!("usage: repro [--quick] [--list] <experiment...|all>");
        eprintln!(
            "experiments: {}",
            experiments::ALL.map(|(n, _)| n).join(", ")
        );
        std::process::exit(2);
    }
    if names.iter().any(|n| n == "all") {
        names = experiments::ALL
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
    }

    let settings = if quick {
        ExpSettings::quick()
    } else {
        ExpSettings::full()
    };
    spothost_market::TraceArena::global().set_trace_capacity(trace_cap);
    outln!(
        "spothost repro — seeds {} x horizon {} ({} mode)\n",
        settings.seeds,
        settings.horizon,
        if quick { "quick" } else { "full" }
    );

    let total = Instant::now();
    for name in &names {
        let start = Instant::now();
        match experiments::run_with_csv(name, &settings) {
            Some((report, artifacts)) => {
                outln!("{}", "=".repeat(78));
                outln!("{report}");
                if let Some(dir) = &csv_dir {
                    std::fs::create_dir_all(dir).expect("create csv dir");
                    for (file, contents) in &artifacts {
                        let path = std::path::Path::new(dir).join(file);
                        std::fs::write(&path, contents).expect("write csv");
                        outln!("[wrote {}]", path.display());
                    }
                }
                if let Some(dir) = &trace_dir {
                    if let Some(rep) = experiments::representative(name) {
                        std::fs::create_dir_all(dir).expect("create trace dir");
                        let path = std::path::Path::new(dir).join(format!("{name}.col"));
                        let store = spothost_eventstore::ColumnarStore::create(&path)
                            .expect("create columnar store");
                        rep.record(&settings, &mut store.sink());
                        store.finish().expect("flush columnar store");
                        outln!(
                            "[wrote {} ({} events, {} blocks)]",
                            path.display(),
                            store.events_written(),
                            store.blocks_written()
                        );
                    }
                }
                outln!("[{name} done in {:.1}s]\n", start.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment '{name}' (try --list)");
                std::process::exit(2);
            }
        }
    }
    outln!("total: {:.1}s", total.elapsed().as_secs_f64());
}
