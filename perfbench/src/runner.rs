//! One benchmark run: set-up, the timed phase, checks, metrics.

use crate::harness::{measure, passes_for, Measured, Workload, MIN_OPS};
use crate::json;
use crate::layers::{probe, table};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::fleet::Fleet;
use crate::workloads::jobs::Jobs;
use crate::workloads::store::Query;
use crate::workloads::sweep::Sweep;
use crate::workloads::Scale;
use spothost_market::TraceArena;
use std::path::PathBuf;
use std::time::Instant;

/// Times set-up runs per benchmark run; `setup_s` is their median.
pub const SETUPS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Time budget; with the workload's nominal pass time it fixes the
    /// number of timed passes.
    pub seconds: f64,
    pub trace: bool,
    /// `Full` for the benchmark; the tests use `Tiny`.
    pub scale: Scale,
    /// Where the traced run writes its Chrome trace and layer table.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub digest: u64,
    /// Ops in the list, each one latency sample.
    pub ops: usize,
    pub min_op_ms: f64,
    pub arena_hit_frac: f64,
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(n),
                    json::num(*v),
                    json::quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The diagnostics line steadiness mode reads.
    pub fn info_json(&self) -> String {
        format!(
            "{{\"ops\": {}, \"min_op_ms\": {}, \"arena_hit_frac\": {}, \"digest\": \"{:016x}\"}}",
            self.ops,
            json::num(self.min_op_ms),
            json::num(self.arena_hit_frac),
            self.digest
        )
    }
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    /// glibc: hand free heap memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Start measuring the peak resident set afresh, from the memory the
/// process holds live. Set-up frees more than it keeps, and how much of
/// that freed memory the allocator keeps resident depends on the order of
/// its requests, which changes with the seed: by a third of the peak
/// between seeds. Handing it back first makes the peak the timed phase's
/// own: the live fixtures plus what the ops allocate.
fn reset_peak_rss() {
    #[cfg(target_os = "linux")]
    // SAFETY: `malloc_trim` only returns free pages to the kernel; no
    // live allocation moves.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets VmHWM to the current resident set (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Run one workload. `Err` for an unknown workload name.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep" => Ok(run_with(args, Sweep::build)),
        "fleet" => Ok(run_with(args, Fleet::build)),
        "jobs" => Ok(run_with(args, Jobs::build)),
        "query" => Ok(run_with(args, Query::build)),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn run_with<W: Workload>(args: &RunArgs, build: fn(u64, Scale) -> W) -> Outcome {
    let arena = TraceArena::global();
    // Set-up from a cold trace arena, several times; the last one built
    // is measured.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        arena.clear();
        let t0 = Instant::now();
        built = Some(build(args.seed, args.scale));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let mut w = built.expect("at least one set-up");
    assert!(
        w.op_count() >= MIN_OPS,
        "{} holds {} ops; p90 needs {MIN_OPS}",
        args.workload,
        w.op_count()
    );

    reset_peak_rss();
    let before = arena.stats();
    let mut tracer = Tracer::new();
    let passes = passes_for(args.seconds, W::NOMINAL_PASS_S);
    let m = measure(&mut w, passes, args.trace.then_some(&mut tracer));
    let after = arena.stats();
    let misses = after.trace_misses - before.trace_misses;
    let lookups = misses + after.trace_hits - before.trace_hits;
    let arena_hit_frac = if lookups == 0 {
        1.0
    } else {
        1.0 - misses as f64 / lookups as f64
    };
    let rss = peak_rss_mb();

    let mut out = Outcome {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
        digest: m.digest,
        ops: m.per_op_ms.len(),
        min_op_ms: m.op_ms().into_iter().fold(f64::INFINITY, f64::min),
        arena_hit_frac,
        problems: m.problems.clone(),
    };
    if args.trace {
        traced_metrics(args, &w, &m, &mut tracer, &mut out);
    } else {
        end_to_end_metrics(&m, setup_s, rss, &mut out);
    }
    out
}

fn end_to_end_metrics(m: &Measured, setup_s: f64, rss: f64, out: &mut Outcome) {
    let op_ms = m.op_ms();
    let pct = |p: f64| match percentile(&op_ms, p) {
        Ok(x) => x,
        Err(e) => panic!("timed phase too short: {e}"),
    };
    let ok_frac = 1.0 - m.failed as f64 / m.attempted.max(1) as f64;
    for (name, unit, _) in END_TO_END {
        let value = match name {
            "setup_s" => setup_s,
            "wall_s" => m.wall_s(),
            "op_p50_ms" => pct(0.5),
            "op_p90_ms" => pct(0.9),
            "peak_rss_mb" => rss,
            "ops_ok_frac" => ok_frac,
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        out.metrics.push((name, value, unit));
    }
}

fn traced_metrics<W: Workload>(
    args: &RunArgs,
    w: &W,
    m: &Measured,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let overhead = median(&m.traced_pass_s) / median(&m.pass_s);
    let probed = probe(&w.layer_input(), tracer, out.arena_hit_frac, overhead);
    for p in &probed.problems {
        out.failed += 1;
        out.attempted += 1;
        out.correct = false;
        if out.problems.len() < 16 {
            out.problems.push(p.clone());
        }
    }
    for lm in PER_LAYER {
        let row = probed
            .rows
            .iter()
            .find(|r| r.metric == lm.name)
            .unwrap_or_else(|| panic!("layer replay produced no {}", lm.name));
        out.metrics.push((lm.name, row.value, lm.unit));
    }
    let table = table(&probed.rows);
    eprintln!("{table}");
    eprintln!(
        "tracing overhead: traced pass {:.4} s vs untraced {:.4} s (ratio {:.4})",
        median(&m.traced_pass_s),
        median(&m.pass_s),
        overhead
    );
    if let Err(e) = write_artifacts(args, tracer, &table) {
        eprintln!("could not write trace artifacts: {e}");
    }
}

fn write_artifacts(args: &RunArgs, tracer: &Tracer, table: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let trace = args.out_dir.join(format!("{}-trace.json", args.workload));
    std::fs::write(&trace, tracer.chrome_json())?;
    std::fs::write(
        args.out_dir.join(format!("{}-layers.txt", args.workload)),
        table,
    )?;
    eprintln!("wrote {} ({} spans)", trace.display(), tracer.spans().len());
    Ok(())
}
