//! The closed-loop op runner every workload shares.
//!
//! A workload is a fixed, seed-generated list of at least
//! [`MIN_OPS`] ops; one op is one call into a simulator's public entry
//! point. A run makes one warm-up pass over the list, then a fixed number
//! of timed passes, from one client thread, each op only after the
//! previous one returned. The number of timed passes follows from the
//! run's time budget and the workload's nominal pass time alone, never
//! from how fast the program runs, so two builds are always measured
//! with the same estimator.
//!
//! An op's latency is its fastest call over the timed passes: the
//! machine's load from other processes comes in bursts that slow whole
//! stretches of a pass, and the fastest call is the one they missed. A
//! pass's time is the sum of its op calls, and `wall_s` is the median
//! pass, so a slowdown that builds up over repeated calls still shows.
//!
//! The machine's cores are not equally fast at any one moment: a core
//! whose hardware neighbour is busy runs the same op up to 1.8 times as
//! slow, for stretches of tens of seconds, and a lone thread the
//! scheduler leaves on that core stays slow for the whole run. So the
//! timed passes take the allowed cores in turn, the client thread pinned
//! to one core per pass, and every op is timed on each core equally
//! often. While pinned, the thread sees one CPU: a thread pool inside an
//! op (`std::thread::available_parallelism`) would run one worker.
//! Today no timed op starts threads (see `sweep`).
//!
//! Checking never aborts a run. The warm-up pass checks every op's output
//! and keeps its report bits; timed passes must reproduce those bits
//! exactly. An op whose check fails, whose bits differ, or that panics is
//! counted as failed.

use crate::layers::LayerInput;
use crate::stats::median;
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ops a workload's list must hold, so p90 has ten ops beyond it.
pub const MIN_OPS: usize = 100;

/// Ops shorter than this are flagged: below it, timer and loop overhead
/// start to show in the latency figures.
pub const MIN_OP_MS: f64 = 1.0;

/// Timed passes a run makes at least, so every op's latency has two
/// samples and a traced run has one pass of each kind.
pub const MIN_PASSES: usize = 2;

/// One workload's op list and its checks.
pub trait Workload {
    /// What one op returns.
    type Out;

    /// Seconds one pass over the full-size list takes on the machine the
    /// benchmark was calibrated on (a 2-vCPU Xeon virtual machine). A run
    /// of `--seconds S` makes `S / NOMINAL_PASS_S` timed passes.
    const NOMINAL_PASS_S: f64;

    /// Ops in one pass of the fixed list.
    fn op_count(&self) -> usize;

    /// Span name of the entry point an op calls, `layer.function`.
    fn op_span(&self) -> &'static str;

    /// Run op `i`. This call is what the benchmark times.
    fn run(&mut self, i: usize) -> Self::Out;

    /// Check op `i`'s output (untimed).
    fn check(&mut self, i: usize, out: &Self::Out) -> Result<(), String>;

    /// Append the output's report bits: every value the op produced, as
    /// raw bits, so two outputs are equal exactly when their bits are.
    fn bits(&self, out: &Self::Out, bits: &mut Vec<u64>);

    /// Inputs for the traced run's per-layer replays.
    fn layer_input(&self) -> LayerInput;
}

/// Timed passes for a time budget of `seconds`: whole nominal passes
/// that fit in it, at least [`MIN_PASSES`].
pub fn passes_for(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).floor() as usize).max(MIN_PASSES)
}

/// What the timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Timed seconds of each untraced pass (sum of its op calls).
    pub pass_s: Vec<f64>,
    /// Each op's latencies over the untraced passes, milliseconds.
    pub per_op_ms: Vec<Vec<f64>>,
    /// Timed seconds of each traced pass (traced runs only).
    pub traced_pass_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a hash of every op's report bits, in op order.
    pub digest: u64,
    /// First few failure reasons.
    pub problems: Vec<String>,
}

impl Measured {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// Each op's latency: its fastest untraced call, milliseconds.
    pub fn op_ms(&self) -> Vec<f64> {
        self.per_op_ms
            .iter()
            .map(|l| l.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// Seconds of one pass over the list: the median untraced pass.
    pub fn wall_s(&self) -> f64 {
        median(&self.pass_s)
    }
}

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: &[u64], mut h: u64) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Run the warm-up pass, then `passes` timed passes: at least
/// [`MIN_PASSES`], rounded up so every core gets as many of each kind.
///
/// With a tracer, the timed passes alternate between untraced and traced
/// (every op wrapped in a span), so the tracing overhead can be read off
/// the two kinds. Both passes of a pair run on the same core.
pub fn measure<W: Workload>(w: &mut W, passes: usize, mut tracer: Option<&mut Tracer>) -> Measured {
    let n = w.op_count();
    assert!(n > 0, "a workload needs at least one op");
    let passes = passes.max(MIN_PASSES);
    let mut m = Measured {
        digest: FNV_OFFSET,
        per_op_ms: vec![Vec::with_capacity(passes); n],
        ..Measured::default()
    };
    let mut bits = Vec::new();
    let mut hash = |w: &W, out: &W::Out| {
        bits.clear();
        w.bits(out, &mut bits);
        fnv1a(&bits, FNV_OFFSET)
    };

    // Warm-up: every op once, untimed, checked. Per op: the hash of its
    // bits, and whether its check passed.
    let mut first: Vec<Option<(u64, bool)>> = vec![None; n];
    for (i, first_i) in first.iter_mut().enumerate() {
        m.attempted += 1;
        let out = match catch_unwind(AssertUnwindSafe(|| w.run(i))) {
            Ok(out) => out,
            Err(_) => {
                m.fail(format!("op {i} panicked"));
                continue;
            }
        };
        let h = hash(w, &out);
        let ok = match w.check(i, &out) {
            Ok(()) => true,
            Err(why) => {
                m.fail(format!("op {i}: {why}"));
                false
            }
        };
        *first_i = Some((h, ok));
        m.digest = fnv1a(&[i as u64, h], m.digest);
    }

    let cpus = affinity::allowed();
    let kinds = if tracer.is_some() { 2 } else { 1 };
    let per_round = kinds * cpus.len().max(1);
    let passes = passes.div_ceil(per_round) * per_round;
    for pass in 0..passes {
        let traced = tracer.is_some() && pass % 2 == 1;
        let slot = (pass / kinds) % cpus.len().max(1);
        if cpus.len() > 1 {
            affinity::pin(&[cpus[slot]]);
        }
        let mut pass_ns = 0u128;
        for (i, first_i) in first.iter().enumerate() {
            let span = match (&mut tracer, traced) {
                (Some(t), true) => Some(t.begin(w.op_span(), i as u64)),
                _ => None,
            };
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.run(i)));
            let dt = t0.elapsed().as_nanos();
            if let (Some(t), Some(id)) = (&mut tracer, span) {
                t.end(id);
            }
            pass_ns += dt;
            m.attempted += 1;
            if !traced {
                m.per_op_ms[i].push(dt as f64 / 1e6);
            }
            let h = match out {
                Ok(out) => hash(w, &out),
                Err(_) => {
                    m.fail(format!("op {i} panicked"));
                    continue;
                }
            };
            match *first_i {
                Some((h0, true)) if h0 == h => {}
                Some((h0, _)) if h0 != h => {
                    m.fail(format!("op {i}: output differs from its first run"))
                }
                Some(_) => m.fail(format!("op {i}: repeats a failed output")),
                None => m.fail(format!("op {i}: ran after panicking in warm-up")),
            }
        }
        let secs = pass_ns as f64 / 1e9;
        if traced {
            m.traced_pass_s.push(secs);
        } else {
            m.pass_s.push(secs);
        }
    }
    if cpus.len() > 1 {
        affinity::pin(&cpus);
    }

    // A sampled op re-run after the timed passes must reproduce its
    // first output bit for bit.
    for i in [0, n / 2] {
        m.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| w.run(i))) {
            Ok(out) => {
                if first[i].map(|(h, _)| h) != Some(hash(w, &out)) {
                    m.fail(format!("op {i}: re-run outside timing differs"));
                }
            }
            Err(_) => m.fail(format!("op {i} panicked on re-run")),
        }
    }
    m
}

/// The calling thread's CPU affinity, through the C library's
/// `sched_getaffinity` and `sched_setaffinity`.
mod affinity {
    /// A `cpu_set_t` of 1024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on; empty where unknown.
    pub fn allowed() -> Vec<usize> {
        let mut set = CpuSet([0; 16]);
        #[cfg(target_os = "linux")]
        // SAFETY: `set` is a valid, writable `cpu_set_t` of the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Let the calling thread run on `cpus` only. Best effort: a refused
    /// pin leaves the affinity as it was.
    pub fn pin(cpus: &[usize]) {
        let mut set = CpuSet([0; 16]);
        for &c in cpus {
            set.0[c / 64] |= 1 << (c % 64);
        }
        #[cfg(target_os = "linux")]
        // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0
        // names the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
        }
    }
}

/// Bits of a float, for report comparison.
pub fn fbits(x: f64) -> u64 {
    x.to_bits()
}

/// `Ok` when `x` is finite and non-negative.
pub fn nonneg(name: &str, x: f64) -> Result<(), String> {
    if x.is_finite() && x >= 0.0 {
        Ok(())
    } else {
        Err(format!("{name} = {x} is not a finite non-negative number"))
    }
}

/// `Ok` when `x` is a fraction in `[0, 1]`.
pub fn unit(name: &str, x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{name} = {x} is outside [0, 1]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops return their index; op `bad` returns a negative "cost".
    struct Fake {
        bad: usize,
        calls: usize,
    }

    impl Workload for Fake {
        type Out = f64;
        const NOMINAL_PASS_S: f64 = 1.0;
        fn op_count(&self) -> usize {
            4
        }
        fn op_span(&self) -> &'static str {
            "fake.op"
        }
        fn run(&mut self, i: usize) -> f64 {
            self.calls += 1;
            if i == self.bad {
                -1.0
            } else {
                i as f64
            }
        }
        fn check(&mut self, _i: usize, out: &f64) -> Result<(), String> {
            nonneg("cost", *out)
        }
        fn bits(&self, out: &f64, bits: &mut Vec<u64>) {
            bits.push(fbits(*out));
        }
        fn layer_input(&self) -> LayerInput {
            unreachable!("the fake workload has no layers")
        }
    }

    #[test]
    fn injected_bad_report_counts_as_failed_op() {
        let mut w = Fake { bad: 1, calls: 0 };
        let m = measure(&mut w, 3, None);
        // A warm-up pass and at least three timed passes of four ops,
        // plus two sampled re-runs.
        let passes = m.pass_s.len() as u64;
        assert!(passes >= 3);
        assert_eq!(m.attempted, 4 + 4 * passes + 2);
        assert_eq!(w.calls as u64, m.attempted);
        // The bad op fails in every pass; nothing else fails.
        assert_eq!(m.failed, 1 + passes);
        assert!(m.problems[0].contains("cost"));
    }

    #[test]
    fn pass_count_depends_on_the_budget_alone() {
        assert_eq!(passes_for(20.0, 8.0), 2);
        assert_eq!(passes_for(20.0, 0.9), 22);
        assert_eq!(passes_for(0.0, 0.9), MIN_PASSES);
        let m = measure(&mut Fake { bad: 99, calls: 0 }, 0, None);
        let cpus = affinity::allowed().len().max(1);
        assert_eq!(m.pass_s.len(), MIN_PASSES.div_ceil(cpus) * cpus);
    }

    #[test]
    fn clean_workload_has_no_failures_and_a_stable_digest() {
        let a = measure(&mut Fake { bad: 99, calls: 0 }, 2, None);
        let b = measure(&mut Fake { bad: 99, calls: 0 }, 5, None);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.op_ms().len(), 4);
        assert!(b.pass_s.len() >= 5);
        assert!(b.per_op_ms.iter().all(|l| l.len() == b.pass_s.len()));
        assert!(a.wall_s() >= 0.0);
    }

    #[test]
    fn traced_measure_runs_both_kinds_of_pass() {
        let mut t = Tracer::new();
        let m = measure(&mut Fake { bad: 99, calls: 0 }, 2, Some(&mut t));
        assert!(!m.pass_s.is_empty());
        assert_eq!(m.traced_pass_s.len(), m.pass_s.len());
        assert_eq!(t.spans().len(), 4 * m.traced_pass_s.len());
    }
}
