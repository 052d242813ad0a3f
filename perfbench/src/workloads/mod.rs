//! The benchmark's workloads. Each builds its fixed op list from the
//! workload seed during set-up, warms every price trace its ops read, and
//! then serves ops to the harness.

pub mod fleet;
pub mod jobs;
pub mod store;
pub mod sweep;

use crate::harness::{fbits, nonneg, unit};
use spothost_core::RunReport;

/// Every workload, by the name `--workload` takes.
pub const NAMES: [&str; 4] = ["sweep", "fleet", "jobs", "query"];

/// Problem size. `Full` is what the benchmark measures; `Tiny` shrinks
/// every dimension so the smoke tests finish in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// SplitMix64: the benchmark's only source of derived seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// First simulation seed of a workload: a function of the workload seed
/// and the workload's name, so workloads never share seeds.
pub fn base_seed(seed: u64, salt: &str) -> u64 {
    let salt = salt.bytes().fold(0u64, |h, b| mix(h ^ u64::from(b)));
    mix(seed ^ salt) % 1_000_000_000
}

/// Invariants every scheduler run report must hold.
pub fn check_run_report(r: &RunReport) -> Result<(), String> {
    nonneg("cost", r.cost)?;
    nonneg("baseline_cost", r.baseline_cost)?;
    nonneg("normalized_cost", r.normalized_cost)?;
    nonneg("forced_per_hour", r.forced_per_hour)?;
    nonneg("planned_reverse_per_hour", r.planned_reverse_per_hour)?;
    unit("unavailability", r.unavailability)?;
    unit("degraded_fraction", r.degraded_fraction)?;
    unit("spot_fraction", r.spot_fraction)?;
    Ok(())
}

/// Every field of a run report as raw bits.
pub fn run_report_bits(r: &RunReport, bits: &mut Vec<u64>) {
    bits.extend([
        fbits(r.normalized_cost),
        fbits(r.unavailability),
        fbits(r.degraded_fraction),
        fbits(r.forced_per_hour),
        fbits(r.planned_reverse_per_hour),
        fbits(r.spot_fraction),
        fbits(r.cost),
        fbits(r.baseline_cost),
        r.downtime.0,
        r.active_span.0,
        u64::from(r.forced_migrations),
        u64::from(r.planned_migrations),
        u64::from(r.reverse_migrations),
        u64::from(r.request_faults),
        u64::from(r.unwarned_revocations),
        u64::from(r.ckpt_faults),
        u64::from(r.live_aborts),
    ]);
}
