//! `jobs`: deadline batch jobs on spot through `run_jobs_on`.
//!
//! Each op is one cell of the `repro jobs` grid (3 policies × 7 fault
//! rates × calm or storm 0.6) over a block of two seeds at the 60-day
//! horizon: one `run_jobs_on` per seed. Every cell appears three times,
//! its blocks rotating through a pool of 72 seeds: the heavy cells' cost
//! swings with the seed's price trace.

use super::{base_seed, Scale};
use crate::harness::{fbits, nonneg, unit, Workload};
use crate::layers::LayerInput;
use spothost_bench::experiments::jobs::{RATES, STORM_LEVELS};
use spothost_core::telemetry::NullSink;
use spothost_core::SchedulerConfig;
use spothost_faults::{FaultConfig, StormConfig};
use spothost_jobs::{run_jobs_on, JobPolicy, JobsConfig, JobsReport, JobsScratch};
use spothost_market::prelude::*;

/// The `repro jobs` cell for a policy, fault rate and storm intensity.
pub fn cell(policy: JobPolicy, rate: f64, storm: f64) -> JobsConfig {
    let cfg = JobsConfig::new(policy).with_faults(FaultConfig::uniform(rate));
    if storm > 0.0 {
        cfg.with_storms(StormConfig::intensity(storm))
    } else {
        cfg
    }
}

/// Every cell of the `repro jobs` grid.
pub fn cells() -> Vec<JobsConfig> {
    let mut out = Vec::new();
    for &storm in &STORM_LEVELS {
        for &policy in &JobPolicy::ALL {
            for rate in RATES {
                out.push(cell(policy, rate, storm));
            }
        }
    }
    out
}

/// Invariants of a jobs report.
pub fn check_jobs_report(r: &JobsReport) -> Result<(), String> {
    if r.finished > r.jobs || r.missed > r.jobs {
        return Err(format!(
            "finished {} / missed {} exceed {} jobs",
            r.finished, r.missed, r.jobs
        ));
    }
    nonneg("total_cost", r.total_cost)?;
    nonneg("cost_per_job", r.cost_per_job())?;
    unit("wasted_fraction", r.wasted_fraction())?;
    unit("miss_rate", r.miss_rate_pct() / 100.0)?;
    Ok(())
}

/// Every value of a jobs report as raw bits.
pub fn jobs_report_bits(r: &JobsReport, bits: &mut Vec<u64>) {
    bits.extend([
        u64::from(r.jobs),
        u64::from(r.finished),
        u64::from(r.missed),
        fbits(r.total_cost),
        r.useful.0,
        r.wasted.0,
        u64::from(r.revocations),
        u64::from(r.checkpoints),
        u64::from(r.escalations),
        r.makespan.0,
    ]);
}

pub struct Jobs {
    cells: Vec<JobsConfig>,
    horizon: SimDuration,
    scratch: JobsScratch,
    /// Op list: (cell, seed block).
    ops: Vec<(usize, Vec<u64>)>,
}

impl Jobs {
    /// Set-up: draw a pool of seeds, warm their traces, and give every
    /// op a different block of the pool, so each cell meets several
    /// seeds and each seed several cells.
    pub fn build(seed: u64, scale: Scale) -> Jobs {
        let (pool_len, passes_per_cell, block_len, days) = match scale {
            Scale::Full => (72u64, 3usize, 2u64, 60),
            Scale::Tiny => (2, 3, 1, 7),
        };
        let base = base_seed(seed, "jobs");
        let horizon = SimDuration::days(days);
        let cells = cells();
        let catalog = Catalog::ec2_2015();
        for s in base..base + pool_len {
            TraceSet::generate(&catalog, &[cells[0].market], s, horizon);
        }
        let ops = (0..cells.len() * passes_per_cell)
            .map(|j| {
                let first = j as u64 * block_len;
                let block = (first..first + block_len)
                    .map(|k| base + k % pool_len)
                    .collect();
                (j % cells.len(), block)
            })
            .collect();
        Jobs {
            cells,
            horizon,
            scratch: JobsScratch::new(),
            ops,
        }
    }
}

impl Workload for Jobs {
    type Out = Vec<JobsReport>;
    const NOMINAL_PASS_S: f64 = 1.5;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op_span(&self) -> &'static str {
        "jobs.run_jobs_on"
    }

    fn run(&mut self, i: usize) -> Vec<JobsReport> {
        let (c, ref block) = self.ops[i];
        let cfg = &self.cells[c];
        let catalog = Catalog::ec2_2015();
        block
            .iter()
            .map(|&seed| {
                let traces = TraceSet::generate(&catalog, &[cfg.market], seed, self.horizon);
                run_jobs_on(cfg, &traces, seed, &mut NullSink, &mut self.scratch).report
            })
            .collect()
    }

    fn check(&mut self, i: usize, out: &Vec<JobsReport>) -> Result<(), String> {
        if out.len() != self.ops[i].1.len() {
            return Err(format!(
                "{} reports for {} seeds",
                out.len(),
                self.ops[i].1.len()
            ));
        }
        out.iter().try_for_each(check_jobs_report)
    }

    fn bits(&self, out: &Vec<JobsReport>, bits: &mut Vec<u64>) {
        for r in out {
            jobs_report_bits(r, bits);
        }
    }

    fn layer_input(&self) -> LayerInput {
        let seed = self.ops[0].1[0];
        let mut sched: Vec<SchedulerConfig> = Vec::new();
        for &policy in &JobPolicy::ALL {
            sched.push(
                SchedulerConfig::single_market(self.cells[0].market).with_policy(policy.bidding()),
            );
        }
        LayerInput {
            sched,
            jobs: self.cells.clone(),
            ..LayerInput::defaults(seed, self.horizon)
        }
    }
}
