//! `sweep`: figure-style Monte-Carlo grids through `run_grid`.
//!
//! Each op is one `spothost_core::run_grid` over one config grid for one
//! seed at the 60-day horizon. The grids mirror fig6, fig8, fig9,
//! adaptive, faults (uniform rate 0.2) and storms (intensity 0.5): the
//! inner loop of most experiments. fig8 runs as two grids of two zones
//! each. Its halves then cost about what the other grids cost, and the
//! seven grids' latency clusters put p50 and p90 inside a cluster rather
//! than in the gap between two, where they would jump from run to run.
//!
//! `run_grid` runs a one-seed block on the calling thread. With a block
//! of two seeds it runs one on each of two worker threads, and an op's
//! latency rides on the slower of the machine's two cores, whose speeds
//! change for tens of seconds at a time on a shared machine: on a 2-vCPU
//! Xeon virtual machine shared with other tenants, the p90 of two-seed
//! ops spread by 0.24 of its median over ten seeds, against 0.07 for
//! one-seed ops. The traced run measures the threads
//! (`analysis.grid_parallel_eff`).

use super::{base_seed, check_run_report, run_report_bits, Scale};
use crate::harness::Workload;
use crate::layers::LayerInput;
use spothost_bench::experiments::{self, storms::BASE_FAULT_RATE};
use spothost_core::prelude::*;
use spothost_core::{run_grid, run_one};
use spothost_market::prelude::*;

/// One named config grid.
pub struct Grid {
    pub name: &'static str,
    pub cfgs: Vec<SchedulerConfig>,
}

/// The figure grids, fig8 in two halves.
pub fn grids() -> Vec<Grid> {
    let single = |z, t| SchedulerConfig::single_market(MarketId::new(z, t));
    let small = MarketId::new(Zone::UsEast1a, InstanceType::Small);

    let mut fig6 = Vec::new();
    let mut fig8 = [Vec::new(), Vec::new()];
    let mut adaptive = Vec::new();
    for size in InstanceType::ALL {
        // fig6 compares these two policies; its experiment lists them in
        // its body.
        for policy in [BiddingPolicy::Reactive, BiddingPolicy::proactive_default()] {
            fig6.push(single(experiments::fig6::ZONE, size).with_policy(policy));
        }
        for (_, policy) in experiments::adaptive::POLICIES {
            adaptive.push(single(experiments::adaptive::ZONE, size).with_policy(policy));
        }
    }
    for (i, zone) in Zone::ALL.into_iter().enumerate() {
        let half = &mut fig8[i / 2];
        for size in InstanceType::ALL {
            half.push(single(zone, size).with_mechanism(MechanismCombo::CKPT_LR_LIVE));
        }
        half.push(SchedulerConfig::multi(MarketScope::MultiMarket(zone)));
    }
    let [fig8_east, fig8_rest] = fig8;
    let mut fig9: Vec<SchedulerConfig> = Zone::ALL
        .iter()
        .map(|&z| SchedulerConfig::multi(MarketScope::MultiMarket(z)))
        .collect();
    for (a, b) in Zone::all_pairs() {
        fig9.push(SchedulerConfig::multi(MarketScope::MultiRegion(vec![a, b])));
    }
    let mut faults: Vec<SchedulerConfig> = MechanismCombo::ALL
        .iter()
        .map(|&combo| {
            SchedulerConfig::single_market(small)
                .with_policy(BiddingPolicy::proactive_default())
                .with_mechanism(combo)
                .with_faults(FaultConfig::uniform(0.2))
        })
        .collect();
    for policy in [
        BiddingPolicy::Reactive,
        BiddingPolicy::proactive_default(),
        BiddingPolicy::OnDemandOnly,
    ] {
        faults.push(
            SchedulerConfig::single_market(small)
                .with_policy(policy)
                .with_mechanism(MechanismCombo::CKPT_LR)
                .with_faults(FaultConfig::uniform(0.2)),
        );
    }
    let mut storms: Vec<SchedulerConfig> = MechanismCombo::ALL
        .iter()
        .map(|&combo| {
            SchedulerConfig::single_market(small)
                .with_policy(BiddingPolicy::proactive_default())
                .with_mechanism(combo)
                .with_faults(FaultConfig::uniform(BASE_FAULT_RATE))
                .with_storms(StormConfig::intensity(0.5))
        })
        .collect();
    for scope in [
        MarketScope::Single(small),
        MarketScope::MultiMarket(Zone::UsEast1a),
        MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsWest1a, Zone::EuWest1a]),
    ] {
        storms.push(
            SchedulerConfig::multi(scope)
                .with_capacity_units(1)
                .with_policy(BiddingPolicy::proactive_default())
                .with_mechanism(MechanismCombo::CKPT_LR_LIVE)
                .with_faults(FaultConfig::uniform(BASE_FAULT_RATE))
                .with_storms(StormConfig::intensity(0.5)),
        );
    }
    vec![
        Grid {
            name: "fig6",
            cfgs: fig6,
        },
        Grid {
            name: "fig8-us-east",
            cfgs: fig8_east,
        },
        Grid {
            name: "fig8-us-west-eu",
            cfgs: fig8_rest,
        },
        Grid {
            name: "fig9",
            cfgs: fig9,
        },
        Grid {
            name: "adaptive",
            cfgs: adaptive,
        },
        Grid {
            name: "faults",
            cfgs: faults,
        },
        Grid {
            name: "storms",
            cfgs: storms,
        },
    ]
}

pub struct Sweep {
    grids: Vec<Grid>,
    horizon: SimDuration,
    /// Op list: (grid, seed).
    ops: Vec<(usize, u64)>,
}

impl Sweep {
    /// Set-up: derive the seeds and warm every trace the ops read.
    pub fn build(seed: u64, scale: Scale) -> Sweep {
        let (seeds, days) = match scale {
            Scale::Full => (30, 60),
            Scale::Tiny => (15, 3),
        };
        // A run's cost swings with its seed's price trace, and the more
        // seeds a run spans, the less its figures depend on the workload
        // seed.
        let base = base_seed(seed, "sweep");
        let horizon = SimDuration::days(days);
        let catalog = Catalog::ec2_2015();
        for s in base..base + seeds {
            TraceSet::generate(&catalog, &MarketId::all(), s, horizon);
        }
        let grids = grids();
        let ops = (base..base + seeds)
            .flat_map(|s| (0..grids.len()).map(move |g| (g, s)))
            .collect();
        Sweep {
            grids,
            horizon,
            ops,
        }
    }
}

impl Workload for Sweep {
    type Out = Vec<AggregateReport>;
    const NOMINAL_PASS_S: f64 = 1.8;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op_span(&self) -> &'static str {
        "core.run_grid"
    }

    fn run(&mut self, i: usize) -> Vec<AggregateReport> {
        let (g, seed) = self.ops[i];
        run_grid(&self.grids[g].cfgs, seed, 1, self.horizon)
    }

    fn check(&mut self, i: usize, out: &Vec<AggregateReport>) -> Result<(), String> {
        let (g, seed) = self.ops[i];
        let grid = &self.grids[g];
        if out.len() != grid.cfgs.len() {
            return Err(format!(
                "{}: {} aggregates for {} configs",
                grid.name,
                out.len(),
                grid.cfgs.len()
            ));
        }
        for agg in out {
            if agg.runs.len() != 1 {
                return Err(format!(
                    "{}: {} runs for one seed",
                    grid.name,
                    agg.runs.len()
                ));
            }
            for r in &agg.runs {
                check_run_report(r).map_err(|e| format!("{}: {e}", grid.name))?;
            }
        }
        // run_grid is documented bit-identical to run_one per seed: check
        // one sampled cell of every op.
        let c = i % grid.cfgs.len();
        let solo = run_one(&grid.cfgs[c], seed, self.horizon);
        let (mut a, mut s) = (Vec::new(), Vec::new());
        run_report_bits(&out[c].runs[0], &mut a);
        run_report_bits(&solo, &mut s);
        if a != s {
            return Err(format!(
                "{} cell {c}: run_grid differs from run_one",
                grid.name
            ));
        }
        Ok(())
    }

    fn bits(&self, out: &Vec<AggregateReport>, bits: &mut Vec<u64>) {
        for agg in out {
            for r in &agg.runs {
                run_report_bits(r, bits);
            }
        }
    }

    fn layer_input(&self) -> LayerInput {
        let mut sched = Vec::new();
        for g in &self.grids {
            sched.extend(g.cfgs.iter().cloned());
        }
        let seed = self.ops[0].1;
        LayerInput {
            sched,
            ..LayerInput::defaults(seed, self.horizon)
        }
    }
}
