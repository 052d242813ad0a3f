//! `fleet`: autoscaled fleet runs through `run_fleet_sim`.
//!
//! Each op is one `run_fleet_sim` of one of the four `repro fleet`
//! variants (single-zone or cross-region, calm or storm 0.5) at
//! `repro --quick` scale: 5–200 VMs, 6k base users, 21 days.
//! A run's cost swings with its seed's storm timeline and traffic, so
//! the list spans 40 seeds.

use super::{base_seed, Scale};
use crate::harness::{fbits, nonneg, unit, Workload};
use crate::layers::LayerInput;
use spothost_bench::experiments::fleet_sim::{config_for, STORM_INTENSITY};
use spothost_bench::ExpSettings;
use spothost_fleet::{run_fleet_sim, FleetSimConfig, FleetSimReport};
use spothost_market::prelude::*;

/// The four `repro fleet` variants at quick scale.
pub fn variants() -> Vec<FleetSimConfig> {
    let settings = ExpSettings::quick();
    let cross = vec![Zone::UsEast1a, Zone::UsWest1a, Zone::EuWest1a];
    let mut out = Vec::new();
    for storm in [0.0, STORM_INTENSITY] {
        out.push(config_for(&settings, vec![Zone::UsEast1a], storm));
        out.push(config_for(&settings, cross.clone(), storm));
    }
    out
}

/// Every market a fleet config may bid in.
pub fn fleet_markets(cfg: &FleetSimConfig) -> Vec<MarketId> {
    cfg.zones
        .iter()
        .flat_map(|&z| MarketId::all_in_zone(z))
        .collect()
}

/// Invariants of a fleet report.
pub fn check_fleet_report(cfg: &FleetSimConfig, r: &FleetSimReport) -> Result<(), String> {
    nonneg("total_cost", r.total_cost)?;
    nonneg("od_equivalent_cost", r.od_equivalent_cost)?;
    nonneg("static_peak_cost", r.static_peak_cost)?;
    nonneg("vm_hours", r.vm_hours)?;
    nonneg("offered_user_seconds", r.offered_user_seconds)?;
    nonneg("unserved_user_seconds", r.unserved_user_seconds)?;
    nonneg("outage_seconds", r.outage_seconds)?;
    nonneg("mean_response_s", r.mean_response_s)?;
    nonneg("worst_p99_s", r.worst_p99_s)?;
    unit("mean_utilization", r.mean_utilization)?;
    unit("slo_violation_frac", r.slo_violation_frac)?;
    unit("vm_unavailability", r.vm_unavailability)?;
    unit("spot_fraction", r.spot_fraction)?;
    unit("service_availability", r.service_availability())?;
    if r.unserved_user_seconds > r.offered_user_seconds {
        return Err(format!(
            "unserved {} > offered {} user-seconds",
            r.unserved_user_seconds, r.offered_user_seconds
        ));
    }
    if r.peak_vms > cfg.max_vms {
        return Err(format!("peak_vms {} > max_vms {}", r.peak_vms, cfg.max_vms));
    }
    for s in &r.samples {
        unit("sample utilization", s.utilization)?;
        nonneg("sample users", s.users)?;
        if s.serving > s.live {
            return Err(format!("{} serving VMs of {} live", s.serving, s.live));
        }
    }
    Ok(())
}

/// Every value of a fleet report as raw bits.
pub fn fleet_report_bits(r: &FleetSimReport, bits: &mut Vec<u64>) {
    bits.extend([
        r.horizon.0,
        fbits(r.total_cost),
        fbits(r.od_equivalent_cost),
        fbits(r.static_peak_cost),
        fbits(r.vm_hours),
        u64::from(r.peak_vms),
        u64::from(r.spawned_vms),
        u64::from(r.released_vms),
        u64::from(r.scale_ups),
        u64::from(r.scale_downs),
        fbits(r.offered_user_seconds),
        fbits(r.unserved_user_seconds),
        fbits(r.outage_seconds),
        fbits(r.mean_response_s),
        fbits(r.worst_p99_s),
        fbits(r.mean_utilization),
        fbits(r.slo_violation_frac),
        fbits(r.vm_unavailability),
        fbits(r.spot_fraction),
        r.forced_migrations,
        r.planned_migrations,
        r.reverse_migrations,
    ]);
    for s in &r.samples {
        bits.extend([
            s.t.0,
            fbits(s.users),
            u64::from(s.desired),
            u64::from(s.live),
            u64::from(s.serving),
            fbits(s.utilization),
            fbits(s.mean_response_s),
            fbits(s.p99_response_s),
        ]);
    }
}

pub struct Fleet {
    variants: Vec<FleetSimConfig>,
    horizon: SimDuration,
    /// Op list: (variant, seed).
    ops: Vec<(usize, u64)>,
}

/// The cross-region storm variant runs at two seeds per block. Sorted by
/// cost the ops then form three clusters: the calm variants (40%), the
/// single-zone storm (20%) and the cross-region storm (40%). So p50 falls
/// in the middle of a cluster instead of in the gap between the calm and
/// the stormy runs, where it would jump from run to run, and p90 falls
/// inside the costliest cluster.
const CROSS_STORM: usize = 3;

impl Fleet {
    pub fn build(seed: u64, scale: Scale) -> Fleet {
        let (blocks, days) = match scale {
            Scale::Full => (20, 21),
            Scale::Tiny => (20, 1),
        };
        let base = base_seed(seed, "fleet");
        let horizon = SimDuration::days(days);
        let variants = variants();
        let mut ops = Vec::new();
        for b in 0..blocks {
            for v in 0..variants.len() {
                ops.push((v, base + b));
            }
            ops.push((CROSS_STORM, base + blocks + b));
        }
        let catalog = Catalog::ec2_2015();
        let mut markets: Vec<MarketId> = variants.iter().flat_map(fleet_markets).collect();
        markets.sort_by_key(|m| m.dense_index());
        markets.dedup();
        for s in base..base + 2 * blocks {
            TraceSet::generate(&catalog, &markets, s, horizon);
        }
        Fleet {
            variants,
            horizon,
            ops,
        }
    }
}

impl Workload for Fleet {
    type Out = FleetSimReport;
    const NOMINAL_PASS_S: f64 = 8.5;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op_span(&self) -> &'static str {
        "fleet.run_fleet_sim"
    }

    fn run(&mut self, i: usize) -> FleetSimReport {
        let (v, seed) = self.ops[i];
        run_fleet_sim(&self.variants[v], seed, self.horizon)
    }

    fn check(&mut self, i: usize, out: &FleetSimReport) -> Result<(), String> {
        check_fleet_report(&self.variants[self.ops[i].0], out)
    }

    fn bits(&self, out: &FleetSimReport, bits: &mut Vec<u64>) {
        fleet_report_bits(out, bits);
    }

    fn layer_input(&self) -> LayerInput {
        let seed = self.ops[0].1;
        let fleets = self.variants.clone();
        LayerInput {
            sched: fleets
                .iter()
                .map(|f| LayerInput::per_vm_config(f, seed))
                .collect(),
            fleets,
            fleet_horizon: self.horizon,
            ..LayerInput::defaults(seed, self.horizon)
        }
    }
}
