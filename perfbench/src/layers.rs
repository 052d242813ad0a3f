//! Per-layer replays for the traced run.
//!
//! The benchmark cannot see inside the program's calls, so each layer is
//! replayed by the benchmark on the workload's own traces and configs,
//! one span per call into the layer's public functions. A figure here is
//! a cost per unit of work for the layer on this input, not in-situ self
//! time. Every work count is a pure function of the workload seed, so it
//! repeats exactly between runs.

use crate::harness::{nonneg, unit};
use crate::metrics::PER_LAYER;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::check_run_report;
use crate::workloads::fleet::{check_fleet_report, variants};
use crate::workloads::jobs::{cell, check_jobs_report};
use crate::workloads::store::{run_query, QueryClass, StoreFixture};
use spothost_cloudsim::billing::SpotLeaseMeter;
use spothost_cloudsim::{CloudProvider, TerminationReason};
use spothost_core::{run_grid, run_one, SchedulerConfig, SimRun, SimScratch};
use spothost_eventstore::{ColReader, Predicate};
use spothost_fleet::{run_fleet_sim, FleetSimConfig};
use spothost_forecast::{ForecastParams, MarketForecaster};
use spothost_jobs::{run_jobs_on, JobPolicy, JobsConfig, JobsScratch};
use spothost_market::gen::derive_seed;
use spothost_market::prelude::*;
use spothost_telemetry::NullSink;
use spothost_virt::{
    plan_migration, BoundedCheckpointer, MechanismCombo, MigrationContext, MigrationKind, VmSpec,
};
use spothost_workload::mva::{capacity_at_utilization, fleet_response};
use spothost_workload::TrafficModel;
use std::hint::black_box;
use std::time::Instant;

/// What the layer replays run on: the workload's own inputs.
#[derive(Debug, Clone)]
pub struct LayerInput {
    pub seed: u64,
    /// Horizon of the workload's scheduler and jobs runs.
    pub horizon: SimDuration,
    /// Scheduler configs the workload runs, or their per-VM equivalent.
    pub sched: Vec<SchedulerConfig>,
    pub fleets: Vec<FleetSimConfig>,
    pub fleet_horizon: SimDuration,
    pub jobs: Vec<JobsConfig>,
}

impl LayerInput {
    /// Inputs for the layers a workload never calls: the quick
    /// single-zone calm fleet and one checkpointing jobs cell.
    pub fn defaults(seed: u64, horizon: SimDuration) -> LayerInput {
        let fleet = variants()[0].clone();
        LayerInput {
            seed,
            horizon,
            sched: vec![LayerInput::per_vm_config(&fleet, seed)],
            fleets: vec![fleet],
            fleet_horizon: horizon.min(SimDuration::days(21)),
            jobs: vec![cell(JobPolicy::CheckpointSpot, 0.05, 0.0)],
        }
    }

    /// The scheduler config a fleet gives each of its VMs.
    pub fn per_vm_config(f: &FleetSimConfig, fleet_seed: u64) -> SchedulerConfig {
        SchedulerConfig::multi(f.scope())
            .with_policy(f.policy)
            .with_mechanism(f.mechanism)
            .with_capacity_units(f.vm_units)
            .with_storms(f.storms.clone())
            .with_storm_seed(fleet_seed)
    }
}

/// One per-layer result: the metric value plus the work count and busy
/// time it was derived from, for the layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub metric: &'static str,
    pub value: f64,
    pub units: f64,
    pub busy_ns: u64,
}

/// Rows plus any check that failed while replaying.
#[derive(Debug, Default)]
pub struct Probed {
    pub rows: Vec<LayerRow>,
    pub problems: Vec<String>,
}

impl Probed {
    fn row(&mut self, metric: &'static str, value: f64, units: f64, busy_ns: u64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == metric),
            "{metric} not in the catalog"
        );
        self.rows.push(LayerRow {
            metric,
            value,
            units,
            busy_ns,
        });
    }

    fn per_unit(&mut self, metric: &'static str, busy_ns: u64, units: f64) {
        self.row(metric, busy_ns as f64 / units.max(1.0), units, busy_ns);
    }

    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.problems.push(format!("{what}: {e}"));
        }
    }
}

/// The `(market, bid)` pairs the configs bid at.
fn market_bids(cfgs: &[SchedulerConfig], catalog: &Catalog) -> Vec<(MarketId, f64)> {
    let mut out: Vec<(MarketId, f64)> = Vec::new();
    for cfg in cfgs {
        for m in cfg.candidates() {
            let Some(bid) = cfg
                .policy
                .bid(catalog.on_demand_price(m), catalog.max_bid(m))
            else {
                continue;
            };
            if !out
                .iter()
                .any(|&(om, ob)| om == m && ob.to_bits() == bid.to_bits())
            {
                out.push((m, bid));
            }
        }
    }
    out.truncate(32);
    out
}

fn distinct_markets(cfgs: &[SchedulerConfig]) -> Vec<MarketId> {
    let mut out: Vec<MarketId> = cfgs.iter().flat_map(|c| c.candidates()).collect();
    out.sort_by_key(|m| m.dense_index());
    out.dedup();
    out
}

/// Replay every layer on `inp`. `arena_hit_frac` and `overhead_ratio`
/// come from the timed phase.
pub fn probe(inp: &LayerInput, t: &mut Tracer, arena_hit_frac: f64, overhead_ratio: f64) -> Probed {
    let mut p = Probed::default();
    let catalog = Catalog::ec2_2015();
    let all = MarketId::all();
    let seed = inp.seed;
    let end = SimTime::ZERO + inp.horizon;
    // Warm, outside any span, every trace the replays read.
    let traces = TraceSet::generate(&catalog, &all, seed, inp.horizon);
    let fleet_traces = TraceSet::generate(&catalog, &all, seed, inp.fleet_horizon);
    TraceSet::generate(&catalog, &all, seed + 1, inp.horizon);
    let mut op = 0u64;
    let mut next_op = || {
        op += 1;
        op
    };

    // market: generation and cursor walks.
    let (set, ns) = t.span("market.generate_uncached", next_op(), |_| {
        TraceSet::generate_uncached(&catalog, &all, seed, inp.horizon)
    });
    let points: usize = set.iter().map(|(_, tr)| tr.points().len()).sum();
    p.row("market.points_generated", points as f64, points as f64, ns);
    p.per_unit("market.gen_ns_per_point", ns, points as f64);
    p.row("market.arena_hit_frac", arena_hit_frac, 0.0, 0);
    drop(set);
    let bids = market_bids(&inp.sched, &catalog);
    let (mut segments, mut cursor_ns) = (0usize, 0u64);
    for &(m, bid) in &bids {
        let tr = traces.trace(m).expect("every market generated");
        let (fed, ns) = t.span("market.cursor", next_op(), |_| {
            let mut c = tr.cursor();
            let mut from = SimTime::ZERO;
            while let Some(above) = c.next_time_above(from, bid) {
                match c.next_time_at_or_below(above, bid) {
                    Some(below) => from = below,
                    None => break,
                }
            }
            let mut c = tr.cursor();
            let mut fed = 0usize;
            let mut at = SimTime::ZERO;
            while at < end {
                c.feed_segments(at, at + SimDuration::hours(1), |s| {
                    fed += 1;
                    black_box(s);
                });
                at += SimDuration::hours(1);
            }
            fed
        });
        segments += tr.points().len() + fed;
        cursor_ns += ns;
    }
    p.per_unit("market.cursor_ns_per_segment", cursor_ns, segments as f64);

    // cloudsim: billing meter and the lease life cycle.
    let markets = distinct_markets(&inp.sched);
    let (mut hours, mut meter_ns) = (0u64, 0u64);
    for &m in &markets {
        let tr = traces.trace(m).expect("every market generated");
        let ((h, charge), ns) = t.span("cloudsim.meter", next_op(), |_| {
            let start = SimTime::minutes(7);
            let mut meter = SpotLeaseMeter::new(tr, start);
            let mut h = 1u64;
            while start + SimDuration::hours(h) <= end {
                meter.advance_to(start + SimDuration::hours(h));
                h += 1;
            }
            (h - 1, meter.close(end, false))
        });
        p.check("spot lease charge", nonneg("charge", charge));
        hours += h;
        meter_ns += ns;
    }
    p.per_unit("cloudsim.meter_ns_per_hour", meter_ns, hours as f64);
    let mut provider = CloudProvider::new(&traces, seed);
    let (mut leases, mut requests, mut denied, mut lease_ns) = (0u64, 0u64, 0u64, 0u64);
    for &(m, bid) in &bids {
        let ((l, r, d, charges), ns) = t.span("cloudsim.lease", next_op(), |_| {
            let (mut l, mut r, mut d) = (0u64, 0u64, 0u64);
            let mut charges = Vec::new();
            let mut now = SimTime::ZERO;
            while now < end {
                r += 1;
                let (id, ready) = match provider.request_spot(m, bid, now) {
                    Ok(granted) => granted,
                    Err(_) => {
                        d += 1;
                        match provider.next_time_at_or_below(m, now, bid) {
                            Some(next) if next > now => now = next,
                            Some(_) => now += SimDuration::hours(1),
                            None => break,
                        }
                        continue;
                    }
                };
                if ready >= end {
                    charges.push(provider.terminate(id, ready, TerminationReason::Voluntary));
                    break;
                }
                if !provider.activate(id, ready) {
                    d += 1;
                    now = ready;
                    continue;
                }
                let (stop, reason) = match provider.revocation_schedule(id, ready) {
                    Some(s) if s.terminate_at < end => (s.terminate_at, TerminationReason::Revoked),
                    _ => (end, TerminationReason::Voluntary),
                };
                charges.push(provider.terminate(id, stop, reason));
                l += 1;
                now = stop;
            }
            (l, r, d, charges)
        });
        for c in charges {
            p.check("lease charge", nonneg("charge", c));
        }
        leases += l;
        requests += r;
        denied += d;
        lease_ns += ns;
    }
    p.row("cloudsim.leases", leases as f64, leases as f64, lease_ns);
    p.per_unit("cloudsim.lease_ns", lease_ns, leases as f64);
    p.row(
        "cloudsim.request_denied_frac",
        denied as f64 / requests.max(1) as f64,
        requests as f64,
        lease_ns,
    );

    // core: whole runs, and fleet-style lock-step ticks.
    let mut scratch = SimScratch::new();
    let mut core_ns = 0u64;
    for cfg in &inp.sched {
        let ((report, back), ns) = t.span("core.run_reclaim", next_op(), |_| {
            SimRun::with_scratch(&traces, cfg, seed, std::mem::take(&mut scratch)).run_reclaim()
        });
        scratch = back;
        p.check("scheduler run", check_run_report(&report));
        core_ns += ns;
    }
    let sim_days = inp.sched.len() as f64 * inp.horizon.as_days_f64();
    p.per_unit("core.ns_per_sim_day", core_ns, sim_days);
    let fleet_end = SimTime::ZERO + inp.fleet_horizon;
    let tick = SimDuration::minutes(5);
    let (mut steps, mut useful, mut tick_ns) = (0u64, 0u64, 0u64);
    for f in inp.fleets.iter().take(4) {
        let cfg = LayerInput::per_vm_config(f, seed);
        for k in 0..4 {
            let vm_seed = derive_seed(seed, "fleet-vm", k);
            let mut run = SimRun::new(&fleet_traces, &cfg, vm_seed);
            run.begin();
            let ((s, u, live), ns) = t.span("core.step_until", next_op(), |_| {
                let (mut s, mut u, mut live) = (0u64, 0u64, true);
                let mut at = SimTime::ZERO + tick;
                while live && at < fleet_end {
                    let before = run.now();
                    live = run.step_until(at);
                    s += 1;
                    u += u64::from(run.now() > before);
                    at += tick;
                }
                (s, u, live)
            });
            // Settle as the fleet settles a VM alive at the horizon; a run
            // that already consumed its horizon event only finishes.
            if live {
                run.step_until(SimTime::MAX);
            }
            let (report, _) = run.finish_at(fleet_end);
            p.check("stepped run", check_run_report(&report));
            steps += s;
            useful += u;
            tick_ns += ns;
        }
    }
    p.row("core.tick_steps", steps as f64, steps as f64, tick_ns);
    p.per_unit("core.tick_step_ns", tick_ns, steps as f64);
    p.row(
        "core.tick_step_useful_frac",
        useful as f64 / steps.max(1) as f64,
        steps as f64,
        tick_ns,
    );

    // forecast: online feed and the adaptive bid decision, hourly.
    let (mut segs, mut decisions, mut feed_ns, mut decide_ns) = (0u64, 0u64, 0u64, 0u64);
    for &m in markets.iter().take(8) {
        let tr = traces.trace(m).expect("every market generated");
        let (pon, cap) = (catalog.on_demand_price(m), catalog.max_bid(m));
        let ((s, d, f_ns, d_ns), _) = t.span("forecast.market", next_op(), |_| {
            let mut fc = MarketForecaster::new(ForecastParams::default());
            let mut c = tr.cursor();
            let (mut s, mut d, mut f_ns, mut d_ns) = (0u64, 0u64, 0u64, 0u64);
            let mut at = SimTime::ZERO;
            while at < end {
                let a = Instant::now();
                c.feed_segments(at, at + SimDuration::hours(1), |seg| {
                    fc.feed(seg);
                    s += 1;
                });
                let b = Instant::now();
                let decision = fc.decide_bid(pon, cap, 0.001);
                black_box(fc.prob_above(decision.bid));
                f_ns += (b - a).as_nanos() as u64;
                d_ns += b.elapsed().as_nanos() as u64;
                d += 1;
                at += SimDuration::hours(1);
            }
            (s, d, f_ns, d_ns)
        });
        segs += s;
        decisions += d;
        feed_ns += f_ns;
        decide_ns += d_ns;
    }
    p.per_unit("forecast.feed_ns_per_segment", feed_ns, segs as f64);
    p.per_unit("forecast.decide_ns", decide_ns, decisions as f64);

    // virt: migration planning and the bounded checkpointer.
    let params = inp.sched[0].virt_params();
    let disk = inp.sched[0].disk_gib;
    let vm = VmSpec::paper_2gib();
    let mut ctxs: Vec<MigrationContext> = Vec::new();
    for a in Zone::ALL {
        for b in Zone::ALL {
            let mut ctx = MigrationContext::local(vm, a.region());
            ctx.to_region = b.region();
            ctx.disk_gib = if ctx.is_cross_region() { disk } else { 0.0 };
            ctxs.push(ctx);
        }
    }
    let reps = 100;
    let (plans, plan_ns) = t.span("virt.plan_migration", next_op(), |_| {
        let mut n = 0u64;
        for _ in 0..reps {
            for combo in MechanismCombo::ALL {
                for kind in [
                    MigrationKind::Forced,
                    MigrationKind::Planned,
                    MigrationKind::Reverse,
                ] {
                    for ctx in &ctxs {
                        black_box(plan_migration(combo, kind, black_box(ctx), &params));
                        n += 1;
                    }
                }
            }
        }
        n
    });
    p.per_unit("virt.plan_ns", plan_ns, plans as f64);
    let (ckpts, ckpt_ns) = t.span("virt.checkpointer", next_op(), |_| {
        let mut n = 0u64;
        for r in 0..reps * 50 {
            let ck = BoundedCheckpointer::new(black_box(&vm), &params);
            black_box((
                ck.checkpoint_period(),
                ck.full_checkpoint_duration(),
                ck.final_write_duration(SimDuration::secs(r as u64 % 600)),
            ));
            n += 1;
        }
        n
    });
    p.per_unit("virt.checkpoint_ns", ckpt_ns, ckpts as f64);

    // workload: MVA, the balanced fleet response, and traffic.
    let (mut solves, mut mva_ns, mut responses, mut resp_ns, mut samples, mut traffic_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for f in inp.fleets.iter().take(4) {
        let net = &f.per_vm_network;
        let cap = capacity_at_utilization(net, f.target_utilization).max(1);
        let (n, ns) = t.span("workload.mva_solve", next_op(), |_| {
            let mut n = 0u64;
            for pop in (25..=400).step_by(25) {
                black_box(net.solve(black_box(pop)));
                n += 1;
            }
            n
        });
        solves += n;
        mva_ns += ns;
        let traffic = TrafficModel::new(f.traffic.clone(), seed, inp.fleet_horizon);
        let (users, ns) = t.span("workload.users_at", next_op(), |_| {
            let mut users = Vec::new();
            let mut at = SimTime::ZERO;
            while at < fleet_end {
                users.push(traffic.users_at(at));
                at += tick;
            }
            users
        });
        samples += users.len() as u64;
        traffic_ns += ns;
        let (n, ns) = t.span("workload.fleet_response", next_op(), |_| {
            for &u in &users {
                let u = u.round().max(0.0) as u64;
                let servers = u
                    .div_ceil(cap)
                    .clamp(u64::from(f.min_vms), u64::from(f.max_vms));
                black_box(fleet_response(net, u, servers, f.slo_response_s));
            }
            users.len() as u64
        });
        responses += n;
        resp_ns += ns;
    }
    p.per_unit("workload.mva_solve_ns", mva_ns, solves as f64);
    p.per_unit("workload.fleet_response_ns", resp_ns, responses as f64);
    p.per_unit("workload.traffic_ns_per_sample", traffic_ns, samples as f64);

    // fleet: whole autoscaled runs.
    let (mut vm_ticks, mut fleet_ns) = (0u64, 0u64);
    for f in &inp.fleets {
        let (report, ns) = t.span("fleet.run_fleet_sim", next_op(), |_| {
            run_fleet_sim(f, seed, inp.fleet_horizon)
        });
        p.check("fleet run", check_fleet_report(f, &report));
        vm_ticks += (report.vm_hours * 12.0).round() as u64;
        fleet_ns += ns;
    }
    p.row("fleet.vm_ticks", vm_ticks as f64, vm_ticks as f64, fleet_ns);
    p.per_unit("fleet.ns_per_vm_tick", fleet_ns, vm_ticks as f64);

    // jobs: the lease walk per cell.
    let mut jscratch = JobsScratch::new();
    let (mut jobs_run, mut revocations, mut useful_ms, mut wasted_ms, mut jobs_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for cfg in &inp.jobs {
        let jt = TraceSet::generate(&catalog, &[cfg.market], seed, inp.horizon);
        let (run, ns) = t.span("jobs.run_jobs_on", next_op(), |_| {
            run_jobs_on(cfg, &jt, seed, &mut NullSink, &mut jscratch)
        });
        p.check("jobs run", check_jobs_report(&run.report));
        jobs_run += u64::from(run.report.jobs);
        revocations += u64::from(run.report.revocations);
        useful_ms += run.report.useful.0;
        wasted_ms += run.report.wasted.0;
        jobs_ns += ns;
    }
    p.row("jobs.jobs_run", jobs_run as f64, jobs_run as f64, jobs_ns);
    p.row(
        "jobs.revocations",
        revocations as f64,
        revocations as f64,
        jobs_ns,
    );
    p.per_unit("jobs.ns_per_job", jobs_ns, jobs_run as f64);
    let compute = (useful_ms + wasted_ms).max(1);
    p.row(
        "jobs.useful_frac",
        useful_ms as f64 / compute as f64,
        compute as f64,
        jobs_ns,
    );

    // telemetry + eventstore: record, encode, open, decode, prune.
    let f = inp.fleets.last().expect("at least one fleet config");
    let (fx, rec_ns) = t.span("telemetry.record", next_op(), |_| {
        StoreFixture::record(f, seed, inp.fleet_horizon)
    });
    let events = fx.stream.len() as f64;
    let blocks = fx.blocks.len() as f64;
    p.row("telemetry.events", events, events, rec_ns);
    let mut enc_ns = 0;
    for _ in 0..3 {
        let all_blocks = 0..fx.blocks.len();
        let (bytes, ns) = t.span("eventstore.encode", next_op(), |_| {
            fx.encode(all_blocks.clone())
        });
        p.check("re-encode", fx.check_encoded(all_blocks, &bytes));
        enc_ns += ns;
    }
    p.per_unit("eventstore.encode_ns_per_event", enc_ns, 3.0 * events);
    p.row(
        "eventstore.bytes_per_event",
        fx.bytes.len() as f64 / events.max(1.0),
        events,
        0,
    );
    p.row(
        "eventstore.events_per_block",
        events / blocks.max(1.0),
        blocks,
        0,
    );
    let (mut open_ns, mut dec_ns) = (0, 0);
    for _ in 0..3 {
        let (reader, ns) = t.span("eventstore.from_bytes", next_op(), |_| {
            ColReader::from_bytes(&fx.bytes)
        });
        open_ns += ns;
        match reader {
            Ok(reader) => {
                let (sel, ns) = t.span("eventstore.select", next_op(), |_| {
                    reader.select(&Predicate::any())
                });
                dec_ns += ns;
                let n = sel.map(|s| s.events.len()).unwrap_or(0);
                if n != fx.stream.len() {
                    p.problems.push(format!(
                        "full select gave {n} of {} events",
                        fx.stream.len()
                    ));
                }
            }
            Err(e) => p.problems.push(format!("open: {e}")),
        }
    }
    p.per_unit("eventstore.open_ns_per_block", open_ns, 3.0 * blocks);
    p.per_unit("eventstore.decode_ns_per_event", dec_ns, 3.0 * events);
    for q in QueryClass::mix(&fx, 1) {
        let (agg, ns) = t.span("eventstore.query", next_op(), |_| run_query(&fx.bytes, &q));
        let metric = match q.name() {
            "full" => "eventstore.blocks_decoded_frac.full",
            "zone" => "eventstore.blocks_decoded_frac.zone",
            "window" => "eventstore.blocks_decoded_frac.window",
            "kind" => "eventstore.blocks_decoded_frac.kind",
            _ => "eventstore.blocks_decoded_frac.vms",
        };
        match agg {
            Ok(a) => {
                let frac = a.blocks_decoded as f64 / a.blocks_total.max(1) as f64;
                p.check("blocks decoded", unit(metric, frac));
                p.row(metric, frac, a.blocks_total as f64, ns);
            }
            Err(e) => p.problems.push(format!("{} query: {e}", q.name())),
        }
    }

    // analysis: run_grid's parallel efficiency on the same cells run
    // serially through run_one; each side timed three times, medians.
    let cells: Vec<SchedulerConfig> = inp.sched.iter().take(16).cloned().collect();
    let (mut serial, mut grid) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut serial_ns = 0;
        for cfg in &cells {
            for s in [seed, seed + 1] {
                let (r, ns) = t.span("analysis.run_one", next_op(), |_| {
                    run_one(cfg, s, inp.horizon)
                });
                p.check("run_one", check_run_report(&r));
                serial_ns += ns;
            }
        }
        serial.push(serial_ns as f64);
        let (aggs, ns) = t.span("analysis.run_grid", next_op(), |_| {
            run_grid(&cells, seed, 2, inp.horizon)
        });
        black_box(aggs);
        grid.push(ns as f64);
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2) as f64;
    let grid_ns = median(&grid);
    p.row(
        "analysis.grid_parallel_eff",
        median(&serial) / (threads * grid_ns.max(1.0)),
        cells.len() as f64 * 2.0,
        grid_ns as u64,
    );

    p.row("trace.overhead_ratio", overhead_ratio, 0.0, 0);
    p
}

/// The per-layer table: count, busy time, cost per unit and the
/// end-to-end metric each row should move.
pub fn table(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<40} {:>16} {:>14} {:>14} {:>14}  {}\n",
        "metric", "value", "units", "busy_ns", "ns/unit", "should move"
    );
    for r in rows {
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == r.metric)
            .map_or("", |m| m.moves);
        let per = if r.units > 0.0 && r.busy_ns > 0 {
            format!("{:.1}", r.busy_ns as f64 / r.units)
        } else {
            "-".into()
        };
        out.push_str(&format!(
            "{:<40} {:>16.6} {:>14} {:>14} {:>14}  {}\n",
            r.metric, r.value, r.units, r.busy_ns, per, moves
        ));
    }
    out
}
