//! `spothost` — command-line interface to the simulator.
//!
//! ```text
//! spothost markets                      # the price book and calibration
//! spothost gen-traces --days 28 --out traces/
//! spothost analyze --traces traces/
//! spothost simulate --market us-east-1a/small --policy proactive --days 60
//! spothost simulate --scope zone:us-east-1b --seeds 12
//! spothost simulate --storm-intensity 0.5 --scope regions:us-east-1a,us-west-1a
//! spothost chaos --seconds 30
//! spothost fleet-sim --vms 200 --days 7 --store fleet.col
//! spothost jobs --policy all --days 14 --fault-rate 0.1
//! spothost query --store fleet.col --agg sum --field cost --group-by vm
//! ```

mod args;
mod commands;

use spothost_analysis::outln;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        print_usage();
        return Ok(());
    };
    match cmd.as_str() {
        "markets" => commands::markets::run(),
        "gen-traces" => commands::gen_traces::run(&args::parse(rest)?),
        "analyze" => commands::analyze::run(&args::parse(rest)?),
        "simulate" => commands::simulate::run(&args::parse(rest)?),
        "timeline" => commands::timeline::run(&args::parse(rest)?),
        "chaos" => commands::chaos::run(&args::parse(rest)?),
        "fleet-sim" => commands::fleet_sim::run(&args::parse(rest)?),
        "jobs" => commands::jobs::run(&args::parse(rest)?),
        "query" => commands::query::run(&args::parse(rest)?),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try --help)")),
    }
}

fn print_usage() {
    outln!(
        "spothost — always-on services on cloud spot markets (HPDC'15 reproduction)

USAGE:
  spothost markets
      Print the market catalog: zones, sizes, on-demand prices, bid caps.

  spothost gen-traces [--seed N] [--days D] [--out DIR] [--zone Z]
      Generate calibrated spot-price traces and export them as CSV.

  spothost analyze --traces DIR [--sample-mins M]
      Per-market statistics and correlations of a trace directory.

  spothost simulate [--market M | --scope zone:Z | --scope regions:Z1,Z2]
                    [--policy proactive|adaptive|reactive|pure-spot|on-demand]
                    [--bid-mult X] [--risk-budget P]
                    [--mechanism ckpt|ckpt-lr|ckpt-live|ckpt-lr-live]
                    [--pessimistic] [--stability W] [--units U]
                    [--fault-rate R] [--storm-intensity X]
                    [--days D] [--seeds N] [--seed N]
                    [--traces DIR] [--trace FILE] [--store FILE]
                    [--metrics] [--cache-stats]
      Run the cloud scheduler and report cost/availability/migrations.
      With --traces, runs against imported price history instead of the
      calibrated generator. --bid-mult sets the proactive bid multiple
      (>= 1); --risk-budget sets the adaptive policy's tolerated
      P(revocation within the next hour), in (0, 1).
      --fault-rate injects provider and mechanism
      faults uniformly at rate R in [0, 1] (see spothost-faults).
      --storm-intensity turns on correlated failure storms at severity
      X in [0, 1]: zone-scoped episodes multiply fault rates, revoke
      every lease in the zone at once, and throttle reacquisition
      (0, the default, is bit-identical to no storms at all).
      --store records the first seed's structured event timeline into
      FILE as a columnar event store (.col; aggregate with `spothost
      query`); --trace writes the same events to FILE as JSONL, ~10x
      larger; --metrics prints event-derived histograms (outages,
      migration latencies, lease lengths, $/hour). --cache-stats prints the process-global
      trace-arena hit/miss and residency counters after the run.

  spothost timeline [same scope/policy/mechanism/fault flags as simulate]
                    [--days D] [--seed N] [--width COLS]
      Run one seed with the telemetry recorder and render the event
      stream as an ASCII Gantt chart: one row per market ('=' spot,
      '#' on-demand lease), outage/degraded rows, migration markers.

  spothost chaos [--seconds S] [--seed N] [--days D]
      Burn a wall-clock budget (default 30 s) running randomized
      storm/fault/policy/mechanism grids and checking the chaos
      invariants: conserved accounting, bitwise determinism, exact
      telemetry replay, and zero-intensity neutrality. Prints PASS
      with trial counts, or FAIL with a reproducing seed.

  spothost fleet-sim [--vms MAX] [--min-vms MIN] [--seconds S]
                     [--days D] [--seed N] [--users U]
                     [--scope zone:Z | --scope regions:Z1,Z2]
                     [--policy P] [--mechanism M]
                     [--storm-intensity X] [--target-util T]
                     [--width COLS] [--store FILE]
      Simulate an autoscaled fleet of per-VM schedulers serving a
      diurnal + flash-crowd user population: a least-loaded balancer
      feeds the fleet-level MVA model, and a target-tracking autoscaler
      (control interval S seconds, default 300) acquires and releases
      VMs between MIN and MAX. Renders ASCII fleet-size and p99-latency
      timelines plus the cost/availability summary. --users sets the
      diurnal base population; --target-util the per-VM bottleneck
      utilisation the autoscaler provisions for. Fixed --seed gives
      byte-identical output. --store records every VM's telemetry
      stream into FILE as a columnar store, tagged by spawn index.

  spothost jobs [--policy greedy-spot|checkpoint-spot|on-demand-fallback|all]
                [--market M] [--workers N] [--days D] [--seed N]
                [--mean-runtime-h H] [--mean-arrival-h H] [--slack F]
                [--fault-rate R] [--storm-intensity X]
                [--outcomes] [--store FILE]
      Schedule a seeded queue of deadline batch jobs onto spot worker
      slots and report $/job, deadline-miss rate, wasted work, and
      makespan per policy rung. greedy-spot restarts revoked jobs from
      scratch; checkpoint-spot checkpoints at Young's interval from the
      forecaster's predicted revocation risk; on-demand-fallback
      escalates a job to on-demand once its remaining slack no longer
      covers the predicted restart loss. --outcomes prints the worst
      per-job lines; --store records the job lifecycle events as a
      columnar store for `spothost query`.

  spothost query --store FILE [--from-h H] [--to-h H] [--kind K,..]
                 [--market Z/T] [--zone Z] [--vm N]
                 [--agg count|sum|mean|p50|p90|p99|hist] [--field F]
                 [--group-by none|kind|market|zone|vm] [--buckets N]
                 [--stats] [--perfetto OUT.json]
      Aggregate a columnar store written by simulate/fleet-sim --store.
      Predicates prune whole blocks on their headers before decoding
      (the pruning stats are printed). Fields: cost, bid, risk,
      lease_hours, outage_s, degraded_s, mig_downtime_s,
      mig_degraded_s, phase_s, backoff_attempt. --stats dumps the
      per-block headers; --perfetto exports the selection as a
      Chrome/Perfetto trace (open in ui.perfetto.dev) with one process
      per VM and lease/service/migration/mark tracks."
    );
}
