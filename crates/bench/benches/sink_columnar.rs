//! Telemetry sink overhead: what does instrumentation cost the
//! scheduler?
//!
//! Two groups:
//!
//! * `sink_emit` — per-event emission cost of the in-memory `Recorder`
//!   (push onto a `Vec`) vs the `ColumnarSink` (buffer + amortised block
//!   seal), for representative event kinds: a payload-free enum event, a
//!   float-carrying bid, the widest row (`LeaseClosed`), and a duration
//!   phase. `NullSink` has no row here — its emissions compile away, and
//!   the `sink_run` group shows exactly that.
//! * `sink_run` — a whole 14-day chaotic scheduler run uninstrumented
//!   (`NullSink`), with a recorder, and with a columnar sink writing to
//!   a discarding writer. The columnar bar is the ISSUE's <10%-overhead
//!   acceptance criterion in microcosm.

use criterion::{criterion_group, criterion_main, Criterion};
use spothost_cloudsim::{InstanceId, TerminationReason};
use spothost_core::prelude::*;
use spothost_core::telemetry::{MigrationPhase, Recorder, SchedulerState, Sink, TelemetryEvent};
use spothost_core::SimRun;
use spothost_eventstore::ColumnarStore;
use spothost_market::prelude::*;
use std::hint::black_box;

fn sample_events() -> Vec<(&'static str, TelemetryEvent)> {
    let market = MarketId::new(Zone::UsEast1a, InstanceType::Small);
    vec![
        (
            "state_change",
            TelemetryEvent::StateChange {
                state: SchedulerState::Active,
            },
        ),
        (
            "bid_placed",
            TelemetryEvent::BidPlaced {
                market,
                bid: Some(0.052),
                predicted_risk: Some(0.013),
            },
        ),
        (
            "lease_closed",
            TelemetryEvent::LeaseClosed {
                id: InstanceId(42),
                market,
                spot: true,
                reason: TerminationReason::Revoked,
                start: SimTime::hours(3),
                end: SimTime::hours(9),
                cost: 0.31,
            },
        ),
        (
            "migration_phase",
            TelemetryEvent::MigrationPhase {
                phase: MigrationPhase::LivePrecopy,
                duration: SimDuration::millis(1_850),
            },
        ),
    ]
}

fn bench_emit(c: &mut Criterion) {
    let mut g = c.benchmark_group("sink_emit");
    for (name, ev) in sample_events() {
        g.bench_function(format!("recorder/{name}"), |b| {
            // Cleared every 2^16 events so memory stays bounded however
            // many iterations the harness runs.
            let mut rec: Recorder = Vec::with_capacity(1 << 16);
            let mut t = 0u64;
            b.iter(|| {
                if rec.len() == 1 << 16 {
                    rec.clear();
                }
                rec.emit(SimTime::millis(t), black_box(ev));
                t += 1;
            });
        });
        g.bench_function(format!("columnar/{name}"), |b| {
            // Discarding writer: measures encoding, not allocation of an
            // ever-growing in-memory file.
            let store = ColumnarStore::to_writer(Box::new(std::io::sink()));
            let mut sink = store.sink();
            let mut t = 0u64;
            b.iter(|| {
                sink.emit(SimTime::millis(t), black_box(ev));
                t += 1;
            });
        });
    }
    g.finish();
}

fn bench_run(c: &mut Criterion) {
    let mut faults = FaultConfig::none();
    faults.spot_capacity_rate = 0.2;
    faults.warning_miss_rate = 0.2;
    faults.ckpt_failure_rate = 0.1;
    let cfg = SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::Small))
        .with_policy(BiddingPolicy::Reactive)
        .with_faults(faults);
    let catalog = Catalog::ec2_2015();
    let traces = TraceSet::generate(&catalog, &cfg.candidates(), 7, SimDuration::days(14));

    let mut g = c.benchmark_group("sink_run");
    g.sample_size(20);
    g.bench_function("null", |b| {
        b.iter(|| black_box(SimRun::new(&traces, &cfg, 7).run()))
    });
    g.bench_function("recorder", |b| {
        b.iter(|| {
            let mut rec = Recorder::new();
            black_box(SimRun::new(&traces, &cfg, 7).with_sink(&mut rec).run())
        })
    });
    g.bench_function("columnar", |b| {
        b.iter(|| {
            let store = ColumnarStore::to_writer(Box::new(std::io::sink()));
            let report = {
                let sink = store.sink();
                SimRun::new(&traces, &cfg, 7).with_sink(sink).run()
            };
            black_box((report, store.events_written()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_emit, bench_run);
criterion_main!(benches);
