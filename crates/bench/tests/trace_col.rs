//! `repro --trace` records each representative run straight into a
//! columnar store. This test pins that record path to the in-memory
//! stream: a store recorded through `ColumnarSink` must decode to exactly
//! the events a `Recorder` sees on the same config and seed, with the
//! same per-kind counts and bit-identical `cost` sums.

use spothost_bench::experiments;
use spothost_bench::ExpSettings;
use spothost_core::telemetry::Recorder;
use spothost_eventstore::{ColReader, ColumnarStore, EventKind, Field};
use std::collections::BTreeMap;

fn col_matches_recorder(name: &str) {
    let settings = ExpSettings::quick();
    let rep = experiments::representative(name)
        .unwrap_or_else(|| panic!("{name} has no representative run"));

    let mut rec = Recorder::new();
    rep.record(&settings, &mut rec);
    assert!(!rec.is_empty(), "{name}: empty recording");

    // Blocks of a quarter of the stream, so the file is multi-block.
    let store = ColumnarStore::in_memory().with_block_events(rec.len().div_ceil(4));
    rep.record(&settings, &mut store.sink());
    store.finish().expect("in-memory store cannot fail I/O");
    let reader = ColReader::from_bytes(&store.bytes()).expect("reopen store");
    assert!(reader.block_count() > 1, "{name}: single-block store");
    let decoded = reader.decode_all().expect("decode all blocks");

    let col: Vec<_> = decoded.iter().map(|se| (se.at, se.event)).collect();
    assert_eq!(col, rec, "{name}: decoded stream differs from the recorder");

    let kinds = |events: &[(_, _)]| {
        let mut counts: BTreeMap<EventKind, u64> = BTreeMap::new();
        for (_, ev) in events {
            *counts.entry(EventKind::of(ev)).or_default() += 1;
        }
        counts
    };
    assert_eq!(kinds(&col), kinds(&rec), "{name}: per-kind counts diverge");

    // Stream order is preserved, so even float addition order matches.
    let cost = |events: &[(_, _)]| -> f64 {
        events
            .iter()
            .filter_map(|(_, ev)| Field::Cost.extract(ev))
            .sum()
    };
    assert!(cost(&rec) > 0.0, "{name}: no cost in the stream");
    assert_eq!(
        cost(&col).to_bits(),
        cost(&rec).to_bits(),
        "{name}: cost sum diverges"
    );
}

#[test]
fn jobs_columnar_trace_matches_recorder() {
    col_matches_recorder("jobs");
}

#[test]
fn scheduler_columnar_trace_matches_recorder() {
    col_matches_recorder("fig6");
}
