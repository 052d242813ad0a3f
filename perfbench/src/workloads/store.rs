//! `query`: the columnar event store's read path.
//!
//! Set-up records eight storm, cross-region quick fleet runs into
//! in-memory `ColumnarStore`s through `run_fleet_sim_with`, and decodes
//! each once into the in-memory stream every check compares against.
//! A `query` op opens every recording's first blocks with
//! `ColReader::from_bytes`, selects with one predicate from a fixed mix
//! (full scan, zone, time window, kind, batch of VMs) and aggregates the
//! selection. The traced run replays the write path (re-encoding through
//! per-VM `ColumnarSink`s) on the same recordings.

use super::fleet::variants;
use super::{base_seed, Scale};
use crate::harness::{fbits, Workload, MIN_OPS};
use crate::layers::LayerInput;
use spothost_eventstore::{
    ColError, ColReader, ColumnarStore, EventKind, Field, Predicate, StoredEvent, MAGIC,
};
use spothost_fleet::{run_fleet_sim_with, FleetSimConfig};
use spothost_market::prelude::*;
use spothost_telemetry::Sink;

/// Events of each recording one `query` op reads. Fixing it keeps an op's work the same whatever the seed, since a
/// recording's size swings with its storm timeline (37k to 74k events).
/// It is small enough that one piece's working set stays in a core's
/// cache: larger pieces spill to memory shared with every other process on
/// the machine, and their timings swing by half from run to run.
pub const PIECE_EVENTS: usize = 6_144;

/// A recorded fleet run, encoded and decoded.
pub struct StoreFixture {
    pub cfg: FleetSimConfig,
    pub seed: u64,
    pub horizon: SimDuration,
    /// The encoded `.col` bytes.
    pub bytes: Vec<u8>,
    /// The decoded stream, in file order.
    pub stream: Vec<StoredEvent>,
    /// Each block's VM tag and event count, in file order.
    pub blocks: Vec<(Option<u32>, usize)>,
    /// Byte offset of each block's frame, plus the end of the file.
    frames: Vec<usize>,
    /// Index into `stream` of each block's first event, plus its length.
    starts: Vec<usize>,
}

impl StoreFixture {
    /// Record `cfg` at `seed` into an in-memory store.
    pub fn record(cfg: &FleetSimConfig, seed: u64, horizon: SimDuration) -> StoreFixture {
        let store = ColumnarStore::in_memory();
        run_fleet_sim_with(cfg, seed, horizon, store.clone());
        store
            .finish()
            .expect("an in-memory store has no I/O to fail");
        StoreFixture::from_bytes(cfg, seed, horizon, store.bytes())
    }

    fn from_bytes(
        cfg: &FleetSimConfig,
        seed: u64,
        horizon: SimDuration,
        bytes: Vec<u8>,
    ) -> StoreFixture {
        let reader = ColReader::from_bytes(&bytes).expect("a freshly written store parses");
        let stream = reader
            .decode_all()
            .expect("a freshly written store decodes");
        let blocks: Vec<(Option<u32>, usize)> = reader.metas().map(|m| (m.vm, m.count)).collect();
        // Frames follow the magic: a little-endian u32 length, then the
        // block payload.
        let mut frames = Vec::with_capacity(blocks.len() + 1);
        let mut at = MAGIC.len().min(bytes.len());
        while at < bytes.len() {
            frames.push(at);
            let mut len = [0u8; 4];
            len.copy_from_slice(&bytes[at..at + 4]);
            at += 4 + u32::from_le_bytes(len) as usize;
        }
        frames.push(bytes.len());
        let mut starts = vec![0];
        for &(_, count) in &blocks {
            starts.push(starts.last().copied().unwrap_or(0) + count);
        }
        StoreFixture {
            cfg: cfg.clone(),
            seed,
            horizon,
            bytes,
            stream,
            blocks,
            frames,
            starts,
        }
    }

    /// The fixture cut to its first blocks holding at least `events`
    /// events (all of it if it holds fewer).
    pub fn prefix(&self, events: usize) -> StoreFixture {
        let end = self
            .starts
            .iter()
            .position(|&s| s >= events)
            .unwrap_or(self.blocks.len());
        StoreFixture::from_bytes(&self.cfg, self.seed, self.horizon, self.encode(0..end))
    }

    /// Re-encode blocks `range` of the stream into a fresh in-memory
    /// store: one sink per block, carrying the block's VM tag, dropped
    /// (and so sealed) after the block's events. Reproduces the original
    /// blocks.
    pub fn encode(&self, range: std::ops::Range<usize>) -> Vec<u8> {
        let store = ColumnarStore::in_memory();
        for b in range {
            let mut sink = match self.blocks[b].0 {
                Some(v) => store.sink_for_vm(v),
                None => store.sink(),
            };
            for se in &self.stream[self.starts[b]..self.starts[b + 1]] {
                sink.emit(se.at, se.event);
            }
        }
        store.bytes()
    }

    /// Decode∘encode of blocks `range` must give back that part of the
    /// stream, and the bytes must match the recording's frames.
    pub fn check_encoded(&self, range: std::ops::Range<usize>, bytes: &[u8]) -> Result<(), String> {
        let reader = ColReader::from_bytes(bytes).map_err(|e| e.to_string())?;
        let decoded = reader.decode_all().map_err(|e| e.to_string())?;
        if decoded[..] != self.stream[self.starts[range.start]..self.starts[range.end]] {
            return Err("decode(encode(stream)) differs from the stream".into());
        }
        let frames = &self.bytes[self.frames[range.start]..self.frames[range.end]];
        if bytes.len() != MAGIC.len() + frames.len() || &bytes[MAGIC.len()..] != frames {
            return Err("re-encoded bytes differ from the recording".into());
        }
        Ok(())
    }

    /// Kinds present in at least a third of the blocks, so a kind query
    /// decodes enough of the store to take over a millisecond; the most
    /// selective first.
    fn common_kinds(&self) -> Vec<EventKind> {
        let reader = ColReader::from_bytes(&self.bytes).expect("a freshly written store parses");
        let blocks = reader.block_count().max(1);
        let mut kinds: Vec<(usize, EventKind)> = EventKind::ALL
            .into_iter()
            .map(|k| {
                (
                    reader
                        .metas()
                        .filter(|m| m.kinds & (1 << k.index()) != 0)
                        .count(),
                    k,
                )
            })
            .filter(|&(with, _)| with * 3 >= blocks)
            .collect();
        kinds.sort();
        let mut kinds: Vec<EventKind> = kinds.into_iter().map(|(_, k)| k).collect();
        if kinds.is_empty() {
            kinds.push(EventKind::of(&self.stream[0].event));
        }
        kinds
    }

    /// The fleet's zones, the one touched by most blocks first: a quiet
    /// zone's query would decode too little to take a millisecond.
    fn busiest_zones(&self) -> Vec<Zone> {
        let reader = ColReader::from_bytes(&self.bytes).expect("a freshly written store parses");
        let mut zones: Vec<(usize, Zone)> = self
            .cfg
            .zones
            .iter()
            .map(|&z| {
                let p = Predicate::any().with_zone(z);
                (reader.metas().filter(|m| p.matches_meta(m)).count(), z)
            })
            .collect();
        zones.sort_by_key(|&(blocks, z)| (std::cmp::Reverse(blocks), z.index()));
        zones.into_iter().map(|(_, z)| z).collect()
    }

    fn vms_present(&self) -> Vec<u32> {
        let mut vms: Vec<u32> = self.blocks.iter().filter_map(|b| b.0).collect();
        vms.sort_unstable();
        vms.dedup();
        vms
    }
}

/// The read mix.
#[derive(Debug, Clone)]
pub enum QueryClass {
    Full,
    Zone(Zone),
    Window(SimTime, SimTime),
    Kind(EventKind),
    Vms(Vec<u32>),
}

/// Query classes in the mix.
const CLASSES: usize = 5;

/// VMs in one batch query.
const VM_BATCH: usize = 160;

impl QueryClass {
    pub fn name(&self) -> &'static str {
        match self {
            QueryClass::Full => "full",
            QueryClass::Zone(_) => "zone",
            QueryClass::Window(..) => "window",
            QueryClass::Kind(_) => "kind",
            QueryClass::Vms(_) => "vms",
        }
    }

    /// The predicates the class selects with (one per VM for a batch).
    pub fn predicates(&self) -> Vec<Predicate> {
        match self {
            QueryClass::Full => vec![Predicate::any()],
            QueryClass::Zone(z) => vec![Predicate::any().with_zone(*z)],
            QueryClass::Window(a, b) => vec![Predicate::any().with_time_range(*a, *b)],
            QueryClass::Kind(k) => vec![Predicate::any().with_kind(*k)],
            QueryClass::Vms(vms) => vms.iter().map(|&v| Predicate::any().with_vm(v)).collect(),
        }
    }

    /// `per_class` queries of every class, their parameters spread evenly
    /// over the recording: the two busiest zones in turn, windows of a
    /// third of the recorded span and VM batches at even offsets, the
    /// most selective common kinds. Every class gets the same share of
    /// ops, so p50 and p90 fall inside a class's latency cluster rather
    /// than between two.
    pub fn mix(fx: &StoreFixture, per_class: usize) -> Vec<QueryClass> {
        let kinds = fx.common_kinds();
        let zones = fx.busiest_zones();
        let vms = fx.vms_present();
        let span = fx.stream.iter().map(|se| se.at.0).max().unwrap_or(0);
        let mut out = Vec::new();
        for j in 0..per_class {
            let from = SimTime(span / 3 * (j % 3) as u64);
            let first = vms.len() / per_class * j;
            out.push(QueryClass::Full);
            out.push(QueryClass::Zone(zones[j % zones.len().min(2)]));
            out.push(QueryClass::Window(from, from + SimDuration(span / 3)));
            out.push(QueryClass::Kind(kinds[j % kinds.len()]));
            out.push(QueryClass::Vms(
                (0..VM_BATCH.min(vms.len()))
                    .map(|k| vms[(first + k) % vms.len()])
                    .collect(),
            ));
        }
        out
    }
}

/// A query's aggregate over its selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    pub events: u64,
    /// Sum of `LeaseClosed.cost` over the selection.
    pub cost: f64,
    /// Sum of `LeaseClosed` lease hours over the selection.
    pub lease_hours: f64,
    /// Events per kind, by kind index.
    pub per_kind: Vec<u64>,
    pub blocks_decoded: usize,
    pub blocks_total: usize,
}

impl Aggregate {
    fn absorb<'a>(&mut self, events: impl Iterator<Item = &'a StoredEvent>) {
        if self.per_kind.is_empty() {
            self.per_kind = vec![0; EventKind::ALL.len()];
        }
        for se in events {
            self.events += 1;
            self.per_kind[EventKind::of(&se.event).index()] += 1;
            if let Some(c) = Field::Cost.extract(&se.event) {
                self.cost += c;
            }
            if let Some(h) = Field::LeaseHours.extract(&se.event) {
                self.lease_hours += h;
            }
        }
    }

    pub fn bits(&self, bits: &mut Vec<u64>) {
        bits.extend([self.events, fbits(self.cost), fbits(self.lease_hours)]);
        bits.extend(&self.per_kind);
        bits.extend([self.blocks_decoded as u64, self.blocks_total as u64]);
    }
}

/// Open `bytes`, select with every predicate of `q`, aggregate.
pub fn run_query(bytes: &[u8], q: &QueryClass) -> Result<Aggregate, ColError> {
    let reader = ColReader::from_bytes(bytes)?;
    let mut agg = Aggregate::default();
    for p in q.predicates() {
        let sel = reader.select(&p)?;
        agg.blocks_total = sel.blocks_total;
        agg.blocks_decoded += sel.blocks_decoded;
        agg.absorb(sel.events.iter());
    }
    Ok(agg)
}

/// The same aggregate folded over the in-memory stream.
pub fn fold_query(stream: &[StoredEvent], q: &QueryClass) -> Aggregate {
    let mut agg = Aggregate::default();
    for p in q.predicates() {
        agg.absorb(stream.iter().filter(|se| p.matches_event(se)));
    }
    agg
}

/// Recordings a `query` set-up makes: a recording's shape swings with its
/// storm timeline, and several of them average that out.
const QUERY_RECORDINGS: u64 = 8;

/// `recordings` recordings, each cut to its first blocks holding `keep`
/// events as soon as it is made: the fixtures' size, and so the peak
/// resident set, then does not swing with the recordings' size.
fn fixtures(seed: u64, scale: Scale, recordings: u64, keep: usize) -> Vec<StoreFixture> {
    let (cfg, days, n) = match scale {
        // Cross-region under a storm: the richest event stream.
        Scale::Full => (variants()[3].clone(), 21, recordings),
        Scale::Tiny => (variants()[0].clone(), 2, 1),
    };
    let base = base_seed(seed, "store");
    (base..base + n)
        .map(|s| StoreFixture::record(&cfg, s, SimDuration::days(days)).prefix(keep))
        .collect()
}

fn store_layer_input(fx: &StoreFixture) -> LayerInput {
    LayerInput {
        sched: vec![LayerInput::per_vm_config(&fx.cfg, fx.seed)],
        fleets: vec![fx.cfg.clone()],
        fleet_horizon: fx.horizon,
        ..LayerInput::defaults(fx.seed, fx.horizon)
    }
}

/// `query`: read ops. Op `i` runs the `i`-th query of the mix on every
/// recording.
pub struct Query {
    fxs: Vec<StoreFixture>,
    /// Per op, one query per recording.
    ops: Vec<Vec<QueryClass>>,
}

impl Query {
    pub fn build(seed: u64, scale: Scale) -> Query {
        let fxs = fixtures(seed, scale, QUERY_RECORDINGS, PIECE_EVENTS);
        let per_class = MIN_OPS / CLASSES;
        let per_fx: Vec<Vec<QueryClass>> = fxs
            .iter()
            .map(|fx| QueryClass::mix(fx, per_class))
            .collect();
        let ops = (0..per_fx[0].len())
            .map(|i| per_fx.iter().map(|qs| qs[i].clone()).collect())
            .collect();
        Query { fxs, ops }
    }
}

impl Workload for Query {
    type Out = Result<Vec<Aggregate>, ColError>;
    const NOMINAL_PASS_S: f64 = 0.8;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op_span(&self) -> &'static str {
        "eventstore.query"
    }

    fn run(&mut self, i: usize) -> Result<Vec<Aggregate>, ColError> {
        self.fxs
            .iter()
            .zip(&self.ops[i])
            .map(|(fx, q)| run_query(&fx.bytes, q))
            .collect()
    }

    fn check(&mut self, i: usize, out: &Result<Vec<Aggregate>, ColError>) -> Result<(), String> {
        let aggs = out.as_ref().map_err(|e| e.to_string())?;
        for ((fx, q), got) in self.fxs.iter().zip(&self.ops[i]).zip(aggs) {
            let want = fold_query(&fx.stream, q);
            if (got.events, &got.per_kind) != (want.events, &want.per_kind)
                || got.cost.to_bits() != want.cost.to_bits()
                || got.lease_hours.to_bits() != want.lease_hours.to_bits()
            {
                return Err(format!(
                    "{} query: aggregate {:?} differs from the fold over the stream {:?}",
                    q.name(),
                    (got.events, got.cost),
                    (want.events, want.cost)
                ));
            }
            if got.blocks_decoded > got.blocks_total * q.predicates().len() {
                return Err("decoded more blocks than the store holds".into());
            }
        }
        Ok(())
    }

    fn bits(&self, out: &Result<Vec<Aggregate>, ColError>, bits: &mut Vec<u64>) {
        match out {
            Ok(aggs) => aggs.iter().for_each(|a| a.bits(bits)),
            Err(_) => bits.push(u64::MAX),
        }
    }

    fn layer_input(&self) -> LayerInput {
        store_layer_input(&self.fxs[0])
    }
}
