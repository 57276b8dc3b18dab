//! Sharded variants of the fusion layer on the persistent worker pool:
//! [`ShardedEventStore`] and [`ShardedFusion`].
//!
//! Events are routed by the target's /16 shard ([`shard_of`]), the same
//! key the parallel measurement pipelines use, and each shard's
//! accumulators live on a long-lived [`ShardPool`] worker. Queries run as
//! pool barriers — a closure visits every shard's state in place, after
//! all previously dispatched chunks — and merge exactly once into the
//! serial aggregates:
//!
//! * events, targets, /24s and /16s are additive — a /16 (and every /24
//!   inside it) lives wholly in one shard, so per-shard distinct counts
//!   never overlap;
//! * common and joint targets are target-local, hence additive too;
//! * ASNs are **not** additive (an AS spans /16s): the per-shard ASN sets
//!   are unioned;
//! * `last_day` is the maximum over shards.

use crate::store::{EventStore, SourceSummary};
use crate::streaming::{FusionState, StreamingSnapshot};
use dosscope_geo::AsDb;
use dosscope_types::{
    shard_of, AttackEvent, DayIndex, EventSource, FastMap, FastSet, Routed, ShardPool, TimeSeries,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Bounded per-worker queue depth (see `dosscope_types::pool`).
const QUEUE_DEPTH: usize = 4;

/// Route a chunk of events by target shard, without copying any event.
/// Relative order within each shard is preserved, which is what the live
/// joint correlation and pruning depend on.
pub fn route_events(events: Arc<Vec<AttackEvent>>, shards: usize) -> Routed<AttackEvent> {
    let shards = shards.max(1);
    Routed::build(events, shards, |e| shard_of(e.target, shards))
}

fn add_summaries(a: SourceSummary, b: SourceSummary) -> SourceSummary {
    SourceSummary {
        events: a.events + b.events,
        targets: a.targets + b.targets,
        blocks24: a.blocks24 + b.blocks24,
        blocks16: a.blocks16 + b.blocks16,
    }
}

/// An event store split into target shards, one pool worker per shard;
/// aggregates merge additively at query barriers.
pub struct ShardedEventStore {
    pool: ShardPool<(EventSource, Routed<AttackEvent>), EventStore, EventStore>,
    shards: usize,
}

impl ShardedEventStore {
    /// A store with `shards` shards (0 is treated as 1).
    pub fn new(shards: usize) -> ShardedEventStore {
        let shards = shards.max(1);
        let pool = ShardPool::new(
            "store",
            shards,
            shards,
            QUEUE_DEPTH,
            |_| EventStore::new(),
            |store: &mut EventStore, shard, _shards, job: &(EventSource, Routed<AttackEvent>)| {
                // Zero-copy handoff: the worker encodes its shard's rows
                // straight from the routed chunk's borrowed events into
                // the shard store's columns — no event is ever cloned
                // (pinned by the `clone_audit` test).
                let (source, routed) = job;
                store.ingest_refs(*source, routed.owned(shard));
            },
            |store: EventStore| store,
        );
        ShardedEventStore { pool, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Ingest telescope events: route by target, each shard sorts its own
    /// slice on its worker.
    pub fn ingest_telescope(&mut self, events: Vec<AttackEvent>) {
        self.ingest_with(EventSource::Telescope, events);
    }

    /// Ingest honeypot events, same scheme.
    pub fn ingest_honeypot(&mut self, events: Vec<AttackEvent>) {
        self.ingest_with(EventSource::Honeypot, events);
    }

    /// Cap every shard's pending-run count (see
    /// [`EventStore::set_run_threshold`]). A barrier, so it lands before
    /// any later ingest.
    pub fn set_run_threshold(&mut self, threshold: usize) {
        self.pool
            .barrier(move |s: &mut EventStore| s.set_run_threshold(threshold))
            .expect("configure on a collapsed store");
    }

    fn ingest_with(&mut self, source: EventSource, events: Vec<AttackEvent>) {
        let routed = route_events(Arc::new(events), self.shards);
        self.pool
            .dispatch((source, routed))
            .expect("ingest on a collapsed store");
    }

    /// Total event count over all shards.
    pub fn len(&mut self) -> usize {
        self.pool
            .barrier(|s: &mut EventStore| s.len())
            .expect("query on a collapsed store")
            .into_iter()
            .sum()
    }

    /// True when nothing was ingested.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// The Table 1 aggregate for one source, merged over shards.
    pub fn summary(&mut self, source: EventSource) -> SourceSummary {
        self.pool
            .barrier(move |s: &mut EventStore| s.summary(source))
            .expect("query on a collapsed store")
            .into_iter()
            .fold(SourceSummary::default(), add_summaries)
    }

    /// The Table 1 aggregate for the combined data, merged over shards.
    pub fn summary_combined(&mut self) -> SourceSummary {
        self.pool
            .barrier(|s: &mut EventStore| s.summary_combined())
            .expect("query on a collapsed store")
            .into_iter()
            .fold(SourceSummary::default(), add_summaries)
    }

    /// Unique targets common to both sources (target-local, so the
    /// per-shard intersections sum).
    pub fn common_targets(&mut self) -> u64 {
        self.pool
            .barrier(|s: &mut EventStore| s.common_targets())
            .expect("query on a collapsed store")
            .into_iter()
            .sum()
    }

    /// Collapse into one [`EventStore`] holding every event in the serial
    /// store's canonical order: a k-way merge over the shards' column
    /// blocks (each already `(start, target)`-sorted), not a re-ingest of
    /// cloned event vectors.
    pub fn into_store(mut self) -> EventStore {
        // Consolidate pending runs on the shard workers first: the
        // per-shard merges run in parallel, and the snapshot merge then
        // sees exactly one sorted block per shard.
        self.pool
            .barrier(|s: &mut EventStore| s.consolidate())
            .expect("store collapsed twice");
        let shards = self
            .pool
            .shutdown()
            .expect("store collapsed twice");
        EventStore::merge_shards(&shards)
    }
}

/// One fusion shard: its accumulators plus a worker-local AS memo (the
/// serial engine shares one mutex-guarded cache; a pool worker needs no
/// lock because a target's /16 — and hence every event for it — belongs
/// to exactly one shard).
struct FusionLane {
    state: FusionState,
    asdb: Arc<AsDb>,
    asn_memo: FastMap<Ipv4Addr, Option<u32>>,
}

impl FusionLane {
    fn push(&mut self, event: &AttackEvent) {
        let asdb = &self.asdb;
        let asn = *self
            .asn_memo
            .entry(event.target)
            .or_insert_with(|| asdb.asn_of(event.target).map(|a| a.0));
        self.state.push(event, asn);
    }
}

/// A streaming fusion engine split into target shards, one pool worker
/// per shard; a [`ShardedFusion::snapshot`] barrier merges the per-shard
/// accumulators into the exact serial [`StreamingSnapshot`].
///
/// Only the AS database is consulted during fusion (country enrichment
/// happens at report time), so that is all the engine takes.
pub struct ShardedFusion {
    pool: ShardPool<Routed<AttackEvent>, FusionLane, ()>,
    shards: usize,
}

impl ShardedFusion {
    /// A fusion engine with `shards` shards (0 is treated as 1) over the
    /// shared AS database, covering `days`.
    pub fn new(asdb: Arc<AsDb>, days: u32, shards: usize) -> ShardedFusion {
        let shards = shards.max(1);
        let pool = ShardPool::new(
            "fusion",
            shards,
            shards,
            QUEUE_DEPTH,
            move |_| FusionLane {
                state: FusionState::new(days),
                asdb: asdb.clone(),
                asn_memo: FastMap::default(),
            },
            |lane: &mut FusionLane, shard, _shards, routed: &Routed<AttackEvent>| {
                for e in routed.owned(shard) {
                    lane.push(e);
                }
            },
            |_| (),
        );
        ShardedFusion { pool, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Route one event to its target's shard (only the owning worker is
    /// woken).
    pub fn push(&mut self, event: &AttackEvent) {
        let shard = shard_of(event.target, self.shards);
        let routed = route_events(Arc::new(vec![event.clone()]), self.shards);
        self.pool
            .dispatch_to(shard, routed)
            .expect("push on a poisoned engine");
    }

    /// Ingest a pre-routed chunk of events (as produced by
    /// [`route_events`] for this engine's shard count).
    pub fn push_routed(&mut self, routed: Routed<AttackEvent>) {
        assert_eq!(
            routed.shards(),
            self.shards,
            "chunk routed for a different shard count"
        );
        self.pool
            .dispatch(routed)
            .expect("push on a poisoned engine");
    }

    /// Route and ingest a chunk of events. Within a shard the original
    /// order is preserved, which is what the live joint correlation and
    /// pruning depend on.
    pub fn push_all(&mut self, events: &[AttackEvent]) {
        self.push_routed(route_events(Arc::new(events.to_vec()), self.shards));
    }

    /// The current fused state, merged once over shards (a barrier: runs
    /// after everything pushed so far).
    pub fn snapshot(&mut self) -> StreamingSnapshot {
        let _span = dosscope_obs::span!("fusion.join");
        let parts = self
            .pool
            .barrier(|lane: &mut FusionLane| {
                let asns: Vec<u32> = lane.state.combined_asn_set().iter().copied().collect();
                (lane.state.snapshot(), asns)
            })
            .expect("query on a poisoned engine");
        let mut asns: FastSet<u32> = FastSet::default();
        let mut merged = StreamingSnapshot {
            telescope: SourceSummary::default(),
            honeypot: SourceSummary::default(),
            combined_targets: 0,
            combined_events: 0,
            common_targets: 0,
            joint_targets: 0,
            asns: 0,
            last_day: None,
        };
        for (snap, shard_asns) in parts {
            merged.telescope = add_summaries(merged.telescope, snap.telescope);
            merged.honeypot = add_summaries(merged.honeypot, snap.honeypot);
            merged.combined_targets += snap.combined_targets;
            merged.combined_events += snap.combined_events;
            merged.common_targets += snap.common_targets;
            merged.joint_targets += snap.joint_targets;
            merged.last_day = match (merged.last_day, snap.last_day) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            asns.extend(shard_asns);
        }
        merged.asns = asns.len() as u64;
        merged
    }

    /// Attacks per day, summed over shards.
    pub fn daily_attacks(&mut self) -> TimeSeries {
        let parts = self
            .pool
            .barrier(|lane: &mut FusionLane| lane.state.daily_attacks().values().to_vec())
            .expect("query on a poisoned engine");
        let days = parts.first().map(|v| v.len() as u32).unwrap_or(0);
        let mut merged = TimeSeries::zeros(days);
        for values in parts {
            for (i, v) in values.into_iter().enumerate() {
                merged.add(DayIndex(i as u32), v);
            }
        }
        merged
    }

    /// Unique targets on one day, summed over shards (targets are
    /// shard-disjoint).
    pub fn targets_on(&mut self, day: DayIndex) -> u64 {
        self.pool
            .barrier(move |lane: &mut FusionLane| lane.state.targets_on(day))
            .expect("query on a poisoned engine")
            .into_iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingFusion;
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{
        AttackVector, PortSignature, ReflectionProtocol, SimTime, TimeRange, TransportProto,
    };

    fn tele(ip: &str, start: u64, end: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::Tcp,
                ports: PortSignature::Single(80),
            },
            packets: 100,
            bytes: 4000,
            intensity_pps: 1.0,
            distinct_sources: 10,
        }
    }

    fn hp(ip: &str, start: u64, end: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
            vector: AttackVector::Reflection {
                protocol: ReflectionProtocol::Ntp,
            },
            packets: 500,
            bytes: 20_000,
            intensity_pps: 10.0,
            distinct_sources: 4,
        }
    }

    /// Events spread over many /16s with overlaps across sources.
    fn sample_events() -> (Vec<AttackEvent>, Vec<AttackEvent>) {
        let mut t = Vec::new();
        let mut h = Vec::new();
        for i in 0..40u64 {
            let ip = format!("10.{}.{}.7", i % 7, i % 5);
            t.push(tele(&ip, i * 500, i * 500 + 400));
            if i % 3 == 0 {
                // Same target, overlapping window: a joint incident.
                h.push(hp(&ip, i * 500 + 100, i * 500 + 300));
            }
            if i % 4 == 0 {
                h.push(hp(&format!("172.{}.0.9", 16 + i % 8), i * 500, i * 500 + 200));
            }
        }
        (t, h)
    }

    #[test]
    fn sharded_store_matches_serial() {
        let (t, h) = sample_events();
        let mut serial = EventStore::new();
        serial.ingest_telescope(t.clone());
        serial.ingest_honeypot(h.clone());
        for shards in [1, 2, 4, 8] {
            let mut sharded = ShardedEventStore::new(shards);
            sharded.ingest_telescope(t.clone());
            sharded.ingest_honeypot(h.clone());
            assert_eq!(sharded.len(), serial.len());
            assert_eq!(
                sharded.summary(EventSource::Telescope),
                serial.summary(EventSource::Telescope)
            );
            assert_eq!(
                sharded.summary(EventSource::Honeypot),
                serial.summary(EventSource::Honeypot)
            );
            assert_eq!(sharded.summary_combined(), serial.summary_combined());
            assert_eq!(sharded.common_targets(), serial.common_targets());
            let merged = sharded.into_store();
            assert_eq!(merged.telescope(), serial.telescope());
            assert_eq!(merged.honeypot(), serial.honeypot());
        }
    }

    #[test]
    fn sharded_fusion_matches_serial() {
        let (t, h) = sample_events();
        let mut all: Vec<AttackEvent> = t.into_iter().chain(h).collect();
        all.sort_by_key(|e| (e.when.start, e.target));
        let geo = GeoDb::new();
        let asdb = Arc::new(AsDb::new());
        let mut serial = StreamingFusion::new(&geo, &asdb, 731);
        for e in &all {
            serial.push(e);
        }
        let expect = serial.snapshot();
        for shards in [1, 2, 4, 8] {
            let mut sharded = ShardedFusion::new(asdb.clone(), 731, shards);
            sharded.push_all(&all);
            let snap = sharded.snapshot();
            assert_eq!(snap.telescope, expect.telescope, "{shards} shards");
            assert_eq!(snap.honeypot, expect.honeypot);
            assert_eq!(snap.combined_targets, expect.combined_targets);
            assert_eq!(snap.combined_events, expect.combined_events);
            assert_eq!(snap.common_targets, expect.common_targets);
            assert_eq!(snap.joint_targets, expect.joint_targets);
            assert_eq!(snap.asns, expect.asns);
            assert_eq!(snap.last_day, expect.last_day);
            assert_eq!(
                sharded.daily_attacks().values(),
                serial.daily_attacks().values()
            );
            assert_eq!(sharded.targets_on(DayIndex(0)), serial.targets_on(DayIndex(0)));
        }
    }

    #[test]
    fn incremental_push_equals_bulk_push_all() {
        let (t, h) = sample_events();
        let mut all: Vec<AttackEvent> = t.into_iter().chain(h).collect();
        all.sort_by_key(|e| (e.when.start, e.target));
        let asdb = Arc::new(AsDb::new());
        let mut one = ShardedFusion::new(asdb.clone(), 731, 4);
        let mut other = ShardedFusion::new(asdb, 731, 4);
        one.push_all(&all);
        for e in &all {
            other.push(e);
        }
        let (a, b) = (one.snapshot(), other.snapshot());
        assert_eq!(a.combined_events, b.combined_events);
        assert_eq!(a.joint_targets, b.joint_targets);
        assert_eq!(a.common_targets, b.common_targets);
    }

    #[test]
    fn snapshot_after_every_chunk_stays_consistent() {
        // Interleave ingestion and barriers: each snapshot must reflect
        // exactly the chunks dispatched before it.
        let (t, h) = sample_events();
        let mut all: Vec<AttackEvent> = t.into_iter().chain(h).collect();
        all.sort_by_key(|e| (e.when.start, e.target));
        let asdb = Arc::new(AsDb::new());
        let mut sharded = ShardedFusion::new(asdb.clone(), 731, 4);
        let geo = GeoDb::new();
        let mut serial = StreamingFusion::new(&geo, &asdb, 731);
        let mut pushed = 0u64;
        for chunk in all.chunks(7) {
            sharded.push_all(chunk);
            for e in chunk {
                serial.push(e);
            }
            pushed += chunk.len() as u64;
            let snap = sharded.snapshot();
            assert_eq!(snap.combined_events, pushed);
            assert_eq!(snap.joint_targets, serial.snapshot().joint_targets);
        }
    }
}
