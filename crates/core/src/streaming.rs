//! Near-realtime data fusion: incremental, day-by-day ingestion with
//! always-current aggregates.
//!
//! The paper closes on exactly this challenge: "while most of the
//! measurement infrastructure that enables this work already collects data
//! in near-realtime, a significant challenge is enabling near-realtime
//! data fusion, extraction, correlation and visualization". This module
//! provides the fusion side of that: a [`StreamingFusion`] accepts events
//! as the detectors emit them and maintains the Table 1 aggregates, the
//! daily activity series and the joint-target correlation *incrementally*
//! — a [`StreamingFusion::snapshot`] at any instant reflects everything
//! ingested so far, without re-scanning history.
//!
//! # Costs
//!
//! * **Snapshot: O(1).** Every figure is a counter or a set length. The
//!   common-target count is kept at push time: a target seen for the
//!   first time by one source bumps it when the other source already
//!   holds it, and the combined count follows as `|T| + |H| − common`.
//! * **Push: O(log n) amortized** in the live-window population, plus a
//!   scan of the event's own target's window list. Each event checks the
//!   other source's live windows on its target for an overlap, then
//!   records its own window in a per-target list and in a per-source
//!   min-heap keyed by window end.
//! * **Expiry in end-time order.** After every push, each source pops the
//!   heap entries whose window ended before `newest start − 4 days` and
//!   trims only those targets' lists, so the live population stays the
//!   windows ending inside the horizon, never the history.
//!
//! # Disorder bound
//!
//! The cutoff never moves back, so an expired window ended before any
//! event that starts at or after the current cutoff and cannot overlap
//! it: for events starting within 4 days of the newest start seen, the
//! joint correlation is exact. Two arrivals are counted rather than
//! silently absorbed:
//!
//! * `fusion.late_events` — an event starting more than the horizon
//!   before the newest start. Windows it could have overlapped may
//!   already have expired, so its joint test may miss.
//! * `fusion.out_of_window` — an event whose start day lies at or past
//!   the `days` the engine covers. It still counts in every aggregate,
//!   but not in [`StreamingFusion::daily_attacks`] or
//!   [`StreamingFusion::targets_on`].
//!
//! Both counters are registered when a [`FusionState`] is built, so a
//! clean run exports them as zeros.

use crate::enrich::Enricher;
use crate::store::SourceSummary;
use dosscope_types::{
    AttackEvent, DayIndex, EventSource, FastMap, FastSet, Prefix16, Prefix24, TimeRange, TimeSeries,
};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// How far behind the newest start an event may begin and still be
/// correlated exactly. Telescope events are capped around 2.5 days,
/// honeypot events at 24 h; 4 days of slack is safe for near-in-order
/// arrival.
const PRUNE_HORIZON_SECS: u64 = 4 * 86_400;

/// Rolling per-source aggregates.
#[derive(Debug, Default)]
struct SourceAccum {
    events: u64,
    targets: FastSet<Ipv4Addr>,
    blocks24: FastSet<Prefix24>,
    blocks16: FastSet<Prefix16>,
    /// Live windows per target for the joint correlation.
    recent_windows: FastMap<Ipv4Addr, Vec<TimeRange>>,
    /// `(window end, target)` for every live window, earliest end first.
    expiry: BinaryHeap<Reverse<(u64, Ipv4Addr)>>,
}

impl SourceAccum {
    fn summary(&self) -> SourceSummary {
        SourceSummary {
            events: self.events,
            targets: self.targets.len() as u64,
            blocks24: self.blocks24.len() as u64,
            blocks16: self.blocks16.len() as u64,
        }
    }

    /// Drop every window that ended before `cutoff`, touching only the
    /// targets whose windows expire.
    fn expire(&mut self, cutoff: u64) {
        while let Some(&Reverse((end, target))) = self.expiry.peek() {
            if end >= cutoff {
                break;
            }
            self.expiry.pop();
            if let Entry::Occupied(mut live) = self.recent_windows.entry(target) {
                live.get_mut().retain(|w| w.end.secs() >= cutoff);
                if live.get().is_empty() {
                    live.remove();
                }
            }
        }
    }
}

/// A point-in-time view of the fused state.
#[derive(Debug, Clone)]
pub struct StreamingSnapshot {
    /// Telescope aggregates so far.
    pub telescope: SourceSummary,
    /// Honeypot aggregates so far.
    pub honeypot: SourceSummary,
    /// Combined unique targets so far.
    pub combined_targets: u64,
    /// Combined events so far.
    pub combined_events: u64,
    /// Targets seen by both sources so far.
    pub common_targets: u64,
    /// Targets hit by overlapping attacks from both sources so far.
    pub joint_targets: u64,
    /// Unique ASNs targeted so far (both sources).
    pub asns: u64,
    /// Latest day with any activity.
    pub last_day: Option<DayIndex>,
}

/// The fusion accumulators themselves, with no tie to the metadata
/// databases: an owned, `'static`, [`Send`] value, so a sharded engine can
/// move one onto each long-lived pool worker (see
/// [`crate::sharded::ShardedFusion`]). The caller supplies the target's
/// origin AS with each event — [`StreamingFusion`] resolves it through the
/// shared [`Enricher`] cache, pool workers through a worker-local memo.
pub struct FusionState {
    tele: SourceAccum,
    hp: SourceAccum,
    /// Targets in both `tele.targets` and `hp.targets`.
    common_targets: u64,
    combined_asns: FastSet<u32>,
    joint_targets: FastSet<Ipv4Addr>,
    daily_attacks: TimeSeries,
    daily_targets: Vec<FastSet<u32>>,
    last_day: Option<DayIndex>,
    newest_start: u64,
}

/// The incremental fusion engine.
pub struct StreamingFusion<'a> {
    enricher: Enricher<'a>,
    state: FusionState,
}

impl FusionState {
    /// Empty accumulators covering `days`.
    pub fn new(days: u32) -> FusionState {
        // Registered up front so a run without drops exports zeros.
        dosscope_obs::counter!("fusion.late_events");
        dosscope_obs::counter!("fusion.out_of_window");
        FusionState {
            tele: SourceAccum::default(),
            hp: SourceAccum::default(),
            common_targets: 0,
            combined_asns: FastSet::default(),
            joint_targets: FastSet::default(),
            daily_attacks: TimeSeries::zeros(days),
            daily_targets: vec![FastSet::default(); days as usize],
            last_day: None,
            newest_start: 0,
        }
    }

    /// Windows ending before this can overlap no event that is not late.
    fn cutoff(&self) -> u64 {
        self.newest_start.saturating_sub(PRUNE_HORIZON_SECS)
    }

    /// Ingest one event, with the target's origin AS already resolved.
    pub fn push(&mut self, event: &AttackEvent, asn: Option<u32>) {
        // Telemetry mirror; the serial and sharded fusion both funnel
        // every event through here exactly once.
        dosscope_obs::counter!("fusion.events").inc();
        let start = event.when.start.secs();
        if start < self.cutoff() {
            dosscope_obs::counter!("fusion.late_events").inc();
        }
        let (accum, other) = match event.source() {
            EventSource::Telescope => (&mut self.tele, &self.hp),
            EventSource::Honeypot => (&mut self.hp, &self.tele),
        };

        // Live joint correlation first: does this event overlap any live
        // window of the *other* source on the same target?
        if other
            .recent_windows
            .get(&event.target)
            .is_some_and(|windows| windows.iter().any(|w| w.overlaps(&event.when)))
        {
            self.joint_targets.insert(event.target);
        }

        accum.events += 1;
        if accum.targets.insert(event.target) && other.targets.contains(&event.target) {
            self.common_targets += 1;
        }
        accum.blocks24.insert(Prefix24::of(event.target));
        accum.blocks16.insert(Prefix16::of(event.target));
        if let Some(a) = asn {
            self.combined_asns.insert(a);
        }
        accum
            .recent_windows
            .entry(event.target)
            .or_default()
            .push(event.when);
        accum
            .expiry
            .push(Reverse((event.when.end.secs(), event.target)));

        let day = event.when.start.day();
        match self.daily_targets.get_mut(day.0 as usize) {
            Some(set) => {
                set.insert(u32::from(event.target));
            }
            None => dosscope_obs::counter!("fusion.out_of_window").inc(),
        }
        self.daily_attacks.add(day, 1.0);
        self.last_day = Some(self.last_day.map_or(day, |d| d.max(day)));

        self.newest_start = self.newest_start.max(start);
        let cutoff = self.cutoff();
        self.tele.expire(cutoff);
        self.hp.expire(cutoff);
    }

    /// The current fused state.
    pub fn snapshot(&self) -> StreamingSnapshot {
        let telescope = self.tele.summary();
        let honeypot = self.hp.summary();
        StreamingSnapshot {
            telescope,
            honeypot,
            combined_targets: telescope.targets + honeypot.targets - self.common_targets,
            combined_events: telescope.events + honeypot.events,
            common_targets: self.common_targets,
            joint_targets: self.joint_targets.len() as u64,
            asns: self.combined_asns.len() as u64,
            last_day: self.last_day,
        }
    }

    /// Attacks per day ingested so far.
    pub fn daily_attacks(&self) -> &TimeSeries {
        &self.daily_attacks
    }

    /// The distinct targeted ASNs so far (both sources). Crate-visible so
    /// the sharded merge ([`crate::sharded::ShardedFusion`]) can union the
    /// sets: an AS spans /16s and therefore shards, so per-shard counts
    /// must not simply be summed.
    pub(crate) fn combined_asn_set(&self) -> &FastSet<u32> {
        &self.combined_asns
    }

    /// Unique targets on one day so far.
    pub fn targets_on(&self, day: DayIndex) -> u64 {
        self.daily_targets
            .get(day.0 as usize)
            .map(|s| s.len() as u64)
            .unwrap_or(0)
    }
}

impl<'a> StreamingFusion<'a> {
    /// A fusion engine over the metadata databases, covering `days`.
    pub fn new(
        geo: &'a dosscope_geo::GeoDb,
        asdb: &'a dosscope_geo::AsDb,
        days: u32,
    ) -> StreamingFusion<'a> {
        StreamingFusion {
            enricher: Enricher::new(geo, asdb),
            state: FusionState::new(days),
        }
    }

    /// Ingest one event as it is emitted by either detector.
    pub fn push(&mut self, event: &AttackEvent) {
        let (_, asn) = self.enricher.lookup(event.target);
        self.state.push(event, asn.map(|a| a.0));
    }

    /// The current fused state.
    pub fn snapshot(&self) -> StreamingSnapshot {
        self.state.snapshot()
    }

    /// Attacks per day ingested so far.
    pub fn daily_attacks(&self) -> &TimeSeries {
        self.state.daily_attacks()
    }

    /// Unique targets on one day so far.
    pub fn targets_on(&self, day: DayIndex) -> u64 {
        self.state.targets_on(day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EventStore;
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{AttackVector, PortSignature, ReflectionProtocol, SimTime, TransportProto};

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

    #[test]
    fn incremental_matches_batch() {
        let geo = GeoDb::new();
        let asdb = AsDb::new();
        let events_t = vec![
            tele("10.0.0.1", 100, 500),
            tele("10.0.0.2", 600, 900),
            tele("10.0.0.1", 5_000, 5_400),
        ];
        let events_h = vec![hp("10.0.0.1", 300, 800), hp("10.0.1.9", 100, 400)];

        let mut streaming = StreamingFusion::new(&geo, &asdb, 10);
        // Interleave by start time, as live detectors would.
        let mut all: Vec<(bool, AttackEvent)> = events_t
            .iter()
            .cloned()
            .map(|e| (true, e))
            .chain(events_h.iter().cloned().map(|e| (false, e)))
            .collect();
        all.sort_by_key(|(_, e)| e.when.start);
        for (_, e) in &all {
            streaming.push(e);
        }
        let snap = streaming.snapshot();

        let mut batch = EventStore::new();
        batch.ingest_telescope(events_t);
        batch.ingest_honeypot(events_h);
        assert_eq!(snap.telescope, batch.summary(EventSource::Telescope));
        assert_eq!(snap.honeypot, batch.summary(EventSource::Honeypot));
        assert_eq!(snap.combined_targets, batch.summary_combined().targets);
        assert_eq!(snap.combined_events, batch.summary_combined().events);
        assert_eq!(snap.common_targets, batch.common_targets());
        assert_eq!(snap.joint_targets, 1, "10.0.0.1 overlaps across sources");
    }

    #[test]
    fn snapshot_reflects_only_ingested_prefix() {
        let geo = GeoDb::new();
        let asdb = AsDb::new();
        let mut s = StreamingFusion::new(&geo, &asdb, 10);
        s.push(&tele("10.0.0.1", 100, 500));
        let snap1 = s.snapshot();
        assert_eq!(snap1.combined_events, 1);
        assert_eq!(snap1.joint_targets, 0);
        s.push(&hp("10.0.0.1", 300, 800));
        let snap2 = s.snapshot();
        assert_eq!(snap2.combined_events, 2);
        assert_eq!(snap2.joint_targets, 1);
        assert_eq!(snap2.common_targets, 1);
    }

    #[test]
    fn daily_series_accumulates() {
        let geo = GeoDb::new();
        let asdb = AsDb::new();
        let mut s = StreamingFusion::new(&geo, &asdb, 3);
        s.push(&tele("10.0.0.1", 100, 500));
        s.push(&tele("10.0.0.2", 200, 600));
        s.push(&hp("10.0.0.3", 86_400 + 10, 86_400 + 500));
        assert_eq!(s.daily_attacks().get(DayIndex(0)), 2.0);
        assert_eq!(s.daily_attacks().get(DayIndex(1)), 1.0);
        assert_eq!(s.targets_on(DayIndex(0)), 2);
        assert_eq!(s.snapshot().last_day, Some(DayIndex(1)));
    }

    #[test]
    fn pruning_does_not_lose_live_overlaps() {
        let geo = GeoDb::new();
        let asdb = AsDb::new();
        let mut s = StreamingFusion::new(&geo, &asdb, 100);
        // A long in-order history expires most windows; the fresh
        // overlaps at its end must still be detected.
        for i in 0..1100u64 {
            s.push(&tele(&format!("10.{}.{}.1", i / 250, i % 250), i * 3_600, i * 3_600 + 600));
        }
        let t = 1_099 * 3_600;
        s.push(&hp("10.4.99.1", t, t + 600));
        s.push(&tele("10.200.0.1", t + 100, t + 700));
        s.push(&hp("10.200.0.1", t + 200, t + 650));
        assert_eq!(
            s.snapshot().joint_targets,
            2,
            "10.4.99.1 and 10.200.0.1 both overlap"
        );
    }

    /// An event from either source on `target`.
    fn event(is_tele: bool, target: Ipv4Addr, start: u64, end: u64) -> AttackEvent {
        let ip = target.to_string();
        if is_tele {
            tele(&ip, start, end)
        } else {
            hp(&ip, start, end)
        }
    }

    fn count(name: &str) -> u64 {
        dosscope_obs::registry::counter(name).value()
    }

    #[test]
    fn late_events_are_counted() {
        let _telemetry = dosscope_obs::testing::scoped_enable();
        let day = 86_400;
        let mut s = FusionState::new(30);
        s.push(&tele("10.0.0.1", 10 * day, 10 * day + 600), None);
        // The cutoff is now day 6: an event starting there is in time.
        s.push(&hp("10.0.0.1", 6 * day, 6 * day + 600), None);
        s.push(&hp("10.0.0.2", 6 * day - 1, 6 * day + 600), None);
        s.push(&tele("10.0.0.3", day, 2 * day), None);
        // Moving the newest start makes the same start late only now.
        s.push(&hp("10.0.0.4", 12 * day, 12 * day + 1), None);
        s.push(&tele("10.0.0.5", 8 * day - 1, 8 * day), None);
        assert_eq!(count("fusion.late_events"), 3);
        assert_eq!(count("fusion.out_of_window"), 0);
        assert_eq!(s.snapshot().combined_events, 6);
    }

    #[test]
    fn out_of_window_events_are_counted() {
        let _telemetry = dosscope_obs::testing::scoped_enable();
        let day = 86_400;
        let mut s = FusionState::new(2);
        s.push(&tele("10.0.0.1", 100, 500), None);
        s.push(&hp("10.0.0.2", day + 100, day + 500), None);
        s.push(&tele("10.0.0.3", 2 * day, 2 * day + 500), None);
        s.push(&hp("10.0.0.4", 5 * day + 7, 5 * day + 500), None);
        assert_eq!(count("fusion.out_of_window"), 2);
        assert_eq!(count("fusion.late_events"), 0);
        // Dropped from the daily series only: the aggregates keep them.
        assert_eq!(s.daily_attacks().values(), &[1.0, 1.0]);
        assert_eq!(s.targets_on(DayIndex(2)), 0);
        let snap = s.snapshot();
        assert_eq!(snap.combined_events, 4);
        assert_eq!(snap.combined_targets, 4);
        assert_eq!(snap.last_day, Some(DayIndex(5)));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        const DAYS: u32 = 64;

        /// One generated arrival: (telescope?, target, gap to the previous
        /// base start, zero-length selector, duration, lateness below the
        /// base start, duplicate selector).
        type Spec = (bool, u8, u64, u8, u64, u64, u8);

        fn arb_spec() -> impl Strategy<Value = Spec> {
            (
                any::<bool>(),
                0u8..12,
                0u64..40_000,
                0u8..6,
                1u64..3 * 86_400,
                0u64..=PRUNE_HORIZON_SECS,
                0u8..6,
            )
        }

        fn target(t: u8) -> Ipv4Addr {
            Ipv4Addr::new(10, t / 6, t % 3, t)
        }

        fn asn(t: u8) -> Option<u32> {
            (t % 4 != 3).then_some(64_500 + u32::from(t % 5))
        }

        /// Two interleaved sources whose starts trail the running base
        /// time by at most the horizon, so no event is late. Some windows
        /// are zero-length; some repeat the previous window exactly, on
        /// either source.
        fn stream(specs: &[Spec]) -> Vec<(AttackEvent, Option<u32>)> {
            let mut base = 0u64;
            let mut out: Vec<(AttackEvent, Option<u32>)> = Vec::new();
            for &(is_tele, t, gap, zero, dur, lateness, dup) in specs {
                base += gap;
                let arrival = match out.last() {
                    Some((prev, prev_asn)) if dup == 0 => (
                        event(is_tele, prev.target, prev.when.start.0, prev.when.end.0),
                        *prev_asn,
                    ),
                    _ => {
                        let start = base.saturating_sub(lateness);
                        let end = if zero == 0 { start } else { start + dur };
                        (event(is_tele, target(t), start, end), asn(t))
                    }
                };
                out.push(arrival);
            }
            out
        }

        fn summary<'e>(events: impl Iterator<Item = &'e AttackEvent>) -> SourceSummary {
            let ips: Vec<u32> = events.map(|e| u32::from(e.target)).collect();
            let distinct = |prefix_bits: u32| {
                ips.iter()
                    .map(|ip| ip >> (32 - prefix_bits))
                    .collect::<BTreeSet<_>>()
                    .len() as u64
            };
            SourceSummary {
                events: ips.len() as u64,
                targets: distinct(32),
                blocks24: distinct(24),
                blocks16: distinct(16),
            }
        }

        /// The snapshot recomputed from scratch over `prefix`.
        fn brute_force(prefix: &[(AttackEvent, Option<u32>)]) -> StreamingSnapshot {
            let of = |source: EventSource| {
                prefix
                    .iter()
                    .map(|(e, _)| e)
                    .filter(move |e| e.source() == source)
            };
            let targets = |source| of(source).map(|e| e.target).collect::<BTreeSet<_>>();
            let tt = targets(EventSource::Telescope);
            let ht = targets(EventSource::Honeypot);
            let joint: BTreeSet<Ipv4Addr> = of(EventSource::Telescope)
                .flat_map(|t| {
                    of(EventSource::Honeypot)
                        .filter(move |h| h.target == t.target && h.when.overlaps(&t.when))
                        .map(|h| h.target)
                })
                .collect();
            let asns: BTreeSet<u32> = prefix.iter().filter_map(|(_, a)| *a).collect();
            StreamingSnapshot {
                telescope: summary(of(EventSource::Telescope)),
                honeypot: summary(of(EventSource::Honeypot)),
                combined_targets: tt.union(&ht).count() as u64,
                combined_events: prefix.len() as u64,
                common_targets: tt.intersection(&ht).count() as u64,
                joint_targets: joint.len() as u64,
                asns: asns.len() as u64,
                last_day: prefix.iter().map(|(e, _)| e.when.start.day()).max(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every snapshot, taken after every push, equals the
            /// brute-force recomputation over the events pushed so far.
            #[test]
            fn snapshots_match_brute_force(specs in proptest::collection::vec(arb_spec(), 1..80)) {
                let events = stream(&specs);
                let mut s = FusionState::new(DAYS);
                for (i, (e, a)) in events.iter().enumerate() {
                    s.push(e, *a);
                    let expect = brute_force(&events[..=i]);
                    prop_assert_eq!(format!("{:?}", s.snapshot()), format!("{expect:?}"));
                }
                let mut daily = TimeSeries::zeros(DAYS);
                for (e, _) in &events {
                    daily.add(e.when.start.day(), 1.0);
                }
                prop_assert_eq!(s.daily_attacks().values(), daily.values());
                for d in 0..DAYS {
                    let on_day: BTreeSet<Ipv4Addr> = events
                        .iter()
                        .filter(|(e, _)| e.when.start.day() == DayIndex(d))
                        .map(|(e, _)| e.target)
                        .collect();
                    prop_assert_eq!(s.targets_on(DayIndex(d)), on_day.len() as u64);
                }
            }

            /// After every push, each source keeps exactly the windows
            /// that end inside the horizon: no more live windows, and no
            /// more heap entries, than that.
            #[test]
            fn live_windows_stay_within_the_horizon(specs in proptest::collection::vec(arb_spec(), 1..200)) {
                let events = stream(&specs);
                let mut s = FusionState::new(DAYS);
                let mut newest = 0u64;
                for (i, (e, a)) in events.iter().enumerate() {
                    s.push(e, *a);
                    newest = newest.max(e.when.start.0);
                    let cutoff = newest.saturating_sub(PRUNE_HORIZON_SECS);
                    for (source, accum) in [(EventSource::Telescope, &s.tele), (EventSource::Honeypot, &s.hp)] {
                        let in_horizon = events[..=i]
                            .iter()
                            .filter(|(w, _)| w.source() == source && w.when.end.0 >= cutoff)
                            .count();
                        let live: usize = accum.recent_windows.values().map(Vec::len).sum();
                        prop_assert_eq!(live, in_horizon);
                        prop_assert_eq!(accum.expiry.len(), in_horizon);
                    }
                }
            }
        }
    }
}
