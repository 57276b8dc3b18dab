//! Serial-equivalence harness for the sharded detector pipelines: for any
//! seed and any thread count the pipeline produces *byte-identical*
//! results. The streaming fusion over the events of scenario runs at
//! threads ∈ {1, 2, 8} must agree with the serial run and with the set
//! of origin ASes, and full scenario runs for three seeds and threads
//! ∈ {1, 2, 8} compare the complete rendered reproduction report byte
//! for byte.

use dosscope_core::streaming::StreamingFusion;
use dosscope_core::Enricher;
use dosscope_harness::experiments::Experiments;
use dosscope_harness::{Scenario, ScenarioConfig};
use dosscope_types::AttackEvent;
use std::collections::BTreeSet;

/// The fusion against *real* enrichment data: scenario events have real
/// ASNs, and an AS spans many detector shards, so the fused ASN count
/// must be the set union of origin ASes (a per-shard sum would exceed
/// it). Events come from the sharded detector pipelines at threads
/// ∈ {1, 2, 8}; each fused snapshot must equal the serial one.
#[test]
fn sharded_fusion_matches_serial_on_scenario_events() {
    let fuse = |threads: usize| {
        let world = Scenario::run(&ScenarioConfig {
            scale: 50_000.0,
            threads,
            ..ScenarioConfig::default()
        });
        let mut all: Vec<AttackEvent> = world
            .store
            .telescope()
            .iter()
            .chain(world.store.honeypot())
            .collect();
        all.sort_by_key(|e| (e.when.start, e.target));
        let mut fusion = StreamingFusion::new(&world.geo, &world.asdb, world.days);
        for e in &all {
            fusion.push(e);
        }
        let enricher = Enricher::new(&world.geo, &world.asdb);
        let asns: BTreeSet<u32> = all
            .iter()
            .filter_map(|e| enricher.lookup(e.target).1)
            .map(|a| a.0)
            .collect();
        (fusion.snapshot(), asns.len() as u64)
    };

    let (expect, asn_union) = fuse(1);
    assert!(expect.asns > 1, "scenario events map to real ASNs");
    assert_eq!(expect.asns, asn_union, "ASN count is the set union");

    for threads in [2, 8] {
        let (snap, _) = fuse(threads);
        assert_eq!(snap.telescope, expect.telescope, "{threads} threads");
        assert_eq!(snap.honeypot, expect.honeypot);
        assert_eq!(snap.combined_targets, expect.combined_targets);
        assert_eq!(snap.combined_events, expect.combined_events);
        assert_eq!(snap.common_targets, expect.common_targets);
        assert_eq!(snap.joint_targets, expect.joint_targets);
        assert_eq!(snap.asns, expect.asns, "{threads} threads: ASN union");
        assert_eq!(snap.last_day, expect.last_day);
    }
}

/// The acceptance check: full scenario runs for three seeds, rendered to
/// the complete reproduction report, must be byte-identical for
/// threads ∈ {1, 2, 8}. (The telemetry half of the guarantee — the
/// engine counter map is identical across thread counts — lives in
/// `telemetry_equivalence.rs`, its own test binary: counters are a
/// process-global registry, so the comparison needs a process to itself.)
#[test]
fn reports_are_byte_identical_across_thread_counts() {
    for seed in [0xD05C09Eu64, 0x5EED_0001, 0xBEEF_CAFE] {
        let base = ScenarioConfig {
            seed,
            scale: 50_000.0,
            ..ScenarioConfig::default()
        };
        let serial_world = Scenario::run(&base);
        let serial_report = Experiments::run(&serial_world, base.scale).render_report();
        for threads in [2, 8] {
            let world = Scenario::run(&ScenarioConfig {
                threads,
                ..base.clone()
            });
            let report = Experiments::run(&world, base.scale).render_report();
            assert!(
                report == serial_report,
                "seed {seed:#x}, {threads} threads: report differs from serial"
            );
        }
    }
}
