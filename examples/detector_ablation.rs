//! Detector-threshold ablation: run the Moore et al. randomly-spoofed-DoS
//! detector over the same rendered telescope traffic under the published
//! filter thresholds and three variants — no filters, stricter filters,
//! and a 60 s flow timeout instead of 300 s — and print how many events
//! survive and how many flows the filters drop.
//!
//! ```sh
//! cargo run --release --example detector_ablation
//! ```

use dosscope_attackgen::Renderer;
use dosscope_harness::{Scenario, ScenarioConfig};
use dosscope_telescope::{DetectorConfig, PacketBatch, RsdosDetector, Telescope};
use dosscope_types::DayIndex;
use std::net::Ipv4Addr;

fn run_with(batches: &[PacketBatch], config: DetectorConfig) -> (usize, u64) {
    let mut detector = RsdosDetector::new(Telescope::default_slash8(), config);
    for b in batches {
        detector.ingest(b);
    }
    let (events, stats) = detector.finish();
    (events.len(), stats.flows_filtered)
}

fn main() {
    let config = ScenarioConfig {
        scale: 20_000.0,
        ..ScenarioConfig::default()
    };
    let world = Scenario::run(&config);
    let renderer = Renderer::new(
        &world.truth,
        Telescope::default_slash8(),
        (0..24).map(|i| Ipv4Addr::new(198, 18, i, 53)).collect(),
        7,
        world.days,
    );
    // A few busy days of mixed backscatter, concatenated.
    let batches: Vec<PacketBatch> = (10..14)
        .flat_map(|d| renderer.telescope_day(DayIndex(d)))
        .collect();

    let published = DetectorConfig::default();
    let configs = [
        ("published (25 pkts / 60 s / 0.5 pps / 300 s)", published),
        (
            "no filters",
            DetectorConfig {
                min_packets: 1,
                min_duration_secs: 0,
                min_max_pps: 0.0,
                ..published
            },
        ),
        (
            "strict (100 pkts / 300 s / 2 pps)",
            DetectorConfig {
                min_packets: 100,
                min_duration_secs: 300,
                min_max_pps: 2.0,
                ..published
            },
        ),
        (
            "60 s flow timeout",
            DetectorConfig {
                flow_timeout_secs: 60,
                ..published
            },
        ),
    ];
    println!("{:<46} {:>7} {:>15}", "detector config", "events", "flows filtered");
    for (label, cfg) in configs {
        let (events, filtered) = run_with(&batches, cfg);
        println!("{label:<46} {events:>7} {filtered:>15}");
    }
}
