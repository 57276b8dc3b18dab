//! End-to-end pipeline benchmark: times every stage of the scenario
//! (world build, rendering, telescope detection, honeypot fleet, event
//! fusion, report assembly) at 1, 2 and 8 measurement threads, plus a
//! baseline lane that re-runs the single-threaded measurement stages
//! through the pre-overhaul replicas ([`dosscope_bench::baseline`]) in the
//! same process, plus a telemetry lane that re-times the serial
//! measurement with `dosscope-obs` collection off and on (interleaved, so
//! ambient noise lands on both alike), plus a columnar-store scale sweep
//! (see below). Writes the machine-readable trajectory to
//! `BENCH_pipeline.json` (schema `dosscope-bench-pipeline-v5`).
//!
//! Only the detector stages (telescope, fleet) run on worker pools. The
//! `fusion` stage times the serial [`EventStore`] ingest of both
//! detectors' events — the code `repro` runs — and the `report` stage
//! Tables 1–3 over that store, so their rows repeat one serial
//! measurement at every thread count.
//!
//! Usage:
//!
//! ```text
//! pipeline [--smoke] [--scale F] [--days N] [--out PATH] [--check PATH]
//!          [--telemetry]
//! ```
//!
//! ## The store scale sweep
//!
//! The detector stages produce tens of thousands of events at bench
//! scale, but the columnar [`EventStore`] is sized for the paper's
//! millions — and 100x beyond. The sweep lane replicates the serial
//! detectors' events with deterministic perturbations (each replica
//! shifts every start by 31 s and every target by one address, so
//! victims, /24s and timestamps all stay diverse) up to scale ∈
//! {1, 5, 20, 50, 100} × ~1.045 M events (full runs; smoke sweeps
//! {1, 5} × 25 k). Each stream is stride-split into
//! [`SWEEP_BATCHES`] interleaved batches — every batch spans the full
//! time range, so all but the first arrive out of order and land in the
//! store's sorted-run machinery — and the ingest timer covers every
//! batch *plus* the final consolidation, i.e. the full cost of reaching
//! a query-ready store. The fusion timer then streams every stored
//! event (both sources merged by start) through the incremental
//! [`StreamingFusion`] engine, enrichment lookups included — honest
//! per-event fusion work, not the O(1) bitset summaries the store
//! answers aggregate queries from — and the report timer assembles
//! Tables 1–3 over the same store. Scale 100 is the headline claim:
//! ≈ 104.5 M events ingested, fused and reported in one in-memory
//! store, with ingest cost per event flat across the sweep (the
//! sorted-run design's amortized-linear guarantee).
//!
//! `--smoke` runs the reduced test scale and times the measurement stages
//! at threads {1, 8} only (for CI); its sweep lanes keep the best of
//! [`SMOKE_SWEEP_REPS`] repetitions, since millisecond lanes are
//! scheduler-noise-bound. `--telemetry` (or
//! `DOSSCOPE_TELEMETRY=1`) additionally collects spans/counters/pool
//! profiles over the pool lanes and writes `TELEMETRY.json` plus the
//! ASCII dashboard (note: collection adds clock reads inside the timed
//! lanes, so gated runs should leave it off). `--check PATH` compares the
//! freshly-measured speedups against a committed `BENCH_pipeline.json`
//! and exits non-zero when the file is malformed, any in-run speedup
//! regressed to less than half the committed value, the committed
//! parallel speedup is below the 4x floor, the fresh threads=8 wall
//! time regressed past threads=1 by more than the dispatch-overhead
//! budget, the committed sweep breaks its scaling gates (below), or the
//! fresh sweep lacks its largest scheduled lane (speedups and the sweep
//! gates are in-run ratios, so every gate is machine-independent). The
//! committed sweep must carry a scale=100 lane with ≥ 100 M events and
//! a finite peak working set, its scale-normalized ingest wall
//! (`ingest_secs / scale`) within [`SWEEP_NORMALIZED_INGEST_BUDGET`] of
//! the scale=1 lane's, and a scale=20 ingest within
//! [`SWEEP_SCALE20_BUDGET`] of 20x the scale=1 wall — the committed
//! proof that ingest stays amortized-linear to 100x paper scale. Fresh
//! smoke runs additionally gate their scale=5/scale=1 ingest ratio at
//! [`SWEEP_SMOKE_INGEST_RATIO`] (5x the work, plus headroom for
//! millisecond-lane noise), and their scale=5/scale=1 streaming-fusion
//! ratio at [`SWEEP_SMOKE_FUSION_RATIO`] (the same budget: fusion must
//! stay linear in the events pushed). On a full-scale run whose scale/days match
//! the committed file, `--check` also gates the disabled-telemetry
//! serial measurement wall at [`DISABLED_TELEMETRY_BUDGET`] of the
//! committed trajectory — proof that instrumentation-off costs stay
//! within noise of the pre-instrumentation pipeline.
//!
//! Full-run memory note: the scale=100 lane's working set (event
//! vectors, batch splits, columns and merge transients) peaks around
//! 25–30 GiB. Before the sweep the bench pre-faults an arena of that
//! size once, outside every timer, so lazily-populated VM memory (some
//! hypervisors charge tens of microseconds per first-touched page) is
//! paid up front rather than inside whichever lane happens to touch a
//! page first. On hosts whose allocator returns large freed blocks to
//! the OS immediately (glibc mmap'd chunks), run full regenerations
//! with `MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=-1` so the
//! pre-faulted pages stay in the heap and the lanes actually reuse
//! them; the gates are in-run ratios either way.
//!
//! ## How the parallel speedup is measured
//!
//! The threaded lanes run the real persistent-pool engines and record
//! honest wall time (`parallel_wall_speedup`). On a many-core host that
//! ratio approaches the core count; on a single-CPU container the workers
//! merely interleave, so wall time alone cannot show the available
//! parallelism. `parallel_speedup` therefore reports the pipelined
//! steady-state bound: in the deployed pipeline the producer thread
//! routes chunk N+1 while the workers drain chunk N, so throughput is
//! limited by max(routing wall, slowest shard's wall) — each component
//! timed contention-free on one thread here. That is the speedup an
//! unloaded host with > `threads` cores realises, measured identically on
//! any machine; the `parallel_speedup_basis` field records this. The
//! raw decomposition is written to the `parallel_lanes` record.

use dosscope_amppot::{route_requests, AmpPotFleet, RequestBatch, ShardedFleet};
use dosscope_attackgen::config::Calibration;
use dosscope_attackgen::{GenConfig, Generator, MigrationModel, Renderer};
use dosscope_bench::baseline::{
    baseline_packets, baseline_requests, BaselineFleet, BaselinePacketBatch,
    BaselineRequestBatch, BaselineRsdos,
};
use dosscope_core::report::{Table1, Table2, Table3};
use dosscope_core::{EventStore, Framework, StreamingFusion};
use dosscope_dns::synth::{synthesize, SynthConfig};
use dosscope_dps::DpsDataset;
use dosscope_geo::{AsRegistry, RegistryConfig};
use dosscope_telescope::{route_batches, PacketBatch, RsdosDetector, ShardedRsdos, Telescope};
use dosscope_types::{DayIndex, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Thread counts every measurement stage is timed at (smoke runs {1, 8}).
const THREADS: [usize; 3] = [1, 2, 8];

/// Interval length the serial telescope driver uses (matches the harness).
const INTERVAL_SECS: u64 = 60;

/// Repetitions for the single-threaded lanes (current and baseline). The
/// two lanes' reps are interleaved (see [`time_pair`]) and each records
/// its minimum wall time, so the current-vs-baseline speedup is a
/// warm-cache comparison with ambient machine noise landing on both
/// lanes alike.
const SERIAL_REPS: usize = 5;

/// Repetitions for the threaded pool lanes (min wall time is kept).
const PARALLEL_REPS: usize = 3;

/// Repetitions for the contention-free pipelined-bound decomposition.
/// These components are small (milliseconds at smoke scale) and feed the
/// gated `parallel_speedup`, so they take more reps than the wall lanes
/// to shake scheduler noise out of the minima.
const DECOMP_REPS: usize = 5;

/// Days concatenated into one dispatched chunk. Large chunks amortize the
/// per-dispatch channel wakeups; the concatenation happens outside every
/// timed region.
const DISPATCH_DAYS: usize = 16;

/// Wall-regression budget for the threads=8 vs threads=1 gate when the
/// host actually has the cores (see the check section): routing is extra
/// work the serial lane does not do, so a small allowance covers the
/// pipeline's fill/drain phases where it cannot yet overlap shard work.
const WALL_TOLERANCE: f64 = 1.10;

/// Cores the threads=8 wall gate needs before wall time can reflect
/// parallelism at all; below this the decomposed bound is gated instead.
const WALL_GATE_CPUS: usize = 8;

/// Budget for the disabled-telemetry serial measurement against the
/// committed trajectory: instrumentation with collection off must cost
/// at most 2%. Only gated on full-scale runs whose scale/days match the
/// committed file (wall times are not comparable across scales).
const DISABLED_TELEMETRY_BUDGET: f64 = 1.02;

/// Store scale-sweep multipliers for full runs. Scale 100 is the
/// headline claim: 100x the paper's event population in one in-memory
/// store, ingested through the sorted-run path at flat per-event cost.
const SWEEP_SCALES: [u64; 5] = [1, 5, 20, 50, 100];

/// Sweep multipliers for `--smoke` (CI gates the scale=5 lane).
const SWEEP_SCALES_SMOKE: [u64; 2] = [1, 5];

/// Events per sweep unit on full runs: the paper's combined event
/// population (≈ 1.045 M), so scale 100 lands at ≈ 104.5 M events.
const SWEEP_UNIT_EVENTS: u64 = 1_045_000;

/// Events per sweep unit at smoke scale.
const SWEEP_UNIT_EVENTS_SMOKE: u64 = 25_000;

/// Interleaved batches each sweep stream is stride-split into: batch j
/// takes rows j, j+B, j+2B, …, so every batch spans the full time range
/// and all but the first arrive out of order (the sorted-run worst-ish
/// case the ingest gates are about).
const SWEEP_BATCHES: usize = 8;

/// Sweep repetitions at smoke scale (best kept per timer): the smoke
/// lanes are milliseconds, so single shots are scheduler-noise-bound.
const SMOKE_SWEEP_REPS: usize = 3;

/// Committed-file floor for the scale=100 sweep lane's event count.
const SWEEP_FULL_FLOOR: u64 = 100_000_000;

/// Committed budget for scale-normalized ingest: the scale=100 lane's
/// `ingest_secs / 100` must stay within this factor of the scale=1
/// lane's `ingest_secs`. This is the amortized-linearity gate — the
/// retired merge-per-batch ingest was ~10x over it at scale 20 alone.
const SWEEP_NORMALIZED_INGEST_BUDGET: f64 = 2.0;

/// Committed budget for the scale=20 lane: `ingest_secs` within this
/// factor of 20x the scale=1 wall (a second, mid-sweep linearity pin).
const SWEEP_SCALE20_BUDGET: f64 = 3.0;

/// Fresh smoke-run ceiling on the scale=5 / scale=1 ingest-wall ratio
/// (5x the work, with headroom because both lanes are milliseconds).
const SWEEP_SMOKE_INGEST_RATIO: f64 = 7.0;

/// Fresh smoke-run ceiling on the scale=5 / scale=1 streaming-fusion wall
/// ratio: 5x the events through `StreamingFusion`, with the same headroom
/// as ingest. A fusion cost that grows with the live-window population
/// (rather than per event) breaks it.
const SWEEP_SMOKE_FUSION_RATIO: f64 = 7.0;

/// Working-set bytes pre-faulted per scheduled sweep event on full runs
/// (see the module docs' memory note): covers the event vectors, the
/// stride-split batches, the store columns and the merge transients.
const PREFAULT_BYTES_PER_EVENT: usize = 256;

struct Stage {
    name: &'static str,
    threads: usize,
    wall_secs: f64,
    /// Batches processed by the stage (0 when not batch-shaped).
    items: u64,
    /// Peak working-set size (live flows / open events; 0 when unsampled).
    peak: u64,
}

impl Stage {
    fn items_per_sec(&self) -> f64 {
        if self.items == 0 || self.wall_secs <= 0.0 {
            0.0
        } else {
            self.items as f64 / self.wall_secs
        }
    }
}

/// One threaded measurement lane's results: honest pool wall time plus
/// the contention-free critical-path decomposition (see module docs).
struct ParallelLane {
    wall_secs: f64,
    peak: u64,
    route_secs: f64,
    max_shard_secs: f64,
}

impl ParallelLane {
    /// Steady-state wall bound of the pipelined run: routing (producer
    /// thread) overlaps shard work (workers), so the slower of the two
    /// limits throughput.
    fn pipelined_secs(&self) -> f64 {
        self.route_secs.max(self.max_shard_secs)
    }
}

/// One store scale-sweep lane: a replicated event population pushed
/// through interleaved-batch ingest, streaming fusion and report over a
/// single columnar store.
struct SweepLane {
    scale: u64,
    events: u64,
    /// Wall covering every stride-split batch plus the final
    /// consolidation — the full cost of a query-ready store.
    ingest_secs: f64,
    /// Wall of the per-event streaming-fusion pass (both sources merged
    /// by start, enrichment lookups included) plus the aggregate reads.
    fusion_secs: f64,
    report_secs: f64,
    /// The store's own byte accounting after ingest: interner + columns
    /// + indexes + aggregate bitsets.
    peak_bytes: u64,
}

impl SweepLane {
    /// Fusion + report throughput (events per second through the
    /// streaming fusion and columnar report scans, the number the
    /// 100x claim is about).
    fn fusion_report_events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.fusion_secs + self.report_secs)
    }

    fn ingest_events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.ingest_secs)
    }
}

/// Split `events` into [`SWEEP_BATCHES`] stride batches: batch j takes
/// rows j, j+B, j+2B, … Relative order within a batch stays ascending
/// when the input was, but every batch covers the whole time range, so
/// batches 2..B arrive out of order at the store.
fn stride_split(
    events: Vec<dosscope_types::AttackEvent>,
    batches: usize,
) -> Vec<Vec<dosscope_types::AttackEvent>> {
    let mut out: Vec<Vec<dosscope_types::AttackEvent>> = (0..batches)
        .map(|_| Vec::with_capacity(events.len() / batches + 1))
        .collect();
    for (i, e) in events.into_iter().enumerate() {
        out[i % batches].push(e);
    }
    out
}

/// Replicate a detector event set `factor` times with deterministic
/// per-replica perturbations: replica k shifts every window by `k * 31`
/// seconds and every target by `k` addresses, so the blow-up scales the
/// victim, block and timestamp populations instead of piling duplicates
/// onto one key.
fn replicate(events: &[dosscope_types::AttackEvent], factor: u64) -> Vec<dosscope_types::AttackEvent> {
    let mut out = Vec::with_capacity(events.len() * factor as usize);
    for k in 0..factor {
        let shift = k * 31;
        for e in events {
            let mut e = e.clone();
            e.target = std::net::Ipv4Addr::from(u32::from(e.target).wrapping_add(k as u32));
            e.when = dosscope_types::TimeRange::new(
                SimTime(e.when.start.0 + shift),
                SimTime(e.when.end.0 + shift),
            );
            out.push(e);
        }
    }
    out
}

struct Options {
    scale: f64,
    days: u32,
    seed: u64,
    out: String,
    check: Option<String>,
    smoke: bool,
    telemetry: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: 500.0,
        days: 731,
        seed: 0xD05C09E,
        out: "BENCH_pipeline.json".to_string(),
        check: None,
        smoke: false,
        telemetry: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match a.as_str() {
            "--smoke" => {
                opts.smoke = true;
                opts.scale = 20_000.0;
            }
            "--scale" => opts.scale = value("--scale").parse().expect("--scale takes a float"),
            "--days" => opts.days = value("--days").parse().expect("--days takes an integer"),
            "--out" => opts.out = value("--out"),
            "--check" => opts.check = Some(value("--check")),
            "--telemetry" => opts.telemetry = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    opts
}

/// The current serial telescope measurement pass (the shipping
/// single-thread path): returns the finished events and the peak live
/// flow count. Shared by the serial lane and the telemetry overhead
/// lane so both time exactly the same work.
fn run_serial_telescope(
    telescope: Telescope,
    days_data: &[(Vec<PacketBatch>, Vec<RequestBatch>)],
) -> (Vec<dosscope_types::AttackEvent>, usize) {
    let mut detector = RsdosDetector::with_defaults(telescope);
    let mut interval: Option<u64> = None;
    let mut peak = 0usize;
    for (tele, _) in days_data {
        for b in tele {
            let iv = b.ts.secs() / INTERVAL_SECS;
            match interval {
                None => interval = Some(iv),
                Some(cur) if iv > cur => {
                    detector.advance(SimTime(iv * INTERVAL_SECS));
                    interval = Some(iv);
                }
                _ => {}
            }
            detector.ingest(b);
        }
        peak = peak.max(detector.live_flows());
    }
    let (events, _) = detector.finish();
    (events, peak)
}

/// Serial fleet twin of [`run_serial_telescope`].
fn run_serial_fleet(
    days_data: &[(Vec<PacketBatch>, Vec<RequestBatch>)],
) -> (Vec<dosscope_types::AttackEvent>, usize) {
    let mut fleet = AmpPotFleet::standard();
    let mut peak = 0usize;
    for (_, hp) in days_data {
        for b in hp {
            fleet.ingest(b);
        }
        peak = peak.max(fleet.open_events());
    }
    let (events, _) = fleet.finish();
    (events, peak)
}

fn main() {
    let opts = parse_args();
    let thread_list: Vec<usize> = if opts.smoke {
        vec![1, 8]
    } else {
        THREADS.to_vec()
    };
    let mut stages: Vec<Stage> = Vec::new();

    // ---- Stage: world ---------------------------------------------------
    let t0 = Instant::now();
    let registry = AsRegistry::build(&RegistryConfig {
        seed: opts.seed ^ 0x9E0,
        ..RegistryConfig::default()
    });
    let geo = registry.build_geodb();
    let asdb = registry.build_asdb();
    let total_sites =
        ((dosscope_attackgen::config::paper::WEB_SITES / opts.scale).round() as u32).max(500);
    let mut synth = synthesize(
        &SynthConfig {
            seed: opts.seed ^ 0xD45,
            total_sites,
            days: opts.days,
            ..SynthConfig::default()
        },
        &registry,
    );
    let gen_config = GenConfig {
        seed: opts.seed ^ 0xA77,
        days: opts.days,
        scale: opts.scale,
        ..GenConfig::default()
    };
    let cal = Calibration::default();
    let truth =
        Generator::new(gen_config.clone(), Calibration::default(), &registry, &synth).generate();
    let _migrations = MigrationModel::apply(&gen_config, &cal, &truth, &mut synth);
    let dps = DpsDataset::infer(&synth.zone, &synth.catalog, &asdb);
    stages.push(Stage {
        name: "world",
        threads: 1,
        wall_secs: t0.elapsed().as_secs_f64(),
        items: 0,
        peak: 0,
    });

    // ---- Stage: render --------------------------------------------------
    let telescope = Telescope::default_slash8();
    let pot_addrs: Vec<std::net::Ipv4Addr> = AmpPotFleet::standard()
        .honeypots()
        .iter()
        .map(|h| h.addr)
        .collect();
    let renderer = Renderer::new(&truth, telescope, pot_addrs, opts.seed ^ 0x8E4, opts.days);
    let t0 = Instant::now();
    let days_data: Vec<(Vec<PacketBatch>, Vec<RequestBatch>)> = (0..opts.days)
        .map(|d| {
            let day = DayIndex(d);
            (renderer.telescope_day(day), renderer.honeypot_day(day))
        })
        .collect();
    let render_secs = t0.elapsed().as_secs_f64();
    let tele_batches: u64 = days_data.iter().map(|(t, _)| t.len() as u64).sum();
    let hp_batches: u64 = days_data.iter().map(|(_, h)| h.len() as u64).sum();
    stages.push(Stage {
        name: "render",
        threads: 1,
        wall_secs: render_secs,
        items: tele_batches + hp_batches,
        peak: 0,
    });

    // ---- Serial measurement lanes: current vs pre-overhaul baseline -----
    // The baseline replicas consume the pre-overhaul `Arc<Vec<u8>>` batch
    // layout; the conversion happens outside the timed region because it
    // is an artifact of keeping both implementations in one process, not
    // work the old pipeline ever did.
    let base_tele_days: Vec<Vec<BaselinePacketBatch>> =
        days_data.iter().map(|(t, _)| baseline_packets(t)).collect();
    let (
        ((serial_tele, tele1_peak), tele1_secs),
        ((base_tele_events, base_tele_peak), base_tele_secs),
    ) = time_pair(
        SERIAL_REPS,
        || run_serial_telescope(telescope, &days_data),
        || {
            let mut detector = BaselineRsdos::with_defaults(telescope);
            let mut interval: Option<u64> = None;
            let mut peak = 0usize;
            for tele in &base_tele_days {
                for b in tele {
                    let iv = b.ts.secs() / INTERVAL_SECS;
                    match interval {
                        None => interval = Some(iv),
                        Some(cur) if iv > cur => {
                            detector.advance(SimTime(iv * INTERVAL_SECS));
                            interval = Some(iv);
                        }
                        _ => {}
                    }
                    detector.ingest(b);
                }
                peak = peak.max(detector.live_flows());
            }
            let (events, _) = detector.finish();
            (events, peak)
        },
    );
    drop(base_tele_days);

    let base_hp_days: Vec<Vec<BaselineRequestBatch>> =
        days_data.iter().map(|(_, h)| baseline_requests(h)).collect();
    let (
        ((serial_hp, fleet1_peak), fleet1_secs),
        ((base_hp_events, base_fleet_peak), base_fleet_secs),
    ) = time_pair(
        SERIAL_REPS,
        || run_serial_fleet(&days_data),
        || {
            let mut fleet = BaselineFleet::standard();
            let mut peak = 0usize;
            for hp in &base_hp_days {
                for b in hp {
                    fleet.ingest(b);
                }
                peak = peak.max(fleet.open_events());
            }
            let (events, _) = fleet.finish();
            (events, peak)
        },
    );
    drop(base_hp_days);

    // ---- Telemetry overhead lane ----------------------------------------
    // Re-time the full serial measurement (telescope + fleet) with
    // dosscope-obs collection off and on, interleaved so scheduler and
    // frequency noise land on both lanes alike. The disabled lane is the
    // shipping default — every instrumentation site collapses to one
    // relaxed atomic load plus the always-on batch counters — and the
    // check section gates its wall against the committed trajectory on
    // full-scale runs. The enabled ratio is informational: it prices the
    // clock reads collection adds.
    let ((telem_off_events, telem_off_secs), (telem_on_events, telem_on_secs)) = time_pair(
        SERIAL_REPS,
        || {
            dosscope_obs::set_enabled(false);
            let t = run_serial_telescope(telescope, &days_data);
            let f = run_serial_fleet(&days_data);
            (t.0, f.0)
        },
        || {
            dosscope_obs::set_enabled(true);
            let t = run_serial_telescope(telescope, &days_data);
            let f = run_serial_fleet(&days_data);
            dosscope_obs::set_enabled(false);
            (t.0, f.0)
        },
    );
    assert_eq!(
        telem_off_events, telem_on_events,
        "telemetry collection changed the measured events"
    );
    // Drop the counters the lane itself accumulated so an optional
    // --telemetry emission below reflects only the pool lanes.
    dosscope_obs::reset();
    let telemetry_enabled_overhead = ratio(telem_on_secs, telem_off_secs);
    if opts.telemetry {
        dosscope_obs::set_enabled(true);
    }
    dosscope_obs::init_from_env();

    // ---- Dispatch chunks for the pool lanes (built outside all timers) --
    let tele_chunks: Vec<Arc<Vec<PacketBatch>>> = days_data
        .chunks(DISPATCH_DAYS)
        .map(|days| Arc::new(days.iter().flat_map(|(t, _)| t.iter().cloned()).collect()))
        .collect();
    let hp_chunks: Vec<Arc<Vec<RequestBatch>>> = days_data
        .chunks(DISPATCH_DAYS)
        .map(|days| Arc::new(days.iter().flat_map(|(_, h)| h.iter().cloned()).collect()))
        .collect();

    // ---- Measurement stages at each thread count ------------------------
    let mut par_tele: Vec<(usize, ParallelLane)> = Vec::new();
    let mut par_fleet: Vec<(usize, ParallelLane)> = Vec::new();
    for &threads in &thread_list {
        // Telescope detection.
        let (tele_events, tele_secs, tele_peak) = if threads == 1 {
            (serial_tele.clone(), tele1_secs, tele1_peak as u64)
        } else {
            let lane = time_telescope_pool(telescope, &tele_chunks, threads, &serial_tele);
            let (wall, peak) = (lane.wall_secs, lane.peak);
            par_tele.push((threads, lane));
            (serial_tele.clone(), wall, peak)
        };
        stages.push(Stage {
            name: "telescope",
            threads,
            wall_secs: tele_secs,
            items: tele_batches,
            peak: tele_peak,
        });

        // Honeypot fleet.
        let (hp_events, fleet_secs, fleet_peak) = if threads == 1 {
            (serial_hp.clone(), fleet1_secs, fleet1_peak as u64)
        } else {
            let lane = time_fleet_pool(&hp_chunks, threads, &serial_hp);
            let (wall, peak) = (lane.wall_secs, lane.peak);
            par_fleet.push((threads, lane));
            (serial_hp.clone(), wall, peak)
        };
        stages.push(Stage {
            name: "fleet",
            threads,
            wall_secs: fleet_secs,
            items: hp_batches,
            peak: fleet_peak,
        });

        // Event fusion into the store: the serial `EventStore` ingest
        // `repro` runs, whatever the measurement thread count.
        let t0 = Instant::now();
        let mut store = EventStore::new();
        store.ingest_telescope(tele_events.clone());
        store.ingest_honeypot(hp_events.clone());
        let combined = store.summary_combined();
        let common = store.common_targets();
        stages.push(Stage {
            name: "fusion",
            threads,
            wall_secs: t0.elapsed().as_secs_f64(),
            items: combined.events,
            peak: common,
        });

        // Report assembly over the fused store.
        let t0 = Instant::now();
        let fw = Framework::new(&store, &geo, &asdb, opts.days)
            .with_dns(&synth.zone, &synth.catalog)
            .with_dps(&dps);
        let t1 = Table1::build(&fw);
        let t2 = Table2::build(&fw);
        let t3 = Table3::build(&fw);
        let report_items =
            t1.rows.len() as u64 + t2.is_some() as u64 + t3.is_some() as u64;
        stages.push(Stage {
            name: "report",
            threads,
            wall_secs: t0.elapsed().as_secs_f64(),
            items: report_items,
            peak: 0,
        });
    }

    // ---- Baseline stage records (timed in the serial lanes above) -------
    stages.push(Stage {
        name: "telescope_baseline",
        threads: 1,
        wall_secs: base_tele_secs,
        items: tele_batches,
        peak: base_tele_peak as u64,
    });
    stages.push(Stage {
        name: "fleet_baseline",
        threads: 1,
        wall_secs: base_fleet_secs,
        items: hp_batches,
        peak: base_fleet_peak as u64,
    });

    // The speedup is only meaningful if both lanes did the same work.
    assert_eq!(
        serial_tele, base_tele_events,
        "baseline telescope lane produced different events"
    );
    assert_eq!(
        serial_hp, base_hp_events,
        "baseline fleet lane produced different events"
    );

    let speedup_tele = ratio(base_tele_secs, tele1_secs);
    let speedup_fleet = ratio(base_fleet_secs, fleet1_secs);
    let speedup_measurement = ratio(base_tele_secs + base_fleet_secs, tele1_secs + fleet1_secs);

    // ---- Store scale sweep ----------------------------------------------
    // Free the packet-level data first: the sweep is about the event
    // store's working set, not the renderer's.
    drop(tele_chunks);
    drop(hp_chunks);
    drop(days_data);
    let (sweep_scales, unit): (&[u64], u64) = if opts.smoke {
        (&SWEEP_SCALES_SMOKE, SWEEP_UNIT_EVENTS_SMOKE)
    } else {
        (&SWEEP_SCALES, SWEEP_UNIT_EVENTS)
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let base_total = (serial_tele.len() + serial_hp.len()) as u64;

    // Pre-fault the sweep's peak working set once, outside every timer
    // (see the module docs' memory note). A resize with a nonzero byte
    // actually writes every page; the arena is dropped before any lane
    // starts, so lanes reuse the now-populated heap.
    if !opts.smoke {
        let top = *sweep_scales.last().expect("sweep scales nonempty");
        let bytes = (top * unit) as usize * PREFAULT_BYTES_PER_EVENT;
        let t0 = Instant::now();
        let mut arena: Vec<u8> = Vec::new();
        arena.resize(bytes, 1);
        std::hint::black_box(&arena);
        drop(arena);
        println!(
            "  prefault: {:.1} GiB touched in {:.1}s",
            bytes as f64 / (1024.0 * 1024.0 * 1024.0),
            t0.elapsed().as_secs_f64()
        );
    }

    let sweep_reps = if opts.smoke { SMOKE_SWEEP_REPS } else { 1 };
    let mut sweep: Vec<SweepLane> = Vec::new();
    for &m in sweep_scales {
        let factor = (m * unit).div_ceil(base_total).max(1);
        let mut best: Option<SweepLane> = None;
        for _ in 0..sweep_reps {
            let tele_batches = stride_split(replicate(&serial_tele, factor), SWEEP_BATCHES);
            let hp_batches = stride_split(replicate(&serial_hp, factor), SWEEP_BATCHES);

            // Ingest: every interleaved batch, both sources alternating
            // (as the pipeline's chunked handoff would deliver them),
            // plus the consolidation that makes the store query-ready.
            let t0 = Instant::now();
            let mut store = EventStore::new();
            store.set_consolidation_threads(cpus.clamp(1, 8));
            for (t, h) in tele_batches.into_iter().zip(hp_batches) {
                store.ingest_telescope(t);
                store.ingest_honeypot(h);
            }
            store.consolidate();
            let ingest_secs = t0.elapsed().as_secs_f64();
            let peak_bytes = store.memory_bytes() as u64;

            // Fusion: stream every stored event through the incremental
            // engine in global start order (a two-way merge of the
            // sources, matching the live pipeline's arrival order), then
            // read the fused aggregates. This prices real per-event
            // fusion work — the store's O(1) bitset summaries are also
            // read, and cross-checked against the streamed state.
            let t0 = Instant::now();
            let mut fusion = StreamingFusion::new(&geo, &asdb, opts.days + 2);
            let mut t_it = store.telescope().iter().peekable();
            let mut h_it = store.honeypot().iter().peekable();
            loop {
                let take_tele = match (t_it.peek(), h_it.peek()) {
                    (Some(t), Some(h)) => t.when.start <= h.when.start,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let e = if take_tele {
                    t_it.next().expect("peeked")
                } else {
                    h_it.next().expect("peeked")
                };
                fusion.push(&e);
            }
            let snap = fusion.snapshot();
            let combined = store.summary_combined();
            let common = store.common_targets();
            let fusion_secs = t0.elapsed().as_secs_f64();
            assert_eq!(combined.events, base_total * factor, "sweep lost events");
            assert_eq!(
                snap.combined_events, combined.events,
                "streaming fusion disagrees with the store on events"
            );
            assert_eq!(
                snap.combined_targets, combined.targets,
                "streaming fusion disagrees with the store on targets"
            );
            assert_eq!(
                snap.common_targets, common,
                "streaming fusion disagrees with the store on common targets"
            );
            assert!(common > 0 || serial_hp.is_empty(), "sweep degenerated");

            let t0 = Instant::now();
            let fw = Framework::new(&store, &geo, &asdb, opts.days)
                .with_dns(&synth.zone, &synth.catalog)
                .with_dps(&dps);
            let t1 = Table1::build(&fw);
            let t2 = Table2::build(&fw);
            let t3 = Table3::build(&fw);
            let report_secs = t0.elapsed().as_secs_f64();
            assert_eq!(t1.rows[2].summary.events, combined.events);
            let _ = (t2, t3);

            let lane = SweepLane {
                scale: m,
                events: combined.events,
                ingest_secs,
                fusion_secs,
                report_secs,
                peak_bytes,
            };
            best = Some(match best.take() {
                None => lane,
                Some(b) => SweepLane {
                    ingest_secs: b.ingest_secs.min(lane.ingest_secs),
                    fusion_secs: b.fusion_secs.min(lane.fusion_secs),
                    report_secs: b.report_secs.min(lane.report_secs),
                    ..lane
                },
            });
        }
        sweep.push(best.expect("at least one sweep rep"));
    }

    // ---- Emit JSON ------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"dosscope-bench-pipeline-v5\",");
    let _ = writeln!(json, "  \"scale\": {},", opts.scale);
    let _ = writeln!(json, "  \"days\": {},", opts.days);
    let _ = writeln!(json, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        thread_list
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        let sep = if i + 1 == stages.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"threads\": {}, \"wall_secs\": {:.6}, \"items\": {}, \"items_per_sec\": {:.1}, \"peak\": {}}}{}",
            s.name, s.threads, s.wall_secs, s.items, s.items_per_sec(), s.peak, sep
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup\": {{\"telescope\": {:.3}, \"fleet\": {:.3}, \"measurement\": {:.3}}},",
        speedup_tele, speedup_fleet, speedup_measurement
    );
    let _ = writeln!(
        json,
        "  \"telemetry\": {{\"disabled_wall_secs\": {:.6}, \"enabled_wall_secs\": {:.6}, \"enabled_overhead\": {:.4}}},",
        telem_off_secs, telem_on_secs, telemetry_enabled_overhead
    );
    let _ = writeln!(
        json,
        "  \"parallel_speedup_basis\": \"serial wall over max(route wall, max per-shard wall), each component timed contention-free; routing overlaps shard work in the pipelined run, so this is the steady-state speedup an unloaded host with > threads cores realises\","
    );
    let mut par_fields: Vec<String> = Vec::new();
    for (threads, lane) in &par_tele {
        par_fields.push(format!(
            "\"telescope_{threads}\": {:.3}",
            ratio(tele1_secs, lane.pipelined_secs())
        ));
    }
    for (threads, lane) in &par_fleet {
        par_fields.push(format!(
            "\"fleet_{threads}\": {:.3}",
            ratio(fleet1_secs, lane.pipelined_secs())
        ));
    }
    let _ = writeln!(json, "  \"parallel_speedup\": {{{}}},", par_fields.join(", "));
    let mut lane_fields: Vec<String> = Vec::new();
    for (name, lanes) in [("telescope", &par_tele), ("fleet", &par_fleet)] {
        for (threads, lane) in lanes.iter() {
            lane_fields.push(format!(
                "\"{name}_{threads}\": {{\"wall_secs\": {:.6}, \"route_secs\": {:.6}, \"max_shard_secs\": {:.6}}}",
                lane.wall_secs, lane.route_secs, lane.max_shard_secs
            ));
        }
    }
    let _ = writeln!(json, "  \"parallel_lanes\": {{{}}},", lane_fields.join(", "));
    let mut wall_fields: Vec<String> = Vec::new();
    for (threads, lane) in &par_tele {
        wall_fields.push(format!(
            "\"telescope_{threads}\": {:.3}",
            ratio(tele1_secs, lane.wall_secs)
        ));
    }
    for (threads, lane) in &par_fleet {
        wall_fields.push(format!(
            "\"fleet_{threads}\": {:.3}",
            ratio(fleet1_secs, lane.wall_secs)
        ));
    }
    let _ = writeln!(
        json,
        "  \"parallel_wall_speedup\": {{{}}},",
        wall_fields.join(", ")
    );
    let _ = writeln!(json, "  \"sweep_batches\": {SWEEP_BATCHES},");
    json.push_str("  \"sweep\": [\n");
    for (i, l) in sweep.iter().enumerate() {
        let sep = if i + 1 == sweep.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scale\": {}, \"events\": {}, \"ingest_secs\": {:.6}, \"ingest_events_per_sec\": {:.1}, \"fusion_secs\": {:.6}, \"report_secs\": {:.6}, \"fusion_report_events_per_sec\": {:.1}, \"peak_bytes\": {}}}{}",
            l.scale, l.events, l.ingest_secs, l.ingest_events_per_sec(), l.fusion_secs,
            l.report_secs, l.fusion_report_events_per_sec(), l.peak_bytes, sep
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"events\": {{\"telescope\": {}, \"honeypot\": {}}}",
        serial_tele.len(),
        serial_hp.len()
    );
    json.push_str("}\n");
    std::fs::write(&opts.out, &json).expect("write bench output");

    println!("wrote {}", opts.out);
    for s in &stages {
        println!(
            "  {:<20} threads={} {:>9.3}s  {:>12.0} items/s  peak={}",
            s.name,
            s.threads,
            s.wall_secs,
            s.items_per_sec(),
            s.peak
        );
    }
    println!(
        "  speedup vs pre-overhaul baseline: telescope {speedup_tele:.2}x, fleet {speedup_fleet:.2}x, measurement {speedup_measurement:.2}x"
    );
    println!(
        "  telemetry lane: disabled {telem_off_secs:.3}s, enabled {telem_on_secs:.3}s (x{telemetry_enabled_overhead:.3} when collecting)"
    );
    for (threads, lane) in &par_tele {
        println!(
            "  telescope threads={threads}: wall {:.3}s (x{:.2} vs serial), pipelined bound max(route {:.3}s, max-shard {:.3}s) (x{:.2})",
            lane.wall_secs,
            ratio(tele1_secs, lane.wall_secs),
            lane.route_secs,
            lane.max_shard_secs,
            ratio(tele1_secs, lane.pipelined_secs())
        );
    }
    for (threads, lane) in &par_fleet {
        println!(
            "  fleet     threads={threads}: wall {:.3}s (x{:.2} vs serial), pipelined bound max(route {:.3}s, max-shard {:.3}s) (x{:.2})",
            lane.wall_secs,
            ratio(fleet1_secs, lane.wall_secs),
            lane.route_secs,
            lane.max_shard_secs,
            ratio(fleet1_secs, lane.pipelined_secs())
        );
    }
    let sweep1_ingest = sweep.first().map_or(0.0, |l| l.ingest_secs);
    for l in &sweep {
        println!(
            "  sweep scale={:<3}: {:>10} events  ingest {:.3}s ({:.0} events/s, x{:.2} normalized vs scale 1)  fusion {:.3}s  report {:.3}s  ({:.0} events/s fused+reported, {:.1} MiB store)",
            l.scale,
            l.events,
            l.ingest_secs,
            l.ingest_events_per_sec(),
            ratio(l.ingest_secs / l.scale as f64, sweep1_ingest),
            l.fusion_secs,
            l.report_secs,
            l.fusion_report_events_per_sec(),
            l.peak_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    // ---- Optional regression gate ---------------------------------------
    if let Some(path) = &opts.check {
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let c = parse_committed(&committed)
            .unwrap_or_else(|e| fail(&format!("{path} is malformed: {e}")));
        let gates = [
            ("telescope", c.speedup_tele, speedup_tele),
            ("fleet", c.speedup_fleet, speedup_fleet),
            ("measurement", c.speedup_measurement, speedup_measurement),
        ];
        for (name, committed_x, current_x) in gates {
            if current_x < committed_x / 2.0 {
                fail(&format!(
                    "{name} speedup regressed more than 2x: committed {committed_x:.2}x, current {current_x:.2}x"
                ));
            }
        }
        // The committed trajectory must hold the 4x parallel-speedup floor.
        for (name, committed_x) in [
            ("telescope_8", c.par_tele8),
            ("fleet_8", c.par_fleet8),
        ] {
            if committed_x < 4.0 {
                fail(&format!(
                    "committed parallel_speedup {name} below the 4x floor: {committed_x:.2}x"
                ));
            }
        }
        // And the fresh parallel speedups must not have collapsed. At
        // smoke scale the lanes are a few milliseconds, so per-shard
        // fixed costs (8 detector builds and finishes) dominate and the
        // committed full-scale ratio is unreachable; the smoke gate only
        // demands that sharding still beats the serial lane at all.
        let fresh_par_tele8 = par_tele
            .iter()
            .find(|(t, _)| *t == 8)
            .map(|(_, l)| ratio(tele1_secs, l.pipelined_secs()));
        let fresh_par_fleet8 = par_fleet
            .iter()
            .find(|(t, _)| *t == 8)
            .map(|(_, l)| ratio(fleet1_secs, l.pipelined_secs()));
        for (name, committed_x, fresh) in [
            ("telescope_8", c.par_tele8, fresh_par_tele8),
            ("fleet_8", c.par_fleet8, fresh_par_fleet8),
        ] {
            let floor = if opts.smoke { 1.0 } else { committed_x / 2.0 };
            if let Some(current_x) = fresh {
                if current_x < floor {
                    fail(&format!(
                        "parallel_speedup {name} regressed: committed {committed_x:.2}x, current {current_x:.2}x, floor {floor:.2}x"
                    ));
                }
            }
        }
        // Fresh threads=8 vs threads=1 wall gate. When the host has the
        // cores, the pool's honest wall time must stay within the
        // fill/drain budget of the serial wall (the retired per-batch
        // clone-and-respawn design was ~2x over). On a host without 8
        // cores the workers can only interleave, so wall time cannot
        // reflect parallelism; the gate then binds the contention-free
        // pipelined bound instead, which is what the wall becomes once
        // the cores exist.
        for (name, serial_secs, lanes) in [
            ("telescope", tele1_secs, &par_tele),
            ("fleet", fleet1_secs, &par_fleet),
        ] {
            if let Some((_, lane)) = lanes.iter().find(|(t, _)| *t == 8) {
                let (gated, form) = if cpus >= WALL_GATE_CPUS {
                    (lane.wall_secs, "wall")
                } else {
                    (lane.pipelined_secs(), "pipelined bound")
                };
                if gated > serial_secs * WALL_TOLERANCE {
                    fail(&format!(
                        "{name} threads=8 {form} regressed past threads=1: {gated:.3}s vs {serial_secs:.3}s (budget {WALL_TOLERANCE}x)"
                    ));
                }
            }
        }
        // Disabled-telemetry budget: only comparable when this run did
        // the same work as the committed one (full scale, same window) —
        // wall seconds do not transfer across scales. CI's smoke check
        // skips it; the gate binds whenever the trajectory is
        // regenerated.
        if !opts.smoke && c.scale == opts.scale && c.days == opts.days as f64 {
            let committed_meas = c.tele1_wall + c.fleet1_wall;
            if telem_off_secs > committed_meas * DISABLED_TELEMETRY_BUDGET {
                fail(&format!(
                    "disabled-telemetry serial measurement regressed past the committed trajectory: {telem_off_secs:.3}s vs {committed_meas:.3}s (budget {DISABLED_TELEMETRY_BUDGET}x)"
                ));
            }
        }
        // The committed trajectory must prove the paper-scale × 100 run:
        // a scale=100 sweep lane with ≥ 100 M events ingested, fused and
        // reported in-memory, with real throughput and working-set
        // numbers — and ingest must have stayed amortized-linear across
        // the sweep (both gates are in-run ratios of the committed file,
        // so they hold on any machine that regenerated it honestly).
        let committed_lane = |scale: f64| {
            c.sweep
                .iter()
                .find(|l| l.scale == scale)
                .unwrap_or_else(|| fail(&format!("committed sweep lacks a scale={scale} lane")))
        };
        let c1 = committed_lane(1.0);
        let c20 = committed_lane(20.0);
        let c100 = committed_lane(100.0);
        if (c100.events as u64) < SWEEP_FULL_FLOOR {
            fail(&format!(
                "committed scale=100 sweep lane has only {:.0} events (< {SWEEP_FULL_FLOOR})",
                c100.events
            ));
        }
        if c100.throughput <= 0.0 || c100.peak_bytes <= 0.0 {
            fail("committed scale=100 sweep lane has zero throughput or peak");
        }
        if c1.ingest_secs <= 0.0 {
            fail("committed scale=1 sweep lane has zero ingest wall");
        }
        let normalized = (c100.ingest_secs / 100.0) / c1.ingest_secs;
        if normalized > SWEEP_NORMALIZED_INGEST_BUDGET {
            fail(&format!(
                "committed scale=100 ingest is not amortized-linear: {:.3}s/scale vs {:.3}s at scale 1 (x{normalized:.2}, budget x{SWEEP_NORMALIZED_INGEST_BUDGET})",
                c100.ingest_secs / 100.0,
                c1.ingest_secs
            ));
        }
        if c20.ingest_secs > SWEEP_SCALE20_BUDGET * 20.0 * c1.ingest_secs {
            fail(&format!(
                "committed scale=20 ingest broke linearity: {:.3}s vs {:.3}s at scale 1 (budget x{SWEEP_SCALE20_BUDGET} of 20x)",
                c20.ingest_secs, c1.ingest_secs
            ));
        }
        // And the fresh run must have completed its own largest sweep
        // lane (scale=5 at smoke — the CI gate — scale=100 on full runs).
        let top = *sweep_scales.last().expect("sweep scales nonempty");
        let Some(lane) = sweep.iter().find(|l| l.scale == top) else {
            fail(&format!("fresh sweep lacks the scale={top} lane"));
        };
        if lane.events < top * unit || lane.peak_bytes == 0 {
            fail(&format!(
                "fresh scale={top} sweep lane is degenerate: {} events, {} peak bytes",
                lane.events, lane.peak_bytes
            ));
        }
        // Fresh smoke runs re-prove near-linear ingest and fusion at CI
        // scale: the scale=5 lane did 5x the scale=1 work through the
        // same interleaved-batch path and the same streaming pass.
        if opts.smoke {
            let lane1 = sweep
                .iter()
                .find(|l| l.scale == 1)
                .unwrap_or_else(|| fail("fresh sweep lacks the scale=1 lane"));
            let lane5 = sweep
                .iter()
                .find(|l| l.scale == 5)
                .unwrap_or_else(|| fail("fresh sweep lacks the scale=5 lane"));
            let r = ratio(lane5.ingest_secs, lane1.ingest_secs);
            if r > SWEEP_SMOKE_INGEST_RATIO {
                fail(&format!(
                    "fresh smoke ingest is superlinear: scale=5 took {:.4}s vs {:.4}s at scale 1 (x{r:.2}, budget x{SWEEP_SMOKE_INGEST_RATIO})",
                    lane5.ingest_secs, lane1.ingest_secs
                ));
            }
            let r = ratio(lane5.fusion_secs, lane1.fusion_secs);
            if r > SWEEP_SMOKE_FUSION_RATIO {
                fail(&format!(
                    "fresh smoke fusion is superlinear: scale=5 took {:.4}s vs {:.4}s at scale 1 (x{r:.2}, budget x{SWEEP_SMOKE_FUSION_RATIO})",
                    lane5.fusion_secs, lane1.fusion_secs
                ));
            }
        }
        println!("  check against {path}: ok");
    }

    if dosscope_obs::enabled() {
        let snapshot = dosscope_obs::Telemetry::capture();
        println!("{}", snapshot.render_ascii());
        std::fs::write("TELEMETRY.json", snapshot.to_json()).expect("write TELEMETRY.json");
        println!("wrote TELEMETRY.json");
    }
}

/// Time the pool-backed telescope engine over pre-built chunks (min of
/// [`PARALLEL_REPS`]), asserting the merged events equal the serial
/// lane's, then decompose the same work into routing + per-shard serial
/// passes for the critical-path ratio.
fn time_telescope_pool(
    telescope: Telescope,
    chunks: &[Arc<Vec<PacketBatch>>],
    threads: usize,
    expect: &[dosscope_types::AttackEvent],
) -> ParallelLane {
    let mut wall = f64::INFINITY;
    let mut peak = 0u64;
    for _ in 0..PARALLEL_REPS {
        let t0 = Instant::now();
        let mut rsdos = ShardedRsdos::with_defaults(telescope, threads);
        for chunk in chunks {
            rsdos.ingest_routed(route_batches(chunk.clone(), threads));
        }
        let (events, _, p) = rsdos.finish();
        wall = wall.min(t0.elapsed().as_secs_f64());
        peak = p;
        assert_eq!(events, expect, "pool telescope lane diverged from serial");
    }

    // Decomposition for the pipelined bound: route (timed), then each
    // shard's sub-stream serially on this thread, contention-free. Each
    // component keeps its minimum over the reps.
    let mut route_secs = f64::INFINITY;
    let mut shard_secs = vec![f64::INFINITY; threads];
    for _ in 0..DECOMP_REPS {
        let t0 = Instant::now();
        let routed: Vec<_> = chunks
            .iter()
            .map(|c| route_batches(c.clone(), threads))
            .collect();
        route_secs = route_secs.min(t0.elapsed().as_secs_f64());
        for (shard, best) in shard_secs.iter_mut().enumerate() {
            let t0 = Instant::now();
            let mut detector = RsdosDetector::with_defaults(telescope);
            let mut interval: Option<u64> = None;
            for r in &routed {
                for b in r.owned(shard) {
                    let iv = b.ts.secs() / INTERVAL_SECS;
                    match interval {
                        None => interval = Some(iv),
                        Some(cur) if iv > cur => {
                            detector.advance(SimTime(iv * INTERVAL_SECS));
                            interval = Some(iv);
                        }
                        _ => {}
                    }
                    detector.ingest(b);
                }
            }
            let _ = detector.finish();
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    ParallelLane {
        wall_secs: wall,
        peak,
        route_secs,
        max_shard_secs: shard_secs.iter().copied().fold(0.0, f64::max),
    }
}

/// Fleet twin of [`time_telescope_pool`].
fn time_fleet_pool(
    chunks: &[Arc<Vec<RequestBatch>>],
    threads: usize,
    expect: &[dosscope_types::AttackEvent],
) -> ParallelLane {
    let mut wall = f64::INFINITY;
    let mut peak = 0u64;
    for _ in 0..PARALLEL_REPS {
        let t0 = Instant::now();
        let mut fleet = ShardedFleet::standard(threads);
        for chunk in chunks {
            fleet.ingest_routed(route_requests(chunk.clone(), threads));
        }
        let (events, _, p) = fleet.finish();
        wall = wall.min(t0.elapsed().as_secs_f64());
        peak = p;
        assert_eq!(events, expect, "pool fleet lane diverged from serial");
    }

    let mut route_secs = f64::INFINITY;
    let mut shard_secs = vec![f64::INFINITY; threads];
    for _ in 0..DECOMP_REPS {
        let t0 = Instant::now();
        let routed: Vec<_> = chunks
            .iter()
            .map(|c| route_requests(c.clone(), threads))
            .collect();
        route_secs = route_secs.min(t0.elapsed().as_secs_f64());
        for (shard, best) in shard_secs.iter_mut().enumerate() {
            let t0 = Instant::now();
            let mut fleet = AmpPotFleet::standard();
            for r in &routed {
                for b in r.owned(shard) {
                    fleet.ingest(b);
                }
            }
            let _ = fleet.finish();
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    ParallelLane {
        wall_secs: wall,
        peak,
        route_secs,
        max_shard_secs: shard_secs.iter().copied().fold(0.0, f64::max),
    }
}

/// Run two implementations of the same stage `reps` times each, with the
/// reps interleaved A, B, A, B, … so ambient machine noise (scheduler,
/// frequency scaling, co-tenants) lands on both alike rather than on
/// whichever lane happened to run during the bad stretch. Returns each
/// side's (first) result with its minimum wall time.
fn time_pair<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((A, f64), (B, f64)) {
    let (mut out_a, mut best_a) = (None, f64::INFINITY);
    let (mut out_b, mut best_b) = (None, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = a();
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        out_a.get_or_insert(r);
        let t0 = Instant::now();
        let r = b();
        best_b = best_b.min(t0.elapsed().as_secs_f64());
        out_b.get_or_insert(r);
    }
    (
        (out_a.expect("at least one rep"), best_a),
        (out_b.expect("at least one rep"), best_b),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("pipeline bench check FAILED: {msg}");
    std::process::exit(1);
}

/// What the checker needs from a committed `BENCH_pipeline.json`.
struct Committed {
    speedup_tele: f64,
    speedup_fleet: f64,
    speedup_measurement: f64,
    par_tele8: f64,
    par_fleet8: f64,
    /// Committed run parameters, for the wall-comparable gates.
    scale: f64,
    days: f64,
    /// Committed serial measurement walls (threads=1 telescope / fleet).
    tele1_wall: f64,
    fleet1_wall: f64,
    /// Every committed sweep lane, for the scaling gates.
    sweep: Vec<CommittedSweepLane>,
}

/// One sweep lane as read back from the committed file.
struct CommittedSweepLane {
    scale: f64,
    events: f64,
    ingest_secs: f64,
    throughput: f64,
    peak_bytes: f64,
}

/// Minimal structural validation + value extraction for the writer's own
/// one-stage-per-line format. Not a general JSON parser on purpose: the
/// file is produced by this binary, and a format drift should fail loudly.
/// v5 extended the sweep to scale 100 with interleaved-batch ingest and
/// honest streaming-fusion walls, and the checker gates ingest linearity
/// on the committed lanes — so older trajectories must be regenerated
/// rather than silently accepted.
fn parse_committed(text: &str) -> Result<Committed, String> {
    if !text.contains("\"schema\": \"dosscope-bench-pipeline-v5\"") {
        return Err(
            "missing or unknown schema marker (expected dosscope-bench-pipeline-v5; regenerate with a full run)"
                .to_string(),
        );
    }
    // Every (stage, threads) pair must be present with a finite wall time.
    // The committed file is always a full (non-smoke) run over all of
    // THREADS, whatever subset the current run timed.
    let mut required: Vec<(String, usize)> = vec![
        ("world".to_string(), 1),
        ("render".to_string(), 1),
        ("telescope_baseline".to_string(), 1),
        ("fleet_baseline".to_string(), 1),
    ];
    for t in THREADS {
        for name in ["telescope", "fleet", "fusion", "report"] {
            required.push((name.to_string(), t));
        }
    }
    let mut threaded_peaks_ok = true;
    let mut tele1_wall = 0.0;
    let mut fleet1_wall = 0.0;
    for line in text.lines() {
        let Some(name) = extract_str(line, "name") else {
            continue;
        };
        let threads = extract_num(line, "threads")
            .ok_or_else(|| format!("stage {name} has no threads field"))?
            as usize;
        let wall = extract_num(line, "wall_secs")
            .ok_or_else(|| format!("stage {name} has no wall_secs field"))?;
        if !wall.is_finite() || wall < 0.0 {
            return Err(format!("stage {name} has invalid wall_secs {wall}"));
        }
        if threads == 1 {
            match name {
                "telescope" => tele1_wall = wall,
                "fleet" => fleet1_wall = wall,
                _ => {}
            }
        }
        // The pool lanes sample their working set; a zero peak means the
        // accounting broke.
        if threads > 1 && (name == "telescope" || name == "fleet") {
            let peak = extract_num(line, "peak")
                .ok_or_else(|| format!("stage {name} has no peak field"))?;
            threaded_peaks_ok &= peak > 0.0;
        }
        required.retain(|(n, t)| !(*n == name && *t == threads));
    }
    if !required.is_empty() {
        return Err(format!("missing stages: {required:?}"));
    }
    if !threaded_peaks_ok {
        return Err("a threaded measurement stage reports peak 0".to_string());
    }
    let speedup_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"speedup\""))
        .ok_or("missing speedup record")?;
    let get = |key: &str| {
        extract_num(speedup_line, key).ok_or_else(|| format!("speedup record lacks {key}"))
    };
    let par_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"parallel_speedup\""))
        .ok_or("missing parallel_speedup record")?;
    let get_par = |key: &str| {
        extract_num(par_line, key)
            .ok_or_else(|| format!("parallel_speedup record lacks {key}"))
    };
    let header = |key: &str| {
        text.lines()
            .find_map(|l| {
                l.trim_start()
                    .starts_with(&format!("\"{key}\""))
                    .then(|| extract_num(l, key))
                    .flatten()
            })
            .ok_or_else(|| format!("missing {key} field"))
    };
    // Sweep lanes are one object per line.
    let sweep = text
        .lines()
        .filter(|l| l.contains("\"peak_bytes\""))
        .map(|l| {
            Ok::<_, String>(CommittedSweepLane {
                scale: extract_num(l, "scale").ok_or("sweep lane lacks scale")?,
                events: extract_num(l, "events").ok_or("sweep lane lacks events")?,
                ingest_secs: extract_num(l, "ingest_secs")
                    .ok_or("sweep lane lacks ingest_secs")?,
                throughput: extract_num(l, "fusion_report_events_per_sec")
                    .ok_or("sweep lane lacks throughput")?,
                peak_bytes: extract_num(l, "peak_bytes").ok_or("sweep lane lacks peak_bytes")?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Committed {
        speedup_tele: get("telescope")?,
        speedup_fleet: get("fleet")?,
        speedup_measurement: get("measurement")?,
        par_tele8: get_par("telescope_8")?,
        par_fleet8: get_par("fleet_8")?,
        scale: header("scale")?,
        days: header("days")?,
        tele1_wall,
        fleet1_wall,
        sweep,
    })
}

/// Extract `"key": "value"` from a single line.
fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extract `"key": <number>` from a single line.
fn extract_num(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
