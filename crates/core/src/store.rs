//! Event ingestion and the per-source aggregates of Table 1, on a
//! columnar struct-of-arrays store with LSM-style sorted-run ingest.
//!
//! # Layout
//!
//! Events are *stored* as parallel column vectors. Each source owns a
//! consolidated `main` block sorted by `(start, target)` plus a stack of
//! pending *sorted runs* — batches that arrived out of order and have
//! not been merged yet:
//!
//! ```text
//!                    shared Interner<Ipv4Addr> (victim ⇄ u32 id)
//!                                   ▲        ▲
//!            telescope source       │        │        honeypot source
//!   main ──▶ victim  : Vec<u32> ────┘        └──── main: (same columns)
//!            start   : Vec<u64>                    runs: [sorted batch,
//!            end     : Vec<u64>                           sorted batch,
//!            kind    : Vec<u8>                            ...]
//!            aux     : Vec<u32>
//!            packets : Vec<u64>      each run is one ColumnBlock with
//!            bytes   : Vec<u64>      the same nine columns, sorted by
//!            intensity:Vec<f64>      (start, target) within itself
//!            sources : Vec<u32>
//!            + RunIndex (kind → ascending row ids) over `main` only
//! ```
//!
//! # Sorted-run ingest
//!
//! The old store merged *every* out-of-order batch into the full block —
//! an O(total) column rewrite per batch that made ingest quadratic at
//! tens of millions of rows. Ingest now costs O(batch log batch):
//!
//! * a batch is key-sorted (16-byte `(start, target, seq)` keys, so the
//!   unstable sort is order-identical to the old stable sort and never
//!   shuffles wide rows) and appended as a new run;
//! * in-order batches — detector output, the common case — append
//!   straight onto `main` (or the newest run) with zero extra cost;
//! * a binary-counter policy merges the two newest runs while the older
//!   one is no larger, so total merge traffic is O(n log n) and the run
//!   count stays logarithmic in the batch count;
//! * reads *consolidate lazily*: the first query (or an ingest that
//!   drives the run count past [`EventStore::set_run_threshold`])
//!   k-way-merges `main` and all runs through a [`LoserTree`] and
//!   rebuilds the kind index. Large consolidations split on start-time pivots across a
//!   transient [`ShardPool`] when
//!   [`EventStore::set_consolidation_threads`] allows; the output is
//!   byte-identical for every thread count because the ranges cut the
//!   unique stable-merge sequence at lower-bound boundaries.
//!
//! Every observable order is *still* exactly the old store's
//! `extend + stable sort_by_key(start, target)`: runs are merged
//! oldest-first and the loser tree breaks key ties toward the older
//! source, so existing rows win ties bit-for-bit.
//!
//! The [`AttackVector`] sum type is flattened into a `(kind, aux)` pair
//! (see `encode_vector`): a one-byte predicate key that the per-source
//! [`RunIndex`] turns into posting lists over `main`. Victims are
//! interned to dense `u32` ids in a table *shared by both sources* —
//! ids are assigned in per-batch sorted order at ingest (runs carry
//! final ids, so consolidation never re-interns) — and the Table 1
//! aggregates are [`BitSet`]s over those ids, maintained at ingest.
//!
//! # Boundaries
//!
//! The public API still speaks [`AttackEvent`]: ingest takes the same
//! event vectors, and queries hand back [`EventsView`]s that decode rows
//! on the fly. Because consolidation happens on first read, the column
//! state sits behind a [`RwLock`]; views hold a read guard for their
//! lifetime (ingest takes `&mut self`, so a live view implies the store
//! is already consolidated and quiescent).

use dosscope_types::{
    AttackEvent, AttackVector, BitSet, EventSource, FastSet, Interner, LoserTree, PortSignature,
    Prefix16, Prefix24, ReflectionProtocol, RunIndex, ShardPool, SimTime, TimeRange,
    TransportProto,
};
use parking_lot::{RwLock, RwLockReadGuard};
use std::borrow::Borrow;
use std::net::Ipv4Addr;
use std::ops::Deref;

/// Number of distinct `(vector kind)` codes: 4 transports × 3 port-signature
/// classes for telescope floods, plus 8 reflection protocols.
pub(crate) const KINDS: usize = 12 + ReflectionProtocol::ALL.len();

/// First kind code used by reflection vectors.
pub(crate) const KIND_REFLECTION: u8 = 12;

/// Default pending-run ceiling before an ingest forces consolidation.
/// The binary-counter merge keeps the live run count logarithmic in the
/// batch count, so this is a backstop for adversarial batch patterns,
/// not the steady-state trigger (reads consolidate whatever is pending).
const DEFAULT_RUN_THRESHOLD: usize = 16;

/// Owned inputs shipped to the parallel-consolidation pool: the blocks
/// to merge, their resolved merge-key addresses, and the per-slab
/// `(lo, hi)` ranges of every block.
type MergeJob = (Vec<ColumnBlock>, Vec<Vec<u32>>, Vec<Vec<(usize, usize)>>);

/// Consolidations below this row count always run serially — the
/// pivot-split fan-out costs a pool spin-up and a partial-block concat,
/// which only pays for itself on large merges.
const PARALLEL_CONSOLIDATE_FLOOR: usize = 1 << 16;

/// Flatten an [`AttackVector`] into its `(kind, aux)` column encoding.
///
/// Telescope floods: `kind = proto * 3 + class` with class 0 = single
/// port (`aux` = the port), 1 = multi port (`aux` = distinct-port
/// count), 2 = no signature (`aux` = 0). Reflection events:
/// `kind = 12 + protocol`, `aux = 0`.
pub(crate) fn encode_vector(vector: AttackVector) -> (u8, u32) {
    match vector {
        AttackVector::RandomlySpoofed { proto, ports } => {
            let (class, aux) = match ports {
                PortSignature::Single(port) => (0, port as u32),
                PortSignature::Multi(n) => (1, n),
                PortSignature::None => (2, 0),
            };
            ((proto.index() * 3) as u8 + class, aux)
        }
        AttackVector::Reflection { protocol } => (KIND_REFLECTION + protocol as u8, 0),
    }
}

/// Invert [`encode_vector`].
pub(crate) fn decode_vector(kind: u8, aux: u32) -> AttackVector {
    if kind >= KIND_REFLECTION {
        AttackVector::Reflection {
            protocol: ReflectionProtocol::ALL[(kind - KIND_REFLECTION) as usize],
        }
    } else {
        AttackVector::RandomlySpoofed {
            proto: TransportProto::ALL[(kind / 3) as usize],
            ports: match kind % 3 {
                0 => PortSignature::Single(aux as u16),
                1 => PortSignature::Multi(aux),
                _ => PortSignature::None,
            },
        }
    }
}

/// Parallel column vectors holding rows sorted by `(start, victim)` —
/// either a source's consolidated block or one pending sorted run.
#[derive(Debug, Default, Clone)]
pub(crate) struct ColumnBlock {
    /// Interned victim id per row (resolve via the store's interner).
    pub(crate) victim: Vec<u32>,
    /// Event start, raw [`SimTime`] seconds.
    pub(crate) start: Vec<u64>,
    /// Event end, raw [`SimTime`] seconds.
    pub(crate) end: Vec<u64>,
    /// Flattened vector tag (see [`encode_vector`]).
    pub(crate) kind: Vec<u8>,
    /// Vector payload: single port or distinct-port count.
    pub(crate) aux: Vec<u32>,
    /// Observed packet total.
    pub(crate) packets: Vec<u64>,
    /// Observed byte total.
    pub(crate) bytes: Vec<u64>,
    /// Source-native intensity.
    pub(crate) intensity: Vec<f64>,
    /// Distinct (spoofed) source count.
    pub(crate) sources: Vec<u32>,
}

impl ColumnBlock {
    pub(crate) fn len(&self) -> usize {
        self.victim.len()
    }

    fn is_empty(&self) -> bool {
        self.victim.is_empty()
    }

    /// Decode row `i` back into the boundary [`AttackEvent`] type.
    pub(crate) fn event(&self, i: usize, victims: &Interner<Ipv4Addr>) -> AttackEvent {
        AttackEvent {
            target: victims.resolve(self.victim[i]),
            when: TimeRange::new(SimTime(self.start[i]), SimTime(self.end[i])),
            vector: decode_vector(self.kind[i], self.aux[i]),
            packets: self.packets[i],
            bytes: self.bytes[i],
            intensity_pps: self.intensity[i],
            distinct_sources: self.sources[i],
        }
    }

    /// Encode `e` onto the end of the block.
    fn push_event(&mut self, e: &AttackEvent, victim_id: u32) {
        let (kind, aux) = encode_vector(e.vector);
        self.victim.push(victim_id);
        self.start.push(e.when.start.0);
        self.end.push(e.when.end.0);
        self.kind.push(kind);
        self.aux.push(aux);
        self.packets.push(e.packets);
        self.bytes.push(e.bytes);
        self.intensity.push(e.intensity_pps);
        self.sources.push(e.distinct_sources);
    }

    /// Copy row `i` of `other` onto the end of `self`.
    pub(crate) fn push_from(&mut self, other: &ColumnBlock, i: usize, victim_id: u32) {
        self.victim.push(victim_id);
        self.start.push(other.start[i]);
        self.end.push(other.end[i]);
        self.kind.push(other.kind[i]);
        self.aux.push(other.aux[i]);
        self.packets.push(other.packets[i]);
        self.bytes.push(other.bytes[i]);
        self.intensity.push(other.intensity[i]);
        self.sources.push(other.sources[i]);
    }

    /// Append every row of `other` (already in order) onto `self`.
    fn append_block(&mut self, other: &ColumnBlock) {
        self.victim.extend_from_slice(&other.victim);
        self.start.extend_from_slice(&other.start);
        self.end.extend_from_slice(&other.end);
        self.kind.extend_from_slice(&other.kind);
        self.aux.extend_from_slice(&other.aux);
        self.packets.extend_from_slice(&other.packets);
        self.bytes.extend_from_slice(&other.bytes);
        self.intensity.extend_from_slice(&other.intensity);
        self.sources.extend_from_slice(&other.sources);
    }

    fn reserve(&mut self, additional: usize) {
        self.victim.reserve(additional);
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.kind.reserve(additional);
        self.aux.reserve(additional);
        self.packets.reserve(additional);
        self.bytes.reserve(additional);
        self.intensity.reserve(additional);
        self.sources.reserve(additional);
    }

    fn memory_bytes(&self) -> usize {
        self.victim.capacity() * 4
            + self.start.capacity() * 8
            + self.end.capacity() * 8
            + self.kind.capacity()
            + self.aux.capacity() * 4
            + self.packets.capacity() * 8
            + self.bytes.capacity() * 8
            + self.intensity.capacity() * 8
            + self.sources.capacity() * 4
    }
}

/// The sort/merge key of the last row of `block`, or `None` when empty.
fn last_key(block: &ColumnBlock, victims: &Interner<Ipv4Addr>) -> Option<(u64, u32)> {
    let n = block.len();
    (n > 0).then(|| (block.start[n - 1], u32::from(victims.resolve(block.victim[n - 1]))))
}

/// Per-source incremental aggregates, maintained at ingest so every
/// Table 1 query is O(1) and never re-scans the columns.
#[derive(Debug, Default, Clone)]
struct SourceStats {
    /// Distinct victims as bits over shared interned ids.
    victims: BitSet,
    /// Distinct /24 blocks as bits over the raw 24-bit prefix space.
    blocks24: BitSet,
    /// Distinct /16 blocks as bits over the raw 16-bit prefix space.
    blocks16: BitSet,
}

impl SourceStats {
    fn admit(&mut self, addr: u32, victim_id: u32) {
        self.victims.insert(victim_id);
        self.blocks24.insert(addr >> 8);
        self.blocks16.insert(addr >> 16);
    }
}

/// Aggregate counts for one source (a row of Table 1). ASN counting needs
/// the enrichment metadata and lives in [`crate::report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceSummary {
    /// Attack events.
    pub events: u64,
    /// Unique target IP addresses.
    pub targets: u64,
    /// Unique /24 blocks with at least one target.
    pub blocks24: u64,
    /// Unique /16 blocks with at least one target.
    pub blocks16: u64,
}

/// One source's column state: the consolidated block, the pending sorted
/// runs (oldest first), and the kind index over the consolidated block.
#[derive(Debug, Default)]
struct SourceCols {
    main: ColumnBlock,
    runs: Vec<ColumnBlock>,
    index: RunIndex,
}

impl SourceCols {
    /// Total rows including pending runs.
    fn len(&self) -> usize {
        self.main.len() + self.runs.iter().map(ColumnBlock::len).sum::<usize>()
    }

    fn memory_bytes(&self) -> usize {
        self.main.memory_bytes()
            + self.runs.iter().map(ColumnBlock::memory_bytes).sum::<usize>()
            + self.index.memory_bytes()
    }
}

/// The ingested event sets as a columnar, time-sorted store (see the
/// module docs for the sorted-run layout and consolidation lifecycle).
#[derive(Debug)]
pub struct EventStore {
    victims: Interner<Ipv4Addr>,
    tele: RwLock<SourceCols>,
    hp: RwLock<SourceCols>,
    tele_stats: SourceStats,
    hp_stats: SourceStats,
    run_threshold: usize,
    consolidate_threads: usize,
}

impl Default for EventStore {
    fn default() -> EventStore {
        EventStore::new()
    }
}

impl EventStore {
    /// Empty store.
    pub fn new() -> EventStore {
        // Register the store's run-lifecycle instruments up front so a
        // run that never consolidates still exports them (as zeros).
        dosscope_obs::counter!("store.rows");
        dosscope_obs::counter!("store.consolidations");
        dosscope_obs::counter!("store.consolidation_rows");
        EventStore {
            victims: Interner::new(),
            tele: RwLock::new(SourceCols {
                index: RunIndex::new(KINDS),
                ..SourceCols::default()
            }),
            hp: RwLock::new(SourceCols {
                index: RunIndex::new(KINDS),
                ..SourceCols::default()
            }),
            tele_stats: SourceStats::default(),
            hp_stats: SourceStats::default(),
            run_threshold: DEFAULT_RUN_THRESHOLD,
            consolidate_threads: 1,
        }
    }

    /// Cap the pending-run count: an ingest that leaves more than
    /// `threshold` runs consolidates immediately instead of lazily
    /// (0/1 both mean "consolidate after every out-of-order batch").
    pub fn set_run_threshold(&mut self, threshold: usize) {
        self.run_threshold = threshold.max(1);
    }

    /// Let consolidations of at least ~64 k rows fan out over `threads`
    /// pivot-split range merges (1 = always serial, the default). The
    /// merged bytes are identical for every thread count.
    pub fn set_consolidation_threads(&mut self, threads: usize) {
        self.consolidate_threads = threads.max(1);
    }

    /// Number of pending (unconsolidated) sorted runs across sources.
    pub fn pending_runs(&self) -> usize {
        self.tele.read().runs.len() + self.hp.read().runs.len()
    }

    /// Ingest the telescope detector's events (any order; run-appended).
    pub fn ingest_telescope(&mut self, events: Vec<AttackEvent>) {
        debug_assert!(events.iter().all(|e| e.source() == EventSource::Telescope));
        self.ingest_batch(EventSource::Telescope, &events);
    }

    /// Ingest the honeypot fleet's events (any order; run-appended).
    pub fn ingest_honeypot(&mut self, events: Vec<AttackEvent>) {
        debug_assert!(events.iter().all(|e| e.source() == EventSource::Honeypot));
        self.ingest_batch(EventSource::Honeypot, &events);
    }

    fn ingest_batch(&mut self, source: EventSource, events: &[AttackEvent]) {
        if events.is_empty() {
            return;
        }
        let n = events.len();
        dosscope_obs::counter!("store.rows").add(n as u64);

        // Sort compact 16-byte (start, target, seq) keys instead of wide
        // rows: seq makes the unstable sort order-identical to the old
        // stable sort on (start, target), and the key vector is the only
        // fresh allocation the sort touches at 100M-row scale.
        let mut keys: Vec<(u64, u32, u32)> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.when.start.0, u32::from(e.target), i as u32))
            .collect();
        if !keys.is_sorted() {
            keys.sort_unstable();
        }
        let first = (keys[0].0, keys[0].1);

        let (cols, stats) = match source {
            EventSource::Telescope => (self.tele.get_mut(), &mut self.tele_stats),
            EventSource::Honeypot => (self.hp.get_mut(), &mut self.hp_stats),
        };

        // Fast path: a batch that starts at or after the newest stored
        // key appends in place — onto `main` while no runs are pending
        // (today's common case: detector output arrives in time order),
        // or onto the newest run. `<=` keeps the stable tie order:
        // already-stored rows sort first on equal keys either way.
        if cols.runs.is_empty() && last_key(&cols.main, &self.victims).is_none_or(|k| k <= first)
        {
            cols.main.reserve(n);
            for &(_, addr, i) in &keys {
                let id = self.victims.intern(Ipv4Addr::from(addr));
                stats.admit(addr, id);
                let row = cols.main.len() as u32;
                cols.main.push_event(&events[i as usize], id);
                cols.index.push(cols.main.kind[row as usize], row);
            }
        } else {
            let onto_newest = cols
                .runs
                .last()
                .is_some_and(|r| last_key(r, &self.victims).is_none_or(|k| k <= first));
            if !onto_newest {
                cols.runs.push(ColumnBlock::default());
            }
            let run = cols.runs.last_mut().expect("a run was just ensured");
            run.reserve(n);
            for &(_, addr, i) in &keys {
                let id = self.victims.intern(Ipv4Addr::from(addr));
                stats.admit(addr, id);
                run.push_event(&events[i as usize], id);
            }
            // Binary-counter run maintenance: merge the two newest runs
            // while the older is no larger. Every row is merged at most
            // log2(batches) times, so total ingest traffic is
            // O(n log n) even for single-event batches, and the live
            // run count stays logarithmic.
            while cols.runs.len() >= 2
                && cols.runs[cols.runs.len() - 2].len() <= cols.runs[cols.runs.len() - 1].len()
            {
                let newer = cols.runs.pop().expect("len checked");
                let older = cols.runs.pop().expect("len checked");
                let parts = [&older, &newer];
                cols.runs.push(Self::merge_blocks(&parts, &self.victims, 1));
            }
            if cols.runs.len() >= self.run_threshold {
                Self::consolidate_cols(cols, &self.victims, self.consolidate_threads);
            }
        }

        dosscope_obs::gauge!("store.victims").set(self.victims.len() as u64);
        let pending = self.tele.get_mut().runs.len() + self.hp.get_mut().runs.len();
        dosscope_obs::gauge!("store.runs").set(pending as u64);
    }

    /// Consolidate any pending runs of `lock` into its `main` block.
    ///
    /// Reads call this before taking a view. Re-entrancy is safe by
    /// construction: a held view guard implies this already ran (views
    /// are only handed out consolidated) and ingest requires `&mut
    /// self`, so the read-check below can never race a run append.
    fn ensure(&self, lock: &RwLock<SourceCols>) {
        if lock.read().runs.is_empty() {
            return;
        }
        let mut cols = lock.write();
        // Re-check under the write lock: another reader may have
        // consolidated between our read probe and the write acquire.
        Self::consolidate_cols(&mut cols, &self.victims, self.consolidate_threads);
    }

    /// Force both sources' pending runs into their consolidated blocks
    /// (reads do this lazily; the bench calls it to time ingest
    /// end-to-end).
    pub fn consolidate(&self) {
        self.ensure(&self.tele);
        self.ensure(&self.hp);
    }

    fn consolidate_cols(cols: &mut SourceCols, victims: &Interner<Ipv4Addr>, threads: usize) {
        if cols.runs.is_empty() {
            return;
        }
        let total = cols.len();
        dosscope_obs::counter!("store.consolidations").inc();
        dosscope_obs::counter!("store.consolidation_rows").add(total as u64);
        if cols.main.is_empty() && cols.runs.len() == 1 {
            // Single-run adoption: the run becomes `main` by move — the
            // single-out-of-order-batch case costs no row copies.
            cols.main = cols.runs.pop().expect("len checked");
        } else {
            let parts: Vec<&ColumnBlock> = std::iter::once(&cols.main)
                .filter(|b| !b.is_empty())
                .chain(cols.runs.iter())
                .collect();
            cols.main = Self::merge_blocks(&parts, victims, threads);
            cols.runs.clear();
        }
        // The kind index only covers consolidated rows; rebuild it over
        // the merged block.
        cols.index.clear();
        for (row, &kind) in cols.main.kind.iter().enumerate() {
            cols.index.push(kind, row as u32);
        }
    }

    /// k-way merge sorted blocks (oldest first — ties resolve toward the
    /// lower part index, i.e. earlier-ingested rows) into one block.
    /// Victim ids are already final, so rows copy without re-interning.
    fn merge_blocks(
        parts: &[&ColumnBlock],
        victims: &Interner<Ipv4Addr>,
        threads: usize,
    ) -> ColumnBlock {
        // Resolve each part's merge keys once: workers (and the hot
        // serial loop) compare plain (u64, u32) pairs, never the
        // interner.
        let addrs: Vec<Vec<u32>> = parts
            .iter()
            .map(|b| {
                b.victim
                    .iter()
                    .map(|&id| u32::from(victims.resolve(id)))
                    .collect()
            })
            .collect();
        let total: usize = parts.iter().map(|b| b.len()).sum();
        if threads > 1 && total >= PARALLEL_CONSOLIDATE_FLOOR {
            Self::merge_blocks_parallel(parts, &addrs, threads)
        } else {
            let ranges: Vec<(usize, usize)> = parts.iter().map(|b| (0, b.len())).collect();
            Self::merge_range(parts, &addrs, &ranges, total)
        }
    }

    /// Merge one aligned key range of every part via the loser tree.
    fn merge_range(
        parts: &[&ColumnBlock],
        addrs: &[Vec<u32>],
        ranges: &[(usize, usize)],
        total: usize,
    ) -> ColumnBlock {
        let mut out = ColumnBlock::default();
        out.reserve(total);
        let mut cursors: Vec<usize> = ranges.iter().map(|&(lo, _)| lo).collect();
        let heads: Vec<Option<(u64, u32)>> = parts
            .iter()
            .zip(ranges)
            .enumerate()
            .map(|(k, (b, &(lo, hi)))| (lo < hi).then(|| (b.start[lo], addrs[k][lo])))
            .collect();
        let mut tree = LoserTree::new(heads);
        while let Some(k) = tree.winner() {
            let i = cursors[k];
            out.push_from(parts[k], i, parts[k].victim[i]);
            cursors[k] += 1;
            let next = (cursors[k] < ranges[k].1)
                .then(|| (parts[k].start[cursors[k]], addrs[k][cursors[k]]));
            tree.replace(k, next);
        }
        out
    }

    /// Pivot-split parallel consolidation: cut the key space at sampled
    /// start-time pivots, merge each slab on a transient [`ShardPool`]
    /// worker, concatenate in pivot order. Every cut is a lower bound
    /// (`key < pivot` goes left), so equal keys stay in one slab and the
    /// concatenation reproduces the serial stable merge byte-for-byte
    /// regardless of thread count.
    fn merge_blocks_parallel(
        parts: &[&ColumnBlock],
        addrs: &[Vec<u32>],
        threads: usize,
    ) -> ColumnBlock {
        let total: usize = parts.iter().map(|b| b.len()).sum();
        let slabs = threads.min(total.max(1));
        // Sample pivots from the largest part — the best single proxy
        // for the merged key distribution.
        let largest = (0..parts.len())
            .max_by_key(|&k| parts[k].len())
            .expect("parts is non-empty");
        let pivots: Vec<(u64, u32)> = (1..slabs)
            .map(|j| {
                let i = j * parts[largest].len() / slabs;
                (parts[largest].start[i], addrs[largest][i])
            })
            .collect();
        // Per part: slab boundaries via lower-bound partition points.
        let ranges: Vec<Vec<(usize, usize)>> = (0..slabs)
            .map(|s| {
                parts
                    .iter()
                    .enumerate()
                    .map(|(k, b)| {
                        let lo = match s {
                            0 => 0,
                            _ => lower_bound(b, &addrs[k], pivots[s - 1]),
                        };
                        let hi = match pivots.get(s) {
                            Some(&p) => lower_bound(b, &addrs[k], p),
                            None => b.len(),
                        };
                        (lo, hi)
                    })
                    .collect()
            })
            .collect();
        // Ship owned copies of the inputs to the 'static pool workers.
        // (Clones are column memcpys; the alternative — scoped borrows —
        // is not something the long-lived ShardPool can express.)
        let owned: Vec<ColumnBlock> = parts.iter().map(|&b| b.clone()).collect();
        let job: MergeJob = (owned, addrs.to_vec(), ranges);
        let mut pool: ShardPool<MergeJob, ColumnBlock, ColumnBlock> = ShardPool::new(
            "consolidate",
            slabs,
            slabs,
            1,
            |_| ColumnBlock::default(),
            |out, slab, _slabs, job: &MergeJob| {
                let (parts, addrs, ranges) = job;
                let refs: Vec<&ColumnBlock> = parts.iter().collect();
                let span: usize = ranges[slab].iter().map(|&(lo, hi)| hi - lo).sum();
                *out = EventStore::merge_range(&refs, addrs, &ranges[slab], span);
            },
            |out| out,
        );
        pool.dispatch(job).expect("fresh pool accepts work");
        let partials = pool.shutdown().expect("fresh pool shuts down once");
        let mut merged = ColumnBlock::default();
        merged.reserve(total);
        for part in &partials {
            merged.append_block(part);
        }
        merged
    }

    /// Telescope events, sorted by start (consolidates pending runs).
    pub fn telescope(&self) -> EventsView<'_> {
        self.view_of(&self.tele)
    }

    /// Honeypot events, sorted by start (consolidates pending runs).
    pub fn honeypot(&self) -> EventsView<'_> {
        self.view_of(&self.hp)
    }

    fn view_of<'a>(&'a self, lock: &'a RwLock<SourceCols>) -> EventsView<'a> {
        self.ensure(lock);
        EventsView {
            lock,
            cols: lock.read(),
            victims: &self.victims,
        }
    }

    /// Both sources chained (telescope first; not globally sorted).
    pub fn all(&self) -> impl Iterator<Item = AttackEvent> + '_ {
        self.telescope().into_iter().chain(self.honeypot())
    }

    /// Events of one source.
    pub fn of(&self, source: EventSource) -> EventsView<'_> {
        match source {
            EventSource::Telescope => self.telescope(),
            EventSource::Honeypot => self.honeypot(),
        }
    }

    /// Total event count (pending runs included).
    pub fn len(&self) -> usize {
        self.tele.read().len() + self.hp.read().len()
    }

    /// True when nothing was ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-source aggregates over an arbitrary event set. Works for both
    /// borrowed and owned event iterators.
    pub fn summarize<E: Borrow<AttackEvent>>(events: impl Iterator<Item = E>) -> SourceSummary {
        let mut targets: FastSet<Ipv4Addr> = FastSet::default();
        let mut blocks24: FastSet<Prefix24> = FastSet::default();
        let mut blocks16: FastSet<Prefix16> = FastSet::default();
        let mut n = 0u64;
        for e in events {
            let e = e.borrow();
            n += 1;
            targets.insert(e.target);
            blocks24.insert(Prefix24::of(e.target));
            blocks16.insert(Prefix16::of(e.target));
        }
        SourceSummary {
            events: n,
            targets: targets.len() as u64,
            blocks24: blocks24.len() as u64,
            blocks16: blocks16.len() as u64,
        }
    }

    /// The Table 1 aggregate for one source — O(1), maintained at
    /// ingest, and valid whether or not runs are consolidated.
    pub fn summary(&self, source: EventSource) -> SourceSummary {
        let (lock, stats) = match source {
            EventSource::Telescope => (&self.tele, &self.tele_stats),
            EventSource::Honeypot => (&self.hp, &self.hp_stats),
        };
        SourceSummary {
            events: lock.read().len() as u64,
            targets: stats.victims.len() as u64,
            blocks24: stats.blocks24.len() as u64,
            blocks16: stats.blocks16.len() as u64,
        }
    }

    /// The Table 1 aggregate for the combined data: union popcounts over
    /// the per-source bitsets — no re-scan of either column block.
    pub fn summary_combined(&self) -> SourceSummary {
        SourceSummary {
            events: self.len() as u64,
            targets: self.tele_stats.victims.union_count(&self.hp_stats.victims) as u64,
            blocks24: self.tele_stats.blocks24.union_count(&self.hp_stats.blocks24) as u64,
            blocks16: self.tele_stats.blocks16.union_count(&self.hp_stats.blocks16) as u64,
        }
    }

    /// Unique targets common to both sources (the paper's 282 k): an
    /// AND-popcount over the shared-interner victim bitsets.
    pub fn common_targets(&self) -> u64 {
        self.tele_stats
            .victims
            .intersection_count(&self.hp_stats.victims) as u64
    }

    /// Every distinct victim of one source, in interning (first-seen)
    /// order — the columnar feed for per-target enrichment counts.
    pub fn distinct_targets(&self, source: EventSource) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let stats = match source {
            EventSource::Telescope => &self.tele_stats,
            EventSource::Honeypot => &self.hp_stats,
        };
        stats.victims.iter().map(|id| self.victims.resolve(id))
    }

    /// Every distinct victim across both sources.
    pub fn distinct_targets_combined(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let mut union = self.tele_stats.victims.clone();
        union.union_with(&self.hp_stats.victims);
        union
            .iter()
            .map(|id| self.victims.resolve(id))
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// The full attack history of one victim, both sources merged by
    /// start time (telescope first on ties), decoded to events.
    pub fn history(&self, target: Ipv4Addr) -> Vec<AttackEvent> {
        let Some(id) = self.victims.get(target) else {
            return Vec::new();
        };
        let tele = self.block(EventSource::Telescope);
        let hp = self.block(EventSource::Honeypot);
        let collect = |block: &ColumnBlock| -> Vec<usize> {
            (0..block.len()).filter(|&i| block.victim[i] == id).collect()
        };
        let t_rows = collect(&tele);
        let h_rows = collect(&hp);
        let mut out = Vec::with_capacity(t_rows.len() + h_rows.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < t_rows.len() || j < h_rows.len() {
            let take_tele = j >= h_rows.len()
                || (i < t_rows.len() && tele.start[t_rows[i]] <= hp.start[h_rows[j]]);
            if take_tele {
                out.push(tele.event(t_rows[i], &self.victims));
                i += 1;
            } else {
                out.push(hp.event(h_rows[j], &self.victims));
                j += 1;
            }
        }
        out
    }

    /// Approximate heap footprint of the store in bytes: column vectors
    /// (consolidated and pending runs), interner, indexes and aggregate
    /// bitsets. This is the "peak working set" the scale sweep records.
    pub fn memory_bytes(&self) -> usize {
        self.tele.read().memory_bytes()
            + self.hp.read().memory_bytes()
            + self.victims.memory_bytes()
            + self.tele_stats.victims.memory_bytes()
            + self.tele_stats.blocks24.memory_bytes()
            + self.tele_stats.blocks16.memory_bytes()
            + self.hp_stats.victims.memory_bytes()
            + self.hp_stats.blocks24.memory_bytes()
            + self.hp_stats.blocks16.memory_bytes()
    }

    /// The consolidated column block of one source (crate-internal scan
    /// surface; consolidates pending runs first).
    pub(crate) fn block(&self, source: EventSource) -> BlockRef<'_> {
        let lock = match source {
            EventSource::Telescope => &self.tele,
            EventSource::Honeypot => &self.hp,
        };
        self.ensure(lock);
        BlockRef(lock.read())
    }

    /// The kind-predicate index of one source (consolidates first — the
    /// index only covers consolidated rows).
    pub(crate) fn kind_index(&self, source: EventSource) -> IndexRef<'_> {
        let lock = match source {
            EventSource::Telescope => &self.tele,
            EventSource::Honeypot => &self.hp,
        };
        self.ensure(lock);
        IndexRef(lock.read())
    }

    /// The shared victim interner.
    pub(crate) fn victim_ids(&self) -> &Interner<Ipv4Addr> {
        &self.victims
    }
}

/// Guard handing out one source's consolidated [`ColumnBlock`].
pub(crate) struct BlockRef<'a>(RwLockReadGuard<'a, SourceCols>);

impl Deref for BlockRef<'_> {
    type Target = ColumnBlock;

    fn deref(&self) -> &ColumnBlock {
        &self.0.main
    }
}

/// Guard handing out one source's kind-predicate [`RunIndex`].
pub(crate) struct IndexRef<'a>(RwLockReadGuard<'a, SourceCols>);

impl Deref for IndexRef<'_> {
    type Target = RunIndex;

    fn deref(&self) -> &RunIndex {
        &self.0.index
    }
}

/// A borrowed, zero-copy view of one source's events in store order.
///
/// The view decodes rows into owned [`AttackEvent`]s on access: `get`
/// and iteration hand back values, not references, so call sites that
/// previously iterated `&[AttackEvent]` keep working with at most a
/// dropped `&`/`.cloned()`. Equality against other views and against
/// event slices compares decoded rows, which keeps the row-vs-column
/// equivalence assertions byte-for-byte meaningful.
///
/// A view pins the source consolidated: it holds a read guard on the
/// column state (cloning a view re-acquires a guard), and ingest takes
/// `&mut self`, so the rows a view exposes can never shift under it.
pub struct EventsView<'a> {
    lock: &'a RwLock<SourceCols>,
    cols: RwLockReadGuard<'a, SourceCols>,
    victims: &'a Interner<Ipv4Addr>,
}

impl Clone for EventsView<'_> {
    fn clone(&self) -> Self {
        EventsView {
            lock: self.lock,
            cols: self.lock.read(),
            victims: self.victims,
        }
    }
}

impl<'a> EventsView<'a> {
    /// Number of events in the view.
    pub fn len(&self) -> usize {
        self.cols.main.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode the event at row `i` (panics when out of bounds).
    pub fn get(&self, i: usize) -> AttackEvent {
        self.cols.main.event(i, self.victims)
    }

    /// Iterate the events in store order, decoding each row.
    pub fn iter(&self) -> EventsIter<'a> {
        EventsIter {
            back: self.len(),
            view: self.clone(),
            next: 0,
        }
    }

    /// Materialize the view into an owned vector.
    pub fn to_vec(&self) -> Vec<AttackEvent> {
        self.iter().collect()
    }
}

/// Owning-item iterator over an [`EventsView`].
#[derive(Clone)]
pub struct EventsIter<'a> {
    view: EventsView<'a>,
    next: usize,
    back: usize,
}

impl Iterator for EventsIter<'_> {
    type Item = AttackEvent;

    fn next(&mut self) -> Option<AttackEvent> {
        if self.next >= self.back {
            return None;
        }
        let e = self.view.get(self.next);
        self.next += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for EventsIter<'_> {}

impl DoubleEndedIterator for EventsIter<'_> {
    fn next_back(&mut self) -> Option<AttackEvent> {
        if self.next >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.view.get(self.back))
    }
}

impl<'a> IntoIterator for EventsView<'a> {
    type Item = AttackEvent;
    type IntoIter = EventsIter<'a>;

    fn into_iter(self) -> EventsIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &EventsView<'a> {
    type Item = AttackEvent;
    type IntoIter = EventsIter<'a>;

    fn into_iter(self) -> EventsIter<'a> {
        self.iter()
    }
}

impl PartialEq for EventsView<'_> {
    fn eq(&self, other: &EventsView<'_>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl PartialEq<[AttackEvent]> for EventsView<'_> {
    fn eq(&self, other: &[AttackEvent]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == *b)
    }
}

impl PartialEq<Vec<AttackEvent>> for EventsView<'_> {
    fn eq(&self, other: &Vec<AttackEvent>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<&[AttackEvent]> for EventsView<'_> {
    fn eq(&self, other: &&[AttackEvent]) -> bool {
        *self == **other
    }
}

impl std::fmt::Debug for EventsView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Lower bound of `pivot` in `block`'s `(start, addr)` key sequence:
/// the first row whose key is `>= pivot`.
fn lower_bound(block: &ColumnBlock, addrs: &[u32], pivot: (u64, u32)) -> usize {
    let mut lo = 0usize;
    let mut hi = block.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if (block.start[mid], addrs[mid]) < pivot {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_types::{
        AttackVector, PortSignature, ReflectionProtocol, SimTime, TimeRange, TransportProto,
    };

    fn tele(ip: &str, start: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(start + 100)),
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

    fn hp(ip: &str, start: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(start + 100)),
            vector: AttackVector::Reflection {
                protocol: ReflectionProtocol::Ntp,
            },
            packets: 200,
            bytes: 8000,
            intensity_pps: 5.0,
            distinct_sources: 4,
        }
    }

    #[test]
    fn summaries() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![
            tele("10.0.0.1", 50),
            tele("10.0.0.2", 10),
            tele("10.0.0.1", 500),
        ]);
        s.ingest_honeypot(vec![hp("10.0.1.1", 30), hp("10.0.0.1", 90)]);

        let t = s.summary(EventSource::Telescope);
        assert_eq!(t.events, 3);
        assert_eq!(t.targets, 2);
        assert_eq!(t.blocks24, 1);
        assert_eq!(t.blocks16, 1);

        let h = s.summary(EventSource::Honeypot);
        assert_eq!(h.events, 2);
        assert_eq!(h.targets, 2);
        assert_eq!(h.blocks24, 2);

        let c = s.summary_combined();
        assert_eq!(c.events, 5);
        assert_eq!(c.targets, 3, "overlapping target counted once");
        assert_eq!(s.common_targets(), 1);
    }

    #[test]
    fn ingest_sorts_by_start() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 500), tele("10.0.0.2", 10)]);
        let events = s.telescope().to_vec();
        assert!(events.windows(2).all(|w| w[0].when.start <= w[1].when.start));
    }

    #[test]
    fn vector_encoding_roundtrips() {
        let mut vectors = vec![];
        for proto in TransportProto::ALL {
            vectors.push(AttackVector::RandomlySpoofed {
                proto,
                ports: PortSignature::Single(443),
            });
            vectors.push(AttackVector::RandomlySpoofed {
                proto,
                ports: PortSignature::Multi(17),
            });
            vectors.push(AttackVector::RandomlySpoofed {
                proto,
                ports: PortSignature::None,
            });
        }
        for protocol in ReflectionProtocol::ALL {
            vectors.push(AttackVector::Reflection { protocol });
        }
        let mut seen = std::collections::HashSet::new();
        for v in vectors {
            let (kind, aux) = encode_vector(v);
            assert!((kind as usize) < KINDS, "kind codes stay in range");
            assert!(seen.insert((kind, aux)), "codes are distinct");
            assert_eq!(decode_vector(kind, aux), v, "decode inverts encode");
        }
    }

    #[test]
    fn views_decode_rows_exactly() {
        let mut s = EventStore::new();
        let batch = vec![tele("10.0.0.1", 500), tele("10.0.0.2", 10)];
        s.ingest_telescope(batch.clone());
        let mut expect = batch;
        expect.sort_by_key(|e| (e.when.start, e.target));
        assert_eq!(s.telescope(), expect, "view equals the sorted rows");
        assert_eq!(s.telescope().get(0), expect[0]);
        assert_eq!(s.telescope().to_vec(), expect);
        assert_eq!(s.telescope().iter().len(), 2);
        let rev: Vec<AttackEvent> = s.telescope().iter().rev().collect();
        assert_eq!(rev[1], expect[0], "double-ended iteration");
    }

    #[test]
    fn out_of_order_ingest_matches_row_semantics() {
        // Second batch starts before the first ends: lands as a pending
        // run, and the lazy consolidation must reproduce the old
        // extend-and-stable-sort byte-for-byte.
        let mut s = EventStore::new();
        let b1 = vec![tele("10.0.0.9", 300), tele("10.0.0.1", 700)];
        let b2 = vec![tele("10.0.0.3", 100), tele("10.0.0.1", 300), tele("10.0.0.9", 300)];
        s.ingest_telescope(b1.clone());
        s.ingest_telescope(b2.clone());
        let mut rows: Vec<AttackEvent> = b1;
        rows.extend(b2);
        rows.sort_by_key(|e| (e.when.start, e.target));
        assert_eq!(s.telescope(), rows);
    }

    #[test]
    fn in_order_batches_never_open_runs() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 10), tele("10.0.0.2", 20)]);
        s.ingest_telescope(vec![tele("10.0.0.3", 20), tele("10.0.0.4", 30)]);
        s.ingest_telescope(vec![tele("10.0.0.9", 30)]);
        assert_eq!(s.pending_runs(), 0, "in-order appends bypass the run stack");
        assert_eq!(s.telescope().len(), 5);
    }

    #[test]
    fn out_of_order_batches_stack_runs_until_read() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 1000)]);
        s.ingest_telescope(vec![tele("10.0.0.1", 500)]);
        assert_eq!(s.pending_runs(), 1, "out-of-order batch opened a run");
        // Summaries never force consolidation.
        assert_eq!(s.summary(EventSource::Telescope).events, 2);
        assert_eq!(s.pending_runs(), 1);
        // A view does.
        let starts: Vec<u64> = s.telescope().iter().map(|e| e.when.start.0).collect();
        assert_eq!(starts, vec![500, 1000]);
        assert_eq!(s.pending_runs(), 0, "read consolidated the runs");
    }

    #[test]
    fn run_threshold_forces_consolidation_at_ingest() {
        let mut s = EventStore::new();
        s.set_run_threshold(1);
        s.ingest_telescope(vec![tele("10.0.0.1", 1000)]);
        s.ingest_telescope(vec![tele("10.0.0.1", 500)]);
        assert_eq!(s.pending_runs(), 0, "threshold 1 consolidates every batch");
        assert_eq!(s.telescope().len(), 2);
    }

    #[test]
    fn binary_counter_keeps_run_count_logarithmic() {
        let mut s = EventStore::new();
        s.set_run_threshold(usize::MAX >> 1);
        // 64 adversarial single-event batches in strictly reverse time
        // order: every batch opens a run, the counter keeps only
        // O(log n) of them alive.
        for i in (0..64u64).rev() {
            s.ingest_telescope(vec![tele("10.0.0.7", 10 + i)]);
        }
        assert!(
            s.pending_runs() <= 7,
            "{} runs pending after 64 singleton batches",
            s.pending_runs()
        );
        let starts: Vec<u64> = s.telescope().iter().map(|e| e.when.start.0).collect();
        assert_eq!(starts, (10..74).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_consolidation_matches_serial() {
        // Enough rows to cross the parallel floor, interleaved so the
        // merge actually interleaves its inputs.
        let n = (PARALLEL_CONSOLIDATE_FLOOR / 2) as u64 + 7;
        let evens: Vec<AttackEvent> = (0..n)
            .map(|i| tele(&format!("10.{}.{}.1", i % 40, i % 9), 2 * i))
            .collect();
        let odds: Vec<AttackEvent> = (0..n)
            .map(|i| tele(&format!("10.{}.{}.2", i % 17, i % 13), 2 * i + 1))
            .collect();
        let build = |threads: usize| {
            let mut s = EventStore::new();
            s.set_consolidation_threads(threads);
            s.ingest_telescope(evens.clone());
            s.ingest_telescope(odds.clone());
            s.consolidate();
            s
        };
        let serial = build(1);
        for threads in [2, 3, 8] {
            let par = build(threads);
            assert_eq!(par.telescope(), serial.telescope(), "{threads} threads");
        }
    }

    #[test]
    fn history_merges_sources_by_start() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 50), tele("10.0.0.2", 60), tele("10.0.0.1", 500)]);
        s.ingest_honeypot(vec![hp("10.0.0.1", 90), hp("10.0.0.1", 50)]);
        let h = s.history("10.0.0.1".parse().unwrap());
        assert_eq!(h.len(), 4);
        let starts: Vec<u64> = h.iter().map(|e| e.when.start.0).collect();
        assert_eq!(starts, vec![50, 50, 90, 500]);
        assert_eq!(h[0].source(), EventSource::Telescope, "telescope wins ties");
        assert!(s.history("192.168.0.1".parse().unwrap()).is_empty());
    }

    #[test]
    fn empty_store() {
        let s = EventStore::new();
        assert!(s.is_empty());
        assert_eq!(s.summary_combined(), SourceSummary::default());
        assert_eq!(s.common_targets(), 0);
        assert_eq!(s.telescope().len(), 0);
        assert!(s.all().next().is_none());
        assert_eq!(s.pending_runs(), 0);
    }

    #[test]
    fn memory_accounting_is_nonzero() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 50)]);
        assert!(s.memory_bytes() > 0);
    }
}
