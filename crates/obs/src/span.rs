//! Scoped spans: RAII-timed regions with per-thread, lock-free-in-the-
//! common-case recording and a hierarchical rollup at snapshot time.
//!
//! Span names are `'static` dot-separated paths (`"stage.render"`,
//! `"report.render"`). Each thread keeps its own statistics map (guarded
//! by a mutex that is uncontended except during snapshots); a snapshot
//! merges all threads and aggregates *self* time under every dot-prefix
//! so `stage` reports the cumulative cost of all `stage.*` spans without
//! double-counting nested regions.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Accumulated statistics for one span name on one thread.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
struct Stat {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_depth: u32,
}

#[derive(Default)]
struct ThreadSpans {
    stats: HashMap<&'static str, Stat>,
}

// Each thread owns an Arc<Mutex<ThreadSpans>> registered in a global
// list; the thread-local keeps the map alive and findable even after
// the thread exits (worker pools join before snapshots, but short-lived
// threads must not lose their spans).
fn all_threads() -> &'static Mutex<Vec<Arc<Mutex<ThreadSpans>>>> {
    static ALL: OnceLock<Mutex<Vec<Arc<Mutex<ThreadSpans>>>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadSpans>>>> = const { RefCell::new(None) };
    // Per-frame accumulated child time for the active span stack.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn local() -> Arc<Mutex<ThreadSpans>> {
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        if let Some(arc) = slot.as_ref() {
            return arc.clone();
        }
        let arc = Arc::new(Mutex::new(ThreadSpans::default()));
        all_threads()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(arc.clone());
        *slot = Some(arc.clone());
        arc
    })
}

/// RAII guard for a span; records on drop. Created by [`enter`] or the
/// [`crate::span!`] macro.
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    depth: u32,
    active: bool,
}

/// Open a span named `name`. While telemetry is disabled this is a
/// single atomic load and returns an inert guard.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            name,
            start: Instant::now(),
            depth: 0,
            active: false,
        };
    }
    let depth = CHILD_NS.with(|c| {
        let mut stack = c.borrow_mut();
        stack.push(0);
        stack.len() as u32
    });
    SpanGuard {
        name,
        start: Instant::now(),
        depth,
        active: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let total_ns = self.start.elapsed().as_nanos() as u64;
        let child_ns = CHILD_NS.with(|c| {
            let mut stack = c.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += total_ns;
            }
            child
        });
        let arc = local();
        let mut spans = arc.lock().unwrap_or_else(PoisonError::into_inner);
        let stat = spans.stats.entry(self.name).or_default();
        stat.count += 1;
        stat.total_ns += total_ns;
        stat.self_ns += total_ns.saturating_sub(child_ns);
        stat.max_depth = stat.max_depth.max(self.depth);
    }
}

/// One span's merged statistics at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Dot-separated span name.
    pub name: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Wall time spent inside the span, including children.
    pub total_ns: u64,
    /// Wall time minus time spent in child spans.
    pub self_ns: u64,
    /// Deepest nesting level the span was observed at (1 = top level).
    pub max_depth: u32,
}

/// Cumulative self-time rollup for one dot-prefix of the span
/// hierarchy: `stage` aggregates every `stage.*` span (and a span named
/// exactly `stage`, if any). Summing *self* time keeps the rollup free
/// of double counting when spans nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupSnapshot {
    /// The shared name prefix (no trailing dot).
    pub prefix: String,
    /// Total enters across member spans.
    pub count: u64,
    /// Summed self time across member spans.
    pub self_ns: u64,
    /// Number of distinct member span names.
    pub spans: u32,
}

/// Merge all threads' span statistics, sorted by name.
pub fn snapshot() -> Vec<SpanSnapshot> {
    let mut merged: BTreeMap<&'static str, Stat> = BTreeMap::new();
    let threads = all_threads()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for t in threads {
        let spans = t.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, stat) in spans.stats.iter() {
            let m = merged.entry(name).or_default();
            m.count += stat.count;
            m.total_ns += stat.total_ns;
            m.self_ns += stat.self_ns;
            m.max_depth = m.max_depth.max(stat.max_depth);
        }
    }
    merged
        .into_iter()
        .map(|(name, s)| SpanSnapshot {
            name: name.to_string(),
            count: s.count,
            total_ns: s.total_ns,
            self_ns: s.self_ns,
            max_depth: s.max_depth,
        })
        .collect()
}

/// Hierarchical rollup over a span snapshot: one entry per dot-prefix
/// that has at least one member span, sorted by prefix.
pub fn rollup(spans: &[SpanSnapshot]) -> Vec<RollupSnapshot> {
    let mut agg: BTreeMap<String, RollupSnapshot> = BTreeMap::new();
    for s in spans {
        for (i, b) in s.name.as_bytes().iter().enumerate() {
            if *b == b'.' {
                let prefix = &s.name[..i];
                let e = agg
                    .entry(prefix.to_string())
                    .or_insert_with(|| RollupSnapshot {
                        prefix: prefix.to_string(),
                        count: 0,
                        self_ns: 0,
                        spans: 0,
                    });
                e.count += s.count;
                e.self_ns += s.self_ns;
                e.spans += 1;
            }
        }
    }
    agg.into_values().collect()
}

/// Drop all recorded span statistics (active spans keep running and
/// will record into the fresh epoch when they close).
pub(crate) fn reset() {
    let threads = all_threads()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for t in threads {
        t.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
            .clear();
    }
}

/// Open a scoped span: `let _s = span!("stage.render");`. The span
/// closes (and records) when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_and_depth() {
        let _t = crate::testing::scoped_enable();
        {
            let _outer = crate::span!("test.span.outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = crate::span!("test.span.inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snap = snapshot();
        let find = |n: &str| snap.iter().find(|s| s.name == n).cloned().unwrap();
        let outer = find("test.span.outer");
        let inner = find("test.span.inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(outer.max_depth, 1);
        assert_eq!(inner.max_depth, 2);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000,
            "outer self time excludes the inner span"
        );
    }

    #[test]
    fn spans_merge_across_threads() {
        let _t = crate::testing::scoped_enable();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = crate::span!("test.span.worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        let s = snap.iter().find(|s| s.name == "test.span.worker").unwrap();
        assert_eq!(s.count, 3);
    }

    #[test]
    fn rollup_aggregates_by_prefix() {
        let spans = vec![
            SpanSnapshot {
                name: "stage.render".into(),
                count: 2,
                total_ns: 100,
                self_ns: 80,
                max_depth: 1,
            },
            SpanSnapshot {
                name: "stage.detect".into(),
                count: 1,
                total_ns: 50,
                self_ns: 50,
                max_depth: 1,
            },
            SpanSnapshot {
                name: "report.render".into(),
                count: 1,
                total_ns: 10,
                self_ns: 10,
                max_depth: 1,
            },
        ];
        let r = rollup(&spans);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].prefix, "report");
        assert_eq!(r[1].prefix, "stage");
        assert_eq!(r[1].count, 3);
        assert_eq!(r[1].self_ns, 130);
        assert_eq!(r[1].spans, 2);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _t = crate::testing::scoped_enable();
        crate::set_enabled(false);
        {
            let _s = crate::span!("test.span.off");
        }
        crate::set_enabled(true);
        assert!(snapshot().iter().all(|s| s.name != "test.span.off"));
    }
}
