//! A loser-tree k-way merge primitive for sorted-run consolidation.
//!
//! Merging k sorted runs by rescanning every head costs O(k) per output
//! row — fine for a handful of shards, quadratic pain once an LSM-style
//! store accumulates runs. A *loser tree* (tournament tree that caches
//! the loser at each internal node) replays only the winner's root path
//! after each pop: O(log k) comparisons per row, one `Option<K>` slot
//! per source, no allocation after construction.
//!
//! Ties break on the **source index**: when two sources present equal
//! keys, the lower-indexed source wins. Callers that order their sources
//! oldest-first therefore get exactly the "existing rows win ties"
//! semantics of a stable merge, which is what the event store's
//! sorted-run consolidation pins byte-for-byte.

/// A tournament tree over `k` sorted sources yielding the minimum
/// `(key, source)` pair in O(log k) per pop.
///
/// Sources present their current head key via `Some(key)` and
/// exhaustion via `None` (which compares greater than every key). The
/// caller drives the merge loop: read [`LoserTree::winner`], consume
/// that source's head, then [`LoserTree::replace`] it with the source's
/// next key (or `None`).
#[derive(Debug, Clone)]
pub struct LoserTree<K: Ord + Copy> {
    /// Current head key per source; `None` = exhausted.
    keys: Vec<Option<K>>,
    /// Internal tournament nodes (size `pad`): `losers[0]` holds the
    /// overall winner, `losers[1..]` the loser of each sub-match.
    losers: Vec<u32>,
    /// Leaf count padded to a power of two (padding leaves are `None`).
    pad: usize,
    /// Real source count.
    sources: usize,
}

impl<K: Ord + Copy> LoserTree<K> {
    /// Build a tree over the given head keys (one per source, in
    /// tie-break priority order). An empty source list is allowed and
    /// yields no winner.
    pub fn new(heads: Vec<Option<K>>) -> LoserTree<K> {
        let sources = heads.len();
        let pad = sources.next_power_of_two().max(1);
        let mut keys = heads;
        keys.resize(pad, None);
        let mut tree = LoserTree {
            keys,
            losers: vec![0; pad],
            pad,
            sources,
        };
        tree.rebuild();
        tree
    }

    /// Number of real sources the tree was built over.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// The source holding the smallest `(key, source)` pair, or `None`
    /// when every source is exhausted.
    pub fn winner(&self) -> Option<usize> {
        if self.pad == 0 {
            return None;
        }
        let w = self.losers[0] as usize;
        self.keys[w].is_some().then_some(w)
    }

    /// The winner's current key (convenience for peeking merges).
    pub fn winner_key(&self) -> Option<K> {
        self.winner().and_then(|w| self.keys[w])
    }

    /// Set `source`'s head to `key` (its next element, or `None` once
    /// exhausted) and replay its path to the root: O(log k).
    pub fn replace(&mut self, source: usize, key: Option<K>) {
        debug_assert!(source < self.sources, "source index out of range");
        self.keys[source] = key;
        let mut winner = source;
        // Leaf `source` sits under internal node (pad + source) / 2.
        let mut node = (self.pad + source) >> 1;
        while node >= 1 {
            let held = self.losers[node] as usize;
            if self.beats(held, winner) {
                // The stored loser beats the incoming winner: swap roles.
                self.losers[node] = winner as u32;
                winner = held;
            }
            node >>= 1;
        }
        self.losers[0] = winner as u32;
    }

    /// True when source `a`'s `(key, index)` pair orders before `b`'s.
    /// `None` keys sort after everything, so exhausted sources lose.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.keys[a], &self.keys[b]) {
            (Some(ka), Some(kb)) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Recompute every match from the leaves up (used at construction).
    fn rebuild(&mut self) {
        if self.pad == 1 {
            self.losers[0] = 0;
            return;
        }
        // winners[node] for the sub-tournament rooted at each internal
        // node; leaves are implicit at indexes pad..2*pad.
        let mut winners = vec![0u32; self.pad];
        for node in (1..self.pad).rev() {
            let (l, r) = (self.child(winners.as_slice(), node << 1), self.child(winners.as_slice(), (node << 1) | 1));
            let (w, l_) = if self.beats(l, r) { (l, r) } else { (r, l) };
            winners[node] = w as u32;
            self.losers[node] = l_ as u32;
        }
        self.losers[0] = winners[1];
    }

    /// The winner at tree slot `slot`: a leaf's source index when `slot`
    /// is in the leaf range, otherwise the recorded sub-match winner.
    fn child(&self, winners: &[u32], slot: usize) -> usize {
        if slot >= self.pad {
            slot - self.pad
        } else {
            winners[slot] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fully merge `k` sorted slices into one vector (ties: lower slice
    /// index first) — the merge loop the tests run the tree through.
    /// The store drives [`LoserTree`] directly over column blocks instead
    /// of materializing key slices.
    fn merge_sorted<K: Ord + Copy>(sources: &[&[K]]) -> Vec<K> {
        let mut cursors = vec![0usize; sources.len()];
        let heads: Vec<Option<K>> = sources.iter().map(|s| s.first().copied()).collect();
        let mut tree = LoserTree::new(heads);
        let total: usize = sources.iter().map(|s| s.len()).sum();
        let mut out = Vec::with_capacity(total);
        while let Some(w) = tree.winner() {
            out.push(sources[w][cursors[w]]);
            cursors[w] += 1;
            tree.replace(w, sources[w].get(cursors[w]).copied());
        }
        out
    }

    /// Deterministic xorshift so the differential tests need no rand.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Reference merge: concatenate with source tags, stable sort.
    fn reference(sources: &[Vec<u64>]) -> Vec<u64> {
        let mut tagged: Vec<(u64, usize)> = sources
            .iter()
            .enumerate()
            .flat_map(|(k, s)| s.iter().map(move |&v| (v, k)))
            .collect();
        tagged.sort_by_key(|&(v, k)| (v, k));
        tagged.into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let none: &[&[u64]] = &[];
        assert_eq!(merge_sorted(none), Vec::<u64>::new());
        assert_eq!(merge_sorted(&[&[] as &[u64]]), Vec::<u64>::new());
        assert_eq!(merge_sorted(&[&[1u64, 2, 3]]), vec![1, 2, 3]);
        assert_eq!(
            merge_sorted(&[&[] as &[u64], &[5u64], &[]]),
            vec![5]
        );
        let tree: LoserTree<u64> = LoserTree::new(Vec::new());
        assert_eq!(tree.winner(), None);
        assert_eq!(tree.winner_key(), None);
    }

    #[test]
    fn ties_break_toward_the_lower_source() {
        // Every source holds the same keys: the merged order must cycle
        // source 0, 1, 2 for each key value — the stable-merge contract.
        let s: &[&[u64]] = &[&[7, 9], &[7, 9], &[7, 9]];
        let mut tree = LoserTree::new(vec![Some(7u64), Some(7), Some(7)]);
        let mut order = Vec::new();
        let mut cursors = [0usize; 3];
        while let Some(w) = tree.winner() {
            order.push(w);
            cursors[w] += 1;
            tree.replace(w, s[w].get(cursors[w]).copied());
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn non_power_of_two_source_counts() {
        for k in 1..=9usize {
            let sources: Vec<Vec<u64>> = (0..k)
                .map(|i| (0..5u64).map(|j| (j * k as u64 + i as u64) % 7).collect::<Vec<_>>())
                .map(|mut v| {
                    v.sort_unstable();
                    v
                })
                .collect();
            let slices: Vec<&[u64]> = sources.iter().map(|v| v.as_slice()).collect();
            assert_eq!(merge_sorted(&slices), reference(&sources), "k = {k}");
        }
    }

    #[test]
    fn differential_vs_stable_sort_reference() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for round in 0..50 {
            let k = 1 + (rng.next() % 12) as usize;
            let sources: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let n = (rng.next() % 40) as usize;
                    let mut v: Vec<u64> = (0..n).map(|_| rng.next() % 16).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let slices: Vec<&[u64]> = sources.iter().map(|v| v.as_slice()).collect();
            assert_eq!(
                merge_sorted(&slices),
                reference(&sources),
                "round {round}, k = {k}"
            );
        }
    }

    #[test]
    fn winner_key_tracks_the_merge_front() {
        let mut tree = LoserTree::new(vec![Some(4u64), Some(2), Some(9)]);
        assert_eq!(tree.winner(), Some(1));
        assert_eq!(tree.winner_key(), Some(2));
        tree.replace(1, Some(6));
        assert_eq!(tree.winner(), Some(0));
        tree.replace(0, None);
        assert_eq!(tree.winner(), Some(1));
        tree.replace(1, None);
        assert_eq!(tree.winner(), Some(2));
        tree.replace(2, None);
        assert_eq!(tree.winner(), None);
    }
}
