//! The target-IP shard key of the parallel detector stages.
//!
//! Work is partitioned by the complete victim address. All detector state
//! (flow-table entries, open events, reply rate limits) is keyed by that
//! address and the detector merges only sum counters, so the finest
//! spread is safe: the victims inside one hot hosting /16 spread across
//! every shard instead of serialising on one.
//!
//! The address is scrambled with a fixed odd multiplier before the
//! modulo: address space is allocated in runs (a hoster's adjacent
//! prefixes differ only in a few bits), so a plain `% shards` would
//! stripe those runs onto the same few shards and the busiest shard
//! would bound the whole pipeline. The multiply mixes every address bit
//! into the high word and is stable across runs and platforms.

use std::net::Ipv4Addr;

/// Fibonacci-hashing constant (2^32 / φ, forced odd): a full-period
/// multiplicative scramble, not a quality-sensitive hash.
const MIX: u32 = 0x9E37_79B1;

/// The shard an address belongs to, out of `shards` (`shards = 0` is
/// treated as 1). Deterministic pure arithmetic on all 32 address bits.
pub fn shard_of_addr(addr: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (u32::from(addr).wrapping_mul(MIX) >> 16) as usize % shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_range() {
        let shards = 8;
        let mut seen = vec![false; shards];
        for hi in 0..=255u32 {
            for lo in 0..32u32 {
                let addr = Ipv4Addr::from((hi << 24) | (lo << 16));
                let s = shard_of_addr(addr, shards);
                assert!(s < shards);
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all shards receive work");
    }

    #[test]
    fn degenerate_counts() {
        let addr: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(shard_of_addr(addr, 0), 0);
        assert_eq!(shard_of_addr(addr, 1), 0);
    }
}
