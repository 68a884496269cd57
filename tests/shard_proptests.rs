//! Property tests of the width-to-shard map: routing determinism and
//! the exact balance the router's placement relies on (seed-pinnable via
//! `ACCQOC_PROPTEST_SEED`; a failure prints the seed in effect — see the
//! `proptest` compat crate).

use accqoc_repro::accqoc::shard_of;
use proptest::prelude::*;

proptest! {
    /// Routing is a pure function of (width, shard count): every process
    /// — or one process across a restart — routes a width to the same
    /// shard, always in range, and the map repeats with period N, so any
    /// N consecutive widths land on N distinct shards. The durable tier
    /// depends on this: a worker restarted from its data dir must own
    /// exactly the widths it owned before.
    #[test]
    fn routing_is_deterministic_across_ring_rebuilds(
        shards in 1usize..9,
        widths in proptest::collection::vec(1usize..1_000_000, 1..64),
    ) {
        for &w in &widths {
            let owner = shard_of(w, shards);
            prop_assert!(owner < shards);
            prop_assert_eq!(owner, shard_of(w + shards, shards));
        }
        let mut owners: Vec<usize> = (1..=shards).map(|w| shard_of(w, shards)).collect();
        owners.sort_unstable();
        prop_assert_eq!(owners, (0..shards).collect::<Vec<_>>());
    }
}

/// The routes the deployment docs, the chaos test, and the bench check
/// pin: dimension classes 1..=8 at the shard counts the walkthroughs
/// use. A change here is a layout break — existing shard stores would
/// no longer match their owners until `router --rebalance` re-homes
/// them.
#[test]
fn pinned_golden_routes() {
    let route_all =
        |shards: usize| -> Vec<usize> { (1..=8).map(|w| shard_of(w, shards)).collect() };
    assert_eq!(route_all(1), vec![0; 8]);
    assert_eq!(route_all(2), vec![0, 1, 0, 1, 0, 1, 0, 1]);
    assert_eq!(route_all(3), vec![0, 1, 2, 0, 1, 2, 0, 1]);
    assert_eq!(route_all(4), vec![0, 1, 2, 3, 0, 1, 2, 3]);
}
