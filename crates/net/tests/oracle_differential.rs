//! Differential property: the oracle's resumable price trees answer
//! exactly like a complete [`ShortestPathTree::build_in`].
//!
//! Each case draws a random substrate — possibly disconnected, with
//! several link-capacity classes — and drives one [`PathOracle`] through
//! a random interleaving of `path`, `dist`, `tree` and `min_cost_path`
//! queries over several rates, flipping the fault overlay between
//! queries. The LRU bound is 1 or 2, so partially settled trees are
//! evicted and restarted all the time. Every answer is compared with a
//! fresh full build under the same filter (capacity admits the rate,
//! the link and both endpoints are up): distance bits, path links, and
//! `None` where the target is unreachable. A final phase shares the
//! oracle between two threads.
//!
//! The substrates come on two price axes: continuous prices (the heap
//! kernel) and a dyadic grid, where `build_in` takes the bucket kernel.

use dagsfc_net::routing::{bucket_kernel_available, ArcWeight, RoutingScratch, ShortestPathTree};
use dagsfc_net::{LinkId, Network, NodeId, PathOracle, CAP_EPS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Link capacities: four classes, so rates split the link set.
const CAPACITIES: [f64; 4] = [1.0, 2.0, 5.0, 10.0];
/// Query rates: one inside each class, plus one above every capacity.
const RATES: [f64; 5] = [0.5, 1.5, 4.0, 10.0, 11.0];

/// A random substrate of `n` nodes with about `m` link attempts (self
/// loops and duplicates are skipped, so sparse draws disconnect).
fn substrate(rng: &mut StdRng, n: usize, m: usize, dyadic: bool) -> Network {
    let mut g = Network::new();
    g.add_nodes(n);
    for _ in 0..m {
        let a = NodeId(rng.gen_range(0..n as u32));
        let b = NodeId(rng.gen_range(0..n as u32));
        let price = if dyadic {
            f64::from(rng.gen_range(1..64u32)) * 0.0625
        } else if rng.gen_bool(0.5) {
            // A few repeated values make equal-cost ties common.
            [0.1, 0.2, 0.3][rng.gen_range(0..3usize)]
        } else {
            rng.gen_range(0.05..5.0)
        };
        let capacity = CAPACITIES[rng.gen_range(0..CAPACITIES.len())];
        let _ = g.add_link(a, b, price, capacity);
    }
    g
}

/// The fault overlay mirrored on the test side.
#[derive(Clone)]
struct Overlay {
    links: Vec<bool>,
    nodes: Vec<bool>,
}

/// The complete reference tree for `(source, rate)` under `overlay`.
fn reference(net: &Network, overlay: &Overlay, source: NodeId, rate: f64) -> ShortestPathTree {
    let filter = |l: LinkId| {
        let link = net.link(l);
        !overlay.links[l.index()]
            && !overlay.nodes[link.a.index()]
            && !overlay.nodes[link.b.index()]
            && link.capacity + CAP_EPS >= rate
    };
    ShortestPathTree::build_in(net, source, &filter, None, &mut RoutingScratch::new())
}

/// Asserts that the oracle's answer for `from → to` at `rate` matches
/// the reference, through the query kind `kind` (0 path, 1 dist,
/// 2 tree, 3 min_cost_path).
fn check(
    oracle: &PathOracle<'_>,
    overlay: &Overlay,
    kind: u32,
    from: NodeId,
    to: NodeId,
    rate: f64,
) {
    let net = oracle.network();
    let want = reference(net, overlay, from, rate);
    let ctx = format!("kind {kind} {from:?}->{to:?} rate {rate}");
    match kind {
        0 => {
            let (got, _) = oracle.path(from, to, rate);
            assert_eq!(got, want.path_to(to), "{ctx}");
        }
        1 => {
            let (got, _) = oracle.dist(from, to, rate);
            assert_eq!(
                got.map(f64::to_bits),
                want.dist_to(to).map(f64::to_bits),
                "{ctx}"
            );
        }
        2 => {
            let tree = oracle.tree(from, rate);
            for v in net.node_ids() {
                assert_eq!(
                    tree.dist_to(v).map(f64::to_bits),
                    want.dist_to(v).map(f64::to_bits),
                    "{ctx} node {v:?}"
                );
                assert_eq!(tree.path_to(v), want.path_to(v), "{ctx} node {v:?}");
            }
        }
        _ => {
            let got = oracle.min_cost_path(from, to, rate);
            let expect = if from == to {
                Some(dagsfc_net::Path::trivial(from))
            } else {
                want.path_to(to)
            };
            assert_eq!(got, expect, "{ctx}");
        }
    }
}

/// One random query against `oracle`. Half the time it reuses the
/// previous `(source, rate)`, so most queries resume a partial tree.
fn random_query(
    rng: &mut StdRng,
    oracle: &PathOracle<'_>,
    overlay: &Overlay,
    last: &mut Option<(NodeId, f64)>,
) {
    let n = oracle.network().node_count() as u32;
    let (from, rate) = match *last {
        Some(prev) if rng.gen_bool(0.5) => prev,
        _ => (
            NodeId(rng.gen_range(0..n)),
            RATES[rng.gen_range(0..RATES.len())],
        ),
    };
    *last = Some((from, rate));
    let to = NodeId(rng.gen_range(0..n));
    // Full-tree queries are rarer, so partial trees live long.
    let kind = if rng.gen_bool(0.1) {
        2
    } else {
        [0, 1, 3][rng.gen_range(0..3usize)]
    };
    check(oracle, overlay, kind, from, to, rate);
}

/// Drives one case: the sequential interleaving with fault flips, then
/// the two-thread phase.
fn run_case(seed: u64, n: usize, m: usize, capacity: usize, dyadic: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = substrate(&mut rng, n, m, dyadic);
    if dyadic && net.link_count() > 0 {
        assert!(bucket_kernel_available(&net, ArcWeight::Price));
    }
    let oracle = PathOracle::with_capacity(&net, capacity);
    let mut overlay = Overlay {
        links: vec![false; net.link_count()],
        nodes: vec![false; n],
    };
    let mut last = None;
    for _ in 0..48 {
        if rng.gen_bool(0.15) {
            if net.link_count() > 0 && rng.gen_bool(0.7) {
                let l = rng.gen_range(0..net.link_count());
                overlay.links[l] = !overlay.links[l];
                oracle.set_link_down(LinkId(l as u32), overlay.links[l]);
            } else {
                let v = rng.gen_range(0..n);
                overlay.nodes[v] = !overlay.nodes[v];
                oracle.set_node_down(NodeId(v as u32), overlay.nodes[v]);
            }
        }
        random_query(&mut rng, &oracle, &overlay, &mut last);
    }
    let seeds: [u64; 2] = [rng.gen(), rng.gen()];
    std::thread::scope(|s| {
        for seed in seeds {
            let (oracle, overlay) = (&oracle, &overlay);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut last = None;
                for _ in 0..24 {
                    random_query(&mut rng, oracle, overlay, &mut last);
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Continuous prices: `build_in` runs the binary-heap kernel.
    #[test]
    fn resumable_trees_match_full_builds_on_continuous_prices(
        seed in 0u64..u64::MAX,
        n in 2usize..28,
        m in 0usize..70,
        capacity in 1usize..3,
    ) {
        run_case(seed, n, m, capacity, false);
    }

    /// Dyadic prices: `build_in` runs the bucket kernel.
    #[test]
    fn resumable_trees_match_full_builds_on_the_dyadic_grid(
        seed in 0u64..u64::MAX,
        n in 2usize..28,
        m in 0usize..70,
        capacity in 1usize..3,
    ) {
        run_case(seed, n, m, capacity, true);
    }
}
