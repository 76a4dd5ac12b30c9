//! Invariant and property tests for the region-sharded substrate:
//! partition soundness, router determinism, gateway-table pricing, the
//! two-phase commit's no-leak guarantees, and the engine contract the
//! daemon relies on at one shard (counters, residual reuse, faults,
//! reclaim, rejection split, parity with the lifecycle kernel).

use std::sync::Arc;

use dagsfc_net::{CommitLedger, FaultEvent, LinkId, Network, NodeId};
use dagsfc_shard::{
    GatewayTable, RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, ShardedStats,
};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, embed_and_commit, Algo, SimConfig};
use proptest::prelude::*;

fn cfg(nodes: usize, seed: u64) -> SimConfig {
    SimConfig {
        network_size: nodes,
        sfc_size: 4,
        vnf_capacity: 6.0,
        link_capacity: 6.0,
        seed,
        ..SimConfig::default()
    }
}

#[test]
fn partition_covers_every_node_with_contiguous_balanced_regions() {
    let net = instance_network(&cfg(41, 0xA1));
    for shards in [1usize, 2, 3, 4, 7] {
        let plan = ShardPlan::partition(&net, shards).expect("partition");
        assert_eq!(plan.shards(), shards);
        let mut sizes = vec![0usize; shards];
        let mut prev = 0usize;
        for v in 0..net.node_count() {
            let s = plan.shard_of(NodeId(v as u32));
            assert!(s < shards, "node {v} assigned out-of-range shard {s}");
            assert!(s >= prev, "regions must be contiguous in node-id order");
            prev = s;
            sizes[s] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), net.node_count());
        for (s, &size) in sizes.iter().enumerate() {
            assert!(size > 0, "shard {s} is empty");
            assert_eq!(size, plan.shard_size(s));
        }
    }
}

#[test]
fn partition_rejects_degenerate_shard_counts() {
    let net = instance_network(&cfg(10, 0xA2));
    assert!(ShardPlan::partition(&net, 0).is_err());
    assert!(ShardPlan::partition(&net, 11).is_err());
    assert!(ShardPlan::partition(&net, 10).is_ok());
}

#[test]
fn cross_links_are_owned_by_min_shard_and_mark_gateways() {
    let net = instance_network(&cfg(50, 0xA3));
    let plan = ShardPlan::partition(&net, 4).expect("partition");
    let mut saw_cross = false;
    for l in 0..net.link_count() {
        let link = LinkId(l as u32);
        let e = net.link(link);
        let (sa, sb) = (plan.shard_of(e.a), plan.shard_of(e.b));
        assert_eq!(plan.owner_of(link), sa.min(sb), "owner must be min shard");
        assert_eq!(plan.is_cross(link), sa != sb);
        if sa != sb {
            saw_cross = true;
            assert!(plan.cross_links().contains(&link));
            assert!(
                plan.gateways(sa).contains(&e.a) && plan.gateways(sb).contains(&e.b),
                "both endpoints of cross link {link:?} must be gateways"
            );
        }
    }
    assert!(saw_cross, "a 4-way split of a connected net must cut links");
    for s in 0..4 {
        let gs = plan.gateways(s);
        assert!(!gs.is_empty(), "shard {s} has no gateway");
        assert!(gs.windows(2).all(|w| w[0] < w[1]), "gateways sorted+dedup");
    }
}

#[test]
fn gateway_table_prices_every_reachable_region_pair() {
    let net = instance_network(&cfg(50, 0xA4));
    let plan = ShardPlan::partition(&net, 3).expect("partition");
    let table = GatewayTable::build(&net, &plan);
    assert!(table.corridor_count() > 0);
    for home in 0..3 {
        for dst in 0..3 {
            if home == dst {
                assert!(table.corridor(home, dst).is_none());
                continue;
            }
            let route = table
                .corridor(home, dst)
                .expect("connected net: every region pair must have a corridor");
            assert_eq!(plan.shard_of(route.from), home);
            assert_eq!(plan.shard_of(route.to), dst);
            assert!(route.price >= 0.0 && route.price.is_finite());
            assert!(
                !route.path.links().is_empty(),
                "a corridor between distinct regions crosses at least one link"
            );
        }
    }
}

/// 2PC embeds across two regions, and release drains every shard's
/// ledger back to zero — no half-committed reservations survive.
#[test]
fn two_phase_commit_and_release_leave_no_residue() {
    let sim = cfg(40, 0xA5);
    let net = instance_network(&sim);
    let plan = ShardPlan::partition(&net, 2).expect("partition");
    let router = ShardRouter::new(RoutePolicy::SourceAffinity);
    let mut engine = ShardedEngine::new(&net, plan, router);

    let mut leases = Vec::new();
    for i in 0..20u64 {
        let (sfc, flow) = instance_request(&sim, &net, i as usize);
        if let Ok(acc) = engine.embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i as usize)) {
            assert!(acc.shards_involved >= 1 && acc.shards_involved <= 2);
            leases.push(acc.lease);
        }
    }
    let stats = engine.stats();
    assert!(stats.accepted > 0, "some arrivals must commit");
    assert_eq!(stats.audits_failed, 0, "audits must pass on the way in");
    assert!(
        stats.cross_shard_accepted > 0,
        "a 2-way split must accept at least one stitched embedding"
    );

    for lease in leases {
        engine.release(lease).expect("release");
        assert!(!engine.is_active(lease));
    }
    let drained: ShardedStats = engine.stats();
    assert_eq!(drained.active_leases, 0);
    assert!(
        drained.outstanding_load.abs() < 1e-9,
        "leak after full drain: {}",
        drained.outstanding_load
    );
    for lane in &drained.per_shard {
        assert!(
            lane.outstanding_load.abs() < 1e-9,
            "shard {} leaked {}",
            lane.shard,
            lane.outstanding_load
        );
    }
}

/// A rejection — solver or audit — must not move any ledger: epochs and
/// outstanding loads are byte-identical before and after.
#[test]
fn rejections_leave_every_ledger_untouched() {
    let sim = SimConfig {
        vnf_capacity: 0.4, // too small for any unit-rate chain
        link_capacity: 0.4,
        ..cfg(30, 0xA6)
    };
    let net = instance_network(&sim);
    let plan = ShardPlan::partition(&net, 3).expect("partition");
    let mut engine = ShardedEngine::new(&net, plan, ShardRouter::default());
    let before: Vec<(u64, f64)> = engine
        .stats()
        .per_shard
        .iter()
        .map(|l| (l.epoch, l.outstanding_load))
        .collect();
    let mut rejections = 0;
    for i in 0..10usize {
        let (sfc, flow) = instance_request(&sim, &net, i);
        if engine
            .embed(&sfc, &flow, Algo::Mbbe, arrival_seed(sim.seed, i))
            .is_err()
        {
            rejections += 1;
        }
    }
    assert!(rejections > 0, "starved substrate must reject something");
    let after: Vec<(u64, f64)> = engine
        .stats()
        .per_shard
        .iter()
        .map(|l| (l.epoch, l.outstanding_load))
        .collect();
    assert_eq!(before, after, "rejections must not advance any ledger");
}

/// A single-shard engine: the configuration the daemon serves by default.
fn one_shard(net: &Network) -> ShardedEngine<'_> {
    let plan = ShardPlan::partition(net, 1).expect("partition");
    ShardedEngine::new(net, plan, ShardRouter::default())
}

fn unit_cfg() -> SimConfig {
    SimConfig {
        network_size: 24,
        sfc_size: 3,
        vnf_capacity: 8.0,
        link_capacity: 8.0,
        seed: 0xE46,
        ..SimConfig::default()
    }
}

#[test]
fn one_shard_embed_release_cycle_updates_counters() {
    let c = unit_cfg();
    let net = instance_network(&c);
    let mut engine = one_shard(&net);
    let (sfc, flow) = instance_request(&c, &net, 0);
    let a = engine
        .embed(&sfc, &flow, Algo::Minv, arrival_seed(c.seed, 0))
        .expect("fresh network admits");
    assert!(engine.is_active(a.lease));
    assert_eq!(engine.active_leases(), 1);

    let stats = engine.stats();
    assert_eq!((stats.accepted, stats.rejected), (1, 0));
    assert_eq!(stats.audits_run, 1, "every commit is audited");
    assert_eq!(stats.audits_failed, 0);
    assert!(stats.total_cost > 0.0);
    assert!(stats.outstanding_load > 0.0);
    assert_eq!(stats.per_algo.len(), 1);
    assert_eq!(stats.per_algo[0].0, "MINV");
    assert_eq!(stats.per_algo[0].1, 1);

    engine.release(a.lease).expect("release");
    let stats = engine.stats();
    assert_eq!(stats.active_leases, 0);
    assert_eq!(stats.released, 1);
    assert!(stats.outstanding_load.abs() < 1e-12);
}

#[test]
fn one_shard_residual_is_reused_until_the_epoch_moves() {
    let c = unit_cfg();
    let net = instance_network(&c);
    let mut engine = one_shard(&net);
    let before = engine.unpartitioned_residual();
    assert!(Arc::ptr_eq(&before, &engine.unpartitioned_residual()));
    let (sfc, flow) = instance_request(&c, &net, 0);
    engine
        .embed(&sfc, &flow, Algo::Minv, arrival_seed(c.seed, 0))
        .expect("fresh network admits");
    // The commit bumped the epoch: a new snapshot must be built.
    assert!(!Arc::ptr_eq(&before, &engine.unpartitioned_residual()));
}

#[test]
fn one_shard_fault_blocks_then_recovers() {
    let c = unit_cfg();
    let net = instance_network(&c);
    let mut engine = one_shard(&net);
    let (sfc, flow) = instance_request(&c, &net, 0);
    let seed = arrival_seed(c.seed, 0);

    // Every node down: no embedding can commit.
    for n in 0..net.node_count() {
        let node = NodeId(n as u32);
        assert!(engine.apply_fault(&FaultEvent::NodeDown { node }).unwrap());
    }
    let before = engine.unpartitioned_residual();
    assert!(engine.embed(&sfc, &flow, Algo::Minv, seed).is_err());

    for n in 0..net.node_count() {
        let node = NodeId(n as u32);
        engine.apply_fault(&FaultEvent::NodeUp { node }).unwrap();
    }
    assert!(!Arc::ptr_eq(&before, &engine.unpartitioned_residual()));
    engine
        .embed(&sfc, &flow, Algo::Minv, seed)
        .expect("recovered substrate admits");
    let stats = engine.stats();
    assert_eq!(stats.faults_applied, 2 * net.node_count() as u64);
    assert_eq!(stats.audits_failed, 0);
}

#[test]
fn one_shard_reclaim_frees_only_that_owners_leases() {
    let c = unit_cfg();
    let net = instance_network(&c);
    let mut engine = one_shard(&net);
    let mut embed_as = |owner: u64, arrival: usize| {
        engine.set_request_owner(Some(owner));
        let (sfc, flow) = instance_request(&c, &net, arrival);
        let lease = engine
            .embed(&sfc, &flow, Algo::Minv, arrival_seed(c.seed, arrival))
            .expect("admits")
            .lease;
        engine.set_request_owner(None);
        lease
    };
    let a = embed_as(7, 0);
    let b = embed_as(8, 1);

    assert_eq!(engine.reclaim_owner(7), vec![a]);
    assert!(!engine.is_active(a));
    assert!(engine.is_active(b), "other owner untouched");
    assert_eq!(engine.stats().orphans_reclaimed, 1);
    assert!(engine.reclaim_owner(7).is_empty());
}

#[test]
fn one_shard_rejections_split_deadline_rule_and_capacity() {
    let c = unit_cfg();
    let net = instance_network(&c);
    let mut engine = one_shard(&net);
    let (sfc, flow) = instance_request(&c, &net, 0);
    let seed = arrival_seed(c.seed, 0);

    // Generated links carry ~10 µs each: a 0.001 µs budget is provably
    // deadline-infeasible.
    let mut strict = flow;
    strict.delay_budget_us = Some(0.001);
    let e = engine.embed(&sfc, &strict, Algo::Mbbe, seed).unwrap_err();
    assert!(e.is_deadline_infeasible(), "{e}");

    let mut heavy = flow;
    heavy.rate = 1e9;
    let e = engine.embed(&sfc, &heavy, Algo::Mbbe, seed).unwrap_err();
    assert!(
        !e.is_deadline_infeasible() && !e.is_rule_infeasible(),
        "{e}"
    );

    // A reflexive anti-affinity pair over an embedded kind never holds.
    let kind = sfc.layers()[0].vnfs()[0];
    let ruled = sfc.clone().with_rules(dagsfc_core::PlacementRules {
        affinity: vec![],
        anti_affinity: vec![(kind, kind)],
    });
    let e = engine.embed(&ruled, &flow, Algo::Mbbe, seed).unwrap_err();
    assert!(e.is_rule_infeasible() && !e.is_deadline_infeasible(), "{e}");

    let stats = engine.stats();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.rejected_rule, 1);
    assert_eq!(stats.rejected_capacity, 1);
    // The rejected attempts left the substrate untouched.
    engine
        .embed(&sfc, &flow, Algo::Mbbe, seed)
        .expect("best-effort request admits");
}

/// At one shard the engine decides exactly like the lifecycle kernel
/// `sim::embed_and_commit` on a single ledger, through saturation.
#[test]
fn one_shard_decisions_equal_the_lifecycle_kernel() {
    let c = SimConfig {
        network_size: 12,
        sfc_size: 3,
        vnf_capacity: 2.0,
        link_capacity: 2.0,
        seed: 0xE47,
        ..SimConfig::default()
    };
    let net = instance_network(&c);
    let mut engine = one_shard(&net);
    let mut ledger = CommitLedger::new(&net);
    let mut rejected = 0;
    for arrival in 0..20 {
        let (sfc, flow) = instance_request(&c, &net, arrival);
        let seed = arrival_seed(c.seed, arrival);
        let residual = ledger.residual();
        let direct = embed_and_commit(&mut ledger, &residual, &sfc, &flow, Algo::Minv, seed);
        let served = engine.embed(&sfc, &flow, Algo::Minv, seed);
        assert_eq!(direct.is_ok(), served.is_ok(), "arrival {arrival}");
        match (direct, served) {
            (Ok(d), Ok(s)) => assert_eq!(
                d.cost.total().to_bits(),
                s.cost.total().to_bits(),
                "arrival {arrival}"
            ),
            _ => rejected += 1,
        }
    }
    assert!(rejected > 0, "the tiny substrate must saturate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The router is a pure function of (plan, flow): same inputs, same
    /// shard, under both policies, regardless of construction order.
    #[test]
    fn router_assignment_is_pure_and_policy_faithful(
        seed in 0u64..1024,
        shards in 1usize..6,
        pairs in prop::collection::vec((0usize..40, 0usize..40), 1..20),
    ) {
        let net = instance_network(&cfg(40, seed));
        let plan = ShardPlan::partition(&net, shards).expect("partition");
        let src_router = ShardRouter::new(RoutePolicy::SourceAffinity);
        let dst_router = ShardRouter::new(RoutePolicy::DestinationAffinity);
        for (a, b) in pairs {
            let flow = dagsfc_core::Flow::unit(NodeId(a as u32), NodeId(b as u32));
            let s1 = src_router.assign(&plan, &flow);
            prop_assert_eq!(s1, src_router.assign(&plan, &flow));
            prop_assert_eq!(s1, plan.shard_of(flow.src));
            prop_assert_eq!(dst_router.assign(&plan, &flow), plan.shard_of(flow.dst));
        }
    }

    /// 2PC outcomes are a function of the admission order alone: two
    /// engines fed the same sequence agree bit-for-bit on every fate
    /// and cost, and interleaving releases does not disturb lease ids.
    #[test]
    fn two_phase_outcomes_are_deterministic(
        seed in 0u64..512,
        shards in 1usize..5,
        arrivals in 4usize..24,
    ) {
        let sim = cfg(36, seed);
        let net = instance_network(&sim);
        let mk = || {
            let plan = ShardPlan::partition(&net, shards).expect("partition");
            ShardedEngine::new(&net, plan, ShardRouter::default())
        };
        let mut one = mk();
        let mut two = mk();
        for i in 0..arrivals {
            let (sfc, flow) = instance_request(&sim, &net, i);
            let s = arrival_seed(sim.seed, i);
            let a = one.embed(&sfc, &flow, Algo::Mbbe, s);
            let b = two.embed(&sfc, &flow, Algo::Mbbe, s);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.lease, y.lease);
                    prop_assert_eq!(x.cost.total(), y.cost.total());
                    prop_assert_eq!(x.shards_involved, y.shards_involved);
                }
                (Err(x), Err(y)) => prop_assert_eq!(format!("{x:?}"), format!("{y:?}")),
                (x, y) => prop_assert!(false, "fates diverged: {:?} vs {:?}", x.is_ok(), y.is_ok()),
            }
        }
        let (sa, sb) = (one.stats(), two.stats());
        // Every commit was audited, and none failed.
        prop_assert_eq!(sa.audits_run, sa.accepted);
        prop_assert_eq!(sa.accepted, sb.accepted);
        prop_assert_eq!(sa.total_cost, sb.total_cost);
        prop_assert_eq!(sa.cross_shard_accepted, sb.cross_shard_accepted);
        prop_assert_eq!(sa.audits_failed, 0);
    }
}
