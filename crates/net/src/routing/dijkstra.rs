//! Min-cost (price-weighted) shortest paths via Dijkstra's algorithm.
//!
//! Link prices are the edge weights; all prices are finite and
//! non-negative by construction ([`crate::Network::add_link`] validates
//! this), so Dijkstra's preconditions hold.
//!
//! The search runs over the network's cached CSR
//! [`NetworkSnapshot`](crate::NetworkSnapshot) — a flat
//! struct-of-arrays adjacency whose arc order matches
//! [`Network::neighbors`] exactly, so results are bit-identical to the
//! historical adjacency-list implementation — and keeps its working
//! state in an epoch-tagged [`RoutingScratch`], making steady-state
//! searches allocation-free. Entry points without a scratch parameter
//! borrow a per-thread scratch transparently.

use super::resumable::ResumableTree;
use super::scratch::{with_thread_scratch, RoutingScratch};
use super::{bucket, heap_fallback, quant, LinkFilter};
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::snapshot::NetworkSnapshot;

/// Which priority-queue kernel a weighted search runs on.
///
/// `Auto` — the default everywhere — takes the monotone bucket queue
/// whenever the active weight axis quantizes losslessly (see
/// [`super::quant`]) and the binary-heap fallback otherwise; the two
/// produce bit-identical trees. `Heap` forces the fallback: it exists
/// for the differential tests and the bench microbench that pin the
/// bucket kernel against the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingKernel {
    /// Bucket queue when lossless quantization is available, else heap.
    #[default]
    Auto,
    /// Always the binary-heap reference kernel.
    Heap,
}

/// Which per-arc scalar a weighted tree build minimizes.
///
/// `Price` is the classic min-cost search; `Delay` minimizes the summed
/// link propagation delay; `Lagrange(λ)` minimizes the LARAC aggregate
/// `price + λ·delay` used by the delay-constrained oracle mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArcWeight {
    /// Link price `c_e`.
    Price,
    /// Link propagation delay `d_e` (microseconds).
    Delay,
    /// The Lagrangian aggregate `c_e + λ·d_e`.
    Lagrange(f64),
}

impl ArcWeight {
    /// The weight of arc `i` under this criterion.
    #[inline]
    pub(crate) fn of(self, snap: &NetworkSnapshot, i: usize) -> f64 {
        match self {
            ArcWeight::Price => snap.arc_price(i),
            ArcWeight::Delay => snap.arc_delay(i),
            ArcWeight::Lagrange(lambda) => snap.arc_price(i) + lambda * snap.arc_delay(i),
        }
    }

    /// A stable cache key: `Price` and `Delay` are reserved sentinels,
    /// `Lagrange(λ)` keys on the bits of λ.
    #[inline]
    pub fn cache_key(self) -> u64 {
        match self {
            ArcWeight::Price => u64::MAX,
            ArcWeight::Delay => u64::MAX - 1,
            ArcWeight::Lagrange(lambda) => lambda.to_bits(),
        }
    }
}

/// Runs the CSR Dijkstra loop, leaving distances/predecessors in
/// `scratch` under a fresh epoch.
pub(crate) fn search_in<F: LinkFilter>(
    snap: &NetworkSnapshot,
    source: NodeId,
    filter: &F,
    target: Option<NodeId>,
    scratch: &mut RoutingScratch,
) {
    search_weighted_in(snap, source, filter, target, scratch, ArcWeight::Price)
}

/// The weighted CSR Dijkstra search under the default [`RoutingKernel::Auto`]
/// dispatch.
pub(crate) fn search_weighted_in<F: LinkFilter>(
    snap: &NetworkSnapshot,
    source: NodeId,
    filter: &F,
    target: Option<NodeId>,
    scratch: &mut RoutingScratch,
    weight: ArcWeight,
) {
    search_weighted_kernel_in(
        snap,
        source,
        filter,
        target,
        scratch,
        weight,
        RoutingKernel::Auto,
    )
}

/// Kernel dispatch for the weighted CSR Dijkstra search.
///
/// Under `Auto`, `Price`/`Delay` weights ride the quantization plans
/// precomputed at snapshot build time; `Lagrange(λ)` attempts a
/// per-query quantization of the blended weights — gated on both base
/// axes being quantizable so the common non-dyadic case rejects after
/// inspecting a single arc — into a scratch-owned buffer. Whenever no
/// lossless plan exists, the search falls back to the binary-heap
/// reference loop; either way the resulting tree is bit-identical.
pub(crate) fn search_weighted_kernel_in<F: LinkFilter>(
    snap: &NetworkSnapshot,
    source: NodeId,
    filter: &F,
    target: Option<NodeId>,
    scratch: &mut RoutingScratch,
    weight: ArcWeight,
    kernel: RoutingKernel,
) {
    if kernel == RoutingKernel::Auto {
        match weight {
            ArcWeight::Price => {
                if let Some(plan) = snap.price_quant() {
                    return bucket::search_quantized_in(
                        snap,
                        source,
                        filter,
                        target,
                        scratch,
                        &plan.weights,
                        plan.scale,
                    );
                }
            }
            ArcWeight::Delay => {
                if let Some(plan) = snap.delay_quant() {
                    return bucket::search_quantized_in(
                        snap,
                        source,
                        filter,
                        target,
                        scratch,
                        &plan.weights,
                        plan.scale,
                    );
                }
            }
            ArcWeight::Lagrange(lambda) => {
                if snap.price_quant().is_some() && snap.delay_quant().is_some() {
                    let mut qw = std::mem::take(&mut scratch.lagrange_qw);
                    let scale = quant::quantize_into(
                        (0..snap.arc_count())
                            .map(|i| snap.arc_price(i) + lambda * snap.arc_delay(i)),
                        &mut qw,
                    );
                    if let Some(scale) = scale {
                        bucket::search_quantized_in(
                            snap, source, filter, target, scratch, &qw, scale,
                        );
                        scratch.lagrange_qw = qw;
                        return;
                    }
                    scratch.lagrange_qw = qw;
                }
            }
        }
    }
    heap_fallback::search_weighted_heap_in(snap, source, filter, target, scratch, weight)
}

/// Whether an [`RoutingKernel::Auto`] search over `net` under `weight`
/// would run on the bucket kernel. Diagnostic for tests and the bench
/// microbench; the `Lagrange` case performs a full trial quantization.
pub fn bucket_kernel_available(net: &Network, weight: ArcWeight) -> bool {
    let snap: &NetworkSnapshot = net.snapshot();
    match weight {
        ArcWeight::Price => snap.price_quant().is_some(),
        ArcWeight::Delay => snap.delay_quant().is_some(),
        ArcWeight::Lagrange(lambda) => {
            snap.price_quant().is_some()
                && snap.delay_quant().is_some()
                && quant::quantize_into(
                    (0..snap.arc_count()).map(|i| snap.arc_price(i) + lambda * snap.arc_delay(i)),
                    &mut Vec::new(),
                )
                .is_some()
        }
    }
}

/// A single-source shortest-path tree, answering distance and path queries
/// to every reachable node.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source`, using only links admitted by `filter`.
    ///
    /// With an early `target`, the search stops as soon as the target is
    /// settled (remaining distances stay `f64::INFINITY`).
    pub fn build<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
    ) -> Self {
        with_thread_scratch(|scratch| Self::build_in(net, source, filter, target, scratch))
    }

    /// Like [`build`](Self::build), but runs in a caller-provided
    /// scratch so repeated builds (oracle cache fills, Steiner rounds)
    /// reuse one set of working buffers.
    pub fn build_in<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
        scratch: &mut RoutingScratch,
    ) -> Self {
        Self::build_weighted_in(net, source, filter, target, scratch, ArcWeight::Price)
    }

    /// Builds the tree under an explicit [`ArcWeight`] criterion. The
    /// LARAC oracle mode uses this with `Delay` and `Lagrange(λ)`
    /// weights; `Price` reproduces [`build_in`](Self::build_in) exactly.
    ///
    /// `dist` values are *weights* under the chosen criterion, not
    /// prices — evaluate returned paths with [`Path::price`] /
    /// [`Path::delay_us`] when both axes matter.
    pub fn build_weighted_in<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
        scratch: &mut RoutingScratch,
        weight: ArcWeight,
    ) -> Self {
        Self::build_weighted_kernel_in(
            net,
            source,
            filter,
            target,
            scratch,
            weight,
            RoutingKernel::Auto,
        )
    }

    /// Like [`build_weighted_in`](Self::build_weighted_in) with an
    /// explicit kernel choice. Production callers use `Auto`; `Heap`
    /// pins the reference kernel for differential tests and the bench
    /// microbench.
    pub fn build_weighted_kernel_in<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
        scratch: &mut RoutingScratch,
        weight: ArcWeight,
        kernel: RoutingKernel,
    ) -> Self {
        let snap: &NetworkSnapshot = net.snapshot();
        search_weighted_kernel_in(snap, source, filter, target, scratch, weight, kernel);
        let n = snap.node_count();
        let mut dist = Vec::with_capacity(n);
        let mut prev = Vec::with_capacity(n);
        for v in 0..n as u32 {
            dist.push(scratch.dist(NodeId(v)));
            prev.push(scratch.prev_of(NodeId(v)));
        }
        ShortestPathTree { source, dist, prev }
    }

    /// The finished tree of a complete [`ResumableTree`] search.
    pub(crate) fn from_resumable(net: &Network, search: &ResumableTree) -> Self {
        debug_assert!(search.is_complete());
        let n = net.node_count();
        let mut dist = Vec::with_capacity(n);
        let mut prev = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let v = NodeId(v);
            dist.push(search.dist_to(v).unwrap_or(f64::INFINITY));
            prev.push(search.parent(net, v));
        }
        ShortestPathTree {
            source: search.source(),
            dist,
            prev,
        }
    }

    /// The tree's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Total price of the cheapest path to `node`, if reachable.
    pub fn dist_to(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// The cheapest path from the source to `node`, if reachable.
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        if !self.dist[node.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![node];
        let mut links = Vec::new();
        let mut cur = node;
        while let Some((p, l)) = self.prev[cur.index()] {
            nodes.push(p);
            links.push(l);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        links.reverse();
        // Contiguity holds by construction of the predecessor chain.
        Some(Path::from_parts_unchecked(nodes, links))
    }
}

/// Cheapest path from `from` to `to` using only links admitted by `filter`.
///
/// Returns `None` when `to` is unreachable. A query with `from == to`
/// yields the zero-length trivial path.
pub fn min_cost_path<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
) -> Option<Path> {
    with_thread_scratch(|scratch| min_cost_path_in(net, from, to, filter, scratch))
}

/// Like [`min_cost_path`], but runs in a caller-provided scratch: the
/// only allocation in the steady state is the returned [`Path`].
pub fn min_cost_path_in<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
    scratch: &mut RoutingScratch,
) -> Option<Path> {
    if from == to {
        return Some(Path::trivial(from));
    }
    let snap: &NetworkSnapshot = net.snapshot();
    search_in(snap, from, filter, Some(to), scratch);
    scratch.extract_path(from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::NoFilter;
    use crate::routing::RateFilter;
    use crate::state::NetworkState;

    /// Diamond: 0-1 (1.0), 0-2 (0.4), 1-3 (1.0), 2-3 (0.4), 1-2 (0.1).
    fn diamond() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 0.4, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 0.4, 1.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 0.1, 10.0).unwrap();
        g
    }

    #[test]
    fn picks_cheapest_not_fewest_hops() {
        let g = diamond();
        let p = min_cost_path(&g, NodeId(0), NodeId(3), &NoFilter).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert!((p.price(&g) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn trivial_query() {
        let g = diamond();
        let p = min_cost_path(&g, NodeId(2), NodeId(2), &NoFilter).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.source(), NodeId(2));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Network::new();
        g.add_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        assert!(min_cost_path(&g, NodeId(0), NodeId(2), &NoFilter).is_none());
    }

    #[test]
    fn filter_reroutes_around_saturated_link() {
        let g = diamond();
        let mut s = NetworkState::new(&g);
        s.reserve_link(LinkId(3), 1.0).unwrap(); // saturate 2-3
        let f = RateFilter::new(&s, 0.5);
        let p = min_cost_path(&g, NodeId(0), NodeId(3), &f).unwrap();
        // Cheapest remaining: 0-2 (0.4) + 2-1 (0.1) + 1-3 (1.0) = 1.5.
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]);
        assert!((p.price(&g) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn filter_can_disconnect() {
        let g = diamond();
        let never = |_l: LinkId| false;
        assert!(min_cost_path(&g, NodeId(0), NodeId(3), &never).is_none());
    }

    #[test]
    fn tree_answers_all_targets() {
        let g = diamond();
        let t = ShortestPathTree::build(&g, NodeId(0), &NoFilter, None);
        assert_eq!(t.source(), NodeId(0));
        assert!((t.dist_to(NodeId(1)).unwrap() - 0.5).abs() < 1e-12); // via 2
        assert!((t.dist_to(NodeId(2)).unwrap() - 0.4).abs() < 1e-12);
        assert!((t.dist_to(NodeId(3)).unwrap() - 0.8).abs() < 1e-12);
        let p1 = t.path_to(NodeId(1)).unwrap();
        assert_eq!(p1.nodes(), &[NodeId(0), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn path_price_matches_tree_distance() {
        let g = diamond();
        let t = ShortestPathTree::build(&g, NodeId(3), &NoFilter, None);
        for n in g.node_ids() {
            let d = t.dist_to(n).unwrap();
            let p = t.path_to(n).unwrap();
            assert!((p.price(&g) - d).abs() < 1e-12);
            assert_eq!(p.source(), NodeId(3));
            assert_eq!(p.target(), n);
            assert!(!p.has_node_cycle());
        }
    }

    #[test]
    fn shared_scratch_reproduces_per_call_results() {
        let g = diamond();
        let mut scratch = RoutingScratch::new();
        for from in g.node_ids() {
            for to in g.node_ids() {
                let fresh = min_cost_path(&g, from, to, &NoFilter);
                let reused = min_cost_path_in(&g, from, to, &NoFilter, &mut scratch);
                match (fresh, reused) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.nodes(), b.nodes());
                        assert_eq!(a.links(), b.links());
                    }
                    (a, b) => assert_eq!(a.is_none(), b.is_none()),
                }
            }
        }
    }
}
