//! Resumable single-source price Dijkstra: a search that settles nodes
//! only as far as its queries need, and picks up where it stopped.
//!
//! The [`crate::PathOracle`] caches one [`ResumableTree`] per
//! `(source, capacity class)`. A path or distance query settles nodes
//! until its target is settled (or the reachable set is exhausted); a
//! later query on the same tree resumes the same search, and
//! `settle_until(.., None)` drains it. Solvers typically read only a
//! short prefix of a tree's settle order, so most trees never complete.
//!
//! **Bit-identical to a full build.** The frontier is an indexed binary
//! heap with decrease-key, ordered by `(dist total_cmp, node id)` —
//! the exact pop order of the lazy-deletion heap in
//! [`super::heap_fallback`]: for every queued node that heap's cheapest
//! live entry carries the node's current distance, so both pop the
//! same minimum. Relaxation uses the same strict `<` on the same `f64`
//! sums in the same arc order, and a node's arcs are relaxed when it is
//! settled, before the search may stop. A settled node's `dist` and
//! incoming link therefore never change again, and every answer equals
//! the one a complete [`super::ShortestPathTree`] build gives.
//!
//! **Memory.** Per node: `dist` (`f64`), the incoming link (`u32`; the
//! parent is the link's other end), the heap position (`u32`) and at
//! most one heap slot (`u32`, grown with the frontier) — at most 20 B,
//! no more than a finished `ShortestPathTree`. The heap and position
//! arrays are freed when the search completes, leaving 12 B per node.
//! This module holds its own queue and names no `BinaryHeap`.

use super::LinkFilter;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::snapshot::NetworkSnapshot;

/// Sentinel: no incoming link (the source, or an unreached node).
const NO_LINK: u32 = u32::MAX;
/// Sentinel heap position: the node is not queued.
const NOT_QUEUED: u32 = u32::MAX;

/// A price-weighted Dijkstra search from one source that can be
/// suspended after any settled node and resumed later.
///
/// The link filter is supplied on every resume; callers must pass a
/// filter with the same semantics for the lifetime of the tree (the
/// oracle drops its trees whenever its fault overlay changes).
#[derive(Debug, Clone)]
pub struct ResumableTree {
    source: NodeId,
    dist: Vec<f64>,
    via: Vec<u32>,
    /// Heap position per node, `NOT_QUEUED` when off the heap. Freed
    /// (empty) once the search completes.
    pos: Vec<u32>,
    /// Indexed binary min-heap of queued node ids. Empty exactly when
    /// the search is complete.
    heap: Vec<u32>,
}

impl ResumableTree {
    /// A search from `source` over `n` nodes with only the source
    /// queued; nothing is settled yet.
    pub fn new(n: usize, source: NodeId) -> Self {
        let mut tree = ResumableTree {
            source,
            dist: vec![f64::INFINITY; n],
            via: vec![NO_LINK; n],
            pos: vec![NOT_QUEUED; n],
            heap: Vec::new(),
        };
        tree.dist[source.index()] = 0.0;
        tree.push(source.0);
        tree
    }

    /// The search's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Whether every reachable node is settled.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `v`'s distance and incoming link are final.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        let i = v.index();
        self.dist[i].is_finite() && (self.pos.is_empty() || self.pos[i] == NOT_QUEUED)
    }

    /// Settles nodes until `target` is settled, or until the search is
    /// complete when `target` is `None` or unreachable. Returns the
    /// number of nodes settled by this call.
    pub fn settle_until<F: LinkFilter>(
        &mut self,
        snap: &NetworkSnapshot,
        filter: &F,
        target: Option<NodeId>,
    ) -> u64 {
        if let Some(t) = target {
            if self.is_settled(t) {
                return 0;
            }
        }
        let mut settled = 0u64;
        while let Some(u) = self.pop() {
            settled += 1;
            let node = NodeId(u);
            let d = self.dist[u as usize];
            for i in snap.arc_range(node) {
                let next = snap.arc_target(i);
                let link = snap.arc_link(i);
                if self.is_settled(next) || !filter.allows(link) {
                    continue;
                }
                let nd = d + snap.arc_price(i);
                let j = next.index();
                if nd < self.dist[j] {
                    self.dist[j] = nd;
                    self.via[j] = link.0;
                    if self.pos[j] == NOT_QUEUED {
                        self.push(next.0);
                    } else {
                        self.sift_up(self.pos[j] as usize);
                    }
                }
            }
            if target == Some(node) {
                break;
            }
        }
        if self.heap.is_empty() {
            // Complete: the frontier state is dead weight from here on.
            self.heap = Vec::new();
            self.pos = Vec::new();
        }
        settled
    }

    /// Price of the cheapest path to a settled `v`; `None` when `v` is
    /// not settled (unreachable, once the search is complete).
    pub fn dist_to(&self, v: NodeId) -> Option<f64> {
        self.is_settled(v).then(|| self.dist[v.index()])
    }

    /// The cheapest path from the source to a settled `v`, walking the
    /// incoming links of `net` back to the source.
    pub fn path_to(&self, net: &Network, v: NodeId) -> Option<Path> {
        if !self.is_settled(v) {
            return None;
        }
        let mut nodes = vec![v];
        let mut links = Vec::new();
        let mut cur = v;
        while let Some((p, l)) = self.parent(net, cur) {
            nodes.push(p);
            links.push(l);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        links.reverse();
        // Contiguity holds by construction of the incoming-link chain.
        Some(Path::from_parts_unchecked(nodes, links))
    }

    /// `(parent, link)` of `v`: the far end of its incoming link.
    #[inline]
    pub fn parent(&self, net: &Network, v: NodeId) -> Option<(NodeId, LinkId)> {
        let l = self.via[v.index()];
        if l == NO_LINK {
            return None;
        }
        let link = net.link(LinkId(l));
        let p = if link.a == v { link.b } else { link.a };
        Some((p, LinkId(l)))
    }

    /// Total order of the frontier: distance, then node id.
    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        self.dist[a as usize]
            .total_cmp(&self.dist[b as usize])
            .then(a.cmp(&b))
            .is_lt()
    }

    fn push(&mut self, v: u32) {
        let at = self.heap.len();
        if at == self.heap.capacity() {
            // Grow geometrically, but never past one slot per node: a
            // partial search keeps only the frontier it has reached.
            let room = self.pos.len() - at;
            self.heap.reserve_exact(at.max(8).min(room));
        }
        self.heap.push(v);
        self.pos[v as usize] = at as u32;
        self.sift_up(at);
    }

    fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        // lint:allow(expect) — invariant: the heap is non-empty here
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = NOT_QUEUED;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut at: usize) {
        let v = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            let p = self.heap[parent];
            if !self.less(v, p) {
                break;
            }
            self.heap[at] = p;
            self.pos[p as usize] = at as u32;
            at = parent;
        }
        self.heap[at] = v;
        self.pos[v as usize] = at as u32;
    }

    fn sift_down(&mut self, mut at: usize) {
        let v = self.heap[at];
        let len = self.heap.len();
        loop {
            let left = 2 * at + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.less(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.less(c, v) {
                break;
            }
            self.heap[at] = c;
            self.pos[c as usize] = at as u32;
            at = child;
        }
        self.heap[at] = v;
        self.pos[v as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{NoFilter, RoutingScratch, ShortestPathTree};

    /// Diamond: 0-1 (1.0), 0-2 (0.4), 1-3 (1.0), 2-3 (0.4), 1-2 (0.1).
    fn diamond() -> Network {
        let mut g = Network::new();
        g.add_nodes(5);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 0.4, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 0.4, 1.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 0.1, 10.0).unwrap();
        g
    }

    #[test]
    fn stops_at_the_target_and_resumes_to_the_full_tree() {
        let g = diamond();
        let snap = g.snapshot();
        let mut t = ResumableTree::new(g.node_count(), NodeId(0));
        assert!(!t.is_settled(NodeId(0)));
        // Settle order: 0 (0.0), 2 (0.4), 1 (0.5), 3 (0.8).
        assert_eq!(t.settle_until(snap, &NoFilter, Some(NodeId(2))), 2);
        assert!(t.is_settled(NodeId(2)));
        assert!(!t.is_settled(NodeId(3)));
        assert_eq!(t.dist_to(NodeId(3)), None);
        assert_eq!(t.settle_until(snap, &NoFilter, Some(NodeId(2))), 0);
        assert_eq!(t.settle_until(snap, &NoFilter, None), 2);
        assert!(t.is_complete());
        let full =
            ShortestPathTree::build_in(&g, NodeId(0), &NoFilter, None, &mut RoutingScratch::new());
        for v in g.node_ids() {
            assert_eq!(
                t.dist_to(v).map(f64::to_bits),
                full.dist_to(v).map(f64::to_bits)
            );
            assert_eq!(t.path_to(&g, v), full.path_to(v));
        }
        // Node 4 is isolated: unreachable once complete.
        assert_eq!(t.dist_to(NodeId(4)), None);
        assert_eq!(t.path_to(&g, NodeId(4)), None);
    }

    #[test]
    fn unreachable_target_completes_the_search() {
        let g = diamond();
        let mut t = ResumableTree::new(g.node_count(), NodeId(0));
        assert_eq!(t.settle_until(g.snapshot(), &NoFilter, Some(NodeId(4))), 4);
        assert!(t.is_complete());
        assert_eq!(t.settle_until(g.snapshot(), &NoFilter, None), 0);
    }
}
