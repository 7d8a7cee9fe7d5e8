//! Overlay topology construction. Public blockchains use unstructured
//! overlays where "each peer is connected to a variable set of neighbors"
//! (§2.3); these builders produce the usual families, always guaranteeing
//! connectivity so gossip can reach every peer.

use crate::NodeId;
use dcs_sim::Rng;
use serde::{Deserialize, Serialize};

/// Overlay shapes available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Every peer connected to every other (small consortium networks).
    Complete,
    /// A ring: each peer linked to its two neighbors.
    Ring,
    /// Ring plus `k - 2` random extra links per node (connected, low
    /// diameter — the shape closest to real Bitcoin overlays).
    KRegular {
        /// Target degree (≥ 2).
        k: usize,
    },
    /// Erdős–Rényi: each pair linked independently with probability `p`,
    /// with a ring added underneath to guarantee connectivity.
    ErdosRenyi {
        /// Per-pair link probability.
        p: f64,
    },
    /// A hub-and-spoke star with node 0 at the center (the degenerate
    /// "centralized" overlay; useful as a decentralization baseline).
    Star,
}

/// Builds the adjacency lists for `n` nodes under the given topology.
/// Deterministic given the RNG state. Self-links and duplicates never occur.
///
/// # Panics
///
/// Panics if `n == 0`, or `k < 2` for `KRegular`.
pub fn build(topology: Topology, n: usize, rng: &mut Rng) -> Vec<Vec<NodeId>> {
    assert!(n > 0, "topology needs at least one node");
    let mut adj: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); n];
    let link = |adj: &mut Vec<std::collections::BTreeSet<usize>>, a: usize, b: usize| {
        if a != b {
            adj[a].insert(b);
            adj[b].insert(a);
        }
    };
    match topology {
        Topology::Complete => {
            for a in 0..n {
                for b in (a + 1)..n {
                    link(&mut adj, a, b);
                }
            }
        }
        Topology::Ring => {
            for a in 0..n {
                link(&mut adj, a, (a + 1) % n);
            }
        }
        Topology::KRegular { k } => {
            assert!(k >= 2, "k-regular needs k >= 2, got {k}");
            for a in 0..n {
                link(&mut adj, a, (a + 1) % n);
            }
            if n > 2 {
                for a in 0..n {
                    while adj[a].len() < k.min(n - 1) {
                        let b = rng.below(n as u64) as usize;
                        link(&mut adj, a, b);
                    }
                }
            }
        }
        Topology::ErdosRenyi { p } => {
            for a in 0..n {
                link(&mut adj, a, (a + 1) % n);
            }
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.chance(p) {
                        link(&mut adj, a, b);
                    }
                }
            }
        }
        Topology::Star => {
            for b in 1..n {
                link(&mut adj, 0, b);
            }
        }
    }
    adj.into_iter()
        .map(|set| set.into_iter().map(NodeId).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(99)
    }

    /// The overlay diameter (longest shortest path); `usize::MAX` when
    /// disconnected.
    fn diameter(adj: &[Vec<NodeId>]) -> usize {
        let n = adj.len();
        let mut best = 0;
        for start in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(a) = queue.pop_front() {
                for &NodeId(b) in &adj[a] {
                    if dist[b] == usize::MAX {
                        dist[b] = dist[a] + 1;
                        queue.push_back(b);
                    }
                }
            }
            best = best.max(dist.into_iter().max().unwrap_or(0));
        }
        best
    }

    fn connected(adj: &[Vec<NodeId>]) -> bool {
        diameter(adj) != usize::MAX
    }

    #[test]
    fn complete_topology() {
        let adj = build(Topology::Complete, 5, &mut rng());
        assert!(adj.iter().all(|nbrs| nbrs.len() == 4));
        assert!(connected(&adj));
        assert_eq!(diameter(&adj), 1);
    }

    #[test]
    fn ring_topology() {
        let adj = build(Topology::Ring, 6, &mut rng());
        assert!(adj.iter().all(|nbrs| nbrs.len() == 2));
        assert_eq!(diameter(&adj), 3);
    }

    #[test]
    fn k_regular_is_connected_with_degree_at_least_k() {
        let adj = build(Topology::KRegular { k: 4 }, 50, &mut rng());
        assert!(connected(&adj));
        assert!(adj.iter().all(|nbrs| nbrs.len() >= 4));
        // No self links, no duplicates (BTreeSet guarantees, but verify).
        for (a, nbrs) in adj.iter().enumerate() {
            assert!(!nbrs.contains(&NodeId(a)));
            let mut d = nbrs.clone();
            d.dedup();
            assert_eq!(d.len(), nbrs.len());
        }
    }

    #[test]
    fn k_regular_symmetric() {
        let adj = build(Topology::KRegular { k: 3 }, 20, &mut rng());
        for (a, nbrs) in adj.iter().enumerate() {
            for b in nbrs {
                assert!(adj[b.0].contains(&NodeId(a)), "link {a}-{b} not symmetric");
            }
        }
    }

    #[test]
    fn erdos_renyi_connected_even_at_p_zero() {
        let adj = build(Topology::ErdosRenyi { p: 0.0 }, 12, &mut rng());
        assert!(connected(&adj), "ring substrate keeps it connected");
    }

    #[test]
    fn star_topology() {
        let adj = build(Topology::Star, 9, &mut rng());
        assert_eq!(adj[0].len(), 8);
        assert!(adj[1..].iter().all(|nbrs| *nbrs == vec![NodeId(0)]));
        assert_eq!(diameter(&adj), 2);
    }

    #[test]
    fn single_node_graphs() {
        for t in [Topology::Complete, Topology::Ring, Topology::Star] {
            let adj = build(t, 1, &mut rng());
            assert!(adj[0].is_empty());
            assert!(connected(&adj));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(Topology::KRegular { k: 4 }, 30, &mut Rng::seed_from(5));
        let b = build(Topology::KRegular { k: 4 }, 30, &mut Rng::seed_from(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k_too_small_panics() {
        build(Topology::KRegular { k: 1 }, 5, &mut rng());
    }
}
