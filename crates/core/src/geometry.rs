//! Cluster geometry and the inter-cluster interconnect.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The most clusters the engine supports: the bound of its fixed-size
/// per-cluster arrays (see `EngineStats::executed_per_cluster`) and the
/// capacity of a [`ClusterList`].
pub const MAX_CLUSTERS: u8 = 8;

/// Interconnect topology between clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Clusters form a chain `0 – 1 – … – n-1`; the end clusters do not
    /// communicate directly (the paper's baseline).
    #[default]
    Linear,
    /// Clusters form a ring, so clusters `0` and `n-1` are adjacent (the
    /// paper's "mesh network" variant, which eliminates three-cluster
    /// communication for four clusters).
    Ring,
    /// Every pair of distinct clusters is one hop apart — an idealised
    /// point-to-point interconnect (Parcerisa et al., cited by the paper
    /// as the preferred alternative to buses).
    FullyConnected,
}

/// The shape of the clustered core: how many clusters, how many issue
/// slots each receives per fetch group, and how they are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterGeometry {
    /// Number of clusters (the paper: 4; robustness study: 2).
    pub clusters: u8,
    /// Issue slots per cluster per fetch group (4).
    pub slots_per_cluster: u8,
    /// Interconnect topology.
    pub topology: Topology,
}

impl Default for ClusterGeometry {
    fn default() -> Self {
        ClusterGeometry {
            clusters: 4,
            slots_per_cluster: 4,
            topology: Topology::Linear,
        }
    }
}

impl ClusterGeometry {
    /// Total issue slots per fetch group (= trace line capacity).
    pub fn total_slots(&self) -> usize {
        self.clusters as usize * self.slots_per_cluster as usize
    }

    /// The cluster that issue slot `slot` feeds.
    pub fn cluster_of_slot(&self, slot: u8) -> u8 {
        slot / self.slots_per_cluster
    }

    /// Number of cluster hops data must traverse from `from` to `to`.
    pub fn distance(&self, from: u8, to: u8) -> u8 {
        debug_assert!(from < self.clusters && to < self.clusters);
        let d = from.abs_diff(to);
        match self.topology {
            Topology::Linear => d,
            Topology::Ring => d.min(self.clusters - d),
            Topology::FullyConnected => d.min(1),
        }
    }

    /// Clusters at distance 1 from `c`, nearest-to-centre first (ties
    /// by index), as an inline list: steering and FDRT placement ask for
    /// it once per instruction, so it never touches the heap.
    pub fn neighbors(&self, c: u8) -> ClusterList {
        let mut n: ClusterList = (0..self.clusters)
            .filter(|&o| self.distance(c, o) == 1)
            .collect();
        n.sort_unstable_by_key(|&o| (self.centrality(o), o));
        n
    }

    /// A centrality score: the maximum distance from `c` to any cluster
    /// (lower = more central).
    pub fn centrality(&self, c: u8) -> u8 {
        (0..self.clusters)
            .map(|o| self.distance(c, o))
            .max()
            .unwrap_or(0)
    }

    /// All clusters ordered most-central first (the "middle clusters" the
    /// FDRT strategy funnels unattached producers to), ties broken by
    /// index.
    pub fn middle_order(&self) -> ClusterList {
        let mut order: ClusterList = (0..self.clusters).collect();
        order.sort_unstable_by_key(|&c| (self.centrality(c), c));
        order
    }
}

/// An ordered list of at most [`MAX_CLUSTERS`] cluster ids, held inline
/// (`Copy`, no heap). Derefs to `[u8]`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterList {
    len: u8,
    ids: [u8; MAX_CLUSTERS as usize],
}

impl ClusterList {
    /// Appends `c`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_CLUSTERS`] ids.
    pub fn push(&mut self, c: u8) {
        assert!(self.len < MAX_CLUSTERS, "cluster list is full");
        self.ids[self.len as usize] = c;
        self.len += 1;
    }

    /// Appends `c` unless the list already holds it.
    pub fn push_unique(&mut self, c: u8) {
        if !self.contains(&c) {
            self.push(c);
        }
    }
}

impl Deref for ClusterList {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.ids[..self.len as usize]
    }
}

impl DerefMut for ClusterList {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.ids[..self.len as usize]
    }
}

impl FromIterator<u8> for ClusterList {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut list = ClusterList::default();
        for c in iter {
            list.push(c);
        }
        list
    }
}

impl fmt::Debug for ClusterList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear4() -> ClusterGeometry {
        ClusterGeometry::default()
    }

    fn ring4() -> ClusterGeometry {
        ClusterGeometry {
            topology: Topology::Ring,
            ..ClusterGeometry::default()
        }
    }

    #[test]
    fn slot_to_cluster() {
        let g = linear4();
        assert_eq!(g.total_slots(), 16);
        assert_eq!(g.cluster_of_slot(0), 0);
        assert_eq!(g.cluster_of_slot(3), 0);
        assert_eq!(g.cluster_of_slot(4), 1);
        assert_eq!(g.cluster_of_slot(15), 3);
    }

    #[test]
    fn linear_distances() {
        let g = linear4();
        assert_eq!(g.distance(0, 0), 0);
        assert_eq!(g.distance(0, 1), 1);
        assert_eq!(g.distance(0, 3), 3);
        assert_eq!(g.distance(3, 1), 2);
    }

    #[test]
    fn ring_wraps_ends() {
        let g = ring4();
        assert_eq!(g.distance(0, 3), 1);
        assert_eq!(g.distance(0, 2), 2);
        assert_eq!(g.distance(1, 3), 2);
    }

    #[test]
    fn neighbors_linear() {
        let g = linear4();
        assert_eq!(*g.neighbors(0), [1]);
        assert_eq!(*g.neighbors(3), [2]);
        // Both neighbors, more central one first.
        let n1 = g.neighbors(1);
        assert_eq!(n1.len(), 2);
        assert_eq!(n1[0], 2); // 2 is central (max dist 2) like 1; ties by centrality then order
        assert!(n1.contains(&0));
    }

    #[test]
    fn middle_order_prefers_central_clusters() {
        let g = linear4();
        let order = g.middle_order();
        assert_eq!(&order[..2], &[1, 2]);
        assert_eq!(&order[2..], &[0, 3]);
    }

    #[test]
    fn ring_is_symmetric() {
        let g = ring4();
        // Every cluster equally central on a ring.
        let c: Vec<u8> = (0..4).map(|x| g.centrality(x)).collect();
        assert!(c.iter().all(|&v| v == c[0]));
        assert_eq!(g.neighbors(0).len(), 2);
    }

    #[test]
    fn fully_connected_is_one_hop_everywhere() {
        let g = ClusterGeometry {
            topology: Topology::FullyConnected,
            ..ClusterGeometry::default()
        };
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(g.distance(a, b), u8::from(a != b));
            }
        }
        // Every other cluster is a neighbour.
        assert_eq!(g.neighbors(0).len(), 3);
        // All clusters equally central.
        let c: Vec<u8> = (0..4).map(|x| g.centrality(x)).collect();
        assert!(c.iter().all(|&v| v == c[0]));
    }

    #[test]
    fn two_cluster_geometry() {
        let g = ClusterGeometry {
            clusters: 2,
            slots_per_cluster: 4,
            topology: Topology::Linear,
        };
        assert_eq!(g.total_slots(), 8);
        assert_eq!(g.distance(0, 1), 1);
        assert_eq!(*g.neighbors(0), [1]);
        assert_eq!(*g.neighbors(1), [0]);
        assert_eq!(*g.middle_order(), [0, 1]);
    }

    #[test]
    fn eight_fully_connected_clusters_fill_the_list() {
        let g = ClusterGeometry {
            clusters: MAX_CLUSTERS,
            slots_per_cluster: 2,
            topology: Topology::FullyConnected,
        };
        for c in 0..MAX_CLUSTERS {
            let n = g.neighbors(c);
            // Seven neighbours, the list's maximum for one cluster, all
            // equally central, so they come back in index order.
            let expect: Vec<u8> = (0..MAX_CLUSTERS).filter(|&o| o != c).collect();
            assert_eq!(*n, *expect);
        }
        assert_eq!(*g.middle_order(), [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn eight_cluster_linear_and_ring_orders() {
        let linear = ClusterGeometry {
            clusters: 8,
            slots_per_cluster: 2,
            topology: Topology::Linear,
        };
        assert_eq!(*linear.middle_order(), [3, 4, 2, 5, 1, 6, 0, 7]);
        // Cluster 3's neighbours are 4 (centrality 4) then 2 (5).
        assert_eq!(*linear.neighbors(3), [4, 2]);
        let ring = ClusterGeometry {
            topology: Topology::Ring,
            ..linear
        };
        assert_eq!(*ring.neighbors(0), [1, 7]);
        assert_eq!(*ring.neighbors(7), [0, 6]);
    }

    #[test]
    fn cluster_list_is_an_inline_slice() {
        let mut l: ClusterList = [2u8, 0].into_iter().collect();
        l.push_unique(2);
        l.push_unique(5);
        assert_eq!(*l, [2, 0, 5]);
        l.sort_unstable();
        assert_eq!(*l, [0, 2, 5]);
        assert_eq!(format!("{l:?}"), "[0, 2, 5]");
        let full: ClusterList = (0..MAX_CLUSTERS).collect();
        assert_eq!(full.len(), MAX_CLUSTERS as usize);
    }

    #[test]
    #[should_panic(expected = "cluster list is full")]
    fn cluster_list_rejects_a_ninth_id() {
        let _: ClusterList = (0..=MAX_CLUSTERS).collect();
    }
}
