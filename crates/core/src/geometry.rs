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

    /// This geometry's precomputed lookup tables.
    ///
    /// # Panics
    ///
    /// Panics if the cluster count is outside `1..=MAX_CLUSTERS`.
    #[inline]
    fn tables(&self) -> &'static GeometryTables {
        let n = usize::from(self.clusters);
        assert!(
            (1..=usize::from(MAX_CLUSTERS)).contains(&n),
            "cluster count {n} outside 1..={MAX_CLUSTERS}"
        );
        &TABLES[self.topology as usize][n - 1]
    }

    /// Number of cluster hops data must traverse from `from` to `to`.
    #[inline]
    pub fn distance(&self, from: u8, to: u8) -> u8 {
        debug_assert!(from < self.clusters && to < self.clusters);
        self.tables().distance[usize::from(from)][usize::from(to)]
    }

    /// Clusters at distance 1 from `c`, nearest-to-centre first (ties
    /// by index), as an inline list: steering and FDRT placement ask for
    /// it once per instruction, so it never touches the heap.
    #[inline]
    pub fn neighbors(&self, c: u8) -> ClusterList {
        self.tables().neighbors[usize::from(c)]
    }

    /// A centrality score: the maximum distance from `c` to any cluster
    /// (lower = more central).
    #[inline]
    pub fn centrality(&self, c: u8) -> u8 {
        self.tables().centrality[usize::from(c)]
    }

    /// All clusters ordered most-central first (the "middle clusters" the
    /// FDRT strategy funnels unattached producers to), ties broken by
    /// index.
    #[inline]
    pub fn middle_order(&self) -> ClusterList {
        self.tables().middle_order
    }
}

/// Everything a geometry's cluster queries return, computed once per
/// (topology, cluster count) at compile time: the steering and placement
/// paths ask for neighbours and centrality per instruction, and deriving
/// them takes a distance scan and a sort.
struct GeometryTables {
    distance: [[u8; MAX_CLUSTERS as usize]; MAX_CLUSTERS as usize],
    centrality: [u8; MAX_CLUSTERS as usize],
    neighbors: [ClusterList; MAX_CLUSTERS as usize],
    middle_order: ClusterList,
}

impl GeometryTables {
    const EMPTY: GeometryTables = GeometryTables {
        distance: [[0; MAX_CLUSTERS as usize]; MAX_CLUSTERS as usize],
        centrality: [0; MAX_CLUSTERS as usize],
        neighbors: [ClusterList::EMPTY; MAX_CLUSTERS as usize],
        middle_order: ClusterList::EMPTY,
    };
}

/// One table per topology (in declaration order) and cluster count
/// (`clusters - 1`).
static TABLES: [[GeometryTables; MAX_CLUSTERS as usize]; 3] = [
    tables_for(Topology::Linear),
    tables_for(Topology::Ring),
    tables_for(Topology::FullyConnected),
];

const fn tables_for(topology: Topology) -> [GeometryTables; MAX_CLUSTERS as usize] {
    let mut all = [GeometryTables::EMPTY; MAX_CLUSTERS as usize];
    let mut n = 1;
    while n <= MAX_CLUSTERS {
        all[n as usize - 1] = build_tables(topology, n);
        n += 1;
    }
    all
}

/// Hop count between two of `n` clusters wired as `topology`.
const fn hops(topology: Topology, n: u8, from: u8, to: u8) -> u8 {
    let d = from.abs_diff(to);
    match topology {
        Topology::Linear => d,
        Topology::Ring => {
            if n - d < d {
                n - d
            } else {
                d
            }
        }
        Topology::FullyConnected => {
            if d == 0 {
                0
            } else {
                1
            }
        }
    }
}

const fn build_tables(topology: Topology, n: u8) -> GeometryTables {
    let mut t = GeometryTables::EMPTY;
    let mut a = 0;
    while a < n {
        let mut b = 0;
        while b < n {
            let d = hops(topology, n, a, b);
            t.distance[a as usize][b as usize] = d;
            if d > t.centrality[a as usize] {
                t.centrality[a as usize] = d;
            }
            b += 1;
        }
        a += 1;
    }
    // Lists are sorted by (centrality, index): insertion in ascending
    // index order followed by a stable insertion sort on centrality.
    let mut c = 0;
    while c < n {
        let mut o = 0;
        while o < n {
            if t.distance[c as usize][o as usize] == 1 {
                t.neighbors[c as usize] = t.neighbors[c as usize].inserted_by(o, &t.centrality);
            }
            o += 1;
        }
        t.middle_order = t.middle_order.inserted_by(c, &t.centrality);
        c += 1;
    }
    t
}

/// An ordered list of at most [`MAX_CLUSTERS`] cluster ids, held inline
/// (`Copy`, no heap). Derefs to `[u8]`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterList {
    len: u8,
    ids: [u8; MAX_CLUSTERS as usize],
}

impl ClusterList {
    const EMPTY: ClusterList = ClusterList {
        len: 0,
        ids: [0; MAX_CLUSTERS as usize],
    };

    /// This list with `c` inserted after every id whose `rank` is at
    /// most `c`'s: fed ids in ascending order, it keeps the list sorted
    /// by `(rank, id)`.
    const fn inserted_by(mut self, c: u8, rank: &[u8; MAX_CLUSTERS as usize]) -> ClusterList {
        let mut i = self.len as usize;
        while i > 0 && rank[self.ids[i - 1] as usize] > rank[c as usize] {
            self.ids[i] = self.ids[i - 1];
            i -= 1;
        }
        self.ids[i] = c;
        self.len += 1;
        self
    }

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

    /// Reference queries computed directly: a distance formula, then
    /// scans and sorts over it on every call.
    mod brute {
        use super::super::{ClusterGeometry, ClusterList, Topology};

        pub fn distance(g: &ClusterGeometry, from: u8, to: u8) -> u8 {
            let d = from.abs_diff(to);
            match g.topology {
                Topology::Linear => d,
                Topology::Ring => d.min(g.clusters - d),
                Topology::FullyConnected => d.min(1),
            }
        }

        pub fn centrality(g: &ClusterGeometry, c: u8) -> u8 {
            (0..g.clusters)
                .map(|o| distance(g, c, o))
                .max()
                .unwrap_or(0)
        }

        pub fn neighbors(g: &ClusterGeometry, c: u8) -> ClusterList {
            let mut n: ClusterList = (0..g.clusters)
                .filter(|&o| distance(g, c, o) == 1)
                .collect();
            n.sort_unstable_by_key(|&o| (centrality(g, o), o));
            n
        }

        pub fn middle_order(g: &ClusterGeometry) -> ClusterList {
            let mut order: ClusterList = (0..g.clusters).collect();
            order.sort_unstable_by_key(|&c| (centrality(g, c), c));
            order
        }
    }

    #[test]
    fn tables_match_the_brute_force_queries_in_every_geometry() {
        for topology in [Topology::Linear, Topology::Ring, Topology::FullyConnected] {
            for clusters in 1..=MAX_CLUSTERS {
                let g = ClusterGeometry {
                    clusters,
                    slots_per_cluster: 4,
                    topology,
                };
                for a in 0..clusters {
                    for b in 0..clusters {
                        assert_eq!(
                            g.distance(a, b),
                            brute::distance(&g, a, b),
                            "{g:?} {a}->{b}"
                        );
                    }
                    assert_eq!(g.centrality(a), brute::centrality(&g, a), "{g:?} {a}");
                    assert_eq!(g.neighbors(a), brute::neighbors(&g, a), "{g:?} {a}");
                }
                assert_eq!(g.middle_order(), brute::middle_order(&g), "{g:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cluster count 9 outside")]
    fn tables_reject_more_than_max_clusters() {
        let g = ClusterGeometry {
            clusters: MAX_CLUSTERS + 1,
            ..ClusterGeometry::default()
        };
        let _ = g.middle_order();
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
