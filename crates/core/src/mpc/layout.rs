//! The static input layout shared by the in-memory dataflow executors
//! ([`crate::mpc::distributed`] and `mwvc-roundcompress`).
//!
//! Both executors place the input the same way: the canonical edge with
//! id `geid` (the `(u, v), u < v` lexicographic numbering of
//! [`mwvc_graph::EdgeIndex::edges`]) lives on its **home**
//! `owner_of_key(geid)`, and vertex `v` lives on its **owner**
//! `owner_of_key(v)`. [`distribute`] builds every machine's share in one
//! parallel pass over machines, straight from the graph's CSR, and gives
//! each home a flat [`EndpointIndex`] from endpoint to home edges.
//!
//! The model treats input distribution and local computation as free, so
//! none of this is a round; it only has to be cheap on the host and
//! produce exactly the same per-machine lists whatever the thread count.

use mpc_sim::owner_of_key;
use mwvc_graph::{Graph, VertexId};
use rayon::prelude::*;

/// A home machine's static map from endpoint to the indices of its home
/// edges incident to that endpoint, in three flat arrays (CSR layout).
///
/// Endpoints are stored ascending and each endpoint's list is ascending
/// by home-edge index, so a pass in slot order visits vertices in
/// ascending id and each vertex's edges in the order they are homed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointIndex {
    /// Distinct endpoints, ascending.
    keys: Vec<VertexId>,
    /// `offsets[k]..offsets[k + 1]` indexes `entries` for `keys[k]`.
    offsets: Vec<u32>,
    /// Home-edge indices, grouped by endpoint, ascending within a group.
    entries: Vec<u32>,
}

impl EndpointIndex {
    /// Indexes the home edges whose endpoints are `ends[i]` for home-edge
    /// index `i`, by a stable counting sort over endpoint ids.
    pub fn build(ends: &[(VertexId, VertexId)]) -> Self {
        let span = ends
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        // Per vertex id: incidence count, then its slot in `keys`.
        let mut slot_of = vec![0u32; span];
        for &(u, v) in ends {
            slot_of[u as usize] += 1;
            slot_of[v as usize] += 1;
        }
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        for (x, c) in slot_of.iter_mut().enumerate() {
            if *c > 0 {
                offsets.push(offsets[keys.len()] + *c);
                *c = keys.len() as u32;
                keys.push(x as VertexId);
            }
        }
        let mut cursor = offsets[..keys.len()].to_vec();
        let mut entries = vec![0u32; 2 * ends.len()];
        for (i, &(u, v)) in ends.iter().enumerate() {
            for x in [u, v] {
                let c = &mut cursor[slot_of[x as usize] as usize];
                entries[*c as usize] = i as u32;
                *c += 1;
            }
        }
        Self {
            keys,
            offsets,
            entries,
        }
    }

    /// Distinct endpoints, ascending.
    pub fn keys(&self) -> &[VertexId] {
        &self.keys
    }

    /// Home-edge indices incident to `v`, ascending (empty if none).
    pub fn edges_of(&self, v: VertexId) -> &[u32] {
        match self.keys.binary_search(&v) {
            Ok(k) => self.slot(k),
            Err(_) => &[],
        }
    }

    /// `(endpoint, home-edge indices)` in ascending endpoint order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[u32])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(move |(k, &v)| (v, self.slot(k)))
    }

    /// Model words: one per endpoint key plus one per entry — the same
    /// count as a map with one word per key and per list element.
    pub fn words(&self) -> usize {
        self.keys.len() + self.entries.len()
    }

    fn slot(&self, k: usize) -> &[u32] {
        &self.entries[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// One machine's share of the input.
#[derive(Debug)]
pub struct MachineInput<E, V> {
    /// Edges homed here, ascending by edge id.
    pub home_edges: Vec<E>,
    /// Endpoint → `home_edges` indices.
    pub index: EndpointIndex,
    /// Vertices owned here, ascending by id.
    pub owned: Vec<V>,
}

/// Places `g` on `num_machines` machines: canonical edge `(geid, u, v)`
/// becomes `edge(geid, u, v)` on `owner_of_key(geid)`, vertex `v` becomes
/// `vertex(v)` on `owner_of_key(v)`. One parallel task per machine scans
/// the CSR (for each `u`, every neighbour `v > u`, numbered in the order
/// of [`mwvc_graph::EdgeIndex::edges`]) and keeps what it owns, so each
/// list comes out ascending by id and the result does not depend on the
/// thread count.
pub fn distribute<E: Send, V: Send>(
    g: &Graph,
    num_machines: usize,
    edge: impl Fn(u32, VertexId, VertexId) -> E + Sync,
    vertex: impl Fn(VertexId) -> V + Sync,
) -> Vec<MachineInput<E, V>> {
    let n = g.num_vertices();
    // Per vertex u: the position of its first upper neighbour (v > u) in
    // its sorted adjacency, and the id of its first canonical edge.
    let upper: Vec<usize> = (0..n as VertexId)
        .into_par_iter()
        .map(|u| g.neighbors(u).partition_point(|&v| v <= u))
        .collect();
    let mut first = Vec::with_capacity(n);
    let mut next = 0u32;
    for u in 0..n as VertexId {
        first.push(next);
        next += (g.degree(u) - upper[u as usize]) as u32;
    }
    (0..num_machines)
        .into_par_iter()
        .map(|me| {
            let mut home_edges = Vec::new();
            let mut ends = Vec::new();
            for u in 0..n as VertexId {
                let up = &g.neighbors(u)[upper[u as usize]..];
                for (j, &v) in up.iter().enumerate() {
                    let geid = first[u as usize] + j as u32;
                    if owner_of_key(geid as u64, num_machines) == me {
                        home_edges.push(edge(geid, u, v));
                        ends.push((u, v));
                    }
                }
            }
            let owned = (0..n as VertexId)
                .filter(|&v| owner_of_key(v as u64, num_machines) == me)
                .map(&vertex)
                .collect();
            MachineInput {
                home_edges,
                index: EndpointIndex::build(&ends),
                owned,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::gnm;
    use mwvc_graph::EdgeIndex;

    fn check_against_edge_index(g: &Graph, w: usize) {
        let parts = distribute(g, w, |geid, u, v| (geid, u, v), |v| v);
        assert_eq!(parts.len(), w);
        let eidx = EdgeIndex::build(g);
        let mut seen = vec![false; eidx.num_edges()];
        for (me, p) in parts.iter().enumerate() {
            assert!(p.home_edges.windows(2).all(|a| a[0].0 < a[1].0));
            assert!(p.owned.windows(2).all(|a| a[0] < a[1]));
            for &(geid, u, v) in &p.home_edges {
                let e = eidx.edge(geid);
                assert_eq!((u, v), (e.u(), e.v()), "edge {geid}");
                assert_eq!(owner_of_key(geid as u64, w), me);
                assert!(!std::mem::replace(&mut seen[geid as usize], true));
            }
            for &v in &p.owned {
                assert_eq!(owner_of_key(v as u64, w), me);
            }
            let ends: Vec<_> = p.home_edges.iter().map(|&(_, u, v)| (u, v)).collect();
            assert_eq!(p.index, EndpointIndex::build(&ends));
        }
        assert!(seen.iter().all(|&s| s), "every edge placed once");
        let owned: usize = parts.iter().map(|p| p.owned.len()).sum();
        assert_eq!(owned, g.num_vertices());
    }

    #[test]
    fn distribution_matches_edge_index() {
        for (seed, w) in [(7, 1), (8, 2), (9, 5), (10, 13)] {
            check_against_edge_index(&gnm(300, 2_000, seed), w);
        }
    }

    #[test]
    fn distribution_with_isolated_vertices_and_idle_machines() {
        // Vertices 0, 3, 6 and 7 are isolated; 16 machines for 4 edges.
        let g = Graph::from_edges(8, &[(1, 2), (2, 4), (4, 5), (1, 5)]);
        check_against_edge_index(&g, 16);
        let parts = distribute(&g, 16, |geid, u, v| (geid, u, v), |v| v);
        assert!(parts.iter().any(|p| p.home_edges.is_empty()));
        check_against_edge_index(&Graph::empty(5), 3);
    }

    #[test]
    fn index_lookup_and_words() {
        let idx = EndpointIndex::build(&[(3, 9), (1, 3), (3, 4)]);
        assert_eq!(idx.keys(), &[1, 3, 4, 9]);
        assert_eq!(idx.edges_of(3), &[0, 1, 2]);
        assert_eq!(idx.edges_of(9), &[0]);
        assert_eq!(idx.edges_of(2), &[] as &[u32]);
        assert_eq!(idx.words(), 4 + 6);
        assert_eq!(EndpointIndex::build(&[]).words(), 0);
    }
}
