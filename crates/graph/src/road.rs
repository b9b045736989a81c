//! The [`RoadNetwork`] type: an undirected, weighted sensor graph.

use stuq_tensor::Tensor;

/// An undirected weighted graph of traffic sensors.
///
/// Edges carry a physical length; adjacency weights are derived from lengths
/// with a Gaussian kernel (the convention of the DCRNN/PEMS literature), so
/// nearby sensors couple more strongly.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    n_nodes: usize,
    /// `(u, v, length)` with `u < v`, no duplicates, no self-loops.
    edges: Vec<(usize, usize, f32)>,
    /// 2-D sensor positions (used by the generator and for diagnostics).
    positions: Vec<(f32, f32)>,
}

impl RoadNetwork {
    /// Builds a network from an edge list. Panics on self-loops, duplicate
    /// edges or out-of-range endpoints.
    pub fn new(
        n_nodes: usize,
        mut edges: Vec<(usize, usize, f32)>,
        positions: Vec<(f32, f32)>,
    ) -> Self {
        assert!(positions.is_empty() || positions.len() == n_nodes, "positions length mismatch");
        for e in &mut edges {
            assert!(e.0 != e.1, "self-loop at node {}", e.0);
            assert!(e.0 < n_nodes && e.1 < n_nodes, "edge ({}, {}) out of range", e.0, e.1);
            assert!(e.2 > 0.0, "edge length must be positive");
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        edges.sort_by_key(|a| (a.0, a.1));
        for w in edges.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate edge ({}, {})",
                w[0].0,
                w[0].1
            );
        }
        Self { n_nodes, edges, positions }
    }

    /// Number of sensors.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of road segments.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list `(u, v, length)` with `u < v`.
    pub fn edges(&self) -> &[(usize, usize, f32)] {
        &self.edges
    }

    /// Sensor positions (empty when the network was built without them).
    pub fn positions(&self) -> &[(f32, f32)] {
        &self.positions
    }

    /// Neighbour lists (symmetric).
    pub fn adjacency_lists(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n_nodes];
        for &(u, v, _) in &self.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj
    }

    /// Dense weighted adjacency with Gaussian-kernel weights
    /// `w_uv = exp(-(len/σ)²)` where `σ` is the edge-length standard
    /// deviation — the DCRNN convention. Zero diagonal.
    pub fn weighted_adjacency(&self) -> Tensor {
        let n = self.n_nodes;
        let mut a = Tensor::zeros(&[n, n]);
        if self.edges.is_empty() {
            return a;
        }
        let mean = self.edges.iter().map(|e| e.2 as f64).sum::<f64>() / self.edges.len() as f64;
        let var = self.edges.iter().map(|e| (e.2 as f64 - mean).powi(2)).sum::<f64>()
            / self.edges.len() as f64;
        let sigma = var.sqrt().max(1e-6) as f32;
        for &(u, v, len) in &self.edges {
            let w = (-(len / sigma).powi(2)).exp();
            a.set(u, v, w);
            a.set(v, u, w);
        }
        a
    }

    /// Number of connected components.
    pub fn n_components(&self) -> usize {
        let adj = self.adjacency_lists();
        let mut seen = vec![false; self.n_nodes];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..self.n_nodes {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        components
    }

    /// Degree of each node.
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n_nodes];
        for &(u, v, _) in &self.edges {
            d[u] += 1;
            d[v] += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        RoadNetwork::new(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], vec![])
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.n_components(), 1);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn normalizes_edge_orientation() {
        let g = RoadNetwork::new(3, vec![(2, 0, 1.0)], vec![]);
        assert_eq!(g.edges()[0].0, 0);
        assert_eq!(g.edges()[0].1, 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = RoadNetwork::new(3, vec![(1, 1, 1.0)], vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        let _ = RoadNetwork::new(3, vec![(0, 1, 1.0), (1, 0, 2.0)], vec![]);
    }

    #[test]
    fn adjacency_is_symmetric_zero_diagonal() {
        let g = triangle();
        let a = g.weighted_adjacency();
        for i in 0..3 {
            assert_eq!(a.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn components_counts_forest() {
        let g = RoadNetwork::new(5, vec![(0, 1, 1.0), (2, 3, 1.0)], vec![]);
        assert_eq!(g.n_components(), 3); // {0,1}, {2,3}, {4}
    }
}
