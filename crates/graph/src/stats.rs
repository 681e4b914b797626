//! Instance statistics (Table I of the paper).

use crate::traits::Graph;
use crate::NodeId;

/// Summary statistics of a graph instance, matching the columns of Table I:
/// number of vertices `n`, number of undirected edges `m`, average degree and maximum
/// degree, plus weightedness flags used by the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Average degree `2m / n`.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Number of isolated (degree-zero) vertices.
    pub isolated: usize,
    /// Whether the graph carries non-uniform edge weights.
    pub edge_weighted: bool,
    /// Whether the graph carries non-uniform node weights.
    pub node_weighted: bool,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn of(graph: &impl Graph) -> Self {
        let n = graph.n();
        let m = graph.m();
        let mut max_degree = 0;
        let mut min_degree = usize::MAX;
        let mut isolated = 0;
        for u in 0..n as NodeId {
            let d = graph.degree(u);
            max_degree = max_degree.max(d);
            min_degree = min_degree.min(d);
            if d == 0 {
                isolated += 1;
            }
        }
        if n == 0 {
            min_degree = 0;
        }
        Self {
            n,
            m,
            avg_degree: if n == 0 {
                0.0
            } else {
                2.0 * m as f64 / n as f64
            },
            max_degree,
            min_degree,
            isolated,
            edge_weighted: graph.is_edge_weighted(),
            node_weighted: graph.is_node_weighted(),
        }
    }

    /// Formats the statistics as one row of a Table-I-style report.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{:<20} {:>12} {:>14} {:>8.1} {:>10}",
            name, self.n, self.m, self.avg_degree, self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_grid() {
        let g = gen::grid2d(4, 4);
        let s = GraphStats::of(&g);
        assert_eq!(s.n, 16);
        assert_eq!(s.m, 24);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 3.0).abs() < 1e-9);
        assert!(!s.edge_weighted);
        let row = s.table_row("grid4x4");
        assert!(row.contains("grid4x4"));
        assert!(row.contains("16"));
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = crate::csr::CsrGraphBuilder::new(0).build();
        let s = GraphStats::of(&g);
        assert_eq!(s.n, 0);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn star_has_isolated_free_skewed_stats() {
        let g = gen::star(100);
        let s = GraphStats::of(&g);
        assert_eq!(s.max_degree, 99);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.isolated, 0);
    }
}
