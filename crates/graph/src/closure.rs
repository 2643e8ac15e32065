//! Multi-source L-hop closures.
//!
//! An `L`-layer message-passing network computes a node's output from
//! its `L`-hop neighbourhood and nothing else. Given a set of nodes,
//! [`hop_closure`] returns every node within `L` hops of any of them —
//! the rows an `L`-layer forward must see to answer the set exactly.
//! Partition halos ([`crate::partition`]) and the vault's per-batch
//! closure are both this routine.
//!
//! Paired with full-graph normalization degrees and the principal
//! submatrix of the full normalized adjacency on the closure
//! ([`linalg::CsrMatrix::principal_submatrix`]), an `L`-layer GCN over
//! the closure reproduces every source's output bit for bit: a node at
//! distance `d < L` keeps all of its row, so its layer-`L - d` output is
//! exact, and the sources (distance 0) are exact after `L` layers.
//! Ascending ids keep each row's accumulation order.

use linalg::CsrMatrix;

/// Every node within `hops` hops of any node in `sources`, strictly
/// ascending. `sources` may repeat and come in any order; `hops = 0`
/// returns them sorted and deduplicated.
///
/// `adjacency` is any square sparsity pattern whose row `u` lists the
/// neighbours of `u` — a binary adjacency or a normalized propagation
/// matrix (its self-loops change nothing). The search is
/// level-synchronous over sorted vectors, so it costs
/// `O(E_c · log C)` for a closure of `C` nodes with `E_c` stored
/// entries, independent of `adjacency.rows()`.
///
/// # Panics
///
/// Panics if a source is not a row of `adjacency`.
///
/// # Examples
///
/// ```
/// use graph::{closure, Graph};
///
/// # fn main() -> Result<(), graph::GraphError> {
/// let path = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])?;
/// let adj = path.to_adjacency_csr();
/// assert_eq!(closure::hop_closure(&adj, &[2], 1), vec![1, 2, 3]);
/// assert_eq!(closure::hop_closure(&adj, &[5, 0, 5], 1), vec![0, 1, 4, 5]);
/// # Ok(())
/// # }
/// ```
pub fn hop_closure(adjacency: &CsrMatrix, sources: &[usize], hops: usize) -> Vec<usize> {
    let mut closure = sources.to_vec();
    closure.sort_unstable();
    closure.dedup();
    let mut frontier = closure.clone();
    for _ in 0..hops {
        if closure.len() == adjacency.rows() {
            break;
        }
        let mut next: Vec<usize> = frontier
            .iter()
            .flat_map(|&u| adjacency.row_entries(u).0)
            .copied()
            .filter(|v| closure.binary_search(v).is_err())
            .collect();
        if next.is_empty() {
            break;
        }
        next.sort_unstable();
        next.dedup();
        closure.extend_from_slice(&next);
        closure.sort_unstable();
        frontier = next;
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path5() -> CsrMatrix {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
            .unwrap()
            .to_adjacency_csr()
    }

    #[test]
    fn zero_hops_is_the_sorted_source_set() {
        assert_eq!(hop_closure(&path5(), &[3, 1, 3], 0), vec![1, 3]);
        assert!(hop_closure(&path5(), &[], 2).is_empty());
    }

    #[test]
    fn hops_grow_the_ball_until_the_component_is_covered() {
        assert_eq!(hop_closure(&path5(), &[2], 1), vec![1, 2, 3]);
        assert_eq!(hop_closure(&path5(), &[0], 2), vec![0, 1, 2]);
        assert_eq!(hop_closure(&path5(), &[0], 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn disconnected_components_are_excluded() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        assert_eq!(hop_closure(&g.to_adjacency_csr(), &[0], 3), vec![0, 1, 2]);
    }

    #[test]
    fn self_loops_in_a_normalized_operator_change_nothing() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let normalized = crate::normalization::gcn_normalize(&g);
        for hops in 0..4 {
            assert_eq!(
                hop_closure(&normalized, &[4, 0], hops),
                hop_closure(&g.to_adjacency_csr(), &[4, 0], hops)
            );
        }
    }

    #[test]
    fn closure_with_full_degrees_reproduces_the_sources_bit_for_bit() {
        // Two propagation steps over the closure's principal submatrix of
        // the full normalized adjacency equal the full-graph result on
        // every source, even though boundary rows lost entries.
        use linalg::DenseMatrix;
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)])
            .unwrap();
        let x = DenseMatrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f32).sin());
        let full_adj = crate::normalization::gcn_normalize(&g);
        let full = full_adj.spmm(&full_adj.spmm(&x).unwrap()).unwrap();
        for sources in [vec![3], vec![0, 6], vec![5, 1]] {
            let ids = hop_closure(&full_adj, &sources, 2);
            let adj = full_adj.principal_submatrix(&ids).unwrap();
            let local_x = x.select_rows(&ids).unwrap();
            let local = adj.spmm(&adj.spmm(&local_x).unwrap()).unwrap();
            for &s in &sources {
                let l = ids.binary_search(&s).unwrap();
                for c in 0..3 {
                    assert_eq!(full.get(s, c).to_bits(), local.get(l, c).to_bits());
                }
            }
        }
    }
}
