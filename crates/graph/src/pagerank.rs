//! PageRank (Page et al., ref \[3\] of the paper) — the General-Links facet.

use crate::csr::LinkCsr;
use crate::digraph::DiGraph;

/// Tuning knobs for [`pagerank`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankParams {
    /// Damping factor `d`; the classic 0.85.
    pub damping: f64,
    /// Stop when the L1 change between sweeps drops below this.
    pub tolerance: f64,
    /// Hard iteration cap (protects against pathological graphs).
    pub max_iterations: usize,
    /// Worker threads for the `mass-par` layer: `0` = every available core,
    /// `1` = the exact legacy serial loop, `n` = cap. Scores are bit-identical
    /// at every setting (DESIGN.md §8).
    pub threads: usize,
}

impl Default for PageRankParams {
    fn default() -> Self {
        PageRankParams {
            damping: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
            threads: 1,
        }
    }
}

/// Output of [`pagerank`].
#[derive(Clone, Debug, PartialEq)]
pub struct PageRankResult {
    /// Stationary probability per node; sums to 1 for non-empty graphs.
    pub scores: Vec<f64>,
    /// Sweeps actually performed.
    pub iterations: usize,
    /// Final L1 residual.
    pub residual: f64,
    /// Whether the residual dropped below tolerance within the cap.
    pub converged: bool,
}

/// Computes PageRank with uniform teleport and dangling-mass redistribution.
///
/// Dangling nodes (no out-links) donate their rank uniformly to all nodes,
/// the standard fix that keeps the iteration stochastic. Parallel edges count
/// with multiplicity: a blogger who links twice to the same space passes
/// twice the share, matching how the crawler records repeated links.
pub fn pagerank(g: &DiGraph, params: &PageRankParams) -> PageRankResult {
    pagerank_csr(&LinkCsr::from_digraph(g), params, None)
}

/// [`pagerank`] over a prebuilt [`LinkCsr`], optionally warm-starting from a
/// previous rank vector — the incremental engine's entry point.
///
/// With `warm = None` this is exactly [`pagerank`] (same bits). A warm
/// vector is padded with the uniform share for nodes beyond its length (and
/// for non-finite or negative entries), then L1-renormalised so the
/// iteration stays stochastic; it converges to the same fixed point within
/// tolerance, usually in fewer sweeps — but along a different trajectory,
/// so warm results are tolerance-close, not bit-identical.
pub fn pagerank_csr(g: &LinkCsr, params: &PageRankParams, warm: Option<&[f64]>) -> PageRankResult {
    let n = g.len();
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }
    assert!(
        params.damping >= 0.0 && params.damping < 1.0,
        "damping must be in [0, 1), got {}",
        params.damping
    );
    let ex = mass_par::executor(params.threads);
    let d = params.damping;
    let uniform = 1.0 / n as f64;
    let mut rank = match warm {
        None => vec![uniform; n],
        Some(prev) => warm_start(prev, n, uniform),
    };
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;

    // One pull kernel for every thread count, over flattened CSR rows.
    // Predecessor rows list every in-edge source (with multiplicity) in
    // ascending-`u` order — exactly the order the legacy serial scatter
    // added into slot `v` — so the fold reproduces the scatter result bit
    // for bit.
    let degree: Vec<u32> = (0..n).map(|u| g.out_degree(u) as u32).collect();
    // Dangling nodes never change across sweeps: index them once instead of
    // rescanning all n degrees every sweep. Ascending order, so the serial
    // per-sweep sum keeps the legacy filter-scan's exact addition sequence.
    let dangling: Vec<u32> = (0..n as u32).filter(|&u| degree[u as usize] == 0).collect();
    let preds = g.predecessors_csr();
    let mut share = vec![0.0f64; n];

    while iterations < params.max_iterations {
        iterations += 1;
        // Mass from dangling nodes is spread uniformly. Order-sensitive
        // sum: stays serial so bits never depend on the thread count.
        let dangling_mass: f64 = dangling.iter().map(|&u| rank[u as usize]).sum();
        let base = (1.0 - d) * uniform + d * dangling_mass * uniform;
        {
            let (rank, degree) = (&rank, &degree);
            ex.par_fill(&mut share, |u| {
                if degree[u] == 0 {
                    0.0
                } else {
                    d * rank[u] / degree[u] as f64
                }
            });
            let share = &share;
            ex.par_fill(&mut next, |v| {
                preds
                    .row(v)
                    .iter()
                    .fold(base, |a, &u| a + share[u as usize])
            });
        }
        residual = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if residual < params.tolerance {
            return PageRankResult {
                scores: rank,
                iterations,
                residual,
                converged: true,
            };
        }
    }
    PageRankResult {
        scores: rank,
        iterations,
        residual,
        converged: false,
    }
}

/// Sanitises a previous score vector into a stochastic start: entries
/// beyond its length (new nodes) and non-finite or negative carry-overs
/// take the uniform share, then the vector is L1-renormalised.
pub(crate) fn warm_start(prev: &[f64], n: usize, uniform: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| match prev.get(i) {
            Some(&x) if x.is_finite() && x >= 0.0 => x,
            _ => uniform,
        })
        .collect();
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        v.iter_mut().for_each(|x| *x /= sum);
    } else {
        v.iter_mut().for_each(|x| *x = uniform);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sums_to_one(scores: &[f64]) {
        let s: f64 = scores.iter().sum();
        assert!((s - 1.0).abs() < 1e-8, "scores sum to {s}");
    }

    #[test]
    fn empty_graph() {
        let r = pagerank(&DiGraph::new(0), &PageRankParams::default());
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn single_node_gets_all_mass() {
        let r = pagerank(&DiGraph::new(1), &PageRankParams::default());
        assert_eq!(r.scores, vec![1.0]);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = pagerank(&g, &PageRankParams::default());
        assert!(r.converged);
        assert_sums_to_one(&r.scores);
        for s in &r.scores {
            assert!((s - 0.25).abs() < 1e-8);
        }
    }

    #[test]
    fn hub_attracts_rank() {
        // Everyone links to node 0; node 0 links back to node 1 only.
        let g = DiGraph::from_edges(4, [(1, 0), (2, 0), (3, 0), (0, 1)]);
        let r = pagerank(&g, &PageRankParams::default());
        assert_sums_to_one(&r.scores);
        assert!(r.scores[0] > r.scores[2]);
        assert!(r.scores[0] > r.scores[3]);
        // Node 1 receives node 0's entire damped rank, so it also beats 2 and 3.
        assert!(r.scores[1] > r.scores[2]);
    }

    #[test]
    fn dangling_nodes_keep_total_mass() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 2)]); // 1 and 2 dangle
        let r = pagerank(&g, &PageRankParams::default());
        assert!(r.converged);
        assert_sums_to_one(&r.scores);
        assert!(r.scores[1] > r.scores[0]);
    }

    #[test]
    fn zero_damping_is_uniform() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let r = pagerank(
            &g,
            &PageRankParams {
                damping: 0.0,
                ..Default::default()
            },
        );
        for s in &r.scores {
            assert!((s - 1.0 / 3.0).abs() < 1e-9);
        }
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn parallel_edges_double_share() {
        // 0 links twice to 1 and once to 2: 1 should get twice 2's share from 0.
        let g = DiGraph::from_edges(3, [(0, 1), (0, 1), (0, 2), (1, 0), (2, 0)]);
        let r = pagerank(&g, &PageRankParams::default());
        assert!(r.scores[1] > r.scores[2]);
        assert_sums_to_one(&r.scores);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]);
        let r = pagerank(
            &g,
            &PageRankParams {
                tolerance: 0.0,
                max_iterations: 5,
                ..Default::default()
            },
        );
        assert_eq!(r.iterations, 5);
        assert!(!r.converged);
    }

    #[test]
    fn parallel_ranks_are_bit_identical_to_serial() {
        // Irregular graph with parallel edges and dangling nodes so every
        // code path (share precompute, pull fold, dangling mass) is hit.
        let mut edges = Vec::new();
        for u in 0..97usize {
            edges.push((u, (u * 7 + 3) % 97));
            edges.push((u, (u * 31 + 11) % 97));
            if u % 5 == 0 {
                edges.push((u, (u * 13 + 1) % 97)); // heavier hubs
                edges.push((u, (u * 7 + 3) % 97)); // parallel edge
            }
        }
        let g = DiGraph::from_edges(97, edges.into_iter().filter(|&(u, _)| u % 11 != 0));
        let serial = pagerank(&g, &PageRankParams::default());
        for threads in [2, 3, 8] {
            let par = pagerank(
                &g,
                &PageRankParams {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(par.iterations, serial.iterations);
            assert_eq!(
                par.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial
                    .scores
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                "pagerank diverged at threads={threads}"
            );
            assert_eq!(par.residual.to_bits(), serial.residual.to_bits());
        }
    }

    #[test]
    fn csr_entry_point_without_warm_start_matches_pagerank_bitwise() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 0), (4, 3)]);
        let a = pagerank(&g, &PageRankParams::default());
        let b = pagerank_csr(&LinkCsr::from_digraph(&g), &PageRankParams::default(), None);
        assert_eq!(
            a.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn warm_start_reaches_the_fixed_point_in_fewer_or_equal_sweeps() {
        let mut edges = Vec::new();
        for u in 0..60usize {
            edges.push((u, (u * 7 + 3) % 60));
            edges.push((u, (u * 13 + 5) % 60));
        }
        let g = DiGraph::from_edges(60, edges);
        let link = LinkCsr::from_digraph(&g);
        let cold = pagerank_csr(&link, &PageRankParams::default(), None);
        assert!(cold.converged);
        let warm = pagerank_csr(&link, &PageRankParams::default(), Some(&cold.scores));
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for (a, b) in warm.scores.iter().zip(&cold.scores) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn warm_start_pads_new_nodes_and_sanitises_garbage() {
        // Previous vector is short (graph grew), has a NaN and a negative —
        // all three must fall back to the uniform share, and the start must
        // renormalise to a stochastic vector.
        let v = warm_start(&[0.5, f64::NAN, -3.0], 5, 0.2);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(v[1], v[2]);
        assert_eq!(v[2], v[3]);
        assert!(v[0] > v[1]);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_of_one_rejected() {
        let g = DiGraph::new(2);
        let _ = pagerank(
            &g,
            &PageRankParams {
                damping: 1.0,
                ..Default::default()
            },
        );
    }
}
