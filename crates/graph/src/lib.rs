//! # mass-graph
//!
//! Link-analysis substrate for the MASS system.
//!
//! The paper's *General Links* (GL) influence facet measures a blogger's
//! authority "in the network of page links … like PageRank and HITS"
//! (Section I). This crate provides:
//!
//! * [`DiGraph`] — a compact directed graph over dense `usize` node ids,
//! * [`pagerank()`](pagerank()) — damped PageRank with dangling-mass redistribution,
//! * [`hits()`](hits()) — Kleinberg's hubs-and-authorities iteration,
//! * [`bfs_within_radius`] — the radius-limited traversal the crawler uses
//!   ("the user can also specify the radius of network where the crawling is
//!   performed", Section IV),
//! * weak/strong component analysis and degree statistics used by the
//!   evaluation harness.
//!
//! The crate is deliberately independent of `mass-types`: nodes are plain
//! indices, so the same algorithms serve the blogger link graph, the
//! post-to-post citation graph and the post-reply network.
//!
//! ```
//! use mass_graph::{DiGraph, pagerank, PageRankParams};
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(2, 0);
//! let pr = pagerank(&g, &PageRankParams::default());
//! assert!((pr.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

pub mod components;
pub mod csr;
pub mod digraph;
pub mod hits;
pub mod pagerank;
pub mod traversal;

pub use components::{
    giant_component_size, strongly_connected_components, weakly_connected_components,
};
pub use csr::{AdjacencyKind, Csr, CsrBuilder, LinkCsr};
pub use digraph::{DegreeStats, DiGraph};
pub use hits::{hits, hits_csr, HitsParams, HitsScores};
pub use pagerank::{pagerank, pagerank_csr, PageRankParams, PageRankResult};
pub use traversal::{ball, bfs_within_radius, BfsLayer};
