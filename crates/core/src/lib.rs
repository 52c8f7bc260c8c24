//! # mass-core
//!
//! The MASS multi-facet domain-specific influence model
//! (Cai & Chen, ICDE 2010), implemented over the `mass-types`, `mass-text`
//! and `mass-graph` substrates.
//!
//! ## Model (Section II of the paper)
//!
//! ```text
//! Inf(b_i)        = α·AP(b_i) + (1−α)·GL(b_i)                 α = 0.5   (Eq. 1)
//! AP(b_i)         = Σ_k Inf(b_i, d_k)
//! Inf(b_i, d_k)   = β·Quality(b_i,d_k) + (1−β)·CommentScore   β = 0.6   (Eq. 2)
//! Quality         = length · novelty
//! CommentScore    = Σ_j Inf(b_j) · SF(b_i,d_k,b_j) / TC(b_j)            (Eq. 3)
//! Inf(b_i, C_t)   = Σ_k Inf(b_i,d_k) · iv(b_i,d_k,C_t)                  (Eq. 5)
//! ```
//!
//! Because a post's `CommentScore` depends on the commenters' own influence,
//! Eq. 1–4 define a fixed point; [`solver`] computes it by damped Jacobi
//! iteration with per-sweep max-normalisation (the paper leaves units
//! unspecified — see DESIGN.md §5 for why this choice is sound).
//!
//! ## Crate map
//!
//! * [`params`] — [`MassParams`]: α, β, GL provider, length mode, solver knobs,
//! * [`quality`] — post quality scores (length × novelty),
//! * [`gl`] — General-Links authority (PageRank / HITS / in-links),
//! * [`solver`] — the fixed-point influence solver,
//! * [`domain`] — domain-influence vectors via `iv` (oracle or naive Bayes),
//! * [`analysis`] — [`MassAnalysis`]: the one-call pipeline,
//! * [`topk`] — top-k extraction,
//! * [`recommend`] — Scenario 1 (advertisement) and Scenario 2 (profile),
//! * [`baselines`] — General, Live-Index, iFinder, OpinionLeader, PageRank,
//!   HITS comparison systems.
//!
//! ## Quickstart
//!
//! ```
//! use mass_core::{MassAnalysis, MassParams};
//! use mass_types::{DatasetBuilder, Sentiment};
//!
//! let mut b = DatasetBuilder::new();
//! let amery = b.blogger("Amery");
//! let bob = b.blogger("Bob");
//! let post = b.post(amery, "CS tips", "useful programming content with many words");
//! b.comment(post, bob, "I agree and support this", Some(Sentiment::Positive));
//! let ds = b.build().unwrap();
//!
//! let analysis = MassAnalysis::analyze(&ds, &MassParams::default());
//! let top = analysis.top_k_general(1);
//! assert_eq!(ds.blogger(top[0].0).name, "Amery");
//! ```

pub mod analysis;
pub mod baselines;
pub mod dirty;
pub mod domain;
pub mod expert_search;
pub mod gl;
pub mod incremental;
pub mod params;
pub mod quality;
pub mod recommend;
pub mod snapshot;
pub mod solver;
pub mod storm;
pub mod temporal;
pub mod topk;

pub use analysis::MassAnalysis;
pub use dirty::{DirtySet, Obligations};
pub use expert_search::ExpertSearch;
pub use gl::{gl_graph, gl_scores_csr, GlRefresh};
pub use incremental::{AdvanceStats, IncrementalMass, RefreshFault, RefreshMode, RefreshStats};
pub use params::{GlProvider, IvSource, LengthMode, MassParams, ParamsError};
pub use recommend::Recommender;
pub use snapshot::ServingSnapshot;
pub use solver::{
    solve, solve_prepared, solve_prepared_with_layout, InfluenceScores, SolveStatus, SolverInputs,
    SweepLayout,
};
pub use storm::{apply_to_dataset, apply_to_incremental, scripted_storm, ScriptedEdit, StormMix};
pub use temporal::{
    decay_inputs, rising_stars, DecayParams, RisingStar, TemporalError, TemporalParams,
};
pub use topk::top_k;
