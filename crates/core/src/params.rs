//! Model parameters.
//!
//! Section IV: "MASS also allows users to use the toolbar to set personalized
//! parameters for modeling general influence and domain influence" — α and β
//! are user-tunable, with paper defaults 0.5 and 0.6.

use crate::temporal::{TemporalError, TemporalParams};
use mass_text::NaiveBayes;
use std::fmt;

/// Which authority measure backs the General-Links (GL) facet of Eq. 1.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum GlProvider {
    /// PageRank over the blogger friend/space link graph (paper ref \[3\]).
    #[default]
    PageRank,
    /// HITS authority scores over the same graph (paper ref \[4\]).
    Hits,
    /// Raw in-link counts — the cheapest authority proxy.
    InlinkCount,
    /// PageRank over the *post-reply* graph (commenter → post author, one
    /// edge per comment): authority from who replies to whom instead of
    /// static friend links. An extension ablated in X2.
    CommentGraphPageRank,
    /// Disable the GL facet (GL ≡ 0); with α = 1 this ablates authority.
    None,
}

/// How a post's length enters the quality score.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LengthMode {
    /// The paper's raw token count ("the longer a post, the higher quality").
    Raw,
    /// `1 + ln(length)` damping so one mega-post cannot dominate AP; an
    /// ablation in the benchmark suite compares the two.
    #[default]
    LogDamped,
}

/// Where the per-post domain probabilities `iv(b_i, d_k, C_t)` come from.
#[derive(Clone, Debug, Default)]
pub enum IvSource {
    /// Train a naive-Bayes classifier on the posts that carry ground-truth
    /// domain tags, then classify every post with it. This is the paper's
    /// flow (Post Analyzer trained for the predefined domains); on fully
    /// untagged corpora it falls back to uniform vectors.
    #[default]
    TrainOnTagged,
    /// Use the ground-truth tags as one-hot vectors where present (uniform
    /// elsewhere). The oracle upper bound for ablations.
    TrueDomains,
    /// Use an externally trained classifier (e.g. trained on seed documents
    /// when the corpus has no tags at all).
    Classifier(NaiveBayes),
}

/// All tuning knobs of the MASS model. `Default` is [`MassParams::paper`],
/// so `MassParams::default()` in user code reproduces the published system.
#[derive(Clone, Debug)]
pub struct MassParams {
    /// α — weight of Accumulated-Post influence vs General-Links (Eq. 1).
    pub alpha: f64,
    /// β — weight of quality vs comment score within a post (Eq. 2).
    pub beta: f64,
    /// Authority measure for GL.
    pub gl: GlProvider,
    /// Length treatment in the quality score.
    pub length_mode: LengthMode,
    /// Domain-probability source for Eq. 5.
    pub iv: IvSource,
    /// Use corpus-level shingle detection for novelty in addition to marker
    /// words (catches verbatim reposts without markers).
    pub shingle_novelty: bool,
    /// Use the novelty factor at all. Disabling it (quality = length only)
    /// is the X2 novelty ablation.
    pub use_novelty: bool,
    /// Divide each comment's contribution by the commenter's total comment
    /// count `TC(b_j)` (Eq. 3). Disabling is the X2 citation-normalisation
    /// ablation — spray commenters then count at full weight.
    pub tc_normalisation: bool,
    /// Solver: stop when the L∞ change of blogger influence drops below this.
    pub epsilon: f64,
    /// Solver: hard sweep cap.
    pub max_iterations: usize,
    /// Solver: most residuals kept in `residual_history`. When a run would
    /// exceed the cap the stored series is decimated by doubling its stride
    /// (see `InfluenceScores::residual_stride`), bounding memory on long
    /// runs; the full per-sweep series is still emitted as `solver.sweep`
    /// trace events. The default exceeds the default `max_iterations`, so
    /// out of the box the history stays exact.
    pub residual_history_cap: usize,
    /// Worker threads for the data-parallel layer (`mass-par`): `0` uses
    /// every available core, `1` is the exact legacy serial path, `n` caps
    /// concurrency at `n`. Scores are bit-identical at every setting — the
    /// determinism contract of DESIGN.md §8, enforced by the differential
    /// harness in `tests/parallel_determinism.rs`.
    pub threads: usize,
    /// Temporal facet (DESIGN.md §15): when set, scoring weights every
    /// post and comment by its age at `as_of` under the given decay law,
    /// and items stamped after `as_of` are invisible. `None` (the
    /// default) is the timeless published model — bit-identical to
    /// builds that predate the facet.
    pub temporal: Option<TemporalParams>,
}

impl MassParams {
    /// The paper's default configuration: α = 0.5, β = 0.6.
    pub fn paper() -> Self {
        MassParams {
            alpha: 0.5,
            beta: 0.6,
            gl: GlProvider::PageRank,
            length_mode: LengthMode::LogDamped,
            iv: IvSource::TrainOnTagged,
            shingle_novelty: true,
            use_novelty: true,
            tc_normalisation: true,
            epsilon: 1e-9,
            max_iterations: 100,
            residual_history_cap: 256,
            threads: 1,
            temporal: None,
        }
    }

    /// Checks parameter ranges, returning the first rule broken as a
    /// typed error instead of panicking on junk (NaN, ±∞, zero caps).
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ParamsError::AlphaOutOfRange { value: self.alpha });
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(ParamsError::BetaOutOfRange { value: self.beta });
        }
        if self.epsilon.is_nan() || self.epsilon <= 0.0 {
            return Err(ParamsError::EpsilonNotPositive {
                value: self.epsilon,
            });
        }
        if self.max_iterations == 0 {
            return Err(ParamsError::ZeroMaxIterations);
        }
        if self.residual_history_cap < 2 {
            return Err(ParamsError::HistoryCapTooSmall {
                value: self.residual_history_cap,
            });
        }
        if let Some(t) = &self.temporal {
            t.validate().map_err(ParamsError::Temporal)?;
        }
        Ok(())
    }

    /// [`MassParams::validate`] for the library entry points that document
    /// a panic on invalid parameters.
    pub(crate) fn expect_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid MassParams: {e}");
        }
    }
}

/// Which [`MassParams::validate`] rule a parameter set broke.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamsError {
    /// α must lie in [0, 1].
    AlphaOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// β must lie in [0, 1].
    BetaOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// ε must be strictly positive (and not NaN).
    EpsilonNotPositive {
        /// The offending value.
        value: f64,
    },
    /// The solver needs at least one sweep.
    ZeroMaxIterations,
    /// The residual history must keep at least its two endpoints.
    HistoryCapTooSmall {
        /// The offending value.
        value: usize,
    },
    /// The temporal decay law is degenerate.
    Temporal(TemporalError),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::AlphaOutOfRange { value } => {
                write!(f, "alpha must be in [0, 1], got {value}")
            }
            ParamsError::BetaOutOfRange { value } => {
                write!(f, "beta must be in [0, 1], got {value}")
            }
            ParamsError::EpsilonNotPositive { value } => {
                write!(f, "epsilon must be positive, got {value}")
            }
            ParamsError::ZeroMaxIterations => write!(f, "max_iterations must be positive"),
            ParamsError::HistoryCapTooSmall { value } => {
                write!(f, "residual_history_cap must be at least 2, got {value}")
            }
            ParamsError::Temporal(e) => write!(f, "invalid temporal params: {e}"),
        }
    }
}

impl std::error::Error for ParamsError {}

impl Default for MassParams {
    fn default() -> Self {
        Self::paper()
    }
}

impl PartialEq for MassParams {
    fn eq(&self, other: &Self) -> bool {
        self.alpha == other.alpha
            && self.beta == other.beta
            && self.gl == other.gl
            && self.length_mode == other.length_mode
            && self.shingle_novelty == other.shingle_novelty
            && self.use_novelty == other.use_novelty
            && self.tc_normalisation == other.tc_normalisation
            && self.epsilon == other.epsilon
            && self.max_iterations == other.max_iterations
            && self.residual_history_cap == other.residual_history_cap
            && self.threads == other.threads
            && self.temporal == other.temporal
            && matches!(
                (&self.iv, &other.iv),
                (IvSource::TrainOnTagged, IvSource::TrainOnTagged)
                    | (IvSource::TrueDomains, IvSource::TrueDomains)
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = MassParams::paper();
        assert_eq!(p.alpha, 0.5);
        assert_eq!(p.beta, 0.6);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(MassParams::default(), MassParams::paper());
    }

    #[test]
    fn each_rule_has_its_own_error() {
        use crate::temporal::{DecayParams, TemporalParams};
        let paper = MassParams::paper;
        let cases = [
            (
                MassParams {
                    alpha: 1.5,
                    ..paper()
                },
                ParamsError::AlphaOutOfRange { value: 1.5 },
                "alpha",
            ),
            (
                MassParams {
                    beta: -0.1,
                    ..paper()
                },
                ParamsError::BetaOutOfRange { value: -0.1 },
                "beta",
            ),
            (
                MassParams {
                    epsilon: 0.0,
                    ..paper()
                },
                ParamsError::EpsilonNotPositive { value: 0.0 },
                "epsilon",
            ),
            (
                MassParams {
                    max_iterations: 0,
                    ..paper()
                },
                ParamsError::ZeroMaxIterations,
                "max_iterations",
            ),
            (
                MassParams {
                    residual_history_cap: 1,
                    ..paper()
                },
                ParamsError::HistoryCapTooSmall { value: 1 },
                "residual_history_cap",
            ),
            (
                MassParams {
                    temporal: Some(TemporalParams {
                        as_of: 100,
                        decay: DecayParams::Exponential { half_life: -3.0 },
                    }),
                    ..paper()
                },
                ParamsError::Temporal(TemporalError::HalfLifeNotPositive { value: -3.0 }),
                "half-life",
            ),
        ];
        for (params, want, word) in cases {
            let err = params.validate().unwrap_err();
            assert_eq!(err, want);
            assert!(err.to_string().contains(word), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid MassParams: alpha")]
    fn entry_points_panic_with_the_typed_message() {
        MassParams {
            alpha: 2.0,
            ..MassParams::paper()
        }
        .expect_valid();
    }
}
