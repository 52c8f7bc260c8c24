//! # mass-oracle
//!
//! Reference kernels that pin the production paths of `mass-core` bit for
//! bit. Nothing here ships in the library: the differential tests in this
//! crate and the X17 bench are its only users.
//!
//! [`solve_reference`] is the solver's original nine-pass sweep over the
//! nested `Vec` layout of [`SolverInputs`]. The production kernel
//! (`mass_core::solve_prepared`, DESIGN.md §14) fuses those passes over a
//! flat CSR layout and must reproduce every output field of this one —
//! scores, residual history, sweep count and status — `f64::to_bits` for
//! bit, at every thread count.
//!
//! [`novelty_reference`] is the original novelty shingler: SipHash over
//! each window's token strings into a SipHash set. Production novelty
//! (`mass_text::NoveltyDetector`) keys shingles from per-term hashes and
//! must score every post identically, `f64::to_bits` for bit, barring a
//! 64-bit key collision.

pub mod novelty_reference;

use mass_core::{InfluenceScores, MassParams, SolveStatus, SolverInputs};
use mass_types::Dataset;

/// The reference fixed-point solve of Eq. 1–4: the exact semantics of
/// `mass_core::solve_prepared`, computed the straightforward way.
///
/// Each sweep runs nine data-parallel passes through the `mass-par`
/// executor: comment-score fill, max, normalise; post-score fill;
/// author gather, max, normalise; influence fill; residual. Non-finite
/// inputs are neutralised first (quality/GL/sentiment → 0, TC → 1) and
/// flag the run [`SolveStatus::Degenerate`].
///
/// # Panics
/// Panics if `params` fail [`MassParams::validate`] or the inputs'
/// dimensions do not match the dataset.
pub fn solve_reference(
    ds: &Dataset,
    inputs: &SolverInputs,
    params: &MassParams,
    warm_start: Option<&[f64]>,
) -> InfluenceScores {
    if let Err(e) = params.validate() {
        panic!("invalid MassParams: {e}");
    }
    let nb = ds.bloggers.len();
    let np = ds.posts.len();
    let ex = mass_par::executor(params.threads);
    assert_eq!(inputs.raw_quality.len(), np, "quality input mismatch");
    assert_eq!(inputs.gl.len(), nb, "gl input mismatch");
    assert_eq!(inputs.factors.len(), np, "factors input mismatch");
    assert_eq!(inputs.tc.len(), nb, "tc input mismatch");

    let mut degenerate = false;
    let (alpha, beta) = (params.alpha, params.beta);
    let factors: Vec<Vec<(usize, f64)>> = inputs
        .factors
        .iter()
        .map(|per_post| {
            per_post
                .iter()
                .map(|&(j, sf)| {
                    if sf.is_finite() {
                        (j, sf)
                    } else {
                        degenerate = true;
                        (j, 0.0)
                    }
                })
                .collect()
        })
        .collect();
    // Step-3 gather layout: posts grouped by author, ascending post id
    // within each group, so each slot's addition order matches a serial
    // scatter over the posts.
    let mut posts_by_author: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (k, post) in ds.posts.iter().enumerate() {
        posts_by_author[post.author.index()].push(k);
    }
    let raw_quality: Vec<f64> = inputs
        .raw_quality
        .iter()
        .map(|&q| {
            if q.is_finite() && q >= 0.0 {
                q
            } else {
                degenerate = true;
                0.0
            }
        })
        .collect();
    let qmax = raw_quality.iter().cloned().fold(0.0f64, f64::max);
    let quality: Vec<f64> = if qmax > 0.0 {
        raw_quality.iter().map(|q| q / qmax).collect()
    } else {
        raw_quality
    };
    let gl: Vec<f64> = inputs
        .gl
        .iter()
        .map(|&g| {
            if g.is_finite() {
                g.clamp(0.0, 1.0)
            } else {
                degenerate = true;
                0.0
            }
        })
        .collect();
    let tc: Vec<f64> = inputs
        .tc
        .iter()
        .map(|&t| {
            if t.is_finite() && t > 0.0 {
                t
            } else {
                degenerate = true;
                1.0
            }
        })
        .collect();
    let mut inf = vec![0.5f64; nb]; // neutral start
    if let Some(seed) = warm_start {
        for (slot, &value) in inf.iter_mut().zip(seed) {
            if value.is_finite() {
                *slot = value.clamp(0.0, 1.0);
            } else {
                degenerate = true;
            }
        }
    }
    let mut next_inf = vec![0.0f64; nb];
    let mut ap = vec![0.0f64; nb];
    let mut post_score = vec![0.0f64; np];
    let mut comment = vec![0.0f64; np];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    let mut residual_history = Vec::new();
    let mut residual_stride = 1usize;
    let mut converged = false;

    while iterations < params.max_iterations {
        iterations += 1;
        // Step 1: raw comment scores, then max-normalise.
        ex.par_fill(&mut comment, |k| {
            factors[k]
                .iter()
                .fold(0.0, |cs, &(j, sf)| cs + inf[j] * sf / tc[j])
        });
        let cmax = ex.par_max(&comment);
        if cmax > 0.0 {
            ex.par_update(&mut comment, |_, &c| c / cmax);
        }
        // Step 2: post influence.
        ex.par_fill(&mut post_score, |k| {
            beta * quality[k] + (1.0 - beta) * comment[k]
        });
        // Step 3: accumulated-post influence, max-normalised.
        gather_ap(ex, &posts_by_author, &post_score, &mut ap);
        // Step 4: overall influence + convergence check.
        ex.par_fill(&mut next_inf, |i| alpha * ap[i] + (1.0 - alpha) * gl[i]);
        residual = ex.par_reduce_det(nb, 0.0, |i| (next_inf[i] - inf[i]).abs(), f64::max);
        std::mem::swap(&mut inf, &mut next_inf);
        // Sweeps 1 + i*stride are recorded; the stride doubles (and the
        // stored series is decimated to match) whenever the cap is hit.
        if (iterations - 1) % residual_stride == 0 {
            residual_history.push(residual);
            if residual_history.len() >= params.residual_history_cap {
                let mut keep = 0usize;
                residual_history.retain(|_| {
                    keep += 1;
                    (keep - 1).is_multiple_of(2)
                });
                residual_stride *= 2;
            }
        }
        if residual < params.epsilon {
            converged = true;
            break;
        }
    }
    // The reported AP is recomputed from the last post scores.
    gather_ap(ex, &posts_by_author, &post_score, &mut ap);
    if inf
        .iter()
        .chain(&post_score)
        .chain(&ap)
        .any(|x| !x.is_finite())
    {
        degenerate = true;
    }
    let status = if degenerate {
        SolveStatus::Degenerate
    } else if converged {
        SolveStatus::Converged
    } else {
        SolveStatus::MaxIterations
    };
    InfluenceScores {
        blogger: inf,
        post: post_score,
        ap,
        gl,
        quality,
        comment,
        iterations,
        residual,
        residual_history,
        residual_stride,
        converged,
        status,
    }
}

/// Step 3 of a sweep: each blogger's post scores summed in ascending post
/// order, then max-normalised.
fn gather_ap(
    ex: mass_par::Exec<'_>,
    posts_by_author: &[Vec<usize>],
    post_score: &[f64],
    ap: &mut [f64],
) {
    ex.par_fill(ap, |i| {
        posts_by_author[i]
            .iter()
            .fold(0.0, |a, &k| a + post_score[k])
    });
    let amax = ex.par_max(ap);
    if amax > 0.0 {
        ex.par_update(ap, |_, &a| a / amax);
    }
}
