//! Property-based tests for the influence model: invariants that must hold
//! for any dataset the strategy produces.

use mass_core::{solve, top_k, DecayParams, MassAnalysis, MassParams, TemporalParams};
use mass_types::{BloggerId, Dataset, DatasetBuilder, DomainId, Sentiment};
use proptest::prelude::*;

/// A small arbitrary blogosphere (valid by construction).
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..8, 1usize..12).prop_flat_map(|(nb, np)| {
        proptest::collection::vec(
            (
                0..nb,                                            // author
                1usize..60,                                       // word count
                proptest::collection::vec((0..nb, 0u8..4), 0..5), // comments
                0usize..10,                                       // domain
            ),
            np..=np,
        )
        .prop_map(move |specs| {
            let mut b = DatasetBuilder::new();
            let ids: Vec<BloggerId> = (0..nb).map(|i| b.blogger(format!("b{i}"))).collect();
            for (author, words, comments, domain) in specs {
                let text = format!("w{} ", author).repeat(words);
                let pid = b.post_in_domain(ids[author], "t", text.trim(), DomainId::new(domain));
                for (commenter, s) in comments {
                    if commenter == author {
                        continue;
                    }
                    let sentiment = match s {
                        0 => Some(Sentiment::Positive),
                        1 => Some(Sentiment::Negative),
                        2 => Some(Sentiment::Neutral),
                        _ => None,
                    };
                    b.comment(pid, ids[commenter], "a comment", sentiment);
                }
            }
            for i in 0..nb {
                let t = (i * 3 + 1) % nb;
                if t != i {
                    b.friend(ids[i], ids[t]);
                }
            }
            b.build().expect("strategy builds valid datasets")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_converges_and_stays_bounded(ds in arb_dataset()) {
        let s = solve(&ds, &ds.index(), &MassParams::paper());
        prop_assert!(s.converged, "residual {}", s.residual);
        for &x in s.blogger.iter().chain(&s.post).chain(&s.ap).chain(&s.gl).chain(&s.quality).chain(&s.comment) {
            prop_assert!(x.is_finite());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&x), "score {x} out of range");
        }
    }

    #[test]
    fn solver_is_deterministic(ds in arb_dataset()) {
        let a = solve(&ds, &ds.index(), &MassParams::paper());
        let b = solve(&ds, &ds.index(), &MassParams::paper());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn residuals_shrink_overall(ds in arb_dataset()) {
        let s = solve(&ds, &ds.index(), &MassParams::paper());
        // Last recorded residual never exceeds the first (the iteration is
        // a contraction in practice; we assert the weak direction).
        if s.residual_history.len() >= 2 {
            let first = s.residual_history[0];
            let last = *s.residual_history.last().unwrap();
            prop_assert!(last <= first + 1e-12, "first {first} last {last}");
        }
    }

    #[test]
    fn upgrading_a_comment_to_positive_never_hurts_the_post(
        ds in arb_dataset(),
        pick in any::<prop::sample::Index>(),
    ) {
        // Find a post with at least one comment.
        let candidates: Vec<usize> =
            (0..ds.posts.len()).filter(|&k| !ds.posts[k].comments.is_empty()).collect();
        prop_assume!(!candidates.is_empty());
        let k = candidates[pick.index(candidates.len())];

        let params = MassParams { shingle_novelty: false, ..MassParams::paper() };
        let before = solve(&ds, &ds.index(), &params);

        let mut upgraded = ds.clone();
        for c in &mut upgraded.posts[k].comments {
            c.sentiment = Some(Sentiment::Positive);
        }
        let after = solve(&upgraded, &upgraded.index(), &params);
        // The post's raw comment input grew; relative to the global
        // normaliser its score may move, but the *rank* of the post among
        // all posts must not drop.
        let rank = |scores: &[f64], k: usize| scores.iter().filter(|&&x| x > scores[k]).count();
        prop_assert!(
            rank(&after.post, k) <= rank(&before.post, k),
            "post rank worsened: {} -> {}",
            rank(&before.post, k),
            rank(&after.post, k)
        );
    }

    #[test]
    fn alpha_zero_reduces_to_gl(ds in arb_dataset()) {
        let s = solve(&ds, &ds.index(), &MassParams { alpha: 0.0, ..MassParams::paper() });
        prop_assert_eq!(s.blogger, s.gl);
    }

    #[test]
    fn top_k_is_sorted_prefix_of_full_ranking(ds in arb_dataset(), k in 0usize..10) {
        let s = solve(&ds, &ds.index(), &MassParams::paper());
        let top = top_k(&s.blogger, k);
        prop_assert_eq!(top.len(), k.min(s.blogger.len()));
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        let full = top_k(&s.blogger, s.blogger.len());
        prop_assert_eq!(&full[..top.len()], top.as_slice());
    }

    #[test]
    fn domain_matrix_conserves_post_mass(ds in arb_dataset()) {
        let analysis = mass_core::MassAnalysis::analyze(&ds, &MassParams::paper());
        // Row sums equal the summed post scores of the blogger (iv rows are
        // distributions).
        let ix = ds.index();
        for (i, row) in analysis.domain_matrix.iter().enumerate() {
            let expected: f64 = ix
                .posts_of(BloggerId::new(i))
                .iter()
                .map(|p| analysis.scores.post[p.index()])
                .sum();
            let got: f64 = row.iter().sum();
            prop_assert!((got - expected).abs() < 1e-6, "row {i}: {got} vs {expected}");
        }
    }
}

/// `x`, or — for `pick` in 1..=4 — one of the junk values a range
/// strategy never produces.
fn junk(x: f64, pick: usize) -> f64 {
    match pick {
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        _ => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `MassParams::validate` reports junk in any field as a typed error,
    /// never a panic — and whatever it accepts, the analysis runs on
    /// without panicking and yields finite scores.
    #[test]
    fn params_validation_never_panics_on_junk(
        (alpha, beta, epsilon) in (-0.5f64..1.5, -0.5f64..1.5, -0.1f64..1.0),
        (pick_alpha, pick_beta, pick_epsilon) in (0usize..16, 0usize..16, 0usize..16),
        (max_iterations, residual_history_cap) in (0usize..40, 0usize..6),
        (half_life, pick_half_life, as_of, law) in (-50.0f64..500.0, 0usize..16, 0u64..1000, 0usize..3),
        ds in arb_dataset(),
    ) {
        let temporal = match law {
            0 => None,
            1 => Some(TemporalParams {
                as_of,
                decay: DecayParams::Exponential {
                    half_life: junk(half_life, pick_half_life),
                },
            }),
            _ => Some(TemporalParams {
                as_of,
                decay: DecayParams::Window { horizon: as_of / 2 },
            }),
        };
        let params = MassParams {
            alpha: junk(alpha, pick_alpha),
            beta: junk(beta, pick_beta),
            epsilon: junk(epsilon, pick_epsilon),
            max_iterations,
            residual_history_cap,
            temporal,
            ..MassParams::paper()
        };
        match params.validate() {
            Ok(()) => {
                let a = MassAnalysis::analyze(&ds, &params);
                prop_assert!(a.scores.blogger.iter().all(|x| x.is_finite()));
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
