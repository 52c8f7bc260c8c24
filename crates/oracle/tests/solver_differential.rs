//! The production solver kernel against the reference kernel: every output
//! field, `f64::to_bits` for bit, across shapes, parameter corners, thread
//! counts, warm starts, poisoned inputs and exotic factor sets.

use mass_core::{solve_prepared, InfluenceScores, MassParams, SolveStatus, SolverInputs};
use mass_oracle::solve_reference;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(fast: &InfluenceScores, slow: &InfluenceScores, ctx: &str) {
    assert_eq!(fast.iterations, slow.iterations, "{ctx}");
    assert_eq!(fast.residual.to_bits(), slow.residual.to_bits(), "{ctx}");
    assert_eq!(fast.residual_stride, slow.residual_stride, "{ctx}");
    assert_eq!(fast.converged, slow.converged, "{ctx}");
    assert_eq!(fast.status, slow.status, "{ctx}");
    for (name, a, b) in [
        ("blogger", &fast.blogger, &slow.blogger),
        ("post", &fast.post, &slow.post),
        ("ap", &fast.ap, &slow.ap),
        ("gl", &fast.gl, &slow.gl),
        ("quality", &fast.quality, &slow.quality),
        ("comment", &fast.comment, &slow.comment),
        ("history", &fast.residual_history, &slow.residual_history),
    ] {
        assert_eq!(bits(a), bits(b), "{name} diverged at {ctx}");
    }
}

/// The fused three-pass kernel must reproduce the reference kernel —
/// every output field, bit for bit — across shapes, parameter corners,
/// thread counts and warm starts.
#[test]
fn fused_kernel_matches_reference_bitwise() {
    for seed in [1u64, 7, 9] {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(seed));
        let ds = &out.dataset;
        let ix = ds.index();
        let variants = [
            MassParams::paper(),
            MassParams {
                alpha: 0.0,
                ..MassParams::paper()
            },
            MassParams {
                alpha: 1.0,
                beta: 0.1,
                ..MassParams::paper()
            },
            MassParams {
                epsilon: 1e-300,
                max_iterations: 12,
                residual_history_cap: 4,
                ..MassParams::paper()
            },
        ];
        for base in variants {
            let inputs = SolverInputs::build(ds, &ix, &base);
            let warm: Vec<f64> = (0..ds.bloggers.len())
                .map(|i| (i % 10) as f64 / 10.0)
                .collect();
            for threads in [1usize, 4] {
                let params = MassParams {
                    threads,
                    ..base.clone()
                };
                for seed_vec in [None, Some(warm.as_slice())] {
                    let fast = solve_prepared(ds, &inputs, &params, seed_vec);
                    let slow = solve_reference(ds, &inputs, &params, seed_vec);
                    let ctx = format!("seed={seed} threads={threads} warm={}", seed_vec.is_some());
                    assert_bitwise(&fast, &slow, &ctx);
                }
            }
        }
    }
}

/// The fused kernel must also neutralise poisoned inputs exactly like the
/// reference kernel.
#[test]
fn fused_kernel_matches_reference_on_degenerate_inputs() {
    let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(3));
    let ds = &out.dataset;
    let ix = ds.index();
    let base = MassParams::paper();
    let mut inputs = SolverInputs::build(ds, &ix, &base);
    inputs.raw_quality[0] = f64::NAN;
    inputs.gl[0] = f64::INFINITY;
    for threads in [1usize, 4] {
        let params = MassParams {
            threads,
            ..base.clone()
        };
        let fast = solve_prepared(ds, &inputs, &params, None);
        let slow = solve_reference(ds, &inputs, &params, None);
        assert_eq!(fast.status, SolveStatus::Degenerate);
        assert_eq!(fast.status, slow.status);
        assert_eq!(
            bits(&fast.blogger),
            bits(&slow.blogger),
            "threads={threads}"
        );
    }
}

/// More distinct sentiment factors than the fused kernel tabulates must
/// fall back to its direct per-comment stream — still bit-identical to the
/// reference kernel at every thread count.
#[test]
fn exotic_factor_set_falls_back_to_direct_stream() {
    let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(13));
    let ds = &out.dataset;
    let ix = ds.index();
    let base = MassParams::paper();
    let mut inputs = SolverInputs::build(ds, &ix, &base);
    // One distinct factor per comment — far beyond the tabulation cap (8
    // distinct factors; `solver.rs` unit tests pin that the layout falls
    // back) on any non-trivial corpus.
    let mut n = 0usize;
    for per_post in &mut inputs.factors {
        for slot in per_post.iter_mut() {
            slot.1 = 0.1 + 0.001 * n as f64;
            n += 1;
        }
    }
    assert!(n > 8, "corpus too small to exercise the fallback");
    for threads in [1usize, 4] {
        let params = MassParams {
            threads,
            ..base.clone()
        };
        let fast = solve_prepared(ds, &inputs, &params, None);
        let slow = solve_reference(ds, &inputs, &params, None);
        assert_eq!(fast, slow, "threads={threads}");
    }
}
