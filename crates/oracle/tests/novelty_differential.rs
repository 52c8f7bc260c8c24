//! Production novelty (shingle keys from per-term hashes) against the
//! reference shingler (SipHash over token strings): every post's raw
//! quality, `f64::to_bits` for bit, on the batch path and through a live
//! engine that keeps scoring new posts against the corpus.

use mass_core::quality::raw_quality_scores_prepared;
use mass_core::{IncrementalMass, MassParams};
use mass_oracle::novelty_reference::{self, ReferenceDetector};
use mass_synth::{generate, SynthConfig};
use mass_text::PreparedCorpus;
use mass_types::{BloggerId, Dataset, Post};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn corpus(bloggers: usize, seed: u64) -> Dataset {
    generate(&SynthConfig {
        bloggers,
        ..SynthConfig::paper_scale(seed)
    })
    .dataset
}

/// Batch raw quality equals the reference on `ds`, and shingles penalise
/// at least one post that carries no copy marker (so the comparison
/// exercises the shingle keys, not only the marker scan).
fn assert_batch_matches(ds: &Dataset, ctx: &str) {
    let params = MassParams::paper();
    let prepared = PreparedCorpus::build(ds, params.threads);
    let production = raw_quality_scores_prepared(ds, &prepared, &params);
    let reference = novelty_reference::raw_quality_scores(ds, &params);
    assert_eq!(bits(&production), bits(&reference), "{ctx}");
    let markers_only = novelty_reference::raw_quality_scores(
        ds,
        &MassParams {
            shingle_novelty: false,
            ..params
        },
    );
    let caught = production
        .iter()
        .zip(&markers_only)
        .filter(|(s, m)| s < m)
        .count();
    assert!(caught > 0, "{ctx}: no post was caught by its shingles");
}

#[test]
fn batch_novelty_matches_the_reference_at_600_bloggers() {
    for seed in 1..=6 {
        assert_batch_matches(&corpus(600, seed), &format!("seed {seed}"));
    }
}

/// After set-up the engine scores each new post from its raw text through
/// the detector the batch pass filled; the reference sees the same post
/// stream from scratch.
#[test]
fn engine_novelty_matches_the_reference_after_50_posts() {
    let ds = corpus(600, 3);
    let mut engine = IncrementalMass::new(ds.clone(), MassParams::paper());
    let mut reference = ReferenceDetector::default();
    let mut expected: Vec<u64> = novelty_reference::raw_quality_scores(&ds, &MassParams::paper())
        .iter()
        .map(|q| q.to_bits())
        .collect();
    for p in &ds.posts {
        reference.score_and_add(&p.text);
    }
    // Verbatim reposts, near-reposts with a fresh ending, short posts and
    // fresh text, cycling.
    let nb = ds.bloggers.len();
    let length_mode = MassParams::paper().length_mode;
    let mut reposts_caught = 0;
    for i in 0..50 {
        let source = &ds.posts[(i * 97) % ds.posts.len()].text;
        let text = match i % 4 {
            0 => source.clone(),
            1 => format!("{source} with one new closing remark {i}"),
            2 => format!("short note {i}"),
            _ => format!("fresh words about topic {i} and nothing copied here at all"),
        };
        let post = Post::new(BloggerId::new((i * 31) % nb), format!("added {i}"), text);
        let novelty = reference.score_and_add(&post.text);
        if i % 4 == 0 && novelty <= 0.1 {
            reposts_caught += 1;
        }
        let length = mass_core::quality::length_term(post.length_words(), length_mode);
        expected.push((length * novelty).to_bits());
        engine.add_post(post);
    }
    assert_eq!(bits(engine.raw_quality()), expected);
    assert!(reposts_caught > 0, "no verbatim repost was caught");
}

/// The paper-scale variant — too slow for the debug suite, release-gated
/// in scripts/check.sh.
#[test]
#[ignore = "release-only: run via `cargo test --release -p mass-oracle -- --ignored novelty` (check.sh does)"]
fn batch_novelty_matches_the_reference_at_paper_scale() {
    for seed in 1..=3 {
        assert_batch_matches(&corpus(3000, seed), &format!("paper scale, seed {seed}"));
    }
}
