//! The reference novelty shingler: every 4-token window hashed as its token
//! strings (each followed by a `0xff` separator) with SipHash, kept in a
//! SipHash `HashSet<u64>`. Marker words, the check-then-insert order and
//! the duplicate band are those of `mass_text::NoveltyDetector`; only the
//! shingle keys differ, so the two score alike unless keys collide.

use mass_core::quality::length_term;
use mass_core::MassParams;
use mass_text::novelty::novelty_from_markers;
use mass_text::{tokenize, NoveltyParams};
use mass_types::Dataset;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// The corpus-level detector of `mass_text::NoveltyDetector`, with string
/// shingle hashes.
#[derive(Debug)]
pub struct ReferenceDetector {
    params: NoveltyParams,
    seen_shingles: HashSet<u64>,
}

impl ReferenceDetector {
    /// An empty detector.
    pub fn new(params: NoveltyParams) -> Self {
        ReferenceDetector {
            params,
            seen_shingles: HashSet::new(),
        }
    }

    /// Scores `text` against the posts seen so far, then indexes it.
    pub fn score_and_add(&mut self, text: &str) -> f64 {
        let marker_score = novelty_from_markers(text);
        let tokens = tokenize(text);
        let shingles: Vec<u64> = if tokens.len() < self.params.shingle_len {
            // Short posts hash as a single whole-text shingle.
            if tokens.is_empty() {
                Vec::new()
            } else {
                vec![hash_tokens(&tokens)]
            }
        } else {
            tokens
                .windows(self.params.shingle_len)
                .map(hash_tokens)
                .collect()
        };
        let overlap = if shingles.is_empty() {
            0.0
        } else {
            let seen = shingles
                .iter()
                .filter(|s| self.seen_shingles.contains(s))
                .count();
            seen as f64 / shingles.len() as f64
        };
        self.seen_shingles.extend(shingles);

        if overlap >= self.params.duplicate_threshold {
            let dup_score =
                0.1 * (1.0 - overlap).max(0.01) / (1.0 - self.params.duplicate_threshold).max(0.01);
            marker_score.min(dup_score.clamp(0.001, 0.1))
        } else {
            marker_score
        }
    }

    /// Distinct shingles indexed so far.
    pub fn indexed_shingles(&self) -> usize {
        self.seen_shingles.len()
    }
}

impl Default for ReferenceDetector {
    fn default() -> Self {
        Self::new(NoveltyParams::default())
    }
}

fn hash_tokens(tokens: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    for t in tokens {
        t.hash(&mut h);
        0xffu8.hash(&mut h); // separator so ["ab","c"] != ["a","bc"]
    }
    h.finish()
}

/// Per-post raw quality (length term × novelty) of `ds` in dataset order —
/// the semantics of `mass_core::quality::raw_quality_scores_prepared`, with
/// reference shingle keys.
pub fn raw_quality_scores(ds: &Dataset, params: &MassParams) -> Vec<f64> {
    let mut detector =
        (params.use_novelty && params.shingle_novelty).then(ReferenceDetector::default);
    ds.posts
        .iter()
        .map(|post| {
            let novelty = match (params.use_novelty, detector.as_mut()) {
                (false, _) => 1.0,
                (true, Some(d)) => d.score_and_add(&post.text),
                (true, None) => novelty_from_markers(&post.text),
            };
            length_term(post.length_words(), params.length_mode) * novelty
        })
        .collect()
}
