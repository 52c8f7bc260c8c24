//! The novelty key space: the raw-text path ([`NoveltyDetector::score_and_add`])
//! and the pre-hashed path ([`NoveltyDetector::score_and_add_hashed`]) must
//! index the same shingle keys, so either can follow the other on one
//! detector and every score stays bit-equal.

use mass_text::novelty::token_hash;
use mass_text::NoveltyDetector;
use proptest::prelude::*;

/// A small vocabulary, so random posts repeat shingles across and within
/// posts; "reprinted" is a copy marker.
const VOCAB: &[&str] = &[
    "travel",
    "hotel",
    "rust",
    "code",
    "summer",
    "beach",
    "reprinted",
    "food",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn text_and_hashed_paths_share_one_key_space(
        posts in proptest::collection::vec(
            (proptest::collection::vec(0usize..8, 0..14), 0usize..4, 0usize..3),
            1..16,
        ),
    ) {
        let mut streams: Vec<Vec<&str>> = Vec::new();
        for (ids, copy, _) in &posts {
            // One post in four reposts the one before it verbatim.
            let stream = match streams.last() {
                Some(prev) if *copy == 0 => prev.clone(),
                _ => ids.iter().map(|&i| VOCAB[i]).collect(),
            };
            streams.push(stream);
        }

        let mut by_text = NoveltyDetector::default();
        let mut by_hash = NoveltyDetector::default();
        let mut mixed = NoveltyDetector::default();
        for (k, (stream, (_, _, path))) in streams.iter().zip(&posts).enumerate() {
            let text = stream.join(" ");
            let hashes: Vec<u64> = stream.iter().map(|t| token_hash(t)).collect();
            let a = by_text.score_and_add(&text);
            let b = by_hash.score_and_add_hashed(&text, &hashes);
            let c = if *path == 0 {
                mixed.score_and_add(&text)
            } else {
                mixed.score_and_add_hashed(&text, &hashes)
            };
            prop_assert_eq!(a.to_bits(), b.to_bits(), "hashed path diverged on post {}", k);
            prop_assert_eq!(a.to_bits(), c.to_bits(), "interleaved diverged on post {}", k);
            prop_assert_eq!(by_text.indexed_shingles(), by_hash.indexed_shingles());
            prop_assert_eq!(by_text.indexed_shingles(), mixed.indexed_shingles());
        }
    }
}
