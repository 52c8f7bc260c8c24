//! Novelty scoring for the quality facet (`Novelty(b_i, d_k)`).
//!
//! The paper: "We collect a set of words indicating that an article is a
//! copy of other sources, and set Novelty to a value between 0 and 0.1 if
//! the article contains such words, and otherwise we consider the article
//! original and set its Novelty to 1" (Section II, following ref \[2\]'s
//! observation that reproduced content brings little influence).
//!
//! Two signals feed the score:
//!
//! 1. **Copy-indicator words** — "reprinted", "forwarded", "source:", … The
//!    more indicators, the closer the score drops toward 0 (within the
//!    paper's (0, 0.1] band).
//! 2. **Shingle overlap** (optional, corpus-level) — a [`NoveltyDetector`]
//!    indexes 4-token shingles of every post; a post whose shingles mostly
//!    appeared in *earlier* posts is treated as a copy even without marker
//!    words. This catches verbatim reposts the lexicon misses.
//!
//! **Shingle keys.** Each token is hashed once, by [`token_hash`]; a
//! shingle's key is a fixed 64-bit mix of its per-term hashes, seeded with
//! how many terms it holds (so a short post's whole-text shingle never
//! aliases a full `w`-token window). The batch path hashes the interned vocabulary once and maps
//! each post's term ids through that table
//! ([`NoveltyDetector::score_and_add_hashed`]); raw-text callers
//! ([`NoveltyDetector::score_and_add`]) hash their tokens on the fly and
//! land in the same key space. Keys are already mixed, so the seen-set
//! stores them through a pass-through hasher. Two different shingles can
//! share a key only on a 64-bit collision — the one way the score can
//! differ from an exact string-set comparison.

use crate::tokenize::tokenize;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Phrases that mark a post as reproduced content. Checked against the
/// lowercased text, so multi-word markers work.
const COPY_MARKERS: &[&str] = &[
    "reprinted",
    "repost",
    "reposted",
    "forwarded from",
    "copied from",
    "via ",
    "source:",
    "originally posted",
    "originally published",
    "courtesy of",
    "all rights reserved by the original",
    "zhuanzai", // transliteration of 转载, ubiquitous on 2000s Chinese blogs like MSN Spaces
];

/// Tuning for [`NoveltyDetector`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoveltyParams {
    /// Shingle width in tokens.
    pub shingle_len: usize,
    /// Fraction of shingles that must be previously seen before a post is
    /// treated as a near-duplicate.
    pub duplicate_threshold: f64,
}

impl Default for NoveltyParams {
    fn default() -> Self {
        NoveltyParams {
            shingle_len: 4,
            duplicate_threshold: 0.8,
        }
    }
}

/// Scores the novelty of one post from its text alone (marker words only).
///
/// Returns 1.0 for original posts; for posts with `n ≥ 1` markers returns
/// `0.1 / n`, inside the paper's (0, 0.1] band and decreasing with stronger
/// copy evidence.
pub fn novelty_from_markers(text: &str) -> f64 {
    let lower = text.to_lowercase();
    let hits = COPY_MARKERS.iter().filter(|m| lower.contains(*m)).count();
    if hits == 0 {
        1.0
    } else {
        0.1 / hits as f64
    }
}

/// The 64-bit hash of one token, the input to every shingle key.
pub fn token_hash(token: &str) -> u64 {
    let mut h = DefaultHasher::new();
    token.hash(&mut h);
    h.finish()
}

/// MurmurHash3's 64-bit finaliser: a bijection that avalanches every input
/// bit into every output bit.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The key of the shingle whose tokens hash to `term_hashes`, in order.
/// Seeded with the number of terms; each term is folded in through a
/// rotate, an xor and a full avalanche, so the key depends on term order.
fn shingle_key(term_hashes: &[u64]) -> u64 {
    term_hashes
        .iter()
        .fold(fmix64(term_hashes.len() as u64), |k, &t| {
            fmix64(k.rotate_left(23) ^ t)
        })
}

/// Hasher for keys that are already uniformly mixed: passes the `u64`
/// through unchanged.
#[derive(Clone, Copy, Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassThrough only hashes u64 shingle keys")
    }

    fn write_u64(&mut self, k: u64) {
        self.0 = k;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Corpus-level novelty detector combining marker words with shingle overlap.
///
/// Feed posts in (chronological) order with [`NoveltyDetector::score_and_add`];
/// each call returns the post's novelty given everything seen *before* it,
/// then indexes it. The first copy of a text scores 1.0, later near-verbatim
/// copies fall into the (0, 0.1] band.
#[derive(Debug)]
pub struct NoveltyDetector {
    params: NoveltyParams,
    seen_shingles: HashSet<u64, BuildHasherDefault<PassThrough>>,
    /// The current post's shingle keys (reused across calls).
    keys: Vec<u64>,
}

impl NoveltyDetector {
    /// Creates a detector.
    ///
    /// # Panics
    /// Panics if `shingle_len == 0` or the threshold is outside (0, 1].
    pub fn new(params: NoveltyParams) -> Self {
        assert!(params.shingle_len > 0, "shingle_len must be positive");
        assert!(
            params.duplicate_threshold > 0.0 && params.duplicate_threshold <= 1.0,
            "duplicate_threshold must be in (0, 1]"
        );
        NoveltyDetector {
            params,
            seen_shingles: HashSet::default(),
            keys: Vec::new(),
        }
    }

    /// Scores `text` against the corpus so far, then adds it to the corpus.
    pub fn score_and_add(&mut self, text: &str) -> f64 {
        let hashes: Vec<u64> = tokenize(text).iter().map(|t| token_hash(t)).collect();
        self.score_and_add_hashed(text, &hashes)
    }

    /// [`Self::score_and_add`] with the tokens already hashed — the
    /// prepared-corpus path. `term_hashes` must be the [`token_hash`]es of
    /// the (stopword-filtered) tokens of `text`, in order; the raw text is
    /// still needed for the marker scan, which is a substring search, not a
    /// token match.
    pub fn score_and_add_hashed(&mut self, text: &str, term_hashes: &[u64]) -> f64 {
        let marker_score = novelty_from_markers(text);
        self.keys.clear();
        if term_hashes.len() < self.params.shingle_len {
            // Short posts hash as a single whole-text shingle.
            if !term_hashes.is_empty() {
                self.keys.push(shingle_key(term_hashes));
            }
        } else {
            self.keys.extend(
                term_hashes
                    .windows(self.params.shingle_len)
                    .map(shingle_key),
            );
        }
        // Check every key before inserting any, so a shingle repeated
        // within this post still counts as unseen.
        let overlap = if self.keys.is_empty() {
            0.0
        } else {
            let seen = self
                .keys
                .iter()
                .filter(|k| self.seen_shingles.contains(k))
                .count();
            seen as f64 / self.keys.len() as f64
        };
        self.seen_shingles.extend(self.keys.iter().copied());

        if overlap >= self.params.duplicate_threshold {
            // Near-duplicate: squeeze into (0, 0.1], lower for higher overlap.
            let dup_score =
                0.1 * (1.0 - overlap).max(0.01) / (1.0 - self.params.duplicate_threshold).max(0.01);
            marker_score.min(dup_score.clamp(0.001, 0.1))
        } else {
            marker_score
        }
    }

    /// Shingle keys a post of `tokens` tokens contributes: one per full
    /// window, one whole-text key for a shorter non-empty post.
    pub fn shingles_in(&self, tokens: usize) -> usize {
        match tokens {
            0 => 0,
            n if n < self.params.shingle_len => 1,
            n => n - self.params.shingle_len + 1,
        }
    }

    /// Makes room for `additional` more distinct shingles, so a pass of
    /// known size indexes without rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.seen_shingles.reserve(additional);
    }

    /// Distinct shingles indexed so far.
    pub fn indexed_shingles(&self) -> usize {
        self.seen_shingles.len()
    }
}

impl Default for NoveltyDetector {
    fn default() -> Self {
        Self::new(NoveltyParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_text_scores_one() {
        assert_eq!(
            novelty_from_markers("my own thoughts on rust databases"),
            1.0
        );
    }

    #[test]
    fn marker_words_drop_into_paper_band() {
        let s = novelty_from_markers("Reprinted with permission");
        assert!(s > 0.0 && s <= 0.1);
        let s2 = novelty_from_markers("reprinted, forwarded from a friend, source: somewhere");
        assert!(s2 < s);
        assert!(s2 > 0.0);
    }

    #[test]
    fn markers_case_insensitive() {
        assert!(novelty_from_markers("REPOSTED from elsewhere") <= 0.1);
    }

    #[test]
    fn detector_first_copy_is_novel_second_is_not() {
        let mut d = NoveltyDetector::default();
        let text = "a long enough post about travel plans in summer with many details \
                    covering hotels flights and local food recommendations for everyone";
        assert_eq!(d.score_and_add(text), 1.0);
        let dup = d.score_and_add(text);
        assert!(dup > 0.0 && dup <= 0.1, "duplicate scored {dup}");
    }

    #[test]
    fn partial_overlap_below_threshold_is_original() {
        let mut d = NoveltyDetector::default();
        d.score_and_add("alpha beta gamma delta epsilon zeta");
        let s = d.score_and_add("alpha beta gamma delta totally different ending here now");
        assert_eq!(s, 1.0);
    }

    #[test]
    fn short_posts_handled() {
        let mut d = NoveltyDetector::default();
        assert_eq!(d.score_and_add("hi"), 1.0);
        let s = d.score_and_add("hi");
        assert!(s <= 0.1);
        assert_eq!(d.score_and_add(""), 1.0); // empty: no shingles, no markers
    }

    #[test]
    fn indexed_shingles_grow() {
        let mut d = NoveltyDetector::default();
        assert_eq!(d.indexed_shingles(), 0);
        d.score_and_add("one two three four five six");
        assert!(d.indexed_shingles() >= 3);
    }

    #[test]
    fn marker_beats_shingle_when_lower() {
        let mut d = NoveltyDetector::default();
        let s =
            d.score_and_add("reprinted reprinted something fresh entirely new words here today");
        assert!(s <= 0.1);
    }

    #[test]
    fn token_path_matches_text_path_even_interleaved() {
        let texts = [
            "a long enough post about travel plans in summer with many details",
            "a long enough post about travel plans in summer with many details",
            "reprinted, forwarded from a friend, source: somewhere",
            "hi",
            "hi",
            "",
            "alpha beta gamma delta totally different ending here now",
        ];
        let mut by_text = NoveltyDetector::default();
        let mut mixed = NoveltyDetector::default();
        for (i, text) in texts.iter().enumerate() {
            let a = by_text.score_and_add(text);
            let b = if i % 2 == 0 {
                let hashes: Vec<u64> = tokenize(text).iter().map(|t| token_hash(t)).collect();
                mixed.score_and_add_hashed(text, &hashes)
            } else {
                mixed.score_and_add(text)
            };
            assert_eq!(a.to_bits(), b.to_bits(), "diverged on post {i}");
        }
        assert_eq!(by_text.indexed_shingles(), mixed.indexed_shingles());
    }

    #[test]
    fn token_boundaries_change_the_key() {
        let ab_c = shingle_key(&[token_hash("ab"), token_hash("c")]);
        let a_bc = shingle_key(&[token_hash("a"), token_hash("bc")]);
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn keys_depend_on_term_order_and_window_length() {
        let (a, b) = (token_hash("alpha"), token_hash("beta"));
        assert_ne!(shingle_key(&[a, b]), shingle_key(&[b, a]));
        assert_ne!(shingle_key(&[a]), shingle_key(&[a, a]));
    }

    #[test]
    fn shingles_in_counts_windows_and_short_posts() {
        let d = NoveltyDetector::default();
        assert_eq!([0, 1, 3, 4, 10].map(|n| d.shingles_in(n)), [0, 1, 1, 1, 7]);
    }

    #[test]
    fn repeated_shingle_within_one_post_counts_as_unseen() {
        let mut d = NoveltyDetector::default();
        // 37 windows over 4 distinct shingles: inserting while checking
        // would see 33 of them (overlap 0.89, a duplicate), but none was
        // seen before this post.
        let text = "rust code fast safe ".repeat(10);
        assert_eq!(d.score_and_add(&text), 1.0);
        assert_eq!(d.indexed_shingles(), 4);
    }

    #[test]
    #[should_panic(expected = "shingle_len")]
    fn zero_shingle_len_rejected() {
        let _ = NoveltyDetector::new(NoveltyParams {
            shingle_len: 0,
            duplicate_threshold: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "duplicate_threshold")]
    fn bad_threshold_rejected() {
        let _ = NoveltyDetector::new(NoveltyParams {
            shingle_len: 4,
            duplicate_threshold: 1.5,
        });
    }
}
