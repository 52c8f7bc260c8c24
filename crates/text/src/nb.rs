//! Multinomial naive Bayes text classification (ref \[7\] of the paper).
//!
//! MASS "automatically analyzes the posts and generates a `iv(b_i,d_k,C_t)`
//! using naive Bayesian method" (Section II). [`NaiveBayes::posterior`]
//! returns exactly that: a probability vector over the domain catalogue for
//! one post, which Eq. 5 multiplies into the post's influence score.

use crate::intern::{Interner, TermId};
use crate::prepared::PreparedCorpus;
use crate::tokenize::tokenize;
use std::collections::HashMap;

/// Incremental trainer; call [`NaiveBayesTrainer::add_document`] per labelled
/// document, then [`NaiveBayesTrainer::build`].
#[derive(Clone, Debug)]
pub struct NaiveBayesTrainer {
    classes: usize,
    /// term → per-class occurrence counts.
    term_counts: HashMap<String, Vec<u32>>,
    /// total token count per class.
    class_tokens: Vec<u64>,
    /// number of documents per class (for the prior).
    class_docs: Vec<u64>,
}

impl NaiveBayesTrainer {
    /// Creates a trainer for `classes` classes (domains).
    ///
    /// # Panics
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        NaiveBayesTrainer {
            classes,
            term_counts: HashMap::new(),
            class_tokens: vec![0; classes],
            class_docs: vec![0; classes],
        }
    }

    /// Adds a labelled document given raw text (tokenized internally).
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    pub fn add_document(&mut self, class: usize, text: &str) {
        self.add_tokens(class, tokenize(text).iter().map(String::as_str));
    }

    /// Adds a labelled document given pre-tokenized terms.
    pub fn add_tokens<'a, I: IntoIterator<Item = &'a str>>(&mut self, class: usize, tokens: I) {
        assert!(class < self.classes, "class {class} out of range");
        self.class_docs[class] += 1;
        for t in tokens {
            let entry = self
                .term_counts
                .entry(t.to_string())
                .or_insert_with(|| vec![0; self.classes]);
            entry[class] += 1;
            self.class_tokens[class] += 1;
        }
    }

    /// Adds a labelled document given its `(term, count)` bag — the prepared
    /// corpus's CSR row. Produces exactly the trainer state of feeding the
    /// same token multiset through [`NaiveBayesTrainer::add_tokens`].
    pub fn add_term_counts<'a, I: IntoIterator<Item = (&'a str, u32)>>(
        &mut self,
        class: usize,
        terms: I,
    ) {
        assert!(class < self.classes, "class {class} out of range");
        self.class_docs[class] += 1;
        for (t, n) in terms {
            let entry = self
                .term_counts
                .entry(t.to_string())
                .or_insert_with(|| vec![0; self.classes]);
            entry[class] += n;
            self.class_tokens[class] += n as u64;
        }
    }

    /// Documents seen so far.
    pub fn document_count(&self) -> u64 {
        self.class_docs.iter().sum()
    }

    /// Freezes the model. `min_term_count` prunes terms seen fewer times in
    /// total (0 or 1 keeps everything).
    pub fn build(self, min_term_count: u32) -> NaiveBayes {
        let _span = mass_obs::span_with(
            "text.nb_build",
            vec![
                mass_obs::field("classes", self.classes),
                mass_obs::field("docs", self.document_count()),
            ],
        );
        let mut vocab: Vec<(String, Vec<u32>)> = self
            .term_counts
            .into_iter()
            .filter(|(_, counts)| counts.iter().sum::<u32>() >= min_term_count.max(1))
            .collect();
        vocab.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic model
                                             // Recompute per-class token totals over the surviving vocabulary so
                                             // the multinomial distributions stay properly normalised.
        let mut class_tokens = vec![0u64; self.classes];
        for (_, counts) in &vocab {
            for (c, &n) in counts.iter().enumerate() {
                class_tokens[c] += n as u64;
            }
        }
        let term_index: HashMap<String, usize> = vocab
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (t.clone(), i))
            .collect();
        let term_class_counts = vocab.into_iter().map(|(_, c)| c).collect();
        NaiveBayes {
            classes: self.classes,
            term_index,
            term_class_counts,
            class_tokens,
            class_docs: self.class_docs,
        }
    }
}

/// A trained multinomial naive Bayes model with Laplace (add-one) smoothing.
#[derive(Clone, Debug)]
pub struct NaiveBayes {
    classes: usize,
    term_index: HashMap<String, usize>,
    term_class_counts: Vec<Vec<u32>>,
    class_tokens: Vec<u64>,
    class_docs: Vec<u64>,
}

impl NaiveBayes {
    /// Number of classes the model was trained with.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Vocabulary size after pruning.
    pub fn vocabulary_size(&self) -> usize {
        self.term_index.len()
    }

    /// Unnormalised log-posterior per class for raw text.
    pub fn log_scores(&self, text: &str) -> Vec<f64> {
        self.log_scores_tokens(tokenize(text).iter().map(String::as_str))
    }

    /// Unnormalised log-posterior per class for pre-tokenized terms.
    /// Out-of-vocabulary terms are ignored (their smoothed likelihood is
    /// class-independent up to the denominator, and dropping them keeps
    /// short comments from being dominated by noise).
    pub fn log_scores_tokens<'a, I: IntoIterator<Item = &'a str>>(&self, tokens: I) -> Vec<f64> {
        let total_docs: u64 = self.class_docs.iter().sum();
        let v = self.term_index.len() as f64;
        let mut scores: Vec<f64> = (0..self.classes)
            .map(|c| {
                // Laplace-smoothed prior so empty classes stay representable.
                let prior =
                    (self.class_docs[c] as f64 + 1.0) / (total_docs as f64 + self.classes as f64);
                prior.ln()
            })
            .collect();
        for t in tokens {
            if let Some(&idx) = self.term_index.get(t) {
                let counts = &self.term_class_counts[idx];
                for (c, score) in scores.iter_mut().enumerate() {
                    let likelihood = (counts[c] as f64 + 1.0) / (self.class_tokens[c] as f64 + v);
                    *score += likelihood.ln();
                }
            }
        }
        scores
    }

    /// The posterior distribution `P(C_t | text)` — the paper's
    /// `iv(b_i, d_k, C_t)`. Sums to 1.
    pub fn posterior(&self, text: &str) -> Vec<f64> {
        softmax(&self.log_scores(text))
    }

    /// Posteriors for a batch of documents, computed through the `mass-par`
    /// executor. Each document's vector is independent of the others, so the
    /// result is element-for-element bit-identical to calling
    /// [`NaiveBayes::posterior`] serially, at every thread count. Accepts
    /// any string-ish slice (`&[String]`, `&[&str]`, …) so callers need not
    /// clone whole documents.
    pub fn posterior_batch<S: AsRef<str> + Sync>(
        &self,
        docs: &[S],
        threads: usize,
    ) -> Vec<Vec<f64>> {
        mass_par::executor(threads).par_map(docs, |doc| self.posterior(doc.as_ref()))
    }

    /// Posterior for pre-tokenized terms.
    pub fn posterior_tokens<'a, I: IntoIterator<Item = &'a str>>(&self, tokens: I) -> Vec<f64> {
        softmax(&self.log_scores_tokens(tokens))
    }

    /// Most probable class.
    pub fn classify(&self, text: &str) -> usize {
        argmax(&self.log_scores(text))
    }

    /// Compiles the model against an interner's vocabulary into a dense
    /// log-likelihood table for gather-and-sum classification. The compiled
    /// model scores interned token sequences with `f64::to_bits`-identical
    /// results to [`NaiveBayes::log_scores`] on the equivalent raw text.
    pub fn compile(&self, interner: &Interner) -> CompiledNb {
        let v = self.term_index.len() as f64;
        let total_docs: u64 = self.class_docs.iter().sum();
        // One extra all-zero column absorbs out-of-vocabulary terms: adding
        // its +0.0 per class is a bit-exact no-op (running scores start at
        // ln(prior) ≤ 0 and never become -0.0), so the gather loop needs no
        // membership branch.
        let width = self.term_index.len() + 1;
        let mut ll = vec![0.0f64; self.classes * width];
        for (idx, counts) in self.term_class_counts.iter().enumerate() {
            for (c, row) in ll.chunks_exact_mut(width).enumerate() {
                row[idx] = ((counts[c] as f64 + 1.0) / (self.class_tokens[c] as f64 + v)).ln();
            }
        }
        let log_priors: Vec<f64> = (0..self.classes)
            .map(|c| {
                ((self.class_docs[c] as f64 + 1.0) / (total_docs as f64 + self.classes as f64)).ln()
            })
            .collect();
        let oov = (width - 1) as u32;
        let term_map: Vec<u32> = (0..interner.len() as u32)
            .map(|id| {
                self.term_index
                    .get(interner.resolve(id))
                    .map_or(oov, |&i| i as u32)
            })
            .collect();
        // Term-major transpose of the same values: one token's per-class
        // likelihoods sit contiguously, so the gather inner loop over
        // classes autovectorises instead of striding by `width`.
        let mut ll_t = vec![0.0f64; self.classes * width];
        for c in 0..self.classes {
            for col in 0..width {
                ll_t[col * self.classes + c] = ll[c * width + col];
            }
        }
        CompiledNb {
            classes: self.classes,
            width,
            log_priors,
            ll,
            ll_t,
            term_map,
        }
    }
}

/// A trained model flattened into a dense row-major table of precomputed
/// log-likelihoods (`ll[class * width + column]`), plus a map from interner
/// [`TermId`]s to table columns. Classification over interned token
/// sequences becomes a branch-free gather-and-sum — no tokenization, no
/// hashing, no `ln` — that `mass-par` chunks effectively.
#[derive(Clone, Debug)]
pub struct CompiledNb {
    classes: usize,
    /// Model vocabulary size + 1; the last column is all zeros (OOV).
    width: usize,
    log_priors: Vec<f64>,
    /// Class-major table (`ll[class * width + column]`) — the original
    /// layout, kept as the reference gather for differential tests and
    /// old-vs-new benches ([`CompiledNb::log_scores_ids_ref`]).
    ll: Vec<f64>,
    /// Term-major transpose (`ll_t[column * classes + class]`): one token's
    /// likelihoods are contiguous, so the per-token class loop is a unit
    /// stride the compiler vectorises. Same values as `ll`, bit for bit.
    ll_t: Vec<f64>,
    /// Interner id → table column (`width - 1` for terms the model never
    /// saw).
    term_map: Vec<u32>,
}

impl CompiledNb {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Unnormalised log-posterior per class, written into `out` (length
    /// `classes`) — no allocation. Walks tokens in order, adding each one's
    /// contiguous per-class likelihood row from the term-major table: the
    /// exact addition order of [`NaiveBayes::log_scores_tokens`], so the
    /// bits match.
    pub fn log_scores_ids_into(&self, ids: &[TermId], out: &mut [f64]) {
        assert_eq!(out.len(), self.classes);
        out.copy_from_slice(&self.log_priors);
        for &t in ids {
            let col = self.term_map[t as usize] as usize;
            let row = &self.ll_t[col * self.classes..(col + 1) * self.classes];
            for (score, &l) in out.iter_mut().zip(row) {
                *score += l;
            }
        }
    }

    /// The posterior distribution, written into `out` (length `classes`) —
    /// no allocation. Bit-identical to `softmax(log_scores)`.
    pub fn posterior_ids_into(&self, ids: &[TermId], out: &mut [f64]) {
        self.log_scores_ids_into(ids, out);
        softmax_in_place(out);
    }

    /// Allocating wrapper over [`CompiledNb::log_scores_ids_into`].
    pub fn log_scores_ids(&self, ids: &[TermId]) -> Vec<f64> {
        let mut out = vec![0.0f64; self.classes];
        self.log_scores_ids_into(ids, &mut out);
        out
    }

    /// The pre-transpose reference gather: clones the priors and strides
    /// the class-major table — the original `log_scores_ids` loop, kept
    /// callable so differential tests and the X17 bench can pin the
    /// restructured kernel against it.
    pub fn log_scores_ids_ref(&self, ids: &[TermId]) -> Vec<f64> {
        let mut scores = self.log_priors.clone();
        for &t in ids {
            let col = self.term_map[t as usize] as usize;
            for (c, score) in scores.iter_mut().enumerate() {
                *score += self.ll[c * self.width + col];
            }
        }
        scores
    }

    /// Allocating wrapper over [`CompiledNb::posterior_ids_into`].
    pub fn posterior_ids(&self, ids: &[TermId]) -> Vec<f64> {
        let mut out = vec![0.0f64; self.classes];
        self.posterior_ids_into(ids, &mut out);
        out
    }

    /// Reference posterior over [`CompiledNb::log_scores_ids_ref`] with the
    /// original allocating softmax — the exact pre-PR per-document path.
    pub fn posterior_ids_ref(&self, ids: &[TermId]) -> Vec<f64> {
        softmax(&self.log_scores_ids_ref(ids))
    }

    /// Most probable class for an interned token sequence.
    pub fn classify_ids(&self, ids: &[TermId]) -> usize {
        argmax(&self.log_scores_ids(ids))
    }

    /// Posterior of every post document in `corpus` as one flat row-major
    /// `posts × classes` allocation (row `k` = post `k`'s distribution),
    /// through the `mass-par` executor. Each row is bit-identical to
    /// [`CompiledNb::posterior_ids`] at every thread count. Records the
    /// `text.classify_batch_us` histogram.
    pub fn posterior_batch_prepared_flat(
        &self,
        corpus: &PreparedCorpus,
        threads: usize,
    ) -> Vec<f64> {
        let start = std::time::Instant::now();
        let mut out = vec![0.0f64; corpus.posts() * self.classes];
        mass_par::executor(threads).par_fill_rows(&mut out, self.classes, |k, row| {
            self.posterior_ids_into(corpus.doc_tokens(k), row)
        });
        mass_obs::histogram("text.classify_batch_us").record_duration(start.elapsed());
        out
    }

    /// Posterior of every post document in `corpus`, one `Vec` per post.
    /// Thin carve-up of [`CompiledNb::posterior_batch_prepared_flat`] —
    /// same values bit for bit, kept for callers that want row ownership.
    pub fn posterior_batch_prepared(
        &self,
        corpus: &PreparedCorpus,
        threads: usize,
    ) -> Vec<Vec<f64>> {
        self.posterior_batch_prepared_flat(corpus, threads)
            .chunks_exact(self.classes)
            .map(|row| row.to_vec())
            .collect()
    }
}

/// Numerically-stable softmax over log scores.
fn softmax(log_scores: &[f64]) -> Vec<f64> {
    let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = log_scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// [`softmax`] without the two intermediate allocations: identical
/// operation sequence (max fold, exp in order, ascending sum, divide), so
/// the result is bit-identical to the allocating version.
fn softmax_in_place(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let sum: f64 = scores.iter().sum();
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
        .map(|(i, _)| i)
        .expect("at least one class")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> NaiveBayes {
        let mut t = NaiveBayesTrainer::new(3);
        // class 0: travel, 1: sports, 2: computer
        t.add_document(0, "travel hotel flight beach vacation resort");
        t.add_document(0, "travel passport airport hotel tour");
        t.add_document(1, "football match goal team league sports");
        t.add_document(1, "basketball game score team sports win");
        t.add_document(2, "computer programming code software rust compiler");
        t.add_document(2, "algorithm data structure code computer");
        t.build(1)
    }

    #[test]
    fn classifies_clear_documents() {
        let m = trained();
        assert_eq!(m.classify("booking a hotel for my beach vacation"), 0);
        assert_eq!(m.classify("the team scored a late goal in the match"), 1);
        assert_eq!(m.classify("writing rust code for a compiler"), 2);
    }

    #[test]
    fn posterior_sums_to_one_and_peaks_right() {
        let m = trained();
        let p = m.posterior("football game with my team");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p.len(), 3);
        assert!(p[1] > p[0] && p[1] > p[2]);
    }

    #[test]
    fn empty_text_falls_back_to_prior() {
        let mut t = NaiveBayesTrainer::new(2);
        t.add_document(0, "a a a alpha");
        t.add_document(0, "alpha beta");
        t.add_document(1, "gamma");
        let m = t.build(1);
        let p = m.posterior("");
        // Priors (smoothed): class0 = 3/4, class1 = 2/4 → normalised.
        assert!(p[0] > p[1]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oov_terms_ignored() {
        let m = trained();
        let clean = m.posterior("football match");
        let noisy = m.posterior("football match zzzzqqq xyzzy");
        for (a, b) in clean.iter().zip(&noisy) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pruning_shrinks_vocabulary() {
        let mut t = NaiveBayesTrainer::new(2);
        t.add_document(0, "common common common rare");
        t.add_document(1, "common");
        let full = t.clone().build(1);
        let pruned = t.build(2);
        assert!(pruned.vocabulary_size() < full.vocabulary_size());
        assert_eq!(pruned.vocabulary_size(), 1);
    }

    #[test]
    fn untrained_class_gets_nonzero_posterior() {
        let mut t = NaiveBayesTrainer::new(3);
        t.add_document(0, "alpha beta");
        t.add_document(1, "gamma delta");
        // class 2 never sees a document
        let m = t.build(1);
        let p = m.posterior("alpha");
        assert!(p[2] > 0.0);
        assert!(p[0] > p[2]);
    }

    #[test]
    fn deterministic_across_builds() {
        let build = || {
            let mut t = NaiveBayesTrainer::new(2);
            t.add_document(0, "x y z w");
            t.add_document(1, "p q r s");
            t.build(1)
        };
        let a = build().posterior("x q");
        let b = build().posterior("x q");
        assert_eq!(a, b);
    }

    #[test]
    fn document_count_tracks() {
        let mut t = NaiveBayesTrainer::new(2);
        assert_eq!(t.document_count(), 0);
        t.add_document(0, "a b");
        t.add_document(1, "c d");
        assert_eq!(t.document_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_class_panics() {
        NaiveBayesTrainer::new(2).add_document(5, "x");
    }

    #[test]
    fn compiled_matches_string_path_bitwise() {
        let m = trained();
        let texts = [
            "booking a hotel for my beach vacation",
            "the team scored a late goal in the match",
            "writing rust code for a compiler",
            "zzzzqqq xyzzy entirely out of vocabulary",
            "",
            "hotel hotel hotel code",
        ];
        let mut interner = Interner::new();
        let ids: Vec<Vec<u32>> = texts
            .iter()
            .map(|t| tokenize(t).iter().map(|w| interner.intern(w)).collect())
            .collect();
        let compiled = m.compile(&interner);
        for (text, ids) in texts.iter().zip(&ids) {
            let slow = m.log_scores(text);
            let fast = compiled.log_scores_ids(ids);
            assert_eq!(
                slow.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "log scores diverged on {text:?}"
            );
            assert_eq!(
                m.posterior(text)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                compiled
                    .posterior_ids(ids)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "posterior diverged on {text:?}"
            );
            assert_eq!(m.classify(text), compiled.classify_ids(ids));
        }
    }

    #[test]
    fn term_count_training_equals_token_training() {
        let docs = [
            (0, "travel hotel hotel beach"),
            (1, "football match match match team"),
            (0, "hotel tour"),
        ];
        let mut by_tokens = NaiveBayesTrainer::new(2);
        let mut by_counts = NaiveBayesTrainer::new(2);
        for &(class, text) in &docs {
            by_tokens.add_document(class, text);
            let mut bag: std::collections::BTreeMap<String, u32> = Default::default();
            for t in tokenize(text) {
                *bag.entry(t).or_insert(0) += 1;
            }
            by_counts.add_term_counts(class, bag.iter().map(|(t, &n)| (t.as_str(), n)));
        }
        let a = by_tokens.build(1);
        let b = by_counts.build(1);
        for probe in ["hotel match", "beach", "absent", ""] {
            assert_eq!(
                a.log_scores(probe)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                b.log_scores(probe)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "models diverged on {probe:?}"
            );
        }
    }

    /// A small interned corpus shared by the compiled-gather tests.
    fn interned_probe_ids(interner: &mut Interner) -> Vec<Vec<u32>> {
        [
            "booking a hotel for my beach vacation",
            "the team scored a late goal in the match",
            "writing rust code for a compiler",
            "zzzzqqq xyzzy entirely out of vocabulary",
            "",
            "hotel hotel hotel code sports travel computer beach game",
        ]
        .iter()
        .map(|t| tokenize(t).iter().map(|w| interner.intern(w)).collect())
        .collect()
    }

    #[test]
    fn into_variants_match_reference_gather_bitwise() {
        // The transposed-table scratch-buffer path and the retained
        // class-major reference path must agree bit for bit — this is the
        // contract that lets the solver keep its byte-identity gates after
        // the kernel restructure.
        let m = trained();
        let mut interner = Interner::new();
        let ids = interned_probe_ids(&mut interner);
        let compiled = m.compile(&interner);
        let mut scratch = vec![0.0f64; compiled.classes()];
        for ids in &ids {
            let reference = compiled.log_scores_ids_ref(ids);
            compiled.log_scores_ids_into(ids, &mut scratch);
            assert_eq!(
                scratch.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
            assert_eq!(
                compiled
                    .log_scores_ids(ids)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
            let ref_post = compiled.posterior_ids_ref(ids);
            compiled.posterior_ids_into(ids, &mut scratch);
            assert_eq!(
                scratch.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                ref_post.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn posterior_batch_accepts_str_slices() {
        let m = trained();
        let owned = vec!["hotel beach".to_string(), "team goal".to_string()];
        let borrowed: Vec<&str> = owned.iter().map(String::as_str).collect();
        let a = m.posterior_batch(&owned, 1);
        let b = m.posterior_batch(&borrowed, 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        let _ = NaiveBayesTrainer::new(0);
    }
}
