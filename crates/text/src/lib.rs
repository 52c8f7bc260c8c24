//! # mass-text
//!
//! Text-mining substrate for MASS.
//!
//! The paper's Analyzer Module has two halves (Section III): the *Post
//! Analyzer* "uses text classification technique to classify a post into
//! different domains" and the *Comment Analyzer* derives each comment's
//! attitude. Both, plus the novelty facet of the quality score and the
//! Scenario-1/2 interest mining, live here:
//!
//! * [`tokenize`](mod@tokenize) — lowercasing word tokenizer with a stopword filter,
//! * [`nb`] — multinomial naive Bayes (ref \[7\]) producing the per-domain
//!   posterior `iv(b_i, d_k, C_t)` of Eq. 5,
//! * [`sentiment`] — lexicon classifier implementing the paper's
//!   positive/negative/neutral split with the seed words it lists,
//! * [`novelty`] — copy-indicator detection and shingle-based near-duplicate
//!   scoring for `Novelty(b_i, d_k)`,
//! * [`interest`] — interest-vector mining from advertisements and user
//!   profiles (Scenarios 1 and 2).
//!
//! ```
//! use mass_text::sentiment::SentimentLexicon;
//! use mass_types::Sentiment;
//!
//! let lex = SentimentLexicon::default();
//! assert_eq!(lex.classify("I totally agree and support this"), Sentiment::Positive);
//! assert_eq!(lex.classify("I disagree, this is wrong"), Sentiment::Negative);
//! assert_eq!(lex.classify("a post about databases"), Sentiment::Neutral);
//! ```

pub mod discovery;
pub mod interest;
pub mod intern;
pub mod nb;
pub mod novelty;
pub mod prepared;
pub mod search;
pub mod sentiment;
pub mod shard;
pub mod stopwords;
pub mod tokenize;

pub use discovery::{
    discover_topics, discover_topics_prepared, DiscoveryParams, Topic, TopicModel,
};
pub use interest::InterestMiner;
pub use intern::{Interner, TermId};
pub use nb::{CompiledNb, NaiveBayes, NaiveBayesTrainer};
pub use novelty::{NoveltyDetector, NoveltyParams};
pub use prepared::PreparedCorpus;
pub use search::{Bm25Params, InvertedIndex};
pub use sentiment::{CompiledSentiment, SentimentLexicon};
pub use shard::{CorpusSegment, SegmentBuilder, ShardedCorpusBuilder, SpillStats, SpilledCorpus};
pub use tokenize::{for_each_token, tokenize, tokenize_keep_stopwords, TermCounts};
