//! Kernel differential suite (DESIGN.md §14).
//!
//! The NB classifier's batch gather is a restructured kernel (term-major
//! table, flat `posts × classes` output, chunked through `mass-par`) that
//! promises bit-identity with the scalar per-document reference gather.
//! This suite pins that promise at corpus scale. The solver kernel's
//! counterpart lives in `mass-oracle`'s differential tests.

use mass_core::domain;
use mass_synth::{CorpusSpec, CorpusStream};
use mass_text::PreparedCorpus;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The flat NB batch is bit-identical to the scalar per-document reference
/// gather at every thread count.
#[test]
fn nb_batch_matches_reference_gather_bitwise() {
    let ds = CorpusStream::new(CorpusSpec::sized(400, 11))
        .unwrap()
        .materialize()
        .dataset;
    let prepared = PreparedCorpus::build(&ds, 1);
    let model = domain::train_on_tagged_prepared(&ds, ds.domains.len(), &prepared)
        .expect("sized synthetic corpora carry tagged posts");
    let compiled = model.compile(prepared.interner());

    let exact = compiled.posterior_batch_prepared_flat(&prepared, 1);
    assert_eq!(exact.len(), ds.posts.len() * compiled.classes());
    let reference: Vec<f64> = (0..ds.posts.len())
        .flat_map(|k| compiled.posterior_ids_ref(prepared.doc_tokens(k)))
        .collect();
    assert_eq!(
        bits(&exact),
        bits(&reference),
        "flat batch vs per-document reference"
    );
    let exact_mt = compiled.posterior_batch_prepared_flat(&prepared, 4);
    assert_eq!(bits(&exact), bits(&exact_mt), "batch across threads");
}
