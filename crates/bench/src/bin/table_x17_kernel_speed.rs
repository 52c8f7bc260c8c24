//! X17 — kernel speed: the §14 kernels measured against the reference
//! kernels they replaced, with every bit-identity contract checked inline.
//!
//! Two rows, each an interleaved A/B race. Speedups are the median of
//! per-round ratios — old and new run back to back inside each round, so
//! VM steal and frequency phases cancel in the ratio:
//!
//! * **solve** — steady-state `solve_prepared_with_layout` (flat CSR
//!   [`SweepLayout`] prebuilt once) vs `mass_oracle::solve_reference`
//!   (nested `Vec` layout rebuilt per call, nine executor passes per
//!   sweep) on the X11 800-blogger corpus at one thread. **Release gate:
//!   ≥2×.** Scores bit-compared.
//! * **nb batch** — flat batch classification over the prepared corpus vs
//!   the per-document `posterior_ids_ref` loop. Rows bit-compared.
//!
//! Writes `BENCH_X17.json`.
//!
//! ```sh
//! cargo run --release -p mass-bench --bin table_x17_kernel_speed
//! ```

use mass_bench::{banner, corpus_of};
use mass_core::{
    solve_prepared, solve_prepared_with_layout, MassParams, SolverInputs, SweepLayout,
};
use mass_eval::TextTable;
use mass_obs::json::Json;
use mass_oracle::solve_reference;
use mass_text::PreparedCorpus;
use std::time::Instant;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Interleaved A/B race: `samples` rounds, each timing `calls` calls of old
/// then new. Returns the median old/new times plus the median of the
/// per-round ratios — within one round the two sides run back to back, so
/// slow machine phases (VM steal, frequency steps) hit both and cancel in
/// the ratio even when they skew the absolute medians.
fn race(
    samples: usize,
    calls: usize,
    mut old: impl FnMut(),
    mut new: impl FnMut(),
) -> (f64, f64, f64) {
    old();
    new(); // warm caches and code paths outside the timed rounds
    let (mut old_s, mut new_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..calls {
            old();
        }
        let o = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
        let t = Instant::now();
        for _ in 0..calls {
            new();
        }
        let n = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
        old_s.push(o);
        new_s.push(n);
        ratios.push(o / n);
    }
    (median(old_s), median(new_s), median(ratios))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    banner(
        "X17",
        "kernel speed",
        "steady-state solve vs the reference kernel, plus the NB batch row",
    );
    let release = !cfg!(debug_assertions);
    let mut table = TextTable::new(["kernel", "old us", "new us", "speedup", "bit-identical"]);
    let mut artifact: Vec<(String, Json)> =
        vec![("experiment".into(), Json::from("X17 kernel speed"))];

    // --- solve: the gated row -------------------------------------------
    // X11 configuration: 800-blogger corpus, shingle novelty off so the
    // solver (not input prep) is under test, single thread.
    let base = MassParams {
        shingle_novelty: false,
        ..MassParams::paper()
    };
    let out = corpus_of(800, 42);
    let ds = &out.dataset;
    let ix = ds.index();
    let corpus = PreparedCorpus::build(ds, 1);
    let inputs = SolverInputs::build_prepared(ds, &ix, &base, &corpus);
    let layout = SweepLayout::build(ds, &inputs);

    let sweeps = {
        let pre = solve_reference(ds, &inputs, &base, None);
        let post = solve_prepared_with_layout(ds, &inputs, &layout, &base, None);
        assert!(
            pre == post,
            "fused solve diverged from the reference kernel"
        );
        let per_call = solve_prepared(ds, &inputs, &base, None);
        assert_eq!(pre, per_call, "per-call layout build changed the solve");
        pre.iterations
    };

    let (mut old_s, mut new_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..11 {
        let t = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(solve_reference(ds, &inputs, &base, None));
        }
        let o = t.elapsed().as_secs_f64() * 1e6 / 10.0;
        let t = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(solve_prepared_with_layout(
                ds, &inputs, &layout, &base, None,
            ));
        }
        let n = t.elapsed().as_secs_f64() * 1e6 / 10.0;
        old_s.push(o);
        new_s.push(n);
        ratios.push(o / n);
    }
    let (solve_old, solve_new, solve_speedup) = (median(old_s), median(new_s), median(ratios));
    table.row([
        "solve (steady-state)".into(),
        format!("{solve_old:.1}"),
        format!("{solve_new:.1}"),
        format!("{solve_speedup:.2}x"),
        "yes".into(),
    ]);

    // --- naive bayes: flat batch vs per-document reference --------------
    let model = mass_core::domain::train_on_tagged_prepared(ds, ds.domains.len(), &corpus)
        .expect("synthetic corpus is tagged");
    let compiled = model.compile(corpus.interner());
    let classes = compiled.classes();
    let flat = compiled.posterior_batch_prepared_flat(&corpus, 1);
    let reference: Vec<f64> = (0..ds.posts.len())
        .flat_map(|k| compiled.posterior_ids_ref(corpus.doc_tokens(k)))
        .collect();
    let nb_identical = bits(&flat) == bits(&reference);
    assert!(
        nb_identical,
        "flat NB batch diverged from posterior_ids_ref"
    );
    let (nb_old, nb_new, nb_speedup) = race(
        9,
        3,
        || {
            let mut acc = 0.0;
            for k in 0..ds.posts.len() {
                acc += compiled.posterior_ids_ref(corpus.doc_tokens(k))[0];
            }
            std::hint::black_box(acc);
        },
        || {
            std::hint::black_box(compiled.posterior_batch_prepared_flat(&corpus, 1));
        },
    );
    table.row([
        format!("nb batch ({} docs x {classes})", ds.posts.len()),
        format!("{nb_old:.0}"),
        format!("{nb_new:.0}"),
        format!("{nb_speedup:.2}x"),
        "yes".into(),
    ]);

    println!("{table}");
    println!(
        "corpus: 800 bloggers, {} posts, {} sweeps to converge",
        ds.posts.len(),
        sweeps
    );

    artifact.extend([
        ("bloggers".into(), Json::from(800u64)),
        ("posts".into(), Json::from(ds.posts.len() as u64)),
        ("sweeps".into(), Json::from(sweeps as u64)),
        ("solve_old_us".into(), Json::Num(solve_old)),
        ("solve_new_us".into(), Json::Num(solve_new)),
        ("solve_speedup".into(), Json::Num(solve_speedup)),
        ("nb_old_us".into(), Json::Num(nb_old)),
        ("nb_new_us".into(), Json::Num(nb_new)),
        ("nb_speedup".into(), Json::Num(nb_speedup)),
        ("bit_identical".into(), Json::Bool(true)),
        ("release".into(), Json::Bool(release)),
    ]);
    std::fs::write("BENCH_X17.json", Json::Obj(artifact).render() + "\n")
        .expect("write BENCH_X17.json");
    println!("wrote BENCH_X17.json");

    if release {
        assert!(
            solve_speedup >= 2.0,
            "X17 gate: steady-state solve must be >= 2x the reference kernel, got {solve_speedup:.2}x"
        );
        println!("X17 gate passed: {solve_speedup:.2}x >= 2.0x");
    } else {
        println!("debug build — the 2x solve gate only runs in release");
    }
}
