//! `rank_xml`: the batch path behind `mass rank` — load a paper-scale XML
//! corpus, analyse it, read the general and per-domain top-10 lists.
//!
//! A closed loop with one caller. XML load, text preparation, novelty and
//! classification do nearly all the work and the solver well under 1%, so
//! a solver change should show no change here.

use crate::spans::{durations_ms, unattributed_ms, Recorder};
use crate::stats::{max, median, ms};
use crate::{same_bits, Args, Corpus, Report};
use mass::core::domain::{domain_influence, iv_vectors_prepared};
use mass::core::quality::raw_quality_scores_prepared;
use mass::core::topk::{top_k, top_k_in_domain};
use mass::core::{
    decay_inputs, gl_graph, gl_scores_csr, solve_prepared, MassAnalysis, MassParams, SolverInputs,
};
use mass::graph::LinkCsr;
use mass::synth::{generate, SynthConfig};
use mass::text::PreparedCorpus;
use mass::types::{BloggerId, DomainId};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Warm-up iterations; their median is the workload's set-up time.
const WARMUPS: usize = 3;
const K: usize = 10;

/// The parts of one ranking the output checks compare bit for bit.
struct Ranked {
    blogger: Vec<f64>,
    post: Vec<f64>,
    iv: Vec<Vec<f64>>,
    domain_matrix: Vec<Vec<f64>>,
    general: Vec<(BloggerId, f64)>,
    per_domain: Vec<Vec<(BloggerId, f64)>>,
}

impl Ranked {
    fn same(&self, other: &Ranked) -> bool {
        let lists = |a: &[(BloggerId, f64)], b: &[(BloggerId, f64)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        };
        same_bits(&self.blogger, &other.blogger)
            && same_bits(&self.post, &other.post)
            && self.iv.len() == other.iv.len()
            && self.iv.iter().zip(&other.iv).all(|(a, b)| same_bits(a, b))
            && self.domain_matrix.len() == other.domain_matrix.len()
            && self
                .domain_matrix
                .iter()
                .zip(&other.domain_matrix)
                .all(|(a, b)| same_bits(a, b))
            && lists(&self.general, &other.general)
            && self.per_domain.len() == other.per_domain.len()
            && self
                .per_domain
                .iter()
                .zip(&other.per_domain)
                .all(|(a, b)| lists(a, b))
    }
}

/// Moves an analysis into a [`Ranked`], adding the per-domain top-10s.
fn ranked(a: MassAnalysis, general: Vec<(BloggerId, f64)>, domains: usize) -> Ranked {
    let per_domain = (0..domains)
        .map(|d| black_box(a.top_k_in_domain(DomainId::new(d), K)))
        .collect();
    Ranked {
        blogger: a.scores.blogger,
        post: a.scores.post,
        iv: a.iv,
        domain_matrix: a.domain_matrix,
        general,
        per_domain,
    }
}

/// One untraced op, exactly the production path: load, analyse, top-10s.
/// Returns the ranking and the time until the general top-10 was readable.
fn op(path: &Path, params: &MassParams) -> Result<(Ranked, Duration), String> {
    let t0 = Instant::now();
    let ds = mass::xml::dataset_io::load(path).map_err(|e| format!("load: {e}"))?;
    let a = MassAnalysis::analyze(black_box(&ds), params);
    let general = black_box(a.top_k_general(K));
    let fresh = t0.elapsed();
    Ok((ranked(a, general, ds.domains.len()), fresh))
}

/// One traced op: the stage sequence `MassAnalysis::analyze_with_corpus`
/// runs, each public call in its own span under the op span. The result
/// is checked bit-identical to `MassAnalysis::analyze`, so the breakdown
/// times the production path. Like the untraced op, it frees the dataset
/// and corpus before it ends. Returns the ranking and the solver's sweeps.
fn traced_op(rec: &Recorder, path: &Path, params: &MassParams) -> Result<(Ranked, usize), String> {
    rec.span("rank_xml.op", || {
        let ds = rec
            .span("xml.load", || mass::xml::dataset_io::load(path))
            .map_err(|e| format!("load: {e}"))?;
        let corpus = rec.span("text.prepare", || {
            PreparedCorpus::build(&ds, params.threads)
        });
        let ix = rec.span("core.index", || ds.index());
        let inputs = rec.span("core.build_inputs", || {
            SolverInputs::build_prepared(&ds, &ix, params, &corpus)
        });
        let decayed = rec.span("core.decay", || decay_inputs(&ds, &inputs, params));
        let scores = rec.span("core.solve", || solve_prepared(&ds, &decayed, params, None));
        let (iv, _trained) = rec.span("text.classify", || {
            iv_vectors_prepared(&ds, params, &corpus)
        });
        let domain_matrix = rec.span("core.domain_matrix", || {
            domain_influence(&ds, &scores.post, &iv)
        });
        let (general, per_domain) = rec.span("core.topk", || {
            let general = top_k(&scores.blogger, K);
            let per_domain: Vec<_> = (0..ds.domains.len())
                .map(|d| top_k_in_domain(&domain_matrix, d, K))
                .collect();
            (general, per_domain)
        });
        let sweeps = scores.iterations;
        let r = Ranked {
            blogger: scores.blogger,
            post: scores.post,
            iv,
            domain_matrix,
            general,
            per_domain,
        };
        drop((ds, corpus));
        Ok((r, sweeps))
    })
}

/// Standalone layer calls outside any op's wall time, on a freshly loaded
/// and prepared copy of the corpus: novelty alone, and the GL chain alone.
/// Returns the GL sweeps and the corpus's token count.
fn standalone_layers(
    rec: &Recorder,
    path: &Path,
    params: &MassParams,
) -> Result<(usize, usize), String> {
    let ds = mass::xml::dataset_io::load(path).map_err(|e| format!("load: {e}"))?;
    let corpus = PreparedCorpus::build(&ds, params.threads);
    black_box(rec.span("text.novelty", || {
        raw_quality_scores_prepared(&ds, &corpus, params)
    }));
    let gl = rec.span("graph.gl", || {
        let link = LinkCsr::from_digraph(&gl_graph(&ds, params));
        gl_scores_csr(&link, params, None)
    });
    Ok((gl.sweeps, corpus.total_tokens()))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let params = MassParams::paper();
    let mut report = Report::default();

    // Untimed: corpus generation, the XML file, the in-memory reference.
    let out = generate(&SynthConfig::paper_scale(args.seed));
    let path = crate::scratch_file(args, "xml");
    mass::xml::dataset_io::save(&out.dataset, &path).map_err(|e| format!("save: {e}"))?;
    let xml_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as usize;
    report.corpus = Corpus::of(&out.dataset, xml_bytes);
    let domains = out.dataset.domains.len();
    let analysis = MassAnalysis::analyze(&out.dataset, &params);
    let general = analysis.top_k_general(K);
    let reference = ranked(analysis, general, domains);
    drop(out);

    let check = |report: &mut Report, r: &Ranked, what: &str| {
        report.attempted += 1;
        let ok = r.same(&reference);
        if !ok {
            report.failed += 1;
        }
        report.check(ok, || {
            format!("{what}: XML → analyze result differs from MassAnalysis::analyze on the generated dataset")
        });
    };

    let mut setup_s = Vec::new();
    for _ in 0..WARMUPS {
        let t0 = Instant::now();
        let (r, _) = op(&path, &params)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        check(&mut report, &r, "warm-up");
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let rec = Recorder::new(Instant::now());
    let (mut op_ms, mut fresh_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gl_sweeps, mut solve_sweeps, mut tokens) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0u64;
    while Instant::now() < deadline || op_ms.is_empty() || (args.trace && traced_ms.is_empty()) {
        // The traced run alternates traced and untraced ops, so the
        // difference of their medians is the tracing overhead.
        if args.trace && i.is_multiple_of(2) {
            rec.set_op(i);
            let t0 = Instant::now();
            let (r, sweeps) = traced_op(&rec, &path, &params)?;
            traced_ms.push(ms(t0.elapsed()));
            check(&mut report, &r, "traced stage sequence");
            solve_sweeps.push(sweeps as f64);
            let (gl, toks) = standalone_layers(&rec, &path, &params)?;
            gl_sweeps.push(gl as f64);
            tokens.push(toks as f64);
        } else {
            let t0 = Instant::now();
            let (r, fresh) = op(&path, &params)?;
            op_ms.push(ms(t0.elapsed()));
            fresh_ms.push(ms(fresh));
            check(&mut report, &r, "timed op");
        }
        i += 1;
    }
    let _ = std::fs::remove_file(&path);

    if !args.trace {
        report.metric("setup_s", median(&setup_s), setup_s.len());
        report.metric("peak_rss_mib", crate::peak_rss_mib(), 1);
        report.metric("op_p50_ms", median(&op_ms), op_ms.len());
        report.metric("fresh_p50_ms", median(&fresh_ms), fresh_ms.len());
        report.notes.push(format!(
            "rank_xml: op = XML load + analyze + top-{K} lists; fresh = until the general top-{K} is readable; slowest op {:.4} ms of {} ops (too few for a p90 with ten beyond it)",
            max(&op_ms),
            op_ms.len()
        ));
        return Ok(report);
    }

    let spans = rec.into_spans();
    let med = |name: &str| {
        let d = durations_ms(&spans, name);
        (median(&d), d.len())
    };
    for (metric, span) in [
        ("xml.load_ms", "xml.load"),
        ("text.prepare_ms", "text.prepare"),
        ("core.index_ms", "core.index"),
        ("core.build_inputs_ms", "core.build_inputs"),
        ("text.novelty_ms", "text.novelty"),
        ("graph.gl_ms", "graph.gl"),
        ("core.solve_ms", "core.solve"),
        ("text.classify_ms", "text.classify"),
        ("core.domain_matrix_ms", "core.domain_matrix"),
        ("core.topk_ms", "core.topk"),
    ] {
        let (v, n) = med(span);
        report.metric(metric, v, n);
    }
    let rest = med("core.build_inputs").0 - med("text.novelty").0 - med("graph.gl").0;
    report.metric("core.build_inputs_rest_ms", rest, traced_ms.len());
    report.metric("text.tokens", median(&tokens), tokens.len());
    report.metric("graph.gl_sweeps", median(&gl_sweeps), gl_sweeps.len());
    report.metric(
        "core.solve_sweeps",
        median(&solve_sweeps),
        solve_sweeps.len(),
    );
    let un = unattributed_ms(&spans, "rank_xml.op");
    report.metric("unattributed_ms", median(&un), un.len());
    report.metric(
        "tracing_overhead_ms",
        median(&traced_ms) - median(&op_ms),
        traced_ms.len() + op_ms.len(),
    );
    report.notes.push(format!(
        "rank_xml traced: {} traced ops (p50 {:.3} ms) alternating with {} untraced (p50 {:.3} ms)",
        traced_ms.len(),
        median(&traced_ms),
        op_ms.len(),
        median(&op_ms)
    ));
    crate::emit_spans(args, &mut report, &spans);
    Ok(report)
}
