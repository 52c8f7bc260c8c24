//! `live_edits`: the edit → fresh-ranking path and the `rank --as-of`
//! advance path, on one live `IncrementalMass`.
//!
//! A closed loop with one caller. The engine runs over a paper-scale corpus
//! with time stamps (planted fading and rising bloggers) under exponential
//! decay. Each cycle applies two 16-edit mixed storms and one horizon
//! advance; every step is followed by an Exact refresh and a serving
//! snapshot capture. Solve, GL refresh (mixed storms add friend links),
//! the domain matrix and snapshot capture do nearly all the work; XML and
//! text preparation do none after set-up. The corpus grows during the run,
//! so the run length is part of the workload's definition.

use crate::spans::{durations_ms, traced, unattributed_ms, Recorder};
use crate::stats::{median, ms, percentile, tail};
use crate::{mix, same_bits, Args, Corpus, Report};
use mass::core::{
    apply_to_dataset, apply_to_incremental, scripted_storm, DecayParams, IncrementalMass,
    MassAnalysis, MassParams, RefreshMode, ScriptedEdit, ServingSnapshot, StormMix, TemporalParams,
};
use mass::synth::{generate, SynthConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
const STORM_EDITS: usize = 16;
/// The serving layer's default top-k cap, used for every capture.
const SNAPSHOT_CAP: usize = 100;
/// Corpus time span in ticks, the engine's first horizon and the advance
/// step. The first horizon sits inside the span, so advances both decay
/// old items and reveal newly born ones.
const TIME_SPAN: u64 = 1000;
const FIRST_HORIZON: u64 = 600;
const ADVANCE_TICKS: u64 = 1;
/// Decay law of the workload (the X18 experiment's exponential law).
const HALF_LIFE: f64 = 200.0;

fn params(as_of: u64) -> MassParams {
    MassParams {
        temporal: Some(TemporalParams {
            as_of,
            decay: DecayParams::Exponential {
                half_life: HALF_LIFE,
            },
        }),
        ..MassParams::paper()
    }
}

/// What one step did, for the output checks and per-layer counts.
enum Step {
    Storm(Vec<ScriptedEdit>),
    Advance { posts: usize },
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let dataset = generate(&SynthConfig {
        time_span: TIME_SPAN,
        planted_fading: 5,
        planted_rising: 5,
        ..SynthConfig::paper_scale(args.seed)
    })
    .dataset;
    let xml_bytes = mass::xml::dataset_io::to_xml_string(&dataset).len();
    report.corpus = Corpus::of(&dataset, xml_bytes);

    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        let ds = dataset.clone();
        drop(engine.take());
        let t0 = Instant::now();
        engine = Some(IncrementalMass::new(ds, params(FIRST_HORIZON)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("at least one set-up");

    let rec = Recorder::new(Instant::now());
    let mut steps: Vec<Step> = Vec::new();
    let (mut refresh_ms, mut advance_ms) = (Vec::new(), Vec::new());
    let (mut traced_refresh_ms, mut sweeps) = (Vec::new(), Vec::new());
    let mut gl_refreshes = 0usize;
    let mut horizon = FIRST_HORIZON;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut cycle = 0u64;
    while Instant::now() < deadline || cycle == 0 || (args.trace && cycle < 2) {
        // The traced run alternates traced and untraced cycles, so the
        // difference of their medians is the tracing overhead.
        let r = (args.trace && cycle.is_multiple_of(2)).then_some(&rec);
        for storm in 0..2u64 {
            let seed = mix(args.seed, cycle * 2 + storm);
            let script = scripted_storm(engine.dataset(), STORM_EDITS, seed, StormMix::Mixed);
            rec.set_op(steps.len() as u64);
            let t0 = Instant::now();
            let stats = traced(r, "live_edits.batch", || {
                traced(r, "core.apply", || {
                    apply_to_incremental(&mut engine, &script)
                });
                let stats = traced(r, "core.refresh", || {
                    engine.refresh_with(RefreshMode::Exact)
                });
                black_box(traced(r, "core.snapshot", || {
                    ServingSnapshot::capture(&engine, SNAPSHOT_CAP)
                }));
                stats
            });
            let elapsed = ms(t0.elapsed());
            if r.is_some() {
                traced_refresh_ms.push(elapsed);
            } else {
                refresh_ms.push(elapsed);
            }
            report.attempted += 1;
            if !stats.converged {
                report.failed += 1;
            }
            gl_refreshes += usize::from(stats.gl_refreshed);
            sweeps.push(stats.sweeps as f64);
            steps.push(Step::Storm(script));
        }
        horizon += ADVANCE_TICKS;
        rec.set_op(steps.len() as u64);
        let t0 = Instant::now();
        let (adv, stats) = traced(r, "live_edits.advance", || {
            let adv = traced(r, "core.advance", || engine.advance_to(horizon));
            let stats = traced(r, "core.refresh", || {
                engine.refresh_with(RefreshMode::Exact)
            });
            black_box(traced(r, "core.snapshot", || {
                ServingSnapshot::capture(&engine, SNAPSHOT_CAP)
            }));
            (adv, stats)
        });
        if r.is_none() {
            advance_ms.push(ms(t0.elapsed()));
        }
        report.attempted += 1;
        let posts = match adv {
            Ok(a) => a.posts_affected,
            Err(e) => {
                report.problems.push(format!("advance_to({horizon}): {e}"));
                0
            }
        };
        if !stats.converged {
            report.failed += 1;
        }
        gl_refreshes += usize::from(stats.gl_refreshed);
        sweeps.push(stats.sweeps as f64);
        steps.push(Step::Advance { posts });
        cycle += 1;
    }

    // Exactness contract (DESIGN.md §11, §15): the live engine equals a
    // batch analysis of the same scripts applied to the same corpus, at the
    // final horizon.
    let mut batch_ds = dataset;
    for step in &steps {
        if let Step::Storm(script) = step {
            apply_to_dataset(&mut batch_ds, script);
        }
    }
    let batch = MassAnalysis::analyze(&batch_ds, &params(horizon));
    report.check(
        same_bits(&engine.scores().blogger, &batch.scores.blogger)
            && same_bits(&engine.scores().post, &batch.scores.post),
        || {
            format!(
                "live engine after {} steps differs from batch analysis at horizon {horizon}",
                steps.len()
            )
        },
    );
    report.notes.push(format!(
        "live_edits: {cycle} cycles, {} steps, final horizon {horizon}, corpus grew to {} bloggers / {} posts",
        steps.len(),
        engine.dataset().bloggers.len(),
        engine.dataset().posts.len()
    ));

    if !args.trace {
        report.metric("setup_s", median(&setup_s), setup_s.len());
        report.metric("peak_rss_mib", crate::peak_rss_mib(), 1);
        report.metric("op_p50_ms", median(&refresh_ms), refresh_ms.len());
        report.notes.push(format!(
            "live_edits: refresh tail (reported, not bounded): p90 {} ms, {} over {} refreshes",
            percentile(&refresh_ms, 90.0).map_or("n/a".into(), |v| format!("{v:.4}")),
            tail(&refresh_ms).map_or("n/a".into(), |(p, v)| format!("p{p:.2} {v:.4} ms")),
            refresh_ms.len()
        ));
        report.metric("fresh_p50_ms", median(&advance_ms), advance_ms.len());
        report.notes.push(
            "live_edits: op = storm apply → refresh → snapshot; fresh = advance_to → refresh → snapshot"
                .into(),
        );
        return Ok(report);
    }

    let spans = rec.into_spans();
    for (metric, span) in [
        ("core.apply_ms", "core.apply"),
        ("core.advance_ms", "core.advance"),
        ("core.refresh_ms", "core.refresh"),
        ("core.snapshot_ms", "core.snapshot"),
    ] {
        let d = durations_ms(&spans, span);
        report.metric(metric, median(&d), d.len());
    }
    let advanced: Vec<f64> = steps
        .iter()
        .filter_map(|s| match s {
            Step::Advance { posts } => Some(*posts as f64),
            Step::Storm(_) => None,
        })
        .collect();
    report.metric("core.advance_posts", median(&advanced), advanced.len());
    report.metric("core.refresh_sweeps", median(&sweeps), sweeps.len());
    report.metric(
        "graph.gl_refresh_share",
        gl_refreshes as f64 / steps.len() as f64,
        steps.len(),
    );
    report.notes.push(format!(
        "graph.gl_refresh_share = {gl_refreshes} refreshes re-ran GL of {} refreshes",
        steps.len()
    ));
    let mut un = unattributed_ms(&spans, "live_edits.batch");
    un.extend(unattributed_ms(&spans, "live_edits.advance"));
    report.metric("unattributed_ms", median(&un), un.len());
    report.metric(
        "tracing_overhead_ms",
        median(&traced_refresh_ms) - median(&refresh_ms),
        traced_refresh_ms.len() + refresh_ms.len(),
    );
    crate::emit_spans(args, &mut report, &spans);
    Ok(report)
}
