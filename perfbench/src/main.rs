//! The MASS repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank_xml --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the public library API and prints every
//! metric by name, unit and sample count, then an environment fingerprint,
//! then (as the last line) one JSON result object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is the separate traced run that reports
//! the per-layer breakdown and writes its spans to `perfbench-out/`. The
//! process exits 1 when any output check fails. See `perfbench/README.md`.

mod live;
mod rank;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics every timed run reports, `(name, unit)`. Their
/// meaning per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("fresh_p50_ms", "ms"),
];

/// Per-layer metrics every traced run reports, `(name, unit)`. A layer a
/// workload never calls reports 0 with a sample count of 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.load_ms", "ms"),
    ("text.prepare_ms", "ms"),
    ("text.tokens", "count"),
    ("core.index_ms", "ms"),
    ("core.build_inputs_ms", "ms"),
    ("text.novelty_ms", "ms"),
    ("graph.gl_ms", "ms"),
    ("graph.gl_sweeps", "count"),
    ("core.build_inputs_rest_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.solve_sweeps", "count"),
    ("text.classify_ms", "ms"),
    ("core.domain_matrix_ms", "ms"),
    ("core.topk_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.advance_ms", "ms"),
    ("core.advance_posts", "count"),
    ("core.refresh_ms", "ms"),
    ("core.refresh_sweeps", "count"),
    ("graph.gl_refresh_share", "share"),
    ("core.snapshot_ms", "ms"),
    ("serve.parse_us", "us"),
    ("core.topk_read_us", "us"),
    ("core.match_us", "us"),
    ("serve.handler_p50_us", "us"),
    ("serve.ad_cache_hit_share", "share"),
    ("serve.shed", "count"),
    ("serve.refreshes", "count"),
    ("serve.refresh_failures", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("tracing_overhead_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["rank_xml", "live_edits", "serve_mixed"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `serve_mixed` offered load override, for measuring the latency knee.
    pub rate: Option<u32>,
    /// Where spans and scratch files go (inside the working directory).
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.insert(key.to_string(), value);
    }
    let num = |key: &str| -> Result<Option<u64>, String> {
        raw.get(key)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{key}: not a number: {v:?}"))
            })
            .transpose()
    };
    let workload = raw
        .get("workload")
        .cloned()
        .ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace = match raw.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    for key in raw.keys() {
        if !["workload", "seed", "seconds", "trace", "rate"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed: num("seed")?.unwrap_or(1),
        seconds: num("seconds")?.unwrap_or(20).max(1),
        trace,
        rate: num("rate")?
            .map(|r| u32::try_from(r).map_err(|_| "--rate too large".to_string()))
            .transpose()?,
        out_dir: PathBuf::from("perfbench-out"),
    })
}

/// Corpus size, for the environment fingerprint.
#[derive(Clone, Copy, Debug, Default)]
pub struct Corpus {
    pub bloggers: usize,
    pub posts: usize,
    pub comments: usize,
    pub xml_bytes: usize,
}

impl Corpus {
    pub fn of(ds: &mass::types::Dataset, xml_bytes: usize) -> Corpus {
        Corpus {
            bloggers: ds.bloggers.len(),
            posts: ds.posts.len(),
            comments: ds.posts.iter().map(|p| p.comments.len()).sum(),
            xml_bytes,
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `name -> (value, sample count)`.
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub problems: Vec<String>,
    pub corpus: Corpus,
    /// Offered load of `serve_mixed`, requests per second.
    pub rate: Option<u32>,
    /// Extra human-readable lines (bases of ratios, the self-time table).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, (value, n));
    }

    /// Records an output-check result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    mass::obs::process::peak_rss_kb() as f64 / 1024.0
}

/// Bitwise equality of two float slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as JSON: full precision, and never `inf`/`NaN` (a tail
/// made of failed requests is reported as 1e12 ms, i.e. "missed").
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "1e12".into()
    }
}

fn fingerprint(args: &Args, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let c = report.corpus;
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"git_rev\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"bloggers\":{},\"posts\":{},\"comments\":{},\"xml_bytes\":{},\"serve_rate_per_s\":{}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_rev()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        c.bloggers,
        c.posts,
        c.comments,
        c.xml_bytes,
        report.rate.map_or("null".to_string(), |r| r.to_string()),
    )
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    match args.workload.as_str() {
        "rank_xml" => rank::run(args),
        "live_edits" => live::run(args),
        "serve_mixed" => serve::run(args),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Writes the traced run's spans and adds the self-time table to the notes.
pub fn emit_spans(args: &Args, report: &mut Report, spans: &[spans::Span]) {
    let path: PathBuf = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans::write_jsonl(spans, &path) {
        report
            .problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
    report.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    report
        .notes
        .push("self time by span name (name, spans, total self ms):".into());
    for (name, n, total) in spans::self_time_table(spans) {
        report
            .notes
            .push(format!("  {name:<24} {n:>7} {total:>12.3}"));
    }
}

fn scratch_file(args: &Args, ext: &str) -> PathBuf {
    Path::new(&args.out_dir).join(format!("{}-seed{}.{ext}", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in names {
        if !report.metrics.contains_key(name) {
            if !args.trace {
                report
                    .problems
                    .push(format!("end-to-end metric {name} was not measured"));
            }
            report.metric(name, 0.0, 0);
        }
    }

    for line in &report.notes {
        println!("{line}");
    }
    let mut json_metrics = Vec::new();
    for &(name, unit) in names {
        let (value, n) = report.metrics[name];
        println!("metric {:<28} {:>14.4} {unit:<6} n={n}", name, value);
        json_metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({} failed of {} attempted, {} succeeded)",
        report.failed,
        report.attempted,
        report.attempted - report.failed.min(report.attempted)
    );
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty() && report.attempted > 0;
    println!("env {}", fingerprint(&args, &report));
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json` must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = mass::obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn json_numbers_keep_every_digit_and_stay_finite() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::INFINITY), "1e12");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
