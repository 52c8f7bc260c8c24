//! `serve_mixed`: advertisers and the UI against an in-process
//! `mass_serve::start` over the paper-scale corpus, with edits arriving
//! while reads run.
//!
//! An open loop from two generator threads at one fixed rate: each request
//! has a scheduled send time and is timed from it, so a stall charges every
//! request queued behind it. Reads are general and per-domain `GET /topk`
//! with k ∈ {3, 10, 50}; ad matches are `POST /match?k=5` with texts drawn
//! Zipf from a pool larger than the server's 256-entry ad cache; a 16-edit
//! storm is POSTed to `/edits` on a fixed schedule. The writer's refresh
//! and publish compete with the request path for the cores, so a change to
//! the cache or the request path shows here and nowhere else.

use crate::spans::{traced, Recorder};
use crate::stats::{median, ms, percentile, tail};
use crate::{mix, Args, Corpus, Report};
use mass::core::{
    apply_to_incremental, scripted_storm, IncrementalMass, MassParams, RefreshMode,
    ServingSnapshot, StormMix,
};
use mass::obs::json;
use mass::serve::client;
use mass::serve::http::{read_request, Limits};
use mass::serve::{start, ServeConfig, ServerHandle};
use mass::synth::{advertisement_text, generate, SynthConfig};
use mass::types::{Dataset, DomainId};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
/// Generator threads, and so the most connections open at once.
const THREADS: u64 = 2;
/// Offered load in requests per second. The latency knee on a 2-vCPU host
/// sits near 2000 req/s in a fast phase of the host and below 1000 req/s in
/// a slow one (p50 doubles there); 400 stays well below both (README).
pub const RATE: u32 = 400;
/// An edit batch is due every this many milliseconds.
const EDIT_PERIOD_MS: u64 = 250;
const STORM_EDITS: u64 = 16;
/// Distinct ad texts (before de-duplication), well above the 256-entry ad
/// cache, and the Zipf exponent that draws from them.
const AD_POOL: usize = 4096;
const ZIPF_S: f64 = 1.0;
/// Share of non-edit requests that are ad matches, in tenths.
const MATCH_TENTHS: u64 = 3;
const TIMEOUT: Duration = Duration::from_secs(2);
const CAP: usize = 100;

/// One scheduled request.
struct Req {
    method: &'static str,
    target: String,
    body: Vec<u8>,
    edit_seed: Option<u64>,
}

/// The request mix, a pure function of (run seed, slot).
struct Mix {
    seed: u64,
    domains: Vec<String>,
    ads: Vec<String>,
    /// Cumulative Zipf weights over `ads`, normalised to 1.
    cdf: Vec<f64>,
}

impl Mix {
    fn new(seed: u64, domains: Vec<String>) -> Mix {
        let nd = domains.len().max(1);
        let mut seen = BTreeSet::new();
        let ads: Vec<String> = (0..AD_POOL)
            .map(|i| advertisement_text(DomainId::new(i % nd), mix(seed, 0xad00_0000 + i as u64)))
            .filter(|t| seen.insert(t.clone()))
            .collect();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..ads.len())
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Mix {
            seed,
            domains,
            ads,
            cdf,
        }
    }

    fn ad(&self, r: u64) -> &str {
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let i = self.cdf.partition_point(|&c| c < u).min(self.ads.len() - 1);
        &self.ads[i]
    }

    /// The read or match request of a slot.
    fn read(&self, slot: u64) -> Req {
        let r = mix(self.seed, slot);
        if r % 10 < MATCH_TENTHS {
            return Req {
                method: "POST",
                target: "/match?k=5".into(),
                body: self.ad(mix(r, 1)).as_bytes().to_vec(),
                edit_seed: None,
            };
        }
        let k = [3, 10, 50][((r >> 8) % 3) as usize];
        let pick = ((r >> 16) % (self.domains.len() as u64 + 1)) as usize;
        let target = match pick {
            0 => format!("/topk?k={k}"),
            d => format!("/topk?domain={}&k={k}", self.domains[d - 1]),
        };
        Req {
            method: "GET",
            target,
            body: Vec::new(),
            edit_seed: None,
        }
    }

    fn edit(&self, m: u64) -> Req {
        // 53 bits: the server reads JSON numbers as f64, so a wider seed
        // would arrive rounded and the final check would replay another storm.
        let seed = mix(self.seed, 0xed17_0000 + m) >> 11;
        Req {
            method: "POST",
            target: "/edits".into(),
            body: format!("{{\"storm\":{STORM_EDITS},\"seed\":{seed}}}").into_bytes(),
            edit_seed: Some(seed),
        }
    }
}

/// Open-loop accounting: each request is timed from its scheduled send
/// time, so a stalled request also charges the requests queued behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Scheduled send → reply (the user-visible latency).
    pub latency_ms: f64,
    /// Scheduled send → actual send (how late the generator ran).
    pub late_ms: f64,
    /// Actual send → reply.
    pub rtt_ms: f64,
}

impl Timing {
    /// Times one request; all arguments are offsets from the run's start.
    pub fn of(due: Duration, sent: Duration, done: Duration) -> Timing {
        Timing {
            latency_ms: ms(done.saturating_sub(due)),
            late_ms: ms(sent.saturating_sub(due)),
            rtt_ms: ms(done.saturating_sub(sent)),
        }
    }
}

/// Schedule of one generator thread: global slot `j` is due at `j / rate`
/// after the start, and thread `t` owns the slots `j ≡ t (mod THREADS)`.
pub fn due(slot: u64, rate: u32) -> Duration {
    Duration::from_nanos(slot * 1_000_000_000 / u64::from(rate))
}

/// First time each epoch was seen in a reply (index `e - 1` for epoch `e`).
#[derive(Default)]
struct Epochs {
    max_seen: AtomicU64,
    first_seen: Mutex<Vec<Instant>>,
}

impl Epochs {
    fn observe(&self, epoch: u64, at: Instant) {
        if epoch <= self.max_seen.load(Ordering::SeqCst) {
            return;
        }
        let mut seen = self.first_seen.lock().expect("epoch log poisoned");
        while (seen.len() as u64) < epoch {
            seen.push(at);
        }
        self.max_seen.fetch_max(epoch, Ordering::SeqCst);
    }

    fn max_seen(&self) -> u64 {
        self.max_seen.load(Ordering::SeqCst)
    }
}

/// Sleeps until shortly before `due`, then spins: a plain sleep overshoots
/// by the timer slack and wake-up latency, which would be charged to every
/// request as generator lateness.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What one generator thread measured.
#[derive(Default)]
struct ThreadOut {
    timings: Vec<Timing>,
    failed: u64,
    problems: Vec<String>,
    /// Accepted edit batches: (storm seed, send time).
    edits: Vec<(u64, Instant)>,
    traced_rtt: Vec<f64>,
    untraced_rtt: Vec<f64>,
    spans: Vec<crate::spans::Span>,
}

struct Ctx<'a> {
    addr: String,
    start: Instant,
    end: Instant,
    rate: u32,
    mix: &'a Mix,
    epochs: &'a Epochs,
    trace: bool,
}

fn generator(t: u64, ctx: &Ctx) -> ThreadOut {
    let mut out = ThreadOut::default();
    let rec = Recorder::new(ctx.start);
    let mut last_epoch = 0u64;
    // Edit slots are even, so every one belongs to generator thread 0.
    let edit_every = (u64::from(ctx.rate) * EDIT_PERIOD_MS / 1000)
        .max(1)
        .next_multiple_of(THREADS);
    let mut next_edit = edit_every;
    let mut slot = t;
    loop {
        let due_at = due(slot, ctx.rate);
        if ctx.start + due_at >= ctx.end {
            break;
        }
        wait_until(ctx.start + due_at);
        // One edit in flight at a time: the next batch goes out only once
        // the previous one's epoch was seen, so no two batches coalesce
        // into one refresh and epochs count accepted batches exactly.
        let edit_ready =
            t == 0 && slot >= next_edit && ctx.epochs.max_seen() >= out.edits.len() as u64;
        let req = if edit_ready {
            next_edit += edit_every;
            ctx.mix.edit(out.edits.len() as u64)
        } else {
            ctx.mix.read(slot)
        };
        let traced_req = ctx.trace && (slot / THREADS).is_multiple_of(2);
        rec.set_op(slot);
        let sent = Instant::now();
        let reply = traced(traced_req.then_some(&rec), "serve.request", || {
            client::request(&ctx.addr, req.method, &req.target, Some(&req.body), TIMEOUT)
        });
        let done = Instant::now();
        let timing = Timing::of(due_at, sent - ctx.start, done - ctx.start);
        if ctx.trace {
            let bucket = if traced_req {
                &mut out.traced_rtt
            } else {
                &mut out.untraced_rtt
            };
            bucket.push(timing.rtt_ms);
        }
        let ok = match reply {
            Ok(reply) if reply.status >= 500 => false,
            Ok(reply) => {
                let want = if req.edit_seed.is_some() { 202 } else { 200 };
                let epoch = reply
                    .header("x-mass-epoch")
                    .and_then(|e| e.parse::<u64>().ok());
                let parsed = json::parse(&reply.body).is_ok();
                match epoch {
                    Some(e) if reply.status == want && parsed => {
                        if e < last_epoch {
                            out.problems
                                .push(format!("epoch went backwards: {e} after {last_epoch}"));
                        }
                        last_epoch = last_epoch.max(e);
                        ctx.epochs.observe(e, done);
                        if let Some(seed) = req.edit_seed {
                            out.edits.push((seed, sent));
                        }
                        true
                    }
                    _ => {
                        out.problems.push(format!(
                            "{} {}: status {} (want {want}), epoch header {epoch:?}, body parses: {parsed}",
                            req.method, req.target, reply.status
                        ));
                        false
                    }
                }
            }
            // Connect errors, resets and timeouts: a failed op, never an abort.
            Err(_) => false,
        };
        if ok {
            out.timings.push(timing);
        } else {
            out.failed += 1;
            out.timings.push(Timing {
                latency_ms: f64::INFINITY,
                ..timing
            });
        }
        slot += THREADS;
    }
    out.spans = rec.into_spans();
    out
}

/// Counters and the handler-latency histogram scraped from `/metrics`.
#[derive(Debug, Default, PartialEq)]
pub struct Scrape {
    pub handler_p50_us: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub shed: f64,
    pub refreshes: f64,
    pub refresh_failures: f64,
}

/// Parses the Prometheus exposition: counters by family name, and the p50
/// of the cumulative (unwindowed) `serve_request_us` histogram,
/// interpolated linearly inside its bucket.
pub fn parse_scrape(text: &str) -> Scrape {
    let mut s = Scrape::default();
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (family, labels) = series.split_once('{').unwrap_or((series, ""));
        match family {
            "serve_ad_cache_hits" => s.cache_hits = value,
            "serve_ad_cache_misses" => s.cache_misses = value,
            "serve_shed" => s.shed = value,
            "serve_refreshes" => s.refreshes = value,
            "serve_refresh_failures" => s.refresh_failures = value,
            "serve_request_us_bucket" if !labels.contains("window") => {
                let le = labels
                    .split("le=\"")
                    .nth(1)
                    .and_then(|v| v.split('"').next())
                    .map(|v| {
                        if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse().unwrap_or(f64::NAN)
                        }
                    });
                if let Some(le) = le {
                    buckets.push((le, value));
                }
            }
            _ => {}
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let Some(&(_, total)) = buckets.last() {
        let half = total / 2.0;
        let mut prev = (0.0, 0.0);
        for &(le, cum) in &buckets {
            if cum >= half && cum > prev.1 {
                s.handler_p50_us = if le.is_finite() {
                    prev.0 + (le - prev.0) * (half - prev.1) / (cum - prev.1)
                } else {
                    prev.0
                };
                break;
            }
            prev = (le, cum);
        }
    }
    s
}

/// The exact bytes `client::request` sends for `req`.
fn wire_bytes(req: &Req, addr: &str) -> Vec<u8> {
    let mut w = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        req.method,
        req.target,
        req.body.len()
    )
    .into_bytes();
    w.extend_from_slice(&req.body);
    w
}

/// Starts a server over a fresh engine and waits for `/readyz`. Returns
/// the handle and the set-up time, with `snapshot` captured off the clock.
fn set_up(
    dataset: &Dataset,
    snapshot: &mut Option<ServingSnapshot>,
) -> Result<(ServerHandle, f64), String> {
    let ds = dataset.clone();
    let t0 = Instant::now();
    let engine = IncrementalMass::new(ds, MassParams::paper());
    let built = t0.elapsed();
    if snapshot.is_none() {
        *snapshot = Some(ServingSnapshot::capture(&engine, CAP));
    }
    let t1 = Instant::now();
    let handle = start(engine, ServeConfig::default()).map_err(|e| format!("start: {e}"))?;
    let addr = handle.addr().to_string();
    let ready_by = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(&addr, "/readyz", TIMEOUT) {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() < ready_by => std::thread::sleep(Duration::from_millis(1)),
            _ => return Err("server never became ready".into()),
        }
    }
    Ok((handle, (built + t1.elapsed()).as_secs_f64()))
}

/// Per-call microseconds of `f` over `items`, timed in blocks so the clock
/// read does not dominate sub-microsecond calls; the median block mean.
fn micro_us<T>(items: &[T], mut f: impl FnMut(&T)) -> (f64, usize) {
    const BLOCK: usize = 32;
    let mut per_call = Vec::new();
    for _ in 0..4 {
        for chunk in items.chunks(BLOCK) {
            let t0 = Instant::now();
            for item in chunk {
                f(item);
            }
            per_call.push(t0.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
        }
    }
    (median(&per_call), items.len())
}

/// The final `/topk` lists must equal a local engine that applied the same
/// storms in the same order, and the epoch must count the accepted batches.
fn check_final(
    report: &mut Report,
    addr: &str,
    dataset: Dataset,
    seeds: &[u64],
    domains: &[String],
) {
    let mut local = IncrementalMass::new(dataset, MassParams::paper());
    for &seed in seeds {
        let script = scripted_storm(local.dataset(), STORM_EDITS as usize, seed, StormMix::Mixed);
        apply_to_incremental(&mut local, &script);
        local.refresh_with(RefreshMode::Exact);
    }
    let snap = ServingSnapshot::capture(&local, CAP);
    let want_epoch = seeds.len() as u64;
    report.check(local.epoch() == want_epoch, || {
        format!(
            "local engine epoch {} != {want_epoch} batches",
            local.epoch()
        )
    });
    let targets = std::iter::once((None, format!("/topk?k={CAP}"))).chain(
        domains.iter().enumerate().map(|(d, name)| {
            (
                Some(DomainId::new(d)),
                format!("/topk?domain={name}&k={CAP}"),
            )
        }),
    );
    for (domain, target) in targets {
        let reply = match client::get(addr, &target, TIMEOUT) {
            Ok(r) => r,
            Err(e) => {
                report.problems.push(format!("final GET {target}: {e}"));
                continue;
            }
        };
        let epoch = reply
            .header("x-mass-epoch")
            .and_then(|e| e.parse::<u64>().ok());
        report.check(epoch == Some(want_epoch), || {
            format!("final {target}: epoch {epoch:?}, want {want_epoch} (accepted batches)")
        });
        let got: Option<Vec<(usize, u64)>> = json::parse(&reply.body).ok().and_then(|j| {
            j.get("ranking")?
                .as_arr()?
                .iter()
                .map(|e| {
                    let id = e.get("blogger")?.as_u64()? as usize;
                    let score = e.get("score")?.as_f64()?;
                    Some((id, score.to_bits()))
                })
                .collect()
        });
        let want: Vec<(usize, u64)> = snap
            .top_k(domain, CAP)
            .unwrap_or_default()
            .iter()
            .map(|(b, s)| (b.index(), s.to_bits()))
            .collect();
        report.check(got.as_deref() == Some(&want[..]), || {
            format!("final {target}: ranking differs from the local engine's")
        });
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let rate = args.rate.unwrap_or(RATE).max(1);
    let mut report = Report {
        rate: Some(rate),
        ..Report::default()
    };
    let dataset = generate(&SynthConfig::paper_scale(args.seed)).dataset;
    let xml_bytes = mass::xml::dataset_io::to_xml_string(&dataset).len();
    report.corpus = Corpus::of(&dataset, xml_bytes);
    let domains: Vec<String> = dataset.domains.names().to_vec();
    let mix = Mix::new(args.seed, domains.clone());

    let mut snapshot = None;
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let (handle, secs) = set_up(&dataset, &mut snapshot)?;
        setup_s.push(secs);
        server = Some(handle);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr().to_string();

    let epochs = Epochs::default();
    let start = Instant::now();
    let end = start + Duration::from_secs(args.seconds);
    let ctx = Ctx {
        addr: addr.clone(),
        start,
        end,
        rate,
        mix: &mix,
        epochs: &epochs,
        trace: args.trace,
    };
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = &ctx;
                s.spawn(move || generator(t, ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    let mut timings = Vec::new();
    let mut edits = Vec::new();
    let (mut traced_rtt, mut untraced_rtt) = (Vec::new(), Vec::new());
    let mut spans: Vec<crate::spans::Span> = Vec::new();
    for out in outs {
        let base = spans.len();
        spans.extend(out.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        report.attempted += out.timings.len() as u64;
        report.failed += out.failed;
        report.problems.extend(out.problems);
        timings.extend(out.timings);
        edits.extend(out.edits);
        traced_rtt.extend(out.traced_rtt);
        untraced_rtt.extend(out.untraced_rtt);
    }

    // Edit → publish: from sending batch m to the first reply carrying
    // epoch m, for batches published inside the timed phase.
    let publish_ms: Vec<f64> = {
        let seen = epochs.first_seen.lock().expect("epoch log poisoned");
        edits
            .iter()
            .enumerate()
            .filter_map(|(m, &(_, sent))| seen.get(m).map(|&at| ms(at - sent)))
            .collect()
    };
    // Let the last batch publish before the final checks.
    let settle_by = Instant::now() + Duration::from_secs(30);
    while epochs.max_seen() < edits.len() as u64 && Instant::now() < settle_by {
        if let Ok(r) = client::get(&addr, "/topk?k=1", TIMEOUT) {
            if let Some(e) = r.header("x-mass-epoch").and_then(|e| e.parse().ok()) {
                epochs.observe(e, Instant::now());
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let scrape = match client::get(&addr, "/metrics", TIMEOUT) {
        Ok(r) if r.status == 200 => parse_scrape(&r.body),
        other => {
            report.problems.push(format!(
                "GET /metrics failed: {:?}",
                other.map(|r| r.status)
            ));
            Scrape::default()
        }
    };
    let seeds: Vec<u64> = edits.iter().map(|&(seed, _)| seed).collect();
    let peak_rss = crate::peak_rss_mib();
    check_final(&mut report, &addr, dataset, &seeds, &domains);
    let shutdown = server.shutdown();
    report.check(shutdown.refresh_failures == 0, || {
        format!("{} refreshes failed", shutdown.refresh_failures)
    });
    report.check(!publish_ms.is_empty(), || {
        "no edit batch published during the run".into()
    });

    let latency: Vec<f64> = timings.iter().map(|t| t.latency_ms).collect();
    let late: Vec<f64> = timings.iter().map(|t| t.late_ms).collect();
    report.notes.push(format!(
        "serve_mixed: open loop at {rate} req/s from {THREADS} threads, {} requests, {} edit batches accepted, {} ads in the pool",
        latency.len(),
        edits.len(),
        mix.ads.len()
    ));

    if !args.trace {
        report.metric("setup_s", median(&setup_s), setup_s.len());
        report.metric("peak_rss_mib", peak_rss, 1);
        report.metric("op_p50_ms", median(&latency), latency.len());
        report.notes.push(format!(
            "serve_mixed: request tail (reported, not bounded): p90 {} ms, {} over {} requests",
            percentile(&latency, 90.0).map_or("n/a".into(), |v| format!("{v:.4}")),
            tail(&latency).map_or("n/a".into(), |(p, v)| format!("p{p:.2} {v:.4} ms")),
            latency.len()
        ));
        if !publish_ms.is_empty() {
            report.metric("fresh_p50_ms", median(&publish_ms), publish_ms.len());
        }
        report.notes.push(
            "serve_mixed: op = request timed from its scheduled send; fresh = edit POST sent → first read with the new epoch"
                .into(),
        );
        return Ok(report);
    }

    // Standalone layer calls on the request mix, outside the timed phase.
    let snap = snapshot.expect("captured during set-up");
    let sample: Vec<Req> = (0..4096).map(|slot| mix.read(slot)).collect();
    let wire: Vec<Vec<u8>> = sample.iter().map(|r| wire_bytes(r, &addr)).collect();
    let limits = Limits::default();
    let (v, n) = micro_us(&wire, |w| {
        black_box(read_request(&mut &w[..], &limits).expect("generator requests parse"));
    });
    report.metric("serve.parse_us", v, n);
    let reads: Vec<(Option<DomainId>, usize)> = sample
        .iter()
        .zip(&wire)
        .filter(|(r, _)| r.method == "GET")
        .map(|(_, w)| {
            let q = read_request(&mut &w[..], &limits).expect("generator requests parse");
            let domain = q.query_param("domain").and_then(|d| snap.domain_id(d));
            let k = q
                .query_param("k")
                .and_then(|k| k.parse().ok())
                .unwrap_or(10);
            (domain, k)
        })
        .collect();
    let (v, n) = micro_us(&reads, |&(d, k)| {
        black_box(snap.top_k(d, k));
    });
    report.metric("core.topk_read_us", v, n);
    let ads: Vec<&[u8]> = sample
        .iter()
        .filter(|r| r.method == "POST")
        .map(|r| r.body.as_slice())
        .collect();
    let (v, n) = micro_us(&ads, |body| {
        let text = std::str::from_utf8(body).expect("ad texts are UTF-8");
        let interest = snap
            .mine_interest(text)
            .expect("paper corpus trains a classifier");
        black_box(snap.match_interest(&interest, 5));
    });
    report.metric("core.match_us", v, n);

    report.metric("serve.handler_p50_us", scrape.handler_p50_us, 1);
    let lookups = scrape.cache_hits + scrape.cache_misses;
    report.metric(
        "serve.ad_cache_hit_share",
        scrape.cache_hits / lookups.max(1.0),
        lookups as usize,
    );
    report.notes.push(format!(
        "serve.ad_cache_hit_share = {} hits of {lookups} ad lookups",
        scrape.cache_hits
    ));
    report.metric("serve.shed", scrape.shed, 1);
    report.metric("serve.refreshes", scrape.refreshes, 1);
    report.metric("serve.refresh_failures", scrape.refresh_failures, 1);
    if let Some(p99) = percentile(&late, 99.0) {
        report.metric("serve.generator_late_p99_ms", p99, late.len());
    }
    let rtt: Vec<f64> = timings.iter().map(|t| t.rtt_ms).collect();
    report.metric(
        "unattributed_ms",
        median(&rtt) - scrape.handler_p50_us / 1e3,
        rtt.len(),
    );
    report.notes.push(
        "serve unattributed_ms = client round trip p50 - server handler p50 (connect, accept, queue)"
            .into(),
    );
    report.metric(
        "tracing_overhead_ms",
        median(&traced_rtt) - median(&untraced_rtt),
        traced_rtt.len() + untraced_rtt.len(),
    );
    crate::emit_spans(args, &mut report, &spans);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the generator's blocking open loop on a simulated clock:
    /// one request per 10 ms, each served in 1 ms, except request 2 which
    /// stalls for 100 ms. Timing from the scheduled send charges the stall
    /// to every request queued behind it, not just to request 2.
    #[test]
    fn a_stall_charges_the_requests_scheduled_behind_it() {
        let rate = 100; // one slot per 10 ms
        let service = |i: u64| Duration::from_millis(if i == 2 { 100 } else { 1 });
        let mut free_at = Duration::ZERO;
        let mut timings = Vec::new();
        for i in 0..12 {
            let due_at = due(i, rate);
            let sent = due_at.max(free_at);
            let done = sent + service(i);
            free_at = done;
            timings.push(Timing::of(due_at, sent, done));
        }
        assert_eq!(timings[1].latency_ms, 1.0);
        assert_eq!(timings[2].latency_ms, 100.0);
        // Request 3 was due at 30 ms but could only go at 120 ms.
        assert_eq!(timings[3].late_ms, 90.0);
        assert_eq!(timings[3].latency_ms, 91.0);
        assert_eq!(timings[3].rtt_ms, 1.0);
        // The backlog drains by 9 ms per slot (10 ms apart, 1 ms each).
        assert_eq!(timings[4].latency_ms, 82.0);
        assert_eq!(timings[11].latency_ms, 19.0);
        // A closed-loop view (round trip only) would hide all of it.
        assert!(timings[3..].iter().all(|t| t.rtt_ms == 1.0));
    }

    #[test]
    fn slots_split_between_threads_at_the_rate() {
        assert_eq!(due(0, 1000), Duration::ZERO);
        assert_eq!(due(250, 1000), Duration::from_millis(250));
        assert_eq!(due(3, 3), Duration::from_secs(1));
    }

    #[test]
    fn scrape_reads_counters_and_interpolates_the_handler_p50() {
        let text = "\
# TYPE serve_ad_cache_hits counter
serve_ad_cache_hits 30
serve_ad_cache_misses 70
serve_shed 0
serve_refreshes 12
serve_refresh_failures 0
serve_request_us_bucket{le=\"100\"} 20
serve_request_us_bucket{le=\"200\"} 80
serve_request_us_bucket{le=\"+Inf\"} 100
serve_request_us_bucket{window=\"60s\",le=\"100\"} 100
serve_request_us_sum 12345
serve_request_us_count 100
";
        let s = parse_scrape(text);
        assert_eq!(s.cache_hits, 30.0);
        assert_eq!(s.cache_misses, 70.0);
        assert_eq!(s.refreshes, 12.0);
        // Half of 100 falls 30/60 of the way through the (100, 200] bucket.
        assert_eq!(s.handler_p50_us, 150.0);
    }
}
