//! Per-layer probes of a traced run. Each is timed around public calls
//! into one crate, or is a stage cut (a pass that stops after a layer,
//! subtracted from the pass that stops after the next one), or is a count
//! read from a public report. Spans go to the run's tracer.

use crate::inputs::{self, ms, Query, CHUNK};
use crate::server::{self, Arrival, Bodies, Ref};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Metrics};
use gcx_core::{BufferTree, CompiledQuery, EngineOptions, Projector};
use gcx_multi::{BatchOptions, SharedRun};
use gcx_projection::StreamMatcher;
use gcx_xml::{PushTokenizer, TokenStep};
use std::hint::black_box;
use std::time::Instant;

/// The documents a workload runs over.
pub struct Docs<'a>(pub Vec<&'a [u8]>);

impl<'a> Docs<'a> {
    pub fn one(doc: &'a [u8]) -> Docs<'a> {
        Docs(vec![doc])
    }
}

fn reps(args: &Args) -> usize {
    if args.tiny {
        2
    } else {
        3
    }
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Every probe, the server included: neither workload reaches the HTTP
/// layer on its own.
pub fn probe_all(
    args: &Args,
    queries: &[Query],
    docs: &Docs,
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let refs = probe_engine(args, queries, docs, tr, out)?;
    probe_server(args, queries, docs, &refs, tr, out)
}

/// The engine-side probes (compile path, xml, projection, core, multi).
/// Returns the offline reference of each (query, document) pair.
fn probe_engine(
    args: &Args,
    queries: &[Query],
    docs: &Docs,
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<Vec<Vec<Ref>>, String> {
    let n = reps(args);
    probe_compile(queries, n, tr, out)?;
    let tokenize_s = probe_xml(docs, n, tr, out)?;
    let pass_s = probe_projection(queries, docs, n, tokenize_s, tr, out)?;
    let refs = probe_core(queries, docs, n, pass_s, tr, out)?;
    probe_multi(queries, docs, n, tr, out)?;
    Ok(refs)
}

/// parse → analyze → lower → optimize → classify, each timed on its own
/// public entry point and summed over the workload's queries (µs).
fn probe_compile(
    queries: &[Query],
    n: usize,
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut sums = [(); 5].map(|_| Vec::with_capacity(n));
    for _ in 0..n {
        let mut s = [0.0f64; 5];
        for q in queries {
            let mut t = [Instant::now(); 6];
            let query = gcx_query::compile(q.text).map_err(|e| format!("{}: {e}", q.name))?;
            t[1] = Instant::now();
            let analysis = gcx_projection::analyze(&query);
            t[2] = Instant::now();
            let program = gcx_ir::Program::compile(&query, &analysis);
            t[3] = Instant::now();
            let (optimized, _) = gcx_ir::optimize(&program);
            t[4] = Instant::now();
            black_box(gcx_analyze::analyze_program(&optimized, None));
            t[5] = Instant::now();
            for (i, name) in [
                "query.parse",
                "projection.analyze",
                "ir.lower",
                "ir.optimize",
                "analyze.classify",
            ]
            .into_iter()
            .enumerate()
            {
                s[i] += (t[i + 1] - t[i]).as_secs_f64() * 1e6;
                tr.record(0, name, "compile", t[i], t[i + 1]);
            }
        }
        for (i, v) in s.iter().enumerate() {
            sums[i].push(*v);
        }
    }
    for (i, name) in [
        "query.parse_us",
        "projection.analyze_us",
        "ir.lower_us",
        "ir.optimize_us",
        "analyze.classify_us",
    ]
    .into_iter()
    .enumerate()
    {
        out.put(name, median(&sums[i]), "us");
    }
    Ok(())
}

/// Feed `doc` in `CHUNK`-byte slices to a fresh tokenizer, handing each
/// token to `on_token`; returns the tokenizer for its counters.
fn tokenize(doc: &[u8], mut on_token: impl FnMut(&PushTokenizer)) -> Result<PushTokenizer, String> {
    let mut tok = PushTokenizer::new();
    let mut step = |tok: &mut PushTokenizer| -> Result<bool, String> {
        loop {
            match tok.step().map_err(|e| format!("tokenizer: {e}"))? {
                TokenStep::Token => on_token(tok),
                TokenStep::NeedMoreData => return Ok(false),
                TokenStep::End => return Ok(true),
            }
        }
    };
    for chunk in doc.chunks(CHUNK) {
        tok.feed(chunk);
        step(&mut tok)?;
    }
    tok.finish_input();
    if !step(&mut tok)? {
        return Err("tokenizer: input ended mid-token".into());
    }
    Ok(tok)
}

/// A `PushTokenizer`-only pass over the documents. Returns its time (s).
fn probe_xml(docs: &Docs, n: usize, tr: &mut Tracer, out: &mut Metrics) -> Result<f64, String> {
    let (mut times, mut tokens, mut window) = (Vec::new(), 0u64, 0u64);
    for _ in 0..n {
        let t0 = Instant::now();
        tokens = 0;
        for doc in &docs.0 {
            let tok = tokenize(doc, |t| {
                black_box(t.token());
                tokens += 1;
            })?;
            window = window.max(tok.window_peak());
        }
        times.push(t0.elapsed().as_secs_f64());
        tr.record(0, "xml.tokenize_pass", "xml", t0, Instant::now());
    }
    let s = median(&times);
    let bytes: usize = docs.0.iter().map(|d| d.len()).sum();
    out.put("xml.tokenize_s", s, "s");
    out.put("xml.tokenize_mb_s", inputs::mb(bytes) / s, "MB/s");
    out.put("xml.tokens", tokens as f64, "count");
    out.put("xml.window_peak_bytes", window as f64, "bytes");
    Ok(s)
}

/// Tokenizer + `Projector::apply` into a `BufferTree` (no evaluator), per
/// query. Returns the mean per-query pass time (s).
fn probe_projection(
    queries: &[Query],
    docs: &Docs,
    n: usize,
    tokenize_s: f64,
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<f64, String> {
    let mut means = Vec::new();
    let (mut appended, mut tokens) = (0u64, 0u64);
    for _ in 0..n {
        let mut total = 0.0;
        (appended, tokens) = (0, 0);
        for q in queries {
            let program = &q.compiled.program;
            let t0 = Instant::now();
            for doc in &docs.0 {
                let mut symbols = program.symbols().clone();
                let (matcher, _) = StreamMatcher::new(program.matcher_paths());
                let mut proj = Projector::new(matcher, true, None);
                let mut buf = BufferTree::new(true);
                tokenize(doc, |t| proj.apply(&t.token(), &mut buf, &mut symbols))?;
                proj.finish(&mut buf);
                appended += buf.stats().allocated;
                tokens += proj.tokens();
            }
            total += t0.elapsed().as_secs_f64();
            tr.record(0, "projection.pass", "projection", t0, Instant::now());
        }
        means.push(total / queries.len() as f64);
    }
    let pass_s = median(&means);
    out.put("projection.match_s", pass_s - tokenize_s, "s");
    out.put(
        "projection.kept_frac",
        appended as f64 / tokens.max(1) as f64,
        "ratio",
    );
    Ok(pass_s)
}

/// Standalone sessions under `gcx()` and `projection_only()`, alternating.
fn probe_core(
    queries: &[Query],
    docs: &Docs,
    n: usize,
    pass_s: f64,
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<Vec<Vec<Ref>>, String> {
    let nq = queries.len();
    let (gcx, po) = (EngineOptions::gcx(), EngineOptions::projection_only());
    let mut refs: Vec<Vec<Ref>> = Vec::new();
    let (mut opens, mut feed, mut finish) = (Vec::new(), Vec::new(), Vec::new());
    let (mut per_query, mut per_query_po): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        (vec![Vec::new(); nq], vec![Vec::new(); nq]);
    let (mut peak_gcx, mut peak_po) = (vec![0u64; nq], vec![0u64; nq]);
    let (mut appended, mut purged, mut output) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    let mut ops = Vec::new();
    for rep in 0..n {
        let (mut f, mut fin) = (0.0, 0.0);
        (appended, purged, output) = (0, 0, 0);
        for (qi, q) in queries.iter().enumerate() {
            let mut row = Vec::new();
            let (mut t_gcx, mut t_po) = (0.0, 0.0);
            for doc in &docs.0 {
                // Alternate which configuration runs first.
                for is_gcx in [rep % 2 == 0, rep % 2 == 1] {
                    buf.clear();
                    ops.clear();
                    let opts = if is_gcx { &gcx } else { &po };
                    let run = inputs::run_session(q, opts, doc, &mut buf, &mut ops, tr, 0)
                        .map_err(|e| format!("{}: session failed: {e}", q.name))?;
                    let peak = run.report.buffer.peak_live_bytes;
                    if !is_gcx {
                        t_po += run.total.as_secs_f64();
                        peak_po[qi] = peak_po[qi].max(peak);
                        continue;
                    }
                    t_gcx += run.total.as_secs_f64();
                    opens.push(run.open.as_secs_f64() * 1e6);
                    f += run.feed.as_secs_f64();
                    fin += run.finish.as_secs_f64();
                    peak_gcx[qi] = peak_gcx[qi].max(peak);
                    appended += run.report.buffer.allocated;
                    purged += run.report.buffer.purged;
                    output += run.report.output_bytes;
                    if rep + 1 == n {
                        row.push(Ref {
                            output: buf.clone(),
                            peak,
                            offline_ms: ms(run.total),
                        });
                    }
                }
            }
            per_query[qi].push(t_gcx);
            per_query_po[qi].push(t_po);
            if rep + 1 == n {
                refs.push(row);
            }
        }
        feed.push(f / nq as f64);
        finish.push(fin / nq as f64);
    }
    // Per-query median times, averaged over the queries.
    let mean_median = |v: &[Vec<f64>]| v.iter().map(|t| median(t)).sum::<f64>() / nq as f64;
    let session_s = mean_median(&per_query);
    out.put("core.session_open_us", median(&opens), "us");
    out.put("core.session_s", session_s, "s");
    out.put("core.feed_s", median(&feed), "s");
    out.put("core.finish_s", median(&finish), "s");
    out.put("core.eval_self_s", session_s - pass_s, "s");
    for (qi, q) in queries.iter().enumerate() {
        out.put(
            format!("core.eval_s.{}", q.name),
            median(&per_query[qi]),
            "s",
        );
    }
    for (qi, q) in queries.iter().enumerate() {
        out.put(
            format!("core.peak_live_bytes.{}", q.name),
            peak_gcx[qi] as f64,
            "bytes",
        );
    }
    out.put("core.appended_nodes", appended as f64, "count");
    out.put("core.purged_nodes", purged as f64, "count");
    out.put(
        "core.purge_frac",
        purged as f64 / appended.max(1) as f64,
        "ratio",
    );
    out.put("core.gc_s", session_s - mean_median(&per_query_po), "s");
    let saved: i64 = peak_po
        .iter()
        .zip(&peak_gcx)
        .map(|(p, g)| *p as i64 - *g as i64)
        .sum();
    out.put("core.gc_saved_bytes", saved as f64, "bytes");
    out.put("core.output_bytes", output as f64, "bytes");
    Ok(refs)
}

/// `SharedRun::prepare` and `run_prepared` over the workload's documents.
fn probe_multi(
    queries: &[Query],
    docs: &Docs,
    n: usize,
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let compiled: Vec<CompiledQuery> = queries.iter().map(|q| q.compiled.clone()).collect();
    let runner = SharedRun::new(BatchOptions::default());
    let mut prep = Vec::new();
    let mut plan = None;
    for _ in 0..n.max(5) {
        let t0 = Instant::now();
        plan = Some(runner.prepare(&compiled));
        prep.push(us(t0));
        tr.record(0, "multi.prepare", "multi", t0, Instant::now());
    }
    let plan = plan.expect("at least one prepare");
    let (mut runs, mut tokens, mut fanout) = (Vec::new(), 0u64, 0u64);
    for _ in 0..n {
        let t0 = Instant::now();
        (tokens, fanout) = (0, 0);
        for doc in &docs.0 {
            let r = runner
                .run_prepared(&plan, &compiled, *doc)
                .map_err(|e| format!("multi: shared pass failed: {e}"))?;
            tokens += r.tokens;
            fanout += r.fanout_events;
        }
        runs.push(t0.elapsed().as_secs_f64());
        tr.record(0, "multi.run_prepared", "multi", t0, Instant::now());
    }
    out.put("multi.prepare_us", median(&prep), "us");
    out.put("multi.run_s", median(&runs), "s");
    out.put("multi.tokens", tokens as f64, "count");
    out.put("multi.fanout_events", fanout as f64, "count");
    let would = queries.len() as f64 * tokens as f64;
    out.put(
        "multi.share_factor",
        would / (tokens + fanout).max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Register the queries on a fresh server and send every (query,
/// document) pair once in each framing, spaced so requests do not overlap.
fn probe_server(
    args: &Args,
    queries: &[Query],
    docs: &Docs,
    refs: &[Vec<Ref>],
    tr: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let (server, register) = server::start(queries)?;
    let mut arrivals = Vec::new();
    let mut at = 0.0;
    for (q, row) in refs.iter().enumerate() {
        for (doc, r) in row.iter().enumerate() {
            for chunked in [false, true] {
                arrivals.push(Arrival {
                    at,
                    q,
                    doc,
                    chunked,
                });
                at += (2.0 * r.offline_ms + 5.0) / 1e3;
            }
        }
    }
    let bodies = Bodies::new(docs.0.clone());
    let result = server::run_scraped(
        server.addr(),
        queries,
        &bodies,
        refs,
        &arrivals,
        args.seed,
        tr,
    );
    server.shutdown();
    let (records, scrapes) = result?;
    if let Some(bad) = records.iter().find(|r| !r.ok) {
        return Err(format!(
            "server probe: {} on document {} failed (mismatch {}, reset {})",
            queries[bad.arrival.q].name, bad.arrival.doc, bad.mismatch, bad.reset
        ));
    }
    server::server_metrics(&records, refs, ms(register), &scrapes, out);
    Ok(())
}
