//! `single`: each paper query standalone over one large document, one
//! `EvalSession` per query with `EngineOptions::gcx()` — the CLI user's
//! path. Throughput and the median latency come from each feed/finish
//! call's fastest latency over the run's sweeps; the p99 latency from
//! every call of the run.

use crate::cpus::Rotation;
use crate::inputs::{self, mb, Query};
use crate::layers::{self, Docs};
use crate::stats::{median, quantile, secs};
use crate::trace::Tracer;
use crate::{Args, E2e, Metrics, Workload};
use gcx_core::EngineOptions;
use std::time::{Duration, Instant};

/// Set-up repetitions before measuring. `setup_s` is the median of these
/// and of `SETUP_BETWEEN` more after every sweep, so that it spans the
/// machine's speed drift like the measurement does.
pub const SETUP_REPS: usize = 21;
pub const SETUP_BETWEEN: usize = 4;

pub struct Single {
    args: Args,
    opts: EngineOptions,
    doc: Vec<u8>,
    queries: Vec<Query>,
    oracle: Vec<Vec<u8>>,
    setup_times: Vec<f64>,
    report: Vec<String>,
}

impl Single {
    pub fn setup(args: &Args) -> Result<Single, String> {
        let doc = inputs::xmark(args.sizes().big_bytes, args.seed);
        let (queries, setup_times) = timed_setup(|| inputs::compile_all(&mut Tracer::new(false)))?;
        let oracle = inputs::oracle_outputs(&queries, &doc, args.seed)?;
        let mut opts = EngineOptions::gcx();
        opts.max_buffer_bytes = args.max_buffer_bytes;
        Ok(Single {
            args: args.clone(),
            opts,
            doc,
            queries,
            oracle,
            setup_times,
            report: Vec::new(),
        })
    }

    /// One sweep: every query standalone. Returns the session of every
    /// query, failed ones included, and the peak heap above the heap held
    /// before each session.
    fn sweep(&self, out: &mut Vec<u8>, tr: &mut Tracer, e: &mut E2e) -> (Vec<Session>, u64) {
        let mut sessions = Vec::with_capacity(self.queries.len());
        let mut heap = 0;
        for (q, want) in self.queries.iter().zip(&self.oracle) {
            out.clear();
            gcx_memtrack::reset_peak();
            let base = gcx_memtrack::live_bytes();
            e.attempted += 1;
            let mut ops_ms = Vec::with_capacity(self.doc.len() / inputs::CHUNK + 1);
            let t0 = Instant::now();
            let run = inputs::run_session(q, &self.opts, &self.doc, out, &mut ops_ms, tr, 0);
            let total = secs(t0);
            heap = heap.max(gcx_memtrack::peak_bytes().saturating_sub(base));
            match &run {
                Ok(_) if out != want => {
                    e.failed += 1;
                    eprintln!("single: {} output differs from the oracle", q.name);
                }
                Ok(_) => {}
                Err(err) => {
                    e.failed += 1;
                    eprintln!("single: {} failed: {err}", q.name);
                }
            }
            sessions.push(Session {
                secs: total,
                peak: inputs::peak_of(&run.map(|r| r.report)),
                ops_ms,
            });
        }
        (sessions, heap)
    }
}

/// One timed session: its time (s), peak buffer, and the latency (ms) of
/// each of its feed/finish calls.
struct Session {
    secs: f64,
    peak: u64,
    ops_ms: Vec<f64>,
}

/// Fold `ops_ms` into `best` call by call, keeping each call's fastest
/// latency. The calls of every session of a query are the same chunks in
/// the same order.
fn fold_fastest(best: &mut Vec<f64>, ops_ms: &[f64]) {
    for (i, &v) in ops_ms.iter().enumerate() {
        match best.get_mut(i) {
            Some(b) => *b = b.min(v),
            None => best.push(v),
        }
    }
}

/// Run `f` `reps` times; keep the last result and every time (s).
pub fn timed_reps<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(secs(t0));
    }
    Ok((last.expect("at least one repetition"), times))
}

/// [`timed_reps`] with `SETUP_REPS`.
pub fn timed_setup<T>(f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    timed_reps(SETUP_REPS, f)
}

impl Workload for Single {
    fn setup_times(&self) -> &[f64] {
        &self.setup_times
    }

    fn measure(&mut self, budget: Duration, tr: &mut Tracer) -> Result<E2e, String> {
        let mut out = Vec::with_capacity(1 << 20);
        let mut e = E2e::default();
        // Warm-up sweep: caches fill, the output vector reaches its size.
        self.sweep(&mut out, &mut Tracer::new(false), &mut e);
        // Each query's feed/finish calls, each at its fastest latency so
        // far. The host slows the engine down in spells (other tenants
        // share its cores); the fastest of many repetitions is the
        // engine's own cost, the others add the spells.
        let mut best: Vec<Vec<f64>> = vec![Vec::new(); self.queries.len()];
        // Every call's latency: the tail is what the spells make of it.
        let mut all_ms: Vec<f64> = Vec::new();
        let (mut mbs, mut heaps) = (Vec::new(), Vec::new());
        let doc_mb = mb(self.doc.len());
        // Sweep after sweep on another CPU: each CPU's spells are its own.
        let cpus = Rotation::new();
        let mut swept_on = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < budget || mbs.len() < 2 {
            swept_on.push(cpus.pin(mbs.len()));
            let id = if tr.on() { tr.id() } else { 0 };
            let started = Instant::now();
            let (sessions, heap) = self.sweep(&mut out, tr, &mut e);
            tr.record_as(
                id,
                0,
                "single.sweep",
                "workload",
                1,
                started,
                Instant::now(),
                None,
            );
            let wall: f64 = sessions.iter().map(|s| s.secs).sum();
            mbs.push(doc_mb * sessions.len() as f64 / wall);
            heaps.push(heap as f64);
            e.peak_buffer_bytes = sessions.iter().map(|s| s.peak as f64).sum();
            for (b, s) in best.iter_mut().zip(&sessions) {
                fold_fastest(b, &s.ops_ms);
                all_ms.extend_from_slice(&s.ops_ms);
            }
            let (_, times) = timed_reps(SETUP_BETWEEN, || inputs::compile_all(tr))?;
            e.setup_times.extend(times);
        }
        let ops: Vec<f64> = best.concat();
        let wall = ops.iter().sum::<f64>() / 1e3;
        e.throughput_mb_s = doc_mb * best.len() as f64 / wall;
        e.peak_heap_bytes = median(&heaps);
        closed_loop_latency(&mut e, &ops, best.len() as f64 / wall);
        e.p99_ms = [quantile(&all_ms, 0.99); 3];
        self.report = vec![format!(
            "single: {:.1} MB document, {} queries, {} sweeps, {} feed/finish calls per \
             sweep, MB/s of the fastest calls: {:.1}, MB/s per sweep: {}",
            doc_mb,
            self.queries.len(),
            mbs.len(),
            ops.len(),
            e.throughput_mb_s,
            mbs.iter()
                .zip(&swept_on)
                .map(|(v, cpu)| match cpu {
                    Some(c) => format!("{v:.1}@cpu{c}"),
                    None => format!("{v:.1}"),
                })
                .collect::<Vec<_>>()
                .join(" ")
        )];
        Ok(e)
    }

    fn layers(&mut self, plain: &E2e, tr: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let docs = Docs::one(&self.doc);
        layers::probe_all(&self.args, &self.queries, &docs, tr, out)?;
        // The stage cuts partition one session: tokenize + projection +
        // everything after (buffer, VM, writer). Their sum should match the
        // untraced mean session time of the same run (from its fastest
        // calls) within the tracing overhead measured on throughput.
        let stage = ["xml.tokenize_s", "projection.match_s", "core.eval_self_s"]
            .iter()
            .map(|n| out.get(n).unwrap_or(0.0))
            .sum::<f64>();
        let untraced = mb(self.doc.len()) / plain.throughput_mb_s;
        let deviation = stage / untraced - 1.0;
        let overhead = out.get("trace_overhead.throughput_mb_s").unwrap_or(0.0);
        self.report.push(format!(
            "stage cuts: xml.tokenize_s + projection.match_s + core.eval_self_s = {stage:.6} s \
             vs untraced mean session {untraced:.6} s: {:+.2}%, tracing overhead on \
             throughput {:+.2}%: {}",
            deviation * 100.0,
            overhead * 100.0,
            if deviation.abs() <= overhead.abs() {
                "within"
            } else {
                "outside"
            }
        ));
        Ok(())
    }

    fn report(&self, out: &mut Vec<String>) {
        out.extend(self.report.iter().cloned());
    }
}

/// Closed-loop latency figures for `single`/`batch`: the documents arrive
/// back to back, so the three rate tiers share one value — the latency of
/// one 64 KiB chunk (or final call) through the engine — and
/// `sustainable_rps` is the rate at which query evaluations completed.
pub fn closed_loop_latency(e: &mut E2e, ops_ms: &[f64], evals_per_s: f64) {
    let (p50, p99) = (quantile(ops_ms, 0.5), quantile(ops_ms, 0.99));
    e.p50_ms = [p50; 3];
    e.p99_ms = [p99; 3];
    e.sustainable_rps = evals_per_s;
}
