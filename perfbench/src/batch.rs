//! `batch`: the paper queries over the same document in one shared
//! `gcx-multi` pass — `SharedRun::prepare` once during set-up, then
//! `run_prepared` per pass.

use crate::inputs::{self, mb, Query, CHUNK};
use crate::layers::{self, Docs};
use crate::single::{closed_loop_latency, timed_reps, timed_setup, SETUP_BETWEEN};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, E2e, Metrics, Workload};
use gcx_core::CompiledQuery;
use gcx_multi::{BatchOptions, BatchPlan, BatchReport, SharedRun};
use std::io::Read;
use std::time::{Duration, Instant};

/// Reads per latency sample: 256 KiB of input. With a dozen threads on
/// two CPUs, a single 64 KiB read mostly times the scheduler.
const READS_PER_SAMPLE: usize = 4;

pub struct Batch {
    args: Args,
    doc: Vec<u8>,
    queries: Vec<Query>,
    compiled: Vec<CompiledQuery>,
    runner: SharedRun,
    plan: BatchPlan,
    oracle: Vec<Vec<u8>>,
    setup_times: Vec<f64>,
    report: Vec<String>,
}

/// The document as a `Read` handing out at most `CHUNK` bytes per call
/// and stamping each call: the gap between two reads is the time the
/// shared pass spent on one chunk.
pub struct ChunkReader<'a> {
    doc: &'a [u8],
    pos: usize,
    pub stamps: Vec<Instant>,
}

impl<'a> ChunkReader<'a> {
    pub fn new(doc: &'a [u8]) -> ChunkReader<'a> {
        ChunkReader {
            doc,
            pos: 0,
            stamps: Vec::with_capacity(doc.len() / CHUNK + 4),
        }
    }
}

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stamps.push(Instant::now());
        let n = buf.len().min(CHUNK).min(self.doc.len() - self.pos);
        buf[..n].copy_from_slice(&self.doc[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The batch's set-up: compile the queries, then `SharedRun::prepare`.
fn set_up(runner: &SharedRun, tr: &mut Tracer) -> Result<(Vec<Query>, BatchPlan), String> {
    let queries = inputs::compile_all(tr)?;
    let compiled: Vec<CompiledQuery> = queries.iter().map(|q| q.compiled.clone()).collect();
    let t0 = Instant::now();
    let plan = runner.prepare(&compiled);
    tr.record(0, "multi.prepare", "multi", t0, Instant::now());
    Ok((queries, plan))
}

impl Batch {
    pub fn setup(args: &Args) -> Result<Batch, String> {
        let doc = inputs::xmark(args.sizes().big_bytes, args.seed);
        let runner = SharedRun::new(BatchOptions {
            max_buffer_bytes: args.max_buffer_bytes,
            ..BatchOptions::default()
        });
        let ((queries, plan), setup_times) =
            timed_setup(|| set_up(&runner, &mut Tracer::new(false)))?;
        let compiled = queries.iter().map(|q| q.compiled.clone()).collect();
        let oracle = inputs::oracle_outputs(&queries, &doc, args.seed)?;
        Ok(Batch {
            args: args.clone(),
            doc,
            queries,
            compiled,
            runner,
            plan,
            oracle,
            setup_times,
            report: Vec::new(),
        })
    }

    /// One shared pass; the latency (ms) of every `READS_PER_SAMPLE` reads
    /// is appended to `ops_ms`.
    fn pass(&self, ops_ms: &mut Vec<f64>, tr: &mut Tracer) -> Result<BatchReport, String> {
        let mut input = ChunkReader::new(&self.doc);
        let started = Instant::now();
        let report = self
            .runner
            .run_prepared(&self.plan, &self.compiled, &mut input)
            .map_err(|e| format!("batch: shared pass failed: {e}"))?;
        let end = Instant::now();
        tr.record(0, "multi.run_prepared", "multi", started, end);
        let mut stamps = input.stamps;
        stamps.push(end);
        let last = stamps.len() - 1;
        ops_ms.extend(
            (0..last)
                .step_by(READS_PER_SAMPLE)
                .map(|i| inputs::ms(stamps[(i + READS_PER_SAMPLE).min(last)] - stamps[i])),
        );
        Ok(report)
    }

    /// Compare every query's output with the oracle.
    fn check(&self, report: &BatchReport, e: &mut E2e) {
        for ((q, run), want) in self.queries.iter().zip(&report.queries).zip(&self.oracle) {
            e.attempted += 1;
            if let Err(err) = &run.report {
                e.failed += 1;
                eprintln!("batch: {} failed: {err}", q.name);
            } else if &run.output != want {
                e.failed += 1;
                eprintln!("batch: {} output differs from the oracle", q.name);
            }
        }
    }
}

impl Workload for Batch {
    fn setup_times(&self) -> &[f64] {
        &self.setup_times
    }

    fn measure(&mut self, budget: Duration, tr: &mut Tracer) -> Result<E2e, String> {
        let mut e = E2e::default();
        let warm = self.pass(&mut Vec::new(), &mut Tracer::new(false))?;
        self.check(&warm, &mut e);
        let mut heaps = Vec::new();
        // (pass time, its chunk latencies) per pass.
        let mut passes: Vec<(f64, Vec<f64>)> = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < budget || passes.len() < 2 {
            gcx_memtrack::reset_peak();
            let base = gcx_memtrack::live_bytes();
            let mut ops = Vec::new();
            let report = self.pass(&mut ops, tr)?;
            heaps.push(gcx_memtrack::peak_bytes().saturating_sub(base) as f64);
            passes.push((report.elapsed.as_secs_f64(), ops));
            e.peak_buffer_bytes = report
                .queries
                .iter()
                .map(|r| inputs::peak_of(&r.report) as f64)
                .sum();
            self.check(&report, &mut e);
            let (_, times) = timed_reps(SETUP_BETWEEN, || set_up(&self.runner, tr))?;
            e.setup_times.extend(times);
        }
        let nq = self.queries.len() as f64;
        let mut times: Vec<f64> = passes.iter().map(|p| p.0).collect();
        times.sort_by(f64::total_cmp);
        let pass_s = median(&times);
        e.throughput_mb_s = mb(self.doc.len()) * nq / pass_s;
        e.peak_heap_bytes = median(&heaps);
        let ops: Vec<f64> = passes.iter().flat_map(|p| p.1.iter().copied()).collect();
        closed_loop_latency(&mut e, &ops, nq / pass_s);
        self.report = vec![format!(
            "batch: {:.1} MB document, {} queries, {} shared passes, {} chunk reads, \
             pass times (s): {}",
            mb(self.doc.len()),
            self.queries.len(),
            passes.len(),
            ops.len(),
            times
                .iter()
                .map(|t| format!("{t:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        )];
        Ok(e)
    }

    fn layers(&mut self, _plain: &E2e, tr: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let docs = Docs::one(&self.doc);
        layers::probe_all(&self.args, &self.queries, &docs, tr, out)
    }

    fn report(&self, out: &mut Vec<String>) {
        out.extend(self.report.iter().cloned());
    }
}
