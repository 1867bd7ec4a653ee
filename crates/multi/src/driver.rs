//! The blocking wrapper over [`MultiSession`]: batch options, per-query
//! outcomes and the batch report.

use crate::matcher::BatchPlan;
use crate::session::MultiSession;
use gcx_core::{CompiledQuery, EngineError, RunReport};
use gcx_xml::{XmlError, XmlErrorKind};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a shared-stream batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Execute signOff statements (dynamic buffer minimization) for
    /// every query. Disabling degrades each query to projection-only
    /// buffering.
    pub execute_signoffs: bool,
    /// Pretty-print each query's output with this indent.
    pub indent: Option<String>,
    /// Per-query buffer byte budget (None = unlimited). A query that
    /// crosses it fails with `BufferLimitExceeded`; the rest of the batch
    /// is unaffected (a query's failure never stops its peers).
    pub max_buffer_bytes: Option<u64>,
    /// Record buffer-lifecycle and VM-frame telemetry for every query;
    /// each per-query [`RunReport`] then carries an `obs` section
    /// (residency histograms, purge causes, live-bytes timeline).
    pub telemetry: bool,
    /// A DTD the shared input is promised to be valid against. Applied at
    /// the *merged matcher* only: per-query path pruning plus the
    /// descendant-reachability filter on the single shared scan. The
    /// per-query buffers get no sibling-order cutoffs (the standalone
    /// session's earliest-signOff analysis).
    pub schema: Option<Arc<gcx_schema::Dtd>>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            execute_signoffs: true,
            indent: None,
            max_buffer_bytes: None,
            telemetry: false,
            schema: None,
        }
    }
}

/// Outcome of one query of the batch.
#[derive(Debug)]
pub struct QueryRun {
    /// The query's serialized result (byte-identical to a standalone run).
    pub output: Vec<u8>,
    /// The query's run report, or the error that stopped it. `tokens` in
    /// the report counts the events this query *received* — its private
    /// share of the stream, end of input included.
    pub report: Result<RunReport, EngineError>,
}

/// Aggregate measurements of a shared pass.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in batch order.
    pub queries: Vec<QueryRun>,
    /// Structural tokens in the single shared scan.
    pub tokens: u64,
    /// Total per-query events fanned out (Σ over queries).
    pub fanout_events: u64,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Shared-work factor: structural-token work a per-query evaluation
    /// would have done (N scans) over the work actually done (one scan
    /// plus the fan-out events). Approaches N when the queries' projected
    /// streams are sparse; can drop below 1.0 for a single query whose
    /// fan-out duplicates most of the stream (the sharing overhead with
    /// nobody to share it).
    pub fn share_factor(&self) -> f64 {
        let n = self.queries.len() as f64;
        let would_have = n * self.tokens as f64;
        let actual = self.tokens as f64 + self.fanout_events as f64;
        if actual == 0.0 {
            1.0
        } else {
            would_have / actual
        }
    }

    /// Machine-readable form (hand-rolled JSON; no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 192 * self.queries.len());
        s.push_str(&format!(
            "{{\"tokens\":{},\"queries\":{},\"fanout_events\":{},\"share_factor\":{:.3},\
             \"elapsed_ms\":{:.3},\"per_query\":[",
            self.tokens,
            self.queries.len(),
            self.fanout_events,
            self.share_factor(),
            self.elapsed.as_secs_f64() * 1e3,
        ));
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match &q.report {
                Ok(r) => {
                    s.push_str(&format!(
                        "{{\"index\":{i},\"output_bytes\":{},\"report\":{}}}",
                        q.output.len(),
                        r.to_json()
                    ));
                }
                Err(e) => {
                    s.push_str(&format!(
                        "{{\"index\":{i},\"output_bytes\":{},\"error\":\"{}\"}}",
                        q.output.len(),
                        gcx_obs::json_escape(&e.to_string())
                    ));
                }
            }
        }
        s.push_str("]}");
        s
    }
}

/// The shared-stream evaluator: one parse, N queries.
#[derive(Debug, Default)]
pub struct SharedRun {
    opts: BatchOptions,
}

impl SharedRun {
    /// A driver with the given options.
    pub fn new(opts: BatchOptions) -> SharedRun {
        SharedRun { opts }
    }

    /// Evaluate `queries` over `input` in a single pass. Per-query
    /// failures are reported in the [`BatchReport`]; only input
    /// parse errors (which invalidate every query) fail the whole batch.
    pub fn run<R: Read>(
        &self,
        queries: &[CompiledQuery],
        input: R,
    ) -> Result<BatchReport, EngineError> {
        self.run_prepared(&self.prepare(queries), queries, input)
    }

    /// Compile the batch's shared artifacts (merged projection NFA,
    /// pre-interned symbol table, schema filter) once. Feeding the plan
    /// back to [`SharedRun::run_prepared`] makes every further run of
    /// the same batch compile nothing — the repeated-batch fast path.
    pub fn prepare(&self, queries: &[CompiledQuery]) -> BatchPlan {
        BatchPlan::new(queries, self.opts.schema.as_deref())
    }

    /// [`SharedRun::run`] against a prepared plan. `plan` must have been
    /// built (by [`SharedRun::prepare`] with the same schema option) from
    /// exactly this `queries` slice — same queries, same order; a plan
    /// from a different batch projects the wrong paths.
    pub fn run_prepared<R: Read>(
        &self,
        plan: &BatchPlan,
        queries: &[CompiledQuery],
        mut input: R,
    ) -> Result<BatchReport, EngineError> {
        let mut session = MultiSession::new(plan, queries, &self.opts);
        loop {
            // Read straight into the tokenizer window (no copy).
            let pos = session.position();
            let n = input.read(session.space(READ_CHUNK)).map_err(|e| {
                EngineError::Xml(XmlError {
                    kind: XmlErrorKind::Io(e),
                    pos,
                })
            })?;
            if n == 0 {
                return session.finish();
            }
            session.commit(n)?;
        }
    }
}

/// Bytes read from the source per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Evaluate a batch with default options.
pub fn run_batch<R: Read>(queries: &[CompiledQuery], input: R) -> Result<BatchReport, EngineError> {
    SharedRun::new(BatchOptions::default()).run(queries, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::EngineOptions;

    fn compile(texts: &[&str]) -> Vec<CompiledQuery> {
        texts
            .iter()
            .map(|t| CompiledQuery::compile(t).unwrap())
            .collect()
    }

    fn standalone(q: &CompiledQuery, doc: &str) -> Vec<u8> {
        let mut out = Vec::new();
        gcx_core::run(q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        out
    }

    const DOC: &str = "<bib><book><title>Streams</title><price>10</price></book>\
                       <article><title>Pipes</title></article></bib>";

    #[test]
    fn batch_matches_standalone_outputs() {
        let queries = compile(&[
            "<r>{ for $b in /bib/book return $b/title }</r>",
            "for $a in /bib/article return $a",
            "for $t in /bib/book/price return $t/text()",
            "'constant'",
        ]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        assert_eq!(report.queries.len(), 4);
        for (q, run) in queries.iter().zip(&report.queries) {
            let expected = standalone(q, DOC);
            assert_eq!(run.output, expected);
            let r = run.report.as_ref().unwrap();
            assert_eq!(r.buffer.live, 0, "query buffer must drain");
        }
        assert!(report.tokens > 0);
        assert!(report.share_factor() > 1.0, "4 queries must share the scan");
    }

    #[test]
    fn single_query_batch_works() {
        let queries = compile(&["for $b in /bib/book return $b/title"]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        assert_eq!(report.queries[0].output, standalone(&queries[0], DOC));
    }

    #[test]
    fn empty_batch_scans_input() {
        let report = run_batch(&[], DOC.as_bytes()).unwrap();
        assert!(report.queries.is_empty());
        assert_eq!(report.tokens, 15);
    }

    #[test]
    fn malformed_input_fails_the_batch() {
        let queries = compile(&["for $b in /bib/book return $b"]);
        let err = run_batch(&queries, "<bib><book></bib>".as_bytes());
        assert!(err.is_err(), "mismatched tags must fail the whole batch");
    }

    #[test]
    fn telemetry_flows_into_worker_reports() {
        let queries = compile(&["for $b in /bib/book return $b/title"]);
        let opts = BatchOptions {
            telemetry: true,
            ..BatchOptions::default()
        };
        let report = SharedRun::new(opts).run(&queries, DOC.as_bytes()).unwrap();
        let run = &report.queries[0];
        assert_eq!(run.output, standalone(&queries[0], DOC));
        let r = run.report.as_ref().unwrap();
        assert!(r.obs.is_some(), "telemetry must reach every query's report");
        assert!(report.to_json().contains("\"obs\""));
    }

    #[test]
    fn a_failing_query_does_not_stop_its_peers() {
        // Budget = the small query's standalone peak: it fits exactly,
        // while the query buffering whole books crosses it mid-stream.
        let doc = format!(
            "<bib><book><title>{}</title></book><article/><article/></bib>",
            "x".repeat(512)
        );
        let queries = compile(&["for $b in /bib/book return $b", "count(/bib/article)"]);
        let budget = {
            let mut out = Vec::new();
            gcx_core::run(&queries[1], &EngineOptions::gcx(), doc.as_bytes(), &mut out)
                .unwrap()
                .buffer
                .peak_live_bytes
        };
        let opts = BatchOptions {
            max_buffer_bytes: Some(budget),
            ..BatchOptions::default()
        };
        let report = SharedRun::new(opts).run(&queries, doc.as_bytes()).unwrap();
        let err = report.queries[0].report.as_ref().unwrap_err();
        assert!(
            matches!(err, EngineError::BufferLimitExceeded { .. }),
            "{err}"
        );
        let peer = &report.queries[1];
        assert_eq!(peer.output, standalone(&queries[1], &doc));
        assert_eq!(peer.report.as_ref().unwrap().buffer.peak_live_bytes, budget);
        assert!(report.to_json().contains("\"error\""));
    }

    #[test]
    fn json_report_shape() {
        let queries = compile(&["for $b in /bib/book return $b/title"]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"share_factor\""));
        assert!(json.contains("\"per_query\""));
    }
}
