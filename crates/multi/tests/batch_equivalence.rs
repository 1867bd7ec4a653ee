//! The acceptance bar of the shared-stream subsystem: a batch of distinct
//! XMark queries evaluated by `gcx-multi` in ONE pass must produce output
//! **byte-identical** to running each query standalone, while every
//! query's buffer drains (role/signOff balance is preserved through the
//! fan-out).

use gcx_core::{CompiledQuery, EngineOptions};
use gcx_multi::{run_batch, BatchOptions, SharedRun};
use gcx_xmark::{generate_string, queries, XmarkConfig};

/// Ten distinct XMark-adapted queries (the five Figure 5 queries plus the
/// extension set) and the aggregation extension — eleven total.
fn batch_texts() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<(&str, &str)> = queries::FIGURE5_QUERIES.to_vec();
    v.extend(queries::extra::ALL);
    v.push(("Q6_COUNT", queries::Q6_COUNT));
    v
}

fn compile_batch() -> Vec<CompiledQuery> {
    batch_texts()
        .iter()
        .map(|(name, text)| CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect()
}

fn standalone(q: &CompiledQuery, doc: &str) -> (Vec<u8>, gcx_core::RunReport) {
    let mut out = Vec::new();
    let report = gcx_core::run(q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
    (out, report)
}

#[test]
fn eleven_xmark_queries_byte_identical_to_standalone() {
    let doc = generate_string(&XmarkConfig::sized(128 * 1024));
    let queries = compile_batch();
    assert!(queries.len() >= 8, "acceptance requires a batch of >= 8");

    let report = run_batch(&queries, doc.as_bytes()).unwrap();
    assert_eq!(report.queries.len(), queries.len());

    for ((name, _), (q, run)) in batch_texts()
        .iter()
        .zip(queries.iter().zip(&report.queries))
    {
        let (expected, exp_report) = standalone(q, &doc);
        let got = run
            .report
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            run.output, expected,
            "{name}: shared-stream output differs from standalone"
        );
        assert_eq!(got.buffer.live, 0, "{name}: query buffer must drain");
        // Buffer minimality is preserved per query: the batch peak equals
        // the standalone GCX peak (same nodes, same roles, same signOff
        // execution), in nodes and in bytes.
        assert_eq!(
            got.buffer.peak_live, exp_report.buffer.peak_live,
            "{name}: shared-stream peak buffer differs from standalone GCX"
        );
        assert_eq!(
            got.buffer.peak_live_bytes, exp_report.buffer.peak_live_bytes,
            "{name}: shared-stream peak buffer bytes differ from standalone GCX"
        );
    }
    assert!(
        report.share_factor() > 2.0,
        "11 sparse queries must amortize the scan (got {:.2})",
        report.share_factor()
    );
}

#[test]
fn duplicate_queries_in_one_batch() {
    // The same query twice must produce the same bytes twice — tags keep
    // the copies fully independent.
    let doc = generate_string(&XmarkConfig::sized(16 * 1024));
    let q = CompiledQuery::compile(queries::Q20).unwrap();
    let batch = vec![q.clone(), q.clone()];
    let report = run_batch(&batch, doc.as_bytes()).unwrap();
    let expected = standalone(&q, &doc).0;
    assert_eq!(report.queries[0].output, expected);
    assert_eq!(report.queries[1].output, expected);
}

#[test]
fn join_query_in_a_batch() {
    // Q8's inner loop re-runs over a different document section per
    // person; its query-end signOff anchoring must survive the fan-out.
    let doc = generate_string(&XmarkConfig::sized(32 * 1024));
    let batch: Vec<CompiledQuery> = [queries::Q8, queries::Q1]
        .iter()
        .map(|t| CompiledQuery::compile(t).unwrap())
        .collect();
    let report = run_batch(&batch, doc.as_bytes()).unwrap();
    for (q, run) in batch.iter().zip(&report.queries) {
        assert_eq!(run.output, standalone(q, &doc).0);
        assert_eq!(run.report.as_ref().unwrap().buffer.live, 0);
    }
}

#[test]
fn prepared_plan_reuses_compilation_across_documents() {
    // The repeated-batch fast path: prepare the merged NFA + symbol
    // table once, then run several distinct documents through the same
    // plan. Every run must be byte-identical to the compile-per-run
    // path (and to standalone), including with a schema attached.
    let queries = compile_batch();
    let run = SharedRun::new(BatchOptions::default());
    let plan = run.prepare(&queries);
    assert_eq!(plan.n_queries(), queries.len());
    for (kb, seed) in [(16u64, 1u64), (48, 2), (96, 3)] {
        let mut cfg = XmarkConfig::sized(kb * 1024);
        cfg.seed = seed;
        let doc = generate_string(&cfg);
        let prepared = run.run_prepared(&plan, &queries, doc.as_bytes()).unwrap();
        let fresh = run.run(&queries, doc.as_bytes()).unwrap();
        for (i, ((name, _), p)) in batch_texts().iter().zip(&prepared.queries).enumerate() {
            let f = &fresh.queries[i];
            assert_eq!(
                p.output, f.output,
                "{name} @ {kb}KB: prepared-plan output differs from compile-per-run"
            );
            assert_eq!(p.output, standalone(&queries[i], &doc).0);
            assert_eq!(
                p.report.as_ref().unwrap().buffer.peak_live,
                f.report.as_ref().unwrap().buffer.peak_live,
                "{name}: prepared-plan buffer peak drifted"
            );
        }
        assert_eq!(prepared.tokens, fresh.tokens);
    }

    // Schema-aware plans share the pruned automaton + reach filter too.
    let schema_run = SharedRun::new(BatchOptions {
        schema: Some(gcx_schema::Dtd::xmark()),
        ..BatchOptions::default()
    });
    let plan = schema_run.prepare(&queries);
    let doc = generate_string(&XmarkConfig::sized(64 * 1024));
    let prepared = schema_run
        .run_prepared(&plan, &queries, doc.as_bytes())
        .unwrap();
    let fresh = schema_run.run(&queries, doc.as_bytes()).unwrap();
    for ((name, _), (p, f)) in batch_texts()
        .iter()
        .zip(prepared.queries.iter().zip(&fresh.queries))
    {
        assert_eq!(p.output, f.output, "{name}: schema prepared-plan differs");
    }
}
