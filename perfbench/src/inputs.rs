//! Seeded inputs and their references: XMark documents from `gcx-xmark`,
//! the paper queries, the `gcx-dom` oracle and the session runner every
//! workload shares.

use crate::trace::Tracer;
use gcx_core::{CompiledQuery, EngineError, EngineOptions, RunReport};
use gcx_dom::{Dom, DomId};
use gcx_xml::XmlWriter;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Bytes per `feed` call: chunks are borrowed slices of the in-memory
/// document.
pub const CHUNK: usize = 64 * 1024;

/// Document size of a run: the full benchmark or the seconds-long tiny
/// mode the benchmark's own tests use.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The `single`/`batch` document.
    pub big_bytes: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            big_bytes: 16 << 20,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            big_bytes: 256 << 10,
        }
    }
}

/// One XMark document of about `bytes` bytes. Equal seeds give
/// byte-identical documents; no DOCTYPE, like real xmlgen output.
pub fn xmark(bytes: u64, seed: u64) -> Vec<u8> {
    let mut cfg = gcx_xmark::XmarkConfig::sized(bytes);
    cfg.seed = seed;
    gcx_xmark::generate_string(&cfg).into_bytes()
}

/// A named, compiled query.
pub struct Query {
    pub name: &'static str,
    pub text: &'static str,
    pub compiled: CompiledQuery,
}

/// Compile the 11 paper queries, with a span around each compile.
pub fn compile_all(tr: &mut Tracer) -> Result<Vec<Query>, String> {
    gcx_xmark::queries::paper_queries()
        .into_iter()
        .map(|(name, text)| {
            let t0 = Instant::now();
            let compiled =
                CompiledQuery::compile(text).map_err(|e| format!("{name}: compile failed: {e}"))?;
            tr.record(0, "core.compile", "compile", t0, Instant::now());
            Ok(Query {
                name,
                text,
                compiled,
            })
        })
        .collect()
}

/// The peak buffer a run reached. A run stopped by its buffer budget
/// counts with the live bytes at the moment it tripped; any other failure
/// with 0 (the run is reported as failed either way).
pub fn peak_of(run: &Result<RunReport, EngineError>) -> u64 {
    match run {
        Ok(report) => report.buffer.peak_live_bytes,
        Err(EngineError::BufferLimitExceeded { used, .. }) => *used,
        Err(_) => 0,
    }
}

/// The `gcx-dom` oracle's output for `q` over `doc`.
pub fn dom_oracle(q: &Query, doc: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    gcx_dom::run(&q.compiled.query, doc, &mut out)
        .map_err(|e| format!("{}: oracle failed: {e}", q.name))?;
    Ok(out)
}

/// References for `queries` over `doc`, in query order: the `gcx-dom`
/// oracle's output for each, except Q8 (see [`q8_reference`]).
pub fn oracle_outputs(queries: &[Query], doc: &[u8], seed: u64) -> Result<Vec<Vec<u8>>, String> {
    queries
        .iter()
        .map(|q| {
            if q.text != gcx_xmark::queries::Q8 {
                return dom_oracle(q, doc);
            }
            // The hash-joined reference must agree with the plain
            // evaluator wherever the latter is affordable.
            let small = xmark(Sizes::tiny().big_bytes, seed);
            if q8_reference(&small)? != dom_oracle(q, &small)? {
                return Err("Q8 reference disagrees with the gcx-dom oracle".into());
            }
            q8_reference(doc)
        })
        .collect()
}

/// XMark Q8 (`$t/buyer/@person = $p/@id` for every person and closed
/// auction) over the `gcx-dom` tree, serialized by `Dom::serialize`.
///
/// The `gcx-dom` evaluator runs this value join as a nested loop, which
/// takes over a minute on the 16 MB document. This evaluates the same
/// existential comparison with a hash index: values that both parse as
/// numbers compare numerically, any other pair as text, so a key is either
/// the canonical number or the text.
pub fn q8_reference(doc: &[u8]) -> Result<Vec<u8>, String> {
    #[derive(PartialEq, Eq, Hash)]
    enum Key {
        Num(u64),
        Text(String),
    }
    fn key(v: &str) -> Option<Key> {
        match v.trim().parse::<f64>() {
            Ok(n) if n.is_nan() => None,
            Ok(n) => Some(Key::Num((n + 0.0).to_bits())),
            Err(_) => Some(Key::Text(v.to_string())),
        }
    }
    let dom = Dom::parse(doc).map_err(|e| format!("Q8 reference: {e}"))?;
    let kids = |ids: Vec<DomId>, name: &str| -> Vec<DomId> {
        ids.iter()
            .flat_map(|&id| dom.children(id).iter().copied())
            .filter(|&c| dom.name(c) == Some(name))
            .collect()
    };
    let site: Vec<DomId> = dom
        .roots
        .iter()
        .copied()
        .filter(|&r| dom.name(r) == Some("site"))
        .collect();
    let persons = kids(kids(site.clone(), "people"), "person");
    let auctions = kids(kids(site, "closed_auctions"), "closed_auction");
    let mut index: HashMap<Key, Vec<usize>> = HashMap::new();
    for (i, &t) in auctions.iter().enumerate() {
        for b in kids(vec![t], "buyer") {
            if let Some(k) = dom.attr(b, "person").and_then(key) {
                let list = index.entry(k).or_default();
                if list.last() != Some(&i) {
                    list.push(i);
                }
            }
        }
    }
    let mut w = XmlWriter::new(Vec::new());
    let err = |e: gcx_xml::XmlError| format!("Q8 reference: {e}");
    w.start_element("results").map_err(err)?;
    for p in persons {
        w.start_element("items").map_err(err)?;
        for n in kids(vec![p], "name") {
            dom.serialize(n, &mut w).map_err(err)?;
        }
        let mut hits: Vec<usize> = dom
            .attr(p, "id")
            .and_then(key)
            .and_then(|k| index.get(&k))
            .cloned()
            .unwrap_or_default();
        hits.sort_unstable();
        hits.dedup();
        for i in hits {
            for r in kids(vec![auctions[i]], "itemref") {
                dom.serialize(r, &mut w).map_err(err)?;
            }
        }
        w.end_element().map_err(err)?;
    }
    w.end_element().map_err(err)?;
    w.finish().map_err(err)
}

/// Where the time of one session went.
pub struct SessionRun {
    pub report: RunReport,
    pub open: Duration,
    pub feed: Duration,
    pub finish: Duration,
    pub total: Duration,
}

/// One standalone session over `doc`: open, feed `CHUNK`-byte borrowed
/// slices draining output after each, finish, drain. Output lands in
/// `out`; each feed/finish call's latency (ms) is appended to `ops_ms`.
pub fn run_session(
    q: &Query,
    opts: &EngineOptions,
    doc: &[u8],
    out: &mut Vec<u8>,
    ops_ms: &mut Vec<f64>,
    tr: &mut Tracer,
    parent: u64,
) -> Result<SessionRun, EngineError> {
    let sid = if tr.on() { tr.id() } else { 0 };
    let t0 = Instant::now();
    let mut s = q.compiled.session(opts);
    let opened = Instant::now();
    tr.record(sid, "core.session_open", "core", t0, opened);
    let mut prev = opened;
    for chunk in doc.chunks(CHUNK) {
        s.feed(chunk)?;
        s.take_output(out)?;
        let now = Instant::now();
        ops_ms.push(ms(now - prev));
        tr.record(sid, "core.feed", "core", prev, now);
        prev = now;
    }
    let fed = prev;
    let report = s.finish()?;
    s.take_output(out)?;
    let end = Instant::now();
    ops_ms.push(ms(end - fed));
    tr.record(sid, "core.finish", "core", fed, end);
    tr.record_as(sid, parent, "core.session", "core", 1, t0, end, None);
    Ok(SessionRun {
        report,
        open: opened - t0,
        feed: fed - opened,
        finish: end - fed,
        total: end - t0,
    })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
