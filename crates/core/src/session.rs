//! The sans-IO evaluation session: the push-driven public form of the
//! engine.
//!
//! GCX's defining property is that evaluation is driven by the *arrival*
//! of stream events, with buffers purged the instant active-rule signoffs
//! allow. [`EvalSession`] is that property as an API: the caller owns all
//! I/O and pushes document bytes in with [`EvalSession::feed`] whenever
//! they happen to arrive — from a socket, a file, a test vector — and the
//! session advances tokenization, projection and evaluation exactly as far
//! as the bytes allow, suspending at any byte boundary (mid-tag, mid-UTF-8
//! sequence, mid-CDATA). Query output accumulates in a caller-drainable
//! buffer ([`EvalSession::output`] / [`EvalSession::take_output`]); the
//! engine never touches `Read` or `Write` internally.
//!
//! One `feed` call interleaves the three stages at the same granularity as
//! the blocking engine — evaluator runs until it blocks, one token is
//! applied, evaluator resumes — so outputs *and buffer peaks* are
//! bit-identical to [`run`](crate::run) regardless of how the input is
//! chunked (pinned by the `chunk_splits` differential suite).
//!
//! ```
//! use gcx_core::{CompiledQuery, EngineOptions};
//!
//! let q = CompiledQuery::compile(
//!     "<books>{ for $b in /bib/book return $b/title }</books>",
//! ).unwrap();
//! let mut session = q.session(&EngineOptions::gcx());
//!
//! // Bytes arrive in arbitrary chunks — here, split mid-tag.
//! let doc = b"<bib><book><title>Streams</title><price>10</price></book></bib>";
//! let (a, b) = doc.split_at(17);
//! let emitted = session.feed(a).unwrap();
//! assert!(!emitted.done, "mid-document: evaluation is suspended");
//! session.feed(b).unwrap();
//!
//! let report = session.finish().unwrap();
//! let mut out = Vec::new();
//! session.take_output(&mut out).unwrap();
//! assert_eq!(out, b"<books><title>Streams</title></books>");
//! assert_eq!(report.buffer.live, 0); // the buffer drained completely
//! assert_eq!(report.feed_calls, 2);
//! ```

use crate::buffer::BufferTree;
use crate::engine::{CompiledQuery, EngineOptions, RunReport};
use crate::error::EngineError;
use crate::eval::{Vm, VmStatus};
use crate::obs::FeedSpan;
use crate::stream::Projector;
use gcx_projection::StreamMatcher;
use gcx_xml::{
    PushTokenizer, SymbolTable, TextPos, TokenStep, WriterOptions, XmlError, XmlErrorKind,
    XmlWriter,
};
use std::io::Write;
use std::sync::Arc;

/// What one [`EvalSession::feed`] (or [`EvalSession::finish`]) call
/// produced.
#[derive(Debug, Clone, Copy)]
pub struct Emitted {
    /// Output bytes currently pending in the session's buffer (including
    /// bytes emitted by earlier calls and not yet drained).
    pub output_bytes: usize,
    /// The program ran to completion: no further output will be produced;
    /// remaining input only gets scanned/validated (when draining is on).
    pub done: bool,
}

/// Outcome of applying stream events from the tokenizer window.
enum Pumped {
    /// One token was applied to the buffer.
    Applied,
    /// The window ends mid-token: feed more bytes.
    Starved,
    /// End of input reached (virtual root closed).
    Eof,
}

/// One query's evaluation state: its buffer (with active garbage
/// collection), the resumable VM and the output writer — everything of a
/// run except the stream side that fills the buffer.
///
/// [`EvalSession`] pairs one unit with its own tokenizer and
/// [`Projector`]; the shared-stream batch (`gcx-multi`) drives one unit
/// per query from a single tokenizer and merged matcher. Either driver
/// appends stream events to [`EvalUnit::buffer_mut`] and resumes the VM
/// at the same points: once before the first event, after each applied
/// event that satisfies the recorded wait ([`EvalUnit::wait_satisfied`]),
/// and to completion once the input is exhausted. That shared protocol is
/// what keeps outputs and buffer peaks identical across the two.
pub struct EvalUnit {
    vm: Vm,
    buf: BufferTree,
    symbols: SymbolTable,
    out: XmlWriter<Vec<u8>>,
    done: bool,
}

impl EvalUnit {
    /// A fresh unit for `q`. Honours the buffer-side options (`purge`,
    /// `execute_signoffs`, `max_buffer_bytes`, `indent`, `telemetry`);
    /// projection and schema options belong to the stream side.
    pub fn new(q: &CompiledQuery, opts: &EngineOptions) -> EvalUnit {
        let mut buf = BufferTree::new(opts.purge);
        buf.set_max_bytes(opts.max_buffer_bytes);
        let mut vm = Vm::new(Arc::clone(&q.program), opts.execute_signoffs);
        if opts.telemetry {
            buf.enable_telemetry(crate::obs::DEFAULT_TIMELINE_EVERY);
            vm.enable_timing();
        }
        EvalUnit {
            vm,
            buf,
            // The once-at-startup symbol handshake: cloning the program's
            // pre-interned table maps every query symbol into the run's
            // table; document names are interned on top as they arrive.
            symbols: q.program.symbols().clone(),
            out: XmlWriter::with_options(
                Vec::new(),
                WriterOptions {
                    indent: opts.indent.clone(),
                },
            ),
            done: false,
        }
    }

    /// Run the VM until it suspends on missing input or completes;
    /// returns whether the program is done. A no-op once done.
    #[inline]
    pub fn resume(&mut self) -> Result<bool, EngineError> {
        if !self.done {
            let status = self
                .vm
                .resume(&mut self.buf, &self.symbols, &mut self.out)?;
            self.done = matches!(status, VmStatus::Done);
        }
        Ok(self.done)
    }

    /// Would resuming now let the suspended VM make progress? False
    /// while the recorded wait is unsatisfied: resuming then would be a
    /// provable no-op.
    #[inline]
    pub fn wait_satisfied(&self) -> bool {
        self.vm.wait_satisfied(&self.buf)
    }

    /// Declare the input exhausted. The caller closes the virtual root
    /// first; the next [`EvalUnit::resume`] then runs to completion.
    pub fn set_input_exhausted(&mut self) {
        self.vm.set_input_exhausted();
    }

    /// The program ran to completion.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The unit's buffer.
    pub fn buffer(&self) -> &BufferTree {
        &self.buf
    }

    /// The unit's buffer, for appending stream events.
    pub fn buffer_mut(&mut self) -> &mut BufferTree {
        &mut self.buf
    }

    /// The unit's symbol table (the program's symbols plus document
    /// names interned so far), for interning names of appended events.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Borrowed view of the output bytes pending in the unit.
    pub fn output(&self) -> &[u8] {
        self.out.get_ref()
    }

    /// Move all pending output out of the unit.
    pub fn take_output_vec(&mut self) -> Vec<u8> {
        std::mem::take(self.out.get_mut())
    }

    /// Drain pending output into `sink`; returns the bytes written. On a
    /// sink error, the bytes that *were* written are removed from the
    /// pending buffer before the error returns, so a retry never emits a
    /// byte twice.
    pub fn take_output<W: Write>(&mut self, sink: &mut W) -> Result<usize, EngineError> {
        let pending = self.out.get_mut();
        let total = pending.len();
        let mut off = 0;
        while off < pending.len() {
            match sink.write(&pending[off..]) {
                Ok(0) => {
                    pending.drain(..off);
                    return Err(EngineError::Xml(XmlError {
                        kind: XmlErrorKind::Io(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "output sink accepted no bytes",
                        )),
                        pos: TextPos::START,
                    }));
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    pending.drain(..off);
                    return Err(EngineError::Xml(XmlError {
                        kind: XmlErrorKind::Io(e),
                        pos: TextPos::START,
                    }));
                }
            }
        }
        pending.clear();
        Ok(total)
    }

    /// Flush the writer and assemble the unit's share of the run report.
    /// `tokens` is the stream side's count; the stream-only fields
    /// (`timeline`, `feed_calls`, `max_pending_bytes`, `schema`) are left
    /// empty for the caller to fill. Telemetry, when on, carries the given
    /// feed spans and tokenizer window peak.
    pub fn report(
        &mut self,
        tokens: u64,
        feed_spans: Vec<FeedSpan>,
        tokenizer_window_peak: u64,
    ) -> Result<RunReport, EngineError> {
        self.out.flush()?;
        let obs = self
            .buf
            .take_telemetry()
            .map(|tel| tel.into_report(self.vm.take_task_obs(), feed_spans, tokenizer_window_peak));
        Ok(RunReport {
            tokens,
            buffer: self.buf.stats(),
            timeline: None,
            output_bytes: self.out.bytes_written(),
            max_buffer_bytes: self.buf.max_bytes(),
            feed_calls: 0,
            max_pending_bytes: 0,
            obs,
            schema: None,
        })
    }
}

/// A resumable, push-driven evaluation of one compiled query over one
/// document. Create with [`CompiledQuery::session`]; see the
/// [module docs](self) for the protocol.
///
/// The session is the engine core with the I/O inverted: internally it
/// owns the incremental tokenizer, the projection state machine and one
/// [`EvalUnit`] (the buffer with active garbage collection, and the
/// resumable evaluator) — all suspended together between `feed` calls,
/// holding exactly the GCX buffer plus the current partial token.
pub struct EvalSession {
    unit: EvalUnit,
    tok: PushTokenizer,
    proj: Projector,
    drain_input: bool,
    finished: bool,
    feed_calls: u64,
    max_pending_bytes: u64,
    /// Telemetry enabled: record a [`FeedSpan`] per feed/commit call.
    telemetry: bool,
    feed_spans: Vec<FeedSpan>,
    /// `(pruned, total)` projection-path counts when an explicit schema
    /// pruned the matcher (None without one).
    pruned_paths: Option<(u32, u32)>,
}

impl EvalSession {
    pub(crate) fn new(q: &CompiledQuery, opts: &EngineOptions) -> EvalSession {
        let mut unit = EvalUnit::new(q, opts);
        // The projection NFA was compiled with the query; the per-run
        // matcher only instantiates mutable frame state over the shared
        // paths. Root roles (the paper's r1) are not materialized: the
        // virtual root is never purged, so its bookkeeping would be inert.
        // With a schema: drop DTD-unsatisfiable paths, arm the matcher's
        // descendant-reachability filter, and install sibling-order
        // cutoffs in the buffer. The schema analyses intern their DTD
        // names into the unit's table before any document bytes arrive,
        // so stream and analyses agree on symbols.
        let (matcher, _root_roles, pruned_paths) = match &opts.schema {
            Some(dtd) => {
                let symbols = &mut unit.symbols;
                let prune = dtd.prune(q.program.matcher_paths(), symbols);
                let reach = Arc::new(dtd.reach_filter(symbols));
                let (m, r) = StreamMatcher::with_reach(&prune.paths, Some(reach));
                unit.buf.set_schema(dtd.ord_table(symbols), false);
                (m, r, Some((prune.pruned.len() as u32, prune.total as u32)))
            }
            None => {
                let (m, r) = StreamMatcher::new(q.program.matcher_paths());
                (m, r, None)
            }
        };
        let mut proj = Projector::new(matcher, opts.project, opts.timeline_every);
        proj.set_doctype_adoption(opts.schema.is_none() && opts.schema_from_doctype);
        EvalSession {
            unit,
            tok: PushTokenizer::new(),
            proj,
            drain_input: opts.drain_input,
            finished: false,
            feed_calls: 0,
            max_pending_bytes: 0,
            telemetry: opts.telemetry,
            feed_spans: Vec::new(),
            pruned_paths,
        }
    }

    /// Push one chunk of document bytes and advance evaluation as far as
    /// they allow. Any amount is fine, including empty; the session
    /// carries partial-token spillover across calls internally.
    ///
    /// Output produced by this call is buffered — read it with
    /// [`EvalSession::output`] or drain it with
    /// [`EvalSession::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Emitted, EngineError> {
        if self.finished {
            return Err(EngineError::Internal(
                "EvalSession::feed after finish".into(),
            ));
        }
        if !self.wants_input() {
            // The program completed and draining is off: the rest of the
            // document is irrelevant. Accepting (and buffering) it would
            // grow memory without bound, so it is dropped (and not
            // counted — the bytes never entered the run). The blocking
            // engine likewise stops reading at this point.
            return Ok(self.emitted());
        }
        self.feed_calls += 1;
        self.tok.feed(chunk);
        self.pump_spanned(chunk.len())
    }

    /// Zero-copy variant of [`EvalSession::feed`]: borrow at least `min`
    /// writable bytes of the tokenizer window to read input into directly
    /// (e.g. straight from a socket), then [`EvalSession::commit`] however
    /// many arrived. Invalidates pending borrowed state like `feed` does.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.tok.space(min)
    }

    /// Declare `n` bytes of [`EvalSession::space`] filled and advance
    /// evaluation, exactly like [`EvalSession::feed`] on that slice.
    /// Callers should stop filling once [`EvalSession::wants_input`] turns
    /// false — committed-but-irrelevant bytes stay buffered.
    pub fn commit(&mut self, n: usize) -> Result<Emitted, EngineError> {
        if self.finished {
            return Err(EngineError::Internal(
                "EvalSession::commit after finish".into(),
            ));
        }
        self.feed_calls += 1;
        self.tok.commit(n);
        self.pump_spanned(n)
    }

    /// False once further input can have no effect: the program completed
    /// and end-of-input draining/validation is disabled. [`EvalSession::feed`]
    /// drops chunks from then on; callers owning the byte source can stop
    /// reading it (the [`run`](crate::run) wrapper does).
    pub fn wants_input(&self) -> bool {
        !self.unit.is_done() || self.drain_input
    }

    /// Declare the end of input and run evaluation to completion,
    /// returning the run's measurements. Fails with the same errors the
    /// blocking engine would (malformed XML, truncated document, buffer
    /// budget). Pending output remains drainable afterwards.
    pub fn finish(&mut self) -> Result<RunReport, EngineError> {
        if self.finished {
            return Err(EngineError::Internal(
                "EvalSession::finish called twice".into(),
            ));
        }
        self.tok.finish_input();
        let emitted = self.pump()?;
        debug_assert!(emitted.done, "EOF pump must complete the program");
        self.finished = true;
        // A schema was in effect when the matcher was schema-built
        // (explicit) or the buffer adopted a DOCTYPE's order table.
        let buf = &self.unit.buf;
        let schema = if self.pruned_paths.is_some() || buf.schema_active() {
            let (early_scan_ends, early_signoffs, doctype_adopted) = buf.schema_counters();
            let (pruned, total) = self.pruned_paths.unwrap_or((0, 0));
            Some(crate::engine::SchemaReport {
                pruned_paths: pruned,
                total_paths: total,
                reach_cuts: self.proj.reach_cuts(),
                early_scan_ends,
                early_signoffs,
                doctype_adopted,
            })
        } else {
            None
        };
        let report = self.unit.report(
            self.proj.tokens(),
            std::mem::take(&mut self.feed_spans),
            self.tok.window_peak(),
        )?;
        Ok(RunReport {
            timeline: self.proj.take_timeline(),
            feed_calls: self.feed_calls,
            max_pending_bytes: self.max_pending_bytes,
            schema,
            ..report
        })
    }

    /// Borrowed view of the output bytes pending in the session.
    pub fn output(&self) -> &[u8] {
        self.unit.output()
    }

    /// Drain pending output into `sink`; returns the bytes written.
    /// Callers stream results while the document is still arriving by
    /// interleaving this with [`EvalSession::feed`].
    ///
    /// On a sink error, the bytes that *were* written are removed from
    /// the pending buffer before the error returns, so retrying (on the
    /// same or a replacement sink) never emits a byte twice.
    pub fn take_output<W: Write>(&mut self, sink: &mut W) -> Result<usize, EngineError> {
        self.unit.take_output(sink)
    }

    /// `feed` calls so far.
    pub fn feed_calls(&self) -> u64 {
        self.feed_calls
    }

    /// Largest partial-token spillover held across a `feed` boundary so
    /// far (see [`RunReport::max_pending_bytes`]).
    pub fn max_pending_bytes(&self) -> u64 {
        self.max_pending_bytes
    }

    /// Input position of the next byte to be tokenized (line/column for
    /// error reporting).
    pub fn position(&self) -> TextPos {
        self.tok.position()
    }

    /// Wrap an input-side I/O failure the way the blocking engine's
    /// tokenizer would have reported it, carrying the current position.
    pub fn input_io_error(&self, e: std::io::Error) -> EngineError {
        EngineError::Xml(XmlError {
            kind: XmlErrorKind::Io(e),
            pos: self.tok.position(),
        })
    }

    /// [`EvalSession::pump`] wrapped in a [`FeedSpan`] when telemetry is
    /// on: when the chunk arrived, how long consuming it took, and its
    /// size — the raw material of the Chrome-trace feed track.
    fn pump_spanned(&mut self, bytes: usize) -> Result<Emitted, EngineError> {
        if !self.telemetry {
            return self.pump();
        }
        let start = gcx_obs::now_micros();
        let result = self.pump();
        self.feed_spans.push(FeedSpan {
            start_us: start,
            dur_us: gcx_obs::now_micros().saturating_sub(start),
            bytes: bytes as u64,
        });
        result
    }

    /// Drive the machine as far as the buffered bytes allow. Keeps the
    /// blocking engine's exact interleaving — evaluator to suspension,
    /// tokens until the machine's recorded wait is satisfiable, evaluator
    /// again — so buffer peaks are bit-identical however the input was
    /// chunked (resuming while the wait is unsatisfied would be a provable
    /// no-op; see [`EvalUnit::wait_satisfied`]).
    fn pump(&mut self) -> Result<Emitted, EngineError> {
        loop {
            if !self.unit.is_done() {
                if self.unit.resume()? {
                    continue;
                }
                loop {
                    match self.apply_next()? {
                        Pumped::Applied => {
                            if self.unit.wait_satisfied() {
                                break;
                            }
                        }
                        Pumped::Starved => return Ok(self.emitted()),
                        Pumped::Eof => {
                            self.unit.set_input_exhausted();
                            break;
                        }
                    }
                }
            } else {
                if !self.drain_input {
                    return Ok(self.emitted());
                }
                match self.apply_next()? {
                    Pumped::Applied => {}
                    Pumped::Starved | Pumped::Eof => return Ok(self.emitted()),
                }
            }
        }
    }

    /// Apply one stream event from the tokenizer window to the buffer.
    fn apply_next(&mut self) -> Result<Pumped, EngineError> {
        match self.tok.step()? {
            TokenStep::Token => {
                let token = self.tok.token();
                self.proj
                    .apply(&token, &mut self.unit.buf, &mut self.unit.symbols);
                self.unit.buf.check_limit()?;
                Ok(Pumped::Applied)
            }
            TokenStep::NeedMoreData => {
                self.max_pending_bytes =
                    self.max_pending_bytes.max(self.tok.pending_bytes() as u64);
                Ok(Pumped::Starved)
            }
            TokenStep::End => {
                if !self.proj.finished() {
                    self.proj.finish(&mut self.unit.buf);
                }
                Ok(Pumped::Eof)
            }
        }
    }

    fn emitted(&self) -> Emitted {
        Emitted {
            output_bytes: self.unit.output().len(),
            done: self.unit.is_done(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;

    const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
    const DOC: &str = "<bib><book><title>T1</title><price>9</price></book>\
                       <article><title>skip</title></article>\
                       <book><title>T2</title></book></bib>";

    fn single_shot(query: &str, doc: &str) -> (Vec<u8>, RunReport) {
        let q = CompiledQuery::compile(query).unwrap();
        let mut out = Vec::new();
        let report = run(&q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        (out, report)
    }

    /// Feed `doc` in `chunk`-byte pieces; return (output, report).
    fn chunked(query: &str, doc: &str, chunk: usize) -> (Vec<u8>, RunReport) {
        let q = CompiledQuery::compile(query).unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        for piece in doc.as_bytes().chunks(chunk.max(1)) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        let mut out = Vec::new();
        session.take_output(&mut out).unwrap();
        (out, report)
    }

    #[test]
    fn chunking_matches_single_shot_bit_for_bit() {
        let (want_out, want_report) = single_shot(QUERY, DOC);
        for chunk in [1, 2, 3, 7, 16, DOC.len()] {
            let (out, report) = chunked(QUERY, DOC, chunk);
            assert_eq!(out, want_out, "chunk size {chunk}");
            assert_eq!(report.tokens, want_report.tokens, "chunk size {chunk}");
            assert_eq!(
                report.buffer.peak_live, want_report.buffer.peak_live,
                "chunk size {chunk}"
            );
            assert_eq!(
                report.buffer.peak_live_bytes, want_report.buffer.peak_live_bytes,
                "chunk size {chunk}"
            );
            assert_eq!(report.buffer.live, 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn telemetry_reports_buffer_lifecycle_without_changing_results() {
        let (want_out, want_report) = single_shot(QUERY, DOC);
        let q = CompiledQuery::compile(QUERY).unwrap();
        let mut session = q.session(&EngineOptions::gcx().with_telemetry());
        for piece in DOC.as_bytes().chunks(7) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        let mut out = Vec::new();
        session.take_output(&mut out).unwrap();
        // Telemetry must be pure observation: outputs and buffer peaks
        // stay bit-identical to the untraced run.
        assert_eq!(out, want_out);
        assert_eq!(
            report.buffer.peak_live_bytes,
            want_report.buffer.peak_live_bytes
        );
        assert_eq!(report.buffer.purged, want_report.buffer.purged);
        let obs = report.obs.as_ref().expect("telemetry enabled");
        assert_eq!(
            obs.residency_tokens.count(),
            report.buffer.purged,
            "one residency observation per purged node"
        );
        assert_eq!(obs.purged_node_bytes.count(), report.buffer.purged);
        assert!(obs.purged_node_bytes.sum() > 0);
        assert!(obs.purges_on_signoff + obs.purges_on_close + obs.purges_on_unpin > 0);
        assert!(!obs.roles.is_empty(), "role lifecycle recorded");
        assert!(obs.roles.iter().any(|r| r.signoffs > 0));
        assert!(!obs.tasks.is_empty(), "frame timing recorded");
        assert_eq!(obs.feed_spans.len() as u64, report.feed_calls);
        assert!(obs.tokenizer_window_peak > 0);
        assert!(!obs.live_bytes_timeline.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"obs\":{\"residency_tokens\""), "{json}");
        // Telemetry off: the report carries no obs section.
        assert!(want_report.obs.is_none());
        assert!(!want_report.to_json().contains("\"obs\""));
    }

    #[test]
    fn output_streams_while_document_arrives() {
        let q = CompiledQuery::compile("for $b in /bib/book return $b/title").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session
            .feed(b"<bib><book><title>early</title></book>")
            .unwrap();
        // The first result is available before the document ends.
        let mut streamed = Vec::new();
        session.take_output(&mut streamed).unwrap();
        assert_eq!(streamed, b"<title>early</title>");
        session
            .feed(b"<book><title>late</title></book></bib>")
            .unwrap();
        session.finish().unwrap();
        session.take_output(&mut streamed).unwrap();
        assert_eq!(
            streamed,
            b"<title>early</title><title>late</title>".as_slice()
        );
    }

    #[test]
    fn emitted_reports_completion() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        // A constant query completes as soon as the root closes.
        let emitted = session.feed(b"<doc/>").unwrap();
        assert!(emitted.done);
        assert_eq!(emitted.output_bytes, 1);
        let report = session.finish().unwrap();
        assert_eq!(report.output_bytes, 1);
    }

    #[test]
    fn spillover_is_observable() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<a><b att").unwrap(); // suspended mid-tag
        assert_eq!(session.max_pending_bytes(), 6, "`<b att` spills");
        session.feed(b"r=\"1\"/></a>").unwrap();
        let report = session.finish().unwrap();
        assert_eq!(report.max_pending_bytes, 6);
        assert_eq!(report.feed_calls, 2);
    }

    #[test]
    fn malformed_input_fails_like_the_blocking_engine() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<a><b></b>").unwrap();
        // Truncated document: the error surfaces at finish.
        let err = session.finish().unwrap_err();
        assert!(matches!(err, EngineError::Xml(_)), "{err}");
    }

    #[test]
    fn without_drain_ignores_input_after_completion() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx().without_drain());
        // A constant query completes without touching the input at all.
        let emitted = session.feed(b"<doc>").unwrap();
        assert!(emitted.done);
        assert!(!session.wants_input(), "drain off: input is now irrelevant");
        // Further chunks are dropped, not buffered: spillover stays zero
        // however much arrives.
        for _ in 0..64 {
            session.feed(&[b'z'; 1024]).unwrap();
        }
        assert_eq!(session.max_pending_bytes(), 0);
        let report = session.finish().unwrap();
        assert_eq!(report.output_bytes, 1);
    }

    #[test]
    fn run_without_drain_leaves_remaining_input_unread() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut doc = b"<doc/>".to_vec();
        doc.extend(std::iter::repeat_n(b' ', 1 << 20)); // a long tail
        let mut reader = std::io::Cursor::new(doc);
        let mut out = Vec::new();
        run(
            &q,
            &EngineOptions::gcx().without_drain(),
            &mut reader,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, b"x");
        assert!(
            (reader.position() as usize) < (1 << 20),
            "the tail must stay unread, like the pull engine ({} read)",
            reader.position()
        );
    }

    #[test]
    fn take_output_never_duplicates_bytes_across_a_failed_sink() {
        use std::io::Write;

        /// Accepts `budget` bytes, then fails every write.
        struct Flaky {
            got: Vec<u8>,
            budget: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::other("sink broke"));
                }
                let n = buf.len().min(self.budget);
                self.got.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let q = CompiledQuery::compile("for $t in /b/t return $t").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<b><t>hello world</t></b>").unwrap();
        session.finish().unwrap();
        let want = session.output().to_vec();
        assert!(!want.is_empty());

        let mut sink = Flaky {
            got: Vec::new(),
            budget: 5,
        };
        assert!(session.take_output(&mut sink).is_err());
        // Retry on a healthy sink: the already-delivered prefix must not
        // be re-sent.
        let mut rest = Vec::new();
        session.take_output(&mut rest).unwrap();
        let mut combined = sink.got;
        combined.extend_from_slice(&rest);
        assert_eq!(combined, want);
    }

    #[test]
    fn feed_after_finish_is_an_error() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<doc/>").unwrap();
        session.finish().unwrap();
        assert!(session.feed(b"more").is_err());
    }

    #[test]
    fn buffer_budget_trips_mid_feed() {
        let q = CompiledQuery::compile("for $x in /a/b return $x").unwrap();
        // Full buffering accumulates every node, so the budget must trip.
        let opts = EngineOptions::full_buffering().with_max_buffer_bytes(64);
        let mut session = q.session(&opts);
        let mut doc = String::from("<a>");
        for i in 0..64 {
            doc.push_str(&format!("<b>payload payload {i}</b>"));
        }
        doc.push_str("</a>");
        let mut failed = false;
        for piece in doc.as_bytes().chunks(16) {
            if session.feed(piece).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "the byte budget must trip during feeding");
    }
}
