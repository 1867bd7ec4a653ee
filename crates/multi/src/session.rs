//! The shared-stream session: one tokenizer pass, N query evaluations,
//! one thread, no I/O.
//!
//! ## Data flow
//!
//! [`MultiSession`] owns the push tokenizer and the [`MergedMatcher`]. For
//! every structural token it makes the merged keep/skip decision once,
//! then pushes each query's share of it — keep or skip, role instances,
//! document ordinals — straight into that query's [`EvalUnit`] (buffer,
//! resumable VM, output writer). A query's VM resumes exactly where a
//! standalone [`EvalSession`](gcx_core::EvalSession) would resume it:
//! after an applied event that satisfies its recorded wait, and to
//! completion at end of input. Each query's buffer, role multiset and
//! signOff execution are untouched by the sharing, so per-query outputs
//! and buffer peaks equal the standalone ones.
//!
//! ## Skip bookkeeping
//!
//! Three nested notions of "not interested" exist:
//!
//! * merged skip (`merged_skip > 0`): *no* query can match inside — the
//!   subtree is scanned with a depth counter and zero per-query work
//!   (its end tags never reach per-query state);
//! * per-query skip (`Lane::skip_depth > 0`): some other query keeps the
//!   element, this one doesn't. The subtree stays invisible to this query,
//!   but start/end tags inside it (processed for the queries that *do*
//!   keep it) must balance the counter;
//! * settled (`Lane::unit == None`): the query failed (its error is
//!   recorded and its state dropped; peers are unaffected) or finished.
//!
//! ## Names
//!
//! Tokens are interned once, into the batch's merged symbol table. Each
//! query maps merged symbols to its own symbol space through a lazily
//! filled table, so a name is interned into a query's table once per run,
//! not once per event.
//!
//! ## End of input
//!
//! Every live query gets its virtual root closed, then the queries finish
//! one at a time in ascending order of live buffer bytes (batch order
//! breaks ties), and each query's buffer and VM are dropped as soon as it
//! has finished. Completion can allocate transiently (a join's final
//! probe, say); finishing the largest buffer last means that allocation
//! happens after every smaller query's state has been freed.

use crate::driver::{BatchOptions, BatchReport, QueryRun};
use crate::matcher::{BatchPlan, MergedMatcher};
use gcx_core::buffer::{AttrBuf, NodeId, Ordinals};
use gcx_core::{ChildCounters, CompiledQuery, EngineError, EngineOptions, EvalUnit};
use gcx_query::ast::RoleId;
use gcx_xml::{PushTokenizer, StartTag, Symbol, SymbolTable, TextPos, Token, TokenStep};
use std::time::Instant;

/// A name-table entry not filled yet.
const UNMAPPED: Symbol = Symbol(u32::MAX);

/// One element a query keeps and has not closed yet.
struct Frame {
    node: NodeId,
    /// Ordinal counters for the element's children.
    counters: ChildCounters,
}

/// One query of the batch: its evaluation unit plus the per-query side of
/// the projection (skip depth, open elements, ordinals, names).
struct Lane {
    /// `None` once the query has settled (failed or finished).
    unit: Option<EvalUnit>,
    /// Depth inside a subtree this query skipped while some other query
    /// keeps it (0 = in this query's kept region).
    skip_depth: u32,
    /// Open kept elements, virtual root at the bottom — the standalone
    /// projector's open stack.
    open: Vec<Frame>,
    /// Recycled counters of closed elements (no allocation per element).
    counter_pool: Vec<ChildCounters>,
    /// Merged symbol index → this query's symbol ([`UNMAPPED`] until the
    /// name first reaches the query).
    names: Vec<Symbol>,
    /// Events applied to this query (its `RunReport::tokens`).
    events: u64,
    /// Attribute scratch for appends. Per query, not shared: appending
    /// swaps it with a buffer from this query's attribute pool, and a
    /// shared scratch would carry pooled capacity from one query's
    /// buffer into another's (measured: about 1 MB more heap at the batch
    /// peak over the 16 MiB benchmark document).
    attr_scratch: AttrBuf,
    /// The query's outcome once settled.
    outcome: Option<QueryRun>,
}

impl Lane {
    fn new(q: &CompiledQuery, opts: &EngineOptions) -> Lane {
        let mut lane = Lane {
            unit: Some(EvalUnit::new(q, opts)),
            skip_depth: 0,
            open: vec![Frame {
                node: NodeId::ROOT,
                counters: ChildCounters::new(),
            }],
            counter_pool: Vec::new(),
            names: Vec::new(),
            events: 0,
            attr_scratch: AttrBuf::new(),
            outcome: None,
        };
        // The VM runs once before the first event, as in a session.
        if let Err(e) = lane.live().resume() {
            lane.settle(Err(e));
        }
        lane
    }

    fn is_live(&self) -> bool {
        self.unit.is_some()
    }

    fn live(&mut self) -> &mut EvalUnit {
        self.unit.as_mut().expect("events reach live queries only")
    }

    /// Ordinal counters of the innermost open kept element.
    fn top(&mut self) -> &mut ChildCounters {
        &mut self
            .open
            .last_mut()
            .expect("root frame never pops")
            .counters
    }

    /// This query's symbol for merged symbol `merged`.
    fn local(&mut self, merged: Symbol, symbols: &SymbolTable) -> Symbol {
        let i = merged.index();
        if i >= self.names.len() {
            self.names.resize(i + 1, UNMAPPED);
        }
        if self.names[i] == UNMAPPED {
            let name = symbols.resolve(merged);
            self.names[i] = self.unit.as_mut().expect("live").symbols_mut().intern(name);
        }
        self.names[i]
    }

    /// Append a kept element (and close it at once when self-closing).
    fn start(
        &mut self,
        name: Symbol,
        start: &StartTag<'_>,
        attr_names: &[Symbol],
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
        symbols: &SymbolTable,
    ) {
        let name = self.local(name, symbols);
        self.attr_scratch.clear();
        for (&attr, a) in attr_names.iter().zip(start.attrs.iter()) {
            let attr = self.local(attr, symbols);
            self.attr_scratch.push(attr, a.value);
        }
        let parent = self.open.last().expect("root frame never pops").node;
        let buf = self.unit.as_mut().expect("live").buffer_mut();
        let id =
            buf.append_element_with_attrs(parent, name, &mut self.attr_scratch, roles, ordinals);
        if start.self_closing {
            buf.close(id);
        } else {
            let counters = self.counter_pool.pop().unwrap_or_default();
            self.open.push(Frame { node: id, counters });
        }
        self.applied();
    }

    /// Close the innermost kept element.
    fn end(&mut self) {
        let mut frame = self.open.pop().expect("end tag of a kept element");
        debug_assert!(
            frame.node != NodeId::ROOT,
            "end tag closed the virtual root"
        );
        frame.counters.clear();
        self.counter_pool.push(frame.counters);
        self.live().buffer_mut().close(frame.node);
        self.applied();
    }

    /// Append a text node carrying `roles`.
    fn text(&mut self, content: &str, roles: &[(RoleId, u32)], ordinals: Ordinals) {
        let parent = self.open.last().expect("root frame never pops").node;
        self.live()
            .buffer_mut()
            .append_text(parent, content, roles, ordinals);
        self.applied();
    }

    /// Count an applied event, enforce the byte budget, and resume the VM
    /// when the event satisfies its wait.
    fn applied(&mut self) {
        self.events += 1;
        let unit = self.live();
        let result = unit.buffer().check_limit().and_then(|()| {
            if !unit.is_done() && unit.wait_satisfied() {
                unit.resume().map(drop)
            } else {
                Ok(())
            }
        });
        if let Err(e) = result {
            self.settle(Err(e));
        }
    }

    /// Close the virtual root: the query's last event.
    fn close_root(&mut self) {
        self.events += 1;
        self.live().buffer_mut().close(NodeId::ROOT);
    }

    /// Run the query to completion after [`Lane::close_root`], record its
    /// outcome and drop its state.
    fn finish(&mut self) {
        let events = self.events;
        let unit = self.live();
        unit.set_input_exhausted();
        let report = unit
            .resume()
            .and_then(|_| unit.report(events, Vec::new(), 0));
        self.settle(report);
    }

    /// Record the query's outcome — on error, with the output produced so
    /// far — and drop its state.
    fn settle(&mut self, report: Result<gcx_core::RunReport, EngineError>) {
        let mut unit = self.unit.take().expect("a query settles once");
        self.outcome = Some(QueryRun {
            output: unit.take_output_vec(),
            report,
        });
        self.open = Vec::new();
        self.counter_pool = Vec::new();
        self.names = Vec::new();
        self.attr_scratch = AttrBuf::new();
    }
}

/// The stream side shared by every query: merged matcher, merged symbol
/// table, skip depth, counters and scratch.
struct Scan {
    matcher: MergedMatcher,
    symbols: SymbolTable,
    merged_skip: u32,
    /// Structural tokens in the shared scan.
    tokens: u64,
    /// Σ per-query events.
    fanout: u64,
    /// Merged symbols of the current start tag's attribute names.
    attr_names: Vec<Symbol>,
    role_scratch: Vec<(RoleId, u32)>,
}

impl Scan {
    /// Apply one token to every live query.
    fn apply(&mut self, token: &Token<'_>, lanes: &mut [Lane]) {
        match token {
            Token::StartTag(start) => {
                let self_closing = start.self_closing;
                if self.merged_skip > 0 {
                    if !self_closing {
                        self.merged_skip += 1;
                    }
                } else {
                    let name = self.symbols.intern(start.name);
                    let outcome = self.matcher.enter_element(name);
                    let any_keep = outcome.any_keep;
                    let mut attrs_interned = false;
                    for (qi, lane) in lanes.iter_mut().enumerate() {
                        if !lane.is_live() {
                            continue;
                        }
                        if lane.skip_depth > 0 {
                            // Inside a subtree this query skipped but some
                            // other query keeps: balance the counter. When
                            // nobody keeps (merged skip), the subtree's end
                            // tags never reach per-query state, so the
                            // counter must not move either.
                            if !self_closing && any_keep {
                                lane.skip_depth += 1;
                            }
                            continue;
                        }
                        // In this query's kept region: every child bumps
                        // ordinals, kept or not (positional predicates see
                        // true document positions).
                        let ordinals = lane.top().next_elem(name);
                        if any_keep && outcome.kept[qi] {
                            if !attrs_interned {
                                attrs_interned = true;
                                self.attr_names.clear();
                                for a in start.attrs.iter() {
                                    self.attr_names.push(self.symbols.intern(a.name));
                                }
                            }
                            self.role_scratch.clear();
                            self.role_scratch.extend(outcome.roles_of(qi as u32));
                            lane.start(
                                name,
                                start,
                                &self.attr_names,
                                &self.role_scratch,
                                ordinals,
                                &self.symbols,
                            );
                            self.fanout += 1;
                        } else if any_keep && !self_closing {
                            // Some other query keeps this subtree; this one
                            // starts skipping it. (If nobody keeps it, the
                            // merged skip below hides it from everyone.)
                            lane.skip_depth = 1;
                        }
                    }
                    if any_keep {
                        if self_closing {
                            self.matcher.leave_element();
                        }
                    } else if !self_closing {
                        self.merged_skip = 1;
                    }
                }
                // A self-closing tag stands for open+close: count both.
                self.tokens += if self_closing { 2 } else { 1 };
            }
            Token::EndTag { .. } => {
                if self.merged_skip > 0 {
                    self.merged_skip -= 1;
                } else {
                    for lane in lanes.iter_mut().filter(|l| l.is_live()) {
                        if lane.skip_depth > 0 {
                            lane.skip_depth -= 1;
                        } else {
                            lane.end();
                            self.fanout += 1;
                        }
                    }
                    self.matcher.leave_element();
                }
                self.tokens += 1;
            }
            Token::Text(content) => {
                if self.merged_skip == 0 {
                    let roles = self.matcher.text();
                    for (qi, lane) in lanes.iter_mut().enumerate() {
                        if !lane.is_live() || lane.skip_depth > 0 {
                            continue;
                        }
                        let ordinals = lane.top().next_text();
                        // Restrict to this query's tag; role-free text is
                        // irrelevant to it and not buffered.
                        let qi = qi as u32;
                        let lo = roles.partition_point(|&(t, _, _)| t < qi);
                        let hi = roles.partition_point(|&(t, _, _)| t <= qi);
                        if lo == hi {
                            continue;
                        }
                        self.role_scratch.clear();
                        self.role_scratch
                            .extend(roles[lo..hi].iter().map(|&(_, r, c)| (r, c)));
                        lane.text(content, &self.role_scratch, ordinals);
                        self.fanout += 1;
                    }
                }
                self.tokens += 1;
            }
            // Comments, PIs and the doctype are not part of the data model;
            // the batch schema applies at the merged matcher only.
            Token::Comment(_) | Token::ProcessingInstruction { .. } | Token::Doctype(_) => {}
        }
    }

    /// End of input: close every live query's virtual root, then finish
    /// the queries smallest live buffer first (see the module docs).
    fn end(&mut self, lanes: &mut [Lane]) {
        // (live bytes, batch index): the sort breaks ties by batch order.
        let mut order = Vec::with_capacity(lanes.len());
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.is_live() {
                lane.close_root();
                self.fanout += 1;
                order.push((lane.live().buffer().stats().live_bytes, i));
            }
        }
        order.sort_unstable();
        for (_, i) in order {
            lanes[i].finish();
        }
    }
}

/// A sans-IO shared-stream evaluation of a batch of queries over one
/// document: push bytes in with [`MultiSession::feed`] (or
/// [`MultiSession::space`] + [`MultiSession::commit`]), then
/// [`MultiSession::finish`]. See the [crate docs](crate) for the data
/// flow. [`SharedRun`](crate::SharedRun) is the blocking wrapper.
///
/// ```
/// use gcx_core::CompiledQuery;
/// use gcx_multi::{BatchOptions, BatchPlan, MultiSession};
///
/// let queries = [
///     CompiledQuery::compile("for $b in /bib/book return $b/title").unwrap(),
///     CompiledQuery::compile("count(/bib/book)").unwrap(),
/// ];
/// let plan = BatchPlan::new(&queries, None);
/// let mut session = MultiSession::new(&plan, &queries, &BatchOptions::default());
/// session.feed(b"<bib><book><title>S").unwrap();
/// session.feed(b"treams</title></book></bib>").unwrap();
/// let report = session.finish().unwrap();
/// assert_eq!(report.queries[0].output, b"<title>Streams</title>");
/// assert_eq!(report.queries[1].output, b"1");
/// ```
pub struct MultiSession {
    tok: PushTokenizer,
    scan: Scan,
    lanes: Vec<Lane>,
    started: Instant,
}

impl MultiSession {
    /// Open a session for `queries` over a plan prepared from exactly
    /// this batch (same queries, same order; see [`BatchPlan`]).
    pub fn new(plan: &BatchPlan, queries: &[CompiledQuery], opts: &BatchOptions) -> MultiSession {
        assert_eq!(
            plan.n_queries(),
            queries.len(),
            "batch plan was prepared for a different number of queries"
        );
        let started = Instant::now();
        let engine_opts = EngineOptions {
            execute_signoffs: opts.execute_signoffs,
            indent: opts.indent.clone(),
            max_buffer_bytes: opts.max_buffer_bytes,
            telemetry: opts.telemetry,
            ..EngineOptions::gcx()
        };
        let (matcher, _root_roles) = MergedMatcher::from_plan(plan);
        MultiSession {
            tok: PushTokenizer::new(),
            scan: Scan {
                matcher,
                // Interning during the scan is per-document: each run
                // extends its own clone of the plan's pre-interned table.
                symbols: plan.symbols.clone(),
                merged_skip: 0,
                tokens: 0,
                fanout: 0,
                attr_names: Vec::new(),
                role_scratch: Vec::new(),
            },
            lanes: queries.iter().map(|q| Lane::new(q, &engine_opts)).collect(),
            started,
        }
    }

    /// Push one chunk of document bytes and advance every query as far
    /// as they allow. Fails only on malformed input, which invalidates
    /// every query; per-query failures are recorded in the final report.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        self.tok.feed(chunk);
        self.pump()
    }

    /// Borrow at least `min` writable bytes of the tokenizer window to
    /// read input into directly, then [`MultiSession::commit`] them.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.tok.space(min)
    }

    /// Declare `n` bytes of [`MultiSession::space`] filled and advance,
    /// exactly like [`MultiSession::feed`] on that slice.
    pub fn commit(&mut self, n: usize) -> Result<(), EngineError> {
        self.tok.commit(n);
        self.pump()
    }

    /// Input position of the next byte to be tokenized.
    pub fn position(&self) -> TextPos {
        self.tok.position()
    }

    /// Declare the end of input, run every query to completion and
    /// return the batch's outcomes and measurements.
    pub fn finish(mut self) -> Result<BatchReport, EngineError> {
        self.tok.finish_input();
        self.pump()?;
        Ok(BatchReport {
            queries: self
                .lanes
                .into_iter()
                .map(|lane| lane.outcome.expect("every query settles at end of input"))
                .collect(),
            tokens: self.scan.tokens,
            fanout_events: self.scan.fanout,
            elapsed: self.started.elapsed(),
        })
    }

    /// Apply every complete token in the window.
    fn pump(&mut self) -> Result<(), EngineError> {
        loop {
            match self.tok.step()? {
                TokenStep::Token => self.scan.apply(&self.tok.token(), &mut self.lanes),
                TokenStep::NeedMoreData => return Ok(()),
                TokenStep::End => {
                    self.scan.end(&mut self.lanes);
                    return Ok(());
                }
            }
        }
    }
}
