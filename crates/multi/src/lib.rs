#![deny(unsafe_code)]
//! # gcx-multi — multi-query shared-stream evaluation
//!
//! GCX minimizes buffers for *one* query over *one* stream. A production
//! deployment serves many outstanding queries against the same feed — and
//! tokenizing plus projection-matching the stream once **per query** is
//! then the dominant redundant cost. This crate evaluates a whole batch of
//! compiled queries in a **single pass** over the input:
//!
//! ```text
//!                      ┌───────────────┐  per-query events  ┌──────────────────┐
//!   XML ──► Tokenizer ─► MergedMatcher ├─────────┬─────────►│ EvalUnit q0      │──► out 0
//!            (once)    │ (union NFA,   │         │          │ buffer + VM      │
//!                      │ tagged roles) │         └─────────►│ EvalUnit q1      │──► out 1
//!                      └───────────────┘    direct calls    │ buffer + VM      │
//!                                          (one thread)     └──────────────────┘
//! ```
//!
//! * [`MergedMatcher`] unions the per-query projection NFAs
//!   ([`gcx_projection::TaggedPaths`]) so each token is tokenized and
//!   matched **exactly once** no matter how many queries want it; element
//!   outcomes carry per-query tags.
//! * [`MultiSession`] is the pass, sans-IO: it stamps per-query ordinals
//!   and pushes each query's share of every token straight into that
//!   query's [`gcx_core::EvalUnit`] — the same buffer + VM + writer a
//!   standalone [`gcx_core::EvalSession`] owns — resuming each VM at the
//!   points the standalone session would. Each query's role multiset,
//!   signOff execution and therefore *buffer minimality* are preserved
//!   verbatim. [`SharedRun`] is its blocking wrapper over a `Read`.
//! * [`BatchReport`] aggregates throughput, per-query buffer statistics
//!   and the share factor (work that would have been repeated N× but ran
//!   once).
//!
//! Every query's output is byte-identical to a standalone
//! [`gcx_core::run`] over the same document — asserted by the equivalence
//! and property suites in `tests/`.

mod driver;
mod matcher;
mod session;

pub use driver::{run_batch, BatchOptions, BatchReport, QueryRun, SharedRun};
pub use matcher::{BatchPlan, MergedMatcher};
pub use session::MultiSession;
