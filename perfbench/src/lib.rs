//! # gcx-perfbench — the repository benchmark
//!
//! Two workloads drive the engine crates from outside, through their
//! public entry points, over a seeded XMark document:
//!
//! * `single` — each paper query standalone, one `EvalSession` each;
//! * `batch` — the same queries in one shared `gcx-multi` pass.
//!
//! Every output is checked against the `gcx-dom` oracle. With `--trace 0`
//! a run reports the end-to-end metrics; with `--trace 1` it repeats the
//! workload with spans around each layer call, runs the stage-cut probes
//! of [`layers`] (an in-process `gcx_server::serve` among them), and
//! reports the per-layer metrics plus the tracing overhead. See README.md.

pub mod batch;
pub mod cpus;
pub mod inputs;
pub mod layers;
pub mod server;
pub mod single;
pub mod stats;
pub mod trace;

use inputs::Sizes;
use stats::median;
use std::time::Duration;
use trace::Tracer;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A small document: every workload in seconds.
    pub tiny: bool,
    /// Caps every query's buffer (`max_buffer_bytes` of the engine and of
    /// the shared pass). No flag sets it: the benchmark's tests use it to
    /// force engine errors.
    pub max_buffer_bytes: Option<u64>,
}

pub const WORKLOADS: [&str; 2] = ["single", "batch"];

pub const USAGE: &str =
    "usage: gcx-perfbench --workload single|batch --seed N --seconds S --trace 0|1 [--tiny]";

/// Where a traced run writes its Chrome trace: `.bench_out/` at the
/// repository root, which git ignores.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_out");

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            tiny: false,
            max_buffer_bytes: None,
        };
        let (mut seed, mut seconds, mut trace) = (false, false, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                a.tiny = true;
                continue;
            }
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {val:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => a.workload = val.clone(),
                "--seed" => {
                    a.seed = val.parse().map_err(|_| bad())?;
                    seed = true;
                }
                "--seconds" => {
                    a.seconds = val.parse().map_err(|_| bad())?;
                    seconds = a.seconds > 0.0;
                }
                "--trace" => {
                    a.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                    trace = true;
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) || !seed || !seconds || !trace {
            return Err(USAGE.to_string());
        }
        Ok(a)
    }

    pub fn sizes(&self) -> Sizes {
        if self.tiny {
            Sizes::tiny()
        } else {
            Sizes::full()
        }
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The rate tiers of the latency metrics, in metric-name order.
pub const TIERS: [&str; 3] = ["low", "mid", "high"];

/// The end-to-end figures of one measured phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub throughput_mb_s: f64,
    pub peak_buffer_bytes: f64,
    pub peak_heap_bytes: f64,
    pub p50_ms: [f64; 3],
    pub p99_ms: [f64; 3],
    pub sustainable_rps: f64,
    pub attempted: u64,
    /// Failed operations: engine errors and outputs that differ from the
    /// reference.
    pub failed: u64,
    /// Set-up repetitions (s) timed during the measurement, with spans when
    /// the tracer is on.
    pub setup_times: Vec<f64>,
}

impl E2e {
    /// The end-to-end metrics, `setup_s` included, by their fixed names.
    pub fn metrics(&self, setup_s: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("throughput_mb_s", self.throughput_mb_s, "MB/s");
        m.put("peak_buffer_bytes", self.peak_buffer_bytes, "bytes");
        m.put("peak_heap_bytes", self.peak_heap_bytes, "bytes");
        m.put("setup_s", setup_s, "s");
        for (i, t) in TIERS.iter().enumerate() {
            m.put(format!("p50_ms.{t}"), self.p50_ms[i], "ms");
        }
        for (i, t) in TIERS.iter().enumerate() {
            m.put(format!("p99_ms.{t}"), self.p99_ms[i], "ms");
        }
        m.put("sustainable_rps", self.sustainable_rps, "req/s");
        m
    }
}

/// What a run printed: the result line's fields plus a human report.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        s.push_str("}}");
        s
    }
}

/// A workload: set up once, then measure for a time budget, with spans
/// recorded into the tracer when it is on.
pub trait Workload {
    /// Set-up times (s) of the repetitions run before measuring.
    fn setup_times(&self) -> &[f64];
    fn measure(&mut self, budget: Duration, tr: &mut Tracer) -> Result<E2e, String>;
    /// Per-layer metrics of the traced run (probes included); `plain` is
    /// the untraced measurement of the same run.
    fn layers(&mut self, plain: &E2e, tr: &mut Tracer, out: &mut Metrics) -> Result<(), String>;
    fn report(&self, out: &mut Vec<String>);
}

/// Run one workload as the arguments ask.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "single" => Box::new(single::Single::setup(args)?),
        "batch" => Box::new(batch::Batch::setup(args)?),
        other => return Err(format!("unknown workload {other}")),
    };
    let mut out = Outcome::default();
    let e2e = if !args.trace {
        let e = w.measure(args.budget(), &mut Tracer::new(false))?;
        let setup = [w.setup_times(), &e.setup_times[..]].concat();
        out.metrics = e.metrics(median(&setup));
        e
    } else {
        // Same workload twice, untraced then traced, half the budget each:
        // the ratio is the tracing overhead of each end-to-end metric.
        let half = args.budget() / 2;
        let plain = w.measure(half, &mut Tracer::new(false))?;
        let mut tr = Tracer::new(true);
        let traced = w.measure(half, &mut tr)?;
        let m0 = plain.metrics(median(&plain.setup_times));
        let m1 = traced.metrics(median(&traced.setup_times));
        for m in &m0.0 {
            let t = m1.get(&m.name).unwrap_or(0.0);
            let ratio = if m.value != 0.0 {
                t / m.value - 1.0
            } else {
                0.0
            };
            out.metrics
                .put(format!("trace_overhead.{}", m.name), ratio, "ratio");
        }
        w.layers(&plain, &mut tr, &mut out.metrics)?;
        let attempted = plain.attempted + traced.attempted;
        let failed = plain.failed + traced.failed;
        out.metrics.put(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        out.report.push(format!(
            "untraced vs traced: {}",
            m0.0.iter()
                .map(|m| format!(
                    "{}={:.4}/{:.4}",
                    m.name,
                    m.value,
                    m1.get(&m.name).unwrap_or(0.0)
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let selftimes: Vec<String> = tr
            .self_times()
            .iter()
            .map(|(name, (total, own))| {
                format!(
                    "{name}={:.3}/{:.3}s",
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                )
            })
            .collect();
        out.report
            .push(format!("span total/self time: {}", selftimes.join(" ")));
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, tr.chrome()).map_err(|e| format!("{path}: {e}"))?;
        out.report
            .push(format!("chrome trace: {path} ({} spans)", tr.spans().len()));
        plain.merged_with(traced)
    };
    w.report(&mut out.report);
    out.attempted = e2e.attempted;
    out.failed = e2e.failed;
    out.correct = e2e.failed == 0;
    Ok(out)
}

impl E2e {
    /// `later`'s figures with the operation counts of both measurements.
    fn merged_with(self, later: E2e) -> E2e {
        E2e {
            attempted: self.attempted + later.attempted,
            failed: self.failed + later.failed,
            ..later
        }
    }
}
