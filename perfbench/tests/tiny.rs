//! Every workload in tiny mode, untraced and traced, twice: each metric
//! `BENCHMARK.json` names appears with its unit, and the count metrics
//! repeat exactly. An engine error fails the run.

use gcx_perfbench::{run, Args, Outcome, WORKLOADS};

#[global_allocator]
static ALLOC: gcx_memtrack::TrackingAllocator = gcx_memtrack::TrackingAllocator::new();

/// `(name, unit)` of every metric object in one array of BENCHMARK.json
/// (one object per line, as the file is written).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// Names of the workloads BENCHMARK.json lists.
fn declared_workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    text.lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| {
            let rest = &l[l.find("\"name\": \"")? + 9..];
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

fn tiny_args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 11,
        seconds: 1.0,
        trace,
        tiny: true,
        max_buffer_bytes: None,
    }
}

fn tiny(workload: &str, trace: bool) -> Outcome {
    let out = run(&tiny_args(workload, trace)).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.correct, "{workload}: outputs differ from references");
    assert_eq!(out.failed, 0, "{workload}: failed operations");
    assert!(out.attempted > 0);
    out
}

fn is_count(name: &str) -> bool {
    name == "peak_buffer_bytes"
        || name == "xml.tokens"
        || name.starts_with("core.peak_live_bytes.")
        || name == "multi.fanout_events"
}

#[test]
fn metrics_are_complete_and_counts_repeat() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert_eq!(declared_workloads(), WORKLOADS);
    for w in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let (a, b) = (tiny(w, trace), tiny(w, trace));
            let got: Vec<(String, String)> = a
                .metrics
                .0
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            for d in want.iter() {
                assert!(got.contains(d), "{w} trace={trace}: missing {d:?}");
            }
            for m in &got {
                assert!(want.contains(m), "{w} trace={trace}: undeclared {m:?}");
            }
            assert!(a.json().starts_with("{\"correct\": true, \"attempted\": "));
            for m in a.metrics.0.iter().filter(|m| is_count(&m.name)) {
                assert_eq!(
                    Some(m.value),
                    b.metrics.get(&m.name),
                    "{w}: {} differs between runs",
                    m.name
                );
            }
        }
    }
}

/// A buffer cap below the retaining queries' peaks makes Q8 and Q6_COUNT
/// fail in the engine: the run is incorrect (the command exits non-zero),
/// and the failed queries still count in the figures.
#[test]
fn engine_errors_fail_the_run() {
    const CAP: u64 = 8 << 10;
    for w in WORKLOADS {
        let args = Args {
            max_buffer_bytes: Some(CAP),
            ..tiny_args(w, false)
        };
        let out = run(&args).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(!out.correct, "{w}: engine errors must fail the run");
        assert!(out.failed > 0 && out.failed < out.attempted, "{w}");
        assert!(out.json().starts_with("{\"correct\": false, "));
        // Each failed query counts with at least the cap; the nine per-item
        // peaks on the tiny document sum to well under two caps.
        let peaks = out.metrics.get("peak_buffer_bytes").expect("peak metric");
        assert!(
            peaks > 2.0 * CAP as f64,
            "{w}: failed queries dropped from the peaks"
        );
        assert!(out.metrics.get("throughput_mb_s").expect("throughput") > 0.0);
    }
}

#[test]
fn bad_arguments_are_refused() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    assert!(Args::parse(&argv("--workload single --seed 1 --seconds 1 --trace 0")).is_ok());
    assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(Args::parse(&argv("--workload single --seed 1 --seconds 1 --trace 2")).is_err());
    assert!(Args::parse(&argv("--workload single --seconds 1 --trace 0")).is_err());
    assert!(Args::parse(&argv("--workload serve --seed 1 --seconds 1 --trace 0")).is_err());
}
