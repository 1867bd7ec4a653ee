//! The benchmark measures the same engine as `gcx bench throughput`: on
//! the 16 MiB seed-42 document, each query's peak buffer equals the one
//! committed in `BENCH_throughput.json`.

use gcx_core::EngineOptions;
use gcx_perfbench::inputs::{self, Sizes};
use gcx_perfbench::trace::Tracer;

/// `(name, peak_buffer_bytes)` of each entry of the `"single"` array.
fn committed_peaks() -> Vec<(String, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_throughput.json");
    let text = std::fs::read_to_string(path).expect("BENCH_throughput.json at the repository root");
    assert!(
        text.contains("\"mb\":16,") && text.contains("\"seed\":42"),
        "baseline is the 16 MB seed-42 run"
    );
    let single = &text[text.find("\"single\":[").expect("single array")..];
    let single = &single[..single.find(']').expect("array end")];
    single
        .split("{\"name\":\"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name end")].to_string();
            let key = "\"peak_buffer_bytes\":";
            let rest = &entry[entry.find(key).expect("peak field") + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            (name, rest[..end].parse().expect("peak is a number"))
        })
        .collect()
}

#[test]
fn peaks_equal_the_committed_baseline() {
    let committed = committed_peaks();
    assert_eq!(committed.len(), 11);
    let doc = inputs::xmark(Sizes::full().big_bytes, 42);
    let mut off = Tracer::new(false);
    let queries = inputs::compile_all(&mut off).expect("queries compile");
    for q in &queries {
        let run = inputs::run_session(
            q,
            &EngineOptions::gcx(),
            &doc,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut off,
            0,
        )
        .expect("session runs");
        let want = committed
            .iter()
            .find(|(n, _)| n == q.name)
            .unwrap_or_else(|| panic!("{} not in BENCH_throughput.json", q.name));
        assert_eq!(run.report.buffer.peak_live_bytes, want.1, "{}", q.name);
    }
}
