//! Command-line entry of the repository benchmark; see README.md.
//!
//! `gcx-perfbench --workload single|batch --seed N --seconds S --trace 0|1`
//! prints a human report followed by one JSON result line, and exits
//! non-zero when any operation failed: an engine error, or an output that
//! differs from its reference.

#[global_allocator]
static ALLOC: gcx_memtrack::TrackingAllocator = gcx_memtrack::TrackingAllocator::new();

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match gcx_perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match gcx_perfbench::run(&args) {
        Ok(out) => {
            for line in &out.report {
                println!("# {line}");
            }
            println!("{}", out.json());
            if !out.correct {
                eprintln!(
                    "gcx-perfbench: {} of {} operations failed",
                    out.failed, out.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("gcx-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
