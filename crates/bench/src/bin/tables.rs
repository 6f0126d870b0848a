//! Regenerate every experiment table (E1–E16) for EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run -p logres-bench --release --bin tables            # all tables
//! cargo run -p logres-bench --release --bin tables -- e1 e4   # a subset
//! cargo run -p logres-bench --release --bin tables -- --deadline-ms 5000
//! cargo run -p logres-bench --release --bin tables -- e1 --metrics
//! ```
//!
//! `--deadline-ms <n>` gives every experiment evaluation a wall-clock
//! budget via the governor: a run that exceeds it aborts with a structured
//! cancellation instead of hanging the sweep (useful as a CI smoke test).
//!
//! `--metrics` records every experiment evaluation on a shared registry
//! and prints its Prometheus text exposition after the sweep.

use logres_bench::experiments;

fn main() {
    let mut filter: Vec<String> = Vec::new();
    let mut metrics = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--deadline-ms" {
            let ms: u64 = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--deadline-ms takes a number of milliseconds");
            experiments::set_deadline(std::time::Duration::from_millis(ms));
        } else if arg == "--metrics" {
            metrics = Some(experiments::enable_metrics());
        } else {
            filter.push(arg);
        }
    }
    println!("# LOGRES reproduction — experiment tables\n");
    for (id, run) in experiments::all() {
        if !filter.is_empty() && !filter.iter().any(|f| f == id) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let table = run();
        println!("{table}");
        println!("_({id} regenerated in {:.2?})_\n", t0.elapsed());
    }
    if let Some(registry) = metrics {
        println!("## Metrics (Prometheus text exposition)\n");
        println!("```");
        print!("{}", registry.render_text());
        println!("```");
    }
}
