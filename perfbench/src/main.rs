//! `dubhe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON result line: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`.

use dubhe_perfbench::report::result_json;
use dubhe_perfbench::{run, sys, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dubhe-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    println!(
        "# {} on {} logical CPUs; host steal {:.3} of the measured window",
        args.workload,
        sys::nproc(),
        outcome
            .per_layer
            .get("proc.steal_share")
            .copied()
            .unwrap_or(0.0)
    );
    for line in &outcome.notes {
        println!("# {line}");
    }
    if let (Some(path), Some(spans)) = (&args.trace_out, &outcome.spans) {
        if let Err(e) = spans.write_jsonl(path) {
            eprintln!("dubhe-perfbench: writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("# spans written to {}", path.display());
    }
    println!("{}", result_json(&outcome, args.trace));
}
