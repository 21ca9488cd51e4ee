//! Regenerates any experiment table (see EXPERIMENTS.md):
//! `exp <e1…e12|e3_mem|e13|e14|all> [options]` or `exp report <results.json>`.
//! Run it without arguments for the option list.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(congos_harness::cli::main(&args));
}
