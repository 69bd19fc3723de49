//! `perfbench`: one measured process of the repository benchmark.
//!
//! `perfbench/run.py` is the entry point. It builds this binary, starts a
//! fresh process per repetition (the token interner is process-wide, so a
//! warm one would hide interning cost), checks each process's output and
//! reports medians. Every process prints one JSON object on stdout.
//!
//! ```text
//! perfbench org   --defense none|roni --seed N --shards N [--setup-only | --trace outside|replay [--spans FILE]]
//! perfbench serve --seed N --seconds S --clients N --work DIR [--trace] [--spans FILE]
//! ```

mod org;
mod out;
mod serve;
mod trace;

const USAGE: &str = "usage:\n  perfbench org --defense none|roni --seed N --shards N [--setup-only | --trace outside|replay [--spans FILE]]\n  perfbench serve --seed N --seconds S --clients N --work DIR [--trace] [--spans FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("org") => org::run(&args[1..]),
        Some("serve") => serve::run(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
