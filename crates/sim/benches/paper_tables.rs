//! Regenerates every experiment table of the PAST reproduction (E1–E13)
//! at bench scale and prints them. Paper-scale runs are the `exp`
//! binary's.
//!
//! Run: `cargo bench -p past-sim --bench paper_tables`

#![expect(
    clippy::disallowed_types,
    reason = "the bench reports elapsed wall time per experiment"
)]

use past_sim::experiments::{Scale, ALL};
use std::time::Instant;

fn main() {
    println!("PAST reproduction — experiment tables (bench scale)");
    println!("====================================================\n");

    for e in &ALL {
        let start = Instant::now();
        let (_, tables) = (e.run)(Scale::Bench);
        let secs = start.elapsed().as_secs_f64();
        for table in &tables {
            println!("{table}");
        }
        println!("  [{} completed in {secs:.1}s]\n", e.id.to_uppercase());
    }

    println!("All {} experiment tables regenerated.", ALL.len());
}
