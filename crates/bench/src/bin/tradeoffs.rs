//! The storage-economics summary: for every code family at the paper's
//! parameters, the exact three-way trade-off between storage overhead,
//! repair I/O, and reliability (plus the parallelism axis that motivates
//! Galloper in the first place).
//!
//! Usage: `cargo run -p galloper-bench --release --bin tradeoffs`

use galloper_bench::table::Table;
use galloper_codes::{build_code, CodeSpec};
use galloper_erasure::reliability::{
    data_loss_probability, expected_repair_io, guaranteed_tolerance,
};
use galloper_erasure::{ErasureCode, LinearCode};

fn main() {
    // Annualized server failure probability in the spirit of published
    // trace studies.
    let p = 0.05;
    println!("# Trade-offs at k = 4 (annual server failure probability {p})\n");
    let mut t = Table::new(&[
        "code",
        "blocks",
        "overhead",
        "guaranteed tolerance",
        "avg repair reads",
        "P(data loss)",
        "blocks holding data",
    ]);

    let codes: Vec<(&str, LinearCode)> = vec![
        (
            "(4,2) Reed-Solomon",
            build_code(&CodeSpec::rs(4, 2, 64)).unwrap(),
        ),
        (
            "(4,2) Carousel",
            build_code(&CodeSpec::carousel(4, 2, 16)).unwrap(),
        ),
        (
            "(4,2,1) Pyramid",
            build_code(&CodeSpec::pyramid(4, 2, 1, 64)).unwrap(),
        ),
        (
            "(4,2,1) Galloper",
            build_code(&CodeSpec::galloper(4, 2, 1, 16)).unwrap(),
        ),
        (
            "(4,2,2) Galloper-ASL",
            build_code(&CodeSpec::galloper_asl(4, 2, 2, 16)).unwrap(),
        ),
    ];
    for (name, code) in &codes {
        let layout = code.layout();
        let data_blocks = (0..code.num_blocks())
            .filter(|&b| layout.data_stripes(b) > 0)
            .count();
        t.row(&[
            name.to_string(),
            code.num_blocks().to_string(),
            format!("{:.2}x", code.storage_overhead()),
            guaranteed_tolerance(code).to_string(),
            format!("{:.2}", expected_repair_io(code)),
            format!("{:.2e}", data_loss_probability(code, p)),
            format!("{data_blocks}/{}", code.num_blocks()),
        ]);
    }
    println!("{}", t.to_markdown());
    println!("Reading the table:");
    println!("- RS and Carousel are storage-optimal but repair with k reads;");
    println!("  Carousel at least parallelizes over every block.");
    println!("- Pyramid repairs cheaply but confines analytics to 4/7 blocks.");
    println!("- Galloper matches Pyramid's repair, tolerance, and loss");
    println!("  probability exactly (linearly equivalent code spaces) while");
    println!("  spreading data over every block.");
    println!("- The ASL variant buys all-blocks local repair with one more block.");
}
