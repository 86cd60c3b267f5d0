//! Chaos soak: a seeded schedule of crashes, transient outages,
//! stragglers, and silent corruption against a live DFS for each of the
//! four code families, plus a simulated straggler-repair section.
//!
//! The soak *asserts* zero data loss and byte-exact reads — a run that
//! completes is a durability proof for the schedule — and reports what
//! surviving it cost each family: detected corruptions, retries burned
//! on outage windows, locally repaired vs decode-repaired blocks, and
//! repair bytes read (the paper's disk-I/O metric, now measured under
//! messy failures instead of clean single-server losses).
//!
//! Usage: `cargo run -p galloper-bench --release --bin chaos [-- --json [DIR]]`
//! Env:   `GALLOPER_FAULT_SEED`  (default 0xD15A57E4; schedule seed)
//!        `GALLOPER_JSON_OUT`    (directory; write BENCH_chaos.json there)
//!
//! Every number it writes is determined by the seed, so the document is
//! reproduced exactly under either kernel backend and CI diffs it
//! against the committed `results/BENCH_chaos.json` for equality.

use galloper::Galloper;
use galloper_bench::table::{mb, secs, Table};
use galloper_bench::{emit_json, payload};
use galloper_carousel::Carousel;
use galloper_dfs::{faults, Dfs, ErasureCode, FaultPlan, FaultPlanConfig, ReadOptions};
use galloper_obs::Json;
use galloper_pyramid::Pyramid;
use galloper_rs::ReedSolomon;
use galloper_simstore::{simulate_repair, Cluster, Placement, ServerSpec};
use galloper_testkit::TestRng;

/// Horizon of the fault schedule, logical-clock ticks.
const TICKS: u64 = 400;
/// Object size per family, KiB.
const OBJECT_KB: usize = 96;

/// What one family's soak survived and what surviving cost it.
struct Outcome {
    family: &'static str,
    events: usize,
    crashes: u64,
    outages: u64,
    slowdowns: u64,
    corruptions_injected: u64,
    corruptions_detected: u64,
    retries: u64,
    repaired_locally: usize,
    repaired_via_decode: usize,
    repair_bytes_read: usize,
    requeued: usize,
    reads: usize,
}

impl Outcome {
    fn to_json(&self) -> Json {
        Json::object()
            .field("family", self.family)
            .field("events", self.events)
            .field("crashes", self.crashes)
            .field("outages", self.outages)
            .field("slowdowns", self.slowdowns)
            .field("corruptions_injected", self.corruptions_injected)
            .field("corruptions_detected", self.corruptions_detected)
            .field("retries", self.retries)
            .field("repaired_locally", self.repaired_locally)
            .field("repaired_via_decode", self.repaired_via_decode)
            .field("repair_bytes_read", self.repair_bytes_read)
            .field("requeued", self.requeued)
            .field("reads", self.reads)
            .field("data_loss", 0u64)
    }
}

/// The `dfs.faults.*` / `dfs.repair_queue.*` counters this soak deltas.
const COUNTERS: &[&str] = &[
    "dfs.faults.crashes",
    "dfs.faults.outages",
    "dfs.faults.slowdowns",
    "dfs.faults.corruptions_injected",
    "dfs.faults.corruptions_detected",
    "dfs.faults.retries",
];

fn counter_values() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|name| galloper_obs::global().counter(name).get())
        .collect()
}

fn soak<C>(family: &'static str, code: C, seed: u64) -> Outcome
where
    C: ErasureCode,
{
    // Enough servers that crashes + concurrent outages never starve
    // replacement placement, for any of the four layouts.
    let tolerance = 2;
    let num_servers = code.num_blocks() + tolerance + 6;
    let n_blocks = code.num_blocks();
    let mut dfs = Dfs::new(num_servers, code);
    dfs.set_retry_limit(8);

    let mut rng = TestRng::new(seed ^ 0x0BF5_CA7E);
    let data = payload(OBJECT_KB << 10, seed);
    dfs.put("chaos-object", &data).unwrap();

    let plan = FaultPlan::seeded(
        seed,
        &FaultPlanConfig {
            num_servers,
            horizon: TICKS,
            tolerance,
            max_crashes: num_servers - n_blocks - tolerance - 2,
        },
    );
    let events = plan.len();
    dfs.schedule(&plan);

    let before = counter_values();
    let mut repaired_locally = 0;
    let mut repaired_via_decode = 0;
    let mut repair_bytes_read = 0;
    let mut requeued = 0;
    let mut reads = 0;

    let end = plan.horizon() + faults::MAX_OUTAGE_TICKS + 1;
    for t in 1..=end {
        if t > dfs.clock() {
            dfs.advance_to(t);
        }
        dfs.scan_endangered();
        let report = dfs.drain_repairs(usize::MAX).unwrap();
        assert_eq!(report.unrecoverable, 0, "{family} t={t}: data loss");
        repaired_locally += report.summary.repaired_locally;
        repaired_via_decode += report.summary.repaired_via_decode;
        repair_bytes_read += report.summary.bytes_read;
        requeued += report.requeued;

        if t % 4 == 0 {
            let patient = ReadOptions::full().with_retries(dfs.retry_limit());
            let whole = dfs.read("chaos-object", patient).unwrap();
            assert_eq!(whole.bytes, data, "{family} t={t}: corrupted get");
            let offset = rng.usize_in(0, data.len());
            let len = rng.usize_in(0, data.len() - offset + 1);
            let patient = ReadOptions::range(offset, len).with_retries(dfs.retry_limit());
            let part = dfs.read("chaos-object", patient).unwrap();
            assert_eq!(part.bytes, &data[offset..offset + len], "{family} t={t}");
            reads += 2;
        }
    }

    // Quiesce: the queue must drain dry with everything healthy.
    dfs.advance_to(end + 1);
    loop {
        let newly = dfs.scan_endangered();
        let report = dfs.drain_repairs(usize::MAX).unwrap();
        assert_eq!(report.unrecoverable, 0, "{family}: data loss at quiesce");
        repaired_locally += report.summary.repaired_locally;
        repaired_via_decode += report.summary.repaired_via_decode;
        repair_bytes_read += report.summary.bytes_read;
        if newly == 0 && dfs.repair_queue_depth() == 0 {
            break;
        }
    }
    assert!(dfs.fsck().all_healthy(), "{family}: degraded after soak");
    assert_eq!(dfs.get("chaos-object").unwrap(), data, "{family}: final");

    let after = counter_values();
    let delta = |i: usize| after[i] - before[i];
    Outcome {
        family,
        events,
        crashes: delta(0),
        outages: delta(1),
        slowdowns: delta(2),
        corruptions_injected: delta(3),
        corruptions_detected: delta(4),
        retries: delta(5),
        repaired_locally,
        repaired_via_decode,
        repair_bytes_read,
        requeued,
        reads,
    }
}

/// Simulated repair of one lost block while a source server straggles at
/// `multiplier` × its rated speed — the locality win under stragglers:
/// a small fan-in both reads less and is less exposed to a slow source.
fn straggler_repair(code: &dyn ErasureCode, block_mb: f64, multiplier: f64) -> (f64, f64) {
    let n = code.num_blocks();
    let mut cluster = Cluster::homogeneous(n + 2, ServerSpec::default());
    let placement = Placement::identity(n);
    let plan = code.repair_plan(0).unwrap();
    cluster.set_rate_multiplier(plan.sources()[0], multiplier);
    let outcome = simulate_repair(&cluster, &placement, &plan, block_mb, n + 1);
    (outcome.completion_secs, outcome.disk_read_mb)
}

fn main() {
    galloper_obs::init_from_env();
    let seed = faults::seed_from_env(0xD15A_57E4);

    println!("# Chaos soak — seeded faults vs self-healing, all four families");
    println!("seed {seed:#x}, horizon {TICKS} ticks, {OBJECT_KB} KiB object per family\n");

    let rows = vec![
        soak("rs", ReedSolomon::new(4, 2, 1024).unwrap(), seed),
        soak("pyramid", Pyramid::new(4, 2, 1, 1024).unwrap(), seed),
        soak("carousel", Carousel::new(4, 2, 512).unwrap(), seed),
        soak("galloper", Galloper::uniform(4, 2, 1, 512).unwrap(), seed),
    ];

    println!("## Survival bill (zero data loss asserted for every row)\n");
    let mut t = Table::new(&[
        "family",
        "events",
        "crashes",
        "outages",
        "corrupt (inj/det)",
        "retries",
        "repairs (local/decode)",
        "repair read (KiB)",
        "requeued",
        "reads",
    ]);
    for r in &rows {
        t.row(&[
            r.family.to_string(),
            r.events.to_string(),
            r.crashes.to_string(),
            r.outages.to_string(),
            format!("{}/{}", r.corruptions_injected, r.corruptions_detected),
            r.retries.to_string(),
            format!("{}/{}", r.repaired_locally, r.repaired_via_decode),
            format!("{}", r.repair_bytes_read >> 10),
            r.requeued.to_string(),
            r.reads.to_string(),
        ]);
    }
    println!("{}", t.to_markdown());

    println!("## Straggler repair — one slow source server, simulated cluster\n");
    let block_mb = 45.0;
    let codes: Vec<(&str, Box<dyn ErasureCode>)> = vec![
        ("rs", Box::new(ReedSolomon::new(4, 2, 64).unwrap())),
        ("pyramid", Box::new(Pyramid::new(4, 2, 1, 64).unwrap())),
        ("carousel", Box::new(Carousel::new(4, 2, 64).unwrap())),
        (
            "galloper",
            Box::new(Galloper::uniform(4, 2, 1, 64).unwrap()),
        ),
    ];
    let multipliers = [1.0, 0.5, 0.25];
    let mut t = Table::new(&["family", "source rate", "repair time", "disk read"]);
    let mut straggler_rows = Vec::new();
    for (name, code) in &codes {
        for &m in &multipliers {
            let (completion, disk) = straggler_repair(code.as_ref(), block_mb, m);
            t.row(&[
                name.to_string(),
                format!("{m:.2}x"),
                secs(completion),
                mb(disk),
            ]);
            straggler_rows.push(
                Json::object()
                    .field("family", *name)
                    .field("multiplier", m)
                    .field("completion_secs", completion)
                    .field("disk_read_mb", disk),
            );
        }
    }
    println!("{}", t.to_markdown());

    emit_json(
        "chaos",
        &Json::object()
            .field("fig", "chaos")
            .field("seed", format!("{seed:#x}"))
            .field("ticks", TICKS)
            .field("object_kb", OBJECT_KB)
            .field(
                "families",
                Json::Arr(rows.iter().map(Outcome::to_json).collect()),
            )
            .field("straggler", Json::Arr(straggler_rows)),
    );
}
