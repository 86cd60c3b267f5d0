//! The chaos soak: a seeded schedule of crashes, transient outage
//! windows, stragglers, and silent corruption against a live DFS for
//! every code family, with continuous reads. The contract under test is
//! the paper's durability story end to end — no fault mix inside the
//! code's tolerance envelope may lose a byte, corrupt a read, or leave
//! the background repair queue stuck.
//!
//! The schedule comes from [`FaultPlan::seeded`]; override the seed with
//! `GALLOPER_FAULT_SEED` to soak a different trajectory (CI pins one so
//! the run is reproducible).

use galloper_suite::codes::{Carousel, ErasureCode, Galloper, Pyramid, ReedSolomon};
use galloper_suite::dfs::{
    faults::{self, MAX_OUTAGE_TICKS},
    Dfs, DfsError, Fault, FaultPlan, FaultPlanConfig, ReadOptions, ReadOutcome,
};
use galloper_testkit::TestRng;

const DEFAULT_SEED: u64 = 0xD15A_57E4;
const HORIZON: u64 = 120;

fn soak<C>(family: &str, code: C, num_servers: usize, tolerance: usize)
where
    C: ErasureCode,
{
    let n_blocks = code.num_blocks();
    let stripe_size = code.block_len() / code.layout().stripes_per_block();
    let mut dfs = Dfs::new(num_servers, code);
    // Enough headroom to wait out chained outage windows near the end of
    // the schedule (1+2+...+128 ticks ≫ the widest possible chain).
    dfs.set_retry_limit(8);

    let seed = faults::seed_from_env(DEFAULT_SEED);
    let mut rng = TestRng::new(seed ^ 0x0BF5_CA7E);
    let files: Vec<(String, Vec<u8>)> = [21_000, 7_777, 1]
        .iter()
        .enumerate()
        .map(|(i, &len)| (format!("{family}-{i}"), rng.bytes(len)))
        .collect();
    for (name, data) in &files {
        dfs.put(name, data).unwrap();
    }

    let plan = FaultPlan::seeded(
        seed,
        &FaultPlanConfig {
            num_servers,
            horizon: HORIZON,
            tolerance,
            // Leave `tolerance + 1` servers of slack for concurrently
            // unavailable ones, so replacement placement never starves.
            max_crashes: num_servers - n_blocks - tolerance - 2,
        },
    );
    let injected_corruptions = plan
        .events()
        .iter()
        .filter(|e| matches!(e.fault, Fault::Corrupt { .. }))
        .count();
    assert!(
        injected_corruptions >= 1,
        "{family}: the soak must exercise corruption"
    );
    dfs.schedule(&plan);

    let end = plan.horizon() + MAX_OUTAGE_TICKS + 1;
    for t in 1..=end {
        // Retry backoff may already have pushed the clock past `t`.
        if t > dfs.clock() {
            dfs.advance_to(t);
        }
        // The background repair pass runs every tick.
        dfs.scan_endangered();
        let report = dfs.drain_repairs(usize::MAX).unwrap();
        assert_eq!(
            report.unrecoverable, 0,
            "{family} t={t}: repair declared data loss"
        );
        assert_eq!(report.summary.unrecoverable_groups, 0, "{family} t={t}");

        if t % 6 != 0 {
            continue;
        }
        // Foreground traffic: whole-object and random range reads must
        // stay byte-exact through every fault the plan throws.
        for (name, data) in &files {
            let patient = ReadOptions::full().with_retries(dfs.retry_limit());
            let whole = dfs
                .read(name, patient)
                .unwrap_or_else(|e| panic!("{family} t={t} {name}: {e}"));
            assert_eq!(&whole.bytes, data, "{family} t={t} {name}: get corrupted");
            assert_eq!(
                whole.stats.bytes_read,
                whole.stats.stripes_read * stripe_size,
                "{family} t={t} {name}: whole-object accounting out of step"
            );
        }
        let (name, data) = &files[rng.usize_in(0, files.len())];
        let offset = rng.usize_in(0, data.len());
        let len = rng.usize_in(0, data.len() - offset + 1);
        match dfs.read(name, ReadOptions::range(offset, len)) {
            Ok(ReadOutcome { bytes, stats, .. }) => {
                assert_eq!(
                    bytes,
                    &data[offset..offset + len],
                    "{family} t={t} {name} {offset}+{len}"
                );
                assert_eq!(
                    stats.bytes_read,
                    stats.stripes_read * stripe_size,
                    "{family} t={t}: accounting out of step"
                );
            }
            // An outage window wider than the code's tolerance is
            // legitimately unreadable *right now* — but only then.
            Err(DfsError::Unavailable { .. }) => {
                assert!(dfs.outage_count() > 0, "{family} t={t}: spurious outage");
            }
            Err(e) => panic!("{family} t={t} {name} {offset}+{len}: {e}"),
        }
    }

    // Quiesce: every window has expired; the queue must drain dry.
    dfs.advance_to(end + 1);
    let mut rounds = 0;
    loop {
        let newly = dfs.scan_endangered();
        let report = dfs.drain_repairs(usize::MAX).unwrap();
        assert_eq!(report.unrecoverable, 0, "{family}: data loss at quiesce");
        if newly == 0 && dfs.repair_queue_depth() == 0 {
            break;
        }
        rounds += 1;
        assert!(rounds < 32, "{family}: repair queue failed to drain");
    }

    let report = dfs.fsck();
    assert!(
        report.data_loss().is_empty(),
        "{family}: files lost after the soak"
    );
    assert!(
        report.all_healthy(),
        "{family}: self-healing left degraded groups behind"
    );
    for (name, data) in &files {
        assert_eq!(&dfs.get(name).unwrap(), data, "{family} {name}: final get");
        assert_eq!(
            dfs.read(name, ReadOptions::range(0, data.len()))
                .unwrap()
                .bytes,
            *data,
            "{family} {name}: final range read"
        );
    }
}

#[test]
fn chaos_soak_reed_solomon() {
    soak("rs", ReedSolomon::new(4, 2, 256).unwrap(), 14, 2);
}

#[test]
fn chaos_soak_pyramid() {
    soak("pyramid", Pyramid::new(4, 2, 1, 256).unwrap(), 14, 2);
}

#[test]
fn chaos_soak_carousel() {
    soak("carousel", Carousel::new(4, 2, 128).unwrap(), 14, 2);
}

#[test]
fn chaos_soak_galloper() {
    soak("galloper", Galloper::uniform(4, 2, 1, 128).unwrap(), 14, 2);
}
