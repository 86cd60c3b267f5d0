//! The fault-injection and self-healing layer, piece by piece:
//! checksum detection, transient outages with retry, the repair queue's
//! priority order, and deterministic schedules. The whole-system soak
//! across every code family lives in the workspace-level `tests/chaos.rs`.

use galloper::Galloper;
use galloper_dfs::{Dfs, DfsError, ErasureCode, Fault, FaultPlan, ReadOptions, ServerHealth};
use galloper_rs::ReedSolomon;
use galloper_testkit::TestRng;

#[test]
fn corruption_is_detected_and_repaired() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = TestRng::new(11).bytes(30_000);
    dfs.put("f", &data).unwrap();

    assert!(dfs.corrupt_stored("f", 0, 2), "block exists to corrupt");
    // Out-of-range targets miss instead of panicking.
    let groups = dfs.object_manifest("f").unwrap().num_groups;
    assert!(!dfs.corrupt_stored("f", groups, 0), "no such group");
    assert!(!dfs.corrupt_stored("f", 0, 7), "no such block");
    // The flipped byte never surfaces: the CRC check routes around it.
    assert_eq!(dfs.get("f").unwrap(), data);
    let part = dfs.read("f", ReadOptions::range(100, 5_000)).unwrap();
    assert_eq!(part.bytes, data[100..5_100]);
    assert!(part.stats.degraded_reads >= 1, "group 0 decoded around");
    assert_eq!(
        part.stats.repairs_queued, 0,
        "fail-fast reads stay read-only"
    );
    // fsck sees the corrupt block as lost, not healthy.
    assert!(!dfs.fsck().all_healthy());

    // The repair queue picks it up and heals it.
    assert_eq!(dfs.scan_endangered(), 1);
    assert_eq!(dfs.repair_queue_depth(), 1);
    let report = dfs.drain_repairs(usize::MAX).unwrap();
    assert_eq!(report.repaired_groups, 1);
    assert_eq!(report.summary.unrecoverable_groups, 0);
    assert_eq!(dfs.repair_queue_depth(), 0);
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("f").unwrap(), data);
}

#[test]
fn corrupt_block_by_server_is_deterministic_and_detected() {
    let mut dfs = Dfs::new(8, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = TestRng::new(5).bytes(10_000);
    dfs.put("g", &data).unwrap();
    let hit = dfs.corrupt_block(3, 42).expect("some server holds blocks");
    let again = {
        let mut other = Dfs::new(8, Galloper::uniform(4, 2, 1, 128).unwrap());
        other.put("g", &data).unwrap();
        other.corrupt_block(3, 42).unwrap()
    };
    assert_eq!(hit, again, "same salt corrupts the same block");
    assert_eq!(dfs.get("g").unwrap(), data);
    dfs.scan_endangered();
    dfs.drain_repairs(usize::MAX).unwrap();
    assert!(dfs.fsck().all_healthy());
}

#[test]
fn outage_blocks_reads_until_retry_waits_it_out() {
    // (2, 1) RS: three blocks, tolerance one erasure. Two overlapping
    // outages exceed what the code can decode around, so a plain get
    // fails, but the data is intact — retry-with-backoff advances the
    // clock past the windows and succeeds.
    let mut dfs = Dfs::new(4, ReedSolomon::new(2, 1, 64).unwrap());
    let data = TestRng::new(7).bytes(4_000);
    dfs.put("f", &data).unwrap();

    // Knock out two servers hosting blocks of group 0.
    let hosting: Vec<usize> = (0..4).filter(|&s| dfs.blocks_on(s) > 0).collect();
    dfs.begin_outage(hosting[0], 9);
    dfs.begin_outage(hosting[1], 9);
    assert_eq!(dfs.outage_count(), 2);
    assert!(matches!(
        dfs.server_health(hosting[0]),
        ServerHealth::Unavailable { until: 9 }
    ));

    // Unreadable right now — but flagged retryable, not data loss.
    assert!(matches!(dfs.get("f"), Err(DfsError::Unavailable { .. })));

    let patient = ReadOptions::full().with_retries(dfs.retry_limit());
    let whole = dfs.read("f", patient).unwrap();
    assert_eq!(whole.bytes, data);
    assert!(whole.stats.attempts > 1, "first attempt was blocked");
    assert!(
        dfs.clock() >= 9,
        "backoff advanced the clock past the window"
    );
    assert_eq!(dfs.outage_count(), 0);
    // Outage servers kept their blocks: nothing to repair.
    assert!(dfs.fsck().all_healthy());

    // Same deal for range reads.
    dfs.begin_outage(hosting[0], 4);
    dfs.begin_outage(hosting[1], 4);
    assert!(matches!(
        dfs.read("f", ReadOptions::range(10, 100)),
        Err(DfsError::Unavailable { .. })
    ));
    let patient = ReadOptions::range(10, 100).with_retries(dfs.retry_limit());
    let part = dfs.read("f", patient).unwrap();
    assert_eq!(part.bytes, data[10..110]);
    assert!(part.stats.attempts > 1);
}

#[test]
fn a_lost_parity_makes_every_read_of_its_group_degraded() {
    // "Degraded" is read off the survey, not off what the bytes asked
    // for needed: a patient range read over a group whose *parity* is
    // gone copies healthy data stripes and still enqueues the repair a
    // whole-object read would (it used to report a healthy read and
    // leave the group to the next scan).
    let parity = 5; // RS(4, 2): blocks 4 and 5 hold no original data
    for opts in [ReadOptions::range(3, 100), ReadOptions::full()] {
        let mut dfs = Dfs::new(8, ReedSolomon::new(4, 2, 64).unwrap());
        let data = TestRng::new(21).bytes(200);
        dfs.put("f", &data).unwrap();
        assert!(dfs.corrupt_stored("f", 0, parity));
        let read = dfs.read("f", opts.with_retries(1)).unwrap();
        assert_eq!(read.stats.degraded_reads, 1, "{opts:?}");
        assert_eq!(read.stats.repairs_queued, 1, "{opts:?}");
        assert_eq!(dfs.repair_queue_depth(), 1);
        assert_eq!(dfs.drain_repairs(usize::MAX).unwrap().repaired_groups, 1);
        assert!(dfs.fsck().all_healthy());
    }
}

#[test]
fn retry_budget_is_bounded() {
    let mut dfs = Dfs::new(4, ReedSolomon::new(2, 1, 64).unwrap());
    let data = TestRng::new(3).bytes(1_000);
    dfs.put("f", &data).unwrap();
    dfs.set_retry_limit(2);
    let hosting: Vec<usize> = (0..4).filter(|&s| dfs.blocks_on(s) > 0).collect();
    // Window far beyond what 2 retries (1 + 2 ticks) can wait out.
    dfs.begin_outage(hosting[0], 1_000);
    dfs.begin_outage(hosting[1], 1_000);
    assert!(matches!(
        dfs.read("f", ReadOptions::full().with_retries(dfs.retry_limit())),
        Err(DfsError::Unavailable { .. })
    ));
    assert!(dfs.clock() <= 3, "clock advanced only by the budget");
}

#[test]
fn repair_queue_heals_most_endangered_group_first() {
    // One group loses two blocks, another loses one: the queue must
    // rebuild the margin-poorer group first.
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 64).unwrap());
    let groups = {
        let msg = dfs.code().message_len();
        let data = TestRng::new(9).bytes(3 * msg);
        dfs.put("f", &data).unwrap();
        3
    };
    assert!(groups >= 2);
    assert!(dfs.corrupt_stored("f", 0, 0));
    assert!(dfs.corrupt_stored("f", 0, 4));
    assert!(dfs.corrupt_stored("f", 1, 2));

    assert_eq!(dfs.scan_endangered(), 2);
    // Drain exactly one entry: it must be group 0 (two lost blocks).
    let report = dfs.drain_repairs(1).unwrap();
    assert_eq!(report.repaired_groups, 1);
    let health = dfs.fsck();
    assert!(health.files[0].groups[0].is_readable());
    assert_eq!(
        health.files[0].groups[0],
        galloper_dfs::GroupHealth::Healthy,
        "most endangered group healed first"
    );
    assert_ne!(
        health.files[0].groups[1],
        galloper_dfs::GroupHealth::Healthy
    );

    // The rest drains on the next call.
    let report = dfs.drain_repairs(usize::MAX).unwrap();
    assert_eq!(report.repaired_groups, 1);
    assert!(dfs.fsck().all_healthy());
}

#[test]
fn blocked_repairs_requeue_until_the_outage_ends() {
    let mut dfs = Dfs::new(4, ReedSolomon::new(2, 1, 64).unwrap());
    // Shorter than one group's message so exactly one group exists.
    let data = TestRng::new(13).bytes(100);
    dfs.put("f", &data).unwrap();
    let hosting: Vec<usize> = (0..4).filter(|&s| dfs.blocks_on(s) > 0).collect();

    // One block gone for good, the other two transiently away: the
    // rebuild cannot decode until a window ends.
    dfs.fail_server(hosting[0]);
    dfs.begin_outage(hosting[1], 5);
    dfs.begin_outage(hosting[2], 5);
    assert_eq!(dfs.scan_endangered(), 1);
    let report = dfs.drain_repairs(usize::MAX).unwrap();
    assert_eq!(report.repaired_groups, 0);
    assert_eq!(report.requeued, 1);
    assert_eq!(report.summary.unrecoverable_groups, 0, "not data loss");
    assert_eq!(dfs.repair_queue_depth(), 1);

    // Window over: the queued entry now drains.
    dfs.advance_to(5);
    let report = dfs.drain_repairs(usize::MAX).unwrap();
    assert_eq!(report.repaired_groups, 1);
    assert_eq!(dfs.repair_queue_depth(), 0);
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("f").unwrap(), data);
}

#[test]
fn scheduled_plan_applies_on_the_clock() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = TestRng::new(17).bytes(20_000);
    dfs.put("f", &data).unwrap();
    dfs.schedule(
        &FaultPlan::new()
            .push(
                2,
                Fault::Outage {
                    server: 1,
                    ticks: 3,
                },
            )
            .push(
                4,
                Fault::Slow {
                    server: 2,
                    multiplier: 0.5,
                },
            )
            .push(6, Fault::Crash { server: 3 })
            .push(7, Fault::Corrupt { server: 0 }),
    );

    assert_eq!(dfs.advance_to(1), 0, "nothing due yet");
    assert_eq!(dfs.advance_to(2), 1);
    assert!(matches!(
        dfs.server_health(1),
        ServerHealth::Unavailable { until: 5 }
    ));
    assert_eq!(dfs.advance_to(4), 1);
    // Tick 5: the outage expires on its own.
    dfs.advance_to(5);
    assert_eq!(dfs.server_health(1), ServerHealth::Up);
    // Jumping the clock applies everything in between.
    assert_eq!(dfs.advance_to(100), 2);
    assert_eq!(dfs.server_health(3), ServerHealth::Down);

    // Crash + corruption: both healed by scan + drain, data intact.
    dfs.scan_endangered();
    dfs.drain_repairs(usize::MAX).unwrap();
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("f").unwrap(), data);
}

#[test]
fn read_range_overflow_is_out_of_range() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 64).unwrap());
    dfs.put("f", &[1u8; 5_000]).unwrap();
    assert!(matches!(
        dfs.read("f", ReadOptions::range(usize::MAX, 2)),
        Err(DfsError::OutOfRange { .. })
    ));
    assert!(matches!(
        dfs.read("f", ReadOptions::range(2, usize::MAX)),
        Err(DfsError::OutOfRange { .. })
    ));
}
