//! Randomized tests: a random sequence of DFS operations (puts,
//! aborted uploads, failures, corruption, repairs, revivals) never
//! loses data while failures stay within the code's tolerance window —
//! and the namespace's per-server block counts never drift from what
//! the stores hold.

use galloper::Galloper;
use galloper_dfs::{BlockStore, Dfs, DfsError};
use galloper_testkit::{run_cases, TestRng};

#[derive(Debug, Clone)]
enum Op {
    Put { len: usize },
    PutThenAbort { len: usize },
    FailOne,
    CorruptAndHeal,
    RepairAndRevive,
}

fn ops(rng: &mut TestRng) -> Vec<Op> {
    let n = rng.usize_in(1, 25);
    (0..n)
        .map(|_| match rng.usize_in(0, 5) {
            0 => Op::Put {
                len: rng.usize_in(1, 5_000),
            },
            1 => Op::PutThenAbort {
                len: rng.usize_in(1, 5_000),
            },
            2 => Op::FailOne,
            3 => Op::CorruptAndHeal,
            _ => Op::RepairAndRevive,
        })
        .collect()
}

#[test]
fn no_data_loss_within_tolerance() {
    run_cases(24, 0x71, |rng| {
        // (4, 2, 1): tolerance 2; we never leave more than 2 servers
        // failed without repairing.
        let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 64).unwrap());
        let mut contents: Vec<(String, Vec<u8>)> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();

        for (i, op) in ops(rng).into_iter().enumerate() {
            match op {
                Op::Put { len } => {
                    let name = format!("f{i}");
                    let data = rng.bytes(len);
                    dfs.put(&name, &data).unwrap();
                    contents.push((name, data));
                }
                Op::PutThenAbort { len } => {
                    let name = format!("f{i}");
                    let data = rng.bytes(len);
                    let split = rng.usize_in(0, len + 1);
                    dfs.put_begin(&name).unwrap();
                    dfs.put_append(&name, &data[..split]).unwrap();
                    dfs.put_append(&name, &data[split..]).unwrap();
                    assert!(dfs.put_abort(&name));
                    assert!(matches!(dfs.get(&name), Err(DfsError::NotFound(_))));
                }
                Op::FailOne => {
                    if failed.len() >= 2 {
                        continue; // stay within tolerance
                    }
                    let candidates: Vec<usize> = (0..12).filter(|s| !failed.contains(s)).collect();
                    let victim = candidates[rng.usize_in(0, candidates.len())];
                    dfs.fail_server(victim);
                    failed.push(victim);
                }
                Op::CorruptAndHeal => {
                    // One more lost block per group must stay within
                    // the tolerance of 2.
                    if failed.len() >= 2 || contents.is_empty() {
                        continue;
                    }
                    let (name, _) = &contents[rng.usize_in(0, contents.len())];
                    let groups = dfs.object_manifest(name).unwrap().num_groups;
                    let (group, block) = (rng.usize_in(0, groups), rng.usize_in(0, 7));
                    // Nothing to flip means the block went down with
                    // its server: either way the scan has work.
                    dfs.corrupt_stored(name, group, block);
                    assert!(dfs.scan_endangered() > 0);
                    let report = dfs.drain_repairs(usize::MAX).unwrap();
                    assert_eq!(report.unrecoverable, 0);
                    assert_eq!(dfs.repair_queue_depth(), 0);
                }
                Op::RepairAndRevive => {
                    for &s in &failed {
                        dfs.revive_server(s);
                    }
                    failed.clear();
                    let summary = dfs.repair().unwrap();
                    assert_eq!(summary.unrecoverable_groups, 0);
                    assert!(dfs.fsck().all_healthy());
                }
            }
            // Every file is readable at every step (degraded or not).
            for (name, data) in &contents {
                assert_eq!(&dfs.get(name).unwrap(), data, "{name} after op {i}");
            }
            // The books match the shelves: every block the namespace
            // counts on a server is in that server's store, and no more.
            for s in (0..12).filter(|&s| dfs.server_health(s).is_up()) {
                let shelved = dfs.store(s).scan_blocks().unwrap().len();
                assert_eq!(dfs.blocks_on(s), shelved, "server {s} after op {i}");
            }
        }
    });
}
