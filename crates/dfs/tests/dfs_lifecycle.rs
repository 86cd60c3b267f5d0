//! Lifecycle tests for the erasure-coded DFS: put/get under failures,
//! repair accounting across code families, and fsck reporting.

use std::cell::Cell;
use std::rc::Rc;

use galloper::Galloper;
use galloper_dfs::{
    BlockGet, BlockKey, BlockStore, Dfs, DfsError, ErasureCode, GroupHealth, MemStore, ReadOptions,
    StoreError, StoreHealth,
};
use galloper_pyramid::Pyramid;
use galloper_rs::ReedSolomon;
use galloper_testkit::TestRng;

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    TestRng::new(seed).bytes(len)
}

#[test]
fn put_get_roundtrip_multiple_files() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 512).unwrap());
    let files: Vec<(String, Vec<u8>)> = (0..5)
        .map(|i| (format!("f{i}"), random_data(10_000 + i * 3_777, i as u64)))
        .collect();
    for (name, data) in &files {
        dfs.put(name, data).unwrap();
    }
    for (name, data) in &files {
        assert_eq!(&dfs.get(name).unwrap(), data, "{name}");
    }
    assert!(dfs.fsck().all_healthy());
    // Duplicate names are rejected.
    assert!(matches!(
        dfs.put("f0", b"x"),
        Err(DfsError::AlreadyExists(_))
    ));
    assert!(matches!(dfs.get("missing"), Err(DfsError::NotFound(_))));
}

#[test]
fn degraded_reads_survive_g_plus_one_failures() {
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = random_data(50_000, 7);
    dfs.put("a", &data).unwrap();
    // Fail two servers (g + 1 = 2 tolerance per group).
    dfs.fail_server(0);
    dfs.fail_server(5);
    assert_eq!(dfs.get("a").unwrap(), data);
    let report = dfs.fsck();
    assert!(!report.all_healthy());
    assert!(report.data_loss().is_empty());
}

#[test]
fn repair_restores_full_health_and_accounts_io() {
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = random_data(40_000, 9);
    dfs.put("a", &data).unwrap();
    dfs.fail_server(2);
    let summary = dfs.repair().unwrap();
    assert!(summary.repaired_locally > 0);
    assert_eq!(summary.unrecoverable_groups, 0);
    assert!(summary.bytes_read > 0);
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("a").unwrap(), data);
    // A second repair is a no-op.
    let again = dfs.repair().unwrap();
    assert_eq!(again.bytes_read, 0);
}

#[test]
fn repair_bills_galloper_less_than_rs() {
    // The Fig. 8 economics at DFS scale: same data, one failed server,
    // compare total repair bytes.
    let data = random_data(200_000, 11);

    let mut gal = Dfs::new(12, Galloper::uniform(4, 2, 1, 1024).unwrap());
    gal.put("a", &data).unwrap();
    let victim = {
        // Fail a server that actually holds blocks.
        (0..12).find(|&s| gal.blocks_on(s) > 0).unwrap()
    };
    gal.fail_server(victim);
    let gal_summary = gal.repair().unwrap();

    let mut rs = Dfs::new(12, ReedSolomon::new(4, 2, 7 * 1024).unwrap());
    rs.put("a", &data).unwrap();
    let victim = (0..12).find(|&s| rs.blocks_on(s) > 0).unwrap();
    rs.fail_server(victim);
    let rs_summary = rs.repair().unwrap();

    assert!(
        gal_summary.bytes_read < rs_summary.bytes_read,
        "galloper {} bytes vs rs {}",
        gal_summary.bytes_read,
        rs_summary.bytes_read
    );
}

#[test]
fn decode_fallback_when_repair_sources_lost() {
    // Fail two servers hosting blocks of the same group: at least one
    // lost block's plan depends on the other lost block, forcing the
    // decode path.
    let mut dfs = Dfs::new(9, Pyramid::new(4, 2, 1, 512).unwrap());
    let data = random_data(14_336, 13); // exactly one group (4 * 512 * 7)?
    dfs.put("a", &data).unwrap();
    // Find the two servers hosting blocks 0 and 1 (same group) of group 0.
    // Placement is internal; brute-force: fail server pairs until the
    // summary shows a decode-path repair, then verify integrity.
    let mut saw_decode = false;
    'outer: for s1 in 0..9 {
        for s2 in (s1 + 1)..9 {
            let mut trial = Dfs::new(9, Pyramid::new(4, 2, 1, 512).unwrap());
            trial.put("a", &data).unwrap();
            if trial.blocks_on(s1) == 0 || trial.blocks_on(s2) == 0 {
                continue;
            }
            trial.fail_server(s1);
            trial.fail_server(s2);
            let summary = trial.repair().unwrap();
            assert_eq!(summary.unrecoverable_groups, 0);
            assert_eq!(trial.get("a").unwrap(), data);
            assert!(trial.fsck().all_healthy());
            if summary.repaired_via_decode > 0 {
                saw_decode = true;
                break 'outer;
            }
        }
    }
    assert!(saw_decode, "some double failure must hit the decode path");
}

#[test]
fn repair_chains_local_plans_before_decoding() {
    // Blocks 0 and 6 of one Galloper(4, 2, 1) group: block 6's plan
    // reads block 0, so it waits for 0's local rebuild instead of sending
    // the group to decode — 4 distinct blocks read, where plan-by-plan
    // repair with a decode fallback read 6.
    let code = Galloper::uniform(4, 2, 1, 256).unwrap();
    let block_len = code.block_len();
    let data = random_data(code.message_len(), 43);
    let mut dfs = Dfs::new(10, code);
    dfs.put("a", &data).unwrap();
    assert!(dfs.corrupt_stored("a", 0, 0));
    assert!(dfs.corrupt_stored("a", 0, 6));
    let summary = dfs.repair().unwrap();
    assert_eq!(summary.repaired_locally, 2);
    assert_eq!(summary.repaired_via_decode, 0);
    assert_eq!(summary.bytes_read, 4 * block_len);
    for server in 0..dfs.num_servers() {
        assert_eq!(
            shelved(&dfs, server),
            dfs.blocks_on(server),
            "server {server}: books != shelves"
        );
    }
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("a").unwrap(), data);
}

#[test]
fn unrecoverable_groups_are_reported_not_destroyed() {
    let mut dfs = Dfs::new(12, ReedSolomon::new(4, 2, 512).unwrap());
    let data = random_data(8_192, 17);
    dfs.put("a", &data).unwrap();
    // Fail three block-hosting servers: more than r = 2 tolerance.
    let mut failed = 0;
    for s in 0..12 {
        if dfs.blocks_on(s) > 0 && failed < 3 {
            dfs.fail_server(s);
            failed += 1;
        }
    }
    assert!(matches!(dfs.get("a"), Err(DfsError::DataLoss { .. })));
    let summary = dfs.repair().unwrap();
    assert!(summary.unrecoverable_groups > 0);
    let report = dfs.fsck();
    assert!(!report.data_loss().is_empty());
    assert!(matches!(
        report.files[0].groups[0],
        GroupHealth::Unrecoverable { lost: 3 }
    ));
}

#[test]
fn range_reads_through_dfs() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = random_data(30_000, 19);
    dfs.put("a", &data).unwrap();
    dfs.fail_server(1);
    for (offset, len) in [
        (0usize, 100usize),
        (3_583, 4_097),
        (29_990, 10),
        (0, 30_000),
    ] {
        assert_eq!(
            dfs.read("a", ReadOptions::range(offset, len))
                .unwrap()
                .bytes,
            &data[offset..offset + len],
            "{offset}+{len}"
        );
    }
    assert!(matches!(
        dfs.read("a", ReadOptions::range(29_999, 2)),
        Err(DfsError::OutOfRange { .. })
    ));
}

#[test]
fn every_entry_point_reads_the_same_bytes_under_every_tolerated_failure() {
    // One read core, so one answer: on a ragged 3-group object whose
    // every group has a block on every server, for every pattern of up
    // to g + 1 = 2 failed servers, `get`, the `read_groups` windows, the
    // whole-object `read` and range `read`s at stripe- and
    // group-straddling offsets all return the data.
    let code = || Galloper::uniform(4, 2, 1, 4).unwrap();
    let (n, msg) = (code().num_blocks(), code().message_len());
    let data = random_data(2 * msg + 9, 23);
    let ranges = [
        (0, 1),
        (3, 2),
        (msg - 5, 10),
        (msg + 2, msg + 3),
        (2 * msg - 1, 10),
        (data.len(), 0),
    ];
    for size in 0..=2 {
        for failed in galloper_pyramid::subsets(n, size) {
            let mut dfs = Dfs::new(n, code());
            dfs.put("x", &data).unwrap();
            failed.iter().for_each(|&s| dfs.fail_server(s));
            assert_eq!(dfs.get("x").unwrap(), data, "{failed:?}");
            for window in 1..=3 {
                let mut windowed = Vec::new();
                for g in (0..3).step_by(window) {
                    windowed.extend(dfs.read_groups("x", g, window).unwrap());
                }
                assert_eq!(windowed, data, "{failed:?} window={window}");
            }
            let full = dfs.read("x", ReadOptions::full()).unwrap();
            assert_eq!(full.bytes, data, "{failed:?}");
            assert_eq!(full.stats.degraded_reads, if size == 0 { 0 } else { 3 });
            for (offset, len) in ranges {
                let part = dfs.read("x", ReadOptions::range(offset, len)).unwrap();
                assert_eq!(
                    part.bytes,
                    data[offset..offset + len],
                    "{failed:?} {offset}+{len}"
                );
            }
        }
    }
}

#[test]
fn placement_balances_load() {
    let mut dfs = Dfs::new(14, Galloper::uniform(4, 2, 1, 64).unwrap());
    for i in 0..20 {
        dfs.put(&format!("f{i}"), &random_data(4_000, i as u64))
            .unwrap();
    }
    let counts: Vec<usize> = (0..14).map(|s| dfs.blocks_on(s)).collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(max - min <= 2, "placement should balance: {counts:?}");
}

#[test]
fn revive_brings_back_capacity_not_data() {
    let mut dfs = Dfs::new(7, Galloper::uniform(4, 2, 1, 64).unwrap());
    let data = random_data(5_000, 23);
    dfs.put("a", &data).unwrap();
    dfs.fail_server(3);
    assert_eq!(dfs.live_servers(), 6);
    // With only 6 live servers and 7 blocks per group, repair cannot
    // re-place everything...
    assert!(matches!(dfs.repair(), Err(DfsError::NotEnoughServers)));
    // ...until the machine is replaced (empty).
    dfs.revive_server(3);
    assert_eq!(shelved(&dfs, 3), 0);
    let summary = dfs.repair().unwrap();
    assert!(summary.repaired_locally > 0);
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("a").unwrap(), data);
}

/// Blocks actually sitting in one server's store — the shelves, as
/// opposed to the namespace's books ([`Dfs::blocks_on`]).
fn shelved<C: ErasureCode, S: BlockStore>(dfs: &Dfs<C, S>, server: usize) -> usize {
    dfs.store(server).scan_blocks().unwrap().len()
}

/// Every block on every server, in a canonical order: equal snapshots
/// mean equal placements *and* equal stored bytes.
fn stored_blocks<S: BlockStore>(dfs: &Dfs<Galloper, S>) -> Vec<(usize, BlockKey, Vec<u8>)> {
    let mut all = Vec::new();
    for server in 0..dfs.num_servers() {
        let store = dfs.store(server);
        for key in store.scan_blocks().unwrap() {
            match store.get_block(key).unwrap() {
                BlockGet::Ok(bytes) => all.push((server, key, bytes)),
                other => panic!("server {server} {key}: {other:?}"),
            }
        }
    }
    all.sort();
    all
}

#[test]
fn chunked_put_matches_oneshot_and_hides_until_commit() {
    let code = || Galloper::uniform(4, 2, 1, 4).unwrap();
    let msg = code().message_len();
    let staged = |pieces: &[&[u8]]| {
        let mut dfs = Dfs::new(10, code());
        dfs.put_begin("x").unwrap();
        // Open uploads are invisible to reads and block duplicate names.
        assert!(matches!(dfs.get("x"), Err(DfsError::NotFound(_))));
        assert!(matches!(
            dfs.put("x", b"y"),
            Err(DfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            dfs.put_begin("x"),
            Err(DfsError::AlreadyExists(_))
        ));
        for piece in pieces {
            dfs.put_append("x", piece).unwrap();
        }
        dfs.put_commit("x").unwrap();
        dfs
    };
    // Ragged sizes around group boundaries.
    for len in [0, 1, msg - 1, msg, msg + 1, 3 * msg + 7] {
        let data = random_data(len, len as u64);
        let mut oneshot = Dfs::new(10, code());
        oneshot.put("x", &data).unwrap();
        let manifest = oneshot.object_manifest("x").unwrap();
        assert_eq!(manifest.object_len, len);
        assert_eq!(manifest.num_groups, len.div_ceil(msg).max(1), "len={len}");
        let reference = stored_blocks(&oneshot);

        // One path, however the bytes arrive: every two-piece split,
        // and awkward fixed chunk sizes, store exactly what `put` did.
        for split in 0..=len {
            let dfs = staged(&[&data[..split], &data[split..]]);
            assert_eq!(dfs.object_manifest("x").unwrap(), manifest);
            assert_eq!(stored_blocks(&dfs), reference, "len={len} split={split}");
        }
        for chunk in [1, 7, msg] {
            let pieces: Vec<&[u8]> = data.chunks(chunk).collect();
            let dfs = staged(&pieces);
            assert_eq!(stored_blocks(&dfs), reference, "len={len} chunk={chunk}");
        }

        // One read loop, however it is reached — healthy, then with
        // g + 1 = 2 servers gone.
        for degraded in [false, true] {
            if degraded {
                oneshot.fail_server(0);
                oneshot.fail_server(1);
            }
            assert_eq!(oneshot.get("x").unwrap(), data, "len={len} {degraded}");
            let mut windowed = Vec::new();
            for g in (0..manifest.num_groups).step_by(2) {
                windowed.extend(oneshot.read_groups("x", g, 2).unwrap());
            }
            assert_eq!(windowed, data, "len={len} {degraded}");
            let full = oneshot.read("x", ReadOptions::full()).unwrap();
            assert_eq!(full.bytes, data, "len={len} {degraded}");
            // Re-pinned (was `== num_groups`): `stripes_read` counts
            // coding stripes on every entry point, not groups — a
            // healthy read touches exactly the home stripes of its
            // bytes, a degraded one the repair sources besides.
            let stripe_size = code().block_len() / code().layout().stripes_per_block();
            let stats = full.stats;
            assert_eq!(stats.bytes_read, stats.stripes_read * stripe_size);
            if degraded {
                assert!(stats.stripes_read >= len.div_ceil(stripe_size));
            } else {
                assert_eq!(stats.stripes_read, len.div_ceil(stripe_size), "len={len}");
            }
            // Re-pinned (was `== degraded`): a read of zero bytes
            // surveys no group, so it has none to call degraded.
            assert_eq!(stats.degraded_reads > 0, degraded && len > 0, "len={len}");
        }
        if len == 0 {
            // No data, so nothing to lose: the empty object reads with
            // every server gone, where a padded-group decode would
            // report `DataLoss`.
            (0..oneshot.num_servers()).for_each(|s| oneshot.fail_server(s));
            assert_eq!(oneshot.get("x").unwrap(), Vec::<u8>::new());
            assert_eq!(oneshot.read_groups("x", 0, 1).unwrap(), Vec::<u8>::new());
            let full = oneshot.read("x", ReadOptions::full()).unwrap();
            assert_eq!((full.bytes.len(), full.stats.stripes_read), (0, 0));
        }
    }
}

/// Store calls one [`FlakyStore`] cluster has received, by verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Calls {
    put: usize,
    get: usize,
    delete: usize,
    scan: usize,
    probe: usize,
    wipe: usize,
}

/// A [`MemStore`] that counts every call cluster-wide, and whose
/// cluster-wide `fail_at`-th `put_block` fails — a daemon dropping off
/// mid-write (`0` = never).
struct FlakyStore {
    inner: MemStore,
    calls: Rc<Cell<Calls>>,
    fail_at: usize,
}

impl FlakyStore {
    fn cluster(servers: usize, fail_at: usize) -> (Vec<FlakyStore>, Rc<Cell<Calls>>) {
        let calls = Rc::new(Cell::new(Calls::default()));
        let stores = (0..servers)
            .map(|_| FlakyStore {
                inner: MemStore::new(),
                calls: Rc::clone(&calls),
                fail_at,
            })
            .collect();
        (stores, calls)
    }

    fn count(&self, bump: impl FnOnce(&mut Calls)) -> Calls {
        let mut calls = self.calls.get();
        bump(&mut calls);
        self.calls.set(calls);
        calls
    }
}

impl BlockStore for FlakyStore {
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError> {
        if self.count(|c| c.put += 1).put == self.fail_at {
            return Err(StoreError::Unreachable("injected".into()));
        }
        self.inner.put_block(key, bytes)
    }
    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError> {
        self.count(|c| c.get += 1);
        self.inner.get_block(key)
    }
    fn delete_block(&mut self, key: BlockKey) -> Result<bool, StoreError> {
        self.count(|c| c.delete += 1);
        self.inner.delete_block(key)
    }
    fn scan_blocks(&self) -> Result<Vec<BlockKey>, StoreError> {
        self.count(|c| c.scan += 1);
        self.inner.scan_blocks()
    }
    fn wipe(&mut self) {
        self.count(|c| c.wipe += 1);
        self.inner.wipe()
    }
    fn probe(&self) -> Result<StoreHealth, StoreError> {
        self.count(|c| c.probe += 1);
        self.inner.probe()
    }
}

#[test]
fn failed_put_leaves_no_blocks_and_frees_the_name() {
    let code = Galloper::uniform(4, 2, 1, 4).unwrap();
    let (n, msg) = (code.num_blocks(), code.message_len());
    let data = random_data(3 * msg + 7, 3);
    // Partway through group 2: groups 0 and 1 are fully stored.
    let (stores, calls) = FlakyStore::cluster(10, 2 * n + 3);
    let mut dfs = Dfs::with_stores(stores, code);

    assert!(matches!(dfs.put("a", &data), Err(DfsError::Store(_))));
    assert_eq!(calls.get().put, 2 * n + 3, "the put stopped at the failure");
    for server in 0..10 {
        assert_eq!(shelved(&dfs, server), 0, "server {server} kept blocks");
        assert_eq!(
            dfs.blocks_on(server),
            0,
            "server {server}: books != shelves"
        );
    }
    assert!(matches!(dfs.get("a"), Err(DfsError::NotFound(_))));

    // The name is free, and the retry does not reuse the failed
    // attempt's file id (its block keys).
    dfs.put("a", &data).unwrap();
    assert!(stored_blocks(&dfs).iter().all(|(_, key, _)| key.file == 1));
    assert_eq!(dfs.get("a").unwrap(), data);
    assert!(dfs.fsck().all_healthy());
}

/// The data path is the blocks and nothing else: the namespace places
/// from its own counts and decides everything about a group from one
/// survey, so the stores see exactly one call per block moved.
#[test]
fn store_traffic_is_one_call_per_block_moved() {
    let code = Galloper::uniform(4, 2, 1, 4).unwrap();
    let (n, groups) = (code.num_blocks(), 3);
    let data = random_data(groups * code.message_len(), 41);
    // One server per block of a group, so every group keeps a block on
    // every server and any crash damages all of them.
    let (stores, calls) = FlakyStore::cluster(n, 0);
    let mut dfs = Dfs::with_stores(stores, code);

    let before = calls.get();
    dfs.put("a", &data).unwrap();
    let put = before.put + groups * n;
    assert_eq!(calls.get(), Calls { put, ..before }, "healthy put");

    let before = calls.get();
    assert_eq!(dfs.get("a").unwrap(), data);
    let get = before.get + groups * n;
    assert_eq!(calls.get(), Calls { get, ..before }, "healthy get");

    // One lost block per group, rebuilt onto the revived (empty)
    // server from the bytes the survey fetched: no second fetch of the
    // plan sources.
    dfs.fail_server(2);
    dfs.revive_server(2);
    let before = calls.get();
    let summary = dfs.repair().unwrap();
    assert_eq!(summary.repaired_locally, groups);
    // At most n fetches per damaged group: exactly the survey's.
    let moved = Calls {
        get: before.get + groups * n,
        put: before.put + groups,
        delete: before.delete + groups,
        ..before
    };
    assert_eq!(calls.get(), moved, "repair");
    assert_eq!(dfs.get("a").unwrap(), data);
}

#[test]
fn chunked_put_survives_failures_like_oneshot() {
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = random_data(60_000, 31);
    dfs.put_begin("a").unwrap();
    for piece in data.chunks(9_000) {
        dfs.put_append("a", piece).unwrap();
    }
    dfs.put_commit("a").unwrap();
    dfs.fail_server(1);
    dfs.fail_server(6);
    assert_eq!(dfs.get("a").unwrap(), data, "degraded whole read");
    let groups = dfs.object_manifest("a").unwrap().num_groups;
    assert_eq!(dfs.read_groups("a", 0, groups).unwrap(), data);
    dfs.repair().unwrap();
    assert!(dfs.fsck().all_healthy());
}

#[test]
fn put_abort_reclaims_blocks_and_frees_the_name() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = random_data(20_000, 5);
    dfs.put_begin("a").unwrap();
    dfs.put_append("a", &data).unwrap();
    let stored: usize = (0..10).map(|s| shelved(&dfs, s)).sum();
    assert!(stored > 0, "groups were placed before the abort");
    assert!(dfs.put_abort("a"));
    assert!(!dfs.put_abort("a"), "second abort is a no-op");
    let after: usize = (0..10).map(|s| shelved(&dfs, s)).sum();
    assert_eq!(after, 0, "aborted upload leaves no blocks behind");
    // The name is free again.
    dfs.put("a", &data).unwrap();
    assert_eq!(dfs.get("a").unwrap(), data);
    // Committing or appending to a never-opened name fails cleanly.
    assert!(matches!(
        dfs.put_append("b", b"x"),
        Err(DfsError::NotFound(_))
    ));
    assert!(matches!(dfs.put_commit("b"), Err(DfsError::NotFound(_))));
    // read_groups past the end is OutOfRange.
    let groups = dfs.object_manifest("a").unwrap().num_groups;
    assert!(matches!(
        dfs.read_groups("a", groups + 1, 1),
        Err(DfsError::OutOfRange { .. })
    ));
}
