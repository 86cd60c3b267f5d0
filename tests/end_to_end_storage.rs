//! End-to-end storage pipeline: encode with each code family, place the
//! blocks on a simulated cluster, kill a server, execute the repair plan,
//! and verify that the bytes the plan's arithmetic produces are identical
//! to the lost block — i.e. the simulator's I/O accounting and the coding
//! layer agree about what a repair is.

use galloper_suite::codes::{Carousel, ErasureCode, Galloper, Pyramid, ReedSolomon};
use galloper_suite::sim::{simulate_server_failure, Cluster, Placement, ServerSpec};

fn sample(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(131) % 251) as u8)
        .collect()
}

fn check_code(name: &str, code: &dyn ErasureCode, block_mb: f64) {
    let n = code.num_blocks();
    let data = sample(code.message_len());
    let blocks = code.encode(&data).expect("encode");

    let cluster = Cluster::homogeneous(n + 2, ServerSpec::default());
    let placement = Placement::identity(n);
    let plans: Vec<_> = (0..n).map(|b| code.repair_plan(b).unwrap()).collect();

    for failed in 0..n {
        // Simulated recovery (timing + I/O accounting).
        let report = simulate_server_failure(&cluster, &placement, &plans, block_mb, failed, n + 1);
        assert_eq!(report.lost_blocks, vec![failed], "{name}");
        assert!(report.completion_secs > 0.0, "{name}");
        let expected_io = plans[failed].fan_in() as f64 * block_mb;
        assert!(
            (report.disk_read_mb - expected_io).abs() < 1e-9,
            "{name}: simulated I/O {} != plan I/O {}",
            report.disk_read_mb,
            expected_io
        );

        // Real arithmetic: the plan's sources reproduce the lost bytes.
        let sources: Vec<(usize, &[u8])> = plans[failed]
            .sources()
            .iter()
            .map(|&s| (s, blocks[s].as_slice()))
            .collect();
        let rebuilt = code.reconstruct(failed, &sources).expect("reconstruct");
        assert_eq!(rebuilt, blocks[failed], "{name}: block {failed} mismatch");
    }
}

#[test]
fn every_code_survives_single_server_loss() {
    let rs = ReedSolomon::new(4, 2, 4096).unwrap();
    check_code("reed-solomon", &rs, 45.0);
    let pyramid = Pyramid::new(4, 2, 1, 4096).unwrap();
    check_code("pyramid", &pyramid, 45.0);
    let galloper = Galloper::uniform(4, 2, 1, 1024).unwrap();
    check_code("galloper", &galloper, 45.0);
    let carousel = Carousel::new(4, 2, 1024).unwrap();
    check_code("carousel", &carousel, 45.0);
}

#[test]
fn locally_repairable_codes_recover_faster_and_cheaper() {
    // The Fig. 8 claim end to end: for a lost data block, Pyramid and
    // Galloper beat RS and Carousel in both time and bytes.
    let block_mb = 45.0;
    let cluster = Cluster::homogeneous(10, ServerSpec::default());

    let measure = |code: &dyn ErasureCode| {
        let n = code.num_blocks();
        let placement = Placement::identity(n);
        let plans: Vec<_> = (0..n).map(|b| code.repair_plan(b).unwrap()).collect();
        let report = simulate_server_failure(&cluster, &placement, &plans, block_mb, 0, n + 1);
        (report.completion_secs, report.disk_read_mb)
    };

    let rs = measure(&ReedSolomon::new(4, 2, 64).unwrap());
    let car = measure(&Carousel::new(4, 2, 64).unwrap());
    let pyr = measure(&Pyramid::new(4, 2, 1, 64).unwrap());
    let gal = measure(&Galloper::uniform(4, 2, 1, 64).unwrap());

    assert_eq!(rs.1, 180.0, "RS reads 4 x 45 MB");
    assert_eq!(car.1, 180.0, "Carousel repairs like RS");
    assert_eq!(pyr.1, 90.0, "Pyramid reads its group");
    assert_eq!(gal.1, 90.0, "Galloper reads its group");
    assert!(gal.0 < rs.0, "Galloper repair is faster than RS");
    assert!(
        (gal.0 - pyr.0).abs() < 1e-9,
        "Galloper repair time equals Pyramid"
    );
}

#[test]
fn fsck_repairs_an_encoded_directory_end_to_end() {
    // The operator's recovery path: encode to disk, suffer a mix of
    // missing and truncated block files, run `galloper fsck --repair`,
    // and get back a byte-identical, fully healthy directory.
    use galloper_cli::{decode_file, encode_file, fsck, CodeSpec};
    use std::fs;

    let dir = std::env::temp_dir().join(format!("galloper-e2e-fsck-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.bin");
    let data = sample(120_000);
    fs::write(&input, &data).unwrap();

    let out = dir.join("encoded");
    encode_file(&input, &out, &CodeSpec::galloper(4, 2, 1, 2048)).unwrap();

    // Damage within tolerance: one block gone, another truncated.
    fs::remove_file(out.join("block_0.bin")).unwrap();
    fs::write(out.join("block_5.bin"), b"torn write").unwrap();

    let (report, healthy) = fsck(&out, false).unwrap();
    assert!(!healthy, "report-only fsck must flag the damage: {report}");

    let (report, healthy) = fsck(&out, true).unwrap();
    assert!(healthy, "{report}");
    assert!(report.contains("fully healthy"), "{report}");

    let restored = dir.join("restored.bin");
    decode_file(&out, &restored).unwrap();
    assert_eq!(fs::read(&restored).unwrap(), data);
    // A second pass finds nothing to do.
    let (report, healthy) = fsck(&out, true).unwrap();
    assert!(healthy);
    assert!(!report.contains("rebuilt"), "{report}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fsck_and_dfs_repair_rebuild_every_pattern_alike() {
    // One rebuild core, two callers: for every pattern of up to one loss
    // past Galloper(4, 2, 1)'s tolerance, `galloper fsck --repair` on the
    // block files and `Dfs::repair` on the same object's blocks split the
    // rebuild the same way between local plans and decode, every block
    // file the pass writes is the encoder's, and no temporary is left.
    use galloper_cli::{build_code, encode_file, fsck, CodeSpec};
    use galloper_suite::dfs::Dfs;
    use std::fs;

    let spec = CodeSpec::galloper(4, 2, 1, 64);
    let code = build_code(&spec).unwrap();
    let (n, tolerance) = (code.num_blocks(), 2);
    let data = sample(code.message_len() + 1_000);
    let root = std::env::temp_dir().join(format!("galloper-e2e-rebuild-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let input = root.join("input.bin");
    fs::write(&input, &data).unwrap();
    let pristine = root.join("pristine");
    let groups = encode_file(&input, &pristine, &spec).unwrap().num_groups;
    let block = |dir: &std::path::Path, b: usize| dir.join(format!("block_{b}.bin"));
    let originals: Vec<Vec<u8>> = (0..n)
        .map(|b| fs::read(block(&pristine, b)).unwrap())
        .collect();

    for size in 1..=tolerance + 1 {
        for lost in galloper_pyramid::subsets(n, size) {
            let dir = root.join("work");
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::copy(
                pristine.join("object.manifest"),
                dir.join("object.manifest"),
            )
            .unwrap();
            for b in (0..n).filter(|b| !lost.contains(b)) {
                fs::copy(block(&pristine, b), block(&dir, b)).unwrap();
            }
            let (report, healthy) = fsck(&dir, true).unwrap();
            let local = report.matches("rebuilt locally").count();
            let decoded = report.matches("rebuilt via full decode").count();

            let mut dfs = Dfs::new(10, build_code(&spec).unwrap());
            dfs.put("x", &data).unwrap();
            for g in 0..groups {
                for &b in &lost {
                    assert!(dfs.corrupt_stored("x", g, b));
                }
            }
            let summary = dfs.repair().unwrap();
            assert_eq!(
                summary.repaired_locally,
                groups * local,
                "{lost:?}: {report}"
            );
            assert_eq!(
                summary.repaired_via_decode,
                groups * decoded,
                "{lost:?}: {report}"
            );
            assert_eq!(
                summary.unrecoverable_groups == 0,
                healthy,
                "{lost:?}: {report}"
            );
            if healthy {
                assert_eq!(dfs.get("x").unwrap(), data, "{lost:?}");
            }

            for (b, original) in originals.iter().enumerate() {
                match fs::read(block(&dir, b)) {
                    Ok(bytes) => assert_eq!(&bytes, original, "{lost:?}: block {b}"),
                    Err(_) => assert!(!healthy && lost.contains(&b), "{lost:?}: block {b}"),
                }
            }
            let names: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            assert!(
                names
                    .iter()
                    .all(|f| f == "object.manifest"
                        || (f.starts_with("block_") && f.ends_with(".bin"))),
                "{lost:?}: {names:?}"
            );
        }
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn multi_failure_recovery_via_decode() {
    // Two servers die: beyond single-block repair, so recover through a
    // full decode and re-encode, then verify every rebuilt block.
    let code = Galloper::uniform(4, 2, 1, 2048).unwrap();
    let data = sample(code.message_len());
    let blocks = code.encode(&data).unwrap();

    for (a, b) in [(0usize, 3usize), (2, 6), (1, 5)] {
        let avail: Vec<Option<&[u8]>> = (0..7)
            .map(|i| (i != a && i != b).then(|| blocks[i].as_slice()))
            .collect();
        let recovered = code.decode(&avail).expect("decode under double failure");
        assert_eq!(recovered, data);
        let reencoded = code.encode(&recovered).unwrap();
        assert_eq!(reencoded[a], blocks[a]);
        assert_eq!(reencoded[b], blocks[b]);
    }
}
