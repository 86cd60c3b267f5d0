//! Property tests for the degraded-read accounting invariant: whenever a
//! range read succeeds, `bytes_read` is exactly `stripes_read` stripes'
//! worth — no matter the code family, which blocks are erased, or where
//! the range falls. This pins the contract the DFS repair-bill metrics
//! and the paper's disk-I/O comparisons are built on.

use galloper_suite::codes::{
    build_code, Carousel, CodeError, CodeSpec, ErasureCode, Galloper, LinearCode, Pyramid,
    RebuildPlan, ReedSolomon,
};
use galloper_testkit::{run_cases, TestRng};

fn families() -> Vec<(&'static str, LinearCode)> {
    vec![
        (
            "rs",
            ReedSolomon::new(4, 2, 256).unwrap().as_linear().clone(),
        ),
        (
            "pyramid",
            Pyramid::new(4, 2, 1, 256).unwrap().as_linear().clone(),
        ),
        (
            "carousel",
            Carousel::new(4, 2, 128).unwrap().as_linear().clone(),
        ),
        (
            "galloper",
            Galloper::uniform(4, 2, 1, 128).unwrap().as_linear().clone(),
        ),
    ]
}

#[test]
fn bytes_read_is_stripes_read_times_stripe_size_everywhere() {
    let families = families();
    run_cases(60, 0x5EED_57A7, |rng| {
        for (name, code) in &families {
            let n = code.num_blocks();
            let data: Vec<u8> = rng.bytes(code.message_len());
            let blocks = code.encode(&data).unwrap();

            // Anything from a healthy read to more erasures than the
            // code tolerates — undecodable cases must error, not lie.
            let take = rng.usize_in(0, n + 1);
            let erased = rng.sample_indices(n, take);
            let avail: Vec<Option<&[u8]>> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (!erased.contains(&i)).then_some(b.as_slice()))
                .collect();

            let offset = rng.usize_in(0, code.message_len());
            let len = rng.usize_in(0, code.message_len() - offset + 1);
            match code.read_range(offset, len, &avail) {
                Ok((bytes, stats)) => {
                    assert_eq!(
                        bytes,
                        &data[offset..offset + len],
                        "{name} erased={erased:?} {offset}+{len}: wrong bytes"
                    );
                    assert_eq!(
                        stats.bytes_read,
                        stats.stripes_read * code.stripe_size(),
                        "{name} erased={erased:?} {offset}+{len}: \
                         accounting out of step (degraded={} full_decode={})",
                        stats.degraded,
                        stats.full_decode
                    );
                    assert!(
                        stats.bytes_read >= len,
                        "{name}: read fewer bytes than returned"
                    );
                    if erased.is_empty() {
                        assert!(!stats.degraded, "{name}: healthy read marked degraded");
                        assert!(!stats.full_decode);
                    }
                }
                Err(_) => {
                    // Only acceptable when blocks actually are missing.
                    assert!(
                        !erased.is_empty(),
                        "{name}: healthy read must not fail ({offset}+{len})"
                    );
                }
            }
        }
    });
}

/// The group as a reader sees it with the `erased` blocks gone.
fn without<'a>(blocks: &'a [Vec<u8>], erased: &[usize]) -> Vec<Option<&'a [u8]>> {
    let kept = blocks.iter().enumerate();
    kept.map(|(b, block)| (!erased.contains(&b)).then_some(block.as_slice()))
        .collect()
}

#[test]
fn single_loss_reads_touch_exactly_the_home_stripes_and_the_planned_source_stripes() {
    // What a whole-message read fetches with one block lost, stripe for
    // stripe: every data stripe still at home, plus — per data stripe of
    // the lost block — the source stripes its repair row has a non-zero
    // coefficient for. Nothing else, and no decode.
    for (name, code) in families() {
        let (n, big_n, layout) = (code.num_blocks(), code.stripes_per_block(), code.layout());
        let data: Vec<u8> = TestRng::new(0x0A11).bytes(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for lost in 0..n {
            let mut expect = std::collections::BTreeSet::new();
            for b in (0..n).filter(|&b| b != lost) {
                expect.extend((0..layout.data_stripes(b)).map(|pos| (b, pos)));
            }
            let sources = code.repair_plan(lost).unwrap().sources().to_vec();
            for pos in 0..layout.data_stripes(lost) {
                let row = code.repair_matrix(lost).row(pos);
                let used = (0..row.len()).filter(|&j| row[j] != 0);
                expect.extend(used.map(|j| (sources[j / big_n], j % big_n)));
            }
            let avail = without(&blocks, &[lost]);
            let (bytes, stats) = code.read_range(0, data.len(), &avail).unwrap();
            assert_eq!(bytes, data, "{name} lost={lost}");
            assert!(!stats.full_decode, "{name} lost={lost}");
            assert_eq!(stats.stripes_read, expect.len(), "{name} lost={lost}");
        }
    }
}

/// All five `build_code` families, each with the losses it tolerates.
fn families_with_tolerance() -> [(CodeSpec, usize); 5] {
    [
        (CodeSpec::rs(4, 2, 64), 2),
        (CodeSpec::pyramid(4, 2, 1, 64), 2),
        (CodeSpec::carousel(4, 2, 16), 2),
        (CodeSpec::galloper(4, 2, 1, 16), 2),
        (CodeSpec::galloper_asl(4, 2, 2, 16), 3),
    ]
}

#[test]
fn every_loss_pattern_reads_what_the_decode_oracle_decodes() {
    // `decode` is the independent oracle: over every pattern of up to
    // one loss more than each family tolerates, a whole-message read
    // succeeds exactly where a decode does — byte-exact inside the
    // tolerance, `Undecodable` (never wrong bytes) beyond it.
    for (spec, tolerance) in families_with_tolerance() {
        let name = spec.family.clone();
        let code = build_code(&spec).unwrap();
        let (n, msg) = (code.num_blocks(), code.message_len());
        let data: Vec<u8> = TestRng::new(0x0DEC).bytes(msg);
        let blocks = code.encode(&data).unwrap();
        for size in 0..=tolerance + 1 {
            for erased in galloper_pyramid::subsets(n, size) {
                let avail = without(&blocks, &erased);
                let oracle = code.decode(&avail);
                assert!(size > tolerance || oracle.is_ok(), "{name} {erased:?}");
                let mut out = Vec::new();
                match (code.read_range_into(0, msg, &avail, &mut out), oracle) {
                    (Ok(_), Ok(decoded)) => {
                        assert_eq!(decoded, data, "{name} {erased:?}: oracle");
                        assert_eq!(out, data, "{name} {erased:?}: read");
                    }
                    (Err(CodeError::Undecodable { .. }), Err(_)) => {
                        assert!(out.is_empty(), "{name} {erased:?}: bytes on error");
                    }
                    (read, oracle) => panic!(
                        "{name} {erased:?}: read {:?} but decode {:?}",
                        read.map(|_| ()),
                        oracle.map(|_| ())
                    ),
                }
            }
        }
    }
}

#[test]
fn every_loss_pattern_rebuilds_what_the_encoder_wrote() {
    // The rebuild guarantee, over every pattern of up to two losses more
    // than each family tolerates: a plan fed only the blocks it says it
    // reads returns every block it rebuilds byte-identical to the
    // encoder's; a single loss reads exactly its repair plan's sources;
    // and what the present blocks cannot determine is reported as
    // stranded, never invented — while the blocks local plans still
    // reach are rebuilt beside it. (That needs two losses past the
    // tolerance: with one, a locally rebuilt block leaves a tolerated
    // pattern, so nothing is stranded.)
    let mut local_beside_stranded = 0;
    for (spec, tolerance) in families_with_tolerance() {
        let name = spec.family.clone();
        let code = build_code(&spec).unwrap();
        let n = code.num_blocks();
        let data: Vec<u8> = TestRng::new(0x4EB1).bytes(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for size in 0..=tolerance + 2 {
            for lost in galloper_pyramid::subsets(n, size) {
                let present: Vec<bool> = (0..n).map(|b| !lost.contains(&b)).collect();
                let plan = RebuildPlan::new(&code, &lost, &present).unwrap();
                let reads = plan.reads();
                assert!(reads.iter().all(|&b| present[b]), "{name} {lost:?}");
                if let [b] = lost[..] {
                    let mut sources = code.repair_plan(b).unwrap().sources().to_vec();
                    sources.sort_unstable();
                    assert_eq!(reads, sources, "{name} {lost:?}");
                }
                let targets = plan.targets();
                let mut accounted = [&targets[..], plan.stranded()].concat();
                accounted.sort_unstable();
                assert_eq!(accounted, lost, "{name}: every lost block is planned once");
                assert_eq!(
                    plan.stranded().is_empty(),
                    code.can_decode(&present),
                    "{name} {lost:?}"
                );
                assert!(
                    size > tolerance || plan.stranded().is_empty(),
                    "{name} {lost:?}"
                );
                if !plan.stranded().is_empty() && !plan.local().is_empty() {
                    local_beside_stranded += 1;
                }

                let unread: Vec<usize> = (0..n).filter(|b| !reads.contains(b)).collect();
                let rebuilt = plan.apply(&code, &without(&blocks, &unread)).unwrap();
                for (b, bytes) in rebuilt.iter().enumerate() {
                    assert_eq!(
                        bytes.is_some(),
                        targets.contains(&b),
                        "{name} {lost:?}: {b}"
                    );
                    if let Some(bytes) = bytes {
                        assert_eq!(bytes, &blocks[b], "{name} {lost:?}: block {b}");
                    }
                }
            }
        }
    }
    assert!(
        local_beside_stranded > 0,
        "no pattern exercised a partial rebuild"
    );
}

#[test]
fn corruption_detected_by_crc_roundtrips_through_repair() {
    // A flipped byte inside a stored block must never reach a reader:
    // the DFS CRC check reclassifies the block as an erasure and the
    // codes decode around it, for every family.
    use galloper_suite::dfs::Dfs;
    let mut rng = TestRng::new(0xC0DE_C0DE);
    let data = rng.bytes(17_000);

    fn check<C: galloper_suite::dfs::ErasureCode>(code: C, data: &[u8]) {
        let mut dfs = Dfs::new(10, code);
        dfs.put("obj", data).unwrap();
        for group in 0..2 {
            assert!(dfs.corrupt_stored("obj", group, group + 1));
        }
        assert_eq!(dfs.get("obj").unwrap(), data, "corruption leaked");
        dfs.scan_endangered();
        dfs.drain_repairs(usize::MAX).unwrap();
        assert!(dfs.fsck().all_healthy());
        assert_eq!(dfs.get("obj").unwrap(), data);
    }

    check(ReedSolomon::new(4, 2, 256).unwrap(), &data);
    check(Pyramid::new(4, 2, 1, 256).unwrap(), &data);
    check(Carousel::new(4, 2, 128).unwrap(), &data);
    check(Galloper::uniform(4, 2, 1, 128).unwrap(), &data);
}
