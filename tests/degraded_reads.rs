//! Cross-crate degraded-read tests: byte-range reads under failures for
//! every code family, with I/O-amplification assertions.

use galloper_suite::codes::{
    build_code, Carousel, CodeSpec, ErasureCode, Galloper, Pyramid, ReedSolomon,
};

fn sample(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(101) % 251) as u8)
        .collect()
}

#[test]
fn range_reads_roundtrip_for_all_codes_under_single_failure() {
    let rs = ReedSolomon::new(4, 2, 1024).unwrap();
    let pyr = Pyramid::new(4, 2, 1, 1024).unwrap();
    let car = Carousel::new(4, 2, 256).unwrap();
    let gal = Galloper::uniform(4, 2, 1, 256).unwrap();
    let codes: Vec<(&str, &galloper_suite::codes::LinearCode, usize)> = vec![
        ("rs", rs.as_linear(), rs.num_blocks()),
        ("pyramid", pyr.as_linear(), pyr.num_blocks()),
        ("carousel", car.as_linear(), car.num_blocks()),
        ("galloper", gal.as_linear(), gal.num_blocks()),
    ];
    for (name, code, n) in codes {
        let data = sample(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for failed in 0..n {
            let avail: Vec<Option<&[u8]>> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (i != failed).then_some(b.as_slice()))
                .collect();
            // A handful of ranges including stripe-straddling ones.
            for (offset, len) in [
                (0usize, code.message_len()),
                (0, 1),
                (code.message_len() / 2 - 3, 7),
                (code.message_len() - 5, 5),
                (13, 2000.min(code.message_len() - 13)),
            ] {
                let (bytes, stats) = code
                    .read_range(offset, len, &avail)
                    .unwrap_or_else(|e| panic!("{name} failed={failed} {offset}+{len}: {e}"));
                assert_eq!(
                    bytes,
                    &data[offset..offset + len],
                    "{name} failed={failed} {offset}+{len}"
                );
                assert!(stats.bytes_read >= len || len == 0, "{name}");
            }
        }
    }
}

#[test]
fn galloper_degraded_reads_amplify_less_than_rs() {
    // Reading one stripe of a lost block: Galloper fetches its local
    // group's stripes (2), RS fetches k stripes' worth (4 sources).
    let gal = Galloper::uniform(4, 2, 1, 512).unwrap();
    let rs = ReedSolomon::new(4, 2, gal.block_len()).unwrap();

    let g_data = sample(gal.message_len());
    let g_blocks = gal.encode(&g_data).unwrap();
    let g_avail: Vec<Option<&[u8]>> = g_blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (i != 0).then_some(b.as_slice()))
        .collect();
    // The first stripe of the message lives in block 0 (lost).
    let (_, g_stats) = gal.as_linear().read_range(0, 512, &g_avail).unwrap();

    let r_data = sample(rs.message_len());
    let r_blocks = rs.encode(&r_data).unwrap();
    let r_avail: Vec<Option<&[u8]>> = r_blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (i != 0).then_some(b.as_slice()))
        .collect();
    let (_, r_stats) = rs.as_linear().read_range(0, 512, &r_avail).unwrap();

    assert!(g_stats.degraded && r_stats.degraded);
    assert!(
        g_stats.bytes_read < r_stats.bytes_read,
        "galloper {} bytes vs rs {} bytes",
        g_stats.bytes_read,
        r_stats.bytes_read
    );
}

#[test]
fn healthy_reads_have_no_amplification() {
    let gal = Galloper::uniform(4, 2, 1, 256).unwrap();
    let data = sample(gal.message_len());
    let blocks = gal.encode(&data).unwrap();
    let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
    // A stripe-aligned read touches exactly len bytes.
    let (bytes, stats) = gal.as_linear().read_range(256, 512, &avail).unwrap();
    assert_eq!(bytes, &data[256..768]);
    assert_eq!(stats.bytes_read, 512);
    assert!(!stats.degraded);
}

#[test]
fn whole_message_reads_recover_a_lost_block_from_its_plan_alone() {
    // The paper's guarantee on the one read path, on the code a gateway
    // runs (`build_code`'s `LinearCode`): with any single block lost,
    // reading the whole message is a copy of the healthy home stripes
    // plus the lost block's repair plan — never a decode, and never a
    // byte from anywhere else.
    let specs = [
        CodeSpec::rs(4, 2, 64),
        CodeSpec::pyramid(4, 2, 1, 64),
        CodeSpec::carousel(4, 2, 16),
        CodeSpec::galloper(4, 2, 1, 16),
        CodeSpec::galloper_asl(4, 2, 2, 16),
    ];
    for spec in specs {
        let name = spec.family.clone();
        let code = build_code(&spec).unwrap();
        let (n, msg, layout) = (code.num_blocks(), code.message_len(), code.layout());
        let ss = code.block_len() / layout.stripes_per_block();
        let data = sample(msg);
        let blocks = code.encode(&data).unwrap();
        for lost in 0..n {
            // Everything the read has no business touching is garbage:
            // all but the home stripes of the surviving blocks and, when
            // the lost block bore data, the blocks its plan names.
            let sources = code.repair_plan(lost).unwrap().sources().to_vec();
            let needs_plan = layout.data_stripes(lost) > 0;
            let mut poisoned = blocks.clone();
            for (b, block) in poisoned.iter_mut().enumerate() {
                if !(needs_plan && sources.contains(&b)) {
                    block[layout.data_stripes(b) * ss..].fill(0xA5);
                }
            }
            let avail: Vec<Option<&[u8]>> = poisoned
                .iter()
                .enumerate()
                .map(|(b, block)| (b != lost).then_some(block.as_slice()))
                .collect();
            let mut out = Vec::new();
            let stats = code
                .read_range_into(0, msg, &avail, &mut out)
                .unwrap_or_else(|e| panic!("{name} lost={lost}: {e}"));
            assert_eq!(out, data, "{name} lost={lost}");
            assert!(
                !stats.full_decode,
                "{name} lost={lost}: fell back to decode"
            );
            assert_eq!(stats.degraded, needs_plan, "{name} lost={lost}");
            let home = msg / ss - layout.data_stripes(lost);
            let planned = sources.len() * layout.stripes_per_block();
            assert!(
                (home..=home + planned).contains(&stats.stripes_read),
                "{name} lost={lost}: {} stripes for {home} home + ≤{planned} planned",
                stats.stripes_read
            );
            assert_eq!(stats.bytes_read, stats.stripes_read * ss, "{name}");
        }
    }
}
