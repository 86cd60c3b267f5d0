//! Every codec quantity is recorded once, under one family-agnostic
//! `erasure.*` name, by the code `build_code` returns. This file is its
//! own test binary holding one test, so registry deltas are exact.

use galloper_codes::{build_code, CodeSpec};
use galloper_erasure::ErasureCode;
use galloper_obs::global;

/// Every counter a code records, in the order `values` reads them.
const COUNTERS: [&str; 13] = [
    "erasure.encode.calls",
    "erasure.encode.bytes",
    "erasure.decode.calls",
    "erasure.decode.bytes_read",
    "erasure.read.calls",
    "erasure.read.bytes_read",
    "erasure.read.full_decodes",
    "erasure.repair.plans",
    "erasure.repair.symbols_read",
    "erasure.repair.bytes_planned",
    "erasure.reconstruct.calls",
    "erasure.reconstruct.symbols_read",
    "erasure.reconstruct.bytes_read",
];

/// Every latency histogram a code records.
const TIMERS: [&str; 4] = [
    "erasure.encode_us",
    "erasure.decode_us",
    "erasure.read_us",
    "erasure.reconstruct_us",
];

fn values() -> Vec<u64> {
    let g = global();
    let counters = COUNTERS.iter().map(|name| g.counter(name).get());
    let timers = TIMERS.iter().map(|name| g.histogram(name).count());
    counters.chain(timers).collect()
}

#[test]
fn each_codec_quantity_is_recorded_once() {
    // (4, 2) Reed–Solomon at one 64-byte stripe per block: every plan
    // reads k = 4 blocks.
    let code = build_code(&CodeSpec::rs(4, 2, 64)).unwrap();
    let block = code.block_len() as u64;
    let before = values();

    let data: Vec<u8> = (0..code.message_len()).map(|i| i as u8).collect();
    let blocks = code.encode(&data).unwrap();
    let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
    assert_eq!(code.decode(&avail).unwrap(), data);

    // A healthy range read straddling blocks 0 and 1 copies one stripe
    // of each; losing block 0 *and* its repair source 1 forces the
    // fallback decode, which reads the four survivors.
    let mut out = Vec::new();
    let healthy = code.read_range_into(60, 8, &avail, &mut out).unwrap();
    let mut holed = avail.clone();
    (holed[0], holed[1]) = (None, None);
    let fallback = code.read_range_into(0, 8, &holed, &mut out).unwrap();
    assert_eq!(out, [&data[60..68], &data[0..8]].concat());
    assert_eq!((healthy.bytes_read, healthy.full_decode), (128, false));
    assert_eq!((fallback.bytes_read, fallback.full_decode), (256, true));

    let plan = code.repair_plan(0).unwrap();
    let sources: Vec<(usize, &[u8])> = plan
        .sources()
        .iter()
        .map(|&s| (s, blocks[s].as_slice()))
        .collect();
    assert_eq!(code.reconstruct(0, &sources).unwrap(), blocks[0]);

    let deltas: Vec<u64> = values().iter().zip(&before).map(|(a, b)| a - b).collect();
    let expected = [
        1,                     // encode.calls
        data.len() as u64,     // encode.bytes
        2,                     // decode.calls: the explicit one and the fallback
        6 * block + 4 * block, // decode.bytes_read
        2,                     // read.calls
        128 + 256,             // read.bytes_read
        1,                     // read.full_decodes
        1,                     // repair.plans: reconstruct hands none out
        4,                     // repair.symbols_read
        4 * block,             // repair.bytes_planned
        1,                     // reconstruct.calls
        4,                     // reconstruct.symbols_read
        4 * block,             // reconstruct.bytes_read
        1,                     // encode_us
        2,                     // decode_us
        2,                     // read_us
        1,                     // reconstruct_us
    ];
    let names = COUNTERS.iter().chain(&TIMERS);
    for ((name, got), want) in names.zip(&deltas).zip(expected) {
        assert_eq!(*got, want, "{name}");
    }

    // No second, per-family name set: every `erasure.*` key in the
    // snapshot is one of the names above.
    let rendered = global().snapshot().render();
    for key in rendered.split('"').filter(|s| s.starts_with("erasure.")) {
        assert!(
            COUNTERS.contains(&key) || TIMERS.contains(&key),
            "unexpected codec metric {key}"
        );
    }
}
