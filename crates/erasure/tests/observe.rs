//! The [`Observed`] wrapper: metric side effects and transparency.

use galloper_erasure::{ErasureCode, Observed};
use galloper_obs::global;
use galloper_rs::ReedSolomon;

#[test]
fn observed_counts_operations_and_symbols() {
    let code = Observed::new("rs_test_observe", ReedSolomon::new(4, 2, 64).unwrap());
    let data = vec![7u8; code.message_len()];
    let blocks = code.encode(&data).unwrap();
    let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
    let decoded = code.decode(&avail).unwrap();
    assert_eq!(decoded, data);

    let plan = code.repair_plan(0).unwrap();
    let sources: Vec<(usize, &[u8])> = plan
        .sources()
        .iter()
        .map(|&s| (s, blocks[s].as_slice()))
        .collect();
    let rebuilt = code.reconstruct(0, &sources).unwrap();
    assert_eq!(rebuilt, blocks[0]);

    // Serving reads: one healthy range read (copies two stripes), one
    // that loses a block *and* one of its repair sources (full decode).
    let mut out = Vec::new();
    let healthy = code.read_range_into(60, 8, &avail, &mut out).unwrap();
    let mut holed = avail.clone();
    (holed[0], holed[1]) = (None, None);
    let fallback = code.read_range_into(0, 8, &holed, &mut out).unwrap();
    assert_eq!(out, [&data[60..68], &data[0..8]].concat());
    assert!(fallback.full_decode && !healthy.full_decode);

    let g = global();
    assert_eq!(g.counter("erasure.rs_test_observe.read.calls").get(), 2);
    assert_eq!(
        g.counter("erasure.rs_test_observe.read.bytes_read").get(),
        (healthy.bytes_read + fallback.bytes_read) as u64
    );
    assert_eq!(
        g.counter("erasure.rs_test_observe.read.full_decodes").get(),
        1
    );
    assert_eq!(g.histogram("erasure.rs_test_observe.read_us").count(), 2);
    // The fallback ran inside the engine: the family's `decode.*` names
    // saw only the explicit `decode` above.
    assert_eq!(g.counter("erasure.rs_test_observe.decode.calls").get(), 1);
    assert_eq!(g.counter("erasure.rs_test_observe.encode.calls").get(), 1);
    assert_eq!(
        g.counter("erasure.rs_test_observe.encode.bytes").get(),
        data.len() as u64
    );
    // RS repairs read k = 4 symbols.
    assert_eq!(
        g.counter("erasure.rs_test_observe.repair.symbols_read")
            .get(),
        4
    );
    assert_eq!(
        g.counter("erasure.rs_test_observe.reconstruct.bytes_read")
            .get(),
        4 * code.block_len() as u64
    );
    assert!(g.histogram("erasure.rs_test_observe.encode_us").count() >= 1);
    // The underlying engine's family-agnostic counters moved too.
    assert!(g.counter("erasure.encode.calls").get() >= 1);
}

#[test]
fn observed_is_transparent() {
    let inner = ReedSolomon::new(4, 2, 64).unwrap();
    let code = Observed::new("rs_transparent", inner.clone());
    assert_eq!(code.num_blocks(), inner.num_blocks());
    assert_eq!(code.num_data_blocks(), inner.num_data_blocks());
    assert_eq!(code.message_len(), inner.message_len());
    assert_eq!(code.block_len(), inner.block_len());
    assert_eq!(code.storage_overhead(), inner.storage_overhead());
    assert_eq!(code.layout(), inner.layout());
    assert_eq!(code.block_role(0), inner.block_role(0));
    assert!(code.can_decode(&vec![true; inner.num_blocks()]));
    assert_eq!(code.inner().num_blocks(), inner.num_blocks());
    assert_eq!(code.into_inner().num_blocks(), inner.num_blocks());
}
