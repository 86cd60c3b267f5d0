//! Property-style round-trips of the streaming codec drivers against the
//! one-shot [`ObjectCodec`]: for every code family, every ragged object
//! length (including the empty object) and every push-chunk size, the
//! streamed groups must be byte-identical to the whole-object path and
//! decode back to the exact original bytes — while the buffer pool stays
//! bounded by the one group in flight.

use galloper_suite::codes::{build_code, BoxedCode, CodeSpec, ErasureCode, ObjectCodec};
use galloper_suite::stream::{AlignedBuf, StripeDecoder, StripeEncoder, StripeReconstructor};

/// Deterministic non-trivial payload.
fn sample(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(131).wrapping_add(seed as usize * 17) % 251) as u8)
        .collect()
}

/// Every family at small stripe sizes, as the specs the shared builder
/// consumes — exactly what the CLI would rebuild from a manifest.
fn families() -> Vec<(&'static str, CodeSpec)> {
    vec![
        ("rs", CodeSpec::rs(4, 2, 64)),
        ("pyramid", CodeSpec::pyramid(4, 2, 1, 64)),
        ("carousel", CodeSpec::carousel(4, 2, 16)),
        ("galloper", CodeSpec::galloper(4, 2, 1, 16)),
        ("galloper-asl", CodeSpec::galloper_asl(4, 2, 2, 16)),
    ]
}

/// Object lengths exercising the empty object, sub-group tails, exact
/// multiples, and ragged multi-group objects.
fn object_lens(msg: usize) -> Vec<usize> {
    vec![0, 1, msg / 2, msg - 1, msg, msg + 1, 2 * msg, 3 * msg - 7]
}

/// Streams `data` through a [`StripeEncoder`] in `chunk`-byte pushes and
/// returns the emitted groups plus the encoder's pool-allocation count.
fn stream_encode(
    code: &BoxedCode,
    data: &[u8],
    chunk: usize,
) -> (
    galloper_suite::codes::ObjectManifest,
    Vec<Vec<Vec<u8>>>,
    u64,
) {
    let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
    let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
        assert_eq!(g, groups.len(), "groups must arrive in order");
        groups.push(blocks.iter().map(|b| b.to_vec()).collect());
        Ok(())
    };
    let mut encoder = StripeEncoder::new(code, sink);
    for piece in data.chunks(chunk.max(1)) {
        encoder.push(piece).unwrap();
    }
    let allocated = encoder.pool().allocated();
    // `_` drops the returned sink here, releasing its borrow of `groups`.
    let (manifest, _) = encoder.finish().unwrap();
    (manifest, groups, allocated)
}

#[test]
fn streaming_encode_matches_oneshot_for_every_family() {
    for (name, spec) in families() {
        let code = build_code(&spec).unwrap();
        let msg = code.message_len();
        // The builder is deterministic, so a second build is the same code.
        let codec = ObjectCodec::new(build_code(&spec).unwrap());
        for len in object_lens(msg) {
            let data = sample(len, 3);
            let oneshot = codec.encode_object(&data).unwrap();
            for chunk in [7, msg, usize::MAX] {
                let (manifest, groups, _) = stream_encode(&code, &data, chunk.min(len.max(1)));
                assert_eq!(
                    manifest, oneshot.manifest,
                    "{name}: manifest len={len} chunk={chunk}"
                );
                assert_eq!(
                    groups, oneshot.groups,
                    "{name}: groups len={len} chunk={chunk}"
                );
            }
        }
    }
}

#[test]
fn streaming_decode_recovers_exact_bytes_with_a_lost_block() {
    for (name, spec) in families() {
        let code = build_code(&spec).unwrap();
        let msg = code.message_len();
        let n = code.num_blocks();
        for len in object_lens(msg) {
            let data = sample(len, 5);
            let (manifest, groups, _) = stream_encode(&code, &data, 4096);

            // Stream the groups back with data block 0 missing everywhere.
            let mut decoder = StripeDecoder::new(&code, manifest);
            let mut out = Vec::new();
            for blocks in &groups {
                let available: Vec<Option<&[u8]>> = (0..n)
                    .map(|b| (b != 0).then(|| blocks[b].as_slice()))
                    .collect();
                out.extend_from_slice(&decoder.next_group(&available).unwrap());
            }
            let total = decoder.finish().unwrap();
            assert_eq!(total, len, "{name}: reported length for len={len}");
            assert_eq!(out, data, "{name}: decoded bytes for len={len}");
        }
    }
}

#[test]
fn streaming_decode_equals_the_global_decode_oracle_for_every_tolerated_pattern() {
    // `StripeDecoder` range-reads; `ObjectCodec::decode_object` globally
    // decodes every group. Over every loss pattern a family tolerates
    // (any g + 1 blocks with local parities, any g without) the two must
    // return the same bytes: the object's.
    for (name, spec) in families() {
        let tolerance = spec.g + usize::from(spec.l > 0);
        let code = build_code(&spec).unwrap();
        let codec = ObjectCodec::new(build_code(&spec).unwrap());
        let data = sample(3 * code.message_len() - 7, 11);
        let (manifest, groups, _) = stream_encode(&code, &data, 4096);
        for size in 0..=tolerance {
            for erased in galloper_pyramid::subsets(code.num_blocks(), size) {
                let available: Vec<Vec<Option<&[u8]>>> = groups
                    .iter()
                    .map(|blocks| {
                        let kept = blocks.iter().enumerate();
                        kept.map(|(b, block)| (!erased.contains(&b)).then_some(block.as_slice()))
                            .collect()
                    })
                    .collect();
                let mut decoder = StripeDecoder::new(&code, manifest);
                let mut out = Vec::new();
                for group in &available {
                    out.extend_from_slice(&decoder.next_group(group).unwrap());
                }
                assert_eq!(decoder.finish().unwrap(), data.len());
                let oracle = codec.decode_object(&available, manifest).unwrap();
                assert_eq!(out, oracle, "{name} erased={erased:?}");
                assert_eq!(out, data, "{name} erased={erased:?}");
            }
        }
    }
}

#[test]
fn streaming_reconstruct_rebuilds_every_block_groupwise() {
    for (name, spec) in families() {
        let code = build_code(&spec).unwrap();
        let msg = code.message_len();
        let data = sample(3 * msg - 7, 9);
        let (manifest, groups, _) = stream_encode(&code, &data, 4096);

        for target in 0..code.num_blocks() {
            let mut rec = StripeReconstructor::new(&code, target, manifest.num_groups).unwrap();
            let src_ids: Vec<usize> = rec.plan().sources().to_vec();
            for blocks in &groups {
                let sources: Vec<(usize, &[u8])> =
                    src_ids.iter().map(|&s| (s, blocks[s].as_slice())).collect();
                let rebuilt = rec.next_group(&sources).unwrap();
                assert_eq!(rebuilt, blocks[target], "{name}: block {target}");
            }
            rec.finish().unwrap();
        }
    }
}

#[test]
fn encoder_pools_stay_bounded_by_groups_in_flight() {
    for (name, spec) in families() {
        let code = build_code(&spec).unwrap();
        let msg = code.message_len();
        let n = code.num_blocks() as u64;
        let data = sample(20 * msg, 11);
        let (_, groups, allocated) = stream_encode(&code, &data, msg);
        assert_eq!(groups.len(), 20, "{name}");
        // The pool holds at most one message buffer (plus one pending
        // stage) and one group's block buffers — never a number that
        // grows with the 20 groups streamed.
        assert!(allocated <= 2 + n, "{name}: {allocated} pooled buffers");
    }
}
