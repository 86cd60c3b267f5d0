//! The layer ladder: the same seeded S = 64 KiB and L = 16 MiB objects
//! pushed through each rung of the stack inside this process, from the
//! GF(2⁸) kernel up to an in-harness gateway, by calling each crate's
//! public functions. One span per call; a metric is the median of a
//! fixed repeat count. A rung's *self time* is its time minus the rung
//! below, so the self times of a 64 KiB GET sum exactly to the top rung.
//!
//! Layers are named after the crates that own them.

use std::convert::Infallible;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::Instant;

use galloper::Galloper;
use galloper_codes::{build_code, BoxedCode, CodeSpec};
use galloper_dfs::{BlockGet, BlockKey, BlockStore, Dfs, DiskStore, ErasureCode, MemStore};
use galloper_erasure::{AlignedBuf, StripeDecoder, StripeEncoder, StripeReconstructor};
use galloper_gf::kernel;
use galloper_net::{
    Daemon, DaemonHandle, FrameReader, Gateway, RemoteStore, Request, Response,
    DEFAULT_MAX_INFLIGHT,
};

use crate::cluster;
use crate::report::{put, Metrics};
use crate::rng::Xorshift;
use crate::stats;
use crate::trace::Tracer;

const SMALL: usize = 64 << 10;
const LARGE: usize = 16 << 20;
/// Buffer size of the kernel, frame and bulk-block rungs.
const BULK: usize = 4 << 20;
/// The one object that goes through the chunked plane.
const CHUNKED: usize = 80 << 20;
const STRIPE: usize = 65536;
const SERVERS: usize = 7;
/// The block every degraded rung loses (as the cluster workload does).
const LOST: usize = 1;
/// Blocks in the store when `DiskStore::probe` is timed.
const PROBE_BLOCKS: usize = 1000;

fn spec() -> CodeSpec {
    CodeSpec::galloper(4, 2, 1, STRIPE)
}

fn code() -> Result<BoxedCode, String> {
    build_code(&spec()).map_err(|e| format!("ladder: cannot build the code: {e}"))
}

/// Runs every rung; returns the per-layer metrics of the ladder.
pub fn run(work: &Path, seed: u64, tracer: &Tracer) -> Result<Metrics, String> {
    let mut rng = Xorshift::new(seed ^ 0x1ADD_E400);
    let mut ladder = Ladder {
        tracer,
        rung: 0,
        out: Metrics::new(),
        small: rng.bytes(SMALL),
        large: rng.bytes(LARGE),
        bulk: rng.bytes(BULK),
    };
    ladder.gf256();
    ladder.linalg()?;
    ladder.codes()?;
    ladder.erasure()?;
    ladder.dfs_mem()?;
    ladder.dfs_disk(work)?;
    ladder.net_wire()?;
    ladder.net_remote(work)?;
    ladder.net_gateway(work, &mut rng)?;
    ladder.self_times();
    // Every rung above fanned its rows out over the shared worker pool.
    let waits = galloper_obs::global().histogram("linalg.pool.queue_wait_us");
    let (p50, n) = (waits.quantile(0.5) as f64, waits.count() as usize);
    put(
        &mut ladder.out,
        "linalg.pool.queue_wait_p50_us",
        p50,
        "us",
        n,
    );
    Ok(ladder.out)
}

struct Ladder<'a> {
    tracer: &'a Tracer,
    /// Span id of the rung being climbed; parent of its call spans.
    rung: u64,
    out: Metrics,
    small: Vec<u8>,
    large: Vec<u8>,
    bulk: Vec<u8>,
}

fn e(what: &str, err: impl std::fmt::Display) -> String {
    format!("ladder: {what}: {err}")
}

impl Ladder<'_> {
    /// Runs `body` as rung `layer`, under one span covering its calls.
    fn rung<T>(&mut self, layer: &str, body: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.tracer.next_id();
        let outer = std::mem::replace(&mut self.rung, id);
        let start = Instant::now();
        let result = body(self);
        self.tracer.record(
            &format!("ladder.{layer}"),
            id,
            0,
            id,
            0,
            start,
            Instant::now(),
        );
        self.rung = outer;
        result
    }

    /// Times `reps` calls of `call` (given the repeat index), one span
    /// each; the median in seconds.
    fn time(&self, name: &str, reps: usize, mut call: impl FnMut(usize)) -> f64 {
        let mut seconds = Vec::with_capacity(reps);
        for i in 0..reps {
            let start = Instant::now();
            call(i);
            let end = Instant::now();
            self.tracer.record(
                name,
                self.tracer.next_id(),
                self.rung,
                self.rung,
                0,
                start,
                end,
            );
            seconds.push((end - start).as_secs_f64());
        }
        stats::median(&seconds)
    }

    /// Median latency of `call`, recorded in µs.
    fn us(&mut self, name: &str, reps: usize, call: impl FnMut(usize)) {
        let t = self.time(name, reps, call);
        put(&mut self.out, name, t * 1e6, "us", reps);
    }

    /// Median rate of `call` moving `bytes` each time, in MB/s.
    fn mbps(&mut self, name: &str, reps: usize, bytes: usize, call: impl FnMut(usize)) {
        let t = self.time(name, reps, call);
        put(&mut self.out, name, bytes as f64 / 1e6 / t, "MB/s", reps);
    }

    /// As [`Ladder::mbps`], in GB/s.
    fn gbps(&mut self, name: &str, reps: usize, bytes: usize, call: impl FnMut(usize)) {
        let t = self.time(name, reps, call);
        put(&mut self.out, name, bytes as f64 / 1e9 / t, "GB/s", reps);
    }

    fn gf256(&mut self) {
        self.rung("gf256", |l| {
            let src = l.bulk.clone();
            let mut dst = vec![0u8; BULK];
            l.gbps("gf256.mul_add_gbps", 15, BULK, |_| {
                kernel::mul_add(0x53, black_box(&src), black_box(&mut dst));
            });
            l.gbps("gf256.xor_gbps", 15, BULK, |_| {
                kernel::xor(black_box(&src), black_box(&mut dst));
            });
        });
    }

    /// The code's parity rows (the generator rows that are not a unit
    /// vector) applied over one coding group's stripes.
    fn linalg(&mut self) -> Result<(), String> {
        let galloper = Galloper::uniform(4, 2, 1, STRIPE).map_err(|x| e("Galloper::uniform", x))?;
        let generator = galloper.as_linear().generator();
        let parity: Vec<usize> = (0..generator.rows())
            .filter(|&r| generator.row(r).iter().filter(|&&c| c != 0).count() > 1)
            .collect();
        let matrix = generator.select_rows(&parity);
        let group = matrix.cols() * STRIPE;
        let data = self.large[..group].to_vec();
        let inputs: Vec<&[u8]> = data.chunks_exact(STRIPE).collect();
        let mut outputs = vec![vec![0u8; STRIPE]; matrix.rows()];
        self.rung("linalg", |l| {
            l.gbps("linalg.apply_gbps", 15, group, |_| {
                let mut views: Vec<&mut [u8]> = outputs.iter_mut().map(Vec::as_mut_slice).collect();
                galloper_linalg::apply_into(&matrix, black_box(&inputs), &mut views);
            });
        });
        Ok(())
    }

    fn codes(&mut self) -> Result<(), String> {
        code()?;
        self.rung("codes", |l| {
            l.us("codes.build_us", 15, |_| {
                black_box(build_code(&spec()).expect("built a moment ago"));
            });
        });
        Ok(())
    }

    fn erasure(&mut self) -> Result<(), String> {
        let code = code()?;
        let mac_bytes = || {
            galloper_obs::global()
                .counter("gf.mul_slice_add.bytes")
                .get()
        };
        // Encode L once, keeping the blocks for the decode rungs.
        let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
        let mac_before = mac_bytes();
        let (manifest, resident) = encode(&code, &self.large, |_, blocks: &[AlignedBuf]| {
            groups.push(blocks.iter().map(|b| b.as_slice().to_vec()).collect());
        })?;
        let encode_macs = mac_bytes() - mac_before;
        let large = self.large.clone();
        let decode = |lost: Option<usize>| -> Result<Vec<u8>, String> {
            let mut decoder = StripeDecoder::new(&code, manifest);
            let mut object = Vec::with_capacity(LARGE);
            for blocks in &groups {
                let avail: Vec<Option<&[u8]>> = blocks
                    .iter()
                    .enumerate()
                    .map(|(b, bytes)| (Some(b) != lost).then_some(bytes.as_slice()))
                    .collect();
                object.extend(decoder.next_group(&avail).map_err(|x| e("decode", x))?);
            }
            decoder.finish().map_err(|x| e("decode", x))?;
            Ok(object)
        };
        let mac_before = mac_bytes();
        let degraded = decode(Some(LOST))?;
        let decode_macs = mac_bytes() - mac_before;
        if degraded != large || decode(None)? != large {
            return Err("ladder: StripeDecoder returned wrong bytes".into());
        }
        let reconstruct = || -> Result<usize, String> {
            let mut rebuild = StripeReconstructor::new(&code, LOST, groups.len())
                .map_err(|x| e("reconstruct", x))?;
            let sources: Vec<usize> = rebuild.plan().sources().to_vec();
            let mut rebuilt = 0;
            for blocks in &groups {
                let fed: Vec<(usize, &[u8])> =
                    sources.iter().map(|&s| (s, blocks[s].as_slice())).collect();
                let block = rebuild.next_group(&fed).map_err(|x| e("reconstruct", x))?;
                if block != blocks[LOST] {
                    return Err("ladder: StripeReconstructor rebuilt wrong bytes".into());
                }
                rebuilt += block.len();
            }
            rebuild.finish().map_err(|x| e("reconstruct", x))?;
            Ok(rebuilt)
        };
        let rebuilt = reconstruct()?;

        // One degraded group at 64-byte stripes: the kernel has almost
        // nothing to do, so what is left is the per-group row selection
        // and Gauss–Jordan elimination a decode-plan cache would save.
        let tiny = build_code(&CodeSpec::galloper(4, 2, 1, 64)).map_err(|x| e("tiny code", x))?;
        let message = &self.small[..tiny.message_len()];
        let tiny_blocks = tiny.encode(message).map_err(|x| e("tiny encode", x))?;
        let tiny_avail: Vec<Option<&[u8]>> = tiny_blocks
            .iter()
            .enumerate()
            .map(|(b, bytes)| (b != LOST).then_some(bytes.as_slice()))
            .collect();
        if tiny.decode(&tiny_avail).map_err(|x| e("tiny decode", x))? != message {
            return Err("ladder: degraded decode of one small group returned wrong bytes".into());
        }

        self.rung("erasure", |l| {
            l.mbps("erasure.encode_mbps", 5, LARGE, |_| {
                encode(&code, &large, |_, b: &[AlignedBuf]| {
                    black_box(b);
                })
                .expect("encoded a moment ago");
            });
            l.mbps("erasure.decode_healthy_mbps", 5, LARGE, |_| {
                black_box(decode(None).expect("decoded a moment ago"));
            });
            l.mbps("erasure.decode_degraded_mbps", 5, LARGE, |_| {
                black_box(decode(Some(LOST)).expect("decoded a moment ago"));
            });
            l.mbps("erasure.reconstruct_mbps", 5, rebuilt, |_| {
                black_box(reconstruct().expect("reconstructed a moment ago"));
            });
            l.us("erasure.decode_small_group_us", 200, |_| {
                black_box(
                    tiny.decode(black_box(&tiny_avail))
                        .expect("decoded a moment ago"),
                );
            });
        });
        let per_byte = |macs: u64| macs as f64 / LARGE as f64;
        let out = &mut self.out;
        put(
            out,
            "erasure.mac_bytes_per_user_byte.encode",
            per_byte(encode_macs),
            "ratio",
            1,
        );
        let name = "erasure.mac_bytes_per_user_byte.decode_degraded";
        put(out, name, per_byte(decode_macs), "ratio", 1);
        let fan_in = code
            .repair_plan(LOST)
            .map_err(|x| e("repair_plan", x))?
            .fan_in();
        put(out, "erasure.repair_blocks_read", fan_in as f64, "count", 1);
        put(
            out,
            "erasure.pool_resident_peak_mb",
            resident as f64 / 1e6,
            "MB",
            1,
        );
        Ok(())
    }

    fn dfs_mem(&mut self) -> Result<(), String> {
        let mut dfs = Dfs::new(SERVERS, code()?);
        let block_len = dfs.code().block_len();
        self.rung("dfs.mem", |l| -> Result<(), String> {
            l.dfs_rungs("dfs.mem", &mut dfs)?;
            let large = l.large.clone();
            dfs.fail_server(LOST);
            let mut wrong = false;
            l.mbps("dfs.mem.get_degraded_large_mbps", 5, LARGE, |_| {
                wrong |= dfs.get("large-0").ok().as_deref() != Some(&large[..]);
            });
            if wrong {
                return Err("ladder: dfs.mem degraded get returned wrong bytes".into());
            }
            // A failed server comes back empty; repair rebuilds onto it.
            dfs.revive_server(LOST);
            let start = Instant::now();
            let summary = dfs.repair().map_err(|x| e("dfs.mem repair", x))?;
            let end = Instant::now();
            let name = "dfs.mem.repair_mbps";
            l.tracer
                .record(name, l.tracer.next_id(), l.rung, l.rung, 0, start, end);
            let blocks = summary.repaired_locally + summary.repaired_via_decode;
            if blocks == 0 || summary.unrecoverable_groups > 0 {
                return Err(format!(
                    "ladder: dfs.mem repair did not repair: {summary:?}"
                ));
            }
            let lost_bytes = (blocks * block_len) as f64;
            let rate = lost_bytes / 1e6 / (end - start).as_secs_f64();
            put(&mut l.out, name, rate, "MB/s", blocks);
            let per_lost = summary.bytes_read as f64 / lost_bytes;
            put(
                &mut l.out,
                "dfs.repair_bytes_read_per_lost_byte",
                per_lost,
                "ratio",
                blocks,
            );
            if dfs.get("large-0").ok().as_deref() != Some(&large[..]) {
                return Err("ladder: dfs.mem get after repair returned wrong bytes".into());
            }
            Ok(())
        })
    }

    /// The four put/get rungs every `Dfs` flavour shares:
    /// `<prefix>.put_small_us`, `.get_small_us`, `.put_large_mbps`,
    /// `.get_large_mbps`. Leaves `small-*` and `large-*` stored.
    fn dfs_rungs<S: BlockStore>(
        &mut self,
        prefix: &str,
        dfs: &mut Dfs<BoxedCode, S>,
    ) -> Result<(), String> {
        let (small, large) = (self.small.clone(), self.large.clone());
        let mut failed = None;
        self.us(&format!("{prefix}.put_small_us"), 20, |i| {
            if let Err(x) = dfs.put(&format!("small-{i}"), &small) {
                failed = Some(x.to_string());
            }
        });
        self.us(&format!("{prefix}.get_small_us"), 40, |i| {
            if dfs.get(&format!("small-{}", i % 20)).ok().as_deref() != Some(&small[..]) {
                failed = Some("get of a small object returned wrong bytes".into());
            }
        });
        self.mbps(&format!("{prefix}.put_large_mbps"), 3, LARGE, |i| {
            if let Err(x) = dfs.put(&format!("large-{i}"), &large) {
                failed = Some(x.to_string());
            }
        });
        self.mbps(&format!("{prefix}.get_large_mbps"), 5, LARGE, |i| {
            if dfs.get(&format!("large-{}", i % 3)).ok().as_deref() != Some(&large[..]) {
                failed = Some("get of a large object returned wrong bytes".into());
            }
        });
        failed.map_or(Ok(()), |why| Err(format!("ladder: {prefix}: {why}")))
    }

    fn dfs_disk(&mut self, work: &Path) -> Result<(), String> {
        let dir = cluster::WorkDir::create(work.join("ladder-disk"))?;
        let open = |name: String| {
            DiskStore::open(dir.path().join(&name)).map_err(|x| e("DiskStore::open", x))
        };
        let stores = (0..SERVERS)
            .map(|i| open(format!("d{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut dfs = Dfs::with_stores(stores, code()?);
        let block = self.large[..dfs.code().block_len()].to_vec();
        let mut store = open("blocks".into())?;
        let mut crowded = open("crowded".into())?;
        self.rung("dfs.disk", |l| -> Result<(), String> {
            l.dfs_rungs("dfs.disk", &mut dfs)?;
            let mut failed = None;
            l.us("dfs.diskstore.put_block_us", 20, |i| {
                if let Err(x) = store.put_block(BlockKey::new(0, i, 0), &block) {
                    failed = Some(x.to_string());
                }
            });
            l.us("dfs.diskstore.get_block_us", 40, |i| {
                match store.get_block(BlockKey::new(0, i % 20, 0)) {
                    Ok(BlockGet::Ok(bytes)) if bytes == block => {}
                    _ => failed = Some("get_block returned wrong bytes".into()),
                }
            });
            for i in 0..PROBE_BLOCKS {
                if let Err(x) = crowded.put_block(BlockKey::new(0, i, 0), &block[..64]) {
                    failed = Some(x.to_string());
                }
            }
            l.us(
                "dfs.diskstore.probe_us_at_1000_blocks",
                5,
                |_| match crowded.probe() {
                    Ok(health) if health.blocks == PROBE_BLOCKS as u64 => {}
                    other => failed = Some(format!("probe answered {other:?}")),
                },
            );
            failed.map_or(Ok(()), |why| Err(format!("ladder: dfs.diskstore: {why}")))
        })
    }

    fn net_wire(&mut self) -> Result<(), String> {
        let bulk = self.bulk.clone();
        let daemon = spawn_daemon(MemStore::new())?;
        let mut conn = cluster::connect(&daemon.addr().to_string())?;
        self.rung("net.wire", |l| -> Result<(), String> {
            let mut failed = None;
            l.gbps("net.frame.roundtrip_gbps", 15, BULK, |_| {
                let mut wire = Vec::with_capacity(BULK + 8);
                let mut reader = FrameReader::new();
                let framed = galloper_net::frame::write_frame_vectored(&mut wire, &bulk)
                    .and_then(|()| reader.push(&wire));
                if framed.is_err() || reader.pop().as_deref() != Some(&bulk[..]) {
                    failed = Some("frame round trip lost bytes".to_string());
                }
            });
            let request = Request::PutBlock {
                key: BlockKey::new(0, 0, 0),
                bytes: bulk.clone(),
            };
            l.us(
                "net.proto.put_block_codec_us",
                15,
                |_| match Request::decode(&request.encode()) {
                    Ok(Request::PutBlock { bytes, .. }) if bytes == bulk => {}
                    _ => failed = Some("PutBlock did not survive its codec".to_string()),
                },
            );
            l.us("net.conn.ping_us", 300, |_| {
                if !matches!(conn.call(&Request::Ping), Ok(Response::Ok)) {
                    failed = Some("ping was not answered".to_string());
                }
            });
            failed.map_or(Ok(()), |why| Err(format!("ladder: net.wire: {why}")))
        })
    }

    /// `RemoteStore` against one in-harness `DiskStore` daemon, then a
    /// `Dfs` over seven of them — the same stack `galloper serve` runs,
    /// minus the gateway and the process boundaries.
    fn net_remote(&mut self, work: &Path) -> Result<(), String> {
        let dir = cluster::WorkDir::create(work.join("ladder-remote"))?;
        let mut daemons = spawn_disk_daemons(dir.path())?;
        let mut dfs = Dfs::with_stores(remote_stores(&daemons), code()?);
        let block = self.large[..dfs.code().block_len()].to_vec();
        let (bulk, large) = (self.bulk.clone(), self.large.clone());
        let mut store = RemoteStore::new(daemons[0].addr().to_string());
        // Keys no `Dfs` file id will ever reach.
        let key = |i: usize| BlockKey::new(u64::MAX, i, 0);
        self.rung("net.remote", |l| -> Result<(), String> {
            let mut failed = None;
            l.us("net.remote.put_block_small_us", 20, |i| {
                if let Err(x) = store.put_block(key(i), &block) {
                    failed = Some(x.to_string());
                }
            });
            l.us("net.remote.get_block_small_us", 40, |i| {
                match store.get_block(key(i % 20)) {
                    Ok(BlockGet::Ok(bytes)) if bytes == block => {}
                    _ => failed = Some("get_block returned wrong bytes".into()),
                }
            });
            if let Err(x) = store.put_block(key(20), &bulk) {
                failed = Some(x.to_string());
            }
            l.mbps("net.remote.block_mbps", 10, BULK, |_| {
                match store.get_block(key(20)) {
                    Ok(BlockGet::Ok(bytes)) if bytes == bulk => {}
                    _ => failed = Some("get_block of a bulk block returned wrong bytes".into()),
                }
            });
            l.us("net.remote.probe_us", 20, |_| {
                if let Err(x) = store.probe() {
                    failed = Some(x.to_string());
                }
            });
            if let Some(why) = failed {
                return Err(format!("ladder: net.remote: {why}"));
            }
            l.dfs_rungs("dfs.remote", &mut dfs)?;
            daemons[LOST].kill();
            let mut wrong = false;
            l.mbps("dfs.remote.get_degraded_large_mbps", 5, LARGE, |_| {
                wrong |= dfs.get("large-0").ok().as_deref() != Some(&large[..]);
            });
            if wrong {
                return Err("ladder: dfs.remote degraded get returned wrong bytes".into());
            }
            Ok(())
        })
    }

    /// `Conn` → an in-harness `Gateway` over the rung below, and the one
    /// object that exercises the chunked plane.
    fn net_gateway(&mut self, work: &Path, rng: &mut Xorshift) -> Result<(), String> {
        let dir = cluster::WorkDir::create(work.join("ladder-gateway"))?;
        let daemons = spawn_disk_daemons(dir.path())?;
        let dfs = Dfs::with_stores(remote_stores(&daemons), code()?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|x| e("bind", x))?;
        let gateway =
            Gateway::spawn(listener, dfs, DEFAULT_MAX_INFLIGHT).map_err(|x| e("gateway", x))?;
        let mut conn = cluster::connect(&gateway.addr().to_string())?;
        let (small, large) = (self.small.clone(), self.large.clone());
        let huge = rng.bytes(CHUNKED);
        self.rung("net.gateway", |l| -> Result<(), String> {
            let mut failed = None;
            l.us("net.gateway.put_small_us", 20, |i| {
                if !matches!(
                    conn.put_object(&format!("small-{i}"), &small),
                    Ok(Response::Ok)
                ) {
                    failed = Some("put of a small object failed".to_string());
                }
            });
            l.us("net.gateway.get_small_us", 40, |i| {
                match conn.get_object(&format!("small-{}", i % 20)) {
                    Ok(Response::Blob(bytes)) if bytes == small => {}
                    _ => failed = Some("get of a small object returned wrong bytes".into()),
                }
            });
            l.mbps("net.gateway.put_large_mbps", 3, LARGE, |i| {
                if !matches!(
                    conn.put_object(&format!("large-{i}"), &large),
                    Ok(Response::Ok)
                ) {
                    failed = Some("put of a large object failed".to_string());
                }
            });
            l.mbps("net.gateway.get_large_mbps", 5, LARGE, |i| {
                match conn.get_object(&format!("large-{}", i % 3)) {
                    Ok(Response::Blob(bytes)) if bytes == large => {}
                    _ => failed = Some("get of a large object returned wrong bytes".into()),
                }
            });
            l.mbps("net.chunked_put_mbps", 1, CHUNKED, |_| {
                let sent = conn.put_reader("huge", CHUNKED as u64, &mut &huge[..]);
                if !matches!(sent, Ok(Response::Ok)) {
                    failed = Some("chunked put failed".to_string());
                }
            });
            let mut back = Vec::with_capacity(CHUNKED);
            l.mbps("net.chunked_get_mbps", 1, CHUNKED, |_| {
                if !matches!(conn.get_writer("huge", &mut back), Ok(Response::Ok)) {
                    failed = Some("chunked get failed".to_string());
                }
            });
            if failed.is_none() && back != huge {
                failed = Some("chunked get returned wrong bytes".to_string());
            }
            failed.map_or(Ok(()), |why| Err(format!("ladder: net.gateway: {why}")))
        })
    }

    /// Self times of a 64 KiB GET, rung by rung. They telescope, so
    /// their sum is the top rung `net.gateway.get_small_us` exactly.
    fn self_times(&mut self) {
        let rungs: Vec<(&str, f64)> = [
            ("dfs_mem", "dfs.mem.get_small_us"),
            ("diskstore", "dfs.disk.get_small_us"),
            ("remote", "dfs.remote.get_small_us"),
            ("gateway", "net.gateway.get_small_us"),
        ]
        .into_iter()
        .map(|(rung, metric)| (rung, self.out[metric].value))
        .collect();
        for (rung, own) in stats::self_times(&rungs) {
            let name = format!("ladder.get_small.{rung}_self_us");
            put(&mut self.out, &name, own, "us", 40);
        }
    }
}

/// Streams `object` through a `StripeEncoder` the way `Dfs::put` does
/// (whole messages straight from the caller's bytes, the ragged tail
/// staged), handing each group to `sink`. Returns the manifest and the
/// buffer pool's resident bytes at the end.
fn encode(
    code: &BoxedCode,
    object: &[u8],
    mut sink: impl FnMut(usize, &[AlignedBuf]),
) -> Result<(galloper_erasure::ObjectManifest, u64), String> {
    let mut encoder = StripeEncoder::new(code, |g: usize, blocks: &[AlignedBuf]| {
        sink(g, blocks);
        Ok::<(), Infallible>(())
    });
    let whole = object.chunks_exact(code.message_len());
    let tail = whole.remainder();
    let messages: Vec<&[u8]> = whole.collect();
    encoder
        .push_messages(&messages)
        .map_err(|x| e("encode", x))?;
    encoder.push(tail).map_err(|x| e("encode", x))?;
    let resident = encoder.pool().resident_bytes();
    let (manifest, _) = encoder.finish().map_err(|x| e("encode", x))?;
    Ok((manifest, resident))
}

fn spawn_daemon<S>(store: S) -> Result<DaemonHandle, String>
where
    S: BlockStore + Send + Sync + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|x| e("bind", x))?;
    Daemon::spawn(listener, store).map_err(|x| e("Daemon::spawn", x))
}

fn spawn_disk_daemons(dir: &Path) -> Result<Vec<DaemonHandle>, String> {
    (0..SERVERS)
        .map(|i| {
            let store =
                DiskStore::open(dir.join(format!("d{i}"))).map_err(|x| e("DiskStore::open", x))?;
            spawn_daemon(store)
        })
        .collect()
}

fn remote_stores(daemons: &[DaemonHandle]) -> Vec<RemoteStore> {
    daemons
        .iter()
        .map(|d| RemoteStore::new(d.addr().to_string()).with_timeout(cluster::CLIENT_TIMEOUT))
        .collect()
}
