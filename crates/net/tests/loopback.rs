//! End-to-end loopback tests: real TCP, three storage daemons, one
//! gateway, and the full erasure-coding pipeline between them.

use std::net::TcpListener;
use std::time::Duration;

use galloper_codes::{build_code, CodeSpec};
use galloper_dfs::{BlockGet, BlockKey, BlockStore, Dfs, ErasureCode, MemStore};
use galloper_net::{
    Conn, Daemon, ErrorKind, Gateway, ProtocolError, RemoteStore, Request, Response, ServerHandle,
    WHOLE_OBJECT_MAX,
};
use galloper_obs::global;

/// Short client timeout so daemon-kill tests fail fast, not in 5s.
const TIMEOUT: Duration = Duration::from_millis(2000);

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind loopback")
}

fn spawn_daemons(n: usize) -> (Vec<ServerHandle>, Vec<RemoteStore>) {
    let mut handles = Vec::new();
    let mut stores = Vec::new();
    for _ in 0..n {
        let l = listener();
        let handle = Daemon::spawn(l, MemStore::new()).expect("daemon");
        stores.push(RemoteStore::new(handle.addr().to_string()).with_timeout(TIMEOUT));
        handles.push(handle);
    }
    (handles, stores)
}

fn spawn_cluster(n: usize) -> (Vec<ServerHandle>, ServerHandle, Conn) {
    spawn_cluster_with(n, &CodeSpec::rs(2, 1, 1024))
}

fn spawn_cluster_with(n: usize, spec: &CodeSpec) -> (Vec<ServerHandle>, ServerHandle, Conn) {
    let (daemons, stores) = spawn_daemons(n);
    // rs(2,1): 3 blocks per group, tolerates any single loss — the
    // smallest cluster that survives a daemon kill.
    let code = build_code(spec).expect("code");
    let dfs = Dfs::with_stores(stores, code);
    let gateway = Gateway::spawn(listener(), dfs, 64).expect("gateway");
    let conn = Conn::connect(&gateway.addr().to_string(), TIMEOUT).expect("connect");
    (daemons, gateway, conn)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (state >> 32) as u8
        })
        .collect()
}

#[test]
fn daemon_serves_block_plane_over_tcp() {
    let (daemons, stores) = spawn_daemons(1);
    let mut store = stores.into_iter().next().unwrap();
    let key = BlockKey::new(7, 3, 1);
    let bytes = payload(4096, 42);

    assert!(matches!(store.get_block(key), Ok(BlockGet::Missing)));
    store.put_block(key, &bytes).expect("put");
    match store.get_block(key).expect("get") {
        BlockGet::Ok(read) => assert_eq!(read, bytes),
        other => panic!("expected bytes, got {other:?}"),
    }
    assert_eq!(store.scan_blocks().expect("scan"), vec![key]);
    let health = store.probe().expect("probe");
    assert_eq!((health.blocks, health.bytes), (1, 4096));
    assert!(store.delete_block(key).expect("delete"));
    assert!(!store.delete_block(key).expect("re-delete"));
    assert!(matches!(store.get_block(key), Ok(BlockGet::Missing)));
    assert_eq!(store.scan_blocks().expect("rescan"), Vec::new());
    let health = store.probe().expect("reprobe");
    assert_eq!((health.blocks, health.bytes), (0, 0));
    drop(daemons);
}

#[test]
fn killed_daemon_reads_as_unreachable_not_hang() {
    let (mut daemons, stores) = spawn_daemons(1);
    let store = stores.into_iter().next().unwrap();
    daemons[0].kill();
    let err = store.get_block(BlockKey::new(1, 0, 0));
    assert!(
        matches!(err, Err(galloper_dfs::StoreError::Unreachable(_))),
        "got {err:?}"
    );
    // Occupancy questions fail the same way instead of reading as an
    // empty store.
    assert!(matches!(
        store.probe(),
        Err(galloper_dfs::StoreError::Unreachable(_))
    ));
    assert!(matches!(
        store.scan_blocks(),
        Err(galloper_dfs::StoreError::Unreachable(_))
    ));
}

/// Placement runs on the namespace's own block counts, so what a put
/// costs the daemons is its blocks' `PutBlock`s and nothing else — no
/// `Probe` per placement decision.
#[test]
fn remote_put_is_one_daemon_request_per_block() {
    let (_daemons, stores) = spawn_daemons(3);
    let code = build_code(&CodeSpec::rs(2, 1, 1024)).expect("code");
    let per_put = 3 * code.num_blocks() as u64;
    let bytes = payload(3 * code.message_len(), 5);
    let mut dfs = Dfs::with_stores(stores, code);
    // The counter is process-wide and sibling tests drive daemons of
    // their own meanwhile. Their traffic can only add to a delta, so
    // every put moves it by at least its own requests, and a put that
    // overlaps none of theirs by exactly that.
    let requests = global().counter("net.daemon.requests");
    let mut quietest = u64::MAX;
    for attempt in 0..500 {
        let before = requests.get();
        dfs.put(&format!("obj/{attempt}"), &bytes).expect("put");
        quietest = quietest.min(requests.get() - before);
        if quietest <= per_put {
            break;
        }
    }
    assert_eq!(quietest, per_put, "a 3-group put is 3n daemon requests");
}

#[test]
fn gateway_roundtrips_objects_byte_exact() {
    let (_daemons, _gateway, mut conn) = spawn_cluster(3);
    let bytes = payload(100_000, 7);
    let put = conn
        .call(&Request::PutObject {
            name: "a/b".into(),
            bytes: bytes.clone(),
        })
        .expect("put");
    assert_eq!(put, Response::Ok);
    match conn
        .call(&Request::GetObject { name: "a/b".into() })
        .expect("get")
    {
        Response::Blob(read) => assert_eq!(read, bytes),
        other => panic!("expected blob, got {other:?}"),
    }
}

#[test]
fn gateway_errors_carry_stable_kinds() {
    let (_daemons, _gateway, mut conn) = spawn_cluster(3);
    match conn
        .call(&Request::GetObject {
            name: "nope".into(),
        })
        .expect("call")
    {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::NotFound),
        other => panic!("expected error, got {other:?}"),
    }
    conn.call(&Request::PutObject {
        name: "dup".into(),
        bytes: vec![1, 2, 3],
    })
    .expect("put");
    match conn
        .call(&Request::PutObject {
            name: "dup".into(),
            bytes: vec![4],
        })
        .expect("re-put")
    {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::AlreadyExists),
        other => panic!("expected error, got {other:?}"),
    }
    // Block-plane traffic at the gateway is refused, typed.
    match conn.call(&Request::ScanBlocks).expect("scan") {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn degraded_get_survives_daemon_kill_byte_exact() {
    let (mut daemons, _gateway, mut conn) = spawn_cluster(3);
    let bytes = payload(250_000, 99);
    conn.call(&Request::PutObject {
        name: "survivor".into(),
        bytes: bytes.clone(),
    })
    .expect("put");

    daemons[1].kill();

    match conn
        .call(&Request::GetObject {
            name: "survivor".into(),
        })
        .expect("degraded get")
    {
        Response::Blob(read) => assert_eq!(read, bytes, "degraded read must be byte-exact"),
        other => panic!("expected blob, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_read_consistently() {
    let (_daemons, gateway, mut conn) = spawn_cluster(3);
    let bytes = payload(50_000, 3);
    conn.call(&Request::PutObject {
        name: "shared".into(),
        bytes: bytes.clone(),
    })
    .expect("put");

    let addr = gateway.addr().to_string();
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let expect = bytes.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr, TIMEOUT).expect("connect");
                for _ in 0..5 {
                    match conn
                        .call(&Request::GetObject {
                            name: "shared".into(),
                        })
                        .expect("get")
                    {
                        Response::Blob(read) => assert_eq!(read, expect),
                        other => panic!("expected blob, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader");
    }
}

/// The tentpole e2e: objects straddling the old one-frame cap
/// round-trip byte-exactly over the chunked plane, the gateway's
/// buffering stays bounded by the coding-group window (not object
/// size), and the old whole-frame GET gets a clean typed refusal
/// instead of a doomed oversize frame.
#[test]
fn chunked_transfer_roundtrips_objects_straddling_the_frame_cap() {
    // A wide stripe keeps group counts sane for 100-MiB-scale objects:
    // message_len = 2 * 1 MiB per coding group.
    let (_daemons, _gateway, mut conn) = spawn_cluster_with(3, &CodeSpec::rs(2, 1, 1 << 20));
    let bytes_in = global().counter("net.gateway.stream.bytes_in");
    let bytes_out = global().counter("net.gateway.stream.bytes_out");
    let (in_before, out_before) = (bytes_in.get(), bytes_out.get());

    // The old cap, straddled from both sides, plus a ragged ~160 MiB
    // object that is nowhere near a group boundary.
    let sizes = [
        (64 << 20) - 1,
        64 << 20,
        (64 << 20) + 1,
        160 * (1 << 20) + 12_345,
    ];
    let mut total = 0u64;
    for (i, &n) in sizes.iter().enumerate() {
        assert!(n > WHOLE_OBJECT_MAX, "size {n} must take the chunked path");
        let name = format!("big/{i}");
        let bytes = payload(n, 0xB16 + i as u64);
        assert_eq!(
            conn.put_object(&name, &bytes).expect("chunked put"),
            Response::Ok
        );
        // An old-style whole-frame GET of an oversize object is a
        // typed OutOfRange refusal — and the connection stays usable.
        match conn
            .call(&Request::GetObject { name: name.clone() })
            .expect("whole-frame get")
        {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::OutOfRange),
            other => panic!("expected oversize refusal, got {other:?}"),
        }
        match conn.get_object(&name).expect("chunked get") {
            Response::Blob(read) => {
                assert!(read == bytes, "byte mismatch for {n}-byte object");
            }
            other => panic!("expected blob, got {other:?}"),
        }
        total += n as u64;
    }

    // Every byte of every object crossed the chunked plane, twice.
    assert!(bytes_in.get() - in_before >= total, "bytes_in undercounts");
    assert!(
        bytes_out.get() - out_before >= total,
        "bytes_out undercounts"
    );
    // All transfers closed out.
    assert_eq!(global().gauge("net.gateway.stream.inflight").get(), 0);
    // Bounded memory: the encode pipeline's pool high-water stays a
    // coding-group window, far below the smallest object streamed.
    let peak = global().gauge("stream.pool.resident_peak_bytes").get();
    assert!(
        peak > 0 && peak < 64 << 20,
        "gateway pool peak {peak} bytes is not bounded by the group window"
    );
}

/// A name long enough to push a `WHOLE_OBJECT_MAX`-byte object's
/// `PutObject` frame past `MAX_FRAME`: the client chooses the wire
/// shape by the one frame-fit rule, so the object goes chunked instead
/// of failing the frame write and poisoning the connection.
#[test]
fn a_long_name_beside_a_frame_sized_object_roundtrips() {
    let (_daemons, _gateway, mut conn) = spawn_cluster_with(3, &CodeSpec::rs(2, 1, 1 << 20));
    let name = "n".repeat(8 << 10);
    let bytes = payload(WHOLE_OBJECT_MAX, 0x10_4E);
    assert_eq!(conn.put_object(&name, &bytes).expect("put"), Response::Ok);
    match conn.get_object(&name).expect("get") {
        Response::Blob(read) => assert!(read == bytes, "byte mismatch"),
        other => panic!("expected blob, got {other:?}"),
    }
}

/// A gateway whose coding group one `Chunk` frame cannot carry would
/// accept uploads it could never serve back, so it refuses to start.
#[test]
fn a_gateway_refuses_a_group_wider_than_one_frame() {
    // RS(2,1) over 33 MiB stripes: a 66 MiB coding group.
    let code = build_code(&CodeSpec::rs(2, 1, 33 << 20)).expect("code");
    let group = code.message_len() as u64;
    match Gateway::spawn(listener(), Dfs::new(3, code), 64) {
        Err(ProtocolError::Oversize { len, max }) => {
            assert_eq!((len, max), (group, WHOLE_OBJECT_MAX));
        }
        other => panic!("expected an oversize refusal, got {other:?}"),
    }
}

/// Compat: a client that only speaks the historical whole-frame
/// protocol — raw frames, no extensions — still round-trips small
/// objects unchanged against the chunked-capable gateway.
#[test]
fn old_whole_frame_clients_still_roundtrip_small_objects() {
    use std::io::Write;
    let (_daemons, gateway, _conn) = spawn_cluster(3);
    let mut raw = raw_connect(gateway.addr());
    let bytes = payload(30_000, 0x01d);
    let exchange = |raw: &mut std::net::TcpStream, req: &Request| -> Response {
        raw.write_all(&framed(&req.encode())).expect("request");
        read_response(raw)
    };
    assert_eq!(
        exchange(
            &mut raw,
            &Request::PutObject {
                name: "legacy".into(),
                bytes: bytes.clone(),
            }
        ),
        Response::Ok
    );
    match exchange(
        &mut raw,
        &Request::GetObject {
            name: "legacy".into(),
        },
    ) {
        Response::Blob(read) => assert_eq!(read, bytes),
        other => panic!("expected blob, got {other:?}"),
    }
}

/// A connection that dies mid-frame must be poisoned and never
/// recycled into the `RemoteStore` pool: the next caller would read
/// the tail of the interrupted response as its own.
#[test]
fn truncated_frame_poisons_the_connection_and_skips_the_pool() {
    use std::io::{Read, Write};
    let listener = listener();
    let addr = listener.local_addr().expect("addr").to_string();
    // A frame-speaking fake daemon: answers the first request with a
    // well-formed block, then the second with a *truncated* frame —
    // a header promising 100 bytes followed by 10 and a hangup.
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let read_request = |sock: &mut std::net::TcpStream| {
            let mut header = [0u8; 4];
            sock.read_exact(&mut header).expect("request header");
            let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
            sock.read_exact(&mut payload).expect("request payload");
        };
        read_request(&mut sock);
        let frame = Response::Block(vec![7u8; 16]).encode();
        sock.write_all(&(frame.len() as u32).to_le_bytes())
            .expect("header");
        sock.write_all(&frame).expect("payload");
        read_request(&mut sock);
        sock.write_all(&100u32.to_le_bytes()).expect("bad header");
        sock.write_all(&[0u8; 10]).expect("short payload");
        // Drop: the client is now mid-frame on a dead socket.
    });

    let store = RemoteStore::new(addr).with_timeout(TIMEOUT);
    let key = BlockKey::new(1, 0, 0);
    match store.get_block(key).expect("first get") {
        BlockGet::Ok(read) => assert_eq!(read, vec![7u8; 16]),
        other => panic!("expected bytes, got {other:?}"),
    }
    assert_eq!(store.pooled(), 1, "healthy connection must be pooled");
    let err = store.get_block(key);
    assert!(
        matches!(err, Err(galloper_dfs::StoreError::Unreachable(_))),
        "truncated frame must surface as unreachable, got {err:?}"
    );
    assert_eq!(store.pooled(), 0, "poisoned connection must not be pooled");
    server.join().expect("fake daemon");
}

/// Direct poisoning semantics on `Conn`: after a mid-frame transport
/// error, further requests are refused locally instead of writing into
/// a desynced stream.
#[test]
fn poisoned_conn_refuses_further_requests() {
    use std::io::{Read, Write};
    let listener = listener();
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut header = [0u8; 4];
        sock.read_exact(&mut header).expect("request header");
        let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
        sock.read_exact(&mut payload).expect("request payload");
        sock.write_all(&100u32.to_le_bytes()).expect("bad header");
        sock.write_all(&[0u8; 10]).expect("short payload");
    });
    let mut conn = Conn::connect(&addr, TIMEOUT).expect("connect");
    assert!(!conn.is_poisoned());
    assert!(conn.call(&Request::Ping).is_err(), "truncated frame");
    assert!(conn.is_poisoned());
    let refused = conn.call(&Request::Ping);
    assert!(
        refused.is_err(),
        "poisoned conn must refuse, got {refused:?}"
    );
    server.join().expect("fake server");
}

fn raw_connect(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    raw.set_nodelay(true).expect("nodelay");
    raw
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn read_response(raw: &mut std::net::TcpStream) -> Response {
    use std::io::Read;
    let mut header = [0u8; 4];
    raw.read_exact(&mut header).expect("response header");
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    raw.read_exact(&mut payload).expect("response payload");
    Response::decode(&payload).expect("decodable response")
}

fn assert_protocol_refusal(resp: Response) {
    match resp {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
        other => panic!("expected protocol refusal, got {other:?}"),
    }
}

/// What any server owes a peer that reaches under the `Conn`
/// abstraction, whichever plane it serves. `wrong_plane` is a
/// well-formed request of the *other* plane.
fn assert_wire_conformance(addr: std::net::SocketAddr, wrong_plane: &Request) {
    use std::io::{Read, Write};
    // Input that can never become a request — a well-framed payload
    // that is not a message (tag 0x7F is unassigned), and a length
    // prefix past the frame cap — gets a typed refusal, and then the
    // connection is torn down: the next read sees EOF, not a hung
    // socket.
    let oversize = (galloper_net::MAX_FRAME as u32 + 1).to_le_bytes();
    for unanswerable in [framed(&[0x7F, 1, 2, 3]), oversize.to_vec()] {
        let mut raw = raw_connect(addr);
        raw.write_all(&unanswerable).expect("send");
        assert_protocol_refusal(read_response(&mut raw));
        let mut rest = Vec::new();
        assert_eq!(raw.read_to_end(&mut rest).expect("eof"), 0);
    }

    // A valid request trickling in one byte per write is still one
    // request.
    let mut raw = raw_connect(addr);
    for byte in framed(&Request::Ping.encode()) {
        raw.write_all(&[byte]).expect("one byte");
    }
    assert_eq!(read_response(&mut raw), Response::Ok);

    // A well-formed request for the other plane is refused, typed —
    // but the frame stream is intact, so the connection lives on.
    raw.write_all(&framed(&wrong_plane.encode()))
        .expect("wrong plane");
    assert_protocol_refusal(read_response(&mut raw));
    raw.write_all(&framed(&Request::Ping.encode()))
        .expect("ping");
    assert_eq!(read_response(&mut raw), Response::Ok);
}

#[test]
fn wire_conformance_holds_on_both_planes() {
    let (daemons, gateway, _conn) = spawn_cluster(3);
    assert_wire_conformance(
        daemons[0].addr(),
        &Request::GetObject {
            name: "misdirected".into(),
        },
    );
    assert_wire_conformance(
        gateway.addr(),
        &Request::GetBlock {
            key: BlockKey::new(1, 0, 0),
        },
    );
}

/// `kill` is a machine loss on either plane: once it returns, a fresh
/// client gets no answer.
#[test]
fn killed_servers_answer_no_new_client() {
    let (mut daemons, mut gateway, _conn) = spawn_cluster(3);
    for server in [&mut daemons[0], &mut gateway] {
        let addr = server.addr().to_string();
        let ping = |addr: &str| {
            let mut conn = Conn::connect(addr, TIMEOUT)?;
            conn.set_read_timeout(Some(Duration::from_millis(300)))?;
            conn.call(&Request::Ping)
        };
        assert_eq!(ping(&addr).expect("alive"), Response::Ok);
        server.kill();
        let answer = ping(&addr);
        assert!(answer.is_err(), "killed server answered {answer:?}");
    }
}

/// A connection that drops in the middle of a chunked upload takes its
/// staged blocks with it: the gateway's hang-up hook aborts the
/// transfer and reclaims them from every daemon.
#[test]
fn connection_dropped_mid_put_chunk_leaves_no_blocks_behind() {
    use std::io::Write;
    let (daemons, gateway, _conn) = spawn_cluster(3);
    let shelves: Vec<RemoteStore> = daemons
        .iter()
        .map(|d| RemoteStore::new(d.addr().to_string()).with_timeout(TIMEOUT))
        .collect();
    let held = |shelves: &[RemoteStore]| -> usize {
        shelves
            .iter()
            .map(|s| s.scan_blocks().expect("scan").len())
            .sum()
    };

    let mut raw = raw_connect(gateway.addr());
    let start = Request::PutStart {
        name: "abandoned".into(),
        object_len: 1 << 20,
    };
    raw.write_all(&framed(&start.encode())).expect("start");
    let id = match read_response(&mut raw) {
        Response::PutBegun { id } => id,
        other => panic!("expected PutBegun, got {other:?}"),
    };
    // One whole chunk lands: several coding groups are now staged on
    // the daemons.
    let chunk = |seq| Request::PutChunk {
        id,
        seq,
        bytes: payload(64 * 1024, seq),
    };
    raw.write_all(&framed(&chunk(0).encode())).expect("chunk 0");
    assert_eq!(read_response(&mut raw), Response::Ok);
    assert!(held(&shelves) > 0, "the first chunk staged no blocks");
    // The second is cut off halfway through its frame.
    let second = framed(&chunk(1).encode());
    raw.write_all(&second[..second.len() / 2])
        .expect("half a chunk");
    drop(raw);

    // The gateway notices the hang-up on its own schedule.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while held(&shelves) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(held(&shelves), 0, "staged blocks outlived the connection");
}
