//! Process orchestration behind `galloper serve`, `galloper daemon`,
//! `galloper net-put`, and `galloper net-get`.
//!
//! `serve` launches a small networked object store on loopback: `N`
//! storage-daemon child processes (re-invoking the current executable
//! with the `daemon` subcommand, each rooted in its own
//! [`DiskStore`] directory) plus an in-process
//! [`Gateway`] that erasure-codes objects across
//! [`RemoteStore`] clients for those
//! daemons.
//!
//! The launch handshake is line-oriented on stdout so scripts (CI, the
//! load generator) can wire themselves up without fixed ports:
//!
//! ```text
//! GALLOPER_DAEMON_PID <index> <pid>
//! GALLOPER_DAEMON_LISTENING <index> <addr>     (one pair per daemon)
//! GALLOPER_GATEWAY_LISTENING <addr>            (last; serving begins)
//! ```
//!
//! A bare `daemon` process prints its own
//! `GALLOPER_DAEMON_LISTENING <addr>` (no index) once bound. Everything
//! here returns `String` errors — these functions sit directly behind
//! the binary's argument parser, which prints them and exits nonzero.

use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use galloper_codes::{build_code, CodeSpec};
use galloper_dfs::{Dfs, DiskStore};
use galloper_net::{max_inflight_from_env, Conn, Daemon, Gateway, RemoteStore, Response, Scraper};

/// Client-side timeout for `net-put` / `net-get` and the gateway's
/// daemon connections. Generous: a put of a large object against cold
/// disks is the slow path, and the gateway treats a timeout as a
/// server loss.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Resolves the listen address: explicit flag, else `GALLOPER_LISTEN`,
/// else an ephemeral loopback port.
pub fn resolve_listen(flag: Option<&str>) -> String {
    if let Some(addr) = flag {
        return addr.to_string();
    }
    std::env::var("GALLOPER_LISTEN").unwrap_or_else(|_| "127.0.0.1:0".into())
}

/// Runs a storage daemon in the foreground: binds `listen`, opens (or
/// creates) the [`DiskStore`] at `root`,
/// prints the `GALLOPER_DAEMON_LISTENING` handshake line, and serves
/// until killed.
///
/// # Errors
///
/// A rendered message when the bind, the store open or the server
/// start fails.
pub fn run_daemon(root: &Path, listen: &str) -> Result<(), String> {
    let listener =
        TcpListener::bind(listen).map_err(|e| format!("daemon: cannot bind {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("daemon: no local addr: {e}"))?;
    let store = DiskStore::open(root)
        .map_err(|e| format!("daemon: cannot open store at {}: {e}", root.display()))?;
    let daemon =
        Daemon::spawn(listener, store).map_err(|e| format!("daemon: serve failed: {e}"))?;
    println!("GALLOPER_DAEMON_LISTENING {addr}");
    serve_until_killed(daemon)
}

/// Serves until the process is killed. The servers in `held` run on
/// background threads; the calling thread only keeps the process (and,
/// for `serve`, the children's parenthood) alive.
fn serve_until_killed<T>(held: T) -> ! {
    loop {
        std::thread::park();
        // Spurious unparks are allowed by the std contract; nothing to
        // do but keep holding the servers.
        let _ = &held;
    }
}

/// One spawned daemon child: its process handle and bound address.
struct DaemonChild {
    child: Child,
    addr: String,
}

/// Spawns one `galloper daemon` child rooted at `root` and waits for
/// its handshake line.
fn spawn_daemon_child(index: usize, root: &Path) -> Result<DaemonChild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("serve: current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("daemon")
        .arg("--root")
        .arg(root)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("serve: cannot spawn daemon {index}: {e}"))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| format!("serve: daemon {index} has no stdout"))?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("GALLOPER_DAEMON_LISTENING ") {
                    break addr.trim().to_string();
                }
                // Anything else on stdout (metrics notices, …) is
                // passed through so it is not silently swallowed.
                println!("[daemon {index}] {line}");
            }
            Some(Err(e)) => {
                let _ = child.kill();
                return Err(format!("serve: daemon {index} stdout failed: {e}"));
            }
            None => {
                let _ = child.kill();
                return Err(format!(
                    "serve: daemon {index} exited before announcing its address"
                ));
            }
        }
    };
    // Keep draining the child's stdout in the background so the pipe
    // never fills and blocks it.
    std::thread::Builder::new()
        .name(format!("daemon-{index}-stdout"))
        .spawn(move || {
            for line in lines.map_while(Result::ok) {
                println!("[daemon {index}] {line}");
            }
        })
        .map_err(|e| format!("serve: cannot spawn stdout drain: {e}"))?;
    Ok(DaemonChild { child, addr })
}

/// Launches the full loopback cluster: `daemons` child processes
/// rooted under `root/d<i>`, then a gateway serving `spec` over them
/// on `listen`. Prints the handshake lines documented at module level
/// and serves until the process is killed; daemon children must be
/// killed by the PIDs printed in the handshake (CI does exactly that).
///
/// # Errors
///
/// A rendered message when a child fails to launch, the spec does not
/// build, the spec's group width exceeds the daemon count, or the
/// gateway cannot bind. Already-spawned children are killed before
/// returning an error.
pub fn run_serve(daemons: usize, root: &Path, listen: &str, spec: &CodeSpec) -> Result<(), String> {
    let code = build_code(spec).map_err(|e| format!("serve: bad code spec: {e}"))?;
    if code.num_blocks() > daemons {
        return Err(format!(
            "serve: code places {} blocks per group but only {daemons} daemons were requested",
            code.num_blocks()
        ));
    }
    let mut children: Vec<DaemonChild> = Vec::with_capacity(daemons);
    for i in 0..daemons {
        match spawn_daemon_child(i, &root.join(format!("d{i}"))) {
            Ok(c) => children.push(c),
            Err(e) => {
                for mut c in children {
                    let _ = c.child.kill();
                }
                return Err(e);
            }
        }
    }
    for (i, c) in children.iter().enumerate() {
        println!("GALLOPER_DAEMON_PID {i} {}", c.child.id());
        println!("GALLOPER_DAEMON_LISTENING {i} {}", c.addr);
    }
    let stores: Vec<RemoteStore> = children
        .iter()
        .map(|c| RemoteStore::new(c.addr.clone()).with_timeout(CLIENT_TIMEOUT))
        .collect();
    let dfs = Dfs::with_stores(stores, code);
    let listener = TcpListener::bind(listen).map_err(|e| {
        for c in &mut children {
            let _ = c.child.kill();
        }
        format!("serve: cannot bind gateway on {listen}: {e}")
    })?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("serve: no gateway addr: {e}"))?;
    // The scraper polls every daemon on `GALLOPER_SCRAPE_MS` and the
    // gateway serves its merged cluster view through `Stats` — this is
    // what `galloper stat` / `galloper top` read.
    let scraper = std::sync::Arc::new(Scraper::from_env(
        children.iter().map(|c| c.addr.clone()).collect(),
    ));
    let gateway = Gateway::spawn_with_scraper(
        listener,
        dfs,
        max_inflight_from_env(),
        Some(std::sync::Arc::clone(&scraper)),
    )
    .map_err(|e| format!("serve: gateway failed: {e}"))?;
    println!("GALLOPER_GATEWAY_LISTENING {addr}");
    serve_until_killed((gateway, scraper))
}

/// The default serve spec for `daemons` servers when no family flags
/// were given: plain Reed–Solomon striping across all daemons with one
/// parity, the widest single-loss-tolerant layout for the cluster.
pub fn default_serve_spec(daemons: usize, stripe_size: usize) -> Result<CodeSpec, String> {
    if daemons < 2 {
        return Err("serve needs at least 2 daemons (k >= 1 plus one parity)".into());
    }
    Ok(CodeSpec::rs(daemons - 1, 1, stripe_size))
}

/// Uploads `file` to the gateway at `addr` as object `name`. Objects
/// that fit one frame go as a single `PutObject`; larger files stream
/// chunk by chunk from disk — the client never holds the whole object
/// in memory, and there is no size ceiling beyond the gateway's.
///
/// # Errors
///
/// A rendered message on connect/transport failure or a typed error
/// response (whose stable [`kind`](galloper_net::ErrorKind) is
/// included).
pub fn net_put(addr: &str, name: &str, file: &Path) -> Result<usize, String> {
    let mut reader =
        std::fs::File::open(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let len = reader
        .metadata()
        .map_err(|e| format!("cannot stat {}: {e}", file.display()))?
        .len();
    let mut conn = Conn::connect(addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match conn
        .put_reader(name, len, &mut reader)
        .map_err(|e| format!("put failed: {e}"))?
    {
        Response::Ok => Ok(len as usize),
        Response::Err { kind, message } => Err(format!("put refused ({kind}): {message}")),
        other => Err(format!("unexpected put response: {other:?}")),
    }
}

/// Downloads object `name` from the gateway at `addr` into `output`,
/// streaming chunk by chunk for objects too large for one frame.
///
/// # Errors
///
/// A rendered message on connect/transport failure, a typed error
/// response, or an unwritable output path.
pub fn net_get(addr: &str, name: &str, output: &Path) -> Result<usize, String> {
    let mut conn = Conn::connect(addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(output)
            .map_err(|e| format!("cannot write {}: {e}", output.display()))?,
    );
    match conn
        .get_writer(name, &mut out)
        .map_err(|e| format!("get failed: {e}"))?
    {
        Response::Ok => {
            use std::io::Write as _;
            out.flush()
                .map_err(|e| format!("cannot write {}: {e}", output.display()))?;
            let len = out
                .get_ref()
                .metadata()
                .map_err(|e| format!("cannot stat {}: {e}", output.display()))?
                .len();
            Ok(len as usize)
        }
        Response::Err { kind, message } => Err(format!("get refused ({kind}): {message}")),
        other => Err(format!("unexpected get response: {other:?}")),
    }
}

/// Default root directory for `serve` state when `--root` is not
/// given: a `galloper-serve` directory under the system temp dir.
pub fn default_root() -> PathBuf {
    std::env::temp_dir().join("galloper-serve")
}
