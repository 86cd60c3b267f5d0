//! Orchestration of the release binary users run: building it, spawning
//! `galloper serve`, and — because `serve` never reaps its daemon
//! children — killing every process it started, on success, on error
//! and on panic alike.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use galloper_net::{Conn, Request, Response};
use galloper_obs::RegistrySnapshot;

use crate::sys;

/// Dial and read timeout of every harness connection — the CLI's own
/// `net-put` / `net-get` value, so a hung server fails an operation
/// instead of hanging the run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `galloper serve` may take to print its whole handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemons in every cluster: one per block of the code.
pub const DAEMONS: usize = 7;

/// The code every workload runs, as CLI flags:
/// `CodeSpec::galloper(4, 2, 1, 65536)` — 7 blocks, all holding
/// original data, 1.75 MiB of user data to a coding group.
pub const CODE_FLAGS: [&str; 8] = ["--family", "galloper", "-k", "4", "-l", "2", "-g", "1"];

/// A `galloper` command with every `GALLOPER_*` variable cleared, so
/// the program runs on its defaults whatever the caller's shell holds.
pub fn galloper_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GALLOPER_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Builds the `galloper` release binary from the tree at `root` and
/// returns its path. Cargo's own freshness check makes this a no-op
/// when the binary already matches the sources, and is what guarantees
/// the numbers describe the current tree.
pub fn build_galloper(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "galloper-cli", "--bin", "galloper", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        // Cargo's progress belongs on stderr; stdout is the result's.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building galloper failed ({status})"));
    }
    // A relative CARGO_TARGET_DIR is relative to the directory cargo was
    // invoked from, which is ours.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let bin = target.join("release").join("galloper");
    if !bin.is_file() {
        return Err(format!("cargo built no {}", bin.display()));
    }
    bin.canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", bin.display()))
}

/// A directory the harness owns, removed on drop (panic included).
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> Result<WorkDir, String> {
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The file system type holding `path` (longest mount-point prefix in
/// `/proc/mounts`), for the result stamp.
pub fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype.to_string())
}

/// Total bytes of the regular files under `dir`.
pub fn bytes_under(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            bytes_under(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// What `galloper serve` announces on stdout before it serves.
#[derive(Debug)]
struct Handshake {
    gateway: String,
    /// `(pid, address)` by daemon index.
    daemons: Vec<(u32, String)>,
}

/// Reads `serve`'s stdout to its end: the handshake goes to `ready`
/// once complete, everything after is drained so the pipe never fills.
fn read_stdout(stdout: std::process::ChildStdout, ready: mpsc::Sender<Result<Handshake, String>>) {
    let mut pids: Vec<Option<u32>> = vec![None; DAEMONS];
    let mut addrs: Vec<Option<String>> = vec![None; DAEMONS];
    let mut ready = Some(ready);
    for line in std::io::BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
    {
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("GALLOPER_DAEMON_PID"), Some(i), Some(pid)) => {
                if let (Ok(i), Ok(pid)) = (i.parse::<usize>(), pid.parse()) {
                    if i < DAEMONS {
                        pids[i] = Some(pid);
                    }
                }
            }
            (Some("GALLOPER_DAEMON_LISTENING"), Some(i), Some(addr)) => {
                if let Ok(i) = i.parse::<usize>() {
                    if i < DAEMONS {
                        addrs[i] = Some(addr.to_string());
                    }
                }
            }
            (Some("GALLOPER_GATEWAY_LISTENING"), Some(addr), None) => {
                let daemons: Option<Vec<(u32, String)>> = pids
                    .iter()
                    .zip(&addrs)
                    .map(|(p, a)| Some(((*p)?, a.clone()?)))
                    .collect();
                let shake = daemons
                    .map(|daemons| Handshake {
                        gateway: addr.to_string(),
                        daemons,
                    })
                    .ok_or_else(|| "serve announced its gateway before all daemons".to_string());
                if let Some(tx) = ready.take() {
                    let _ = tx.send(shake);
                }
            }
            _ => {}
        }
    }
    if let Some(tx) = ready {
        let _ = tx.send(Err("serve exited before announcing its gateway".into()));
    }
}

/// One running `galloper serve`: gateway plus seven daemon processes
/// rooted under one directory. Dropping it kills all eight processes,
/// waits until they have ended, and removes the directory.
#[derive(Debug)]
pub struct Cluster {
    serve: Child,
    stdout_reader: Option<JoinHandle<()>>,
    gateway: String,
    daemons: Vec<DaemonProcess>,
    root: WorkDir,
}

#[derive(Debug)]
struct DaemonProcess {
    pid: u32,
    addr: String,
    /// Cleared by [`Cluster::kill_daemon`].
    alive: bool,
}

impl Cluster {
    /// Spawns `galloper serve` on ephemeral ports with its state under
    /// `root` and waits for the handshake.
    pub fn spawn(bin: &Path, root: PathBuf) -> Result<Cluster, String> {
        let root = WorkDir::create(root)?;
        let mut serve = galloper_command(bin)
            .arg("serve")
            .args(["--daemons", &DAEMONS.to_string()])
            .args(CODE_FLAGS)
            .arg("--root")
            .arg(root.path())
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = serve.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || read_stdout(stdout, tx));
        // From here on the guard owns the processes: any early return
        // below still kills whatever serve managed to start.
        let mut cluster = Cluster {
            serve,
            stdout_reader: Some(reader),
            gateway: String::new(),
            daemons: Vec::new(),
            root,
        };
        let shake = rx
            .recv_timeout(HANDSHAKE_TIMEOUT)
            .map_err(|_| "serve printed no handshake in time".to_string())??;
        cluster.gateway = shake.gateway;
        cluster.daemons = shake
            .daemons
            .into_iter()
            .map(|(pid, addr)| DaemonProcess {
                pid,
                addr,
                alive: true,
            })
            .collect();
        Ok(cluster)
    }

    /// The gateway's address.
    pub fn gateway(&self) -> &str {
        &self.gateway
    }

    /// The directory holding the seven daemon roots.
    pub fn root(&self) -> &Path {
        self.root.path()
    }

    /// PID of the `galloper serve` process (the gateway).
    pub fn serve_pid(&self) -> u32 {
        self.serve.id()
    }

    /// `kill -9`s daemon `index` and waits until it has ended.
    pub fn kill_daemon(&mut self, index: usize) {
        kill_and_wait(self.daemons[index].pid, self.root.path());
        self.daemons[index].alive = false;
    }

    /// Addresses of the daemons not killed by [`Cluster::kill_daemon`].
    pub fn live_daemons(&self) -> impl Iterator<Item = &str> {
        self.daemons
            .iter()
            .filter(|d| d.alive)
            .map(|d| d.addr.as_str())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The gateway first, so nothing is re-dialing while daemons die.
        let _ = self.serve.kill();
        let _ = self.serve.wait();
        for daemon in &self.daemons {
            kill_and_wait(daemon.pid, self.root.path());
        }
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
        // `root` removes the directory when it drops, after this.
    }
}

/// Kills `pid` if it is (still) a process of ours — its command line
/// names our `root`, which no recycled PID's would — and waits for it
/// to end.
fn kill_and_wait(pid: u32, root: &Path) {
    let ours = sys::cmdline(pid).is_some_and(|c| c.contains(&*root.to_string_lossy()));
    if !ours {
        return;
    }
    sys::kill9(pid);
    let deadline = Instant::now() + Duration::from_secs(5);
    while sys::is_running(pid) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Connects to `addr` with the harness timeouts.
pub fn connect(addr: &str) -> Result<Conn, String> {
    let mut conn = Conn::connect(addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    conn.set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("cannot set timeout on {addr}: {e}"))?;
    Ok(conn)
}

/// One `Request::Stats` scrape of the gateway or a daemon at `addr`:
/// its registry export.
pub fn scrape(addr: &str) -> Result<RegistrySnapshot, String> {
    let raw = match connect(addr)?.call(&Request::Stats) {
        Ok(Response::Stats(raw)) => raw,
        Ok(other) => return Err(format!("stats from {addr}: unexpected {other:?}")),
        Err(e) => return Err(format!("stats from {addr}: {e}")),
    };
    let text = String::from_utf8(raw).map_err(|_| format!("stats from {addr}: not UTF-8"))?;
    let doc = galloper_obs::json::parse(&text).map_err(|e| format!("stats from {addr}: {e}"))?;
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| format!("stats from {addr}: no 'metrics'"))?;
    RegistrySnapshot::from_json(metrics).map_err(|e| format!("stats from {addr}: {e}"))
}
