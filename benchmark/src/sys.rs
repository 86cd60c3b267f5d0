//! What std does not expose: signalling a process that is not our
//! direct child (`galloper serve` never reaps its daemons, so the
//! harness must kill them by PID), and the `/proc` reads that tell
//! whether a process has ended and how much memory it peaked at.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark harness reads /proc and signals by PID: Linux only");

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Sends `SIGKILL` to `pid`. A process that is already gone is not an
/// error: the caller wants it dead either way.
pub fn kill9(pid: u32) {
    // SAFETY: `kill` takes two integers and touches no memory of ours.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Whether `pid` is still running (a zombie has ended).
pub fn is_running(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // `pid (comm) S ...`: the state letter follows the last ')'.
        Ok(stat) => stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.trim_start().chars().next())
            .is_some_and(|state| state != 'Z' && state != 'X'),
        Err(_) => false,
    }
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The command line of a live process, arguments joined by spaces.
pub fn cmdline(pid: u32) -> Option<String> {
    let raw = std::fs::read(format!("/proc/{pid}/cmdline")).ok()?;
    Some(String::from_utf8_lossy(&raw).replace('\0', " "))
}
