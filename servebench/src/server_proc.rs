//! The `webtable-serve` child process: spawn with default settings
//! (only `--data`, `--addr` and `--quiet`), time startup to the first
//! `200` from `/health`, scrape `/admin/stats`, read peak RSS, and shut
//! down — always waiting for the process to end.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use webtable_core::wire::Json;

use crate::load::{http, Outcome};

/// Longest a startup or shutdown may take before the run is abandoned.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server.
#[derive(Debug)]
pub struct ServerProc {
    child: Option<Child>,
    /// `host:port` it listens on.
    pub addr: String,
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl ServerProc {
    /// Spawns the server on `data` and waits until `/health` answers
    /// `200`. Returns the process and the time from spawn to that answer.
    pub fn start(bin: &Path, data: &Path, log: &Path) -> Result<(ServerProc, Duration), String> {
        let addr = format!("127.0.0.1:{}", free_port().map_err(|e| format!("free port: {e}"))?);
        let log_file = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--data")
            .arg(data)
            .args(["--addr", &addr, "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = ServerProc { child: Some(child), addr };
        loop {
            if let Outcome::Response(200, _) = http(&proc.addr, "GET", "/health", "") {
                return Ok((proc, t0.elapsed()));
            }
            let child = proc.child.as_mut().expect("child present until shutdown");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "server exited during startup ({status}); see {}",
                    log.display()
                ));
            }
            if t0.elapsed() > PROCESS_TIMEOUT {
                return Err("server did not become healthy in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) in KiB, where `/proc` has it.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// The parsed `/admin/stats` document.
    pub fn stats(&self) -> Result<Json, String> {
        match http(&self.addr, "GET", "/admin/stats", "") {
            Outcome::Response(200, body) => Json::parse(&body).map_err(|e| e.to_string()),
            other => Err(format!("/admin/stats: {other:?}")),
        }
    }

    /// Asks the server to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = http(&self.addr, "POST", "/admin/shutdown", "");
        let mut child = self.child.take().expect("child present until shutdown");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if t0.elapsed() < PROCESS_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not shut down in time; killed".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `webtable-serve` binary built next to this benchmark's own
/// executable (the launcher builds both into one target directory).
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let bin = exe.with_file_name("webtable-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing; build it with `cargo build --release`", bin.display()))
    }
}
