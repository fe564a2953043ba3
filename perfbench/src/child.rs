//! Child processes: building and running the `hoiho` CLI, and reading
//! what the kernel knows about them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Build the `hoiho` CLI from the checkout's sources and return its
/// path. Cargo puts it under `CARGO_TARGET_DIR` when that is set.
pub fn build_cli() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "hoiho-cli",
        ])
        .args(["--bin", "hoiho"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hoiho failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("hoiho");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// What one finished child process cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn to exit.
    pub wall_s: f64,
    /// User plus system CPU.
    pub cpu_s: f64,
    /// Peak resident set.
    pub peak_rss_mb: f64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Run `cmd` to completion and return its wall time, CPU time and peak
/// RSS from `wait4`. Stdout goes to `stdout` (or is discarded) and
/// stderr to `log`.
pub fn run_measured(mut cmd: Command, stdout: Option<&Path>, log: &Path) -> Result<Usage, String> {
    let create = |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let out = match stdout {
        Some(p) => Stdio::from(create(p)?),
        None => Stdio::null(),
    };
    let err = create(log)?;
    let start = Instant::now();
    let child = cmd
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are live, writable and laid out as the
    // kernel's `int` and 64-bit `struct rusage`; `pid` is our own
    // unreaped child, which `Child` never waits for on drop.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if rc != pid {
        return Err(format!(
            "wait4 on {pid} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    if !exited_ok {
        let tail = std::fs::read_to_string(log).unwrap_or_default();
        return Err(format!("{cmd:?} failed (wait status {status}): {tail}"));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    })
}

/// A running `hoiho serve` child, shut down and reaped on drop.
pub struct Server {
    child: Child,
    /// The loopback address it listens on.
    pub addr: String,
}

impl Server {
    /// Start `hoiho serve --threads 2` on `artifacts` and wait for its
    /// first answer. `reload_ms` 0 disables hot reload.
    pub fn start(
        hoiho: &Path,
        artifacts: &Path,
        reload_ms: u64,
        work: &Path,
    ) -> Result<Server, String> {
        let port_file = work.join("port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join("serve.log")).map_err(|e| e.to_string())?;
        let child = Command::new(hoiho)
            .arg("serve")
            .arg("--artifacts")
            .arg(artifacts)
            .args(["--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--reload-ms", &reload_ms.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn hoiho serve: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    server.addr = format!("127.0.0.1:{}", text.trim());
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("hoiho serve exited at boot: {status}"));
            }
            if Instant::now() > deadline {
                return Err("hoiho serve did not write its port".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        server.ping()?;
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One line request on a fresh connection; returns the reply line.
    fn line_request(&self, line: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        Ok(reply)
    }

    /// The served index epoch, from a ping.
    pub fn ping(&self) -> Result<u64, String> {
        let reply = self.line_request(r#"{"cmd":"ping"}"#)?;
        let epoch = reply
            .split("\"epoch\":")
            .nth(1)
            .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|d| d.parse().ok());
        epoch.ok_or_else(|| format!("bad ping reply {reply:?}"))
    }

    /// The `GET /metrics` body.
    pub fn metrics(&self) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut all = String::new();
        std::io::Read::read_to_string(&mut s, &mut all).map_err(|e| e.to_string())?;
        all.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| "metrics reply has no body".to_string())
    }

    /// Drain the server and reap it.
    pub fn stop(mut self) -> Result<(), String> {
        self.line_request(r#"{"cmd":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("hoiho serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("hoiho serve did not drain within 10 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `stop` the child is reaped and these are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A counter's value in a Prometheus text body (`hoiho_serve_shed_queue_full 0`).
pub fn prom_counter(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// CPU time of every live thread of `pid`, in ns (`schedstat`).
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0u64;
    for task in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(&path) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| format!("bad {}", path.display()))?;
        }
    }
    Ok(total)
}

/// Peak resident set of `pid` (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}
