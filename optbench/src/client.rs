//! The wire client and the server child process.

use qmldb_math::json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request/reply exchange, timed at the three client-visible points.
pub struct Exchange {
    /// Just before the request line was written.
    pub send: Instant,
    /// When the first reply byte was read.
    pub first: Instant,
    /// When the terminating newline was read.
    pub newline: Instant,
    /// The reply line, without its newline.
    pub reply: String,
}

impl Exchange {
    /// An exchange the connection failed: its reply is the error, which
    /// no check accepts.
    pub fn failed(send: Instant, error: &std::io::Error) -> Exchange {
        let now = Instant::now();
        Exchange {
            send,
            first: now,
            newline: now,
            reply: format!("wire error: {error}"),
        }
    }
}

/// A client connection speaking the line-delimited wire format.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// Writes `line` (newline-terminated) in one write and reads the reply
    /// as raw bytes, timing the first byte and the newline separately.
    pub fn call(&mut self, line: &str) -> std::io::Result<Exchange> {
        debug_assert!(line.ends_with('\n'), "request lines end in a newline");
        let mut reply = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let send = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        let mut first = None;
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let now = Instant::now();
            first.get_or_insert(now);
            reply.extend_from_slice(&chunk[..n]);
            if reply.last() == Some(&b'\n') {
                reply.pop();
                let reply = String::from_utf8(reply)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                return Ok(Exchange {
                    send,
                    first: first.expect("set on the first read"),
                    newline: now,
                    reply,
                });
            }
        }
    }

    /// Sends a line and parses the reply as JSON.
    pub fn call_json(&mut self, line: &str) -> Result<(Exchange, Json), String> {
        let ex = self.call(line).map_err(|e| format!("wire: {e}"))?;
        let json = Json::parse(&ex.reply)?;
        Ok((ex, json))
    }

    /// The server's `stats` counters.
    pub fn stats(&mut self) -> Result<Json, String> {
        Ok(self.call_json("{\"op\":\"stats\"}\n")?.1)
    }
}

/// The optimizer service running in a child process of this benchmark.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `exe serve <args>` with `QMLDB_THREADS=1` and waits until it
    /// reports its listening address.
    pub fn start(exe: &std::path::Path, args: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .args(args)
            .env("QMLDB_THREADS", crate::SERVER_THREADS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut proc = ServerProc {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("server stdout: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(proc)
    }

    /// CPU time each server thread has used, in nanoseconds, by thread
    /// id: its scheduler run time (`/proc/<pid>/task/<tid>/schedstat`),
    /// the nanosecond-resolution counterpart of utime + stime.
    pub fn cpu_ns(&self) -> BTreeMap<String, u64> {
        let dir = format!("/proc/{}/task", self.child.id());
        let Ok(tasks) = std::fs::read_dir(dir) else {
            return BTreeMap::new();
        };
        tasks
            .flatten()
            .filter_map(|t| {
                let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
                let ns = stat.split_whitespace().next()?.parse().ok()?;
                Some((t.file_name().to_string_lossy().into_owned(), ns))
            })
            .collect()
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Closes the server's stdin (its shutdown signal) and waits for it to
    /// exit, killing it if it does not within a few seconds.
    pub fn stop(mut self) -> Result<(), String> {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop; killed".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// CPU nanoseconds the server spent between two [`ServerProc::cpu_ns`]
/// readings; a thread that exited in between is counted up to the first.
pub fn cpu_delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> u64 {
    after
        .iter()
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}
