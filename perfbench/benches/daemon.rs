//! The `campaignd` side of the benchmark: spawning the daemon, a minimal
//! HTTP/1.1 client, and one closed-loop job submission.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// An HTTP response: status code and body.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn request_bytes(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {connection}\r\n\
Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Splits a response head into its status code and `Content-Length`.
fn parse_head(head: &[u8]) -> Option<(u16, Option<usize>)> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let length = lines.find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())
            .flatten()
    });
    Some((status, length))
}

/// A keep-alive client connection. It reconnects once when the daemon
/// has closed an idle connection.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for the daemon at `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// Sends one request and reads its `Content-Length` response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let reused = self.stream.is_some();
        match self.try_call(method, path, body) {
            Ok(response) => Ok(response),
            Err(_) if reused => {
                self.stream = None;
                self.try_call(method, path, body)
                    .map_err(|e| format!("{method} {path}: {e}"))
            }
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }

    fn try_call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.stream.is_none() {
            self.stream = Some(connect(self.addr)?);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = (|| {
            stream.write_all(&request_bytes(method, path, body, false))?;
            read_response(stream)
        })();
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let (status, length) = parse_head(&buf[..head_end])
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad head"))?;
    let length = length.unwrap_or(0);
    let mut body = buf.split_off(head_end);
    while body.len() < length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    Ok(Response { status, body })
}

/// A spawned daemon. Dropping it kills and reaps the process if it is
/// still running; [`Daemon::shutdown`] stops it gracefully.
pub struct Daemon {
    child: Child,
    // Held open so the daemon's stdout never breaks.
    _stdout: BufReader<ChildStdout>,
    /// Where the daemon listens.
    pub addr: SocketAddr,
    /// The daemon's state directory.
    pub state_dir: PathBuf,
}

impl Daemon {
    /// Spawns `bin` on a fresh `state_dir` and waits until it is ready:
    /// it has printed its `listening` line and answers `/healthz` with
    /// 200. Returns the daemon and the seconds from spawn to ready.
    pub fn spawn(bin: &Path, state_dir: &Path, workers: usize) -> Result<(Self, f64), String> {
        if state_dir.exists() {
            std::fs::remove_dir_all(state_dir)
                .map_err(|e| format!("cannot clear {}: {e}", state_dir.display()))?;
        }
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("campaignd listening on ")
            .and_then(|a| a.parse().ok());
        let mut daemon = Self {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            state_dir: state_dir.to_path_buf(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => daemon.addr = addr,
            _ => return Err(format!("daemon did not report its address: {line:?}")),
        }
        let mut client = Client::new(daemon.addr);
        loop {
            if let Ok(r) = client.call("GET", "/healthz", "") {
                if r.status == 200 {
                    break;
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain and exit, then reaps it. Fails if it does
    /// not exit cleanly within 30 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::new(self.addr);
        client.call("POST", "/shutdown", "")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not exit after /shutdown".to_string()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one job cost and produced, seen from the client.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Cells the daemon planned for the job.
    pub cells: u64,
    /// From the POST to the last byte of the report.
    pub latency_s: f64,
    /// From the POST to its 202 response.
    pub submit_s: f64,
    /// From the POST to the first cell event on the stream.
    pub first_cell_s: f64,
    /// The report GET alone.
    pub report_s: f64,
    /// Failed operations: refused submissions (429/5xx), cell events other
    /// than a first-try success, and a job that did not complete.
    pub failed_ops: u64,
    /// The report body.
    pub report: String,
}

fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = text.find(&pattern)? + pattern.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// A numeric field of a flat JSON object the daemon wrote.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    json_field(text, key)?.parse().ok()
}

/// Submits one job, streams its events to completion and fetches its
/// report. A refused submission is retried after the daemon's
/// `Retry-After` and counted as a failed operation.
pub fn run_job(client: &mut Client, body: &str) -> Result<JobRun, String> {
    let mut failed_ops = 0;
    let start = Instant::now();
    let accepted = loop {
        let r = client.call("POST", "/jobs", body)?;
        match r.status {
            202 => break r.text(),
            429 | 500..=599 => {
                failed_ops += 1;
                if start.elapsed() > Duration::from_secs(60) {
                    return Err(format!("job refused for 60 s: {}", r.text()));
                }
                std::thread::sleep(Duration::from_secs(1));
            }
            other => return Err(format!("POST /jobs answered {other}: {}", r.text())),
        }
    };
    let submit_s = start.elapsed().as_secs_f64();
    let id = json_field(&accepted, "id")
        .ok_or("202 without a job id")?
        .to_string();
    let cells = json_number(&accepted, "cells_total").ok_or("202 without cells_total")? as u64;

    let mut stream = connect(client.addr).map_err(|e| format!("stream connect: {e}"))?;
    stream
        .write_all(&request_bytes(
            "GET",
            &format!("/jobs/{id}/stream"),
            "",
            true,
        ))
        .map_err(|e| format!("stream request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut first_cell_s = None;
    let mut completed = false;
    let mut in_body = false;
    let mut head_checked = false;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("stream read: {e}"))?;
        if n == 0 {
            break;
        }
        if !in_body {
            if !head_checked && !line.starts_with("HTTP/1.1 200 ") {
                return Err(format!("stream of {id} answered {:?}", line.trim()));
            }
            head_checked = true;
            in_body = line == "\r\n";
            continue;
        }
        match json_field(&line, "event") {
            Some("cell") => {
                first_cell_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
                if json_field(&line, "status") != Some("ok") {
                    failed_ops += 1;
                }
            }
            Some("job") => match json_field(&line, "status") {
                Some("completed") => completed = true,
                Some("running") => {}
                _ => failed_ops += 1,
            },
            _ => return Err(format!("unexpected stream line {line:?}")),
        }
    }
    if !completed {
        return Err(format!("job {id} did not complete"));
    }
    // The stream ends as the job's last event is journaled, a moment
    // before the job is marked completed; the report GET answers 409 in
    // that window, so it is retried at once rather than after Retry-After.
    let report_start = Instant::now();
    let report = loop {
        let r = client.call("GET", &format!("/jobs/{id}/report"), "")?;
        if r.status != 409 || report_start.elapsed() > Duration::from_secs(30) {
            break r;
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let report_s = report_start.elapsed().as_secs_f64();
    let latency_s = start.elapsed().as_secs_f64();
    if report.status != 200 {
        return Err(format!("report of {id} answered {}", report.status));
    }
    Ok(JobRun {
        cells,
        latency_s,
        submit_s,
        first_cell_s: first_cell_s.unwrap_or(latency_s),
        report_s,
        failed_ops,
        report: report.text(),
    })
}
