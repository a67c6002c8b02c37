//! The Unix-socket daemon loop and the matching client helper.
//!
//! [`run_daemon`] accepts connections one at a time (requests are
//! serialized through the single resident [`ServeEngine`] anyway) and
//! answers each request line with one response line. A line longer than
//! [`MAX_REQUEST_LINE`], not UTF-8, or nested past the JSON parser's
//! bound is answered with an `ok: false` error. Request handling is
//! wrapped in `catch_unwind`: a panic inside the engine produces an
//! `ok: false` response and the daemon keeps serving — the engine clears
//! its `built` flag before mutating state, so the next delta rebuilds
//! instead of serving a spec that no longer matches the corpus.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use seldon_core::panic_message;
use seldon_telemetry::json::Json;

use crate::engine::{Delta, ServeEngine};
use crate::protocol::{delta_response, error_response, ok_response, Request};

/// The daemon: one resident engine plus its serving options.
pub struct ServeDaemon {
    /// The resident incremental engine.
    pub engine: ServeEngine,
    /// When set, a `mode: "served-incremental"` run manifest is written
    /// here after every applied delta.
    pub telemetry_path: Option<PathBuf>,
    /// Protocol errors answered (malformed requests, rejected deltas,
    /// contained panics).
    pub errors: usize,
}

impl ServeDaemon {
    /// Wraps an engine with no manifest sink.
    pub fn new(engine: ServeEngine) -> ServeDaemon {
        ServeDaemon { engine, telemetry_path: None, errors: 0 }
    }

    /// Handles one request line; returns the response line and whether
    /// the daemon should shut down.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => return self.reject(&message),
        };
        match request {
            Request::Ping => (ok_response(vec![("pong".to_string(), Json::Bool(true))]), false),
            Request::Shutdown => {
                (ok_response(vec![("shutdown".to_string(), Json::Bool(true))]), true)
            }
            Request::Spec => match self.engine.spec() {
                Some(spec) => (
                    ok_response(vec![
                        ("solve".to_string(), Json::str(self.engine.last_solve())),
                        ("spec".to_string(), Json::str(spec)),
                    ]),
                    false,
                ),
                None => self.reject("no specification built yet"),
            },
            Request::Stats => (self.stats_response(), false),
            Request::Metrics => {
                let mut reg = seldon_telemetry::MetricsRegistry::default();
                self.engine.fill_metrics(&mut reg);
                (ok_response(vec![("metrics".to_string(), reg.to_json())]), false)
            }
            Request::Delta { add, change, remove } => self.handle_delta(add, change, remove),
        }
    }

    fn stats_response(&self) -> String {
        let num = |v: usize| Json::num(v as f64);
        let mut fields = vec![("files".to_string(), num(self.engine.file_count()))];
        let counters = self.engine.counters().table();
        fields.extend(counters.map(|(key, _, _, value)| (key.to_string(), num(value))));
        fields.push(("protocol_errors".to_string(), num(self.errors)));
        fields.push(("solve".to_string(), Json::str(self.engine.last_solve())));
        ok_response(fields)
    }

    /// Reads delta contents from disk, applies the delta with panics
    /// contained, and answers with the served spec or the failure.
    fn handle_delta(
        &mut self,
        add: Vec<String>,
        change: Vec<String>,
        remove: Vec<String>,
    ) -> (String, bool) {
        let mut delta = Delta::default();
        for (paths, slot) in
            [(add, &mut delta.add), (change, &mut delta.change)]
        {
            for path in paths {
                match fs::read_to_string(&path) {
                    Ok(content) => slot.push((PathBuf::from(path), content)),
                    Err(err) => return self.reject(&format!("cannot read `{path}`: {err}")),
                }
            }
        }
        delta.remove = remove.into_iter().map(PathBuf::from).collect();
        let applied = catch_unwind(AssertUnwindSafe(|| self.engine.apply_delta(&delta)));
        match applied {
            Ok(Ok(outcome)) => {
                if let Some(path) = self.telemetry_path.as_deref() {
                    let manifest = self.engine.manifest("serve");
                    if let Err(err) = fs::write(path, manifest.to_json()) {
                        eprintln!(
                            "seldon serve: cannot write telemetry `{}`: {err}",
                            path.display()
                        );
                    }
                }
                (delta_response(&outcome), false)
            }
            Ok(Err(err)) => self.reject(&err.to_string()),
            Err(panic) => self.reject(&format!(
                "delta panicked (contained; state will rebuild on the next delta): {}",
                panic_message(panic)
            )),
        }
    }

    /// Counts a protocol error and answers it; the daemon keeps serving.
    fn reject(&mut self, message: &str) -> (String, bool) {
        self.errors += 1;
        (error_response(message), false)
    }
}

/// Longest request line the daemon reads, newline excluded. A request
/// names its files and never carries their contents, so real requests
/// are a few hundred bytes.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Reads one `\n`-terminated line of at most [`MAX_REQUEST_LINE`] bytes
/// into `buf`: `None` at end of stream, `Some(Err(reason))` for a line
/// the daemon rejects unparsed. The rest of a longer line is skipped
/// without being buffered.
fn read_request_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<Result<&'a str, String>>> {
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_LINE {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!("request line longer than {MAX_REQUEST_LINE} bytes"))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| "request line is not UTF-8".to_string())))
}

/// Binds `socket` (replacing any stale socket file) and serves requests
/// until a `shutdown` request arrives. The socket file is removed on
/// exit. Prints one `listening on ...` line to stderr once ready — test
/// and CI harnesses wait for it.
pub fn run_daemon(daemon: &mut ServeDaemon, socket: &Path) -> io::Result<()> {
    if socket.exists() {
        fs::remove_file(socket)?;
    }
    let listener = UnixListener::bind(socket)?;
    eprintln!(
        "seldon serve: listening on {} ({} files tracked)",
        socket.display(),
        daemon.engine.file_count()
    );
    let mut shutdown = false;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        // Read and write through shared references to the one socket.
        let mut reader = BufReader::new(&stream);
        let mut buf = Vec::new();
        loop {
            let (mut response, stop) = match read_request_line(&mut reader, &mut buf) {
                Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
                Ok(Some(Ok(line))) => daemon.handle_line(line.trim()),
                Ok(Some(Err(reason))) => daemon.reject(&reason),
                Ok(None) | Err(_) => break,
            };
            // One write per response line, newline included.
            response.push('\n');
            if (&stream).write_all(response.as_bytes()).is_err() {
                break;
            }
            if stop {
                shutdown = true;
                break;
            }
        }
        if shutdown {
            break;
        }
    }
    let _ = fs::remove_file(socket);
    Ok(())
}

/// Sends one request line to a daemon and returns its one response
/// line. Retries the connection until `wait` elapses, so callers can
/// race daemon startup (`--wait`).
pub fn client_request(socket: &Path, line: &str, wait: Duration) -> io::Result<String> {
    let deadline = Instant::now() + wait;
    let stream = loop {
        match UnixStream::connect(socket) {
            Ok(stream) => break stream,
            Err(err) => {
                if Instant::now() >= deadline {
                    return Err(err);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    // One write per request line, newline included.
    (&stream).write_all(format!("{line}\n").as_bytes())?;
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response)?;
    if response.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection"));
    }
    Ok(response.trim_end().to_string())
}
