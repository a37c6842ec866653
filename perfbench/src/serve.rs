//! `serve_mixed`: one op is one `POST /v1/compile` over one keep-alive
//! loopback connection, closed loop, to a `driver::Server` at its defaults
//! (except a fresh cache directory per run). Bodies are raw MLIR from
//! `fuzzing::generate` in a fixed pattern: one new body (a compile) then
//! three repeats of earlier bodies (response-cache hits) at several reuse
//! distances. Compiles write the stage cache and the journal; hits only
//! read. The 1:3 mix puts p50 inside the hit mode and p90 inside the
//! compile mode, away from the boundary between them.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use driver::batch::{outcome_from_json, outcome_to_json};
use driver::cache::{decode_csynth, Cache, KeyBuilder};
use driver::{Directives, Flow, Journal, LintReport, ServeConfig, Server};
use kernels::fnv1a64;
use pass_core::json::{self, JsonValue};
use pass_core::report::json_str;
use pass_core::Budget;

use crate::stats::{mean, measure, median, ms_since, OpSample, Phase};
use crate::trace::Tracer;
use crate::{work_dir, Report, RunSpec, Setups};

/// Peak RSS is sampled after this many timed requests.
const RSS_AT_OP: u64 = 2000;
/// Seconds of measured window between two set-up samples taken inside it.
/// A server set-up takes about half a millisecond, so it is sampled five
/// times as often as the other workloads' set-ups (`crate::SETUP_EVERY_S`),
/// which keeps enough samples in the quiet intervals when those are few.
const SETUP_EVERY_S: f64 = 0.1;
/// The pinned body whose compile path the host-state probe runs.
const PROBE_BODY: u64 = 0;
/// The first new bodies of every run are generator seeds `0..PINNED_BODIES`,
/// the same on every run: the design set of `design_latency_cycles`.
pub const PINNED_BODIES: u64 = 64;
/// Distinct bodies per run, below the server's default
/// `max_cached_responses` (4096) so every repeat is a cache hit. A run that
/// reaches it ends its measured window early.
pub const MAX_BODIES: u64 = 4000;
/// Reuse distances of the repeats, in distinct bodies.
const REUSE: [u64; 6] = [1, 3, 10, 30, 100, 300];
/// Directives the server applies to a body without directive fields.
const DIRECTIVES: Directives = Directives {
    pipeline_ii: Some(1),
    unroll_factor: None,
    partition_factor: None,
    flatten: false,
};

/// The compile-path layer spans of a replayed compile request, with the
/// metric each one's mean self time per compile is reported as.
const COMPILE_LAYERS: &[(&str, &str)] = &[
    ("flow.run", "flow.run_ms"),
    ("llvm.print", "llvm.print_ms"),
    ("vitis.csynth", "vitis.csynth_ms"),
    ("llvm.parse", "llvm.parse_ms"),
    ("lint", "lint.ms"),
    ("batch.outcome_json", "batch.outcome_json_ms"),
    ("json.parse_response", "json.parse_response_ms"),
    ("cache.store", "cache.store_ms"),
    ("journal.append", "journal.append_ms"),
];

// ---------------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------------

/// One parsed HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub code: u16,
    /// `X-Mha-Served`, if present.
    pub served: Option<String>,
    /// The server asked to close the connection.
    pub close: bool,
    /// Body text.
    pub body: String,
}

/// A closed-loop HTTP/1.1 client over one keep-alive connection. When a
/// response carries `Connection: close`, the next request reconnects.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Reconnects after the server closed the connection.
    pub reconnects: u64,
    /// Request bytes written, head and body.
    pub req_bytes: u64,
    /// Response bytes read, head and body.
    pub resp_bytes: u64,
    /// Requests sent.
    pub requests: u64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let mut c = Client {
            addr,
            conn: None,
            buf: Vec::with_capacity(1 << 16),
            reconnects: 0,
            req_bytes: 0,
            resp_bytes: 0,
            requests: 0,
        };
        c.conn = Some(c.open()?);
        Ok(c)
    }

    fn open(&self) -> io::Result<TcpStream> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(s)
    }

    /// Reopen the connection if the server closed it after the last
    /// response; a no-op otherwise.
    pub fn ensure_connected(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            self.conn = Some(self.open()?);
            self.reconnects += 1;
        }
        Ok(())
    }

    /// Send one request and read its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.ensure_connected()?;
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        let stream = self.conn.as_mut().expect("connected above");
        let result = stream
            .write_all(msg.as_bytes())
            .and_then(|()| read_response(stream, &mut self.buf));
        self.requests += 1;
        self.req_bytes += msg.len() as u64;
        match result {
            Ok((resp, n)) => {
                self.resp_bytes += n as u64;
                if resp.close {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Read one `Content-Length` response; returns it with its size in bytes.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(Response, usize)> {
    buf.clear();
    let mut chunk = [0u8; 16 << 10];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let code = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut len, mut served, mut close) = (None, None, false);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse::<usize>().ok(),
                "x-mha-served" => served = Some(value.to_string()),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }
    let len = len.ok_or_else(|| bad("response has no Content-Length"))?;
    while buf.len() < head_end + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a response body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + len].to_vec())
        .map_err(|_| bad("body is not UTF-8"))?;
    Ok((
        Response {
            code,
            served,
            close,
            body,
        },
        head_end + len,
    ))
}

// ---------------------------------------------------------------------------
// Inputs and schedule
// ---------------------------------------------------------------------------

/// What op `i` sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Distinct body `n`, sent for the first time: a compile.
    New(u64),
    /// Distinct body `n` again: a response-cache hit.
    Repeat(u64),
}

/// The fixed pattern: every fourth op introduces the next body; the three
/// between repeat earlier bodies at rotating reuse distances.
pub fn step(i: u64) -> Step {
    let g = i / 4;
    match i % 4 {
        0 => Step::New(g),
        j => Step::Repeat(g.saturating_sub(REUSE[((3 * g + j) % REUSE.len() as u64) as usize])),
    }
}

/// Generator seed of distinct body `n` under workload seed `seed`.
pub fn body_seed(seed: u64, n: u64) -> u64 {
    if n < PINNED_BODIES {
        n
    } else {
        crate::fuzz::base_seed(seed) + n
    }
}

/// A distinct body: its module name, MLIR text and request JSON.
pub struct Body {
    /// Module name sent in the request.
    pub name: String,
    /// MLIR text sent in the request.
    pub mlir: String,
    /// The request body.
    pub json: String,
}

/// Distinct body `n` under workload seed `seed`.
pub fn body(seed: u64, n: u64) -> Body {
    let name = format!("serve_{n}");
    let mlir = fuzzing::generate(body_seed(seed, n), &fuzzing::GenConfig::default()).text;
    let json = format!(
        "{{\"mlir\":{},\"name\":{}}}",
        json_str(&mlir),
        json_str(&name)
    );
    Body { name, mlir, json }
}

/// The 16-hex `module_digest` a compile response reports.
pub fn response_digest(body: &str) -> Option<&str> {
    let key = "\"module_digest\":\"";
    let at = body.find(key)? + key.len();
    body.get(at..at + 16)
}

/// Post-loop check of one distinct body: the module digest the server
/// reported equals the one `run_flow_on_text` + print give in-process.
pub fn check_served_digest(b: &Body, served: &str) -> Result<(), String> {
    let art = driver::run_flow_on_text(
        &b.name,
        &b.mlir,
        &DIRECTIVES,
        Flow::Adaptor,
        &Budget::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    let text = llvm_lite::printer::print_module(&art.module);
    let want = format!("{:016x}", fnv1a64(text.as_bytes()));
    (served == want)
        .then_some(())
        .ok_or_else(|| format!("module digest {served} served, {want} in-process"))
}

/// Check every distinct body's served digest; a mismatch fails the op that
/// first sent the body, unless that op already failed.
fn verify_digests(bodies: &[Body], seen: &[Seen], report: &mut Report) {
    for (n, (b, first)) in bodies.iter().zip(seen).enumerate() {
        if let (Err(e), true) = (check_served_digest(b, &first.digest), first.ok) {
            report.fail(format!("body {n}: {e}"));
        }
    }
}

/// csynth latency in a compile response's outcome.
fn response_latency(body: &str) -> Result<u64, String> {
    let v = json::parse(body)?;
    let payload = v
        .get("outcome")
        .and_then(|o| o.get("csynth"))
        .and_then(JsonValue::as_str)
        .ok_or("response has no outcome.csynth")?;
    Ok(decode_csynth(payload)?.latency)
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// First response to each distinct body, as the repeats are checked. Every
/// new body gets one, so `seen[n]` always belongs to body `n`.
struct Seen {
    hash: u64,
    len: usize,
    digest: String,
    /// The first response passed its check.
    ok: bool,
}

impl Seen {
    /// The entry of a body whose first send has not (yet) passed its check.
    fn failed() -> Seen {
        Seen {
            hash: 0,
            len: 0,
            digest: String::new(),
            ok: false,
        }
    }
}

/// Client-side state of one run.
struct Session {
    seed: u64,
    client: Client,
    bodies: Vec<Body>,
    seen: Vec<Seen>,
    /// Full first responses of the pinned bodies.
    pinned: Vec<String>,
}

/// What one op did, for the traced replay.
struct Sent {
    step: Step,
    response: Option<Response>,
}

impl Session {
    fn send(&mut self, i: u64) -> (OpSample, Sent) {
        let step = step(i);
        let n = match step {
            Step::New(n) => {
                self.bodies.push(body(self.seed, n));
                self.seen.push(Seen::failed());
                n
            }
            Step::Repeat(n) => n,
        } as usize;
        let reconnect = self.client.ensure_connected();
        let t = Instant::now();
        let resp = reconnect.and_then(|()| {
            self.client
                .request("POST", "/v1/compile", &self.bodies[n].json)
        });
        let ms = ms_since(t);
        let check = match &resp {
            Ok(r) => self.check(step, r),
            Err(e) => Err(format!("{step:?}: request failed: {e}")),
        };
        (
            OpSample { ms, check },
            Sent {
                step,
                response: resp.ok(),
            },
        )
    }

    /// Per-op output check; records the first response of a new body. A
    /// repeat of a body whose first response failed its check fails too.
    fn check(&mut self, step: Step, r: &Response) -> Result<(), String> {
        let hash = fnv1a64(r.body.as_bytes());
        let result = self.check_response(step, hash, r);
        if let Step::New(n) = step {
            if n < PINNED_BODIES {
                self.pinned.push(r.body.clone());
            }
            self.seen[n as usize] = Seen {
                hash,
                len: r.body.len(),
                digest: response_digest(&r.body).unwrap_or_default().to_string(),
                ok: result.is_ok(),
            };
        }
        result
    }

    fn check_response(&self, step: Step, hash: u64, r: &Response) -> Result<(), String> {
        let want = match step {
            Step::New(_) => "compiled",
            Step::Repeat(_) => "cache",
        };
        if r.code != 200 {
            return Err(format!("{step:?}: status {}: {}", r.code, r.body));
        }
        if r.served.as_deref() != Some(want) {
            return Err(format!(
                "{step:?}: X-Mha-Served {:?}, want {want}",
                r.served
            ));
        }
        match step {
            Step::New(_) if response_digest(&r.body).is_none() => {
                Err(format!("{step:?}: response carries no module digest"))
            }
            Step::New(_) => Ok(()),
            Step::Repeat(n) => {
                let first = &self.seen[n as usize];
                if !first.ok {
                    Err(format!(
                        "{step:?}: the body's first response failed its check"
                    ))
                } else if first.hash != hash || first.len != r.body.len() {
                    Err(format!("{step:?}: body differs from its first response"))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn status(&mut self) -> Result<JsonValue, String> {
        self.client
            .ensure_connected()
            .and_then(|()| self.client.request("GET", "/v1/status", ""))
            .map_err(|e| e.to_string())
            .and_then(|r| json::parse(&r.body))
    }
}

/// The counters read from `GET /v1/status`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counters {
    compiled: u64,
    cache_hits: u64,
    evictions: u64,
    queue_us: u64,
}

fn counters(v: &JsonValue) -> Counters {
    let num = |o: Option<&JsonValue>, k: &str| {
        o.and_then(|o| o.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let queue = v.get("latency").and_then(JsonValue::as_arr).and_then(|a| {
        a.iter()
            .find(|h| h.get("stage").and_then(JsonValue::as_str) == Some("queue"))
    });
    Counters {
        compiled: num(v.get("requests"), "compiled"),
        cache_hits: num(v.get("requests"), "cache_hits"),
        evictions: num(v.get("response_cache"), "evictions"),
        queue_us: num(queue, "sum_us"),
    }
}

/// A fresh, unique directory under the benchmark's work dir.
fn fresh_dir(tag: &str, n: usize) -> PathBuf {
    work_dir().join(format!("{tag}-{}-{n}", std::process::id()))
}

/// Start a server over a fresh cache dir and connect to it: the set-up
/// timed as `setup_s`. It ends when the TCP connection is established; the
/// server accepts it on its next acceptor poll, inside the first op.
fn start(n: usize) -> Result<(Server, Client, PathBuf), String> {
    let dir = fresh_dir("serve", n);
    let server = Server::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((server, client, dir))
}

fn stop(server: Server, client: Client, dir: &Path) {
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// The host-state probe: the server's compile path on [`PROBE_BODY`],
/// called in-process (`run_flow_on_text` with the server's directives),
/// the same work on every run. The measured server sees no probe traffic,
/// so its counters still match the schedule exactly.
fn probe(b: &Body) {
    let _ = driver::run_flow_on_text(
        &b.name,
        &b.mlir,
        &DIRECTIVES,
        Flow::Adaptor,
        &Budget::unlimited(),
    );
}

/// Run the workload.
pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let mut setups = Setups::default();
    let (server, client, dir) = setups.time(|| start(0))?;
    let mut report = Report::default();
    let mut session = Session {
        seed: spec.seed,
        client,
        bodies: Vec::new(),
        seen: Vec::new(),
        pinned: Vec::new(),
    };
    let result = drive(spec, &mut session, &mut report, &mut setups);
    stop(server, session.client, &dir);
    result.map(|()| report)
}

fn drive(
    spec: &RunSpec,
    s: &mut Session,
    report: &mut Report,
    setups: &mut Setups,
) -> Result<(), String> {
    let before = counters(&s.status()?);
    let probe_body = body(spec.seed, PROBE_BODY);
    let mut probe_once = || probe(&probe_body);
    let seconds = spec.phase_seconds();
    // A traced run keeps half the distinct bodies for its traced phase.
    let limit = if spec.trace {
        2 * MAX_BODIES
    } else {
        4 * MAX_BODIES
    };
    // Set-up samples inside the window start, connect to and stop a
    // server of their own; the measured server and connection stay idle.
    let mut started = 0;
    let mut setup_errors = Vec::new();
    let mut setup_sample = || {
        started += 1;
        match setups.time(|| start(started)) {
            Ok((server, client, dir)) => stop(server, client, &dir),
            Err(e) => setup_errors.push(e),
        }
    };
    let untraced = measure(
        seconds,
        RSS_AT_OP,
        &mut probe_once,
        Some((SETUP_EVERY_S, &mut setup_sample)),
        |i| (i < limit).then(|| s.send(i).0),
    );
    for e in setup_errors {
        report.problem(format!("set-up sample: {e}"));
    }
    report.add_phase(&untraced);
    let mut next = untraced.ops();

    if spec.trace {
        let mid = counters(&s.status()?);
        let mut replay = Replay::open()?;
        let mut problems = Vec::new();
        let traced = measure(seconds, RSS_AT_OP, &mut probe_once, None, |k| {
            let i = next + k;
            if i >= 4 * MAX_BODIES {
                return None;
            }
            let span = replay.tr.begin("op", i);
            let (sample, sent) = s.send(i);
            replay.tr.end(span);
            if let Some(r) = &sent.response {
                let n = match sent.step {
                    Step::New(n) | Step::Repeat(n) => n as usize,
                };
                if let Err(e) = replay.run(i, &s.bodies[n], sent.step, r) {
                    problems.push(format!("replay of op {i} failed: {e}"));
                }
            }
            Some(sample)
        });
        report.add_phase(&traced);
        next += traced.ops();
        for p in problems.into_iter().take(16) {
            report.problem(p);
        }
        let end = counters(&s.status()?);
        replay.report(report, &untraced, &traced, mid, end);
        report.set("serve.reconnects", s.client.reconnects as f64);
        report.set(
            "serve.req_bytes",
            s.client.req_bytes as f64 / s.client.requests as f64,
        );
        report.set(
            "serve.resp_bytes",
            s.client.resp_bytes as f64 / s.client.requests as f64,
        );
        report.write_trace(&replay.tr, "serve_mixed", spec.seed);
        replay.close();
    }

    // One pass over the pinned design set, completed untimed if the
    // measured window ended before it.
    while (s.seen.len() as u64) < PINNED_BODIES {
        let (sample, _) = s.send(next);
        report.add_op(sample.check);
        next += 1;
    }
    let after = counters(&s.status()?);
    let (new, repeats) = (0..next).fold((0, 0), |(a, b), i| match step(i) {
        Step::New(_) => (a + 1, b),
        Step::Repeat(_) => (a, b + 1),
    });
    let got = (
        after.compiled - before.compiled,
        after.cache_hits - before.cache_hits,
        after.evictions - before.evictions,
    );
    if got != (new, repeats, 0) {
        report.problem(format!(
            "schedule invariant broken: server counted (compiled, cache_hits, evictions) = {got:?}, want ({new}, {repeats}, 0)"
        ));
    }

    verify_digests(&s.bodies, &s.seen, report);
    let mut latency = 0;
    for (n, body) in s.pinned.iter().enumerate() {
        match response_latency(body) {
            Ok(l) => latency += l,
            Err(e) => report.problem(format!("pinned body {n}: {e}")),
        }
    }
    if !spec.trace {
        report.set_end_to_end(setups, &untraced, latency);
    }
    Ok(())
}

/// The traced replay of the server's public calls on the same bytes, into
/// benchmark-owned cache and journal directories.
struct Replay {
    tr: Tracer,
    dir: PathBuf,
    cache: Cache,
    journal: Journal,
}

impl Replay {
    fn open() -> Result<Replay, String> {
        let dir = fresh_dir("replay", 0);
        let cache = Cache::open(dir.join("cache")).map_err(|e| e.to_string())?;
        let journal = Journal::create_kind(&dir.join("serve.jsonl"), "mha-serve", "perfbench")
            .map_err(|e| e.to_string())?;
        Ok(Replay {
            tr: Tracer::new(),
            dir,
            cache,
            journal,
        })
    }

    /// Replay op `i`'s server-side work under its own `replay` span, after
    /// the response arrived.
    fn run(&mut self, i: u64, b: &Body, step: Step, r: &Response) -> Result<(), String> {
        let root = self.tr.begin("replay", i);
        let out = self.stages(i, b, step, r);
        self.tr.end(root);
        out
    }

    fn stages(&mut self, i: u64, b: &Body, step: Step, r: &Response) -> Result<(), String> {
        let tr = &mut self.tr;
        let req = tr.time("json.parse_request", i, || json::parse(&b.json))?;
        if matches!(step, Step::Repeat(_)) {
            return Ok(());
        }
        let mlir = req
            .get("mlir")
            .and_then(JsonValue::as_str)
            .ok_or("request has no mlir")?;
        let art = tr
            .time("flow.run", i, || {
                driver::run_flow_on_text(
                    &b.name,
                    mlir,
                    &DIRECTIVES,
                    Flow::Adaptor,
                    &Budget::unlimited(),
                )
            })
            .map_err(|e| e.to_string())?;
        let text = tr.time("llvm.print", i, || {
            llvm_lite::printer::print_module(&art.module)
        });
        tr.time("vitis.csynth", i, || {
            vitis_sim::csynth(&art.module, &vitis_sim::Target::default())
        })
        .map_err(|e| e.to_string())?;
        let parsed = tr
            .time("llvm.parse", i, || {
                llvm_lite::parser::parse_module(&b.name, &text)
            })
            .map_err(|e| e.to_string())?;
        tr.time("lint", i, || {
            LintReport::for_module(&parsed, false).to_json()
        });
        let resp = tr.time("json.parse_response", i, || json::parse(&r.body))?;
        let outcome = outcome_from_json(resp.get("outcome").ok_or("response has no outcome")?)?;
        let outcome_json = tr.time("batch.outcome_json", i, || outcome_to_json(&outcome));
        let key = KeyBuilder::new("serve")
            .text("source", mlir)
            .text("name", &b.name)
            .finish();
        let cache = &self.cache;
        tr.time("cache.store", i, || cache.store(&key, &outcome_json))
            .map_err(|e| e.to_string())?;
        let digest = format!("{:016x}", fnv1a64(b.json.as_bytes()));
        let journal = &self.journal;
        tr.time("journal.append", i, || {
            journal.begin(&digest)?;
            journal.finish(
                &digest,
                &format!("{{\"code\":200,\"body\":{}}}", json_str(&r.body)),
            )
        })
        .map_err(|e| e.to_string())
    }

    /// Per-layer metrics of the traced phase; `mid` and `end` are the
    /// server's counters before and after it.
    fn report(
        &self,
        report: &mut Report,
        untraced: &Phase,
        traced: &Phase,
        mid: Counters,
        end: Counters,
    ) {
        let is_compile = |i: u64| matches!(step(i), Step::New(_));
        let span_ms = |name: &str, compiles_only: bool| -> Vec<f64> {
            self.tr
                .spans()
                .iter()
                .filter(|sp| sp.name == name && (!compiles_only || is_compile(sp.op)))
                .map(|sp| sp.dur_ns() as f64 / 1e6)
                .collect()
        };
        let traced_compile_ms = span_ms("op", true);
        let compiles = traced_compile_ms.len().max(1) as f64;
        let own = self.tr.self_ns_by_name();
        // The compile path's replay: its layers plus parsing the request.
        let mut replay_sum: f64 = span_ms("json.parse_request", true).iter().sum();
        for (span, metric) in COMPILE_LAYERS {
            let total = own.get(span).copied().unwrap_or(0) as f64 / 1e6;
            report.set(metric, total / compiles);
            replay_sum += total;
        }
        report.set(
            "json.parse_request_ms",
            mean(&span_ms("json.parse_request", false)),
        );
        report.set(
            "serve.unattributed_ms",
            mean(&traced_compile_ms) - replay_sum / compiles,
        );
        // Client-observed times by class, over the untraced phase's quiet ops.
        let quiet = untraced.quiet_ops();
        let (compile_ms, hit_ms): (Vec<(usize, &f64)>, _) = untraced
            .op_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| quiet[*i])
            .partition(|(i, _)| is_compile(*i as u64));
        let ms = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, m)| *m).collect::<Vec<_>>();
        report.set("serve.compile_ms_p50", median(&ms(compile_ms)));
        report.set("serve.hit_ms_p50", median(&ms(hit_ms)));
        let compiled = end.compiled - mid.compiled;
        report.set(
            "serve.queue_ms",
            (end.queue_us - mid.queue_us) as f64 / 1e3 / compiled.max(1) as f64,
        );
        report.set("serve.compiled", compiled as f64);
        report.set("serve.cache_hits", (end.cache_hits - mid.cache_hits) as f64);
        report.set("serve.evictions", (end.evictions - mid.evictions) as f64);
        report.set_trace_overhead(untraced, traced, &span_ms("op", false));
    }

    fn close(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_one_compile_to_three_hits_at_several_distances() {
        let mut distances = std::collections::BTreeSet::new();
        for i in 0..4000u64 {
            match step(i) {
                Step::New(n) => assert_eq!((i % 4, n), (0, i / 4)),
                Step::Repeat(n) => {
                    assert_ne!(i % 4, 0);
                    assert!(n <= i / 4, "op {i} repeats a body not yet sent");
                    distances.insert(i / 4 - n);
                }
            }
        }
        for d in REUSE {
            assert!(distances.contains(&d), "reuse distance {d} never used");
        }
    }

    #[test]
    fn pinned_bodies_do_not_depend_on_the_seed() {
        assert_eq!(body(1, 3).json, body(2, 3).json);
        assert_ne!(body(1, PINNED_BODIES).json, body(2, PINNED_BODIES).json);
    }

    #[test]
    fn a_wrong_served_digest_fails_the_op_that_sent_the_body() {
        let bodies = vec![body(7, 0), body(7, 1)];
        let good = |b: &Body| {
            let art = driver::run_flow_on_text(
                &b.name,
                &b.mlir,
                &DIRECTIVES,
                Flow::Adaptor,
                &Budget::unlimited(),
            )
            .unwrap();
            format!(
                "{:016x}",
                fnv1a64(llvm_lite::printer::print_module(&art.module).as_bytes())
            )
        };
        let seen = |digest: String| Seen {
            hash: 0,
            len: 0,
            digest,
            ok: true,
        };
        let mut report = Report::default();
        verify_digests(
            &bodies,
            &[seen(good(&bodies[0])), seen("0123456789abcdef".into())],
            &mut report,
        );
        assert_eq!(report.failed, 1, "{:?}", report.failures);
        assert!(report.failures[0].starts_with("body 1: module digest 0123456789abcdef served"));
        assert!(!report.correct());
    }

    #[test]
    fn a_failed_first_send_fails_its_repeats_and_keeps_bodies_in_step() {
        // A server that accepts the connection, then closes it and goes
        // away: the first request ends in EOF, later ones are refused.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener.accept().unwrap());
        drop(listener);
        let mut s = Session {
            seed: 7,
            client,
            bodies: Vec::new(),
            seen: Vec::new(),
            pinned: Vec::new(),
        };
        for i in 0..8 {
            let (sample, sent) = s.send(i);
            assert!(sample.check.is_err(), "op {i} passed");
            assert!(sent.response.is_none());
        }
        assert_eq!((s.bodies.len(), s.seen.len()), (2, 2));
        assert!(s.seen.iter().all(|first| !first.ok));

        // Had a repeat of body 0 got through, it still fails: its first
        // response never passed.
        let hit = Response {
            code: 200,
            served: Some("cache".into()),
            close: false,
            body: String::new(),
        };
        let e = s.check(Step::Repeat(0), &hit).unwrap_err();
        assert!(e.contains("first response failed"), "{e}");

        // Failed first sends are already counted; the digest pass adds none.
        let mut report = Report::default();
        verify_digests(&s.bodies, &s.seen, &mut report);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
    }

    #[test]
    fn digest_is_read_from_a_compile_response() {
        let body = r#"{"outcome":{"status":"ok","module_text":"x \"module_digest\":","module_digest":"00112233445566aa","csynth":""}}"#;
        assert_eq!(response_digest(body), Some("00112233445566aa"));
        assert_eq!(response_digest("{}"), None);
    }
}
