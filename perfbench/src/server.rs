//! The server probe's client: requests against an in-process
//! `gcx_server::serve`, sent at scheduled times.
//!
//! One generator thread multiplexes non-blocking sockets, one connection
//! per in-flight request, so a slow server never delays the schedule: each
//! request is timed from the moment it was due, and how late the generator
//! actually sent it is recorded. Every response is checked against the
//! offline session of the same (query, document) pair.

use crate::inputs::{ms, Query};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Metrics;
use gcx_server::{client, serve, ServerConfig, ServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Body bytes per chunk in chunked framing.
pub const BODY_CHUNK: usize = 64 * 1024;

/// Most requests in flight at once; later arrivals wait (and count as
/// generator lateness).
const MAX_IN_FLIGHT: usize = 512;

/// The service configuration every run uses: one worker per CPU.
fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        // A passing stall queues requests instead of refusing them.
        queue_depth: MAX_IN_FLIGHT,
        ..ServerConfig::default()
    }
}

/// Start a server and register `queries`; returns it with the
/// registration time.
pub fn start(queries: &[Query]) -> Result<(ServerHandle, Duration), String> {
    let handle = serve(config()).map_err(|e| format!("serve: {e}"))?;
    let t0 = Instant::now();
    for q in queries {
        let r = client::put_query(handle.addr(), q.name, q.text)
            .map_err(|e| format!("PUT /queries/{}: {e}", q.name))?;
        if !(200..300).contains(&r.status) {
            return Err(format!("PUT /queries/{}: status {}", q.name, r.status));
        }
    }
    Ok((handle, t0.elapsed()))
}

/// The offline reference of one (query, document) pair.
pub struct Ref {
    pub output: Vec<u8>,
    pub peak: u64,
    /// Offline session time, ms.
    pub offline_ms: f64,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Seconds after the phase start.
    pub at: f64,
    pub q: usize,
    pub doc: usize,
    pub chunked: bool,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Record {
    pub arrival: Arrival,
    /// Generator lateness: actual send time minus scheduled time, ms.
    pub late_ms: f64,
    /// Scheduled send time to the last response byte, ms.
    pub latency_ms: f64,
    /// Send start to the last body byte written, ms.
    pub upload_ms: f64,
    /// Last body byte written to the last response byte, ms.
    pub response_ms: f64,
    /// The `X-Gcx-Peak-Buffer-Bytes` trailer (0 when absent).
    pub peak: u64,
    pub ok: bool,
    /// The request completed but its body or peak trailer differs from the
    /// offline reference.
    pub mismatch: bool,
    /// The connection failed (reset, refused) instead of answering.
    pub reset: bool,
}

/// Request bodies on the wire: sized framing sends the document itself,
/// chunked framing a pre-encoded copy.
pub struct Bodies<'a> {
    pub docs: Vec<&'a [u8]>,
    pub chunked: Vec<Vec<u8>>,
}

impl<'a> Bodies<'a> {
    pub fn new(docs: Vec<&'a [u8]>) -> Bodies<'a> {
        let chunked = docs
            .iter()
            .map(|d| {
                let mut out = Vec::with_capacity(d.len() + d.len() / BODY_CHUNK * 12 + 16);
                for c in d.chunks(BODY_CHUNK) {
                    out.extend_from_slice(format!("{:x}\r\n", c.len()).as_bytes());
                    out.extend_from_slice(c);
                    out.extend_from_slice(b"\r\n");
                }
                out.extend_from_slice(b"0\r\n\r\n");
                out
            })
            .collect();
        Bodies { docs, chunked }
    }
}

/// One in-flight request on a non-blocking socket.
struct Conn<'a> {
    rec: usize,
    lane: u64,
    stream: TcpStream,
    head: Vec<u8>,
    body: &'a [u8],
    written: usize,
    sent: Instant,
    uploaded: Option<Instant>,
    last_byte: Option<Instant>,
    rbuf: Vec<u8>,
    failed: bool,
    eof: bool,
    /// The last wait reported the socket ready (or it is new).
    ready: bool,
    trace_id: Option<String>,
}

impl Conn<'_> {
    /// Move bytes both ways without blocking; true when any moved.
    fn progress(&mut self, scratch: &mut [u8]) -> bool {
        let mut moved = false;
        while self.uploaded.is_none() {
            let total = self.head.len() + self.body.len();
            if self.written == total {
                self.uploaded = Some(Instant::now());
                break;
            }
            let buf = if self.written < self.head.len() {
                &self.head[self.written..]
            } else {
                &self.body[self.written - self.head.len()..]
            };
            match self.stream.write(buf) {
                Ok(n) if n > 0 => {
                    self.written += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // The server answered early and closed: keep reading.
                _ => self.uploaded = Some(Instant::now()),
            }
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.last_byte = Some(Instant::now());
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.failed = true;
                    self.eof = true;
                    break;
                }
            }
        }
        moved
    }
}

/// Send `arrivals` at their scheduled times and check every response
/// against `refs`.
#[allow(clippy::too_many_arguments)]
pub fn run_arrivals(
    addr: SocketAddr,
    queries: &[Query],
    bodies: &Bodies,
    refs: &[Vec<Ref>],
    arrivals: &[Arrival],
    seed: u64,
    tr: &mut Tracer,
    parent: u64,
) -> Vec<Record> {
    let mut records: Vec<Record> = arrivals
        .iter()
        .map(|&arrival| Record {
            arrival,
            late_ms: 0.0,
            latency_ms: 0.0,
            upload_ms: 0.0,
            response_ms: 0.0,
            peak: 0,
            ok: false,
            mismatch: false,
            reset: false,
        })
        .collect();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut conns: Vec<Conn> = Vec::new();
    let mut free_lanes: Vec<u64> = Vec::new();
    let mut next_lane = 2u64;
    let mut next = 0;
    let start = Instant::now();
    let due = |a: &Arrival| start + Duration::from_secs_f64(a.at);
    while next < arrivals.len() || !conns.is_empty() {
        let mut moved = false;
        while next < arrivals.len()
            && conns.len() < MAX_IN_FLIGHT
            && due(&arrivals[next]) <= Instant::now()
        {
            let a = arrivals[next];
            let sent = Instant::now();
            records[next].late_ms = ms(sent - due(&a));
            let lane = free_lanes.pop().unwrap_or_else(|| {
                next_lane += 1;
                next_lane - 1
            });
            let trace_id = tr.on().then(|| format!("pb{seed}-{}", tr.id()));
            let body = if a.chunked {
                &bodies.chunked[a.doc][..]
            } else {
                bodies.docs[a.doc]
            };
            let mut head = format!("POST /eval/{} HTTP/1.1\r\nHost: gcx\r\n", queries[a.q].name);
            if let Some(id) = &trace_id {
                head.push_str(&format!("X-Gcx-Trace-Id: {id}\r\n"));
            }
            if a.chunked {
                head.push_str("Transfer-Encoding: chunked\r\n");
            } else {
                head.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            head.push_str("Connection: close\r\n\r\n");
            match TcpStream::connect(addr).and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            }) {
                Ok(stream) => conns.push(Conn {
                    rec: next,
                    lane,
                    stream,
                    head: head.into_bytes(),
                    body,
                    written: 0,
                    sent,
                    uploaded: None,
                    last_byte: None,
                    rbuf: Vec::new(),
                    failed: false,
                    eof: false,
                    ready: true,
                    trace_id,
                }),
                Err(e) => {
                    eprintln!("server probe: connect failed: {e}");
                    records[next].reset = true;
                    records[next].latency_ms = ms(sent - due(&a));
                    free_lanes.push(lane);
                }
            }
            next += 1;
            moved = true;
        }
        let mut i = 0;
        while i < conns.len() {
            if !conns[i].ready {
                i += 1;
                continue;
            }
            moved |= conns[i].progress(&mut scratch);
            if !conns[i].eof {
                i += 1;
                continue;
            }
            let c = conns.swap_remove(i);
            free_lanes.push(c.lane);
            let r = &mut records[c.rec];
            let a = r.arrival;
            let end = c.last_byte.unwrap_or_else(Instant::now);
            let uploaded = c.uploaded.unwrap_or(end);
            r.latency_ms = ms(end.saturating_duration_since(due(&a)));
            r.upload_ms = ms(uploaded - c.sent);
            r.response_ms = ms(end.saturating_duration_since(uploaded));
            if tr.on() {
                let id = tr.id();
                let scheduled = due(&a);
                for (name, from, to) in [
                    ("generator.late", scheduled, c.sent),
                    ("server.upload", c.sent, uploaded),
                    ("server.response", uploaded, end),
                ] {
                    let child = tr.id();
                    tr.record_as(child, id, name, "server", c.lane, from, to, None);
                }
                tr.record_as(
                    id,
                    parent,
                    "server.request",
                    "server",
                    c.lane,
                    scheduled,
                    end,
                    c.trace_id.clone(),
                );
            }
            if c.failed {
                r.reset = true;
                eprintln!(
                    "server probe: {} connection failed after {} bytes sent",
                    queries[a.q].name, c.written
                );
                continue;
            }
            match client::read_response(&mut &c.rbuf[..]) {
                Ok(resp) if resp.status == 200 => {
                    let want = &refs[a.q][a.doc];
                    let peak = resp.trailer_u64("x-gcx-peak-buffer-bytes");
                    r.peak = peak.unwrap_or(0);
                    if resp.body == want.output && peak == Some(want.peak) {
                        r.ok = true;
                    } else {
                        r.mismatch = true;
                        eprintln!(
                            "server probe: {} on document {} differs from the offline session \
                             (peak {:?} vs {})",
                            queries[a.q].name, a.doc, peak, want.peak
                        );
                    }
                }
                Ok(resp) => eprintln!(
                    "server probe: {} answered {}",
                    queries[a.q].name, resp.status
                ),
                Err(e) => {
                    r.reset = true;
                    eprintln!(
                        "server probe: {} response unreadable: {e}",
                        queries[a.q].name
                    );
                }
            }
        }
        if moved {
            continue;
        }
        // Nothing moved: block until a socket is ready or the next
        // arrival is due.
        let wait = arrivals
            .get(next)
            .filter(|_| conns.len() < MAX_IN_FLIGHT)
            .map_or(Duration::from_millis(100), |a| {
                due(a).saturating_duration_since(Instant::now())
            });
        if wait.is_zero() {
            continue;
        }
        if conns.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        let mut fds: Vec<sys::PollFd> = conns
            .iter()
            .map(|c| sys::PollFd::new(&c.stream, c.uploaded.is_none()))
            .collect();
        sys::wait(&mut fds, wait);
        for (c, fd) in conns.iter_mut().zip(&fds) {
            c.ready = fd.revents != 0;
        }
    }
    records
}

/// Readiness waiting for the generator's sockets.
mod sys {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(s: &TcpStream, writable: bool) -> PollFd {
            const POLLIN: i16 = 0x1;
            const POLLOUT: i16 = 0x4;
            PollFd {
                fd: s.as_raw_fd(),
                events: if writable { POLLIN | POLLOUT } else { POLLIN },
                revents: 0,
            }
        }
    }

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }

    /// Block until one of `fds` is ready or `timeout` passes. Errors
    /// (an interrupted wait) just return: the caller polls again.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // records with the C `struct pollfd` layout, `ts` outlives the
        // call, and a null signal mask leaves the mask unchanged.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    }
}

/// Server-side readings of a traced measurement.
#[derive(Debug, Default, Clone)]
pub struct Scrapes {
    pub before: String,
    pub after: String,
    pub busy_frac: Vec<f64>,
    pub stats_before: String,
    pub stats_after: String,
}

/// Sample `gcx_workers_busy / gcx_workers` every 100 ms until `stop`.
/// Each scrape occupies one worker itself, which is subtracted.
fn sample_busy(addr: SocketAddr, stop: &std::sync::atomic::AtomicBool) -> Vec<f64> {
    let mut v = Vec::new();
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        if let Ok(r) = client::get(addr, "/metrics") {
            let text = String::from_utf8_lossy(&r.body);
            let busy = prom_value(&text, "gcx_workers_busy").unwrap_or(1.0);
            let workers = prom_value(&text, "gcx_workers").unwrap_or(1.0);
            v.push(((busy - 1.0).max(0.0) / workers.max(1.0)).min(1.0));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    v
}

/// Value of the unlabelled Prometheus sample `name`.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Cumulative `(le, count)` buckets of histogram `name`.
pub fn prom_buckets(text: &str, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// Quantile of the observations between two scrapes of a histogram, as
/// the upper bound of the bucket it falls in (the largest finite bound
/// for the overflow bucket).
pub fn hist_delta_quantile(before: &str, after: &str, name: &str, q: f64) -> f64 {
    let (b, a) = (prom_buckets(before, name), prom_buckets(after, name));
    let delta: Vec<(f64, f64)> = a
        .iter()
        .map(|&(le, n)| (le, n - b.iter().find(|x| x.0 == le).map_or(0.0, |x| x.1)))
        .collect();
    let total = delta.last().map_or(0.0, |x| x.1);
    let last_finite = delta
        .iter()
        .rev()
        .find(|x| x.0.is_finite())
        .map_or(0.0, |x| x.0);
    if total <= 0.0 {
        return 0.0;
    }
    delta
        .iter()
        .find(|&&(_, n)| n >= q * total)
        .map_or(
            last_finite,
            |&(le, _)| if le.is_finite() { le } else { last_finite },
        )
}

/// Numeric field `key` of a flat JSON document such as `/stats`.
pub fn json_u64(text: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    text.find(&pat)
        .and_then(|i| {
            let rest = &text[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// Server per-layer metrics from request records and `/metrics` scrapes.
pub fn server_metrics(
    records: &[Record],
    refs: &[Vec<Ref>],
    register_ms: f64,
    scrapes: &Scrapes,
    out: &mut Metrics,
) {
    let ok: Vec<&Record> = records.iter().filter(|r| r.ok).collect();
    let pick = |f: &dyn Fn(&Record) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
    out.put("server.register_ms", register_ms, "ms");
    out.put("server.upload_ms", median(&pick(&|r| r.upload_ms)), "ms");
    out.put(
        "server.response_ms",
        median(&pick(&|r| r.response_ms)),
        "ms",
    );
    out.put(
        "server.overhead_ms",
        median(&pick(&|r| {
            r.latency_ms - refs[r.arrival.q][r.arrival.doc].offline_ms
        })),
        "ms",
    );
    let wait = "gcx_admission_wait_microseconds";
    for (q, name) in [
        (0.5, "server.admission_wait_us.p50"),
        (0.99, "server.admission_wait_us.p99"),
    ] {
        out.put(
            name,
            hist_delta_quantile(&scrapes.before, &scrapes.after, wait, q),
            "us",
        );
    }
    out.put(
        "server.workers_busy_frac",
        median(&scrapes.busy_frac),
        "ratio",
    );
    let rejected = |s: &str| json_u64(s, "rejected_busy") + json_u64(s, "rejected_buffer");
    let resets = records.iter().filter(|r| r.reset).count() as u64;
    out.put(
        "server.rejected",
        (rejected(&scrapes.stats_after).saturating_sub(rejected(&scrapes.stats_before)) + resets)
            as f64,
        "count",
    );
    let late: Vec<f64> = records.iter().map(|r| r.late_ms).collect();
    out.put("server.generator_late_ms.p99", quantile(&late, 0.99), "ms");
}

/// Run `arrivals` against `addr` with the server-side readings a traced
/// run reports: `/metrics` and `/stats` before and after, and the busy
/// share of the workers sampled meanwhile.
pub fn run_scraped(
    addr: SocketAddr,
    queries: &[Query],
    bodies: &Bodies,
    refs: &[Vec<Ref>],
    arrivals: &[Arrival],
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Vec<Record>, Scrapes), String> {
    let get = |path: &str| -> Result<String, String> {
        client::get(addr, path)
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .map_err(|e| format!("GET {path}: {e}"))
    };
    let mut sc = Scrapes {
        before: get("/metrics")?,
        stats_before: get("/stats")?,
        ..Scrapes::default()
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    let records = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_busy(addr, &stop));
        let id = tr.id();
        let t0 = Instant::now();
        let records = run_arrivals(addr, queries, bodies, refs, arrivals, seed, tr, id);
        tr.record_as(
            id,
            0,
            "server.probe",
            "workload",
            1,
            t0,
            Instant::now(),
            None,
        );
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        sc.busy_frac = sampler.join().expect("busy sampler panicked");
        records
    });
    sc.after = get("/metrics")?;
    sc.stats_after = get("/stats")?;
    Ok((records, sc))
}
