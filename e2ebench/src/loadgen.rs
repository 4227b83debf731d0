//! Open-loop load generation over pipelined connections.
//!
//! A schedule fixes when each request is due and on which connection it
//! goes. One sender thread writes every request the moment it falls due,
//! never waiting for replies; one receiver thread collects the replies of
//! every connection. A request is timed from its due time, so a stall also
//! delays the requests queued behind it, and how late the sender wrote is
//! recorded as lag. Two threads in all, whatever the connection count.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use logirec_linalg::SplitMix64;
use logirec_obs::json::{self, Json};
use logirec_serve::protocol::{encode_fold_in, encode_request, parse_response};
use logirec_serve::{FoldInVerb, Request, Response, ServedBy};

use crate::util::{quantile, sorted};

/// What a scheduled request asks for.
#[derive(Clone, Debug)]
pub enum Ask {
    /// A top-k read; `approx` routes it to the approx tier by a short
    /// deadline, otherwise it expects the exact tier.
    Read { user: usize, approx: bool },
    /// A signup: fold a new user with these positives into the live model.
    FoldIn { positives: Vec<usize> },
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Due time in µs after the schedule's clock origin.
    pub due_us: u64,
    pub conn: usize,
    pub ask: Ask,
}

impl Planned {
    pub fn user(&self) -> usize {
        match self.ask {
            Ask::Read { user, .. } => user,
            Ask::FoldIn { .. } => usize::MAX,
        }
    }

    pub fn is_approx(&self) -> bool {
        matches!(self.ask, Ask::Read { approx: true, .. })
    }
}

/// The read mix: k and the two deadlines that route a read.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub k: usize,
    pub exact_deadline_ms: u64,
    pub approx_deadline_ms: u64,
    pub approx_share: f64,
}

/// A parsed reply.
#[derive(Clone, Debug)]
pub enum Reply {
    Read(Response),
    FoldIn {
        swapped: bool,
        version: u64,
        new_id: Option<usize>,
    },
    Bad(String),
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Done {
    pub planned: Planned,
    /// µs from due time to reply; +∞ when the request failed.
    pub latency_us: f64,
    /// Server-reported service time (reads only).
    pub server_us: f64,
    /// µs the sender wrote after the due time.
    pub lag_us: f64,
    pub sent_us: u64,
    pub done_us: u64,
    pub reply: Reply,
}

impl Done {
    pub fn served_by(&self) -> Option<ServedBy> {
        match &self.reply {
            Reply::Read(r) => Some(r.served_by),
            _ => None,
        }
    }

    pub fn items(&self) -> &[usize] {
        match &self.reply {
            Reply::Read(r) => &r.items,
            _ => &[],
        }
    }

    /// A read served by the tier its route expects, or a swapped fold-in.
    pub fn ok(&self) -> bool {
        match (&self.planned.ask, &self.reply) {
            (Ask::Read { approx, .. }, Reply::Read(r)) => {
                r.served_by
                    == if *approx {
                        ServedBy::Approx
                    } else {
                        ServedBy::Exact
                    }
            }
            (Ask::FoldIn { .. }, Reply::FoldIn { swapped, .. }) => *swapped,
            _ => false,
        }
    }

    /// Answered, but by a lower tier than its route expects.
    pub fn degraded(&self) -> bool {
        !self.ok() && !matches!(self.served_by(), None | Some(ServedBy::Shed))
    }
}

/// Poisson reads at `rate` per second for `seconds` on connections
/// `0..conns` in turn, starting at `start_us`; users uniform over
/// `0..n_users`; the approx share of the mix drawn per request.
pub fn poisson(
    rng: &mut SplitMix64,
    rate: f64,
    start_us: u64,
    seconds: f64,
    n_users: usize,
    conns: usize,
    mix: &Mix,
) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return plan;
        }
        let ask = Ask::Read {
            user: rng.index(n_users),
            approx: rng.next_f64() < mix.approx_share,
        };
        plan.push(Planned {
            due_us: start_us + (t * 1e6) as u64,
            conn: plan.len() % conns,
            ask,
        });
    }
}

fn now_us(origin: Instant) -> u64 {
    origin.elapsed().as_micros() as u64
}

/// Replies later than this after the last due time mean a hung server.
const HANG: Duration = Duration::from_secs(60);

/// Sends `plan` (sorted by due time) over `conns` fresh connections and
/// returns the outcomes in plan order.
pub fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    origin: Instant,
    mix: &Mix,
) -> Result<Vec<Done>, String> {
    let n_conns = plan.iter().map(|p| p.conn + 1).max().unwrap_or(1);
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    let setup = |e: io::Error| format!("load generator connection: {e}");
    for _ in 0..n_conns {
        let s = TcpStream::connect(addr).map_err(setup)?;
        s.set_nodelay(true).map_err(setup)?;
        writers.push(s.try_clone().map_err(setup)?);
        s.set_nonblocking(true).map_err(setup)?;
        readers.push(s);
    }
    let abort = AtomicBool::new(false);
    let (sent, received) = std::thread::scope(|s| {
        let tx = s.spawn(|| {
            let r = send_all(&mut writers, plan, origin, mix);
            if r.is_err() {
                abort.store(true, Ordering::SeqCst);
            }
            r
        });
        let rx = s.spawn(|| receive_all(&mut readers, plan, origin, &abort));
        (
            tx.join().expect("sender thread panicked"),
            rx.join().expect("receiver thread panicked"),
        )
    });
    let sent = sent.map_err(|e| format!("load generator send: {e}"))?;
    let received = received.map_err(|e| format!("load generator receive: {e}"))?;
    Ok(plan
        .iter()
        .zip(sent)
        .zip(received)
        .map(|((p, sent_us), (done_us, reply))| {
            let mut d = Done {
                planned: p.clone(),
                latency_us: done_us.saturating_sub(p.due_us) as f64,
                server_us: match &reply {
                    Reply::Read(r) => r.latency_us as f64,
                    _ => f64::NAN,
                },
                lag_us: sent_us.saturating_sub(p.due_us) as f64,
                sent_us,
                done_us,
                reply,
            };
            if !d.ok() {
                d.latency_us = f64::INFINITY;
            }
            d
        })
        .collect())
}

fn send_all(
    writers: &mut [TcpStream],
    plan: &[Planned],
    origin: Instant,
    mix: &Mix,
) -> io::Result<Vec<u64>> {
    let mut sent = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        let now = now_us(origin);
        if p.due_us > now {
            std::thread::sleep(Duration::from_micros(p.due_us - now));
        }
        let mut line = match &p.ask {
            Ask::Read { user, approx } => {
                let deadline = if *approx {
                    mix.approx_deadline_ms
                } else {
                    mix.exact_deadline_ms
                };
                encode_request(&Request {
                    id: i as u64,
                    user: *user,
                    k: mix.k,
                    deadline_ms: Some(deadline),
                })
            }
            Ask::FoldIn { positives } => encode_fold_in(&FoldInVerb {
                item: false,
                positives: positives.clone(),
                steps: None,
                lr: None,
            }),
        };
        line.push('\n');
        sent.push(now_us(origin));
        write_fully(&mut writers[p.conn], line.as_bytes())?;
    }
    Ok(sent)
}

/// `write_all` on a socket whose reading clone is non-blocking (the flag is
/// shared): a full send buffer waits instead of failing.
fn write_fully(w: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match w.write(bytes) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection closed",
                ))
            }
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn parse_reply(p: &Planned, id: usize, line: &str) -> Reply {
    match p.ask {
        Ask::Read { .. } => match parse_response(line) {
            Ok(Ok(r)) if r.id == id as u64 => Reply::Read(r),
            Ok(Ok(r)) => Reply::Bad(format!("reply id {} for request {id}", r.id)),
            Ok(Err(msg)) | Err(msg) => Reply::Bad(msg),
        },
        Ask::FoldIn { .. } => match json::parse(line) {
            Ok(j) => Reply::FoldIn {
                swapped: j.get("fold_in").and_then(Json::as_str) == Some("swapped"),
                version: j.get("model_version").and_then(Json::as_u64).unwrap_or(0),
                new_id: j.get("new_id").and_then(Json::as_u64).map(|v| v as usize),
            },
            Err(msg) => Reply::Bad(msg),
        },
    }
}

/// Polls every connection without blocking; replies on one connection come
/// back in request order.
fn receive_all(
    readers: &mut [TcpStream],
    plan: &[Planned],
    origin: Instant,
    abort: &AtomicBool,
) -> io::Result<Vec<(u64, Reply)>> {
    let mut expect: Vec<std::collections::VecDeque<usize>> =
        vec![Default::default(); readers.len()];
    for (i, p) in plan.iter().enumerate() {
        expect[p.conn].push_back(i);
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut out: Vec<Option<(u64, Reply)>> = vec![None; plan.len()];
    let mut left = plan.len();
    let last_due = plan.last().map_or(0, |p| p.due_us);
    let mut chunk = vec![0u8; 1 << 16];
    while left > 0 {
        let mut progress = false;
        for (c, r) in readers.iter_mut().enumerate() {
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed a connection",
                    ))
                }
                Ok(n) => {
                    progress = true;
                    let at = now_us(origin);
                    bufs[c].extend_from_slice(&chunk[..n]);
                    while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                        let i = expect[c].pop_front().ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "unrequested reply")
                        })?;
                        let text = String::from_utf8_lossy(&line);
                        out[i] = Some((at, parse_reply(&plan[i], i, text.trim_end())));
                        left -= 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        if !progress {
            if abort.load(Ordering::SeqCst) || now_us(origin) > last_due + HANG.as_micros() as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "replies stopped arriving",
                ));
            }
            wait_readable(readers, 100)?;
        }
    }
    Ok(out
        .into_iter()
        .map(|o| o.expect("every request answered"))
        .collect())
}

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

const POLLIN: std::ffi::c_short = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Blocks until one of `socks` is readable or `timeout_ms` passes. The
/// standard library has no readiness wait over several sockets, and polling
/// them in a sleep loop would take CPU from the server under test.
fn wait_readable(socks: &[TcpStream], timeout_ms: i32) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
    // initialised `struct pollfd` values (same layout as `PollFd`), and
    // every descriptor in it belongs to a socket in `socks`, which stays
    // open for the duration of the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Counts and latency figures of one phase or rate rung.
pub struct Summary {
    pub sent: usize,
    pub succeeded: usize,
    pub degraded: usize,
    pub failed: usize,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    pub lag_p99_us: f64,
    /// Median latency of the last quarter of the phase over that of the
    /// first quarter: well above 1 when a backlog grows.
    pub backlog_growth: f64,
    /// The first malformed or error reply, if any.
    pub error: Option<String>,
}

pub fn summarize(done: &[&Done]) -> Summary {
    let lat = sorted(done.iter().map(|d| d.latency_us).collect());
    let lag = sorted(done.iter().map(|d| d.lag_us).collect());
    let q = (done.len() / 4).max(1).min(done.len());
    let early = sorted(done[..q].iter().map(|d| d.latency_us).collect());
    let late = sorted(
        done[done.len() - q..]
            .iter()
            .map(|d| d.latency_us)
            .collect(),
    );
    let growth = match (quantile(&early, 0.5), quantile(&late, 0.5)) {
        (Some(e), Some(l)) => l / e.max(1.0),
        _ => f64::INFINITY,
    };
    let succeeded = done.iter().filter(|d| d.ok()).count();
    let degraded = done.iter().filter(|d| d.degraded()).count();
    Summary {
        sent: done.len(),
        succeeded,
        degraded,
        failed: done.len() - succeeded - degraded,
        p50_us: quantile(&lat, 0.5),
        p99_us: quantile(&lat, 0.99),
        lag_p99_us: quantile(&lag, 0.99).unwrap_or(f64::INFINITY),
        backlog_growth: growth,
        error: done.iter().find_map(|d| match &d.reply {
            Reply::Bad(msg) => Some(msg.clone()),
            _ => None,
        }),
    }
}

impl Summary {
    pub fn line(&self, label: &str) -> String {
        let fmt = |v: Option<f64>| v.map_or("miss".to_string(), |v| format!("{v:.0}us"));
        format!(
            "{label}: sent {} ok {} degraded {} failed {}  p50 {} p99 {} (n={})  lag p99 {:.0}us  backlog x{:.2}",
            self.sent,
            self.succeeded,
            self.degraded,
            self.failed,
            fmt(self.p50_us),
            fmt(self.p99_us),
            self.sent,
            self.lag_p99_us,
            self.backlog_growth
        ) + &self.error.as_ref().map_or(String::new(), |e| format!("  first error: {e}"))
    }
}
