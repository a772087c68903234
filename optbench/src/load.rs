//! Workload definitions and the load generator: who connects, what each
//! connection sends, and when.

use crate::client::{Conn, Exchange};
use crate::gen;
use qmldb_serve::wire::request_json;
use qmldb_serve::{Request, ServiceConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How the cold session sends its never-repeating requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cold {
    /// No cold session.
    Off,
    /// Closed loop: the next request goes out when the reply is in.
    ClosedLoop,
    /// Open loop on a fixed schedule, one request every `Duration`.
    Every(Duration),
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// `classical` or `full`: the server's portfolio.
    pub portfolio: &'static str,
    /// The server's cache capacity.
    pub cache: usize,
    /// The working set, preloaded by one `batch` op during set-up and
    /// cycled by the hot connections.
    pub set: Vec<Request>,
    /// Closed-loop connections cycling through `set`.
    pub hot_conns: usize,
    pub cold: Cold,
    seed: u64,
}

/// The cold session's gap between scheduled sends in `mixed_tcp`. A
/// 12-variable cold solve under `Portfolio::full()` holds the service
/// lock for 150–260 ms (QAOA dominates), so the lock is held for roughly
/// a quarter of wall time: most hits run unblocked, while each solve
/// blocks about one hit, which puts the tail in the blocked mode.
pub const MIXED_COLD_GAP: Duration = Duration::from_millis(1000);

/// `cold_tcp`'s cache capacity: small enough that inserts run past it
/// (and evict) within the first seconds of a run.
const COLD_CACHE: usize = 32;

impl Workload {
    pub const NAMES: [&'static str; 3] = ["hot_tcp", "cold_tcp", "mixed_tcp"];

    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let default_cache = ServiceConfig::default().cache_capacity;
        let (name, portfolio, cache, set, hot_conns, cold) = match name {
            "hot_tcp" => (
                "hot_tcp",
                "classical",
                default_cache,
                gen::hot_set(seed),
                2,
                Cold::Off,
            ),
            "cold_tcp" => (
                "cold_tcp",
                "classical",
                COLD_CACHE,
                Vec::new(),
                0,
                Cold::ClosedLoop,
            ),
            "mixed_tcp" => (
                "mixed_tcp",
                "full",
                default_cache,
                gen::mixed_set(seed),
                1,
                Cold::Every(MIXED_COLD_GAP),
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            portfolio,
            cache,
            set,
            hot_conns,
            cold,
            seed,
        })
    }

    /// Client threads the workload runs: one per connection.
    pub fn client_threads(&self) -> usize {
        self.hot_conns + usize::from(self.cold != Cold::Off)
    }

    /// Request `i` of the cold stream.
    pub fn cold_request(&self, i: usize) -> Request {
        match self.cold {
            Cold::Every(_) => gen::mixed_cold_request(self.seed, i),
            _ => gen::cold_request(self.seed, i),
        }
    }

    /// The preload op: every working-set request in one `batch` line.
    pub fn preload_line(&self) -> Option<String> {
        (!self.set.is_empty()).then(|| {
            let reqs: Vec<String> = self.set.iter().map(|r| request_json(r).compact()).collect();
            format!("{{\"op\":\"batch\",\"requests\":[{}]}}\n", reqs.join(","))
        })
    }
}

/// Which request a sample carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Working-set request `i`.
    Set(usize),
    /// Cold-stream request `i`.
    Cold(usize),
}

/// One timed exchange.
pub struct Sample {
    pub key: Key,
    /// The scheduled send time of an open-loop request.
    pub due: Option<Instant>,
    pub ex: Exchange,
}

impl Sample {
    /// Round trip in ms, from the due time for open-loop requests.
    pub fn latency_ms(&self) -> f64 {
        ms(self.ex.newline - self.due.unwrap_or(self.ex.send))
    }
    pub fn first_byte_ms(&self) -> f64 {
        ms(self.ex.first - self.ex.send)
    }
    pub fn drain_ms(&self) -> f64 {
        ms(self.ex.newline - self.ex.first)
    }
    /// How late an open-loop request went out (0 for closed loop).
    pub fn lateness_ms(&self) -> Option<f64> {
        self.due
            .map(|d| ms(self.ex.send.saturating_duration_since(d)))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The client side of one run: its connections and where each left off.
pub struct Client<'w> {
    w: &'w Workload,
    hot: Vec<(Conn, usize)>,
    cold: Option<Conn>,
    order: Vec<usize>,
    set_lines: Vec<String>,
    /// Cold-stream requests sent so far, with their wire lines.
    pub cold_sent: Vec<(Request, String)>,
}

/// What one phase produced.
pub struct Phase {
    pub samples: Vec<Sample>,
    /// From the phase start to the last reply.
    pub elapsed: Duration,
}

impl<'w> Client<'w> {
    pub fn connect(w: &'w Workload, addr: SocketAddr) -> Result<Client<'w>, String> {
        let conn = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
        let hot = (0..w.hot_conns)
            .map(|c| Ok((conn()?, c)))
            .collect::<Result<_, String>>()?;
        let cold = match w.cold {
            Cold::Off => None,
            _ => Some(conn()?),
        };
        Ok(Client {
            w,
            hot,
            cold,
            order: gen::order(w.seed, w.set.len()),
            set_lines: w
                .set
                .iter()
                .map(|r| request_json(r).compact() + "\n")
                .collect(),
            cold_sent: Vec::new(),
        })
    }

    /// Drives every connection for `length`, each on its own thread (one
    /// of them this one), and returns the exchanges in send order.
    pub fn phase(&mut self, length: Duration) -> Phase {
        let start = Instant::now();
        let end = start + length;
        let stride = self.hot.len().max(1);
        let (order, set_lines) = (&self.order, &self.set_lines);
        let w = self.w;
        let first_cold = self.cold_sent.len();
        let mut sessions: Vec<Box<dyn FnOnce() -> Session + Send + '_>> = Vec::new();
        if let Some(conn) = self.cold.as_mut() {
            sessions.push(Box::new(move || {
                cold_session(w, conn, first_cold, start, end)
            }));
        }
        for (conn, pos) in &mut self.hot {
            sessions.push(Box::new(move || {
                let samples = hot_session(conn, pos, stride, order, set_lines, end);
                (samples, Vec::new())
            }));
        }
        let inline = sessions.pop().expect("every workload has a connection");
        let outputs = std::thread::scope(|s| {
            let spawned: Vec<_> = sessions.into_iter().map(|f| s.spawn(f)).collect();
            let mut outputs = vec![inline()];
            outputs.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("session panicked")),
            );
            outputs
        });
        let mut samples = Vec::new();
        for (session_samples, sent) in outputs {
            samples.extend(session_samples);
            self.cold_sent.extend(sent);
        }
        samples.sort_by_key(|s| s.ex.send);
        let last = samples.iter().map(|s| s.ex.newline).max().unwrap_or(start);
        Phase {
            samples,
            elapsed: last.max(end) - start,
        }
    }
}

/// What a session returns: its exchanges and the cold-stream requests it
/// sent.
type Session = (Vec<Sample>, Vec<(Request, String)>);

/// A hot session: cycles through the working set in the seeded `order`,
/// taking every `stride`-th entry from `pos`, until `end`.
fn hot_session(
    conn: &mut Conn,
    pos: &mut usize,
    stride: usize,
    order: &[usize],
    set_lines: &[String],
    end: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    while Instant::now() < end {
        let i = order[*pos % order.len()];
        *pos += stride;
        let (ex, alive) = exchange(conn, &set_lines[i]);
        out.push(Sample {
            key: Key::Set(i),
            due: None,
            ex,
        });
        if !alive {
            break;
        }
    }
    out
}

/// The cold session: never-repeating requests from stream index `next`,
/// closed-loop or on the workload's schedule from `start` until `end`.
fn cold_session(
    w: &Workload,
    conn: &mut Conn,
    mut next: usize,
    start: Instant,
    end: Instant,
) -> Session {
    let mut samples = Vec::new();
    let mut sent = Vec::new();
    for k in 0u32.. {
        let due = match w.cold {
            Cold::Every(gap) => Some(start + gap * k),
            _ => None,
        };
        if due.unwrap_or_else(Instant::now) >= end {
            break;
        }
        let request = w.cold_request(next);
        let line = request_json(&request).compact() + "\n";
        if let Some(due) = due {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let (ex, alive) = exchange(conn, &line);
        samples.push(Sample {
            key: Key::Cold(next),
            due,
            ex,
        });
        sent.push((request, line));
        next += 1;
        if !alive {
            break;
        }
    }
    (samples, sent)
}

/// One exchange; a wire error becomes a failed exchange and ends the
/// session, whose connection is then unusable.
fn exchange(conn: &mut Conn, line: &str) -> (Exchange, bool) {
    let send = Instant::now();
    match conn.call(line) {
        Ok(ex) => (ex, true),
        Err(e) => (Exchange::failed(send, &e), false),
    }
}
