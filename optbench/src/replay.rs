//! The traced run's layer replay. After the timed loop, with the server
//! idle, every distinct request of the traced phase is replayed through
//! the public call of each layer the server runs it through, and every
//! served miss is re-solved to pin the reply bit for bit.

use crate::catalog::Catalog;
use crate::check::Checked;
use crate::load::{Key, Sample, Workload};
use crate::stats::{mean, median, percentile, sorted};
use crate::Metrics;
use qmldb_anneal::{fnv1a, FNV_OFFSET};
use qmldb_math::json::Json;
use qmldb_math::par;
use qmldb_serve::wire::{parse_line, reply_json};
use qmldb_serve::{LruCache, Service, ServiceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed layer call; a request's layer time is the
/// median over them.
const REPS: usize = 5;
/// Portfolio members, in `Portfolio::full()` order.
pub const MEMBERS: [&str; 7] = ["sa", "sqa", "tabu", "tempering", "exact", "qaoa", "grover"];

/// A timed interval of one request's trace: client spans for exchanges,
/// replay spans for layer calls.
pub struct Span {
    pub trace: String,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub end: Instant,
}

/// Per-request replayed layer times (µs, or ms for `miss_ms`).
#[derive(Default, Clone, Copy)]
struct Layers {
    parse_us: f64,
    validate_us: f64,
    encode_us: f64,
    signature_us: f64,
    hit_us: f64,
    miss_ms: f64,
    serialize_us: f64,
}

/// What the replay found beyond its metrics.
pub struct Replayed {
    pub pinned: usize,
    pub pin_failures: Vec<String>,
    pub spans: Vec<Span>,
}

/// Times `f` `REPS` times as spans of `trace`; returns the median in µs.
fn timed<T>(
    spans: &mut Vec<Span>,
    trace: &str,
    name: &'static str,
    mut f: impl FnMut() -> T,
) -> f64 {
    let mut us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(f());
        let end = Instant::now();
        us.push((end - start).as_secs_f64() * 1e6);
        spans.push(Span {
            trace: trace.to_string(),
            name,
            parent: Some("replay"),
            start,
            end,
        });
    }
    median(&us)
}

/// The service's cache key (`qmldb_serve::service`): model signature
/// mixed with the client seed.
fn cache_key(signature: u64, seed: u64) -> u64 {
    fnv1a(
        fnv1a(FNV_OFFSET, &signature.to_le_bytes()),
        &seed.to_le_bytes(),
    )
}

/// Replays the layers and the served misses, writing per-layer metrics
/// into `m`. `samples` are the traced phase's passing exchanges and
/// `fills` every served miss with its checked reply, in fill order.
pub fn layers(
    w: &Workload,
    catalog: &Catalog,
    samples: &[&Sample],
    fills: &[(Key, Checked)],
    m: &mut Metrics,
) -> Replayed {
    // Mirror the server: one solve thread.
    par::set_threads(crate::SERVER_THREADS);
    let mut spans = Vec::new();
    let portfolio = crate::portfolio(w.portfolio).expect("workload portfolios are known");
    let mut service = Service::new(ServiceConfig {
        portfolio: portfolio.clone(),
        cache_capacity: w.cache,
        ..ServiceConfig::default()
    });

    let mut pin_failures = Vec::new();
    let distinct: BTreeSet<Key> = samples.iter().map(|s| s.key).collect();
    let mut per_key: BTreeMap<Key, Layers> = BTreeMap::new();
    for &key in &distinct {
        let e = catalog.get(key);
        let trace = format!("{key:?}");
        let encoded = e.problem.encode();
        if e.problem.signature_of(&encoded) != e.signature {
            pin_failures.push(format!("{key:?}: service-path signature differs"));
        }
        let root = Instant::now();
        let mut l = Layers {
            parse_us: timed(&mut spans, &trace, "wire.parse", || parse_line(&e.line)),
            validate_us: timed(&mut spans, &trace, "request.validate", || {
                (e.request.validate(), e.request.workload.validate())
            }),
            encode_us: timed(&mut spans, &trace, "db.encode", || {
                crate::problem::Problem::build(&e.request.workload).encode()
            }),
            signature_us: timed(&mut spans, &trace, "anneal.signature", || {
                e.problem.signature_of(&encoded)
            }),
            ..Layers::default()
        };
        let start = Instant::now();
        let reply = service.submit(&e.request);
        let end = Instant::now();
        l.miss_ms = (end - start).as_secs_f64() * 1e3;
        spans.push(Span {
            trace: trace.clone(),
            name: "service.miss",
            parent: Some("replay"),
            start,
            end,
        });
        l.hit_us = timed(&mut spans, &trace, "service.hit", || {
            service.submit(&e.request)
        });
        l.serialize_us = timed(&mut spans, &trace, "wire.serialize", || {
            reply_json(&reply).compact()
        });
        spans.push(Span {
            trace,
            name: "replay",
            parent: None,
            start: root,
            end: Instant::now(),
        });
        per_key.insert(key, l);
    }

    let layer_mean = |keys: &mut dyn Iterator<Item = &Key>, f: fn(&Layers) -> f64| {
        mean(&keys.map(|k| f(&per_key[k])).collect::<Vec<_>>())
    };
    let all = || distinct.iter();
    m.put(
        "wire.parse_us",
        "us",
        layer_mean(&mut all(), |l| l.parse_us),
    );
    m.put(
        "wire.serialize_us",
        "us",
        layer_mean(&mut all(), |l| l.serialize_us),
    );
    m.put(
        "wire.request_bytes",
        "bytes",
        mean(
            &samples
                .iter()
                .map(|s| catalog.get(s.key).line.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "wire.reply_bytes",
        "bytes",
        mean(
            &samples
                .iter()
                .map(|s| s.ex.reply.len() as f64 + 1.0)
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "request.validate_us",
        "us",
        layer_mean(&mut all(), |l| l.validate_us),
    );
    m.put(
        "db.encode_us",
        "us",
        layer_mean(&mut all(), |l| l.encode_us),
    );
    m.put(
        "anneal.signature_us",
        "us",
        layer_mean(&mut all(), |l| l.signature_us),
    );
    m.put("service.hit_us", "us", layer_mean(&mut all(), |l| l.hit_us));
    m.put(
        "service.miss_ms",
        "ms",
        layer_mean(&mut all(), |l| l.miss_ms),
    );
    // The 64-variable join orders, where the signature dominates a hit.
    let jo64: Vec<Key> = distinct
        .iter()
        .copied()
        .filter(|&k| {
            let e = catalog.get(k);
            e.request.workload.tag() == "join-order" && e.problem.n_vars() == 64
        })
        .collect();
    m.put("jo64.requests", "count", jo64.len() as f64);
    for (name, f) in [
        (
            "jo64.wire.parse_us",
            (|l: &Layers| l.parse_us) as fn(&Layers) -> f64,
        ),
        ("jo64.request.validate_us", |l| l.validate_us),
        ("jo64.db.encode_us", |l| l.encode_us),
        ("jo64.anneal.signature_us", |l| l.signature_us),
        ("jo64.service.hit_us", |l| l.hit_us),
    ] {
        m.put(name, "us", layer_mean(&mut jo64.iter(), f));
    }

    // Client spans: first byte, drain, and the queueing left over once
    // the replayed in-process work of a hit is taken out.
    let first: Vec<f64> = samples.iter().map(|s| s.first_byte_ms()).collect();
    let drain: Vec<f64> = samples.iter().map(|s| s.drain_ms()).collect();
    m.put("server.first_byte_ms", "ms", median(&first));
    m.put("server.drain_ms", "ms", median(&drain));
    let queue: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.key, Key::Set(_)))
        .map(|s| {
            let l = &per_key[&s.key];
            s.first_byte_ms() - (l.parse_us + l.hit_us + l.serialize_us) / 1e3
        })
        .collect();
    m.put("server.queue_ms", "ms", mean(&queue));
    for (class, hit) in [("hit", true), ("solve", false)] {
        let lat = sorted(
            &samples
                .iter()
                .filter(|s| matches!(s.key, Key::Set(_)) == hit)
                .map(|s| s.latency_ms())
                .collect::<Vec<_>>(),
        );
        let p50 = if lat.is_empty() {
            0.0
        } else {
            percentile(&lat, 50.0)
        };
        let tail = crate::stats::tail(&lat).map_or(0.0, |(_, v)| v);
        m.put(&format!("{class}_latency_p50_ms"), "ms", p50);
        m.put(&format!("{class}_latency_tail_ms"), "ms", tail);
        m.put(&format!("{class}_samples"), "count", lat.len() as f64);
    }

    cache_layer(w, catalog, fills, m);

    // Re-solve every served miss through `Portfolio::solve_encoded` under
    // the service's stream: the reply must come back bit for bit, which
    // ties each member's time to the request actually served.
    let mut pinned = 0;
    let mut runs: BTreeMap<&str, (usize, f64, u64)> = BTreeMap::new();
    for (key, served) in fills {
        let e = catalog.get(*key);
        let encoded = e.problem.encode();
        let start = Instant::now();
        let solved = e
            .problem
            .solve(&portfolio, &encoded, e.request.seed, e.signature);
        spans.push(Span {
            trace: format!("{key:?}"),
            name: "portfolio.solve_encoded",
            parent: Some("replay"),
            start,
            end: Instant::now(),
        });
        let same = solved.solution == served.solution
            && solved.objective.to_bits() == served.objective.to_bits()
            && solved.solver == served.solver;
        pinned += usize::from(same);
        if !same {
            pin_failures.push(format!(
                "{key:?}: replay {} {:?} {:?} != served {} {:?} {:?}",
                solved.solver,
                solved.objective,
                solved.solution,
                served.solver,
                served.objective,
                served.solution
            ));
        }
        for r in &solved.runs {
            let slot = runs.entry(r.solver).or_default();
            slot.0 += 1;
            slot.1 += r.wall_s;
            slot.2 += r.proposals;
        }
    }
    for member in MEMBERS {
        let (n, wall_s, proposals) = runs.get(member).copied().unwrap_or_default();
        let per_run = |x: f64| if n == 0 { 0.0 } else { x / n as f64 };
        m.put(
            &format!("portfolio.{member}.wall_ms"),
            "ms",
            per_run(wall_s * 1e3),
        );
        m.put(
            &format!("portfolio.{member}.proposals"),
            "count",
            per_run(proposals as f64),
        );
        m.put(
            &format!("portfolio.{member}.mproposals_per_s"),
            "1/s",
            if wall_s > 0.0 {
                proposals as f64 / wall_s / 1e6
            } else {
                0.0
            },
        );
    }
    par::reset_threads();
    Replayed {
        pinned,
        pin_failures,
        spans,
    }
}

/// `LruCache::get` and `insert_with_cost` on a cache of the workload's
/// capacity holding the workload's served keys.
fn cache_layer(w: &Workload, catalog: &Catalog, fills: &[(Key, Checked)], m: &mut Metrics) {
    let keys: Vec<u64> = fills
        .iter()
        .map(|(k, _)| {
            let e = catalog.get(*k);
            cache_key(e.signature, e.request.seed)
        })
        .collect();
    let filled = || {
        let mut cache = LruCache::new(w.cache);
        for &k in &keys {
            cache.insert_with_cost(k, k, 0.0);
        }
        cache
    };
    let mut cache = filled();
    let resident: Vec<u64> = keys
        .iter()
        .copied()
        .filter(|&k| cache.peek(k).is_some())
        .collect();
    let start = Instant::now();
    for _ in 0..REPS {
        for &k in &resident {
            black_box(cache.get(black_box(k)));
        }
    }
    let probes = (REPS * resident.len()).max(1) as f64;
    m.put(
        "cache.probe_us",
        "us",
        start.elapsed().as_secs_f64() * 1e6 / probes,
    );
    let mut cache = filled();
    let fresh = w.cache as u64;
    let start = Instant::now();
    for k in 0..fresh {
        cache.insert_with_cost(black_box(!k), k, 1e-3);
    }
    m.put(
        "cache.insert_us",
        "us",
        start.elapsed().as_secs_f64() * 1e6 / fresh as f64,
    );
}

/// Writes the traced phase's client spans and the replay spans as JSON
/// lines under `out/` in this package; returns the file path.
pub fn write_spans(w: &Workload, seed: u64, traced: &[Sample], replay: &[Span]) -> String {
    let Some(origin) = traced.first().map(|s| s.ex.send) else {
        return String::new();
    };
    let us = |t: Instant| {
        if t >= origin {
            (t - origin).as_secs_f64() * 1e6
        } else {
            -((origin - t).as_secs_f64() * 1e6)
        }
    };
    let mut lines = Vec::new();
    let mut span = |trace: &str, name: &str, parent: Option<&str>, start: Instant, end: Instant| {
        lines.push(
            Json::Obj(vec![
                ("trace".into(), Json::Str(trace.into())),
                ("name".into(), Json::Str(name.into())),
                (
                    "parent".into(),
                    parent.map_or(Json::Null, |p| Json::Str(p.into())),
                ),
                ("start_us".into(), Json::Num(us(start))),
                ("end_us".into(), Json::Num(us(end))),
            ])
            .compact(),
        )
    };
    for (n, s) in traced.iter().enumerate() {
        let trace = format!("req{n}:{:?}", s.key);
        span(
            &trace,
            "client.request",
            None,
            s.due.unwrap_or(s.ex.send),
            s.ex.newline,
        );
        span(
            &trace,
            "server.first_byte",
            Some("client.request"),
            s.ex.send,
            s.ex.first,
        );
        span(
            &trace,
            "server.drain",
            Some("client.request"),
            s.ex.first,
            s.ex.newline,
        );
    }
    for s in replay {
        span(&s.trace, s.name, s.parent, s.start, s.end);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", w.name));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, lines.join("\n") + "\n"));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}
