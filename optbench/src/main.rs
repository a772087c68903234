//! `optbench`: drives the `qmldb-serve` optimizer service over loopback
//! TCP and reports end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path optbench/Cargo.toml -- \
//!     --workload hot_tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `optbench serve --portfolio classical|full --cache N` is the server
//! child process the load generator starts for itself.

use optbench::catalog::Catalog;
use optbench::check::{Checked, Checker};
use optbench::client::{cpu_delta, Conn, ServerProc};
use optbench::load::{Client, Key, Sample, Workload};
use optbench::stats::{mean, median, sorted, tail};
use optbench::{replay, Metrics, SERVER_THREADS};
use qmldb_math::json::Json;
use qmldb_serve::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Unmeasured exchanges before the timed phase.
const WARMUP: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("serve") {
        serve(&argv[1..])
    } else {
        parse_args(&argv).and_then(|a| run(&a))
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("optbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The server child: serves on an ephemeral loopback port until its
/// stdin closes.
fn serve(argv: &[String]) -> Result<bool, String> {
    let mut config = ServiceConfig::default();
    let mut it = argv.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match (flag.as_str(), value.as_str()) {
            ("--portfolio", name) => config.portfolio = optbench::portfolio(name)?,
            ("--cache", n) => config.cache_capacity = n.parse().map_err(|_| "bad --cache")?,
            _ => return Err(format!("serve: unknown flag {flag}")),
        }
    }
    let handle = qmldb_serve::spawn("127.0.0.1:0", Service::new(config))
        .map_err(|e| format!("bind: {e}"))?;
    println!("listening {}", handle.local_addr());
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
    Ok(true)
}

/// Starts a server and preloads the working set over a connection of
/// its own; returns the server, the preload replies and the set-up time.
fn set_up(w: &Workload, exe: &Path) -> Result<(ServerProc, Vec<Json>, f64), String> {
    let started = Instant::now();
    let cache = w.cache.to_string();
    let server = ServerProc::start(exe, &["--portfolio", w.portfolio, "--cache", &cache])?;
    let replies = match w.preload_line() {
        Some(line) => {
            let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
            let (_, reply) = conn.call_json(&line)?;
            reply
                .get("replies")
                .and_then(Json::as_arr)
                .ok_or("preload: not a batch reply")?
                .to_vec()
        }
        None => Vec::new(),
    };
    Ok((server, replies, started.elapsed().as_secs_f64()))
}

fn run(a: &Args) -> Result<bool, String> {
    let w = Workload::new(&a.workload, a.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {:?})",
            a.workload,
            Workload::NAMES
        )
    })?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!(
        "{}",
        Json::Obj(vec![("host".into(), host_block(&w, a.seed))]).compact()
    );

    // Set up (several times for the untraced run) and keep the last.
    let n_setups = if a.trace { 1 } else { SETUPS };
    let mut setups = Vec::new();
    let mut preloads = Vec::new();
    let mut kept = None;
    for _ in 0..n_setups {
        let (server, replies, secs) = set_up(&w, &exe)?;
        setups.push(secs);
        preloads.push(replies);
        if let Some(previous) = kept.replace(server) {
            previous.stop()?;
        }
    }
    let server = kept.expect("at least one set-up");
    // Stats travel on short-lived connections, so only the workload's
    // own connections are open while it is timed.
    let stats = || {
        Conn::connect(server.addr)
            .map_err(|e| format!("connect: {e}"))?
            .stats()
    };

    let mut client = Client::connect(&w, server.addr)?;
    let warmup = client.phase(WARMUP);
    let before = stats()?;
    let seconds = Duration::from_secs_f64(a.seconds);
    let cpu0 = server.cpu_ns();
    // The traced run measures an untraced and a traced half; the tracing
    // overhead is the difference between the two.
    let timed = client.phase(if a.trace { seconds / 2 } else { seconds });
    let cpu_ns = cpu_delta(&cpu0, &server.cpu_ns());
    let traced = if a.trace {
        Some(client.phase(seconds / 2))
    } else {
        None
    };
    let after = stats()?;
    let peak_rss_mb = server.peak_rss_mb();
    let cold_sent = std::mem::take(&mut client.cold_sent);
    drop(client);
    server.stop()?;

    // Check every reply: preloads first (they fill the cache), then each
    // phase's exchanges in send order.
    let catalog = Catalog::new(&w, cold_sent);
    let mut checker = Checker::default();
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    let mut fills: BTreeMap<Key, Checked> = BTreeMap::new();
    for replies in &preloads {
        if replies.len() != w.set.len() {
            failures.push(format!(
                "preload answered {} of {}",
                replies.len(),
                w.set.len()
            ));
        }
        for (i, reply) in replies.iter().enumerate() {
            attempted += 1;
            match catalog.check(&mut checker, Key::Set(i), reply, false) {
                Ok(c) => {
                    fills.insert(Key::Set(i), c);
                }
                Err(e) => failures.push(format!("preload {i}: {e}")),
            }
        }
    }
    let mut phases = vec![("warmup", &warmup), ("timed", &timed)];
    if let Some(t) = &traced {
        phases.push(("traced", t));
    }
    let mut passed: Vec<Vec<(&Sample, f64)>> = Vec::new();
    for (name, phase) in &phases {
        let mut ok = Vec::new();
        for s in &phase.samples {
            attempted += 1;
            let expect_hit = matches!(s.key, Key::Set(_));
            let checked = Json::parse(&s.ex.reply)
                .and_then(|r| catalog.check(&mut checker, s.key, &r, expect_hit));
            match checked {
                Ok(c) => {
                    ok.push((s, c.objective));
                    if !c.cached {
                        fills.insert(s.key, c);
                    }
                }
                Err(e) => failures.push(format!("{name} {:?}: {e}", s.key)),
            }
        }
        passed.push(ok);
    }
    // Every working-set request after the preload must hit: a miss means
    // the preload failed. Each cold request is one miss.
    let cold_timed = phases[1..]
        .iter()
        .flat_map(|(_, p)| &p.samples)
        .filter(|s| matches!(s.key, Key::Cold(_)))
        .count() as f64;
    let set_misses = counter(&after, "misses") - counter(&before, "misses") - cold_timed;
    if set_misses != 0.0 {
        failures.push(format!(
            "{set_misses} working-set misses in the timed phase"
        ));
    }
    for f in failures.iter().take(20) {
        eprintln!("optbench: check failed: {f}");
    }

    let timed_ok = &passed[1];
    let latencies = sorted(
        &timed_ok
            .iter()
            .map(|(s, _)| s.latency_ms())
            .collect::<Vec<_>>(),
    );
    // Too few passing replies for a tail only happens in a failed run.
    let (tail_pct, tail_ms) =
        tail(&latencies).unwrap_or((100.0, latencies.last().copied().unwrap_or(0.0)));
    let mut report = vec![
        ("workload".to_string(), Json::Str(w.name.into())),
        ("seed".into(), Json::Num(a.seed as f64)),
        ("setup_s_samples".into(), nums(&setups)),
        ("latency_samples".into(), Json::Num(latencies.len() as f64)),
        ("latency_tail_percentile".into(), Json::Num(tail_pct)),
        ("stats_before".into(), before),
        ("stats_after".into(), after.clone()),
    ];
    let mut m = Metrics::default();
    let mut failed = failures.len();
    if let Some(traced) = &traced {
        let traced_ok = &passed[2];
        let p50 = |xs: &[(&Sample, f64)]| {
            median(&xs.iter().map(|(s, _)| s.latency_ms()).collect::<Vec<_>>())
        };
        let untraced_p50 = p50(timed_ok);
        let overhead = if untraced_p50 > 0.0 {
            p50(traced_ok) / untraced_p50 - 1.0
        } else {
            0.0
        };
        m.put("trace.overhead_ratio", "ratio", overhead);
        let samples: Vec<&Sample> = traced_ok.iter().map(|(s, _)| *s).collect();
        let fills: Vec<(Key, Checked)> = fills.into_iter().collect();
        let replayed = replay::layers(&w, &catalog, &samples, &fills, &mut m);
        for f in &replayed.pin_failures {
            eprintln!("optbench: replay pin failed: {f}");
        }
        failed += replayed.pin_failures.len();
        let mut optimum = BTreeMap::new();
        let gaps: Vec<f64> = traced_ok
            .iter()
            .map(|(s, objective)| {
                let best = *optimum
                    .entry(s.key)
                    .or_insert_with(|| catalog.get(s.key).problem.optimum());
                (objective - best) / best.abs().max(1.0)
            })
            .collect();
        m.put("objective_gap", "ratio", mean(&gaps));
        m.put("latency_tail_pct", "%", tail_pct);
        let hits = counter(&after, "hits");
        m.put(
            "cache.hit_ratio",
            "ratio",
            hits / (hits + counter(&after, "misses")).max(1.0),
        );
        for (key, name) in [
            ("evictions", "cache.evictions"),
            ("cost_evictions", "cache.cost_evictions"),
            ("rejections", "service.rejections"),
            ("errors", "service.errors"),
            ("degraded", "service.degraded"),
            ("coalesced", "service.coalesced"),
        ] {
            m.put(name, "count", counter(&after, key));
        }
        let lateness: Vec<f64> = traced
            .samples
            .iter()
            .filter_map(Sample::lateness_ms)
            .collect();
        m.put("client.lateness_ms", "ms", mean(&lateness));
        m.put("replay.pinned", "count", replayed.pinned as f64);
        let file = replay::write_spans(&w, a.seed, &traced.samples, &replayed.spans);
        report.push(("trace_file".into(), Json::Str(file)));
    } else {
        let sent = timed.samples.len() as f64;
        let ok = timed_ok.len() as f64;
        m.put("setup_s", "s", median(&setups));
        m.put("latency_p50_ms", "ms", median(&latencies));
        m.put("latency_tail_ms", "ms", tail_ms);
        m.put("throughput_rps", "1/s", ok / timed.elapsed.as_secs_f64());
        m.put("ok_share", "ratio", ok / sent);
        m.put(
            "cpu_ms_per_request",
            "ms",
            cpu_ns as f64 / 1e6 / ok.max(1.0),
        );
        m.put("peak_rss_mb", "MiB", peak_rss_mb);
    }
    println!("{}", Json::Obj(report).compact());
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.to_json().compact()
    );
    Ok(correct)
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// Where the numbers came from: host, toolchain, commit, build and seed.
fn host_block(w: &Workload, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let solve_threads = SERVER_THREADS;
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "server_qmldb_threads".into(),
            Json::Num(solve_threads as f64),
        ),
        (
            "client_threads".into(),
            Json::Num(w.client_threads() as f64),
        ),
        (
            "oversubscribed".into(),
            Json::Bool(w.client_threads() + solve_threads > nproc),
        ),
        ("rustc".into(), Json::Str(output("rustc", &["-V"]))),
        (
            "git_head".into(),
            Json::Str(output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("workload".into(), Json::Str(w.name.into())),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}
