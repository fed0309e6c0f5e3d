//! The `serve` workload: an open-loop load generator against a real
//! `dgsched serve` daemon (`Server`, bound through its public API) on
//! loopback, plus the probes of the layers on its request path: `codec`
//! (the vendored `serde_json`), `journal` and `serve` itself.
//!
//! Traffic is stationary. About 90 % of requests are *hot*: a Zipf draw
//! over a catalog of 16 pre-warmed sweeps whose bodies hold 1 to 128
//! scenarios (≈0.7–84 KB), so every one is a cache hit whose cost is the
//! HTTP parse, JSON decode, fingerprint and lookup. Every tenth request
//! is *cold*: a small 7-policy sweep with a fresh seed, which misses and
//! runs through single-flight, admission, the journaled sweep (fsync per
//! replication) and the cache insert. After the timed phase, one fresh
//! cold request per five sent goes out twice at the same instant, so one
//! copy joins the other as a single-flight follower.
//!
//! Latency is timed from each request's *due* time, so a stall that
//! delays later sends is charged to them. Two generator threads each keep
//! at most one request in flight.

use crate::common::{copy_dir, median, middle_mean, quantile, secs, supported_tail, Sheet, Tracer};
use crate::layers;
use crate::Size;
use dgsched_core::experiment::{
    canonical_sweep_bytes, run_matrix, run_matrix_journaled, sweep_fingerprint, RepGuard, Scenario,
    ScenarioResult, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::serve::protocol::read_http_request;
use dgsched_core::serve::{
    CacheLookup, ResultCache, ServeConfig, Server, ServerHandle, SweepRequest, SweepResponse,
};
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scenarios per catalog body, by popularity rank (rank 1 first). The
/// most popular body holds 16 scenarios and its class spans the median
/// (30–75 % of requests), so p50 is a decode-bound hit. The 128-scenario
/// body, the slowest class, sits at rank 8 (1.6 % of requests), so p99
/// falls inside that one class instead of on a class boundary.
const CATALOG: [usize; 16] = [16, 4, 24, 8, 12, 1, 32, 128, 2, 48, 6, 20, 3, 64, 10, 96];
/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 1.6;
/// Nominal offered load (requests per second): light enough that a
/// request rarely queues behind another on the two generator threads or
/// the host's two cores, so latency tracks service time.
const NOMINAL_RPS: f64 = 45.0;
/// Latency limit on the p99 of the saturation phase; capacity counts
/// only when it is met.
pub const LIMIT_MS: f64 = 500.0;
/// Replications per cold-sweep scenario (the rule's min = max).
const COLD_REPS: u64 = 3;

fn tiny_grid(het: bool) -> GridConfig {
    GridConfig {
        total_power: 100.0,
        heterogeneity: if het {
            Heterogeneity::HET
        } else {
            Heterogeneity::HOM
        },
        availability: Availability::HIGH,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    }
}

fn scenario(name: String, grid: GridConfig, bot: BotType, count: usize, p: PolicyKind) -> Scenario {
    Scenario {
        name,
        grid,
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: bot,
            intensity: Intensity::Low,
            count,
        }),
        policy: p,
        sim: SimConfig::default(),
    }
}

/// The catalog body at `rank` (0-based): `k` cheap scenarios whose
/// parameters derive from the workload seed.
fn hot_request(seed: u64, rank: usize, k: usize) -> SweepRequest {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ ((rank as u64 + 1) * 0x9E37_79B9));
    let scenarios = (0..k)
        .map(|i| {
            let g = 500.0 * f64::from(rng.gen_range(1u32..5));
            let p = PolicyKind::all_with_baselines()[i % 7];
            scenario(
                format!("hot r{rank} #{i} {p} g{g}"),
                tiny_grid(rng.gen_bool(0.5)),
                BotType {
                    granularity: g,
                    app_size: 8.0 * g,
                    jitter: 0.5,
                },
                4,
                p,
            )
        })
        .collect();
    SweepRequest {
        scenarios,
        base_seed: rng.gen(),
        rule: StoppingRule {
            min_replications: 2,
            max_replications: 2,
            ..StoppingRule::default()
        },
        tenant: Some(format!("hot-{rank}")),
    }
}

/// A cold request: all seven policies on a small low-availability
/// platform, with a fresh per-request seed.
pub fn cold_request(seed: u64, index: u64) -> SweepRequest {
    let grid = GridConfig {
        total_power: 300.0,
        heterogeneity: Heterogeneity::HET,
        availability: Availability::LOW,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    let bot = BotType {
        granularity: 2_000.0,
        app_size: 30_000.0,
        jitter: 0.5,
    };
    SweepRequest {
        scenarios: PolicyKind::all_with_baselines()
            .into_iter()
            .map(|p| scenario(format!("cold {p}"), grid, bot, 6, p))
            .collect(),
        base_seed: seed.wrapping_mul(1_000_003).wrapping_add(index),
        rule: StoppingRule {
            min_replications: COLD_REPS,
            max_replications: COLD_REPS,
            ..StoppingRule::default()
        },
        tenant: Some("cold".to_string()),
    }
}

/// The exact bytes the daemon must answer `req` with: the response of
/// an uncached `run_matrix`, serialised the way the service does.
fn expected_response(req: &SweepRequest) -> (Vec<u8>, Vec<ScenarioResult>) {
    let fingerprint =
        sweep_fingerprint(&req.scenarios, req.base_seed, &req.rule).expect("request fingerprints");
    let results = run_matrix(&req.scenarios, req.base_seed, &req.rule);
    let bytes = serde_json::to_vec(&SweepResponse {
        fingerprint,
        results: results.clone(),
    })
    .expect("response serialises");
    (bytes, results)
}

// ---------------------------------------------------------------- client

/// One request on a fresh connection (the daemon closes every one):
/// status, the `x-dgsched-cache` header and the `Content-Length`-framed
/// body. `TCP_NODELAY` sends the head and body writes at once.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let (mut len, mut cache) = (0usize, String::new());
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated head",
            ));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            match k.trim().to_ascii_lowercase().as_str() {
                "content-length" => len = v.trim().parse().unwrap_or(0),
                "x-dgsched-cache" => cache = v.trim().to_string(),
                _ => {}
            }
        }
    }
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok((status, cache, body))
}

fn get(addr: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let (status, _, body) = request(addr, "GET", path, b"")?;
    Ok((status, body))
}

/// The daemon's `/metrics` counters.
fn counters(addr: &str) -> BTreeMap<String, u64> {
    get(addr, "/metrics")
        .ok()
        .and_then(|(_, body)| serde_json::from_slice::<Snapshot>(&body).ok())
        .map(|s| s.counters)
        .unwrap_or_default()
}

/// The part of the `/metrics` snapshot the benchmark reads.
#[derive(serde::Deserialize)]
struct Snapshot {
    counters: BTreeMap<String, u64>,
}

// ------------------------------------------------------------- the daemon

/// A prepared cache directory: the catalog's bodies and the response
/// bytes the daemon stored for each.
pub struct Prepared {
    dir: std::path::PathBuf,
    bodies: Vec<Vec<u8>>,
    responses: Vec<Vec<u8>>,
    first: SweepRequest,
}

/// Builds the catalog and has a throw-away daemon compute every entry
/// into `dir`, so each measured daemon starts warm from a copy of it.
fn prepare(sheet: &mut Sheet, dir: &Path, seed: u64, sizes: &[usize]) -> io::Result<Prepared> {
    let reqs: Vec<SweepRequest> = sizes
        .iter()
        .enumerate()
        .map(|(rank, &k)| hot_request(seed, rank, k))
        .collect();
    let handle = bind(dir)?;
    let addr = handle.addr().to_string();
    let mut bodies = Vec::new();
    let mut responses = Vec::new();
    for req in &reqs {
        let body = serde_json::to_vec(req).expect("request serialises");
        let (status, cache, resp) = request(&addr, "POST", "/sweep", &body)?;
        sheet.check(status == 200 && cache == "miss", || {
            format!("catalog preparation: status {status} cache {cache}")
        });
        bodies.push(body);
        responses.push(resp);
    }
    handle.shutdown();
    Ok(Prepared {
        dir: dir.to_path_buf(),
        bodies,
        responses,
        first: reqs.into_iter().next().expect("catalog is not empty"),
    })
}

fn bind(dir: &Path) -> io::Result<ServerHandle> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir.to_path_buf()),
        slots: 1,
        width: Some(1),
        guard: RepGuard::default(),
    })?;
    Ok(server.spawn())
}

/// Binds a daemon on a fresh copy of the prepared cache and waits until
/// `/healthz` answers; returns the handle and the seconds that took.
fn bind_warm(prep: &Prepared, dir: &Path) -> io::Result<(ServerHandle, f64)> {
    copy_dir(&prep.dir, dir)?;
    let t0 = Instant::now();
    let handle = bind(dir)?;
    let addr = handle.addr().to_string();
    loop {
        if let Ok((200, _)) = get(&addr, "/healthz") {
            break;
        }
        if secs(t0) > 60.0 {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "healthz never answered",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((handle, secs(t0)))
}

// ----------------------------------------------------------- load generator

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot(usize),
    Cold(u64),
}

struct Item {
    due: f64,
    kind: Kind,
}

/// One answered (or failed) request.
struct Outcome {
    due: f64,
    sent: f64,
    done: f64,
    kind: Kind,
    status: u16,
    cache: String,
    /// Hot: whether the body matched the catalog entry byte for byte.
    hot_ok: bool,
    /// Cold: the body, checked after the timed phases.
    body: Vec<u8>,
}

impl Outcome {
    /// Latency from the due time; failures count as infinitely slow.
    fn latency_ms(&self) -> f64 {
        if self.status == 200 {
            (self.done - self.due) * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// `n` requests in [`WINDOWS`] consecutive blocks. In each block every
/// tenth request is cold and the rest are hot with each catalog rank's
/// exact Zipf share, in a seeded random order, so every window of a phase
/// carries the same mix. With `span`, a block's arrival times are a
/// Poisson process conditioned on its count (sorted uniforms over its
/// share of `span` seconds); without, every request is due at once (a
/// closed loop).
fn schedule(
    rng: &mut impl Rng,
    n: usize,
    span: Option<f64>,
    cold_base: &mut u64,
    share: &[f64],
) -> Vec<Item> {
    let mut items = Vec::with_capacity(n);
    for w in 0..WINDOWS {
        let m = n / WINDOWS + usize::from(w < n % WINDOWS);
        let n_hot = m - (m + 4) / 10;
        // Largest-remainder apportionment of the hot requests to ranks.
        let mut counts: Vec<usize> = share.iter().map(|p| (p * n_hot as f64) as usize).collect();
        let mut order: Vec<usize> = (0..share.len()).collect();
        order.sort_by(|&a, &b| {
            let frac = |r: usize| share[r] * n_hot as f64 - counts[r] as f64;
            frac(b).total_cmp(&frac(a))
        });
        let short = n_hot - counts.iter().sum::<usize>();
        for &r in order.iter().take(short) {
            counts[r] += 1;
        }
        let mut hot: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
            .collect();
        for i in (1..hot.len()).rev() {
            hot.swap(i, rng.gen_range(0..=i));
        }
        let mut due: Vec<f64> = match span {
            Some(span) => {
                let width = span / WINDOWS as f64;
                (0..m)
                    .map(|_| width * (w as f64 + rng.gen::<f64>()))
                    .collect()
            }
            None => vec![0.0; m],
        };
        due.sort_by(f64::total_cmp);
        let mut hot = hot.into_iter();
        items.extend(due.into_iter().enumerate().map(|(i, due)| {
            let kind = if i % 10 == 5 {
                *cold_base += 1;
                Kind::Cold(*cold_base)
            } else {
                Kind::Hot(hot.next().expect("one hot rank per hot slot"))
            };
            Item { due, kind }
        }));
    }
    items
}

struct Phase<'a> {
    addr: &'a str,
    prep: &'a Prepared,
    seed: u64,
    tracer: &'a Tracer,
    /// Requests in flight now, and the most ever in flight at once.
    inflight: AtomicUsize,
    peak: AtomicUsize,
}

impl<'a> Phase<'a> {
    fn new(addr: &'a str, prep: &'a Prepared, seed: u64, tracer: &'a Tracer) -> Self {
        Phase {
            addr,
            prep,
            seed,
            tracer,
            inflight: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }
}

impl Phase<'_> {
    /// Sends `items` on schedule from two threads, one request in flight
    /// per thread, and returns every outcome.
    fn run(&self, items: &[Item]) -> Vec<Outcome> {
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Vec::with_capacity(items.len()));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let wait = item.due - secs(t0);
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    let o = self.one(item.kind, item.due, i as u64 + 1, t0);
                    out.lock().expect("outcome lock poisoned").push(o);
                });
            }
        });
        out.into_inner().expect("outcome lock poisoned")
    }

    /// Sends one request and reads its answer; `due` is when it was due.
    fn one(&self, kind: Kind, due: f64, id: u64, t0: Instant) -> Outcome {
        let cold_body;
        let body = match kind {
            Kind::Hot(rank) => &self.prep.bodies[rank][..],
            Kind::Cold(index) => {
                cold_body = serde_json::to_vec(&cold_request(self.seed, index))
                    .expect("request serialises");
                &cold_body[..]
            }
        };
        let n = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(n, Ordering::Relaxed);
        let sent = secs(t0);
        let (r, _) = self.tracer.span("serve.request", 0, id, |_| {
            request(self.addr, "POST", "/sweep", body)
        });
        let done = secs(t0);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        let (status, cache, body) = r.unwrap_or((0, String::new(), Vec::new()));
        let hot_ok = matches!(kind, Kind::Hot(rank) if body == self.prep.responses[rank]);
        Outcome {
            due,
            sent,
            done,
            kind,
            status,
            cache,
            hot_ok,
            body: if matches!(kind, Kind::Cold(_)) {
                body
            } else {
                Vec::new()
            },
        }
    }

    /// Sends each of `indices`' cold requests twice at the same instant,
    /// one copy from each generator thread (released together by a
    /// barrier), so one copy leads the sweep and the other joins it as a
    /// single-flight follower. Latency is timed from the release.
    fn pairs(&self, indices: &[u64]) -> Vec<Outcome> {
        let barrier = std::sync::Barrier::new(2);
        let out = Mutex::new(Vec::with_capacity(2 * indices.len()));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for &index in indices {
                        barrier.wait();
                        let o = self.one(Kind::Cold(index), secs(t0), index, t0);
                        out.lock().expect("outcome lock poisoned").push(o);
                        barrier.wait();
                    }
                });
            }
        });
        out.into_inner().expect("outcome lock poisoned")
    }
}

/// Checks every outcome's bytes: hot ones were compared on arrival, cold
/// ones are compared here with an untimed `run_matrix` of the same
/// request. Returns the failed count, and the recomputed cold sweeps
/// (scenarios with their seed, results) with each recompute's wall time.
fn verify(sheet: &mut Sheet, seed: u64, outcomes: &[Outcome]) -> (u64, ColdSweeps) {
    let mut failed = 0;
    let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut cold = ColdSweeps::default();
    for o in outcomes {
        let ok = match o.kind {
            Kind::Hot(_) => o.status == 200 && o.hot_ok,
            Kind::Cold(index) => {
                let want = expected.entry(index).or_insert_with(|| {
                    let req = cold_request(seed, index);
                    let t0 = Instant::now();
                    let (bytes, res) = rayon::with_num_threads(2, || expected_response(&req));
                    cold.recompute_s.push(secs(t0));
                    cold.scenarios
                        .extend(req.scenarios.iter().cloned().map(|s| (s, req.base_seed)));
                    cold.results.extend(res);
                    bytes
                });
                o.status == 200 && o.body == *want
            }
        };
        if !ok {
            failed += 1;
        }
    }
    sheet.check(failed == 0, || {
        format!("serve: {failed} responses failed or differed from the expected bytes")
    });
    (failed, cold)
}

/// The cold sweeps a pass verified: each scenario with its seed, the
/// recomputed results, and each request's recompute wall time at width 2.
#[derive(Default)]
pub struct ColdSweeps {
    scenarios: Vec<(Scenario, u64)>,
    results: Vec<ScenarioResult>,
    recompute_s: Vec<f64>,
}

/// Windows a phase is cut into for its latency percentiles.
const WINDOWS: usize = 5;

/// Latency and backlog of one phase.
struct PhaseStats {
    /// Mean over [`WINDOWS`] consecutive windows (by due time) of each
    /// window's latency percentile, less the highest and lowest window: a
    /// stall of the shared host inside one window then does not set the
    /// phase's whole tail.
    p50_ms: f64,
    p99_ms: f64,
    /// The whole phase's highest percentile with ten samples beyond it.
    tail: (&'static str, f64),
    n: usize,
    wall_s: f64,
    drain_ms: f64,
}

fn phase_stats(outcomes: &[Outcome]) -> PhaseStats {
    let mut by_due: Vec<&Outcome> = outcomes.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let lat: Vec<f64> = by_due.iter().map(|o| o.latency_ms()).collect();
    let per_window = |q: f64| {
        let w: Vec<f64> = lat
            .chunks(lat.len().div_ceil(WINDOWS).max(1))
            .map(|c| quantile(c, q))
            .collect();
        middle_mean(&w)
    };
    let first_due = by_due.first().map_or(0.0, |o| o.due);
    let last_due = by_due.last().map_or(0.0, |o| o.due);
    let last_done = outcomes.iter().map(|o| o.done).fold(0.0, f64::max);
    PhaseStats {
        p50_ms: per_window(0.5),
        p99_ms: per_window(0.99),
        tail: supported_tail(&lat),
        n: lat.len(),
        wall_s: last_done - first_due,
        drain_ms: (last_done - last_due) * 1e3,
    }
}

/// Each catalog rank's Zipf share of hot requests.
fn catalog_share(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

fn sizes(size: Size) -> Vec<usize> {
    match size {
        Size::Full => CATALOG.to_vec(),
        Size::Tiny => vec![2, 1, 4],
    }
}

/// Expected `/metrics` deltas of phases, from what was sent: hits,
/// misses, single-flight waits and sweeps executed. Every cold index
/// runs one sweep; each copy beyond the first waited on it.
fn expected_counts(outcomes: &[Outcome]) -> (u64, u64, u64, u64) {
    let hot = outcomes
        .iter()
        .filter(|o| matches!(o.kind, Kind::Hot(_)))
        .count() as u64;
    let cold: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| match o.kind {
            Kind::Cold(i) => Some(i),
            Kind::Hot(_) => None,
        })
        .collect();
    let sweeps = cold.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
    let misses = cold.len() as u64;
    (hot, misses, misses - sweeps, sweeps)
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, key: &str) -> u64 {
    after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
}

/// Fresh cold indices for the single-flight pairs: one pair per five
/// cold requests sent so far, and at least one.
fn pair_indices(cold_base: &mut u64) -> Vec<u64> {
    (0..(*cold_base / 5).max(1))
        .map(|_| {
            *cold_base += 1;
            *cold_base
        })
        .collect()
}

/// Compares the daemon's `/metrics` deltas with what was sent. They
/// differ only if a single-flight follower missed its leader.
fn check_counts(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, sent: &[Outcome]) {
    let want = expected_counts(sent);
    let got = (
        delta(after, before, "serve_cache_hits"),
        delta(after, before, "serve_cache_misses"),
        delta(after, before, "serve_single_flight_waits"),
        delta(after, before, "serve_sweeps_executed"),
    );
    if got != want {
        eprintln!("serve: /metrics deltas {got:?} differ from the sent mix {want:?}");
    }
}

/// The end-to-end serve run: warm binds (set-up), the open-loop nominal
/// phase, the single-flight pairs, a closed-loop saturation phase for
/// capacity, then the byte-for-byte checks.
pub fn run(sheet: &mut Sheet, work: &Path, seed: u64, seconds: f64, size: Size) -> io::Result<()> {
    let tracer = Tracer::new(false);
    let prep = prepare(sheet, &work.join("prepared"), seed, &sizes(size))?;
    let mut setups = Vec::new();
    let mut handle = None;
    for i in 0..crate::sweep::SETUPS {
        let (h, dt) = bind_warm(&prep, &work.join(format!("cache{i}")))?;
        setups.push(dt);
        if let Some(old) = handle.replace(h) {
            ServerHandle::shutdown(old);
        }
    }
    let handle = handle.expect("at least one bind");
    let addr = handle.addr().to_string();
    let phase = Phase::new(&addr, &prep, seed, &tracer);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let share = catalog_share(prep.bodies.len());
    let mut cold_base = 0;

    let nominal_s = seconds * 0.8;
    let n = (NOMINAL_RPS * nominal_s) as usize;
    let items = schedule(&mut rng, n, Some(nominal_s), &mut cold_base, &share);
    let before = counters(&addr);
    let mut all = phase.run(&items);
    let nom = phase_stats(&all);
    let nominal_cold = all
        .iter()
        .filter(|o| matches!(o.kind, Kind::Cold(_)))
        .count() as u64;
    all.extend(phase.pairs(&pair_indices(&mut cold_base)));
    check_counts(&before, &counters(&addr), &all);

    // Capacity: the two threads send back to back (a closed loop), so the
    // generator cannot outrun the daemon and no backlog can form; the
    // throughput counts if its p99 service time meets the limit. At about
    // seven times the nominal rate the phase lasts about a third of the
    // nominal one.
    let n_sat = (2.0 * NOMINAL_RPS * seconds) as usize;
    let items = schedule(&mut rng, n_sat, None, &mut cold_base, &share);
    let saturated = phase.run(&items);
    handle.shutdown();
    let service: Vec<f64> = saturated.iter().map(|o| (o.done - o.sent) * 1e3).collect();
    let sat_p99 = quantile(&service, 0.99);
    // Throughput per window of consecutive completions (each window one
    // block of the schedule), averaged across windows less the fastest and
    // slowest, for the same reason as the latency windows.
    let mut done: Vec<f64> = saturated.iter().map(|o| o.done).collect();
    done.sort_by(f64::total_cmp);
    let per = done.len() / WINDOWS;
    let rates: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let start = if w == 0 { 0.0 } else { done[w * per - 1] };
            per as f64 / (done[(w + 1) * per - 1] - start)
        })
        .collect();
    let sat_rps = middle_mean(&rates);
    let capacity = if sat_p99 <= LIMIT_MS { sat_rps } else { 0.0 };

    all.extend(saturated);
    let (failed, _) = verify(sheet, seed, &all);
    sheet.attempted += all.len() as u64;
    sheet.failed += failed;
    eprintln!(
        "serve: nominal {} requests at {NOMINAL_RPS} req/s, p50 {:.2} ms, {} {:.2} ms, drain {:.1} ms; \
         saturation {n_sat} requests at {sat_rps:.1} req/s, p99 service {sat_p99:.1} ms",
        nom.n, nom.p50_ms, nom.tail.0, nom.tail.1, nom.drain_ms,
    );
    sheet.put("setup_s", median(&setups), "s");
    sheet.put("wall_s", nom.wall_s, "s");
    sheet.put(
        "reps_per_s",
        (nominal_cold * 7 * COLD_REPS) as f64 / nom.wall_s,
        "replications/s",
    );
    sheet.put("p50_ms", nom.p50_ms, "ms");
    sheet.put("p99_ms", nom.p99_ms, "ms");
    sheet.put("capacity_rps", capacity, "1/s");
    Ok(())
}

/// The traced serve pass: an untraced and a traced nominal phase of
/// equal length, then the single-flight pairs; the per-class latency
/// split, the `/metrics` counters, the generator's own lateness, and the
/// serve-path micro probes. Returns the cold sweeps it verified, for the
/// simulator-layer probes.
pub fn trace(
    sheet: &mut Sheet,
    tracer: &Tracer,
    work: &Path,
    seed: u64,
    seconds: f64,
    size: Size,
) -> io::Result<ServeTrace> {
    let prep = prepare(sheet, &work.join("prepared"), seed, &sizes(size))?;
    let (handle, _) = bind_warm(&prep, &work.join("cache"))?;
    let addr = handle.addr().to_string();
    let untraced = Tracer::new(false);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let share = catalog_share(prep.bodies.len());
    let mut cold_base = 0;
    let span = seconds * 0.5;
    let n = (NOMINAL_RPS * span) as usize;
    let items = schedule(&mut rng, n, Some(span), &mut cold_base, &share);
    let plain = Phase::new(&addr, &prep, seed, &untraced).run(&items);
    let items = schedule(&mut rng, n, Some(span), &mut cold_base, &share);
    let before = counters(&addr);
    let phase = Phase::new(&addr, &prep, seed, tracer);
    let traced = phase.run(&items);
    let paired = phase.pairs(&pair_indices(&mut cold_base));
    let after = counters(&addr);
    handle.shutdown();

    let by = |cache: &str| -> Vec<f64> {
        traced
            .iter()
            .chain(&paired)
            .filter(|o| o.cache == cache)
            .map(Outcome::latency_ms)
            .collect()
    };
    let (hit, miss, wait) = (by("hit"), by("miss"), by("wait"));
    sheet.put("serve.hit_p50_ms", quantile(&hit, 0.5), "ms");
    sheet.put("serve.hit_p99_ms", quantile(&hit, 0.99), "ms");
    sheet.put("serve.miss_p50_ms", quantile(&miss, 0.5), "ms");
    sheet.put("serve.miss_p99_ms", quantile(&miss, 0.99), "ms");
    sheet.put("serve.wait_p50_ms", quantile(&wait, 0.5), "ms");
    for (metric, key) in [
        ("serve.hits", "serve_cache_hits"),
        ("serve.misses", "serve_cache_misses"),
        ("serve.waits", "serve_single_flight_waits"),
        ("serve.sweeps_executed", "serve_sweeps_executed"),
    ] {
        sheet.put(metric, delta(&after, &before, key) as f64, "count");
    }
    let late: Vec<f64> = traced.iter().map(|o| (o.sent - o.due) * 1e3).collect();
    sheet.put("loadgen.late_p99_ms", quantile(&late, 0.99), "ms");
    sheet.put(
        "loadgen.sent",
        (traced.len() + paired.len()) as f64,
        "count",
    );
    sheet.put(
        "loadgen.conns",
        phase.peak.load(Ordering::Relaxed) as f64,
        "count",
    );
    let overhead = phase_stats(&traced).p50_ms / phase_stats(&plain).p50_ms;

    let mut all = plain;
    all.extend(traced);
    all.extend(paired);
    let (failed, cold) = verify(sheet, seed, &all);
    sheet.attempted += all.len() as u64;
    sheet.failed += failed;
    micro(sheet, &prep, &work.join("micro"))?;
    Ok(ServeTrace { cold, overhead })
}

/// What a traced serve pass hands on: the cold sweeps it verified and the
/// traced/untraced p50 ratio.
pub struct ServeTrace {
    cold: ColdSweeps,
    pub overhead: f64,
}

/// Median seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0)
        })
        .collect();
    median(&v)
}

/// Serve-path micro probes on the most popular catalog entry: HTTP
/// parse, fingerprint, cache lookup, and the cache warm-up.
fn micro(sheet: &mut Sheet, prep: &Prepared, dir: &Path) -> io::Result<()> {
    let body = &prep.bodies[0];
    let mut raw = format!(
        "POST /sweep HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    let n = 2_000;
    let parse = time_median(5, || {
        for _ in 0..n {
            let req = read_http_request(&mut io::Cursor::new(&raw)).expect("request parses");
            std::hint::black_box(req);
        }
    });
    sheet.put("serve.parse_us", parse * 1e6 / n as f64, "us");
    let req = &prep.first;
    let fp = time_median(5, || {
        for _ in 0..200 {
            let c = canonical_sweep_bytes(&req.scenarios, req.base_seed, &req.rule)
                .expect("canonical bytes");
            let f =
                sweep_fingerprint(&req.scenarios, req.base_seed, &req.rule).expect("fingerprint");
            std::hint::black_box((c, f));
        }
    });
    sheet.put("serve.fingerprint_us", fp * 1e6 / 200.0, "us");

    copy_dir(&prep.dir, dir)?;
    let mut cache = None;
    let warm = time_median(3, || {
        cache = Some(ResultCache::open(dir).expect("cache opens"))
    });
    sheet.put("serve.warmup_s", warm, "s");
    let cache = cache.expect("cache opened");
    let canonical =
        canonical_sweep_bytes(&req.scenarios, req.base_seed, &req.rule).expect("canonical bytes");
    let fingerprint =
        sweep_fingerprint(&req.scenarios, req.base_seed, &req.rule).expect("fingerprint");
    sheet.check(
        matches!(cache.lookup(&fingerprint, &canonical), CacheLookup::Hit(_)),
        || "serve: the warmed cache misses its own catalog entry".to_string(),
    );
    let lookup = time_median(5, || {
        for _ in 0..20_000 {
            std::hint::black_box(cache.lookup(&fingerprint, &canonical));
        }
    });
    sheet.put("serve.lookup_us", lookup * 1e6 / 20_000.0, "us");
    Ok(())
}

/// A `SweepRequest` body of at least `bytes` bytes, built from catalog
/// scenarios.
fn request_of_size(seed: u64, bytes: usize) -> Vec<u8> {
    let mut k = 1;
    loop {
        let body = serde_json::to_vec(&hot_request(seed, 99, k)).expect("request serialises");
        if body.len() >= bytes {
            return body;
        }
        k = (k * bytes / body.len()).max(k + 1);
    }
}

/// `codec`: `SweepRequest` decode throughput at three body sizes, its
/// log-log slope against size, and `SweepResponse` encode throughput.
pub fn codec(sheet: &mut Sheet, seed: u64, size: Size) {
    let targets: &[(usize, &str)] = match size {
        Size::Full => &[(8 << 10, "8k"), (32 << 10, "32k"), (128 << 10, "128k")],
        Size::Tiny => &[(2 << 10, "8k"), (4 << 10, "32k"), (8 << 10, "128k")],
    };
    let mut points = Vec::new();
    for &(target, label) in targets {
        let body = request_of_size(seed, target);
        let reps = if body.len() > 64 << 10 { 3 } else { 9 };
        let dt = time_median(reps, || {
            let r: SweepRequest = serde_json::from_slice(&body).expect("request decodes");
            std::hint::black_box(r);
        });
        sheet.put(
            format!("codec.decode_mb_s.{label}"),
            body.len() as f64 / dt / 1e6,
            "MB/s",
        );
        points.push(((body.len() as f64).ln(), dt.ln()));
    }
    let n = points.len() as f64;
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let slope = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
        / points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    sheet.put("codec.decode_slope", slope, "ratio");

    let req = hot_request(seed, 98, 16);
    let results = run_matrix(&req.scenarios, req.base_seed, &req.rule);
    let mut resp = SweepResponse {
        fingerprint: "0".repeat(32),
        results: Vec::new(),
    };
    let target = targets[2].0;
    while serde_json::to_vec(&resp)
        .expect("response serialises")
        .len()
        < target
    {
        resp.results.extend(results.iter().cloned());
    }
    let bytes = serde_json::to_vec(&resp)
        .expect("response serialises")
        .len();
    let dt = time_median(5, || {
        std::hint::black_box(serde_json::to_vec(&resp).expect("response serialises"));
    });
    sheet.put("codec.encode_mb_s.128k", bytes as f64 / dt / 1e6, "MB/s");
}

/// `journal`: the cold-request sweep plain, journaled (append + fsync
/// per replication) and resumed (every record replayed), at width 1.
pub fn journal(sheet: &mut Sheet, dir: &Path, seed: u64) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let req = cold_request(seed, u64::MAX / 2);
    let path = dir.join("probe.journal.jsonl");
    let (mut plain, mut journaled, mut resumed, mut records) = (vec![], vec![], vec![], 0);
    for _ in 0..5 {
        let _ = std::fs::remove_file(&path);
        rayon::with_num_threads(1, || -> io::Result<()> {
            let t0 = Instant::now();
            let a = run_matrix(&req.scenarios, req.base_seed, &req.rule);
            plain.push(secs(t0));
            let t0 = Instant::now();
            let b = run_matrix_journaled(
                &req.scenarios,
                req.base_seed,
                &req.rule,
                &path,
                false,
                RepGuard::default(),
            )?;
            journaled.push(secs(t0));
            let t0 = Instant::now();
            let c = run_matrix_journaled(
                &req.scenarios,
                req.base_seed,
                &req.rule,
                &path,
                true,
                RepGuard::default(),
            )?;
            resumed.push(secs(t0));
            records = b.stats.records_written;
            let want = serde_json::to_vec(&a).expect("results serialise");
            sheet.check(
                want == serde_json::to_vec(&b.results).expect("results serialise")
                    && want == serde_json::to_vec(&c.results).expect("results serialise"),
                || "journal: journaled or resumed sweep differs from the plain one".to_string(),
            );
            Ok(())
        })?;
    }
    let _ = std::fs::remove_file(&path);
    let per = |v: &[f64]| median(v) * 1e6 / records.max(1) as f64;
    sheet.put("journal.records", records as f64, "count");
    sheet.put("journal.append_us", per(&journaled) - per(&plain), "us");
    sheet.put("journal.replay_us", per(&resumed), "us");
    Ok(())
}

/// Simulator-layer probes on the cold sweeps a serve pass verified.
pub fn sim_probes(sheet: &mut Sheet, tracer: &Tracer, traced: &ServeTrace, seed: u64) {
    let cold = &traced.cold;
    // The first 20 cold sweeps carry the same mix as all of them.
    let sweeps = cold.recompute_s.len().min(20);
    let n = sweeps * 7;
    let l = layers::sim_layers(sheet, tracer, &cold.scenarios[..n], &cold.results[..n]);
    let wall: f64 = cold.recompute_s[..sweeps].iter().sum();
    sheet.put(
        "runner.pool_efficiency",
        l.rep_s / (wall * 2.0).max(1e-9),
        "ratio",
    );
    layers::des_hold_model(sheet, &l, seed);
    layers::policy_select(sheet, l.median_active_bags);
    let firsts: Vec<(Scenario, u64)> = cold.scenarios.iter().take(7).cloned().collect();
    layers::obs_capture(sheet, &firsts);
}
