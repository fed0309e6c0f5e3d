//! Integration tests for `dgsched serve`: the daemon is spawned as a
//! real child process (so pool width is controlled by `DGSCHED_THREADS`
//! in its environment, exactly as deployed) and exercised over its TCP
//! socket.
//!
//! The two properties under test are the service's whole story:
//!
//! 1. **Dedupe**: concurrent identical requests produce byte-identical
//!    responses from exactly one sweep execution (proven by the
//!    `serve_sweeps_executed` counter, not by timing).
//! 2. **Crash recovery**: a daemon SIGKILLed mid-sweep or mid-search
//!    loses at most the work in flight; a restarted daemon answers the
//!    re-issued request byte-identically to an uninterrupted run,
//!    resuming from the journal rather than starting over.
//!
//! Both properties must hold at pool width 1 and width 4 — the
//! determinism contract says width never changes bytes.

use dgsched_core::experiment::{OracleConfig, Scenario, WorkloadKind};
use dgsched_core::policy::PolicyKind;
use dgsched_core::serve::{http_request, OracleRequest, SweepRequest};
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dgsched")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgsched-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned daemon child; killed on drop so a failing assertion never
/// leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `dgsched serve` on an ephemeral port with the given pool
    /// width and cache directory, and parses the bound address from the
    /// machine-readable `listening` line on stdout.
    fn start(cache_dir: &Path, width: &str) -> Daemon {
        let mut child = Command::new(bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
                cache_dir.to_str().expect("utf-8 temp path"),
            ])
            .env("DGSCHED_THREADS", width)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dgsched serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let value: serde_json::Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("bad listening line {line:?}: {e}"));
        assert_eq!(value["event"], "listening");
        let addr = value["addr"].as_str().expect("addr string").to_string();
        Daemon { child, addr }
    }

    fn metrics(&self) -> serde_json::Value {
        let resp = http_request(&self.addr, "GET", "/metrics", &[], b"").expect("GET /metrics");
        assert_eq!(resp.status, 200);
        serde_json::from_slice(&resp.body).expect("metrics JSON")
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics()["counters"][name]
            .as_u64()
            .unwrap_or_else(|| panic!("counter {name} missing"))
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Consume self without running Drop twice.
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Six scenarios sized to take long enough (a second or two, even in
/// release builds) that a SIGKILL reliably lands mid-sweep and two
/// concurrent requests reliably overlap: more scenarios than any tested
/// pool width, so work always remains after the first scenario completes.
fn slow_scenarios() -> Vec<Scenario> {
    let scenario = |name: &str, granularity: f64, policy: PolicyKind| Scenario {
        name: name.to_string(),
        grid: GridConfig {
            total_power: 100.0,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::HIGH,
            checkpoint: Default::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity,
                app_size: 120_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Medium,
            count: 60,
        }),
        policy,
        sim: SimConfig::default(),
    };
    vec![
        scenario("it: g=1000 RR", 1_000.0, PolicyKind::Rr),
        scenario("it: g=1000 Share", 1_000.0, PolicyKind::FcfsShare),
        scenario("it: g=2000 RR", 2_000.0, PolicyKind::Rr),
        scenario("it: g=2000 LongIdle", 2_000.0, PolicyKind::LongIdle),
        scenario("it: g=4000 RR", 4_000.0, PolicyKind::Rr),
        scenario("it: g=4000 Share", 4_000.0, PolicyKind::FcfsShare),
    ]
}

fn slow_rule() -> StoppingRule {
    StoppingRule {
        min_replications: 3,
        max_replications: 3,
        ..StoppingRule::default()
    }
}

/// The slow sweep as a `POST /sweep` body.
fn slow_request() -> Vec<u8> {
    let request = SweepRequest {
        scenarios: slow_scenarios(),
        base_seed: 2008,
        rule: slow_rule(),
        tenant: None,
    };
    serde_json::to_vec(&request).expect("request serialises")
}

/// A `POST /oracle` body whose search outlasts its first journaled
/// restarts: two scenarios sharing one environment, searched over three
/// replications, so a SIGKILL after the first replication's restart
/// records still lands mid-search.
fn slow_oracle_request() -> Vec<u8> {
    let request = OracleRequest {
        scenarios: slow_scenarios().into_iter().take(2).collect(),
        base_seed: 2008,
        rule: slow_rule(),
        oracle: OracleConfig {
            restarts: 2,
            iters: 30,
            seed: 1,
            replications: 3,
        },
        tenant: None,
    };
    serde_json::to_vec(&request).expect("request serialises")
}

/// POSTs `body` to `target` and returns the response's status line and
/// its first body line as soon as they arrive, leaving the rest of a
/// streamed response unread.
fn first_streamed_line(addr: &str, target: &str, body: &[u8]) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n",
        body.len()
    )
    .and_then(|()| stream.write_all(body))
    .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("response head");
        if line.trim_end().is_empty() {
            break;
        }
    }
    line.clear();
    reader.read_line(&mut line).expect("first body line");
    (status, line)
}

/// True once a journal in `dir` holds its header and at least one
/// completed record.
fn journal_has_a_record(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|entry| {
        entry
            .file_name()
            .to_string_lossy()
            .ends_with(".journal.jsonl")
            && std::fs::read(entry.path())
                .map(|data| data.iter().filter(|&&b| b == b'\n').count() >= 2)
                .unwrap_or(false)
    })
}

/// Two concurrent identical requests: byte-identical responses, exactly
/// one sweep executed. The counters prove the second request was served
/// by the first's flight (or its freshly cached result), never by a
/// second computation.
fn concurrent_identical_requests_dedupe_at(width: &str) {
    let dir = tmp_dir(&format!("dedupe-w{width}"));
    let daemon = Daemon::start(&dir, width);
    let body = Arc::new(slow_request());
    let addr = daemon.addr.clone();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let body = body.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let resp = http_request(&addr, "POST", "/sweep", &[], &body).expect("POST /sweep");
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                resp.body
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    assert_eq!(
        bodies[0], bodies[1],
        "concurrent identical requests must serve identical bytes"
    );
    assert_eq!(
        daemon.counter("serve_sweeps_executed"),
        1,
        "two identical requests must execute exactly one sweep"
    );
    let hits = daemon.counter("serve_cache_hits");
    let waits = daemon.counter("serve_single_flight_waits");
    assert_eq!(
        hits + waits,
        1,
        "the duplicate must be served by the flight or the fresh cache \
         (hits {hits}, waits {waits})"
    );
    // A third request long after completion is a plain cache hit, still
    // the same bytes.
    let third = http_request(&daemon.addr, "POST", "/sweep", &[], &body).expect("third request");
    assert_eq!(third.status, 200);
    assert_eq!(third.body, bodies[0], "cache hit changed bytes");
    assert_eq!(daemon.counter("serve_sweeps_executed"), 1);
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_identical_requests_dedupe_width_1() {
    concurrent_identical_requests_dedupe_at("1");
}

#[test]
fn concurrent_identical_requests_dedupe_width_4() {
    concurrent_identical_requests_dedupe_at("4");
}

/// SIGKILL the daemon mid-computation; a restarted daemon on the same
/// cache directory must answer the re-issued request to `endpoint`
/// (`/sweep` or `/oracle`) byte-identically to an uninterrupted daemon's
/// answer, resuming from the journal (proven by the replay counters)
/// instead of recomputing from scratch.
fn kill_resume_is_byte_identical_at(width: &str, endpoint: &str) {
    let body = match endpoint {
        "/sweep" => slow_request(),
        _ => slow_oracle_request(),
    };

    // Reference: an uninterrupted daemon computes the canonical bytes.
    let ref_dir = tmp_dir(&format!("killref-w{width}{}", endpoint.replace('/', "-")));
    let reference = Daemon::start(&ref_dir, width);
    let expected =
        http_request(&reference.addr, "POST", endpoint, &[], &body).expect("reference request");
    assert_eq!(expected.status, 200);
    reference.kill();
    std::fs::remove_dir_all(&ref_dir).ok();

    let dir = tmp_dir(&format!("kill-w{width}{}", endpoint.replace('/', "-")));
    let victim = Daemon::start(&dir, width);
    if endpoint == "/sweep" {
        // Start the sweep in streaming mode and SIGKILL the daemon after
        // the first progress event — at least one scenario is journaled,
        // at least one is still in flight (6 scenarios > width).
        let (status, line) = first_streamed_line(&victim.addr, "/sweep?stream=1", &body);
        assert!(status.starts_with("HTTP/1.1 200 "), "status line: {status}");
        let event: serde_json::Value = serde_json::from_str(&line).expect("progress JSON");
        assert_eq!(event["event"], "progress", "unexpected first event: {line}");
        victim.kill();
    } else {
        // `/oracle` has no progress events: SIGKILL the daemon as soon as
        // its journal holds a completed restart, with the search still in
        // flight.
        let client = {
            let (addr, body) = (victim.addr.clone(), body.clone());
            std::thread::spawn(move || http_request(&addr, "POST", "/oracle", &[], &body))
        };
        while !journal_has_a_record(&dir) {
            assert!(
                !client.is_finished(),
                "request finished before its journal grew"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        victim.kill();
        let _ = client.join();
    }

    // Restart on the same state directory: the journal survived, the
    // response never completed.
    let restarted = Daemon::start(&dir, width);
    assert!(
        restarted.counter("serve_pending_journals") >= 1,
        "the killed computation's journal must be visible at startup"
    );
    let resumed =
        http_request(&restarted.addr, "POST", endpoint, &[], &body).expect("re-issued request");
    assert_eq!(resumed.status, 200);
    assert_eq!(
        resumed.body, expected.body,
        "resumed response must be byte-identical to an uninterrupted run"
    );
    assert!(
        restarted.counter("serve_journal_replayed") >= 1,
        "the resumed computation must replay journaled records"
    );
    assert!(
        restarted.counter("serve_journal_resumes") >= 1,
        "the journal must report a resume"
    );
    restarted.kill();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_resume_is_byte_identical_width_1() {
    kill_resume_is_byte_identical_at("1", "/sweep");
    kill_resume_is_byte_identical_at("1", "/oracle");
}

#[test]
fn kill_resume_is_byte_identical_width_4() {
    kill_resume_is_byte_identical_at("4", "/sweep");
    kill_resume_is_byte_identical_at("4", "/oracle");
}

/// The `--check` self-test exits 0 and reports the byte-identical hit;
/// this is what CI runs as its cheapest liveness probe.
#[test]
fn serve_check_self_test_passes() {
    let out = Command::new(bin())
        .args(["serve", "--check"])
        .output()
        .expect("run serve --check");
    assert!(
        out.status.success(),
        "serve --check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("byte-identical hit"), "{stdout}");
}

/// Usage errors in the serve subcommand follow the CLI convention:
/// unknown flags exit 2 with a pointer at the usage text.
#[test]
fn serve_rejects_unknown_flags() {
    let out = Command::new(bin())
        .args(["serve", "--frobnicate"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}
