//! Shared pieces of the benchmark: the metric sheet printed at the end
//! of a run, order statistics, the in-memory span recorder, digests and
//! the run's scratch directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Metrics of one run, printed as the last line of standard output.
#[derive(Default)]
pub struct Sheet {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations the run attempted (replications, requests, restarts).
    pub attempted: u64,
    /// Operations that failed or returned wrong bytes.
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub errors: Vec<String>,
}

impl Sheet {
    /// Records one metric; a later value under the same name replaces it.
    /// A value that is not finite (a failed request's latency, or a
    /// statistic of no samples) fails the run: it has no faithful reading.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("metric {name} is {value}"));
        }
        self.metrics.insert(name, (value, unit));
    }

    /// Records a correctness-gate failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("CORRECTNESS: {msg}");
        self.errors.push(msg);
    }

    /// Checks `cond`, recording `msg` when it does not hold.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.fail(msg());
        }
    }

    /// Counts every operation of the run as failed when any correctness
    /// gate failed: a run with wrong output has no trustworthy part.
    pub fn settle(&mut self) {
        if !self.errors.is_empty() {
            self.failed = self.attempted.max(1);
        }
    }

    /// True when every correctness gate passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// A human-readable table of the metrics, for standard error.
    pub fn summary(&self) -> String {
        self.metrics
            .iter()
            .map(|(n, (v, u))| format!("  {n:<36} {v:>16.6} {u}\n"))
            .collect()
    }
}

/// Nearest-rank quantile of unsorted samples (`q` in [0, 1]); NaN when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean of unsorted samples without their lowest and highest (the plain
/// mean below three samples); NaN when there are none. Unlike the median
/// it moves smoothly with the share of a run the host spent slow, and
/// unlike the mean one stalled sample cannot set it.
pub fn middle_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() >= 3 {
        v.pop();
        v.remove(0);
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The highest of p99/p90/p50 that still has at least ten samples beyond
/// it, as `(label, value)`, so a tail figure is never read off a handful
/// of points.
pub fn supported_tail(samples: &[f64]) -> (&'static str, f64) {
    let n = samples.len();
    for (label, q) in [("p99", 0.99), ("p90", 0.90)] {
        if (n as f64) * (1.0 - q) >= 10.0 {
            return (label, quantile(samples, q));
        }
    }
    ("p50", quantile(samples, 0.5))
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a digest, printed as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One recorded span: a named interval, the span that caused it and the
/// request it belongs to (0 when it belongs to none).
struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: String,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder for the traced run. Spans are only recorded
/// in this benchmark's code, around calls into the program's public API;
/// they are written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds. With tracing off nothing is recorded.
    pub fn span<R>(
        &self,
        name: &str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        if !self.enabled {
            let r = f(0);
            return (r, secs(t0));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let r = f(id);
        let end = Instant::now();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: (t0 - self.origin).as_nanos(),
            end_ns: (end - self.origin).as_nanos(),
        });
        (r, (end - t0).as_secs_f64())
    }

    /// Writes the recorded spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// The run's scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let path = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_work` itself only when other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Copies every regular file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
