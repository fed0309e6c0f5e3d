//! Crash-safe journals: one append-only JSONL store, two record kinds.
//!
//! A long matrix sweep is hours of compute whose only durable artifact,
//! until now, was the final JSON — a crash at replication 4 999 of 5 000
//! lost everything. [`JournalStore`] makes each completed unit of work
//! durable the moment it finishes, and both resumable computations use
//! it:
//!
//! * the **replication journal** of [`run_matrix_journaled`], one
//!   [`RepSummary`] per completed replication
//!   (`{"kind":"rep","scenario":…,"rep":…,"summary":…}`);
//! * the **restart journal** of
//!   [`run_matrix_regret_journaled`](super::run_matrix_regret_journaled),
//!   one completed oracle search restart per line
//!   (`{"kind":"restart","env":…,"rep":…,"outcome":…}`).
//!
//! The store owns the durability rules; each caller owns its line type,
//! its header value and the fold over the records it reads back:
//!
//! * line 1 is a **header** naming a schema version and a fingerprint of
//!   the computation — for sweeps, a 128-bit FNV-1a-style digest of the
//!   canonical JSON of `(scenarios, base_seed, rule)` plus the code and
//!   schema versions — so a journal can never be replayed against a
//!   different experiment;
//! * every following line is one record, appended and `fsync`ed before
//!   the result can influence anything downstream;
//! * only the **final** line may be damaged — that is the only line a
//!   crash mid-append can tear — and it is truncated away on open, its
//!   work simply re-run. Damage anywhere else means the file was edited
//!   or corrupted, and resuming from it would silently skew results, so
//!   it is an error naming the byte offset.
//!
//! ## Resume = replay through the same fold
//!
//! On `--resume`, the journaled records form, per scenario, a contiguous
//! prefix of replication summaries. [`run_matrix_journaled`] feeds that
//! prefix — and then freshly-computed replications — through the *same*
//! [`sweep`] loop the plain runner uses: batch sizes and the stopping
//! index are decided from the summaries alone, never from whether a
//! summary was replayed or recomputed. Because [`Welford`] state
//! round-trips bit-for-bit through the journal
//! (`crates/des/src/stats/welford.rs`), the final matrix JSON is
//! **byte-identical** whether the sweep ran straight through or was
//! killed and resumed any number of times, at any pool width
//! (`tests/journal_resume.rs` pins this).
//!
//! ## Failure state machine
//!
//! Each journaled replication moves through:
//!
//! ```text
//! run ──ok──────────────────────────▶ clean / saturated summary ─▶ journal
//!  │                                       ▲
//!  ├─panic─▶ retry (once) ──ok─────────────┘
//!  │             │
//!  │             └─panic─▶ failed-with-reason summary ──────────▶ journal
//!  └─over wall budget─▶ saturated summary ──────────────────────▶ journal
//! ```
//!
//! A failed replication is recorded, marks its scenario unusable (same
//! reporting path as saturation, plus `failed_replications` /
//! `failure_reasons` on the result), and the sweep **continues** with the
//! remaining scenarios — one poisoned cell no longer aborts the matrix.
//!
//! [`Welford`]: dgsched_des::stats::Welford

use super::runner::{
    finish_scenario, obs_enabled, run_replication_capped, sweep, ProgressSink, RepSummary,
    ScenarioResult,
};
use super::scenario::Scenario;
use crate::sim::RunResult;
use dgsched_des::stats::StoppingRule;
use dgsched_des::time::SimTime;
use dgsched_obs::{MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Journal schema version; folded into the fingerprint, so a journal
/// written by an incompatible schema refuses to resume. v2 widened the
/// fingerprint from 64 to 128 bits (see [`sweep_fingerprint`]).
const JOURNAL_VERSION: u32 = 2;

/// Per-replication resource guard for journaled sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepGuard {
    /// Clamp on the per-replication event budget (never raises the
    /// scenario's own `event_limit`). Deterministic: the clamp is part of
    /// the effective configuration, and a tripped budget takes the
    /// ordinary saturation path.
    pub max_events: Option<u64>,
    /// Wall-clock budget per replication, seconds. **Non-deterministic
    /// safety valve**, default off: a replication that finishes over
    /// budget is recorded as saturated, which machine speed can change.
    /// Leave `None` whenever reproducibility matters.
    pub wall_limit_s: Option<f64>,
}

/// What a journal did during one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalStats {
    /// Records appended (and fsynced) this run.
    pub records_written: u64,
    /// Records served from the journal instead of recomputed.
    pub records_replayed: u64,
    /// 1 when an existing journal was resumed, else 0.
    pub resumes: u64,
    /// Torn tail records truncated away on open.
    pub torn_tails: u64,
    /// Replication attempts that panicked (includes retried attempts).
    pub replication_panics: u64,
    /// Panicked replications that were retried.
    pub replication_retries: u64,
}

impl JournalStats {
    /// Renders the stats as an observability snapshot with the standard
    /// counter names (`journal_records`, `journal_resumes`,
    /// `replication_panics`, …), mergeable with the simulator's own
    /// metrics pipeline.
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for (name, value) in [
            ("journal_records", self.records_written),
            ("journal_replayed", self.records_replayed),
            ("journal_resumes", self.resumes),
            ("journal_torn_tails", self.torn_tails),
            ("replication_panics", self.replication_panics),
            ("replication_retries", self.replication_retries),
        ] {
            let id = reg.counter(name);
            reg.add(id, value);
        }
        reg.snapshot(SimTime::new(0.0))
    }
}

/// Result of a journaled sweep: the scenario results (identical to what
/// [`run_matrix`](super::run_matrix) would produce) plus journal
/// accounting.
#[derive(Debug, Clone)]
pub struct JournalOutcome {
    /// One result per scenario, in input order.
    pub results: Vec<ScenarioResult>,
    /// What the journal did.
    pub stats: JournalStats,
}

/// One FNV-1a-style stream: xor the byte in, multiply by an odd
/// constant. Parameterised over (offset basis, multiplier) so two
/// independently-seeded streams can be combined into a wide digest.
fn fnv1a64_stream(bytes: &[u8], basis: u64, prime: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(prime);
    }
    h
}

/// 128-bit content digest as 32 hex chars: two independent FNV-1a-style
/// streams (the standard FNV-1a 64 parameters, and a second stream with
/// a different basis and multiplier) over a length-prefixed copy of the
/// input. A single 64-bit FNV is fine for "did the config change?" but
/// too collision-weak to *address* a result cache with — birthday
/// collisions at ~2^32 keys, and FNV has known short-input weaknesses.
/// The length prefix removes extension ambiguity; the second stream
/// pushes accidental collision odds to ~2^-128 per pair.
pub(crate) fn digest128_hex(bytes: &[u8]) -> String {
    let mut prefixed = Vec::with_capacity(bytes.len() + 8);
    prefixed.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    prefixed.extend_from_slice(bytes);
    let lo = fnv1a64_stream(&prefixed, 0xcbf2_9ce4_8422_2325, 0x100_0000_01b3);
    let hi = fnv1a64_stream(&prefixed, 0x6c62_272e_07bb_0145, 0x9e37_79b9_7f4a_7c15);
    format!("{hi:016x}{lo:016x}")
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Canonical byte encoding of a sweep configuration: the `serde_json`
/// serialisation of the `(scenarios, base_seed, rule)` tuple. Both the
/// journal fingerprint and the sweep service's stored-request
/// verification are computed over exactly these bytes, so "same
/// fingerprint" and "same canonical bytes" can be cross-checked.
pub fn canonical_sweep_bytes(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
) -> io::Result<Vec<u8>> {
    serde_json::to_vec(&(scenarios, base_seed, rule))
        .map_err(|e| invalid(format!("sweep configuration does not serialise: {e}")))
}

/// 128-bit hex fingerprint of the sweep configuration. The fingerprint
/// is over the canonical serialised form plus the journal-schema and
/// crate versions, so anything that changes what the sweep would
/// compute — a scenario knob, the seed, the stopping rule, the schema —
/// changes the fingerprint. It is strong enough to key a
/// content-addressed cache, but cache consumers must still verify the
/// stored canonical bytes match before serving (see
/// [`serve`](crate::serve)).
pub fn sweep_fingerprint(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
) -> io::Result<String> {
    let cfg = canonical_sweep_bytes(scenarios, base_seed, rule)?;
    Ok(tagged_digest("", &cfg))
}

/// Digest of canonical bytes behind a key-space tag plus the
/// journal-schema and crate versions.
fn tagged_digest(tag: &str, cfg: &[u8]) -> String {
    let mut tagged = format!("{tag}v{JOURNAL_VERSION}|{}|", env!("CARGO_PKG_VERSION")).into_bytes();
    tagged.extend_from_slice(cfg);
    digest128_hex(&tagged)
}

/// Canonical byte encoding of an oracle computation: the `serde_json`
/// serialisation of the `(scenarios, base_seed, rule, oracle)` tuple —
/// the sweep configuration plus the search knobs, since both determine
/// the regret numbers.
pub fn canonical_oracle_bytes(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &super::regret::OracleConfig,
) -> io::Result<Vec<u8>> {
    serde_json::to_vec(&(scenarios, base_seed, (rule, ocfg)))
        .map_err(|e| invalid(format!("oracle configuration does not serialise: {e}")))
}

/// 128-bit hex fingerprint of an oracle computation, tagged distinctly
/// from sweep fingerprints so the two key spaces can never collide in a
/// shared cache. Keys the serve daemon's `/oracle` cache and the restart
/// journal's resume check.
pub fn oracle_fingerprint(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &super::regret::OracleConfig,
) -> io::Result<String> {
    let cfg = canonical_oracle_bytes(scenarios, base_seed, rule, ocfg)?;
    Ok(tagged_digest("oracle|", &cfg))
}

/// A line type of a [`JournalStore`]: one header line, then records.
pub(crate) trait JournalLine: Serialize + Deserialize {
    /// `(schema version, fingerprint)` when this line is a header, `None`
    /// when it is a record.
    fn header(&self) -> Option<(u32, &str)>;
}

/// Append-only JSONL store of completed work. A record exists for
/// downstream purposes only once `sync_data` returned, so a crash can
/// tear at most the final line — which [`open`](JournalStore::open)
/// truncates away.
pub(crate) struct JournalStore<L> {
    writer: Mutex<File>,
    /// First write error; sticky — later appends are skipped.
    write_error: Mutex<Option<io::Error>>,
    written: AtomicU64,
    replayed: AtomicU64,
    resumes: u64,
    torn_tails: u64,
    line: PhantomData<fn(&L)>,
}

/// Parses an existing journal: verifies the header against `expected`,
/// collects the record lines, and reports how many bytes of the file are
/// valid (anything past that is a torn tail).
fn parse_journal<L: JournalLine>(
    data: &[u8],
    (version, fingerprint): (u32, &str),
) -> io::Result<(Vec<L>, usize)> {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    while let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') {
        let line_end = offset + nl + 1;
        let first = offset == 0;
        let parsed = std::str::from_utf8(&data[offset..line_end - 1])
            .ok()
            .and_then(|text| serde_json::from_str::<L>(text).ok());
        let at_tail = line_end == data.len();
        match parsed.as_ref().map(|line| line.header()) {
            Some(Some((v, fp))) if first => {
                if v != version || fp != fingerprint {
                    return Err(invalid(format!(
                        "journal belongs to a different run (fingerprint {fp}, schema v{v}; \
                         this run is {fingerprint}, schema v{version}): refusing to resume"
                    )));
                }
            }
            Some(None) if !first => records.extend(parsed),
            _ if at_tail => break, // torn final line: drop it
            _ if first => {
                return Err(invalid(
                    "journal does not start with a valid header line".to_string(),
                ));
            }
            _ => {
                return Err(invalid(format!(
                    "journal is corrupt at byte {offset}: only the final record may be torn"
                )));
            }
        }
        valid_len = line_end;
        offset = line_end;
    }
    Ok((records, valid_len))
}

fn to_line<L: Serialize>(line: &L) -> io::Result<String> {
    let mut text = serde_json::to_string(line)
        .map_err(|e| invalid(format!("journal line does not serialise: {e}")))?;
    text.push('\n');
    Ok(text)
}

impl<L: JournalLine> JournalStore<L> {
    /// Opens (or creates) the journal at `path`, returning the store and
    /// the records of the intact prefix in file order.
    ///
    /// With `resume = false` any existing file is overwritten. With
    /// `resume = true` an existing journal must carry `header`'s version
    /// and fingerprint (mismatch is an error); its torn tail, if a crash
    /// left one, is truncated away and appends continue from there. A
    /// journal with no intact header — empty, missing, or torn inside
    /// the header itself — is a fresh start: `header` is written.
    pub(crate) fn open(path: &Path, header: &L, resume: bool) -> io::Result<(Self, Vec<L>)> {
        let expected = header
            .header()
            .expect("a journal is opened with a header line");
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let existing = if resume {
            match std::fs::read(path) {
                Ok(data) => data,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            }
        } else {
            Vec::new()
        };
        let (records, valid_len) = parse_journal(&existing, expected)?;
        // Cut the file to its intact prefix (nothing, when there is no
        // intact header) and append from there.
        let mut file = OpenOptions::new().append(true).create(true).open(path)?;
        file.set_len(valid_len as u64)?;
        if valid_len == 0 {
            file.write_all(to_line(header)?.as_bytes())?;
        }
        file.sync_data()?;
        let store = JournalStore {
            writer: Mutex::new(file),
            write_error: Mutex::new(None),
            written: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            resumes: u64::from(valid_len > 0),
            torn_tails: u64::from(valid_len < existing.len()),
            line: PhantomData,
        };
        Ok((store, records))
    }

    /// Appends one record and makes it durable. After the first failure
    /// every later append is skipped; [`finish`](Self::finish) reports it.
    pub(crate) fn append(&self, line: &L) {
        let mut err_slot = self.write_error.lock();
        if err_slot.is_some() {
            return;
        }
        let attempt = to_line(line).and_then(|text| {
            let mut file = self.writer.lock();
            file.write_all(text.as_bytes())?;
            file.sync_data()
        });
        match attempt {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => *err_slot = Some(e),
        }
    }

    /// Counts one record served from the journal instead of recomputed.
    pub(crate) fn note_replayed(&self) {
        self.replayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes the store: the first write error, or what it did.
    pub(crate) fn finish(self) -> io::Result<JournalStats> {
        if let Some(e) = self.write_error.into_inner() {
            return Err(e);
        }
        Ok(JournalStats {
            records_written: self.written.into_inner(),
            records_replayed: self.replayed.into_inner(),
            resumes: self.resumes,
            torn_tails: self.torn_tails,
            ..JournalStats::default()
        })
    }
}

/// One line of the replication journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum RepLine {
    /// First line: identifies the sweep this journal belongs to.
    Header {
        version: u32,
        /// Hex 128-bit digest over the canonical sweep configuration.
        fingerprint: String,
        code_version: String,
        base_seed: u64,
        scenarios: u64,
        rule: StoppingRule,
    },
    /// One completed replication.
    Rep {
        scenario: String,
        rep: u64,
        summary: RepSummary,
    },
}

impl JournalLine for RepLine {
    fn header(&self) -> Option<(u32, &str)> {
        match self {
            RepLine::Header {
                version,
                fingerprint,
                ..
            } => Some((*version, fingerprint)),
            RepLine::Rep { .. } => None,
        }
    }
}

/// Folds journaled replications into per-scenario replay prefixes.
/// Contiguous prefix only: replication r is replayable iff every
/// replication before it is journaled too, because the sweep absorbs in
/// index order.
fn replay_prefixes(records: Vec<RepLine>) -> BTreeMap<String, Vec<RepSummary>> {
    let mut by_scenario: BTreeMap<String, BTreeMap<u64, RepSummary>> = BTreeMap::new();
    for line in records {
        if let RepLine::Rep {
            scenario,
            rep,
            summary,
        } = line
        {
            by_scenario
                .entry(scenario)
                .or_default()
                .insert(rep, summary);
        }
    }
    by_scenario
        .into_iter()
        .map(|(name, reps)| {
            let prefix = reps
                .into_iter()
                .enumerate()
                .take_while(|(i, (rep, _))| *rep == *i as u64)
                .map(|(_, (_, summary))| summary)
                .collect();
            (name, prefix)
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// Per-sweep context shared by every scenario of a journaled matrix:
/// everything [`journaled_scenario`] needs besides the scenario
/// itself and its journaled prefix.
struct SweepCtx<'a> {
    base_seed: u64,
    rule: &'a StoppingRule,
    obs: bool,
    guard: RepGuard,
    store: &'a JournalStore<RepLine>,
    panics: AtomicU64,
    retries: AtomicU64,
}

/// Runs one replication inside the isolation wrapper: panics are caught
/// on the worker (the pool never sees them), retried once, then recorded
/// as a failed-with-reason summary; a wall-budget overrun is recorded as
/// saturation.
fn run_rep_isolated<R>(
    scenario: &Scenario,
    rep: u64,
    ctx: &SweepCtx<'_>,
    rep_runner: &R,
) -> RepSummary
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    let mut retried = false;
    loop {
        // dgsched-analyze: allow(wall-clock) -- RepGuard's wall-clock limit is an explicit safety valve; a tripped limit serializes as `saturated`, the same value the event budget produces deterministically
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            RepSummary::of(&rep_runner(scenario, ctx.base_seed, rep))
        })) {
            Ok(summary) => {
                if let Some(limit) = ctx.guard.wall_limit_s {
                    if start.elapsed().as_secs_f64() > limit {
                        return RepSummary {
                            saturated: true,
                            ..Default::default()
                        };
                    }
                }
                return summary;
            }
            Err(payload) => {
                ctx.panics.fetch_add(1, Ordering::Relaxed);
                let reason = panic_message(payload.as_ref()).to_string();
                if !retried {
                    retried = true;
                    ctx.retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                return RepSummary::failure(format!(
                    "replication {rep} panicked twice; last payload: {reason}"
                ));
            }
        }
    }
}

fn journaled_scenario<R>(
    scenario: &Scenario,
    prefix: &[RepSummary],
    ctx: &SweepCtx<'_>,
    rep_runner: &R,
) -> ScenarioResult
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    let (acc, replications) = sweep(ctx.rule, |range| {
        let start = range.start;
        let summaries: Vec<(RepSummary, bool)> = range
            .into_par_iter()
            .map(|rep| match prefix.get(rep as usize) {
                Some(summary) => {
                    ctx.store.note_replayed();
                    (summary.clone(), true)
                }
                None => (run_rep_isolated(scenario, rep, ctx, rep_runner), false),
            })
            .collect();
        // Journal fresh summaries in replication order before absorbing:
        // by the time a summary can influence a published number, a
        // durable record of it exists.
        for (i, (summary, from_journal)) in summaries.iter().enumerate() {
            if !from_journal {
                ctx.store.append(&RepLine::Rep {
                    scenario: scenario.name.clone(),
                    rep: start + i as u64,
                    summary: summary.clone(),
                });
            }
        }
        summaries.into_iter().map(|(s, _)| s).collect()
    });
    finish_scenario(
        scenario,
        ctx.base_seed,
        ctx.rule,
        acc,
        replications,
        ctx.obs,
    )
}

/// [`run_matrix`](super::run_matrix) with a crash-safe journal at `path`.
///
/// With `resume = false` any existing journal at `path` is overwritten.
/// With `resume = true` an existing journal is verified against this
/// sweep's fingerprint (mismatch is an error), its torn tail — if a crash
/// left one — is truncated away, and every journaled replication is
/// replayed instead of recomputed; the remainder runs and is appended.
/// The results are byte-identical to a straight-through
/// [`run_matrix`](super::run_matrix) of the same sweep.
pub fn run_matrix_journaled(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    path: &Path,
    resume: bool,
    guard: RepGuard,
) -> io::Result<JournalOutcome> {
    run_matrix_journaled_with_progress(
        scenarios,
        base_seed,
        rule,
        path,
        resume,
        guard,
        |_, _, _| {},
    )
}

/// [`run_matrix_journaled`] reporting scenario completions through
/// `progress` (called with `(done, total, name)`, `done` strictly
/// increasing, reporting never blocking the sweep — the same contract as
/// [`run_matrix_with_progress`](super::run_matrix_with_progress)). The
/// sweep service streams these events to its clients.
pub fn run_matrix_journaled_with_progress<F>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    path: &Path,
    resume: bool,
    guard: RepGuard,
    progress: F,
) -> io::Result<JournalOutcome>
where
    F: Fn(usize, usize, &str) + Send + Sync,
{
    run_matrix_journaled_core(
        scenarios,
        base_seed,
        rule,
        path,
        resume,
        guard,
        &move |s: &Scenario, seed: u64, rep: u64| {
            run_replication_capped(s, seed, rep, guard.max_events)
        },
        &progress,
    )
}

/// [`run_matrix_journaled`] with the replication runner injected — the
/// seam the fault-injection tests use. Not part of the stable API.
#[doc(hidden)]
pub fn run_matrix_journaled_with<R>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    path: &Path,
    resume: bool,
    guard: RepGuard,
    rep_runner: R,
) -> io::Result<JournalOutcome>
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    run_matrix_journaled_core(
        scenarios,
        base_seed,
        rule,
        path,
        resume,
        guard,
        &rep_runner,
        &|_, _, _| {},
    )
}

#[allow(clippy::too_many_arguments)]
fn run_matrix_journaled_core<R>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    path: &Path,
    resume: bool,
    guard: RepGuard,
    rep_runner: &R,
    progress: &(dyn Fn(usize, usize, &str) + Send + Sync),
) -> io::Result<JournalOutcome>
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "scenario names must be unique: the journal keys records by name",
        ));
    }
    let header = RepLine::Header {
        version: JOURNAL_VERSION,
        fingerprint: sweep_fingerprint(scenarios, base_seed, rule)?,
        code_version: env!("CARGO_PKG_VERSION").to_string(),
        base_seed,
        scenarios: scenarios.len() as u64,
        rule: *rule,
    };
    let (store, records) = JournalStore::open(path, &header, resume)?;
    let prefixes = replay_prefixes(records);
    let ctx = SweepCtx {
        base_seed,
        rule,
        obs: obs_enabled(),
        guard,
        store: &store,
        panics: AtomicU64::new(0),
        retries: AtomicU64::new(0),
    };
    let sink = ProgressSink::new(scenarios.len(), progress);
    let results: Vec<ScenarioResult> = scenarios
        .par_iter()
        .map(|scenario| {
            let prefix = prefixes
                .get(&scenario.name)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let r = journaled_scenario(scenario, prefix, &ctx, rep_runner);
            sink.complete(&scenario.name);
            r
        })
        .collect();
    let (panics, retries) = (ctx.panics.into_inner(), ctx.retries.into_inner());
    let stats = JournalStats {
        replication_panics: panics,
        replication_retries: retries,
        ..store.finish()?
    };
    Ok(JournalOutcome { results, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::regret::OracleLine;
    use crate::experiment::runner::run_matrix;
    use crate::experiment::scenario::WorkloadKind;
    use crate::policy::PolicyKind;
    use dgsched_grid::{Availability, GridConfig, Heterogeneity};
    use dgsched_workload::{BotType, Intensity, WorkloadSpec};

    fn scenario(name: &str, policy: PolicyKind) -> Scenario {
        Scenario {
            name: name.into(),
            grid: GridConfig {
                total_power: 100.0,
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: Default::default(),
                outages: None,
            },
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType {
                    granularity: 1_000.0,
                    app_size: 20_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Low,
                count: 6,
            }),
            policy,
            sim: crate::sim::SimConfig::default(),
        }
    }

    fn rule() -> StoppingRule {
        StoppingRule {
            min_replications: 3,
            max_replications: 5,
            ..Default::default()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dgsched-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn journaled_matches_plain_run_matrix() {
        let scenarios = vec![scenario("a", PolicyKind::Rr)];
        let path = tmp("plain");
        let out = run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default())
            .unwrap();
        let plain = run_matrix(&scenarios, 11, &rule());
        assert_eq!(
            serde_json::to_string(&out.results).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "journaling must not perturb results"
        );
        assert_eq!(out.stats.records_written, plain[0].replications);
        assert_eq!(out.stats.resumes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_replays_instead_of_recomputing() {
        let scenarios = vec![scenario("a", PolicyKind::Rr)];
        let path = tmp("resume");
        let first =
            run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default())
                .unwrap();
        let second =
            run_matrix_journaled(&scenarios, 11, &rule(), &path, true, RepGuard::default())
                .unwrap();
        assert_eq!(
            serde_json::to_string(&first.results).unwrap(),
            serde_json::to_string(&second.results).unwrap()
        );
        assert_eq!(second.stats.resumes, 1);
        assert_eq!(second.stats.records_written, 0, "everything replayed");
        assert_eq!(second.stats.records_replayed, first.stats.records_written);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_resume() {
        let scenarios = vec![scenario("a", PolicyKind::Rr)];
        let path = tmp("fingerprint");
        run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default()).unwrap();
        let err = run_matrix_journaled(&scenarios, 12, &rule(), &path, true, RepGuard::default())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let scenarios = vec![scenario("a", PolicyKind::Rr), scenario("a", PolicyKind::Rr)];
        let path = tmp("dup");
        let err = run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_budget_guard_trips_saturation() {
        let scenarios = vec![scenario("a", PolicyKind::Rr)];
        let path = tmp("guard");
        let guard = RepGuard {
            max_events: Some(10),
            wall_limit_s: None,
        };
        let out = run_matrix_journaled(&scenarios, 11, &rule(), &path, false, guard).unwrap();
        assert!(out.results[0].saturated, "10 events cannot drain 6 bags");
        assert!(out.results[0].saturated_replications > 0);
        assert_eq!(out.results[0].failed_replications, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_render_as_obs_counters() {
        let stats = JournalStats {
            records_written: 7,
            records_replayed: 3,
            resumes: 1,
            torn_tails: 1,
            replication_panics: 2,
            replication_retries: 1,
        };
        let snap = stats.to_metrics();
        assert_eq!(snap.counters["journal_records"], 7);
        assert_eq!(snap.counters["journal_replayed"], 3);
        assert_eq!(snap.counters["journal_resumes"], 1);
        assert_eq!(snap.counters["journal_torn_tails"], 1);
        assert_eq!(snap.counters["replication_panics"], 2);
        assert_eq!(snap.counters["replication_retries"], 1);
    }

    #[test]
    fn torn_header_means_fresh_start_is_required() {
        let path = tmp("torn-header");
        std::fs::write(&path, "{\"kind\":\"head").unwrap();
        let scenarios = vec![scenario("a", PolicyKind::Rr)];
        // The torn line is the only line, so it is dropped and the file
        // treated as empty — but an empty resume cannot verify a header,
        // so the journal is rewritten from scratch.
        let out = run_matrix_journaled(&scenarios, 11, &rule(), &path, true, RepGuard::default())
            .unwrap();
        assert_eq!(out.stats.records_replayed, 0);
        assert!(out.stats.records_written > 0);
        std::fs::remove_file(&path).ok();
    }

    /// What opening a damaged journal with `resume = true` must do.
    #[derive(Debug)]
    enum Expect {
        /// Fresh start: the file is rewritten to just the header.
        Fresh { torn_tails: u64 },
        /// Resume: `records` come back and the file is cut to `keep` bytes.
        Resumed {
            records: usize,
            torn_tails: u64,
            keep: usize,
        },
        /// Refusal naming `needle`; the file is left untouched.
        Refused { needle: String },
    }

    /// The store's open-time rules for one line type. `header` is this
    /// run's header, `foreign` another run's, `record` any record.
    fn check_store_rules<L: JournalLine>(tag: &str, header: &L, foreign: &L, record: &L) {
        let h = to_line(header).unwrap().into_bytes();
        let r = to_line(record).unwrap().into_bytes();
        let cat = |parts: &[&[u8]]| parts.concat();
        let deep = cat(&[&vec![b'['; 10_000], b"\n"]);
        let cases: Vec<(&str, Vec<u8>, Expect)> = vec![
            ("empty file", Vec::new(), Expect::Fresh { torn_tails: 0 }),
            (
                "header only",
                h.clone(),
                Expect::Resumed {
                    records: 0,
                    torn_tails: 0,
                    keep: h.len(),
                },
            ),
            (
                "torn header",
                h[..h.len() / 2].to_vec(),
                Expect::Fresh { torn_tails: 1 },
            ),
            (
                "torn final record",
                cat(&[&h, &r, &r[..r.len() / 2]]),
                Expect::Resumed {
                    records: 1,
                    torn_tails: 1,
                    keep: h.len() + r.len(),
                },
            ),
            (
                "corrupt middle line",
                cat(&[&h, b"{\"kind\":\"garbage\n", &r]),
                Expect::Refused {
                    needle: format!("corrupt at byte {}", h.len()),
                },
            ),
            (
                "header of another run",
                cat(&[&to_line(foreign).unwrap().into_bytes(), &r]),
                Expect::Refused {
                    needle: "fingerprint".to_string(),
                },
            ),
            (
                "non-UTF-8 middle line",
                cat(&[&h, &[0xff, 0xfe, b'\n'], &r]),
                Expect::Refused {
                    needle: format!("corrupt at byte {}", h.len()),
                },
            ),
            (
                "non-UTF-8 final line",
                cat(&[&h, &r, &[0xc3, 0x28, b'\n']]),
                Expect::Resumed {
                    records: 1,
                    torn_tails: 1,
                    keep: h.len() + r.len(),
                },
            ),
            (
                "10k-deep [ line",
                cat(&[&h, &deep, &r]),
                Expect::Refused {
                    needle: format!("corrupt at byte {}", h.len()),
                },
            ),
        ];
        let path = tmp(&format!("store-rules-{tag}"));
        for (name, bytes, expect) in cases {
            std::fs::write(&path, &bytes).unwrap();
            let opened = JournalStore::open(&path, header, true);
            let on_disk = std::fs::read(&path).unwrap();
            match (opened, &expect) {
                (Ok((store, records)), Expect::Fresh { torn_tails }) => {
                    assert!(records.is_empty(), "{tag}/{name}");
                    assert_eq!(on_disk, h, "{tag}/{name}: header rewritten");
                    let stats = store.finish().unwrap();
                    assert_eq!(
                        (stats.resumes, stats.torn_tails),
                        (0, *torn_tails),
                        "{tag}/{name}"
                    );
                }
                (
                    Ok((store, got)),
                    Expect::Resumed {
                        records,
                        torn_tails,
                        keep,
                    },
                ) => {
                    assert_eq!(got.len(), *records, "{tag}/{name}");
                    assert!(got.iter().all(|l| l.header().is_none()), "{tag}/{name}");
                    assert_eq!(on_disk, bytes[..*keep], "{tag}/{name}: torn tail cut");
                    let stats = store.finish().unwrap();
                    assert_eq!(
                        (stats.resumes, stats.torn_tails),
                        (1, *torn_tails),
                        "{tag}/{name}"
                    );
                }
                (Err(e), Expect::Refused { needle }) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{tag}/{name}");
                    assert!(e.to_string().contains(needle.as_str()), "{tag}/{name}: {e}");
                    assert_eq!(on_disk, bytes, "{tag}/{name}: refused file untouched");
                }
                (Ok(_), _) => panic!("{tag}/{name}: opened, expected {expect:?}"),
                (Err(e), _) => panic!("{tag}/{name}: {e}, expected {expect:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    fn rep_lines() -> (RepLine, RepLine, RepLine) {
        let header = |fingerprint: &str| RepLine::Header {
            version: JOURNAL_VERSION,
            fingerprint: fingerprint.to_string(),
            code_version: env!("CARGO_PKG_VERSION").to_string(),
            base_seed: 11,
            scenarios: 1,
            rule: rule(),
        };
        let record = RepLine::Rep {
            scenario: "a".to_string(),
            rep: 0,
            summary: RepSummary::default(),
        };
        (header("00aa"), header("00bb"), record)
    }

    fn oracle_lines() -> (OracleLine, OracleLine, OracleLine) {
        let header = |fingerprint: &str| OracleLine::Header {
            version: 1,
            fingerprint: fingerprint.to_string(),
            code_version: env!("CARGO_PKG_VERSION").to_string(),
        };
        let record = OracleLine::Restart {
            env: "e".to_string(),
            rep: 0,
            outcome: dgsched_oracle::RestartOutcome {
                restart: 0,
                cost: 1.5,
                perm: vec![1, 0, 2],
                evaluations: 3,
            },
        };
        (header("00aa"), header("00bb"), record)
    }

    #[test]
    fn store_open_rules_hold_for_both_record_kinds() {
        let (header, foreign, record) = rep_lines();
        check_store_rules("rep", &header, &foreign, &record);
        let (header, foreign, record) = oracle_lines();
        check_store_rules("restart", &header, &foreign, &record);
    }

    /// Opens `data` as a journal and checks the outcome is well-formed:
    /// either a refusal, or a file that is the header or an intact,
    /// newline-terminated prefix of `data`.
    fn open_edited<L: JournalLine>(path: &Path, header: &L, data: &[u8]) -> Result<(), String> {
        std::fs::write(path, data).unwrap();
        let h = to_line(header).unwrap().into_bytes();
        match JournalStore::open(path, header, true) {
            Ok((store, _)) => {
                let on_disk = std::fs::read(path).unwrap();
                let stats = store.finish().unwrap();
                let prefix = data.starts_with(&on_disk) && on_disk.ends_with(b"\n");
                if stats.resumes == 1 && !prefix {
                    return Err(format!("resumed file is not a prefix: {on_disk:?}"));
                }
                if stats.resumes == 0 && on_disk != h {
                    return Err(format!("fresh file is not the header: {on_disk:?}"));
                }
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
            Err(e) => Err(format!("unexpected I/O error: {e}")),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn byte_edits_and_truncations_never_panic(
            edits in proptest::collection::vec((0usize..4096, 0u8..=255), 0..6),
            cut in 0usize..4096,
            oracle in 0u8..2,
        ) {
            let edit = |mut data: Vec<u8>| {
                for &(at, byte) in &edits {
                    let len = data.len();
                    data[at % len] = byte;
                }
                data.truncate(cut % (data.len() + 1));
                data
            };
            let path = tmp("store-fuzz");
            let outcome = if oracle == 1 {
                let (header, _, record) = oracle_lines();
                let data = [&header, &record, &record, &record].map(|l| to_line(l).unwrap()).concat();
                open_edited(&path, &header, &edit(data.into_bytes()))
            } else {
                let (header, _, record) = rep_lines();
                let data = [&header, &record, &record, &record].map(|l| to_line(l).unwrap()).concat();
                open_edited(&path, &header, &edit(data.into_bytes()))
            };
            std::fs::remove_file(&path).ok();
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
