//! Campaign supervisor: panic isolation, typed per-cell outcomes,
//! deterministic bounded retry, quarantine, and a crash-safe checkpoint
//! journal that makes sweeps resumable.
//!
//! A *campaign* is a grid of independent simulation cells (the
//! `scheme × seed` grids of [`crate::fct`], the fault grids of
//! [`crate::chaos`], the multi-seed sweeps of [`crate::observatory`]).
//! Before this module, one panicking or runaway cell aborted the whole
//! sweep and threw away every finished result. The [`Supervisor`] turns
//! that into graceful degradation:
//!
//! * every cell runs under [`crate::parallel::run_isolated`] — a panic
//!   becomes a typed [`CellOutcome::Panicked`] in that cell's slot;
//! * a cell returning a failed [`SimError`] verdict is classified as
//!   [`CellOutcome::BudgetExhausted`] (runtime budget guards: event
//!   ceiling, livelock detector) or [`CellOutcome::FailedVerdict`]
//!   (protocol-level failure, e.g. a PFC deadlock);
//! * panics are treated as *transient* (the sim itself is deterministic,
//!   but the environment is not: OOM-killed thread, fs hiccup during
//!   artifact IO) and retried under a deterministic bounded backoff;
//!   verdict failures are *persistent* — the simulation is deterministic,
//!   so rerunning them would reproduce the failure bit-for-bit and they
//!   are never retried;
//! * cells that still fail after retry land on the quarantine list of the
//!   [`CampaignReport`], which also renders the structured failure-report
//!   artifact;
//! * with a journal attached, every finished cell appends one flushed
//!   JSONL line keyed by its config hash; re-running the same campaign
//!   after a crash (or `SIGINT`/`SIGKILL`) reloads the journal and reuses
//!   completed cells, so the resumed campaign produces aggregates
//!   byte-identical to an uninterrupted run (`tests/supervisor.rs` proves
//!   this property under proptest, including across faulted seeds).
//!
//! Determinism: the supervisor never reorders results (they are collected
//! by input index, like [`crate::parallel::map_cells`]), never feeds
//! retry or cache state into a cell's inputs, and journal reuse replays
//! the exact encoded bytes of the first successful run — so caching,
//! retries and parallelism are all invisible in the output bytes.

use crate::parallel::{map_cells, run_isolated, ExecMode};
use rocc_sim::prelude::SimError;
use rocc_stats::json::{self, Obj, Raw};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How a supervised cell ended.
#[derive(Debug)]
pub enum CellOutcome<R> {
    /// The cell ran to completion (or was replayed from the journal) and
    /// produced a result.
    Ok(R),
    /// Every attempt panicked; the message is from the last attempt.
    Panicked {
        /// Panic message captured by the isolation layer.
        message: String,
    },
    /// The simulation returned a failed verdict for a protocol-level
    /// reason (deadlock, deadline, drained heap, invariant violation).
    /// Deterministic — never retried.
    FailedVerdict {
        /// The typed failure.
        error: SimError,
    },
    /// A runtime budget guard cut the cell off (event-count ceiling or
    /// livelock detector). Deterministic — never retried.
    BudgetExhausted {
        /// The typed failure ([`SimError::BudgetExhausted`] or
        /// [`SimError::Stalled`]).
        error: SimError,
    },
    /// The cell never ran: an earlier failure aborted a fail-fast
    /// campaign first.
    Skipped,
}

impl<R> CellOutcome<R> {
    /// True for [`CellOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// The outcome class as a stable lowercase tag (journal / report
    /// vocabulary).
    pub fn class(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Panicked { .. } => "panicked",
            CellOutcome::FailedVerdict { .. } => "failed_verdict",
            CellOutcome::BudgetExhausted { .. } => "budget_exhausted",
            CellOutcome::Skipped => "skipped",
        }
    }

    /// The failure detail as a JSON *value* (string for panics, the
    /// verdict object for sim failures); `None` for ok/skipped.
    pub fn detail_json(&self) -> Option<String> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { message } => Some(json::to_string(message)),
            CellOutcome::FailedVerdict { error } | CellOutcome::BudgetExhausted { error } => {
                Some(error.to_json())
            }
            CellOutcome::Skipped => Some(json::to_string("skipped by fail-fast")),
        }
    }
}

/// Deterministic bounded-retry policy for transient (panic) failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per cell, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base backoff in milliseconds; the wait before attempt `k + 1`
    /// doubles each time: `base << (k - 1)`, capped at
    /// [`RetryPolicy::MAX_BACKOFF_MS`].
    pub backoff_base_ms: u64,
}

impl RetryPolicy {
    /// Upper bound on any single backoff wait.
    pub const MAX_BACKOFF_MS: u64 = 2_000;

    /// One attempt, no retries.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
        }
    }

    /// Milliseconds to wait after failed attempt number `attempt`
    /// (1-based) before the next one.
    pub fn backoff_after_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(Self::MAX_BACKOFF_MS)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 25,
        }
    }
}

/// Encode/decode a cell result for the checkpoint journal. `encode` must
/// produce a single-line JSON value; `decode` must be strict — on any
/// anomaly (torn write, schema drift) it returns `None` and the cell is
/// simply re-run.
pub trait CellCodec<R> {
    /// Render the result as one JSON value without newlines.
    fn encode(&self, r: &R) -> String;
    /// Parse a previously encoded value; `None` rejects the cache entry.
    fn decode(&self, s: &str) -> Option<R>;
}

/// Codec for campaigns that never cache results (journal-less, or
/// failure bookkeeping only).
pub struct NoCache;

impl<R> CellCodec<R> for NoCache {
    fn encode(&self, _r: &R) -> String {
        "null".to_string()
    }
    fn decode(&self, _s: &str) -> Option<R> {
        None
    }
}

/// Codec built from an encode and a decode closure.
pub struct FnCodec<E, D>(pub E, pub D);

impl<R, E, D> CellCodec<R> for FnCodec<E, D>
where
    E: Fn(&R) -> String,
    D: Fn(&str) -> Option<R>,
{
    fn encode(&self, r: &R) -> String {
        (self.0)(r)
    }
    fn decode(&self, s: &str) -> Option<R> {
        (self.1)(s)
    }
}

/// One line of a checkpoint journal: a finished cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Cell key (config hash plus human-readable suffix).
    pub key: String,
    /// Outcome class tag (`"ok"`, `"panicked"`, …).
    pub outcome: String,
    /// Attempts the recorded run took.
    pub attempts: u32,
    /// Raw encoded result value (ok lines only).
    pub result_raw: Option<String>,
    /// Raw failure detail value (failure lines only).
    pub detail_raw: Option<String>,
}

// One journal line: key, outcome and attempts, then `result` on an ok
// line or `detail` on any other.
json::record!(JournalEntry {
    key,
    outcome,
    attempts,
    result_raw as result: Raw,
    detail_raw as detail: Raw,
});

impl JournalEntry {
    /// The entry as one newline-terminated JSONL line.
    pub fn to_line(&self) -> String {
        json::to_string(self) + "\n"
    }

    /// Strict parse of one line [`JournalEntry::to_line`] wrote: the whole
    /// line is one JSON object with exactly its members, in order, its
    /// last `result` if the outcome is `ok` and `detail` if not. A line
    /// torn by a crash mid-write is refused (no proper prefix of an object
    /// is JSON) and its cell re-runs, which is always safe.
    pub fn parse(line: &str) -> Option<JournalEntry> {
        let e: JournalEntry = json::from_str(line)?;
        let ok = e.outcome == "ok";
        (e.result_raw.is_some() == ok && e.detail_raw.is_some() != ok).then_some(e)
    }
}

/// Load a checkpoint journal, tolerating a missing file and a partial
/// trailing line (the crash case the journal exists for). Later entries
/// win on duplicate keys.
pub fn load_journal(path: &Path) -> Vec<JournalEntry> {
    let Ok(doc) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    doc.lines().filter_map(JournalEntry::parse).collect()
}

/// One supervised cell's record, in campaign input order.
#[derive(Debug)]
pub struct CellRecord<R> {
    /// The cell key (journal identity).
    pub key: String,
    /// How the cell ended.
    pub outcome: CellOutcome<R>,
    /// True if the result was replayed from the checkpoint journal
    /// instead of running.
    pub cached: bool,
    /// Attempts actually executed this campaign (0 for cached cells).
    pub attempts: u32,
}

/// The result of one supervised campaign.
#[derive(Debug)]
pub struct Campaign<R> {
    /// Per-cell records, in input order.
    pub records: Vec<CellRecord<R>>,
}

impl<R> Campaign<R> {
    /// True when every cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.outcome.is_ok())
    }

    /// Per-cell results in input order; failed cells are `None`.
    pub fn into_results(self) -> Vec<Option<R>> {
        self.records
            .into_iter()
            .map(|r| match r.outcome {
                CellOutcome::Ok(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    /// The result-type-erased campaign summary (counts, failures,
    /// quarantine) for reporting and exit-code decisions.
    pub fn report(&self) -> CampaignReport {
        let mut rep = CampaignReport {
            total: self.records.len(),
            ..CampaignReport::default()
        };
        for r in &self.records {
            match &r.outcome {
                CellOutcome::Ok(_) => {
                    rep.ok += 1;
                    if r.cached {
                        rep.cached += 1;
                    }
                }
                CellOutcome::Panicked { .. } => rep.panicked += 1,
                CellOutcome::FailedVerdict { .. } => rep.failed_verdict += 1,
                CellOutcome::BudgetExhausted { .. } => rep.budget_exhausted += 1,
                CellOutcome::Skipped => rep.skipped += 1,
            }
            if let Some(detail) = r.outcome.detail_json() {
                rep.failures.push(FailureEntry {
                    key: r.key.clone(),
                    class: r.outcome.class(),
                    attempts: r.attempts,
                    detail_json: detail,
                });
            }
        }
        rep
    }
}

/// One failed (or skipped) cell in the failure report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEntry {
    /// The cell key.
    pub key: String,
    /// Outcome class tag.
    pub class: &'static str,
    /// Attempts executed.
    pub attempts: u32,
    /// Failure detail as a raw JSON value.
    pub detail_json: String,
}

impl FailureEntry {
    fn put(&self, o: &mut Obj) {
        o.field("key", &self.key)
            .field("class", self.class)
            .field("attempts", &self.attempts)
            .raw("detail", &self.detail_json);
    }
}

/// Result-type-erased campaign summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Cells in the campaign.
    pub total: usize,
    /// Cells that produced a result (fresh or cached).
    pub ok: usize,
    /// Ok cells replayed from the journal.
    pub cached: usize,
    /// Cells whose every attempt panicked.
    pub panicked: usize,
    /// Cells with a protocol-level failed verdict.
    pub failed_verdict: usize,
    /// Cells cut off by a runtime budget guard.
    pub budget_exhausted: usize,
    /// Cells skipped by fail-fast.
    pub skipped: usize,
    /// Every non-ok cell, in input order.
    pub failures: Vec<FailureEntry>,
}

impl CampaignReport {
    /// True when every cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.ok == self.total
    }

    /// The structured failure-report artifact (one JSON object).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("schema", "rocc-campaign-report/v1")
                .field("total", &self.total)
                .field("ok", &self.ok)
                .field("cached", &self.cached)
                .field("panicked", &self.panicked)
                .field("failed_verdict", &self.failed_verdict)
                .field("budget_exhausted", &self.budget_exhausted)
                .field("skipped", &self.skipped)
                .objects("failures", &self.failures, |o, f| f.put(o));
        })
    }

    /// The quarantine artifact: cells that genuinely failed (skipped
    /// cells never ran, so they are not quarantined), as a JSON array.
    pub fn quarantine_json(&self) -> String {
        let mut out = String::new();
        let failed = self.failures.iter().filter(|f| f.class != "skipped");
        json::put_array(&mut out, failed, |out, f| json::put_object(out, |o| f.put(o)));
        out
    }
}

/// The campaign supervisor. Construct with [`Supervisor::new`], then
/// chain the builder methods, then [`Supervisor::run`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Execution mode for the cell grid.
    pub mode: ExecMode,
    /// Retry policy for transient (panic) failures.
    pub retry: RetryPolicy,
    /// Abort the campaign on the first failure: cells that have not
    /// started yet resolve to [`CellOutcome::Skipped`]. Strict in serial
    /// mode; best-effort under parallel execution (in-flight cells
    /// finish).
    pub fail_fast: bool,
    /// Checkpoint journal path. `None` disables caching and resume.
    pub journal: Option<PathBuf>,
}

impl Supervisor {
    /// A keep-going supervisor with the default retry policy and no
    /// journal.
    pub fn new(mode: ExecMode) -> Self {
        Supervisor {
            mode,
            retry: RetryPolicy::default(),
            fail_fast: false,
            journal: None,
        }
    }

    /// Attach a checkpoint journal (created on first use, appended on
    /// every completed cell, reloaded on the next run for resume).
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Set fail-fast (default: keep going).
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Run a campaign. `cells` pairs each cell's journal key with its
    /// payload; `run_fn` executes one cell (`Err` carries the failed sim
    /// verdict); `codec` encodes/decodes results for the journal.
    ///
    /// Results come back in input order. With a journal attached, cells
    /// whose key already has a decodable `ok` line are replayed from the
    /// journal without running, and a torn last line (no newline) is
    /// ended before anything is appended after it.
    pub fn run<T, R, F, C>(&self, cells: Vec<(String, T)>, codec: &C, run_fn: F) -> Campaign<R>
    where
        T: Send,
        R: Send,
        F: Fn(&T) -> Result<R, SimError> + Sync + Send,
        C: CellCodec<R> + Sync,
    {
        let mut cache: HashMap<String, String> = HashMap::new();
        if let Some(path) = &self.journal {
            for e in load_journal(path) {
                if e.outcome == "ok" {
                    if let Some(raw) = e.result_raw {
                        cache.insert(e.key, raw);
                    }
                } else {
                    // A newer failure line supersedes any earlier ok line
                    // for the same key (should not happen in practice —
                    // keys are deterministic — but last-wins is the rule).
                    cache.remove(&e.key);
                }
            }
        }
        let sink = self.journal.as_ref().and_then(|path| {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            let mut file = OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(path)
                .ok()?;
            // A killed writer leaves a torn last line with no newline: end
            // it, so the first line appended here is a line of its own.
            let mut last = [0u8];
            if file.seek(SeekFrom::End(-1)).is_ok()
                && file.read_exact(&mut last).is_ok()
                && last[0] != b'\n'
            {
                let _ = file.write_all(b"\n");
            }
            Some(Mutex::new(file))
        });
        let abort = AtomicBool::new(false);
        let tagged: Vec<(String, T, Option<String>)> = cells
            .into_iter()
            .map(|(key, payload)| {
                let hit = cache.get(&key).cloned();
                (key, payload, hit)
            })
            .collect();
        let records = map_cells(self.mode, tagged, |(key, payload, hit)| {
            if let Some(raw) = hit {
                if let Some(r) = codec.decode(&raw) {
                    return CellRecord {
                        key,
                        outcome: CellOutcome::Ok(r),
                        cached: true,
                        attempts: 0,
                    };
                }
            }
            if self.fail_fast && abort.load(Ordering::SeqCst) {
                return CellRecord {
                    key,
                    outcome: CellOutcome::Skipped,
                    cached: false,
                    attempts: 0,
                };
            }
            let mut attempts = 0u32;
            let outcome = loop {
                attempts += 1;
                match run_isolated(|| run_fn(&payload)) {
                    Ok(Ok(r)) => break CellOutcome::Ok(r),
                    Ok(Err(e)) if e.is_budget() => break CellOutcome::BudgetExhausted { error: e },
                    Ok(Err(e)) => break CellOutcome::FailedVerdict { error: e },
                    Err(p) => {
                        if attempts >= self.retry.max_attempts.max(1) {
                            break CellOutcome::Panicked { message: p.message };
                        }
                        let wait = self.retry.backoff_after_ms(attempts);
                        if wait > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(wait));
                        }
                    }
                }
            };
            if self.fail_fast && !outcome.is_ok() {
                abort.store(true, Ordering::SeqCst);
            }
            if let Some(sink) = &sink {
                let result_raw = match &outcome {
                    CellOutcome::Ok(r) => Some(codec.encode(r)),
                    _ => None,
                };
                let line = JournalEntry {
                    key: key.clone(),
                    outcome: outcome.class().to_string(),
                    attempts,
                    result_raw,
                    detail_raw: outcome.detail_json(),
                }
                .to_line();
                if let Ok(mut file) = sink.lock() {
                    let _ = file.write_all(line.as_bytes());
                    let _ = file.flush();
                }
            }
            CellRecord {
                key,
                outcome,
                cached: false,
                attempts,
            }
        });
        Campaign { records }
    }
}

/// Per-cell snapshot persistence for sub-cell crash recovery. One
/// [`rocc_sim::snapshot::SNAPSHOT_MAGIC`] file per cell key, always holding the *latest*
/// checkpoint (each save atomically replaces the previous one via a
/// tmp-file + rename). Loads are digest-verified by
/// [`rocc_sim::snapshot::inspect`]; any anomaly — torn write, bit rot,
/// wrong version — yields `None` and the cell simply restarts from
/// scratch. Snapshots are deleted when their cell completes, so the
/// store only ever holds in-flight cells.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore { dir: dir.into() }
    }

    /// The snapshot file for a cell key. Keys are FNV-hashed so arbitrary
    /// key strings (slashes, spaces) map to safe fixed-width file names.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.snap", rocc_stats::digest::fnv1a_64(key.as_bytes())))
    }

    /// Persist `bytes` as the cell's latest checkpoint. Atomic: the bytes
    /// land in a tmp file first and replace the old snapshot via rename,
    /// so a crash mid-save leaves the previous checkpoint intact.
    /// Best-effort — a full disk degrades to coarser recovery, never to a
    /// failed cell.
    pub fn save(&self, key: &str, bytes: &[u8]) {
        let path = self.path_for(key);
        let _ = std::fs::create_dir_all(&self.dir);
        let tmp = path.with_extension("snap.tmp");
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Load the cell's journaled checkpoint, digest-verified. `None` on
    /// any anomaly (missing, truncated, corrupt) — the caller falls back
    /// to a fresh cell run. Note this validates the *container*; a stale
    /// snapshot from a different config is caught by `Sim::restore`'s
    /// seed/config-digest check at restore time.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        rocc_sim::snapshot::inspect(&bytes).ok()?;
        Some(bytes)
    }

    /// Drop the cell's checkpoint (called when the cell completes).
    pub fn remove(&self, key: &str) {
        let _ = std::fs::remove_file(self.path_for(key));
    }
}

/// Snapshot plumbing handed to each cell by [`Supervisor::run_resumable`]:
/// the previous crash's checkpoint (if one was journaled and survives
/// digest verification) and an owned sink for
/// `Sim::enable_auto_checkpoint`.
pub struct CellSnapshot {
    /// Digest-verified snapshot bytes journaled by a previous run of this
    /// cell, or `None` to start fresh. Feed to `Sim::restore` on an
    /// identically rebuilt `Sim`; if restore errors (stale config, deeper
    /// corruption), discard that `Sim`, rebuild, and run from the start —
    /// a failed restore leaves the target partially overwritten.
    pub resume: Option<Vec<u8>>,
    store: SnapshotStore,
    key: String,
}

impl CellSnapshot {
    /// An owned checkpoint sink suitable for `Sim::enable_auto_checkpoint`:
    /// every fired checkpoint atomically replaces this cell's journaled
    /// snapshot.
    pub fn sink(&self) -> rocc_sim::prelude::CheckpointSink {
        let store = self.store.clone();
        let key = self.key.clone();
        Box::new(move |_events, bytes| store.save(&key, bytes))
    }
}

impl Supervisor {
    /// Like [`Supervisor::run`], with sub-cell crash recovery: each cell
    /// receives a [`CellSnapshot`] carrying the latest journaled
    /// checkpoint from a previous (crashed or killed) campaign plus a
    /// sink for new checkpoints. Completed cells have their snapshot
    /// deleted; corrupt or stale snapshots fall back to a fresh cell run
    /// (never quarantine). Panic retries reload the latest checkpoint, so
    /// even an attempt that dies mid-cell resumes from where it got to.
    pub fn run_resumable<T, R, F, C>(
        &self,
        store: &SnapshotStore,
        cells: Vec<(String, T)>,
        codec: &C,
        run_fn: F,
    ) -> Campaign<R>
    where
        T: Send,
        R: Send,
        F: Fn(&T, CellSnapshot) -> Result<R, SimError> + Sync + Send,
        C: CellCodec<R> + Sync,
    {
        let keyed: Vec<(String, (String, T))> = cells
            .into_iter()
            .map(|(k, t)| (k.clone(), (k, t)))
            .collect();
        self.run(keyed, codec, |(key, payload)| {
            let snap = CellSnapshot {
                resume: store.load(key),
                store: store.clone(),
                key: key.clone(),
            };
            let out = run_fn(payload, snap);
            if out.is_ok() {
                store.remove(key); // cell finished; its checkpoint is spent
            }
            out
        })
    }
}

/// A fresh per-process temp path for journals and sweep artifacts in
/// tests and CI helpers (no tempdir dependency; the caller removes it).
pub fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rocc-{}-{}-{}",
        tag,
        std::process::id(),
        n
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocc_sim::prelude::SimTime;
    use std::sync::atomic::AtomicUsize;

    fn ok_codec() -> FnCodec<impl Fn(&u64) -> String, impl Fn(&str) -> Option<u64>> {
        FnCodec(|r: &u64| format!("{r}"), |s: &str| s.trim().parse().ok())
    }

    #[test]
    fn journal_entry_roundtrip_and_torn_line_tolerance() {
        let ok = "{\"key\":\"abc/rep0\",\"outcome\":\"ok\",\"attempts\":1,\"result\":{\"x\":[1,2]}}";
        let e = JournalEntry::parse(ok).unwrap();
        assert_eq!(e.key, "abc/rep0");
        assert_eq!(e.outcome, "ok");
        assert_eq!(e.attempts, 1);
        assert_eq!(e.result_raw.as_deref(), Some("{\"x\":[1,2]}"));

        let failed =
            "{\"key\":\"abc/rep1\",\"outcome\":\"panicked\",\"attempts\":3,\"detail\":\"boom\"}";
        let e = JournalEntry::parse(failed).unwrap();
        assert_eq!(e.outcome, "panicked");
        assert_eq!(e.result_raw, None);

        // Torn writes: wherever a line is cut, no proper prefix parses.
        for line in [ok, failed] {
            for cut in 0..line.len() {
                assert_eq!(JournalEntry::parse(&line[..cut]), None, "cut at {cut}");
            }
        }
        assert_eq!(JournalEntry::parse(""), None);
        assert_eq!(JournalEntry::parse("garbage"), None);
    }

    /// A key JSON escapes journals and reads back: its cell replays from
    /// the cache on resume instead of re-running every time.
    #[test]
    fn escaped_keys_journal_and_replay() {
        let journal = scratch_path("supervisor-escaped-key");
        let key = "run \"7\" C:\\tmp\n";
        let runs = AtomicUsize::new(0);
        let run_fn = |&c: &u64| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(c + 1)
        };
        let sup = Supervisor::new(ExecMode::Serial).with_journal(&journal);
        let first = sup.run(vec![(key.to_string(), 41u64)], &ok_codec(), run_fn);
        assert_eq!(load_journal(&journal)[0].key, key);
        let second = sup.run(vec![(key.to_string(), 41u64)], &ok_codec(), run_fn);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the cell replayed");
        assert_eq!(second.report().cached, 1);
        assert_eq!(first.into_results(), second.into_results());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_base_ms: 10,
        };
        assert_eq!(p.backoff_after_ms(1), 10);
        assert_eq!(p.backoff_after_ms(2), 20);
        assert_eq!(p.backoff_after_ms(3), 40);
        assert_eq!(p.backoff_after_ms(30), RetryPolicy::MAX_BACKOFF_MS);
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
    }

    #[test]
    fn transient_panics_are_retried_persistent_verdicts_are_not() {
        let panic_calls = AtomicUsize::new(0);
        let verdict_calls = AtomicUsize::new(0);
        let sup = Supervisor::new(ExecMode::Serial).with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0,
        });
        let cells = vec![
            ("cell/panic".to_string(), 0u64),
            ("cell/verdict".to_string(), 1u64),
            ("cell/ok".to_string(), 2u64),
        ];
        let campaign = sup.run(cells, &NoCache, |&c| match c {
            0 => {
                panic_calls.fetch_add(1, Ordering::SeqCst);
                panic!("transient");
            }
            1 => {
                verdict_calls.fetch_add(1, Ordering::SeqCst);
                Err(SimError::Drained {
                    at: SimTime::from_millis(1),
                    incomplete_flows: 4,
                })
            }
            _ => Ok(c * 10),
        });
        assert_eq!(panic_calls.load(Ordering::SeqCst), 3, "3 attempts");
        assert_eq!(verdict_calls.load(Ordering::SeqCst), 1, "no retry");
        assert!(!campaign.all_ok());
        let rep = campaign.report();
        assert_eq!((rep.total, rep.ok, rep.panicked, rep.failed_verdict), (3, 1, 1, 1));
        assert_eq!(campaign.records[0].attempts, 3);
        assert_eq!(campaign.records[1].attempts, 1);
        assert!(campaign.records[2].outcome.is_ok());
        assert!(rep.to_json().contains("\"class\":\"panicked\""));
        assert!(rep.to_json().contains("\"verdict\":\"drained\""));
        assert!(rep.quarantine_json().contains("cell/verdict"));
    }

    #[test]
    fn fail_fast_skips_later_cells_in_serial_mode() {
        let sup = Supervisor::new(ExecMode::Serial)
            .with_retry(RetryPolicy::no_retry())
            .with_fail_fast(true);
        let cells: Vec<(String, u64)> =
            (0..4).map(|i| (format!("c{i}"), i)).collect();
        let campaign = sup.run(cells, &NoCache, |&c| {
            if c == 1 {
                panic!("die");
            }
            Ok(c)
        });
        assert!(campaign.records[0].outcome.is_ok());
        assert_eq!(campaign.records[1].outcome.class(), "panicked");
        assert_eq!(campaign.records[2].outcome.class(), "skipped");
        assert_eq!(campaign.records[3].outcome.class(), "skipped");
        let rep = campaign.report();
        assert_eq!(rep.skipped, 2);
        // Skipped cells never ran, so they are not quarantined.
        assert!(!rep.quarantine_json().contains("\"key\":\"c2\""));
    }

    #[test]
    fn journal_replays_completed_cells_byte_identically() {
        let journal = scratch_path("supervisor-journal");
        let runs = AtomicUsize::new(0);
        let run_fn = |&c: &u64| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(c * 3)
        };
        let cells = |n: u64| -> Vec<(String, u64)> {
            (0..n).map(|i| (format!("cell{i}"), i)).collect()
        };
        let sup = Supervisor::new(ExecMode::Serial).with_journal(&journal);

        let first = sup.run(cells(3), &ok_codec(), run_fn);
        assert!(first.all_ok());
        assert_eq!(runs.load(Ordering::SeqCst), 3);

        // Same campaign again: everything replays from the journal.
        let second = sup.run(cells(3), &ok_codec(), run_fn);
        assert_eq!(runs.load(Ordering::SeqCst), 3, "no cell re-ran");
        assert_eq!(second.report().cached, 3);
        assert_eq!(
            first.into_results(),
            second.into_results(),
            "cached results must be identical"
        );

        // A grown campaign runs only the new cells.
        let third = sup.run(cells(5), &ok_codec(), run_fn);
        assert_eq!(runs.load(Ordering::SeqCst), 5);
        assert_eq!(third.report().cached, 3);
        assert!(third.all_ok());

        // Torn trailing line (simulated crash mid-append): the damaged
        // cell re-runs, the rest stay cached.
        let doc = std::fs::read_to_string(&journal).unwrap();
        let cut = doc.len() - 7;
        std::fs::write(&journal, &doc[..cut]).unwrap();
        let fourth = sup.run(cells(5), &ok_codec(), run_fn);
        assert!(fourth.all_ok());
        assert_eq!(fourth.report().cached, 4);
        assert_eq!(runs.load(Ordering::SeqCst), 6);

        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn failed_cells_are_journaled_but_not_cached() {
        let journal = scratch_path("supervisor-failjournal");
        let sup = Supervisor::new(ExecMode::Serial)
            .with_retry(RetryPolicy::no_retry())
            .with_journal(&journal);
        let attempt = AtomicUsize::new(0);
        let run_fn = |&c: &u64| {
            if c == 0 && attempt.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first time only");
            }
            Ok(c + 100)
        };
        let cells = vec![("flaky".to_string(), 0u64), ("solid".to_string(), 1u64)];
        let first = sup.run(cells.clone(), &ok_codec(), run_fn);
        assert!(!first.all_ok());
        let doc = std::fs::read_to_string(&journal).unwrap();
        assert!(doc.contains("\"outcome\":\"panicked\""));
        // Resume: the failed cell re-runs (and now succeeds); the ok cell
        // replays from the journal.
        let second = sup.run(cells, &ok_codec(), run_fn);
        assert!(second.all_ok());
        assert_eq!(second.report().cached, 1);
        let _ = std::fs::remove_file(&journal);
    }
}
