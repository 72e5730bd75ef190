//! The machine-readable results layer.
//!
//! Every artifact run writes two things through [`ResultsDir`]:
//!
//! * `results/<artifact>.json` — the artifact's data (points, rows,
//!   summary figures), round-trip-validated through the [`crate::json`]
//!   parser before it lands on disk;
//! * `results/manifest.json` — an append-only record of runs: artifact
//!   name, git revision, wall-clock seconds, point count, worker count,
//!   quick/full profile, and the parameters the artifact reports.
//!
//! The manifest is the stable interface future PRs use to track bench
//! trajectories (e.g. comparing `metro run fig3 --jobs 1` against
//! `--jobs 8` wall-clocks across commits).

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Manifest schema version written into `manifest.json`.
pub const MANIFEST_SCHEMA: u64 = 1;
/// Oldest runs are dropped once the manifest exceeds this many records.
pub const MANIFEST_CAP: usize = 256;

/// A typed error from the results layer: which path failed and why,
/// instead of a bare `io::Error` silently tied to the working
/// directory.
#[derive(Debug)]
pub enum ResultsError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file that should contain JSON did not parse (or a freshly
    /// rendered document failed its round-trip validation — a harness
    /// bug).
    Parse {
        /// The path involved.
        path: PathBuf,
        /// Parser diagnostic.
        detail: String,
    },
}

impl std::fmt::Display for ResultsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResultsError::Io { path, source } => {
                write!(f, "results i/o error at {}: {source}", path.display())
            }
            ResultsError::Parse { path, detail } => {
                write!(f, "invalid JSON at {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for ResultsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResultsError::Io { source, .. } => Some(source),
            ResultsError::Parse { .. } => None,
        }
    }
}

/// One run's manifest record.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Artifact name (registry key).
    pub artifact: String,
    /// `git describe --always --dirty` at run time.
    pub git: String,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time: u64,
    /// Wall-clock seconds the artifact took.
    pub wall_seconds: f64,
    /// Number of sweep/model points the artifact produced.
    pub points: usize,
    /// Worker threads used by the point executor.
    pub jobs: usize,
    /// Whether the quick profile ran.
    pub quick: bool,
    /// Artifact-reported parameters (a JSON object).
    pub params: Json,
    /// Canonical hash of the run's declarative scenario (hex, e.g.
    /// `"0x1a2b…"`), when the artifact emitted one. Together with
    /// `results/<artifact>.scenario.json` this makes the run
    /// reproducible from its manifest entry alone.
    pub scenario_hash: Option<String>,
    /// Canonical hash of the run's telemetry snapshot sidecar
    /// (`results/<artifact>.telemetry.json`), when one was exported.
    pub telemetry_hash: Option<String>,
    /// Present when the run was quarantined by the supervisor instead
    /// of completing: how it failed (panic payload or error).
    pub failure: Option<crate::supervisor::PointFailure>,
}

impl RunRecord {
    /// A record of `artifact` finishing now, at this checkout's
    /// revision, after `wall_seconds`: no points, one worker, the full
    /// profile, empty params, no hashes, no failure — a writer then
    /// sets the fields its run adds.
    #[must_use]
    pub fn new(artifact: &str, wall_seconds: f64) -> Self {
        RunRecord {
            artifact: artifact.to_string(),
            git: git_describe(),
            unix_time: unix_time_now(),
            wall_seconds,
            points: 0,
            jobs: 1,
            quick: false,
            params: Json::obj::<&str>([]),
            scenario_hash: None,
            telemetry_hash: None,
            failure: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("artifact", Json::from(self.artifact.as_str())),
            ("git", Json::from(self.git.as_str())),
            ("unix_time", Json::from(self.unix_time)),
            ("wall_seconds", Json::from(self.wall_seconds)),
            ("points", Json::from(self.points)),
            ("jobs", Json::from(self.jobs)),
            ("quick", Json::from(self.quick)),
            ("params", self.params.clone()),
        ]);
        if let Some(hash) = &self.scenario_hash {
            doc.set("scenario_hash", Json::from(hash.as_str()));
        }
        if let Some(hash) = &self.telemetry_hash {
            doc.set("telemetry_hash", Json::from(hash.as_str()));
        }
        if let Some(failure) = &self.failure {
            doc.set("failure", failure.to_json());
        }
        doc
    }
}

/// A directory receiving artifact results and the run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsDir {
    root: PathBuf,
}

impl ResultsDir {
    /// A results directory at an explicit root (created on first
    /// write). Tests point this at a temporary directory.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The standard `results/` directory relative to the working
    /// directory — the layout every artifact in the repository uses.
    #[must_use]
    pub fn standard() -> Self {
        Self::new("results")
    }

    /// The root path.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn ensure_root(&self) -> Result<(), ResultsError> {
        std::fs::create_dir_all(&self.root).map_err(|source| ResultsError::Io {
            path: self.root.clone(),
            source,
        })
    }

    /// Replaces `path` atomically: the contents land in a hidden
    /// same-directory temp file, are fsynced, and are renamed over the
    /// target. A crash (power loss, `kill -9`, panic) at any point
    /// leaves either the complete old file or the complete new file —
    /// never a truncated or interleaved one. Stale temp files from an
    /// earlier interrupted write of the same target are swept first.
    fn write_atomic(&self, path: &Path, contents: &str) -> Result<(), ResultsError> {
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let io = |p: &Path, source| ResultsError::Io {
            path: p.to_path_buf(),
            source,
        };
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| {
                io(
                    path,
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "unnamed results file"),
                )
            })?
            .to_string();
        // Recovery from an earlier interrupted write: orphaned temps
        // for this target are garbage by construction (the rename
        // never happened), so clear them out.
        let stale_prefix = format!(".{name}.tmp-");
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(&stale_prefix))
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let tmp = path.with_file_name(format!(
            "{stale_prefix}{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut file = std::fs::File::create(&tmp).map_err(|e| io(&tmp, e))?;
            file.write_all(contents.as_bytes())
                .map_err(|e| io(&tmp, e))?;
            // Flush to stable storage before the rename publishes the
            // file: otherwise a crash could expose an empty rename
            // target.
            file.sync_all().map_err(|e| io(&tmp, e))?;
            drop(file);
            std::fs::rename(&tmp, path).map_err(|e| io(path, e))
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Writes `<stem>.json`, round-trip-validating the rendered
    /// document first. Creates the directory if missing. The write is
    /// atomic (temp file + fsync + rename): an interrupted run never
    /// leaves a truncated document behind.
    ///
    /// # Errors
    ///
    /// Returns [`ResultsError::Parse`] if the rendered document does
    /// not survive a parse round-trip, or [`ResultsError::Io`] on
    /// filesystem failure.
    pub fn write_json(&self, stem: &str, doc: &Json) -> Result<PathBuf, ResultsError> {
        self.ensure_root()?;
        let path = self.root.join(format!("{stem}.json"));
        let text = doc.render();
        let reparsed = Json::parse(&text).map_err(|e| ResultsError::Parse {
            path: path.clone(),
            detail: e.to_string(),
        })?;
        if &reparsed != doc {
            return Err(ResultsError::Parse {
                path,
                detail: "document did not survive a write/parse round-trip".to_string(),
            });
        }
        self.write_atomic(&path, &text)?;
        Ok(path)
    }

    /// Writes a plain-text artifact (CSV, DOT, …) under the results
    /// root, creating the directory if missing. Atomic, like
    /// [`ResultsDir::write_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ResultsError::Io`] on filesystem failure.
    pub fn write_text(&self, file_name: &str, contents: &str) -> Result<PathBuf, ResultsError> {
        self.ensure_root()?;
        let path = self.root.join(file_name);
        self.write_atomic(&path, contents)?;
        Ok(path)
    }

    /// Reads and parses `manifest.json`, or returns an empty manifest
    /// if the file does not exist yet.
    ///
    /// # Errors
    ///
    /// Returns [`ResultsError::Parse`] if an existing manifest is not
    /// valid JSON, or [`ResultsError::Io`] on filesystem failure.
    pub fn read_manifest(&self) -> Result<Json, ResultsError> {
        let path = self.root.join("manifest.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Json::obj([
                    ("schema", Json::from(MANIFEST_SCHEMA)),
                    ("runs", Json::arr([])),
                ]));
            }
            Err(source) => return Err(ResultsError::Io { path, source }),
        };
        Json::parse(&text).map_err(|e| ResultsError::Parse {
            path,
            detail: e.to_string(),
        })
    }

    /// Appends one run record to `manifest.json` (read-modify-write),
    /// keeping the most recent [`MANIFEST_CAP`] records.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultsError`] from reading or writing the
    /// manifest.
    pub fn append_manifest(&self, record: &RunRecord) -> Result<PathBuf, ResultsError> {
        let mut manifest = self.read_manifest()?;
        if manifest.get("runs").and_then(Json::as_arr).is_none() {
            manifest = Json::obj([
                ("schema", Json::from(MANIFEST_SCHEMA)),
                ("runs", Json::arr([])),
            ]);
        }
        manifest.set("schema", Json::from(MANIFEST_SCHEMA));
        let runs = manifest
            .get("runs")
            .and_then(Json::as_arr)
            .expect("ensured above")
            .to_vec();
        let mut runs = runs;
        runs.push(record.to_json());
        if runs.len() > MANIFEST_CAP {
            let excess = runs.len() - MANIFEST_CAP;
            runs.drain(..excess);
        }
        manifest.set("runs", Json::Arr(runs));
        self.write_json("manifest", &manifest)
    }
}

/// The repository revision, via `git describe --always --dirty`;
/// `"unknown"` when git is unavailable (e.g. a source tarball).
#[must_use]
pub fn git_describe() -> String {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Seconds since the Unix epoch (0 if the clock is before the epoch).
#[must_use]
pub fn unix_time_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> ResultsDir {
        let dir =
            std::env::temp_dir().join(format!("metro-harness-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultsDir::new(dir)
    }

    fn record(artifact: &str) -> RunRecord {
        RunRecord {
            artifact: artifact.to_string(),
            git: "abc1234".to_string(),
            unix_time: 1_754_000_000,
            wall_seconds: 1.25,
            points: 16,
            jobs: 2,
            quick: true,
            params: Json::obj([("load", Json::from(0.3))]),
            scenario_hash: None,
            telemetry_hash: None,
            failure: None,
        }
    }

    #[test]
    fn a_quarantined_run_records_its_typed_failure() {
        let dir = tmp("failure");
        let mut rec = record("chaos");
        rec.points = 0;
        rec.failure = Some(crate::supervisor::PointFailure {
            kind: crate::supervisor::FailureKind::Panic,
            detail: "index out of bounds".to_string(),
        });
        dir.append_manifest(&rec).unwrap();
        let manifest = dir.read_manifest().unwrap();
        let failure = manifest.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("failure")
            .cloned()
            .expect("failure object recorded");
        assert_eq!(failure.get("kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(
            failure.get("detail").and_then(Json::as_str),
            Some("index out of bounds")
        );
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn scenario_hash_lands_in_the_manifest_record() {
        let dir = tmp("scenario-hash");
        let mut rec = record("fig3");
        rec.scenario_hash = Some("0x00c0ffee00c0ffee".to_string());
        dir.append_manifest(&rec).unwrap();
        let manifest = dir.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("scenario_hash").and_then(Json::as_str),
            Some("0x00c0ffee00c0ffee")
        );
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn telemetry_hash_lands_in_the_manifest_record() {
        let dir = tmp("telemetry-hash");
        let mut rec = record("fig3");
        rec.telemetry_hash = Some("0x0123456789abcdef".to_string());
        dir.append_manifest(&rec).unwrap();
        let manifest = dir.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("telemetry_hash").and_then(Json::as_str),
            Some("0x0123456789abcdef")
        );
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn write_json_creates_directory_and_round_trips() {
        let dir = tmp("write");
        let doc = Json::obj([("x", Json::from(1u64))]);
        let path = dir.write_json("sample", &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn manifest_appends_and_caps() {
        let dir = tmp("manifest");
        for k in 0..3 {
            dir.append_manifest(&record(&format!("art{k}"))).unwrap();
        }
        let manifest = dir.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[2].get("artifact").and_then(Json::as_str), Some("art2"));
        assert_eq!(
            manifest.get("schema").and_then(Json::as_f64),
            Some(MANIFEST_SCHEMA as f64)
        );
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn missing_manifest_reads_as_empty() {
        let dir = tmp("empty");
        let manifest = dir.read_manifest().unwrap();
        assert_eq!(
            manifest
                .get("runs")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn corrupt_manifest_is_a_typed_parse_error() {
        let dir = tmp("corrupt");
        dir.write_text("manifest.json", "{not json").unwrap();
        match dir.read_manifest() {
            Err(ResultsError::Parse { path, .. }) => {
                assert!(path.ends_with("manifest.json"));
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn interrupted_writes_leave_the_old_file_and_are_swept() {
        let dir = tmp("atomic");
        let doc = Json::obj([("generation", Json::from(1u64))]);
        dir.write_json("run", &doc).unwrap();

        // Simulate a writer killed mid-write: a partial temp file for
        // the same target, never renamed.
        let orphan = dir.root().join(".run.json.tmp-99999-0");
        std::fs::write(&orphan, "{\"generation\": 2, \"truncat").unwrap();

        // The published file is still the complete old version.
        let text = std::fs::read_to_string(dir.root().join("run.json")).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);

        // The next write sweeps the orphan and publishes atomically.
        let doc2 = Json::obj([("generation", Json::from(3u64))]);
        dir.write_json("run", &doc2).unwrap();
        assert!(!orphan.exists(), "stale temp file survived the sweep");
        let text = std::fs::read_to_string(dir.root().join("run.json")).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc2);

        // No temp droppings remain after a clean write.
        let leftovers: Vec<_> = std::fs::read_dir(dir.root())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.contains(".tmp-")))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn io_failure_is_a_typed_error_with_path() {
        // A root that cannot be created: a file stands where the
        // directory should go.
        let base = std::env::temp_dir().join(format!("metro-harness-file-{}", std::process::id()));
        std::fs::write(&base, "occupied").unwrap();
        let dir = ResultsDir::new(base.join("sub"));
        match dir.write_text("x.csv", "a,b\n") {
            Err(ResultsError::Io { path, .. }) => assert!(path.starts_with(&base)),
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&base);
    }
}
