//! The artifact registry.
//!
//! A paper artifact — a figure, a table, an ablation, a sweep — is
//! a named, deterministic experiment with a quick and a full profile.
//! The artifacts of the METRO evaluation register here (see
//! `metro_bench::artifacts::registry`) and the single `metro` CLI
//! fronts them all.

use crate::json::Json;
use crate::results::ResultsDir;
use std::num::NonZeroUsize;

/// Everything a running artifact needs from its invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCtx {
    /// Run the scaled-down quick profile instead of the full one.
    pub quick: bool,
    /// Worker threads for the point executor ([`crate::par_map`]).
    pub jobs: NonZeroUsize,
    /// Flags passed through unparsed: `--inject-panic` from `metro run`
    /// (the quarantine self-test), the storm flags from `metro chaos`
    /// (read by the `chaos` artifact).
    pub flags: Vec<String>,
    /// Where results land.
    pub results: ResultsDir,
}

impl RunCtx {
    /// A context with defaults: full profile, single worker, standard
    /// `results/` directory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            quick: false,
            jobs: NonZeroUsize::MIN,
            flags: Vec::new(),
            results: ResultsDir::standard(),
        }
    }

    /// Whether an artifact-specific flag was passed.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

impl Default for RunCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// What an artifact run produced.
#[derive(Debug, Clone)]
pub struct ArtifactOutput {
    /// The human-readable report (what the legacy binary printed).
    pub human: String,
    /// The machine-readable document written to
    /// `results/<name>.json`.
    pub json: Json,
    /// How many sweep/model points were produced (manifest bookkeeping).
    pub points: usize,
    /// Key parameters of the run, recorded in the manifest (a JSON
    /// object).
    pub params: Json,
    /// The declarative scenario this artifact ran (encoded through
    /// `metro_sim::scenario`), when the artifact is simulation-backed.
    /// The CLI writes it to `results/<name>.scenario.json` and records
    /// its [`Json::canonical_hash`] in the manifest so every results
    /// file is reproducible from its manifest entry alone.
    pub scenario: Option<Json>,
    /// The encoded telemetry snapshot for the run's representative
    /// measurement (a `TelemetrySnapshot` document from
    /// `metro-telemetry`), when the artifact exports one. The CLI
    /// writes it to `results/<name>.telemetry.json` and records its
    /// hash in the manifest.
    pub telemetry: Option<Json>,
}

/// An artifact's run function. Errors are surfaced as strings — an
/// artifact failing is a harness-level event, not something callers
/// dispatch on.
pub type RunFn = fn(&RunCtx) -> Result<ArtifactOutput, String>;

/// A registered artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Registry key and results file stem (`results/<name>.json`).
    pub name: &'static str,
    /// One-line description shown by `metro list`.
    pub description: &'static str,
    /// What the quick profile does (shortened windows, fewer points).
    pub quick_profile: &'static str,
    /// What the full profile does.
    pub full_profile: &'static str,
    /// The experiment itself.
    pub run: RunFn,
}

/// An ordered collection of artifacts, keyed by name.
#[derive(Debug, Default)]
pub struct Registry {
    artifacts: Vec<Artifact>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an artifact.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered — duplicate names would
    /// silently shadow results files.
    pub fn register(&mut self, artifact: Artifact) {
        assert!(
            self.get(artifact.name).is_none(),
            "duplicate artifact name {:?}",
            artifact.name
        );
        self.artifacts.push(artifact);
    }

    /// Looks an artifact up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// All artifacts, in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, Artifact> {
        self.artifacts.iter()
    }

    /// Number of artifacts registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }

    /// All artifact names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.artifacts.iter().map(|a| a.name).collect()
    }
}

impl<'a> IntoIterator for &'a Registry {
    type Item = &'a Artifact;
    type IntoIter = std::slice::Iter<'a, Artifact>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_run(_: &RunCtx) -> Result<ArtifactOutput, String> {
        Ok(ArtifactOutput {
            human: "ran\n".to_string(),
            json: Json::obj([("ok", Json::from(true))]),
            points: 1,
            params: Json::obj::<&str>([]),
            scenario: None,
            telemetry: None,
        })
    }

    fn art(name: &'static str) -> Artifact {
        Artifact {
            name,
            description: "a test artifact",
            quick_profile: "short",
            full_profile: "long",
            run: ok_run,
        }
    }

    #[test]
    fn registry_preserves_order_and_resolves_names() {
        let mut r = Registry::new();
        r.register(art("b"));
        r.register(art("a"));
        assert_eq!(r.names(), vec!["b", "a"]);
        assert_eq!(r.len(), 2);
        assert!(r.get("a").is_some());
        assert!(r.get("c").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate artifact name")]
    fn duplicate_names_panic() {
        let mut r = Registry::new();
        r.register(art("x"));
        r.register(art("x"));
    }

    #[test]
    fn run_ctx_flags() {
        let mut ctx = RunCtx::new();
        ctx.flags.push("--inject-panic".to_string());
        assert!(ctx.flag("--inject-panic"));
        assert!(!ctx.flag("--csv"));
    }
}
