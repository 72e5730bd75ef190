//! Supervised artifact execution: quarantine instead of crash.
//!
//! A sweep of many artifacts (`metro run --all`) must not die because
//! one point misbehaves. [`supervise`] runs each artifact on its own
//! named thread: a **panic** anywhere in the artifact (including inside
//! [`crate::par_map`] workers, which propagate to the artifact thread)
//! is caught and converted into a typed [`PointFailure`] carrying the
//! panic payload, and an error return becomes one too.
//!
//! The failure is recorded in `results/manifest.json` as a `failure`
//! object on the run record (see [`crate::results::RunRecord`]), so a
//! quarantined run leaves the same audit trail as a successful one.

use crate::executor::panic_payload;
use crate::json::Json;

/// Why a supervised run was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The artifact panicked; the payload is in
    /// [`PointFailure::detail`].
    Panic,
    /// The artifact returned an error.
    Error,
}

impl FailureKind {
    /// The manifest spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Error => "error",
        }
    }
}

/// A typed record of one quarantined run: what failed and how (the
/// run's seeds are in the record's `params`).
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// How the run failed.
    pub kind: FailureKind,
    /// The panic payload or error message.
    pub detail: String,
}

impl PointFailure {
    /// The manifest encoding: `{kind, detail}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.kind.name())),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

/// Runs `f` under supervision: on a thread named `supervised-{label}`,
/// its panic caught.
///
/// # Errors
///
/// Returns a [`PointFailure`] if `f` panicked or returned an error.
pub fn supervise<R, F>(label: &str, f: F) -> Result<R, PointFailure>
where
    R: Send,
    F: FnOnce() -> Result<R, String> + Send,
{
    let joined = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("supervised-{label}"))
            .spawn_scoped(scope, f)
            .expect("spawning a supervised worker")
            .join()
    });
    let (kind, detail) = match joined {
        Ok(Ok(r)) => return Ok(r),
        Ok(Err(e)) => (FailureKind::Error, e),
        Err(payload) => (FailureKind::Panic, panic_payload(payload.as_ref())),
    };
    Err(PointFailure { kind, detail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_passes_through() {
        let out = supervise("ok", || Ok::<_, String>(41 + 1));
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn a_panic_is_quarantined_with_its_payload() {
        let failure = supervise::<u32, _>("boom", || panic!("injected point failure")).unwrap_err();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.detail, "injected point failure");
        let doc = failure.to_json();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("panic"));
        assert!(doc.get("attempts").is_none());
    }

    #[test]
    fn an_error_return_is_a_typed_error_failure() {
        let failure = supervise::<u32, _>("err", || Err("no such file".to_string())).unwrap_err();
        assert_eq!(failure.kind, FailureKind::Error);
        assert_eq!(failure.detail, "no such file");
        assert_eq!(failure.to_string(), "error: no such file");
    }
}
