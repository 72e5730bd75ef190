//! Supervised artifact execution: quarantine instead of crash.
//!
//! A sweep of many artifacts (`metro run --all`) must not die because
//! one point misbehaves. The [`Supervisor`] runs each artifact on a
//! watchdog-monitored thread:
//!
//! * a **panic** anywhere in the artifact (including inside
//!   [`crate::par_map`] workers, which propagate to the artifact
//!   thread) is caught and converted into a typed [`PointFailure`]
//!   carrying the panic payload;
//! * a **deadline** (`--deadline SECS`) bounds each attempt's
//!   wall-clock; an attempt that exceeds it is abandoned and recorded
//!   as a timeout;
//! * **retries** (`--retries N`) deterministically re-run the failed
//!   artifact — every artifact derives its randomness from fixed
//!   per-point seeds, so a retry replays the identical computation and
//!   only survives genuinely transient failures (an OOM-killed worker,
//!   a wedged filesystem), with a linear backoff between attempts.
//!
//! The failure is recorded in `results/manifest.json` as a `failure`
//! object on the run record (see [`crate::results::RunRecord`]), so a
//! quarantined run leaves the same audit trail as a successful one.

use crate::executor::panic_payload;
use crate::json::Json;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::Duration;

/// Why a supervised run was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The artifact panicked; the payload is in
    /// [`PointFailure::detail`].
    Panic,
    /// The artifact exceeded the watchdog deadline and was abandoned.
    Timeout,
    /// The artifact returned an error.
    Error,
}

impl FailureKind {
    /// The manifest spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
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
    /// The panic payload, error message, or timeout description.
    pub detail: String,
    /// Total attempts made (1 = no retries).
    pub attempts: u32,
}

impl PointFailure {
    /// The manifest encoding: `{kind, detail, attempts}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.kind.name())),
            ("detail", Json::from(self.detail.as_str())),
            ("attempts", Json::from(u64::from(self.attempts))),
        ])
    }
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} attempt{}: {}",
            self.kind.name(),
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.detail
        )
    }
}

/// Watchdog policy for supervised runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervisor {
    /// Wall-clock bound per attempt (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Re-runs after the first failure (0 = fail immediately).
    pub retries: u32,
    /// Pause before retry `k` is `backoff * k` (linear backoff).
    pub backoff: Duration,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self {
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(200),
        }
    }
}

impl Supervisor {
    /// Runs `f` under supervision: on a named watchdog thread, panics
    /// caught, deadline enforced, retried per the policy.
    ///
    /// A timed-out attempt's thread cannot be forcibly killed — it is
    /// abandoned (detached) and its eventual result discarded; the
    /// artifact layer's atomic results writes guarantee an abandoned
    /// attempt can never publish a torn file.
    ///
    /// # Errors
    ///
    /// Returns the final attempt's [`PointFailure`] once the policy is
    /// exhausted.
    pub fn supervise<R, F>(&self, label: &str, f: F) -> Result<R, PointFailure>
    where
        R: Send + 'static,
        F: Fn() -> Result<R, String> + Send + Sync + 'static,
    {
        let f = std::sync::Arc::new(f);
        let mut last = None;
        for attempt in 1..=self.retries.saturating_add(1) {
            if attempt > 1 {
                std::thread::sleep(self.backoff * (attempt - 1));
            }
            let (kind, detail) = match self.attempt(label, &f) {
                Ok(r) => return Ok(r),
                Err(e) => e,
            };
            last = Some(PointFailure {
                kind,
                detail,
                attempts: attempt,
            });
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// One watchdog-monitored attempt.
    fn attempt<R, F>(&self, label: &str, f: &std::sync::Arc<F>) -> Result<R, (FailureKind, String)>
    where
        R: Send + 'static,
        F: Fn() -> Result<R, String> + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let body = std::sync::Arc::clone(f);
        let handle = std::thread::Builder::new()
            .name(format!("supervised-{label}"))
            .spawn(move || {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| body()));
                let _ = tx.send(outcome.map_err(|p| panic_payload(p.as_ref())));
            })
            .expect("spawning a supervised worker");
        let received = match self.deadline {
            Some(deadline) => rx.recv_timeout(deadline),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(Ok(Ok(r))) => {
                let _ = handle.join();
                Ok(r)
            }
            Ok(Ok(Err(e))) => {
                let _ = handle.join();
                Err((FailureKind::Error, e))
            }
            Ok(Err(payload)) => {
                let _ = handle.join();
                Err((FailureKind::Panic, payload))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // The attempt is wedged; abandon its thread. The
                // channel send will land on a dropped receiver.
                drop(rx);
                Err((
                    FailureKind::Timeout,
                    format!(
                        "exceeded the {:.1}s watchdog deadline",
                        self.deadline.unwrap_or_default().as_secs_f64()
                    ),
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The worker died without reporting (should be
                // unreachable: catch_unwind precedes the send).
                let _ = handle.join();
                Err((
                    FailureKind::Panic,
                    "supervised worker exited without reporting".to_string(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn fast() -> Supervisor {
        Supervisor {
            backoff: Duration::from_millis(1),
            ..Supervisor::default()
        }
    }

    #[test]
    fn success_passes_through() {
        let out = fast().supervise("ok", || Ok::<_, String>(41 + 1));
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn a_panic_is_quarantined_with_its_payload() {
        let failure = fast()
            .supervise::<u32, _>("boom", || panic!("injected point failure"))
            .unwrap_err();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.detail, "injected point failure");
        assert_eq!(failure.attempts, 1);
        let doc = failure.to_json();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("panic"));
    }

    #[test]
    fn an_error_return_is_a_typed_error_failure() {
        let failure = fast()
            .supervise::<u32, _>("err", || Err("no such file".to_string()))
            .unwrap_err();
        assert_eq!(failure.kind, FailureKind::Error);
        assert_eq!(failure.detail, "no such file");
    }

    #[test]
    fn a_wedged_attempt_times_out() {
        let supervisor = Supervisor {
            deadline: Some(Duration::from_millis(50)),
            ..fast()
        };
        let failure = supervisor
            .supervise::<u32, _>("wedge", || {
                std::thread::sleep(Duration::from_secs(30));
                Ok(0)
            })
            .unwrap_err();
        assert_eq!(failure.kind, FailureKind::Timeout);
        assert!(failure.detail.contains("deadline"), "{failure}");
    }

    #[test]
    fn retries_rerun_deterministically_and_count_attempts() {
        // Fails twice, succeeds on the third attempt — the transient-
        // failure shape retries exist for.
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let supervisor = Supervisor {
            retries: 2,
            ..fast()
        };
        let out = supervisor.supervise("flaky", move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            Ok::<_, String>(7u32)
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_retries_report_the_final_attempt() {
        let supervisor = Supervisor {
            retries: 2,
            ..fast()
        };
        let failure = supervisor
            .supervise::<u32, _>("always", || panic!("permanent"))
            .unwrap_err();
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.detail, "permanent");
    }
}
