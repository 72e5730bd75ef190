//! The `metro report` verb: render telemetry sidecars as per-stage
//! tables.
//!
//! ```text
//! metro report                       # every *.telemetry.json in results/
//! metro report fig3 fault_sweep      # named artifacts only
//! metro report --dir other/results   # alternate results directory
//! ```
//!
//! Each sidecar is a schema-versioned `TelemetrySnapshot` document
//! written by `metro run`; the table shows per-stage opens, grants,
//! blocks (with block rate), fast reclaims, turns, drops, forwarded
//! words, and channel utilization, plus the latency distribution line.

use metro_harness::{cli, log};
use metro_telemetry::{report, snapshot};
use std::path::{Path, PathBuf};

fn usage() -> String {
    "usage: metro report [<artifact>...] [--dir DIR]\n\
     \n\
     renders results/<artifact>.telemetry.json sidecars as per-stage\n\
     utilization / block-rate / latency tables. With no artifact names,\n\
     reports every telemetry sidecar in the directory.\n"
        .to_string()
}

/// Renders one sidecar file to its table.
///
/// # Errors
///
/// Returns a description if the file is unreadable or not a valid
/// telemetry snapshot.
pub fn render_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let snap = snapshot::from_text(&text).map_err(|e| e.to_string())?;
    Ok(report::render(&snap))
}

/// All `*.telemetry.json` files under `dir`, sorted by name so the
/// report order is deterministic.
fn sidecars_in(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".telemetry.json"))
        {
            found.push(path);
        }
    }
    found.sort();
    Ok(found)
}

/// Renders the report for a results directory: named artifacts if any,
/// otherwise every sidecar present. Tables are separated by blank
/// lines.
///
/// # Errors
///
/// Returns a description of the first failure (missing sidecar,
/// unreadable directory, malformed snapshot).
pub fn render_dir(dir: &Path, names: &[String]) -> Result<String, String> {
    let paths: Vec<PathBuf> = if names.is_empty() {
        let found = sidecars_in(dir)?;
        if found.is_empty() {
            return Err(format!(
                "no telemetry sidecars (*.telemetry.json) in {}",
                dir.display()
            ));
        }
        found
    } else {
        names
            .iter()
            .map(|n| dir.join(format!("{n}.telemetry.json")))
            .collect()
    };
    let mut out = String::new();
    for (i, path) in paths.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_file(path)?);
    }
    Ok(out)
}

/// Entry point for `metro report <args…>`; returns the process exit
/// code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let mut dir = PathBuf::from("results");
    let mut names = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" | "help" => {
                log::output(&usage());
                return 0;
            }
            "--dir" => match cli::value(&mut it, a) {
                Ok(v) => dir = PathBuf::from(v),
                Err(e) => {
                    log::error(&format!("metro report: {e}"));
                    return 2;
                }
            },
            flag if flag.starts_with("--") => {
                log::error(&format!("metro report: unknown flag {flag:?}\n"));
                log::error_text(&usage());
                return 2;
            }
            name => names.push(name.to_string()),
        }
    }
    match render_dir(&dir, &names) {
        Ok(text) => {
            log::output(&text);
            0
        }
        Err(e) => {
            log::error(&format!("metro report: {e}"));
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_harness::ResultsDir;

    fn temp_results(tag: &str) -> ResultsDir {
        let dir =
            std::env::temp_dir().join(format!("metro-report-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultsDir::new(dir)
    }

    /// A tiny snapshot document via the sim, so the test exercises the
    /// same path `metro run` writes through.
    fn write_sidecar(results: &ResultsDir, name: &str) {
        use metro_sim::{NetworkSim, SimConfig};
        use metro_topo::multibutterfly::MultibutterflySpec;
        let mut sim =
            NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
        sim.send(0, 9, &[1, 2, 3]);
        sim.run(200);
        let snap = sim.telemetry_snapshot(name);
        results
            .write_json(&format!("{name}.telemetry"), &snap.to_json())
            .unwrap();
    }

    #[test]
    fn report_renders_named_and_discovered_sidecars() {
        let results = temp_results("render");
        write_sidecar(&results, "alpha");
        write_sidecar(&results, "beta");

        let named = render_dir(results.root(), &["beta".to_string()]).unwrap();
        assert!(named.starts_with("== beta :: flat engine"));

        let all = render_dir(results.root(), &[]).unwrap();
        let alpha_at = all.find("== alpha").unwrap();
        let beta_at = all.find("== beta").unwrap();
        assert!(alpha_at < beta_at, "discovery order is sorted by name");
        let _ = std::fs::remove_dir_all(results.root());
    }

    #[test]
    fn missing_sidecar_is_an_error() {
        let results = temp_results("missing");
        std::fs::create_dir_all(results.root()).unwrap();
        let err = render_dir(results.root(), &["ghost".to_string()]).unwrap_err();
        assert!(err.contains("ghost.telemetry.json"));
        let empty = render_dir(results.root(), &[]).unwrap_err();
        assert!(empty.contains("no telemetry sidecars"));
        let _ = std::fs::remove_dir_all(results.root());
    }
}
