//! `metro report` renders per-stage tables from telemetry sidecars —
//! pinned end to end for the fig3 and fault_sweep artifacts' quick
//! representative cells, so the whole spine (router counters → registry
//! → snapshot codec → sidecar file → report renderer) is covered by one
//! deterministic expectation.

use metro_bench::{report_cli, scenarios};
use metro_harness::ResultsDir;
use metro_sim::experiment::{point_seed, run_fault_sim, run_load_sim, SweepConfig};

fn temp_results(tag: &str) -> ResultsDir {
    let dir =
        std::env::temp_dir().join(format!("metro-report-tables-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultsDir::new(dir)
}

/// The fig3 artifact's telemetry cell: quick profile, load 0.40
/// (sweep index 7), the same seeding `metro run fig3 --quick` uses.
fn fig3_sidecar(results: &ResultsDir) {
    let cfg = scenarios::sweep_for("fig3", true);
    let cell_cfg = SweepConfig {
        seed: point_seed(cfg.seed, 7),
        ..cfg
    };
    let snap = run_load_sim(&cell_cfg, 0.40).1.telemetry_snapshot("fig3");
    results
        .write_json("fig3.telemetry", &snap.to_json())
        .unwrap();
}

/// The fault_sweep artifact's telemetry cell: quick profile, fault-free
/// baseline at load 0.3 with the grid-index-0 seed.
fn fault_sweep_sidecar(results: &ResultsDir) {
    let cfg = scenarios::sweep_for("fault_sweep", true);
    let cell_cfg = SweepConfig {
        seed: point_seed(cfg.seed, 0),
        ..cfg
    };
    let snap = run_fault_sim(&cell_cfg, 0.3, 0, 0).telemetry_snapshot("fault_sweep");
    results
        .write_json("fault_sweep.telemetry", &snap.to_json())
        .unwrap();
}

#[test]
fn fig3_report_table_is_pinned() {
    let results = temp_results("fig3");
    fig3_sidecar(&results);
    let text = report_cli::render_dir(results.root(), &["fig3".to_string()]).unwrap();
    assert_eq!(
        text,
        "== fig3 :: flat engine, 3824 cycles, telemetry interval 1 ==\n\
         stage routers     opens    grants    blocks  block% reclaims    turns    drops      words   util%\n\
         \x20   0      16      5892      5227       665   11.3%      665     3797     3804      80571 131.69%\n\
         \x20   1      16      5118      4681       437    8.5%      437     3688     3690      75439 123.30%\n\
         \x20   2      32      4604      3581      1023   22.2%     1023     3612     3613      68299  55.81%\n\
         total      64     15614     13489      2125   13.6%     2125    11097    11107     224309  91.65%\n\
         latency: count 3526  mean 99.0  p50 72  p95 271  p99 476  min 30  max 585\n"
    );
    let _ = std::fs::remove_dir_all(results.root());
}

#[test]
fn fault_sweep_report_table_is_pinned() {
    let results = temp_results("fault-sweep");
    fault_sweep_sidecar(&results);
    let text = report_cli::render_dir(results.root(), &["fault_sweep".to_string()]).unwrap();
    assert_eq!(
        text,
        "== fault_sweep :: flat engine, 3666 cycles, telemetry interval 1 ==\n\
         stage routers     opens    grants    blocks  block% reclaims    turns    drops      words   util%\n\
         \x20   0      16      3842      3589       253    6.6%      253     2843     2848      59360 101.20%\n\
         \x20   1      16      3538      3355       183    5.2%      183     2794     2797      56831  96.89%\n\
         \x20   2      32      3322      2742       580   17.5%      580     2760     2762      52286  44.57%\n\
         total      64     10702      9686      1016    9.5%     1016     8397     8407     168477  71.81%\n\
         latency: count 2710  mean 55.8  p50 43  p95 123  p99 173  min 30  max 293\n"
    );
    let _ = std::fs::remove_dir_all(results.root());
}

#[test]
fn reports_concatenate_in_name_order() {
    let results = temp_results("both");
    fig3_sidecar(&results);
    fault_sweep_sidecar(&results);
    let text = report_cli::render_dir(results.root(), &[]).unwrap();
    let fault_at = text.find("== fault_sweep").unwrap();
    let fig_at = text.find("== fig3").unwrap();
    assert!(fault_at < fig_at, "sidecar discovery sorts by file name");
    let _ = std::fs::remove_dir_all(results.root());
}
