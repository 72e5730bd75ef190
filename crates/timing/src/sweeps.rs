//! Analytic design-space sweeps over the Table 4 model.
//!
//! The paper's conclusion argues METRO "allows room for tradeoffs to be
//! made between latency, throughput, i/o pins, and cost on an
//! implementation and application basis" (§8). These sweeps map that
//! space: how `t_20,32`-style delivery latency moves with message size,
//! cascade width, and technology, and where the crossovers fall.

use crate::catalog::ImplementationSpec;
use crate::equations::LatencyModel;

/// Delivery latency versus message size for one implementation point:
/// `(bytes, ns)` pairs.
#[must_use]
pub fn message_size_sweep(model: &LatencyModel, sizes_bytes: &[usize]) -> Vec<(usize, f64)> {
    sizes_bytes
        .iter()
        .map(|&b| (b, model.delivery_ns(b)))
        .collect()
}

/// Delivery latency versus cascade width for a base model: `(c, ns)`.
/// Wider cascades move more bits per clock but replicate the header
/// across slices (Table 4's `hbits · c`), so returns diminish.
#[must_use]
pub fn cascade_sweep(base: &LatencyModel, widths: &[usize], bytes: usize) -> Vec<(usize, f64)> {
    widths
        .iter()
        .map(|&c| {
            let m = LatencyModel {
                cascade: c,
                ..base.clone()
            };
            (c, m.delivery_ns(bytes))
        })
        .collect()
}

/// The message size (bytes) at which implementation `a` starts beating
/// `b`, if any crossover exists in `1..=limit`. Serialization-dominated
/// regimes favor wide/fast channels; latency-dominated regimes favor
/// few stages and short setup.
#[must_use]
pub fn crossover_bytes(a: &LatencyModel, b: &LatencyModel, limit: usize) -> Option<usize> {
    let mut prev = a.delivery_ns(1) < b.delivery_ns(1);
    for bytes in 2..=limit {
        let now = a.delivery_ns(bytes) < b.delivery_ns(bytes);
        if now != prev {
            return Some(bytes);
        }
        prev = now;
    }
    None
}

/// For each Table 3 row, the fraction of `t_20,32` spent on wire
/// serialization (as opposed to router stage latency) — the
/// short-haul-versus-long-haul balance of §2.
#[must_use]
pub fn serialization_fraction(rows: &[ImplementationSpec]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| {
            let m = r.model();
            let stage = m.stages() as f64 * m.t_stg_ns();
            let total = m.t20_32_ns();
            (
                format!("{} [{}]", r.name, r.technology),
                1.0 - stage / total,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::table3;
    use crate::equations::{stages_32_node_4stage, T_WIRE_NS};

    fn orbit() -> LatencyModel {
        LatencyModel {
            t_clk_ns: 25.0,
            t_io_ns: 10.0,
            t_wire_ns: T_WIRE_NS,
            width: 4,
            cascade: 1,
            pipestages: 1,
            header_words: 0,
            stage_digit_bits: stages_32_node_4stage(),
        }
    }

    #[test]
    fn latency_grows_linearly_with_message_size() {
        let sweep = message_size_sweep(&orbit(), &[20, 40, 80]);
        let slope1 = sweep[1].1 - sweep[0].1;
        let slope2 = sweep[2].1 - sweep[1].1;
        assert_eq!(slope2, slope1 * 2.0, "linear in bytes");
        assert_eq!(sweep[0].1, 1250.0);
    }

    #[test]
    fn cascading_has_diminishing_returns() {
        let sweep = cascade_sweep(&orbit(), &[1, 2, 4, 8], 20);
        // Monotone improvement...
        for pair in sweep.windows(2) {
            assert!(pair[1].1 < pair[0].1);
        }
        // ...but each doubling saves less than the previous one.
        let s1 = sweep[0].1 - sweep[1].1;
        let s2 = sweep[1].1 - sweep[2].1;
        let s3 = sweep[2].1 - sweep[3].1;
        assert!(s2 < s1 && s3 < s2, "{s1} {s2} {s3}");
    }

    #[test]
    fn fewer_stages_win_for_small_messages() {
        // METRO i=o=8 (2 stages) vs METROJR (4 stages), same std-cell
        // technology: the 2-stage network pays less stage latency, the
        // difference shrinking as serialization dominates.
        let rows = table3();
        let two_stage = rows[7].model(); // METRO i=o=8 std cell (460 ns)
        let four_stage = rows[4].model(); // METROJR std cell (500 ns)
        assert!(two_stage.delivery_ns(4) < four_stage.delivery_ns(4));
        // Both scale identically per byte (same channel), so no
        // crossover ever occurs.
        assert_eq!(crossover_bytes(&two_stage, &four_stage, 512), None);
    }

    #[test]
    fn cascade_crossover_against_faster_stages() {
        // A 4-cascade gate-array channel against a std-cell
        // single-width channel: the faster technology wins on tiny
        // messages (cheaper stages), the wide cascade wins once
        // serialization dominates. Table 3 prints both at 500 ns for
        // 20-byte messages — the crossover sits exactly at the paper's
        // figure-of-merit message size.
        let rows = table3();
        let wide_slow = rows[2].model(); // ORBIT 4-cascade, t_stg 50
        let narrow_fast = rows[4].model(); // METROJR std cell, t_stg 20
        assert!(narrow_fast.delivery_ns(1) < wide_slow.delivery_ns(1));
        assert_eq!(wide_slow.delivery_ns(20), narrow_fast.delivery_ns(20));
        let cross = crossover_bytes(&wide_slow, &narrow_fast, 2048).expect("crossover");
        assert!((18..=22).contains(&cross), "crossover at {cross} bytes");
        assert!(
            wide_slow.delivery_ns(cross + 8) < narrow_fast.delivery_ns(cross + 8),
            "wide channel must win past the crossover at {cross} bytes"
        );
    }

    #[test]
    fn crossover_of_identical_models_is_none() {
        // No crossover can exist between a model and itself, nor
        // between two models whose order never changes.
        let m = orbit();
        assert_eq!(crossover_bytes(&m, &m, 1024), None);
        let faster_everywhere = LatencyModel {
            t_clk_ns: m.t_clk_ns / 2.0,
            ..m.clone()
        };
        assert_eq!(crossover_bytes(&faster_everywhere, &m, 1024), None);
        assert_eq!(crossover_bytes(&m, &faster_everywhere, 1024), None);
    }

    #[test]
    fn crossover_with_trivial_limit_is_none() {
        // limit = 1 leaves no second point to compare against.
        let rows = table3();
        assert_eq!(crossover_bytes(&rows[2].model(), &rows[4].model(), 1), None);
    }

    #[test]
    fn serialization_dominates_every_table3_row() {
        // Short-haul regime (§2): message injection time is comparable
        // to or larger than transit latency in all rows.
        for (name, frac) in serialization_fraction(&table3()) {
            assert!(
                (0.5..1.0).contains(&frac),
                "{name}: serialization fraction {frac}"
            );
        }
    }
}
