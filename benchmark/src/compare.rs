//! `compare a.json b.json`: is result set B a regression against A?
//!
//! The rule is the one the repository's guides fix. For every pairing of
//! workload and end-to-end metric, B's median may not be worse than A's by
//! more than the bound `BENCHMARK.json` declares. Where the run-to-run
//! spread (quartile distance over median) of either side is wider than the
//! bound, the pairing is `unresolved` — not "unchanged" — unless every run
//! of B is better than every run of A. Simulated-time metrics repeat
//! exactly for one commit and seed, so they are compared bit for bit and
//! any worsening at all is a regression.

use crate::json;
use crate::report::ResultSet;
use crate::spec::{self, Better};
use crate::stats;
use std::process::ExitCode;

/// The verdict on one pairing of workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical values (simulated-time metrics).
    Same,
    /// Within the bound.
    Ok,
    Improved,
    /// The spread between runs is wider than the bound.
    Unresolved,
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// By what share of A's median B is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// Judges one metric of one workload.
pub fn judge(better: Better, exact: bool, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = worse_by(better, ma, mb);
    if exact {
        let first = a.first().copied().unwrap_or(0.0).to_bits();
        let identical = a.iter().chain(b).all(|v| v.to_bits() == first);
        return match (identical, worse > 0.0) {
            (true, _) => Verdict::Same,
            (false, true) => Verdict::Regression,
            (false, false) => Verdict::Improved,
        };
    }
    let every_b_better = a
        .iter()
        .all(|x| b.iter().all(|y| worse_by(better, *x, *y) < 0.0));
    if stats::spread(a) > bound || stats::spread(b) > bound {
        return if every_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound || every_b_better {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn read_side(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let set = ResultSet::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    if !set.comparable {
        return Err(format!(
            "{path}: marked \"comparable\": false (a --quick size); its numbers must not be compared"
        ));
    }
    Ok(set)
}

/// `compare a.json b.json`. Exit status 0 when B holds every bound, 1 on a
/// regression or a higher `failed_ops / ops`.
///
/// # Errors
///
/// A file does not read as a comparable result set, or the two were taken
/// with different seeds or sizes.
pub fn command(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let declared = spec::load_declared(&crate::env::repo_root().join("BENCHMARK.json"))?;
    let (a, b) = (read_side(path_a)?, read_side(path_b)?);
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        return Err(format!(
            "the two sets differ in seed or size (seed {} / {} s against seed {} / {} s)",
            a.seed, a.seconds, b.seed, b.seconds
        ));
    }
    let mut regressions = 0u32;
    let mut unresolved = 0u32;
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "bound %", "A iqr %", "B iqr %"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<18} only in {path_a}", wa.name);
            continue;
        };
        for (name, va) in &wa.end_to_end {
            let (Some(m), Some((_, vb))) = (
                spec::metric(name),
                wb.end_to_end.iter().find(|(n, _)| n == name),
            ) else {
                continue;
            };
            let bound = declared
                .bound(name)
                .ok_or_else(|| format!("BENCHMARK.json declares no bound for `{name}`"))?;
            let verdict = judge(m.better, m.exact, bound, va, vb);
            regressions += u32::from(verdict == Verdict::Regression);
            unresolved += u32::from(verdict == Verdict::Unresolved);
            println!(
                "{:<18} {:<34} {:>14.6} {:>14.6} {:>9.3} {:>7.1} {:>8.3} {:>8.3}  {}",
                wa.name,
                name,
                stats::median(va),
                stats::median(vb),
                100.0 * worse_by(m.better, stats::median(va), stats::median(vb)),
                100.0 * bound,
                100.0 * stats::spread(va),
                100.0 * stats::spread(vb),
                verdict.as_str()
            );
        }
        // Deterministic counts of the traced run: a simulator-only change
        // must not move them.
        for (name, va) in &wa.per_layer {
            let (Some(m), Some((_, vb))) = (
                spec::metric(name),
                wb.per_layer.iter().find(|(n, _)| n == name),
            ) else {
                continue;
            };
            if m.exact && judge(m.better, true, 0.0, va, vb) != Verdict::Same {
                println!(
                    "{:<18} {:<34} {:>14.6} {:>14.6}  count changed",
                    wa.name,
                    name,
                    stats::median(va),
                    stats::median(vb)
                );
            }
        }
        // failed_b / ops_b > failed_a / ops_a, in whole numbers.
        if wb.failed_ops * wa.ops.max(1) > wa.failed_ops * wb.ops.max(1) {
            regressions += 1;
            println!(
                "{:<18} failed_ops/ops rose from {}/{} to {}/{}  REGRESSION",
                wa.name, wa.failed_ops, wa.ops, wb.failed_ops, wb.ops
            );
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_spread_and_exactness() {
        let lower = Better::Lower;
        let steady_a = [100.0, 100.5, 99.5];
        assert_eq!(
            judge(lower, false, 0.10, &steady_a, &[104.0, 105.0, 103.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(lower, false, 0.10, &steady_a, &[115.0, 116.0, 114.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(lower, false, 0.10, &steady_a, &[80.0, 81.0, 79.0]),
            Verdict::Improved
        );
        // A noisy side cannot show "unchanged" …
        let noisy = [100.0, 140.0, 60.0];
        assert_eq!(
            judge(lower, false, 0.10, &noisy, &[101.0, 100.0, 102.0]),
            Verdict::Unresolved
        );
        // … but every run of B beating every run of A still counts.
        assert_eq!(
            judge(lower, false, 0.10, &noisy, &[50.0, 51.0, 52.0]),
            Verdict::Improved
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(Better::Higher, false, 0.10, &steady_a, &[80.0, 81.0, 79.0]),
            Verdict::Regression
        );
        // Exact metrics: bit-identical or it is a change of the model.
        assert_eq!(
            judge(lower, true, 0.01, &[85720.0; 3], &[85720.0; 3]),
            Verdict::Same
        );
        assert_eq!(
            judge(lower, true, 0.01, &[85720.0; 3], &[85721.0; 3]),
            Verdict::Regression
        );
        assert_eq!(
            judge(lower, true, 0.01, &[85720.0; 3], &[85000.0; 3]),
            Verdict::Improved
        );
    }
}
