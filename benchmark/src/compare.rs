//! `compare A.json B.json [more…]`: the regression rule of the
//! benchmark, applied to result files.
//!
//! Per workload and end-to-end metric it prints both sides' median and
//! quartiles, the difference against the metric's bound from
//! `BENCHMARK.json`, and a verdict: `same`, `better`, `worse`, or
//! `unresolved` when the run-to-run spread is wider than the bound
//! (unless every run of one side beats every run of the other). Exits
//! non-zero on any `worse`.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// workload → metric → the untraced runs' values, in file order.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_bounds(benchmark_json: &Path) -> Result<Vec<Bound>, String> {
    let spec = read_json(benchmark_json)?;
    let list = spec.get("end_to_end").ok_or("BENCHMARK.json has no end_to_end list")?;
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k).and_then(Json::as_str).ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            Ok(Bound {
                name: field("name")?.to_owned(),
                unit: field("unit")?.to_owned(),
                lower_is_better: field("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

fn read_results(path: &Path) -> Result<Table, String> {
    let file = read_json(path)?;
    let mut table = Table::new();
    for run in file.get("runs").map(Json::as_arr).unwrap_or_default() {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::as_str) else { continue };
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: a {workload} run is not correct", path.display()));
        }
        for (name, m) in run.get("metrics").map(Json::entries).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                table
                    .entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    if table.is_empty() {
        return Err(format!("{}: no untraced runs", path.display()));
    }
    Ok(table)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// `a` is the parent side, `b` the change. `slack` widens the bound
/// (a second seed is held to twice the bound).
fn judge(a: &[f64], b: &[f64], bound: &Bound, slack: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, whatever the metric's direction.
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 { 0.0 } else { sign * (mb - ma) / ma.abs() };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        let m = median(v);
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m.abs()
        }
    };
    let limit = bound.bound * slack;
    let all_b_beat_a = |dir: f64| b.iter().all(|y| a.iter().all(|x| dir * sign * (y - x) > 0.0));
    let verdict = if spread(a).max(spread(b)) > limit {
        if all_b_beat_a(-1.0) {
            Verdict::Better
        } else if all_b_beat_a(1.0) && worse_by > limit {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > limit {
        Verdict::Worse
    } else if worse_by < -limit {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

fn cell(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.4} [{:.4}, {:.4}] n={}", median(v), q1, q3, v.len())
}

/// Returns whether any pairing was judged worse.
pub fn compare(files: &[String], benchmark_json: &Path, slack: f64) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("compare needs at least two result files".into());
    }
    let bounds = read_bounds(benchmark_json)?;
    let base = read_results(Path::new(&files[0]))?;
    let mut any_worse = false;
    for other in &files[1..] {
        let change = read_results(Path::new(other))?;
        println!("# A = {}   B = {}   bound x{slack}", files[0], other);
        println!(
            "{:<14} {:<28} {:<6} {:<40} {:<40} {:>9} {:>7}  verdict",
            "workload",
            "metric",
            "unit",
            "A median [q1, q3]",
            "B median [q1, q3]",
            "worse by",
            "bound"
        );
        let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
        for (workload, metrics) in &base {
            for bound in &bounds {
                let (Some(a), Some(b)) = (
                    metrics.get(&bound.name),
                    change.get(workload).and_then(|m| m.get(&bound.name)),
                ) else {
                    println!("{workload:<14} {:<28} missing on one side", bound.name);
                    continue;
                };
                let (worse_by, verdict) = judge(a, b, bound, slack);
                let word = match verdict {
                    Verdict::Same => "same",
                    Verdict::Better => "better",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                };
                *tally.entry(word).or_insert(0) += 1;
                any_worse |= verdict == Verdict::Worse;
                println!(
                    "{workload:<14} {:<28} {:<6} {:<40} {:<40} {:>8.2}% {:>6.1}%  {word}",
                    bound.name,
                    bound.unit,
                    cell(a),
                    cell(b),
                    worse_by * 100.0,
                    bound.bound * slack * 100.0
                );
            }
        }
        let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
        println!("# {}", summary.join(", "));
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "m".into(), unit: "us".into(), lower_is_better: true, bound }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&a, &[102.0, 103.0, 101.0], &lower(0.05), 1.0).1, Verdict::Same);
        assert_eq!(judge(&a, &[110.0, 111.0, 109.0], &lower(0.05), 1.0).1, Verdict::Worse);
        assert_eq!(judge(&a, &[90.0, 91.0, 89.0], &lower(0.05), 1.0).1, Verdict::Better);
        // at twice the bound, a 9 % shift on a 5 % bound passes
        assert_eq!(judge(&a, &[109.0, 110.0, 108.0], &lower(0.05), 2.0).1, Verdict::Same);
        let higher = Bound { lower_is_better: false, ..lower(0.05) };
        assert_eq!(judge(&a, &[90.0, 91.0, 89.0], &higher, 1.0).1, Verdict::Worse);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_agrees() {
        let noisy = [100.0, 130.0, 80.0];
        assert_eq!(judge(&noisy, &[120.0, 90.0, 105.0], &lower(0.05), 1.0).1, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[60.0, 70.0, 50.0], &lower(0.05), 1.0).1, Verdict::Better);
        assert_eq!(judge(&noisy, &[160.0, 170.0, 150.0], &lower(0.05), 1.0).1, Verdict::Worse);
    }
}
