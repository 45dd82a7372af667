//! `compare <a.jsonl> <b.jsonl>`: judge run set `b` against run set `a`.
//!
//! Each file is a run log written by `run --out` (one JSON record per
//! line). Per workload × end-to-end metric the table shows both medians,
//! the bound, and a verdict:
//!
//! * `ok` — `b`'s median is not worse than `a`'s by more than the bound;
//! * `worse` — it is (the command then exits non-zero);
//! * `unresolved` — either side's inter-quartile spread is wider than the
//!   bound, so the comparison cannot tell.
//!
//! When both sides ran the same seeds, simulated-clock metrics and, from
//! traced records, every per-layer count must agree to a relative 1e-9:
//! they are deterministic, so a difference is a real change, never noise.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

const EXACT_REL: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs: `(workload, traced) → metric → values`, plus seeds.
#[derive(Default)]
pub struct RunSet {
    values: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>,
    seeds: BTreeMap<(String, bool), Vec<u64>>,
}

impl RunSet {
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let field = |k: &str| {
                rec.get(k)
                    .ok_or_else(|| format!("line {}: no {k:?}", n + 1))
            };
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let traced = field("trace")? == &Value::Bool(true);
            let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
            let metrics = field("result")?
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
            let key = (workload, traced);
            set.seeds.entry(key.clone()).or_default().push(seed);
            let slot = set.values.entry(key).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    slot.entry(name.clone()).or_default().push(v);
                }
            }
        }
        Ok(set)
    }

    fn get(&self, workload: &str, traced: bool, metric: &str) -> Option<&Vec<f64>> {
        self.values
            .get(&(workload.to_string(), traced))?
            .get(metric)
    }

    fn sorted_seeds(&self, workload: &str, traced: bool) -> Vec<u64> {
        let mut s = self
            .seeds
            .get(&(workload.to_string(), traced))
            .cloned()
            .unwrap_or_default();
        s.sort_unstable();
        s
    }
}

/// `b` against `a` under the noise rule.
pub fn judge_noisy(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    if stats::iqr_share(a) > m.bound || stats::iqr_share(b) > m.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match m.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > m.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `b` against `a` for a value that repeats exactly at a fixed seed: any
/// relative difference beyond 1e-9 in the worse direction is `worse`.
pub fn judge_exact(better: Better, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > EXACT_REL * ma.abs().max(mb.abs()) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn main(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<RunSet, String> {
        RunSet::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut counts = BTreeMap::new();
    println!(
        "{:<12} {:<24} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "change", "bound"
    );
    for w in &WORKLOADS {
        let same_seeds = |traced| {
            let s = a.sorted_seeds(w.name, traced);
            !s.is_empty() && s == b.sorted_seeds(w.name, traced)
        };
        let mut row = |m: &Metric, traced: bool, exact: bool| {
            let (Some(va), Some(vb)) =
                (a.get(w.name, traced, m.name), b.get(w.name, traced, m.name))
            else {
                return;
            };
            let verdict = if exact {
                judge_exact(m.better, va, vb)
            } else {
                judge_noisy(m, va, vb)
            };
            *counts.entry(verdict.name()).or_insert(0u32) += 1;
            // Exact per-layer counts are only worth a line when they moved.
            if traced && verdict == Verdict::Ok {
                return;
            }
            let (ma, mb) = (stats::median(va), stats::median(vb));
            println!(
                "{:<12} {:<24} {:>16.6} {:>16.6} {:>+7.2}% {:>7}  {}{}",
                w.name,
                m.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                },
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", m.bound * 100.0)
                },
                verdict.name(),
                if va.len() < 2 || vb.len() < 2 {
                    "  (single run: no spread)"
                } else {
                    ""
                },
            );
        };
        for m in &END_TO_END {
            row(m, false, m.exact_at_fixed_seed() && same_seeds(false));
        }
        if same_seeds(true) {
            for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
                row(m, true, true);
            }
        }
    }
    let n = |k: &str| counts.get(k).copied().unwrap_or(0);
    println!(
        "{} ok, {} worse, {} unresolved",
        n("ok"),
        n("worse"),
        n("unresolved")
    );
    Ok(if n("worse") > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Indented JSON for files people read (`BENCHMARK.json`): nested
/// containers open a level, records and lists of scalars stay on a line.
pub fn pretty(v: &Value) -> String {
    fn scalar(v: &Value) -> bool {
        !matches!(v, Value::Arr(_) | Value::Obj(_))
    }
    fn go(v: &Value, depth: usize, flat: bool, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match v {
            Value::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            leaf => return out.push_str(&leaf.to_string()),
        };
        let flat = flat || items.iter().all(|(_, v)| scalar(v));
        out.push(open);
        for (i, (key, item)) in items.iter().enumerate() {
            if flat {
                out.push_str(if i > 0 { ", " } else { "" });
            } else {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(k) = key {
                out.push_str(&Value::from(*k).to_string());
                out.push_str(": ");
            }
            go(item, depth + 1, flat, out);
        }
        if !flat && !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
    let mut out = String::new();
    go(v, 0, false, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound,
        }
    }

    #[test]
    fn noisy_verdicts_follow_bound_and_spread() {
        let lower = metric(Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge_noisy(&lower, &a, &[105.0, 106.0, 104.0, 105.5, 104.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge_noisy(&lower, &a, &[115.0, 116.0, 114.0, 115.5, 114.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge_noisy(&lower, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Ok
        );
        // Spread wider than the bound on either side: cannot tell.
        assert_eq!(
            judge_noisy(&lower, &a, &[80.0, 120.0, 100.0, 90.0, 110.0]),
            Verdict::Unresolved
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            judge_noisy(&higher, &a, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge_noisy(&higher, &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Ok
        );
        // A single run per side has no spread and is judged on its value.
        assert_eq!(judge_noisy(&lower, &[100.0], &[109.0]), Verdict::Ok);
    }

    #[test]
    fn exact_verdicts_flag_any_worsening() {
        assert_eq!(judge_exact(Better::Lower, &[57.5], &[57.5]), Verdict::Ok);
        assert_eq!(
            judge_exact(Better::Lower, &[57.5], &[57.5 * (1.0 + 1e-12)]),
            Verdict::Ok
        );
        assert_eq!(judge_exact(Better::Lower, &[57.5], &[57.6]), Verdict::Worse);
        assert_eq!(judge_exact(Better::Lower, &[57.5], &[40.0]), Verdict::Ok);
        assert_eq!(
            judge_exact(Better::Higher, &[50_000.0], &[49_999.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn run_log_lines_group_by_workload_and_pass() {
        let line = |w: &str, seed: u64, trace: bool, v: f64| {
            Value::obj([
                ("workload", Value::from(w)),
                ("seed", Value::from(seed as f64)),
                ("trace", Value::from(trace)),
                (
                    "result",
                    Value::obj([(
                        "metrics",
                        Value::obj([(
                            "setup_s",
                            Value::obj([("value", Value::from(v)), ("unit", Value::from("s"))]),
                        )]),
                    )]),
                ),
            ])
            .to_string()
        };
        let text = [
            line("serve_zipf", 11, false, 1.0),
            line("serve_zipf", 12, false, 3.0),
            line("serve_zipf", 11, true, 9.0),
            String::new(),
        ]
        .join("\n");
        let set = RunSet::parse(&text).unwrap();
        assert_eq!(
            set.get("serve_zipf", false, "setup_s"),
            Some(&vec![1.0, 3.0])
        );
        assert_eq!(set.get("serve_zipf", true, "setup_s"), Some(&vec![9.0]));
        assert_eq!(set.sorted_seeds("serve_zipf", false), vec![11, 12]);
        assert!(set.get("train_paper", false, "setup_s").is_none());
        assert!(RunSet::parse("{not json").is_err());
    }

    #[test]
    fn pretty_manifest_parses_back() {
        let m = crate::metrics::manifest();
        let text = pretty(&m);
        assert!(text.lines().count() > 20);
        assert_eq!(json::parse(&text).unwrap(), m);
    }
}
