//! Comparing two sets of result records, and the sensitivity
//! self-check built on it.
//!
//! `compare` groups records by workload and refuses to compare when the
//! two sets do not hold the same fingerprints (same workload, seeds,
//! sizes, query set, offered load) on the same kind of host. Otherwise
//! it flags every end-to-end metric whose median got worse by more than
//! the bound `BENCHMARK.json` fixes for it, and — the usual rule for
//! claiming a gain, turned around — every metric that got worse in nine
//! tenths of the seed-paired runs by more than the base set's own
//! quartile spread.

use crate::{median, record, run, RunOptions, Workload};
use std::collections::BTreeMap;
use std::time::Duration;
use threatraptor::JsonValue;

/// An end-to-end metric's regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The result of comparing two record sets.
#[derive(Debug, Default)]
pub struct Verdict {
    pub lines: Vec<String>,
    /// Metrics whose median got worse by more than the bound.
    pub regressions: usize,
    /// Metrics worse in at least nine tenths of the seed-paired runs
    /// (all of them when fewer than ten) by more than the base set's own
    /// quartile spread, though maybe within the bound.
    pub paired: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method); needs at least two values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance over the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn load_bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{spec}: {e:?}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{spec}: no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(JsonValue::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn str_at<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(doc, |v, k| v.get(k))?.as_str()
}

/// What must match for two records to be comparable: the fingerprint
/// plus the host's core count and build profile (not its commit).
fn comparable_key(doc: &JsonValue) -> String {
    let host = doc.get("host");
    format!(
        "{}|nproc={}|profile={}",
        doc.get("fingerprint")
            .map(JsonValue::compact)
            .unwrap_or_default(),
        host.and_then(|h| h.get("nproc"))
            .map(JsonValue::compact)
            .unwrap_or_default(),
        host.and_then(|h| h.get("profile"))
            .map(JsonValue::compact)
            .unwrap_or_default(),
    )
}

/// Compares `new` against `base`; `Err` is a refusal.
pub fn compare(base: &[JsonValue], new: &[JsonValue], bounds: &[Bound]) -> Result<Verdict, String> {
    let group = |records: &[JsonValue]| -> Result<BTreeMap<String, Vec<JsonValue>>, String> {
        let mut by_workload: BTreeMap<String, Vec<JsonValue>> = BTreeMap::new();
        for r in records {
            let workload =
                str_at(r, &["fingerprint", "workload"]).ok_or("record without a fingerprint")?;
            by_workload
                .entry(workload.to_string())
                .or_default()
                .push(r.clone());
        }
        Ok(by_workload)
    };
    let (base, new) = (group(base)?, group(new)?);
    if base.keys().ne(new.keys()) {
        return Err(format!(
            "the sets cover different workloads: {:?} vs {:?}",
            base.keys().collect::<Vec<_>>(),
            new.keys().collect::<Vec<_>>()
        ));
    }
    let mut verdict = Verdict::default();
    for (workload, base_runs) in &base {
        let new_runs = &new[workload];
        let keys = |runs: &[JsonValue]| {
            let mut k: Vec<String> = runs.iter().map(comparable_key).collect();
            k.sort();
            k.dedup();
            k
        };
        if keys(base_runs) != keys(new_runs) {
            return Err(format!(
                "{workload}: fingerprints differ — the two sets did not measure the same workload \
                 (or not on the same kind of host); refusing to compare"
            ));
        }
        let seed = |r: &JsonValue| r.get("fingerprint")?.get("seed")?.as_f64();
        for b in bounds {
            let value = |r: &JsonValue| r.get("end_to_end")?.get(&b.name)?.get("value")?.as_f64();
            let values =
                |runs: &[JsonValue]| -> Vec<f64> { runs.iter().filter_map(value).collect() };
            let (base_values, new_values) = (values(base_runs), values(new_runs));
            let (before, after) = (median(&base_values), median(&new_values));
            if before <= 0.0 {
                verdict
                    .lines
                    .push(format!("{workload:<13} {:<16} no base value", b.name));
                continue;
            }
            let sign = if b.lower_is_better { 1.0 } else { -1.0 };
            let change = after / before - 1.0;
            let beyond_bound = sign * change > b.bound;
            // Seed-paired runs: how many got worse.
            let pairs: Vec<(f64, f64)> = base_runs
                .iter()
                .filter_map(|r| {
                    let n = new_runs.iter().find(|n| seed(n) == seed(r))?;
                    Some((value(r)?, value(n)?))
                })
                .collect();
            let worse = pairs.iter().filter(|(x, y)| sign * (y - x) > 0.0).count();
            let needed = (pairs.len() * 9).div_ceil(10);
            let paired =
                pairs.len() >= 3 && worse >= needed && sign * change > spread(&base_values);
            verdict.regressions += usize::from(beyond_bound);
            verdict.paired += usize::from(paired && !beyond_bound);
            verdict.lines.push(format!(
                "{workload:<13} {:<16} {before:>12.4} -> {after:>12.4}  {:+7.1}%  bound {:>4.0}%  worse in {worse}/{} pairs  {}",
                b.name,
                change * 100.0,
                b.bound * 100.0,
                pairs.len(),
                if beyond_bound {
                    "REGRESSION"
                } else if paired {
                    "REGRESSION (paired, within bound)"
                } else {
                    "ok"
                }
            ));
        }
    }
    Ok(verdict)
}

fn read_records(paths: &[String]) -> Result<Vec<JsonValue>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            JsonValue::parse(&text).map_err(|e| format!("{p}: {e:?}"))
        })
        .collect()
}

/// `compare --base FILE... --new FILE... [--spec BENCHMARK.json]`.
/// Exit status: 0 no regression, 1 regression flagged (beyond a bound
/// or by the paired rule), 2 refused.
pub fn main(args: &[String]) -> i32 {
    let mut base = Vec::new();
    let mut new = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut into: Option<&mut Vec<String>> = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--base" => into = Some(&mut base),
            "--new" => into = Some(&mut new),
            "--spec" => spec = args.next().cloned().unwrap_or(spec),
            path => match into.as_mut() {
                Some(list) => list.push(path.to_string()),
                None => {
                    eprintln!("compare: unexpected argument {path}");
                    return 2;
                }
            },
        }
    }
    let result = load_bounds(&spec).and_then(|bounds| {
        let (base, new) = (read_records(&base)?, read_records(&new)?);
        compare(&base, &new, &bounds)
    });
    match result {
        Ok(verdict) => {
            for line in &verdict.lines {
                println!("{line}");
            }
            println!(
                "{} regression(s) beyond bound, {} more by the paired rule",
                verdict.regressions, verdict.paired
            );
            i32::from(verdict.regressions + verdict.paired > 0)
        }
        Err(refusal) => {
            eprintln!("compare: {refusal}");
            2
        }
    }
}

/// `self-check [--seeds K] [--seconds S] [--spec BENCHMARK.json]` (5
/// seeds, 20 s by default): runs
/// `explore-hunt` on K seeds, each seed three times in a row — clean,
/// with a busy-wait of 20% of the first clean `hunt_p50_ms` before each
/// submit, clean again — and passes when `compare` flags the slowed set
/// against the first clean set, and does not flag the second clean set.
/// Running each seed's three runs back to back keeps slow drift of the
/// host out of the pairs.
pub fn self_check(args: &[String]) -> i32 {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let seeds: u64 = flag("--seeds").and_then(|s| s.parse().ok()).unwrap_or(5);
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(20.0);
    let spec = flag("--spec")
        .cloned()
        .unwrap_or_else(|| "BENCHMARK.json".into());
    let bounds: Vec<Bound> = match load_bounds(&spec) {
        // All runs share this process, whose resident-set high-water mark
        // only grows from run to run: leave it out here.
        Ok(b) => b.into_iter().filter(|b| b.name != "peak_rss_mb").collect(),
        Err(e) => {
            eprintln!("self-check: {e}");
            return 2;
        }
    };
    let run_one = |seed: u64, inject: Duration| -> JsonValue {
        let opts = RunOptions {
            workload: Workload::ExploreHunt,
            seed,
            seconds,
            trace: false,
            inject_busy: inject,
        };
        let out = run(&opts);
        println!(
            "explore-hunt seed={seed} inject={:.3}ms hunt_p50_ms={:.4} hunts_per_s={:.4} failed={}",
            inject.as_secs_f64() * 1e3,
            out.end_to_end[1].value,
            out.end_to_end[3].value,
            out.failed
        );
        record(&opts, &out)
    };
    let (mut clean, mut injected, mut clean_again) = (Vec::new(), Vec::new(), Vec::new());
    let mut inject = Duration::ZERO;
    for seed in 1..=seeds {
        clean.push(run_one(seed, Duration::ZERO));
        if seed == 1 {
            let p50 = clean[0]
                .get("end_to_end")
                .and_then(|m| m.get("hunt_p50_ms")?.get("value")?.as_f64())
                .unwrap_or(0.0);
            inject = Duration::from_secs_f64(0.2 * p50 / 1e3);
        }
        injected.push(run_one(seed, inject));
        clean_again.push(run_one(seed, Duration::ZERO));
    }
    let (Ok(slow), Ok(same)) = (
        compare(&clean, &injected, &bounds),
        compare(&clean, &clean_again, &bounds),
    ) else {
        eprintln!("self-check: records not comparable");
        return 2;
    };
    println!(
        "-- clean vs injected ({:.3} ms busy-wait per submit):",
        inject.as_secs_f64() * 1e3
    );
    slow.lines.iter().for_each(|l| println!("{l}"));
    println!("-- clean vs clean:");
    same.lines.iter().for_each(|l| println!("{l}"));
    let flagged = |v: &Verdict| v.regressions + v.paired > 0;
    let pass = flagged(&slow) && !flagged(&same);
    println!(
        "self-check {}: injected slowdown {} flagged; same code {} flagged",
        if pass { "PASSED" } else { "FAILED" },
        if flagged(&slow) { "was" } else { "was NOT" },
        if flagged(&same) { "WAS" } else { "was not" },
    );
    i32::from(!pass)
}
