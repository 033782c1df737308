//! `huntbench` — the repository benchmark: three workloads driven
//! through the public serving API (`HuntServer` with
//! `ServerConfig::default()`), end-to-end metrics from an untraced
//! phase, per-layer metrics from a traced one, and output checks on
//! every operation.
//!
//! ```text
//! huntbench --workload <ioc-hunt|explore-hunt|live-follow> --seed N \
//!           --seconds S --trace <0|1> [--out record.json]
//! huntbench compare --base a.json ... --new b.json ... [--spec BENCHMARK.json]
//! huntbench self-check [--seeds K] [--seconds S] [--spec BENCHMARK.json]
//! ```
//!
//! A run prints a human-readable report, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--out` also writes the full record (fingerprint, host block, sample
//! counts, checks), which `compare` reads. See `README.md`.

mod compare;
mod layers;
mod live;
mod sealed;
mod stats;

use stats::{Metric, Series};
use std::time::Duration;
use threatraptor::JsonValue;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IocHunt,
    ExploreHunt,
    LiveFollow,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IocHunt,
        Workload::ExploreHunt,
        Workload::LiveFollow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IocHunt => "ioc-hunt",
            Workload::ExploreHunt => "explore-hunt",
            Workload::LiveFollow => "live-follow",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Busy-wait added before each hunt submit on the sealed workloads,
    /// inside the timed window: the self-check's injected slowdown.
    pub inject_busy: Duration,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What was measured: equal fingerprints mean comparable results.
    pub fingerprint: Vec<(&'static str, JsonValue)>,
    /// The untraced phase's end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// The traced phase's per-layer metrics (empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Operations attempted and failed (failed or wrong output).
    pub attempted: u64,
    pub failed: u64,
    /// The first few check failures, for the report.
    pub notes: Vec<String>,
}

/// Set-ups per run: `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Raw events per appended chunk (all workloads).
pub const CHUNK_EVENTS: usize = 512;

/// Median of a small sample (the set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The end-to-end metric set from one untraced phase.
pub fn end_to_end(
    setups: &[f64],
    hunts: &mut Series,
    hunts_per_s: f64,
    deliveries: &mut Series,
) -> Vec<Metric> {
    vec![
        Metric {
            samples: Some(setups.len()),
            ..Metric::new("setup_s", "s", median(setups))
        },
        Metric::pct("hunt_p50_ms", "ms", hunts, 50.0),
        Metric::pct("hunt_p90_ms", "ms", hunts, 90.0),
        Metric {
            samples: Some(hunts.len()),
            ..Metric::new("hunts_per_s", "1/s", hunts_per_s)
        },
        Metric::pct("delivery_p50_ms", "ms", deliveries, 50.0),
        Metric::pct("delivery_p90_ms", "ms", deliveries, 90.0),
        Metric::new("peak_rss_mb", "MiB", stats::peak_rss_mb()),
    ]
}

fn host_block() -> JsonValue {
    let nproc = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    JsonValue::Obj(vec![
        ("nproc".into(), JsonValue::Num(nproc as f64)),
        (
            "profile".into(),
            JsonValue::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "commit".into(),
            JsonValue::Str(std::env::var("HUNTBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "target".into(),
            JsonValue::Str(format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        ),
    ])
}

fn metrics_obj(metrics: &[Metric], with_samples: bool) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), JsonValue::Num(m.value)),
                    ("unit".to_string(), JsonValue::Str(m.unit.into())),
                ];
                if let (true, Some(n)) = (with_samples, m.samples) {
                    fields.push(("samples".to_string(), JsonValue::Num(n as f64)));
                }
                (m.name.to_string(), JsonValue::Obj(fields))
            })
            .collect(),
    )
}

/// The full result record (`--out`), read back by `compare`.
pub fn record(opts: &RunOptions, out: &Outcome) -> JsonValue {
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::Str("huntbench/v1".into())),
        (
            "fingerprint".into(),
            JsonValue::Obj(
                out.fingerprint
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("host".into(), host_block()),
        ("trace".into(), JsonValue::Bool(opts.trace)),
        (
            "inject_busy_ms".into(),
            JsonValue::Num(opts.inject_busy.as_secs_f64() * 1e3),
        ),
        ("end_to_end".into(), metrics_obj(&out.end_to_end, true)),
        ("per_layer".into(), metrics_obj(&out.per_layer, true)),
        (
            "checks".into(),
            JsonValue::Obj(vec![
                ("attempted".into(), JsonValue::Num(out.attempted as f64)),
                ("failed".into(), JsonValue::Num(out.failed as f64)),
                ("error_frac".into(), JsonValue::Num(error_frac)),
                (
                    "notes".into(),
                    JsonValue::Arr(out.notes.iter().cloned().map(JsonValue::Str).collect()),
                ),
            ]),
        ),
    ])
}

/// Runs one workload.
pub fn run(opts: &RunOptions) -> Outcome {
    match opts.workload {
        Workload::IocHunt | Workload::ExploreHunt => sealed::run(opts),
        Workload::LiveFollow => live::run(opts),
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let samples = match m.samples {
            Some(n) if m.withheld() => format!("(withheld: n={n} is too few)"),
            Some(n) => format!("(n={n})"),
            None => String::new(),
        };
        println!("  {:<36} {:>14.4} {:<6} {samples}", m.name, m.value, m.unit);
    }
}

fn report(opts: &RunOptions, out: &Outcome) {
    println!(
        "== huntbench {} seed={} seconds={} trace={} ==",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let fp: Vec<String> = out
        .fingerprint
        .iter()
        .map(|(k, v)| format!("{k}={}", v.compact()))
        .collect();
    println!("fingerprint: {}", fp.join(" "));
    println!("host: {}", host_block().compact());
    print_metrics("end-to-end (untraced phase):", &out.end_to_end);
    println!(
        "  {:<36} {:>14.4} {:<6} ({} of {} operations failed or wrong)",
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.failed,
        out.attempted
    );
    if opts.trace {
        print_metrics("per-layer (traced phase):", &out.per_layer);
    }
    for note in &out.notes {
        println!("check failed: {note}");
    }
}

/// The contract line: the last line of standard output.
fn contract_line(opts: &RunOptions, out: &Outcome) -> String {
    let metrics = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(out.failed == 0)),
        ("attempted".into(), JsonValue::Num(out.attempted as f64)),
        ("failed".into(), JsonValue::Num(out.failed as f64)),
        ("metrics".into(), metrics_obj(metrics, false)),
    ])
    .compact()
}

fn usage() -> ! {
    eprintln!(
        "usage: huntbench --workload <ioc-hunt|explore-hunt|live-follow> --seed N --seconds S \
         --trace <0|1> [--out FILE]\n       \
         huntbench compare --base FILE... --new FILE... [--spec BENCHMARK.json]\n       \
         huntbench self-check [--seeds K] [--seconds S] [--spec BENCHMARK.json]"
    );
    std::process::exit(2);
}

/// `--flag value` lookup over the raw argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or_usage<T: std::str::FromStr>(value: Option<&str>, default: Option<T>) -> T {
    match value {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => default.unwrap_or_else(|| usage()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => std::process::exit(compare::main(&args[1..])),
        Some("self-check") => std::process::exit(compare::self_check(&args[1..])),
        _ => {}
    }
    let workload = flag(&args, "--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage());
    let opts = RunOptions {
        workload,
        seed: parse_or_usage(flag(&args, "--seed"), None),
        seconds: parse_or_usage::<f64>(flag(&args, "--seconds"), None).max(0.1),
        trace: parse_or_usage::<u8>(flag(&args, "--trace"), Some(0)) != 0,
        inject_busy: Duration::ZERO,
    };
    let out = run(&opts);
    report(&opts, &out);
    if let Some(path) = flag(&args, "--out") {
        if let Err(e) = std::fs::write(path, record(&opts, &out).pretty() + "\n") {
            eprintln!("huntbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", contract_line(&opts, &out));
}
