//! `rangebench`: the cyber range's end-to-end and per-layer benchmark.
//!
//! ```text
//! rangebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rangebench --record-digests
//! ```
//!
//! A run prints a human-readable table on stderr, then two JSON lines on
//! stdout: the full record (provenance stamp, `sim_digest`, every metric
//! with its sample count) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! untraced (`--trace 0`), per-layer metrics traced (`--trace 1`). The exit
//! code is 0 only when every operation succeeded and the `sim_digest`
//! matches the one recorded in `digests.json`. See README.md.

mod cputime;
mod hostspeed;
mod outcome;
mod probes;
mod spans;
mod stamp;
mod stats;
mod workloads;

use sgcr_obs::json::{self, quote};
use stamp::Stamp;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Ctx, Sizes, Workload, ADVERSARY_SEED_CLASSES};

/// The recorded `sim_digest` of every workload (per seed class for the
/// adversary workload), regenerated with `--record-digests`.
const RECORDED: &str = include_str!("../digests.json");

/// One measured quantity.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples (or repetitions) the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(why());
        }
    }

    /// Counts one operation by its result.
    pub fn result<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => {
                self.attempted += 1;
                Some(value)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    /// Keeps a failure reason (the first twenty).
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// This tally with one more failed operation.
    pub fn with_failure(mut self, why: String) -> Tally {
        self.check(false, || why);
        self
    }
}

/// What a workload run produced.
pub struct RunResult {
    pub tally: Tally,
    pub digest: u64,
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Reported but not gated: zero-prone or workload-specific quantities.
    pub extra: Vec<Metric>,
}

impl RunResult {
    pub fn new(tally: Tally, digest: u64, e2e: Vec<Metric>) -> RunResult {
        RunResult {
            tally,
            digest,
            e2e,
            layers: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// A run that could not get far enough to measure anything.
    pub fn failed(tally: Tally) -> RunResult {
        RunResult::new(tally, 0, Vec::new())
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: rangebench --workload <paper-5x104|epic-farm|epic-adversary-farm> \
[--seed N] [--seconds S] [--trace 0|1]\n       rangebench --record-digests";

fn parse(args: &[String]) -> Result<Option<Options>, String> {
    if args == ["--record-digests"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Options {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Scratch space next to the build output (`<target dir>/rangebench-work`),
/// so a run writes only inside the checkout it was built in.
fn work_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("rangebench-work")))
        .unwrap_or_else(|| PathBuf::from("rangebench-work"))
}

/// The recorded digest of a `workload` run at `seed` that plays `campaigns`
/// adversary campaign classes, if there is one.
fn recorded_digest(workload: Workload, seed: u64, campaigns: usize) -> Option<String> {
    let root = json::parse(RECORDED).ok()?;
    let entry = root.get(workload.name())?;
    let Some(per_class) = entry.as_array() else {
        return entry.as_str().map(str::to_string);
    };
    let c = ADVERSARY_SEED_CLASSES;
    let mut classes: Vec<u64> = (0..campaigns.max(1) as u64)
        .map(|j| (seed % c + j) % c)
        .collect();
    classes.sort_unstable();
    classes.dedup();
    let digests = classes
        .iter()
        .map(|&class| u64::from_str_radix(per_class.get(class as usize)?.as_str()?, 16).ok())
        .collect::<Option<Vec<u64>>>()?;
    Some(outcome::hex(outcome::over_campaigns(&digests)))
}

/// A JSON number with every digit the value has (non-finite values, which
/// no metric should produce, render as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{}:{{\"value\":{},\"unit\":{}",
            quote(m.name),
            number(m.value),
            quote(m.unit)
        );
        if with_samples {
            let _ = write!(out, ",\"samples\":{}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn run(options: &Options) -> ExitCode {
    let stamp = Stamp::collect(options.seed);
    let name = options.workload.name();
    let root = work_root();
    let work = root.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("rangebench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let sizes = Sizes::full(options.workload);
    let budget = Duration::from_secs_f64(options.seconds);
    let mut ctx = Ctx::new(
        options.seed,
        budget,
        options.trace,
        work.clone(),
        sizes,
        options.workload.kernel(),
    );
    let mut result = options.workload.run(&mut ctx);
    let _ = std::fs::remove_dir_all(&work);
    let reference = ctx.speed.samples();
    let reference_ms = stats::median(reference).unwrap_or(0.0);
    result.extra.extend([
        Metric::new("host_reference_ms", "ms", reference_ms, reference.len()),
        Metric::new(
            "host_scale",
            "ratio",
            ctx.speed.nominal_ms() / reference_ms.max(1e-9),
            reference.len(),
        ),
    ]);

    let digest = outcome::hex(result.digest);
    let recorded = recorded_digest(options.workload, options.seed, sizes.campaigns);
    result
        .tally
        .check(recorded.as_deref() == Some(digest.as_str()), || {
            format!("sim_digest {digest} does not match the recorded {recorded:?}")
        });
    let metrics = if options.trace {
        &result.layers
    } else {
        &result.e2e
    };
    for m in metrics.iter().chain(&result.extra) {
        result
            .tally
            .check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    let spans_path = options.trace.then(|| {
        let path = root.join(format!("spans-{name}-seed{}.jsonl", options.seed));
        let written = std::fs::write(&path, ctx.spans.to_jsonl());
        result.tally.check(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
        path
    });

    let tally = &result.tally;
    let correct = tally.failed == 0;
    eprintln!(
        "rangebench {name} seed {} ({}s, trace {}) on {} ({} cpus), {}, {}, commit {}",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        stamp.host,
        stamp.nproc,
        stamp.rustc,
        stamp.date,
        stamp.commit
    );
    for m in metrics.iter().chain(&result.extra) {
        eprintln!(
            "  {:<32} {:>14.6} {:<20} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "  sim_digest {digest} ({}) | attempted {} failed {} (fail_frac {:.6})",
        if recorded.as_deref() == Some(digest.as_str()) {
            "matches the recorded digest"
        } else {
            "MISMATCH"
        },
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for note in &tally.notes {
        eprintln!("  failure: {note}");
    }
    if let Some(path) = &spans_path {
        eprintln!("  {} spans written to {}", ctx.spans.len(), path.display());
    }

    let notes: Vec<String> = tally.notes.iter().map(|n| quote(n)).collect();
    println!(
        "{{\"record\":{{\"workload\":{},\"trace\":{},\"seconds\":{},\"stamp\":{},\"sim_digest\":{},\"metrics\":{},\"extra\":{},\"failures\":[{}]}}}}",
        quote(name),
        options.trace,
        number(options.seconds),
        stamp.to_json(),
        quote(&digest),
        metrics_json(metrics, true),
        metrics_json(&result.extra, true),
        notes.join(",")
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json(metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Recomputes every recorded digest (with the least work that yields the
/// full-size digest) and rewrites `digests.json`.
fn record_digests() -> ExitCode {
    let work = work_root().join(format!("record-{}", std::process::id()));
    let mut out = String::from("{\n");
    let mut ok = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let seeds: Vec<u64> = match workload {
            Workload::AdversaryFarm => (0..ADVERSARY_SEED_CLASSES).collect(),
            _ => vec![0],
        };
        let mut digests = Vec::new();
        for seed in seeds {
            let _ = std::fs::create_dir_all(&work);
            let mut ctx = Ctx::new(
                seed,
                Duration::ZERO,
                false,
                work.clone(),
                Sizes::record(workload),
                workload.kernel(),
            );
            let result = workload.run(&mut ctx);
            let _ = std::fs::remove_dir_all(&work);
            if result.tally.failed > 0 {
                eprintln!("{} seed {seed}: {:?}", workload.name(), result.tally.notes);
                ok = false;
            }
            eprintln!(
                "{} seed {seed}: {}",
                workload.name(),
                outcome::hex(result.digest)
            );
            digests.push(quote(&outcome::hex(result.digest)));
        }
        let value = match workload {
            Workload::AdversaryFarm => format!("[\n    {}\n  ]", digests.join(",\n    ")),
            _ => digests.join(""),
        };
        let sep = if w + 1 == Workload::ALL.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "  {}: {value}{sep}", quote(workload.name()));
    }
    out.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.json");
    if !ok {
        eprintln!("not writing {path}: some runs failed");
        return ExitCode::from(1);
    }
    match std::fs::write(path, out) {
        Ok(()) => {
            eprintln!("wrote {path}; rebuild to embed it");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Some(options)) => run(&options),
        Ok(None) => record_digests(),
        Err(e) => {
            eprintln!("rangebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_adversary::{plan, AttackGraph, PlanRequest};
    use sgcr_core::CompiledModel;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> RunResult {
        let work = work_root().join(format!(
            "test-{}-{seed}-{trace}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&work).expect("scratch dir");
        let mut ctx = Ctx::new(
            seed,
            Duration::ZERO,
            trace,
            work.clone(),
            Sizes::tiny(workload),
            workload.kernel(),
        );
        let result = workload.run(&mut ctx);
        let _ = std::fs::remove_dir_all(&work);
        assert_eq!(
            result.tally.failed,
            0,
            "{}: {:?}",
            workload.name(),
            result.tally.notes
        );
        result
    }

    const E2E: [&str; 6] = [
        "setup_s",
        "sim_s_per_cpu_s",
        "step_p50_ms",
        "resume_s",
        "exercise_p50_ms",
        "rss_mb_per_tenant",
    ];

    fn check_smoke(workload: Workload) {
        let result = tiny(workload, 3, true);
        let names: Vec<&str> = result.e2e.iter().map(|m| m.name).collect();
        assert_eq!(names, E2E);
        assert!(
            result.layers.len() >= 30,
            "{} layer metrics",
            result.layers.len()
        );
        let layer = |name: &str| {
            result
                .layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        let planes: f64 = ["power", "net", "ied", "plc", "scada", "other"]
            .iter()
            .map(|p| layer(&format!("step.plane.{p}_ms")))
            .sum();
        let step = layer("core.step_ms");
        assert!((planes + layer("step.unattributed_ms") - step).abs() < 1e-9 * step.max(1.0));
        for m in result.e2e.iter().chain(&result.layers) {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }

    #[test]
    fn paper_smoke() {
        check_smoke(Workload::Paper);
    }

    #[test]
    fn epic_farm_smoke() {
        check_smoke(Workload::EpicFarm);
    }

    #[test]
    fn adversary_farm_smoke() {
        check_smoke(Workload::AdversaryFarm);
    }

    #[test]
    fn same_seed_same_digest() {
        let a = tiny(Workload::EpicFarm, 5, false).digest;
        let b = tiny(Workload::EpicFarm, 5, false).digest;
        assert_eq!(a, b);
        let adversary = tiny(Workload::AdversaryFarm, 5, false).digest;
        assert_eq!(adversary, tiny(Workload::AdversaryFarm, 5, false).digest);
        // The adversary horizon is the scenario's, so the tiny profile
        // reproduces the recorded full-size digest.
        let campaigns = Sizes::tiny(Workload::AdversaryFarm).campaigns;
        assert_eq!(
            recorded_digest(Workload::AdversaryFarm, 5, campaigns),
            Some(outcome::hex(adversary))
        );
    }

    #[test]
    fn adversary_seed_changes_the_plan() {
        let model = CompiledModel::shared(&sgcr_models::epic_bundle()).expect("EPIC compiles");
        let graph = AttackGraph::derive(&model);
        let plan_for = |seed: u64| {
            let scenario = workloads::adversary_scenario(seed).expect("scenario parses");
            let adv = scenario.adversary.expect("declares an adversary");
            let request = PlanRequest {
                goal: &adv.goal,
                budget: adv.budget,
                seed: adv.seed,
                ..PlanRequest::default()
            };
            plan(&graph, &request).expect("plans").to_json()
        };
        assert_eq!(plan_for(1), plan_for(1));
        assert_ne!(plan_for(0), plan_for(1));
        // Seeds map onto the recorded seed classes.
        assert_eq!(plan_for(1), plan_for(1 + ADVERSARY_SEED_CLASSES));
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload epic-farm --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("parses")
        .expect("a run");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::EpicFarm, 7, 2.5, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload epic-farm --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--record-digests")).expect("parses").is_none());
    }
}
