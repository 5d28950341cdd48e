//! `sgml_processor` — the command-line face of the SG-ML Processor: loads a
//! bundle directory of SG-ML model files, compiles it into an operational
//! cyber range, reports the generated inventory, and optionally runs it.
//!
//! One table, `COMMANDS`, declares every subcommand with its positional
//! argument and its flags. It validates the command line, turns it into a
//! typed `Cmd`, and generates the synopsis `sgml_processor help` prints.
//!
//! `build` compiles the bundle and prints the generated inventory without
//! advancing simulated time. `run` additionally co-simulates `--seconds` of
//! range time (default 10); with `--metrics` it enables the telemetry
//! subsystem and writes a JSON metrics snapshot to the given file, and with
//! `--journal` it writes the typed event journal as JSON Lines. `--trace`
//! enables causal tracing and writes a Chrome trace-event JSON file (loadable
//! in Perfetto, one track per plane); `--spans` writes the raw span log as
//! JSON Lines.
//!
//! `lint` runs the `sgcr-lint` static analyzer over the bundle *without*
//! constructing a cyber range: files are parsed leniently, cross-file
//! references, network addressing, power topology, protection sanity,
//! PLC control-logic semantics, and bundle hygiene are checked, and
//! findings are printed as coded, span-carrying diagnostics. Exit codes:
//! `0` when clean or warnings-only, `1` for warnings under
//! `--deny-warnings`, `2` when any finding is an error. `--format sarif`
//! emits SARIF 2.1.0 for CI ingestion. `--cache <dir>` keys the report on
//! every file's name and bytes: a bundle linted before replays its stored
//! report, any other is linted and stored; the hit or miss goes to stderr,
//! and stdout stays byte-identical to the uncached run.
//!
//! `run`, `exercise` and `serve` front-gate the bundle through the same
//! analyzer: lint *errors* abort before the range starts (exit 2), warnings
//! are reported on stderr but do not block. `--no-check` skips the gate.
//! Every subcommand that builds a model reads and parses the bundle
//! directory once: the gate lints that load, and the model is compiled
//! from it (a bundle that does not compile exits 1).
//!
//! `exercise` compiles the bundle and runs a declarative exercise scenario
//! (`*.scenario.xml`) against it via `sgcr-scenario`: stages fire on
//! schedule, objectives are polled each step, and the scored after-action
//! report is printed as text (and written as deterministic JSON with
//! `--report`). `--scenario` may be omitted when the bundle ships exactly
//! one scenario file. A failed objective is a scored *result*, not an
//! error — the exit code is nonzero only when the exercise cannot run.
//!
//! `--fault-seed` (on `run` and `exercise`) seeds the deterministic
//! fault-injection PRNG (`sgcr-faults`): identical seeds replay identical
//! loss/jitter/corruption patterns. On `exercise` the flag overrides any
//! `faultSeed=` attribute in the scenario XML.
//!
//! `serve` is the multi-tenant **range farm**: the bundle is compiled
//! *once* into an immutable shared model, then `--tenants` independent
//! ranges (or scored exercises, with `--scenario`) run concurrently across
//! a worker thread pool. Tenant `i` uses fault seed `--fault-seed + i`, so
//! every tenant is individually byte-replayable. With `--out <dir>` each
//! tenant streams its own `tenant-NNNN.journal.jsonl` and
//! `tenant-NNNN.metrics.json`; `--step-budget-ms` enforces a per-tenant
//! wall-clock step budget (`--max-overruns` halts repeat offenders), and
//! `--report` writes the farm throughput/latency report (ranges/sec, p50,
//! p99, max step latency) as JSON; the benchmark ledger is
//! `BENCH_range.jsonl`, appended by `scripts/bench_pairs.sh`.
//! `--status-addr <host:port>` additionally serves the farm's live state
//! over HTTP while it runs: `/metrics` is the bucket-merged farm metric
//! registry in Prometheus text exposition format, `/status` is
//! deterministic per-tenant JSON, `/healthz` is a liveness probe — and the
//! same endpoint is the dynamic lifecycle API (`POST /tenants` admits a
//! tenant mid-run, `DELETE /tenants/<id>` drains one gracefully).
//! `--max-restarts` turns on the farm supervisor: halted or crashed
//! tenants restart from their last mid-run checkpoint with exponential
//! backoff (base `--restart-backoff-ms`, default 100) until the restart
//! budget is exhausted; `--admit-max` caps how many extra tenants the
//! lifecycle API may admit beyond the initial fleet.
//!
//! `watch` is the companion dashboard: it polls a running farm's
//! `--status-addr` endpoint every `--interval-ms` (default 1000) and
//! redraws a per-tenant state table until the farm finishes (or
//! `--iterations` polls have been made). Transient scrape failures are
//! retried with capped exponential backoff instead of killing the
//! dashboard; only repeated consecutive failures end it.
//!
//! `attack-graph` derives the adversary plane's attack graph from the
//! compiled model and prints it as JSON or Graphviz DOT.

use sgcr_core::{CompiledModel, FileRole, RangeBuilder};
use sgcr_farm::{run_farm, FarmConfig};
use sgcr_lint::source::LoadedBundle;
use sgcr_lint::{engine, json, lint_bundle, report, sarif};
use sgcr_net::SimDuration;
use sgcr_obs::Telemetry;
use sgcr_scenario::{run_exercise, Scenario};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default co-simulated duration for `run` when `--seconds` is omitted.
const DEFAULT_RUN_SECONDS: u64 = 10;

/// Default tenant count for `serve` when `--tenants` is omitted.
const DEFAULT_SERVE_TENANTS: usize = 8;

/// Default co-simulated seconds per tenant for `serve`.
const DEFAULT_SERVE_SECONDS: u64 = 10;

/// Default `watch` poll interval when `--interval-ms` is omitted.
const DEFAULT_WATCH_INTERVAL_MS: u64 = 1000;

/// One subcommand: its positional argument, its flags, and how a command
/// line checked against them becomes a typed [`Cmd`].
struct Command {
    name: &'static str,
    arg: &'static str,
    /// Each flag with the placeholder of its value, or `None` for a switch.
    /// `<n>` is an unsigned integer and `a|b` one of the alternatives.
    flags: &'static [(&'static str, Option<&'static str>)],
    parse: fn(&Matches<'_>) -> Result<Cmd, String>,
}

impl Command {
    /// `name`'s entry in this subcommand's flag list.
    fn flag(&self, name: &str) -> Option<(&'static str, Option<&'static str>)> {
        self.flags.iter().copied().find(|(flag, _)| *flag == name)
    }
}

const SWITCH: Option<&str> = None;
const N: Option<&str> = Some("<n>");
const FILE: Option<&str> = Some("<file>");
const DIR: Option<&str> = Some("<dir>");

/// Every subcommand. Parsing, the usage text and the docs-drift test all
/// read this table: a flag exists exactly when it is listed here.
const COMMANDS: &[Command] = &[
    Command {
        name: "build",
        arg: "<bundle-dir>",
        flags: &[("--dot", SWITCH)],
        // `build` never runs the range, so it is not front-gated.
        parse: |m| {
            Ok(Cmd::Generate(Generate {
                dir: m.arg.into(),
                seconds: None,
                dot: m.switch("--dot"),
                no_check: true,
                sinks: Sinks::default(),
                fault_seed: None,
            }))
        },
    },
    Command {
        name: "run",
        arg: "<bundle-dir>",
        flags: &[
            ("--seconds", N),
            ("--dot", SWITCH),
            ("--no-check", SWITCH),
            ("--metrics", FILE),
            ("--journal", FILE),
            ("--trace", FILE),
            ("--spans", FILE),
            ("--fault-seed", N),
        ],
        parse: |m| {
            Ok(Cmd::Generate(Generate {
                dir: m.arg.into(),
                seconds: Some(m.value("--seconds")?.unwrap_or(DEFAULT_RUN_SECONDS)),
                dot: m.switch("--dot"),
                no_check: m.switch("--no-check"),
                sinks: Sinks {
                    metrics: m.value("--metrics")?,
                    journal: m.value("--journal")?,
                    trace: m.value("--trace")?,
                    spans: m.value("--spans")?,
                },
                fault_seed: m.value("--fault-seed")?,
            }))
        },
    },
    Command {
        name: "lint",
        arg: "<bundle-dir>",
        flags: &[
            ("--format", Some("text|json|sarif")),
            ("--cache", DIR),
            ("--deny-warnings", SWITCH),
        ],
        parse: |m| {
            Ok(Cmd::Lint(Lint {
                dir: m.arg.into(),
                format: m.value("--format")?.unwrap_or(Format::Text),
                cache: m.value("--cache")?,
                deny_warnings: m.switch("--deny-warnings"),
            }))
        },
    },
    Command {
        name: "exercise",
        arg: "<bundle-dir>",
        flags: &[
            ("--scenario", FILE),
            ("--report", FILE),
            ("--journal", FILE),
            ("--trace", FILE),
            ("--fault-seed", N),
            ("--no-check", SWITCH),
        ],
        parse: |m| {
            Ok(Cmd::Exercise(Exercise {
                dir: m.arg.into(),
                scenario: m.value("--scenario")?,
                report: m.value("--report")?,
                sinks: Sinks {
                    journal: m.value("--journal")?,
                    trace: m.value("--trace")?,
                    ..Sinks::default()
                },
                fault_seed: m.value("--fault-seed")?,
                no_check: m.switch("--no-check"),
            }))
        },
    },
    Command {
        name: "attack-graph",
        arg: "<bundle-dir>",
        flags: &[("--format", Some("json|dot"))],
        parse: |m| {
            Ok(Cmd::AttackGraph(AttackGraph {
                dir: m.arg.into(),
                format: m.value("--format")?.unwrap_or(GraphFormat::Json),
            }))
        },
    },
    Command {
        name: "serve",
        arg: "<bundle-dir>",
        flags: &[
            ("--tenants", N),
            ("--threads", N),
            ("--seconds", N),
            ("--scenario", FILE),
            ("--out", DIR),
            ("--report", FILE),
            ("--step-budget-ms", N),
            ("--max-overruns", N),
            ("--max-restarts", N),
            ("--restart-backoff-ms", N),
            ("--admit-max", N),
            ("--fault-seed", N),
            ("--status-addr", Some("<host:port>")),
            ("--no-check", SWITCH),
        ],
        parse: |m| {
            let farm = FarmConfig {
                tenants: m.value("--tenants")?.unwrap_or(DEFAULT_SERVE_TENANTS),
                threads: m.value("--threads")?.unwrap_or_default(),
                sim_seconds: m.value("--seconds")?.unwrap_or(DEFAULT_SERVE_SECONDS),
                out_dir: m.value("--out")?,
                step_budget_ms: m.value("--step-budget-ms")?,
                max_overruns: m.value("--max-overruns")?.unwrap_or_default(),
                restart_max: m.value("--max-restarts")?.unwrap_or_default(),
                restart_backoff_ms: m.value("--restart-backoff-ms")?.unwrap_or_default(),
                admit_max: m.value("--admit-max")?.unwrap_or_default(),
                base_fault_seed: m.value("--fault-seed")?.unwrap_or_default(),
                status_addr: m.value("--status-addr")?,
                ..FarmConfig::default()
            };
            if farm.tenants == 0 {
                return Err(String::from("`--tenants` must be at least 1"));
            }
            Ok(Cmd::Serve(Box::new(Serve {
                dir: m.arg.into(),
                scenario: m.value("--scenario")?,
                report: m.value("--report")?,
                no_check: m.switch("--no-check"),
                farm,
            })))
        },
    },
    Command {
        name: "watch",
        arg: "<host:port>",
        flags: &[("--interval-ms", N), ("--iterations", N)],
        parse: |m| {
            Ok(Cmd::Watch(Watch {
                addr: m.arg.into(),
                interval_ms: m
                    .value("--interval-ms")?
                    .unwrap_or(DEFAULT_WATCH_INTERVAL_MS),
                iterations: m.value("--iterations")?,
            }))
        },
    },
];

/// A command line checked against its [`Command`].
struct Matches<'a> {
    command: &'static Command,
    arg: &'a str,
    /// Each flag given, with its value (`None` for a switch); a repeated
    /// flag keeps its last value.
    given: BTreeMap<&'static str, Option<&'a str>>,
}

impl Matches<'_> {
    fn given(&self, flag: &str) -> Option<Option<&str>> {
        debug_assert!(
            self.command.flag(flag).is_some(),
            "`{flag}` is not a `{}` flag in COMMANDS",
            self.command.name
        );
        self.given.get(flag).copied()
    }

    fn switch(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The value given for `flag`, parsed into the type its handler consumes.
    fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(Some(text)) = self.given(flag) else {
            return Ok(None);
        };
        text.parse().map(Some).map_err(|_| {
            let placeholder = self.command.flag(flag).and_then(|(_, p)| p);
            let expected = match placeholder.unwrap_or_default() {
                "<n>" => "an unsigned integer",
                alternatives => alternatives,
            };
            format!("`{flag}` expects {expected}, found `{text}`")
        })
    }
}

/// Parses command-line arguments (without the program name) against
/// [`COMMANDS`]. Pure, so the whole surface is unit-testable.
fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let (name, rest) = args.split_first().ok_or("missing subcommand")?;
    if matches!(name.as_str(), "help" | "-h" | "--help") {
        return Ok(Cmd::Help);
    }
    let command = COMMANDS
        .iter()
        .find(|command| command.name == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let (arg, rest) = match rest.split_first() {
        Some((arg, rest)) if !arg.starts_with('-') => (arg, rest),
        Some((flag, _)) => return Err(format!("expected {}, found `{flag}`", command.arg)),
        None => return Err(format!("missing {}", command.arg)),
    };
    let mut given = BTreeMap::new();
    let mut rest = rest.iter();
    while let Some(word) = rest.next() {
        let (flag, placeholder) = command
            .flag(word)
            .ok_or_else(|| format!("unknown argument `{word}` for `{name}`"))?;
        let value = match placeholder {
            Some(_) => Some(
                rest.next()
                    .ok_or_else(|| format!("`{flag}` requires a value"))?
                    .as_str(),
            ),
            None => None,
        };
        given.insert(flag, value);
    }
    (command.parse)(&Matches {
        command,
        arg,
        given,
    })
}

/// The synopsis of every subcommand, generated from [`COMMANDS`] and
/// wrapped at 80 columns.
fn usage() -> String {
    let mut out = String::new();
    for (i, command) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let mut line = format!("{lead} sgml_processor {} {}", command.name, command.arg);
        for (flag, placeholder) in command.flags {
            let item = match placeholder {
                Some(placeholder) => format!(" [{flag} {placeholder}]"),
                None => format!(" [{flag}]"),
            };
            if line.len() + item.len() > 80 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(10);
            }
            line.push_str(&item);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("       sgml_processor help\n");
    out
}

/// `lint --format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

impl FromStr for Format {
    type Err = ();

    fn from_str(s: &str) -> Result<Format, ()> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "sarif" => Ok(Format::Sarif),
            _ => Err(()),
        }
    }
}

/// `attack-graph --format` (no SARIF — it is a graph, not a diagnostic
/// list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphFormat {
    Json,
    Dot,
}

impl FromStr for GraphFormat {
    type Err = ();

    fn from_str(s: &str) -> Result<GraphFormat, ()> {
        match s {
            "json" => Ok(GraphFormat::Json),
            "dot" => Ok(GraphFormat::Dot),
            _ => Err(()),
        }
    }
}

/// A parsed invocation: one subcommand with every flag already in the type
/// its handler consumes.
#[derive(Debug, PartialEq)]
enum Cmd {
    Help,
    Generate(Generate),
    Lint(Lint),
    Exercise(Exercise),
    AttackGraph(AttackGraph),
    Serve(Box<Serve>),
    Watch(Watch),
}

/// `build`, or `run` when `seconds` is set.
#[derive(Debug, PartialEq)]
struct Generate {
    dir: String,
    seconds: Option<u64>,
    dot: bool,
    no_check: bool,
    sinks: Sinks,
    fault_seed: Option<u64>,
}

#[derive(Debug, PartialEq)]
struct Lint {
    dir: String,
    format: Format,
    cache: Option<PathBuf>,
    deny_warnings: bool,
}

#[derive(Debug, PartialEq)]
struct Exercise {
    dir: String,
    scenario: Option<String>,
    report: Option<String>,
    sinks: Sinks,
    fault_seed: Option<u64>,
    no_check: bool,
}

#[derive(Debug, PartialEq)]
struct AttackGraph {
    dir: String,
    format: GraphFormat,
}

/// `serve`. `farm.scenario` stays unset until the handler reads `scenario`.
#[derive(Debug, PartialEq)]
struct Serve {
    dir: String,
    scenario: Option<String>,
    report: Option<String>,
    no_check: bool,
    farm: FarmConfig,
}

#[derive(Debug, PartialEq)]
struct Watch {
    addr: String,
    interval_ms: u64,
    iterations: Option<u64>,
}

/// A handler's exit code, or the message of a failure that exits 1.
type Outcome = Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(message) => {
            eprint!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
        Ok(Cmd::Help) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Cmd::Generate(cmd)) => generate(cmd),
        Ok(Cmd::Lint(cmd)) => lint(cmd),
        Ok(Cmd::Exercise(cmd)) => exercise(cmd),
        Ok(Cmd::AttackGraph(cmd)) => attack_graph(cmd),
        Ok(Cmd::Serve(cmd)) => serve(*cmd),
        Ok(Cmd::Watch(cmd)) => watch(cmd),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::FAILURE
    })
}

/// Output files requested for a `run` or `exercise`: each enables the
/// corresponding part of the observability subsystem only when set.
#[derive(Debug, Default, PartialEq)]
struct Sinks {
    metrics: Option<String>,
    journal: Option<String>,
    trace: Option<String>,
    spans: Option<String>,
}

impl Sinks {
    /// A telemetry handle that records what the sinks need: spans for a
    /// trace or span log, metrics and journal for those sinks or when
    /// `always` is set, and otherwise the zero-overhead disabled handle.
    fn telemetry(&self, always: bool) -> Telemetry {
        if self.trace.is_some() || self.spans.is_some() {
            Telemetry::with_tracing()
        } else if always || self.metrics.is_some() || self.journal.is_some() {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        }
    }

    /// Writes whichever sinks were requested.
    fn write(&self, telemetry: &Telemetry) -> Result<(), String> {
        if let Some(path) = &self.metrics {
            write_file(path, "metrics", telemetry.snapshot().to_json())?;
            eprintln!("metrics snapshot written to {path}");
        }
        if let Some(path) = &self.journal {
            write_file(path, "journal", telemetry.journal_jsonl())?;
            eprintln!(
                "event journal written to {path} ({} events, {} evicted)",
                telemetry.events().len(),
                telemetry.events_dropped()
            );
        }
        if let Some(path) = &self.trace {
            write_file(path, "trace", telemetry.tracer().chrome_trace_json())?;
            eprintln!(
                "Chrome trace written to {path} ({} spans, {} evicted) — open in ui.perfetto.dev",
                telemetry.spans().len(),
                telemetry.spans_dropped()
            );
        }
        if let Some(path) = &self.spans {
            write_file(path, "span log", telemetry.tracer().spans_jsonl())?;
            eprintln!("span log written to {path}");
        }
        Ok(())
    }
}

fn write_file(path: &str, what: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {what} to {path}: {e}"))
}

fn invalid_scenario(e: impl std::fmt::Display) -> String {
    format!("invalid scenario: {e}")
}

fn read_scenario(path: &str) -> Result<Scenario, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Scenario::parse(&xml).map_err(invalid_scenario)
}

/// Reads and parses the bundle directory — the one load of every
/// subcommand that builds a model: the front gate lints it, and the model
/// is compiled from it.
fn load(dir: &str) -> Result<LoadedBundle, String> {
    LoadedBundle::from_dir(dir).map_err(|e| e.to_string())
}

/// The compiled model of a loaded bundle, reporting what was loaded and the
/// compiler's diagnostics on stderr.
fn compile(dir: &str, bundle: &LoadedBundle) -> Result<Arc<CompiledModel>, String> {
    let count = |role| bundle.files.iter().filter(|f| f.role == role).count();
    eprintln!(
        "loaded {}: {} SSD, {} SCD, {} ICD, {} SED, supplementary: ied={} scada={} plc={} power={}",
        dir,
        count(FileRole::Ssd),
        count(FileRole::Scd),
        count(FileRole::Icd),
        count(FileRole::Sed),
        count(FileRole::IedConfig) > 0,
        count(FileRole::ScadaConfig) > 0,
        count(FileRole::PlcConfig) > 0,
        count(FileRole::PowerConfig) > 0,
    );
    let model = bundle
        .compiled()
        .map_err(|e| format!("model set does not compile:\n{e}"))?;
    for d in &model.diagnostics {
        eprintln!("  {d}");
    }
    Ok(model.clone())
}

/// Lint exit code for a finished report under the documented contract:
/// clean and warnings-only exit 0 (1 with `--deny-warnings`), errors exit 2.
fn lint_exit_code(lint_report: &sgcr_lint::LintReport, deny_warnings: bool) -> ExitCode {
    if lint_report.has_errors() {
        ExitCode::from(2)
    } else if deny_warnings && lint_report.warning_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Statically analyzes the bundle; never constructs a `CyberRange`.
///
/// With `--cache <dir>` an unchanged bundle replays its stored report; the
/// hit or miss goes to stderr so stdout stays byte-identical to an
/// uncached run.
fn lint(cmd: Lint) -> Outcome {
    let (lint_report, bundle) = match &cmd.cache {
        Some(cache_dir) => {
            let outcome =
                engine::lint_dir_incremental(&cmd.dir, cache_dir).map_err(|e| e.to_string())?;
            eprintln!(
                "lint cache: {} reused, {} recomputed queries",
                outcome.stats.reused, outcome.stats.recomputed
            );
            (outcome.report, outcome.bundle)
        }
        None => {
            let bundle = LoadedBundle::from_dir(&cmd.dir).map_err(|e| e.to_string())?;
            (lint_bundle(&bundle), bundle)
        }
    };
    match cmd.format {
        Format::Text => print!("{}", report::render_text(&lint_report, &bundle)),
        Format::Json => print!("{}", json::to_json(&lint_report)),
        Format::Sarif => print!("{}", sarif::to_sarif(&lint_report)),
    }
    Ok(lint_exit_code(&lint_report, cmd.deny_warnings))
}

/// The pre-flight static check of every subcommand that starts a range.
/// Lint errors abort with exit 2 and the findings on stderr; warnings are
/// reported but do not block. Returns `None` when the range may start,
/// and at once with `--no-check`.
fn front_gate(bundle: &LoadedBundle, no_check: bool) -> Option<ExitCode> {
    if no_check {
        return None;
    }
    let lint_report = lint_bundle(bundle);
    if lint_report.diagnostics.is_empty() {
        return None;
    }
    eprint!("{}", report::render_text(&lint_report, bundle));
    if lint_report.has_errors() {
        eprintln!(
            "error: bundle fails static checks ({} error(s)); \
             fix them or pass --no-check to start the range anyway",
            lint_report.error_count()
        );
        return Some(ExitCode::from(2));
    }
    None
}

/// Runs a declarative exercise scenario against a freshly generated range
/// and prints the scored after-action report.
fn exercise(cmd: Exercise) -> Outcome {
    let dir = &cmd.dir;
    let bundle = load(dir)?;
    if let Some(code) = front_gate(&bundle, cmd.no_check) {
        return Ok(code);
    }
    let model = compile(dir, &bundle)?;
    let mut scenario = match (&cmd.scenario, bundle.scenarios.as_slice()) {
        (Some(path), _) => read_scenario(path)?,
        (None, [(_, only)]) => only.clone().map_err(invalid_scenario)?,
        (None, []) => {
            return Err(format!(
                "{dir} ships no *.scenario.xml; pass --scenario <file>"
            ))
        }
        (None, many) => {
            return Err(format!(
                "{dir} ships {} scenario files; pass --scenario <file>",
                many.len()
            ))
        }
    };
    // The command line wins over the scenario's own faultSeed= attribute.
    if cmd.fault_seed.is_some() {
        scenario.fault_seed = cmd.fault_seed;
    }

    let telemetry = cmd.sinks.telemetry(true);
    let mut range = RangeBuilder::from_model(model)
        .telemetry(telemetry.clone())
        .build()
        .map_err(|e| format!("range cannot be instantiated:\n{e}"))?;
    eprintln!(
        "running exercise {:?} ({} stages, {} objectives, {} ms)…",
        scenario.name,
        scenario.stages.len(),
        scenario.objectives.len(),
        scenario.duration_ms
    );
    let exercise_report =
        run_exercise(&mut range, &scenario).map_err(|e| format!("exercise cannot run: {e}"))?;
    print!("{}", exercise_report.to_text());
    if let Some(path) = &cmd.report {
        write_file(path, "report", exercise_report.to_json())?;
        eprintln!("JSON report written to {path}");
    }
    cmd.sinks.write(&telemetry)?;
    // Failed objectives are scored results, not tool failures.
    Ok(ExitCode::SUCCESS)
}

/// Derives the attack graph from the compiled model and prints it — the
/// adversary plane's view of the bundle, for inspection and tooling.
fn attack_graph(cmd: AttackGraph) -> Outcome {
    let model = compile(&cmd.dir, &load(&cmd.dir)?)?;
    let graph = sgcr_adversary::AttackGraph::derive(&model);
    match cmd.format {
        GraphFormat::Json => println!("{}", graph.to_json()),
        GraphFormat::Dot => print!("{}", graph.to_dot()),
    }
    Ok(ExitCode::SUCCESS)
}

/// The multi-tenant range farm: compiles the bundle once, then multiplexes
/// `farm.tenants` independent ranges (or exercises) across a worker pool
/// via `sgcr-farm`, streaming per-tenant journals/metrics and reporting
/// farm throughput and step-latency percentiles.
fn serve(cmd: Serve) -> Outcome {
    let compile_start = Instant::now();
    let bundle = load(&cmd.dir)?;
    if let Some(code) = front_gate(&bundle, cmd.no_check) {
        return Ok(code);
    }
    let mut farm = cmd.farm;
    farm.scenario = cmd.scenario.as_deref().map(read_scenario).transpose()?;
    let model = compile(&cmd.dir, &bundle)?;
    // The tenants share the model; the sources and parse can go.
    drop(bundle);
    eprintln!(
        "compiled once in {:.1} ms: {}",
        compile_start.elapsed().as_secs_f64() * 1e3,
        model.summary()
    );
    eprintln!(
        "serving {} tenants x {} s{}…",
        farm.tenants,
        farm.sim_seconds,
        match &farm.scenario {
            Some(s) => format!(" of exercise {:?}", s.name),
            None => String::new(),
        }
    );
    if let Some(addr) = &farm.status_addr {
        eprintln!(
            "live status endpoint on http://{addr}/ (/metrics /status /healthz; \
             POST /tenants, DELETE /tenants/<id>)"
        );
    }
    if farm.restart_max > 0 {
        eprintln!(
            "supervisor on: up to {} restart(s)/tenant from mid-run checkpoints",
            farm.restart_max
        );
    }

    let farm_report = run_farm(model, &farm);
    print!("{}", farm_report.to_text());
    if let Some(out) = &farm.out_dir {
        eprintln!("per-tenant journals/metrics written to {}/", out.display());
    }
    if let Some(path) = &cmd.report {
        write_file(path, "report", farm_report.to_json())?;
        eprintln!("farm report written to {path}");
    }
    if farm_report.tenants_failed > 0 {
        return Err(format!("{} tenant(s) failed", farm_report.tenants_failed));
    }
    Ok(ExitCode::SUCCESS)
}

/// How many consecutive failed scrapes `watch` tolerates (each retried
/// with capped exponential backoff) before concluding the endpoint is gone.
const WATCH_MAX_FAILURES: u32 = 6;

/// The `watch` retry backoff before attempt number `failures`: doubling
/// from 100 ms, capped at 2 s.
fn watch_backoff(failures: u32) -> Duration {
    Duration::from_millis((100u64 << failures.saturating_sub(1).min(5)).min(2000))
}

/// Polls a running farm's `--status-addr` endpoint and redraws a per-tenant
/// dashboard until the endpoint goes away (the farm finished) or
/// `--iterations` polls have been made.
///
/// A failed scrape does not kill the dashboard: it is retried with capped
/// exponential backoff, and only [`WATCH_MAX_FAILURES`] consecutive
/// failures end the session — success if the farm was ever reached (it
/// finished and closed the endpoint), failure if it never was.
fn watch(cmd: Watch) -> Outcome {
    let addr = &cmd.addr;
    let mut polled = 0u64;
    let mut ever_connected = false;
    let mut failures = 0u32;
    loop {
        match sgcr_farm::http_get(addr, "/status") {
            Ok(body) => {
                ever_connected = true;
                failures = 0;
                let frame = render_watch(&body)
                    .map_err(|e| format!("malformed /status response from {addr}: {e}"))?;
                // ANSI clear-screen + cursor-home, then the frame.
                print!("\x1b[2J\x1b[H{frame}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                failures += 1;
                if failures >= WATCH_MAX_FAILURES {
                    if ever_connected {
                        println!("status endpoint {addr} closed — farm finished");
                        return Ok(ExitCode::SUCCESS);
                    }
                    return Err(format!(
                        "cannot reach {addr} after {failures} attempts: {e}"
                    ));
                }
                let backoff = watch_backoff(failures);
                eprintln!(
                    "warning: scrape of {addr} failed ({e}); retry {failures}/{} in {} ms",
                    WATCH_MAX_FAILURES - 1,
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
                continue;
            }
        }
        polled += 1;
        if cmd.iterations.is_some_and(|max| polled >= max) {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(Duration::from_millis(cmd.interval_ms.max(50)));
    }
}

/// Renders one `/status` JSON document as a watch dashboard frame. Pure, so
/// the dashboard is unit-testable without a live farm.
fn render_watch(body: &str) -> Result<String, String> {
    use sgcr_obs::json::{self as obs_json, Value};
    let doc = obs_json::parse(body)?;
    let uint = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "farm: {} tenants on {} threads x {} s sim{}\n",
        uint(&doc, "tenants"),
        uint(&doc, "threads"),
        uint(&doc, "sim_seconds"),
        match doc.get("step_budget_ms").and_then(Value::as_u64) {
            Some(ms) => format!(" | budget {ms} ms/step"),
            None => String::new(),
        }
    ));
    out.push_str(&format!(
        "running {} | completed {} | halted {} | failed {} | given up {} | drained {}\n\n",
        uint(&doc, "tenants_running"),
        uint(&doc, "tenants_completed"),
        uint(&doc, "tenants_halted"),
        uint(&doc, "tenants_failed"),
        uint(&doc, "tenants_given_up"),
        uint(&doc, "tenants_drained"),
    ));
    out.push_str("tenant  state      steps      overruns  solve_errs  restarts  score\n");
    let tenants = doc
        .get("per_tenant")
        .and_then(Value::as_array)
        .ok_or("missing per_tenant array")?;
    for t in tenants {
        let score = match t.get("score") {
            Some(score) if score.get("earned").is_some() => format!(
                "{}/{}",
                score.get("earned").and_then(Value::as_u64).unwrap_or(0),
                score.get("total").and_then(Value::as_u64).unwrap_or(0)
            ),
            _ => String::from("-"),
        };
        out.push_str(&format!(
            "{:>6}  {:<9}  {:>9}  {:>8}  {:>10}  {:>8}  {score}\n",
            uint(t, "tenant"),
            t.get("state").and_then(Value::as_str).unwrap_or("?"),
            uint(t, "steps"),
            uint(t, "budget_overruns"),
            uint(t, "solve_errors"),
            uint(t, "restarts"),
        ));
    }
    Ok(out)
}

/// Generates (and for `run`, co-simulates) the cyber range. Telemetry is
/// enabled only when a `--metrics` or `--journal` sink was requested, and
/// causal tracing only when `--trace` or `--spans` was given, so a plain run
/// keeps the zero-overhead disabled path.
fn generate(cmd: Generate) -> Outcome {
    let bundle = load(&cmd.dir)?;
    if let Some(code) = front_gate(&bundle, cmd.no_check) {
        return Ok(code);
    }
    let model = compile(&cmd.dir, &bundle)?;
    let telemetry = cmd.sinks.telemetry(false);
    let mut builder = RangeBuilder::from_model(model).telemetry(telemetry.clone());
    if let Some(seed) = cmd.fault_seed {
        builder = builder.fault_seed(seed);
    }
    let mut range = builder
        .build()
        .map_err(|e| format!("range cannot be instantiated:\n{e}"))?;
    println!("{}", range.summary());
    if cmd.dot {
        println!("{}", range.plan().to_dot());
    }
    if let Some(seconds) = cmd.seconds {
        eprintln!("running {seconds} s of co-simulated time…");
        let wall = Instant::now();
        range.run_for(SimDuration::from_secs(seconds));
        eprintln!(
            "done: {} power-flow steps ({} solve errors) in {:.2} s wall clock",
            range.steps_total(),
            range.solve_errors_total(),
            wall.elapsed().as_secs_f64()
        );
        if let Some(scada) = &range.scada {
            println!("SCADA tags:");
            for tag in scada.tag_names() {
                println!("  {:20} = {:?}", tag, scada.tag_value(&tag));
            }
            for (point, message) in scada.active_alarms() {
                println!("  ALARM {point}: {message}");
            }
        }
        for (name, handle) in &range.ieds {
            let trips = handle.trip_count();
            if trips > 0 {
                println!("  IED {name}: {trips} protection trip(s)");
            }
        }
    }
    cmd.sinks.write(&telemetry)?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::path::Path;

    fn parse(line: &str) -> Result<Cmd, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    fn run_cmd(line: &str) -> Generate {
        match parse(line).unwrap() {
            Cmd::Generate(cmd) => cmd,
            other => panic!("expected run, got {other:?}"),
        }
    }

    fn exercise_cmd(line: &str) -> Exercise {
        match parse(line).unwrap() {
            Cmd::Exercise(cmd) => cmd,
            other => panic!("expected exercise, got {other:?}"),
        }
    }

    fn serve_cmd(line: &str) -> Serve {
        match parse(line).unwrap() {
            Cmd::Serve(cmd) => *cmd,
            other => panic!("expected serve, got {other:?}"),
        }
    }

    fn lint_cmd(line: &str) -> Lint {
        match parse(line).unwrap() {
            Cmd::Lint(cmd) => cmd,
            other => panic!("expected lint, got {other:?}"),
        }
    }

    #[test]
    fn build_subcommand_parses() {
        assert_eq!(
            run_cmd("build bundles/epic --dot"),
            Generate {
                dir: "bundles/epic".into(),
                seconds: None,
                dot: true,
                no_check: true,
                sinks: Sinks::default(),
                fault_seed: None,
            }
        );
    }

    #[test]
    fn run_subcommand_parses_all_flags() {
        assert_eq!(
            run_cmd(
                "run bundles/epic --seconds 30 --metrics m.json --journal j.jsonl \
                 --trace t.json --spans s.jsonl --fault-seed 99"
            ),
            Generate {
                dir: "bundles/epic".into(),
                seconds: Some(30),
                dot: false,
                no_check: false,
                sinks: Sinks {
                    metrics: Some("m.json".into()),
                    journal: Some("j.jsonl".into()),
                    trace: Some("t.json".into()),
                    spans: Some("s.jsonl".into()),
                },
                fault_seed: Some(99),
            }
        );
    }

    #[test]
    fn run_accepts_no_check() {
        assert!(run_cmd("run bundles/epic --no-check").no_check);
    }

    #[test]
    fn run_defaults_seconds() {
        let cmd = run_cmd("run bundles/epic");
        assert_eq!(cmd.seconds, Some(DEFAULT_RUN_SECONDS));
        assert_eq!(cmd.sinks, Sinks::default());
        assert!(cmd.fault_seed.is_none());
    }

    #[test]
    fn lint_subcommand_parses_format() {
        assert_eq!(
            lint_cmd("lint bundles/epic --format json"),
            Lint {
                dir: "bundles/epic".into(),
                format: Format::Json,
                cache: None,
                deny_warnings: false,
            }
        );
    }

    #[test]
    fn lint_subcommand_parses_sarif_cache_and_deny_warnings() {
        assert_eq!(
            lint_cmd("lint bundles/epic --format sarif --cache .lint-cache --deny-warnings"),
            Lint {
                dir: "bundles/epic".into(),
                format: Format::Sarif,
                cache: Some(".lint-cache".into()),
                deny_warnings: true,
            }
        );
    }

    #[test]
    fn lint_exit_codes_follow_the_contract() {
        use sgcr_lint::LintReport;
        use sgcr_scl::{codes, Diagnostic};
        let clean = LintReport::default();
        assert_eq!(lint_exit_code(&clean, false), ExitCode::SUCCESS);
        assert_eq!(lint_exit_code(&clean, true), ExitCode::SUCCESS);
        let warning = LintReport {
            diagnostics: vec![Diagnostic::warning(codes::ORPHAN_ICD, "orphan", "x")],
        };
        assert_eq!(lint_exit_code(&warning, false), ExitCode::SUCCESS);
        assert_eq!(lint_exit_code(&warning, true), ExitCode::FAILURE);
        let error = LintReport {
            diagnostics: vec![Diagnostic::error(codes::ST_PARSE_FAILED, "bad", "x")],
        };
        assert_eq!(lint_exit_code(&error, false), ExitCode::from(2));
        assert_eq!(lint_exit_code(&error, true), ExitCode::from(2));
    }

    #[test]
    fn exercise_subcommand_parses_all_flags() {
        assert_eq!(
            exercise_cmd(
                "exercise bundles/epic --scenario s.scenario.xml --report r.json \
                 --journal j.jsonl --trace t.json --fault-seed 7"
            ),
            Exercise {
                dir: "bundles/epic".into(),
                scenario: Some("s.scenario.xml".into()),
                report: Some("r.json".into()),
                sinks: Sinks {
                    journal: Some("j.jsonl".into()),
                    trace: Some("t.json".into()),
                    ..Sinks::default()
                },
                fault_seed: Some(7),
                no_check: false,
            }
        );
    }

    #[test]
    fn exercise_accepts_no_check() {
        assert!(exercise_cmd("exercise bundles/epic --no-check").no_check);
    }

    #[test]
    fn exercise_scenario_and_report_are_optional() {
        assert_eq!(
            exercise_cmd("exercise bundles/epic"),
            Exercise {
                dir: "bundles/epic".into(),
                scenario: None,
                report: None,
                sinks: Sinks::default(),
                fault_seed: None,
                no_check: false,
            }
        );
    }

    #[test]
    fn attack_graph_subcommand_parses() {
        let graph = |format| {
            Cmd::AttackGraph(AttackGraph {
                dir: "bundles/epic".into(),
                format,
            })
        };
        assert_eq!(
            parse("attack-graph bundles/epic"),
            Ok(graph(GraphFormat::Json))
        );
        assert_eq!(
            parse("attack-graph bundles/epic --format dot"),
            Ok(graph(GraphFormat::Dot))
        );
    }

    #[test]
    fn attack_graph_rejects_bad_format() {
        assert!(parse("attack-graph bundles/epic --format sarif").is_err());
        assert!(parse("attack-graph bundles/epic --dot").is_err());
        assert!(parse("attack-graph").is_err());
    }

    #[test]
    fn serve_subcommand_parses_all_flags() {
        assert_eq!(
            serve_cmd(
                "serve bundles/epic --tenants 128 --threads 4 --seconds 30 \
                 --scenario s.scenario.xml --out /tmp/farm --report farm.json \
                 --step-budget-ms 100 --max-overruns 5 --max-restarts 3 \
                 --restart-backoff-ms 50 --admit-max 16 --fault-seed 42 \
                 --status-addr 127.0.0.1:9644 --no-check"
            ),
            Serve {
                dir: "bundles/epic".into(),
                scenario: Some("s.scenario.xml".into()),
                report: Some("farm.json".into()),
                no_check: true,
                farm: FarmConfig {
                    tenants: 128,
                    threads: 4,
                    sim_seconds: 30,
                    step_budget_ms: Some(100),
                    max_overruns: 5,
                    base_fault_seed: 42,
                    out_dir: Some("/tmp/farm".into()),
                    status_addr: Some("127.0.0.1:9644".into()),
                    restart_max: 3,
                    restart_backoff_ms: 50,
                    admit_max: 16,
                    ..FarmConfig::default()
                },
            }
        );
    }

    #[test]
    fn serve_status_addr_is_optional() {
        assert!(serve_cmd("serve bundles/epic").farm.status_addr.is_none());
    }

    #[test]
    fn serve_defaults_are_sensible() {
        let farm = serve_cmd("serve bundles/epic").farm;
        assert_eq!(farm.tenants, DEFAULT_SERVE_TENANTS);
        assert_eq!(farm.threads, 0); // one per core
        assert_eq!(farm.sim_seconds, DEFAULT_SERVE_SECONDS);
        assert_eq!(farm.base_fault_seed, 0);
        assert_eq!(farm.restart_max, 0); // supervision off by default
        assert_eq!(farm.restart_backoff_ms, 0); // 0 = library default
        assert_eq!(farm.admit_max, 0); // no dynamic headroom by default
        assert!(farm.scenario.is_none() && farm.out_dir.is_none());
    }

    #[test]
    fn serve_rejects_zero_tenants() {
        assert!(parse("serve bundles/epic --tenants 0").is_err());
    }

    #[test]
    fn watch_subcommand_parses_flags_and_defaults() {
        let watch = |interval_ms, iterations| {
            Ok(Cmd::Watch(Watch {
                addr: "127.0.0.1:9644".into(),
                interval_ms,
                iterations,
            }))
        };
        assert_eq!(
            parse("watch 127.0.0.1:9644 --interval-ms 250 --iterations 3"),
            watch(250, Some(3))
        );
        assert_eq!(parse("watch 127.0.0.1:9644"), watch(1000, None));
        assert!(parse("watch").is_err());
        assert!(parse("watch 127.0.0.1:9644 --bogus").is_err());
    }

    #[test]
    fn watch_dashboard_renders_status_json() {
        let body = r#"{"tenants":2,"threads":2,"sim_seconds":5,"scenario":false,
            "step_budget_ms":100,"tenants_running":1,"tenants_completed":1,
            "tenants_halted":0,"tenants_failed":0,"per_tenant":[
            {"tenant":0,"state":"completed","steps":50,"budget_overruns":0,
             "solve_errors":0,"score":{"earned":3,"total":4}},
            {"tenant":1,"state":"running","steps":12,"budget_overruns":2,
             "solve_errors":1,"score":null}]}"#;
        let frame = render_watch(body).unwrap();
        assert!(frame.contains("farm: 2 tenants on 2 threads x 5 s sim | budget 100 ms/step"));
        assert!(frame.contains("running 1 | completed 1 | halted 0 | failed 0"));
        assert!(frame.contains("completed"));
        assert!(frame.contains("3/4"));
        assert!(frame.lines().count() >= 6);
        assert!(render_watch("not json").is_err());
    }

    #[test]
    fn watch_backoff_doubles_and_caps() {
        assert_eq!(watch_backoff(1).as_millis(), 100);
        assert_eq!(watch_backoff(2).as_millis(), 200);
        assert_eq!(watch_backoff(3).as_millis(), 400);
        assert_eq!(watch_backoff(5).as_millis(), 1600);
        assert_eq!(watch_backoff(6).as_millis(), 2000);
        assert_eq!(watch_backoff(60).as_millis(), 2000);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_args(&[]).is_err());
        assert!(parse("run").is_err());
        assert!(parse("run bundles/epic --seconds abc").is_err());
        assert!(parse("run bundles/epic --metrics").is_err());
        assert!(parse("run bundles/epic --trace").is_err());
        assert!(parse("run bundles/epic --spans").is_err());
        assert!(parse("run bundles/epic --fault-seed").is_err());
        assert!(parse("run bundles/epic --fault-seed abc").is_err());
        assert!(parse("exercise bundles/epic --fault-seed -1").is_err());
        assert!(parse("lint bundles/epic --format yaml").is_err());
        assert!(parse("lint bundles/epic --cache").is_err());
        assert!(parse("exercise").is_err());
        assert!(parse("exercise bundles/epic --scenario").is_err());
        assert!(parse("exercise bundles/epic --bogus").is_err());
        assert!(parse("build bundles/epic --bogus").is_err());
        assert!(parse("bundles/epic --bogus").is_err());
        assert_eq!(
            parse("lint bundles/epic --format yaml"),
            Err("`--format` expects text|json|sarif, found `yaml`".into())
        );
        assert_eq!(
            parse("serve bundles/epic --tenants -1"),
            Err("`--tenants` expects an unsigned integer, found `-1`".into())
        );
    }

    #[test]
    fn help_prints_the_generated_usage() {
        for spelling in ["help", "-h", "--help"] {
            assert_eq!(parse(spelling), Ok(Cmd::Help));
        }
        let text = usage();
        assert!(text.lines().all(|line| line.len() <= 80), "{text}");
        for command in COMMANDS {
            let synopsis = format!("sgml_processor {} {}", command.name, command.arg);
            assert!(text.contains(&synopsis), "{text}");
        }
    }

    /// Every flag of every row parses — each alternative of an `a|b`
    /// placeholder included — and changes the parsed command, so no flag
    /// in the table is silently ignored.
    #[test]
    fn every_table_flag_parses_and_takes_effect() {
        for command in COMMANDS {
            let without = parse(&format!("{} x", command.name)).unwrap();
            for (flag, placeholder) in command.flags {
                let values: Vec<&str> = match placeholder {
                    None => vec![""],
                    Some("<n>") => vec!["7"],
                    Some(alternatives) => alternatives.split('|').collect(),
                };
                let parsed: Vec<Cmd> = values
                    .iter()
                    .map(|value| {
                        let line = format!("{} x {flag} {value}", command.name);
                        parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"))
                    })
                    .collect();
                let with = parsed.last().unwrap();
                assert_ne!(*with, without, "`{} {flag}` is ignored", command.name);
            }
        }
    }

    /// Every `sgml_processor` invocation shown in the docs, CI and scripts
    /// names a subcommand of the table and only flags of that subcommand,
    /// `\`-continued lines included.
    #[test]
    fn documented_invocations_match_the_table() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<PathBuf> = [
            "README.md",
            "DESIGN.md",
            ".github/workflows/ci.yml",
            "scripts/farm_load_test.sh",
            ".claude/skills/verify/SKILL.md",
        ]
        .iter()
        .map(|file| root.join(file))
        .collect();
        for entry in std::fs::read_dir(root.join("docs")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "md") {
                files.push(path);
            }
        }
        let mut checked = 0;
        let mut problems = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                for (at, _) in line.match_indices("sgml_processor") {
                    let before = &line[..at];
                    let mut rest = line[at + "sgml_processor".len()..].to_string();
                    for next in &lines[i + 1..] {
                        let Some(joined) = rest.strip_suffix('\\') else {
                            break;
                        };
                        rest = format!("{joined} {next}");
                    }
                    // A mention (`sgml_processor.rs`, `` `sgml_processor` ``)
                    // rather than an invocation.
                    if !rest.starts_with(char::is_whitespace) {
                        continue;
                    }
                    let end = ["`", " |", ";", " &", " #", " >"]
                        .iter()
                        .filter_map(|stop| rest.find(stop))
                        .min()
                        .unwrap_or(rest.len());
                    let mut words = rest[..end].split_whitespace().peekable();
                    if words.next_if_eq(&"--").is_none() && before.ends_with("--bin ") {
                        continue; // `cargo build --bin sgml_processor --example …`
                    }
                    let Some(name) = words.next() else {
                        continue;
                    };
                    let at = format!("{}:{}", file.display(), i + 1);
                    checked += 1;
                    if matches!(name, "help" | "-h" | "--help") {
                        continue;
                    }
                    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
                        problems.push(format!("{at}: `{name}` is not a subcommand"));
                        continue;
                    };
                    for word in words {
                        let flag = word.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')' | ','));
                        if flag.len() > 2 && flag.starts_with("--") && command.flag(flag).is_none()
                        {
                            problems.push(format!("{at}: `{flag}` is not a `{name}` flag"));
                        }
                    }
                }
            }
        }
        assert!(problems.is_empty(), "{}", problems.join("\n"));
        assert!(checked > 40, "only {checked} invocations found");
    }
}
