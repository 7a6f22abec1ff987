//! The repo benchmark. See README.md beside this package.
//!
//! ```text
//! xivm_benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! xivm_benchmark [--seed N] [--runs R] [--quick] [--out FILE]    every workload, both kinds
//! xivm_benchmark compare A.json B.json [more…] [--slack F]       the regression rule
//! ```

mod compare;
mod json;
mod metrics;
mod rig;
mod run;
mod stages;
mod stats;
mod stream;
mod trace;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{RunArgs, RunResult, REFERENCE_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Prefix of the line a single run prints before its result line, for
/// the all-workloads mode to pick up what the contract line has no
/// room for.
const DETAIL: &str = "#detail ";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    sabotage: bool,
    runs: usize,
    out: Option<PathBuf>,
    slack: f64,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        traced: false,
        quick: false,
        sabotage: false,
        runs: 1,
        out: None,
        slack: 1.0,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => cli.seed = num(arg, value("a number")?)?,
            "--seconds" => cli.seconds = num(arg, value("a number")?)?,
            "--trace" => cli.traced = num::<u8>(arg, value("0 or 1")?)? != 0,
            "--runs" => cli.runs = num(arg, value("a number")?)?,
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--slack" => cli.slack = num(arg, value("a number")?)?,
            "--quick" => cli.quick = true,
            // Test-only: drop one compensating delete from the stream;
            // the run must then report failure and exit non-zero.
            "--sabotage" => cli.sabotage = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cli)
}

fn print_metrics(result: &RunResult, defs: &[MetricDef]) {
    let Ok(metrics) = &result.metrics else { return };
    for d in defs {
        let value = metrics.get(d.name).and_then(|m| m.get("value")).and_then(Json::as_f64);
        let source = if d.from_program { "  (read from the program's own reports)" } else { "" };
        println!("{:<40} {:>16.4} {}{source}", d.name, value.unwrap_or(f64::NAN), d.unit);
    }
}

fn run_one(cli: &Cli, name: &str) -> ExitCode {
    let Some(workload) = run::workload(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; the workloads are {}", names.join(", "));
        return ExitCode::from(2);
    };
    let result = run::run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        quick: cli.quick,
        sabotage: cli.sabotage,
    });
    println!("# {name}: {}", workload.why);
    println!(
        "# {name}  seed {}  trace {}  {} operations, {} failed, {:.1} s",
        cli.seed,
        u8::from(cli.traced),
        result.attempted,
        result.failed,
        result.wall_s
    );
    print_metrics(&result, if cli.traced { &PER_LAYER } else { &END_TO_END });
    for (layer, self_us) in result.self_time_us.iter().take(5) {
        println!("# self time {layer:<32} {:>12.0} us", self_us);
    }
    for f in &result.failures {
        println!("# FAILED: {f}");
    }
    let detail = Json::obj([
        ("wall_s", Json::Num(result.wall_s)),
        (
            "stages",
            Json::Obj(
                result
                    .stage_ops
                    .iter()
                    .map(|(stage, ops, secs)| {
                        let v =
                            [("operations", Json::Num(*ops as f64)), ("wall_s", Json::Num(*secs))];
                        (stage.clone(), Json::obj(v))
                    })
                    .collect(),
            ),
        ),
        (
            "self_time_us",
            Json::Obj(
                result.self_time_us.iter().map(|(n, v)| ((*n).to_owned(), Json::Num(*v))).collect(),
            ),
        ),
        ("failures", Json::Arr(result.failures.iter().map(|f| Json::from(f.as_str())).collect())),
    ]);
    println!("{DETAIL}{}", detail.render());
    println!("{}", result.line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Every workload, untraced then traced, each run in its own child
/// process (so `peak_rss_mb` is the workload's own); writes the
/// results file.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for run in 0..cli.runs {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--seed", &cli.seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stderr(Stdio::inherit());
                if cli.quick {
                    cmd.arg("--quick");
                }
                let out = cmd.output().map_err(|e| format!("cannot start a child run: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().unwrap_or("");
                let line = Json::parse(last).map_err(|e| {
                    format!("{} trace {}: no result line: {e}", w.name, u8::from(traced))
                })?;
                let detail = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix(DETAIL))
                    .and_then(|d| Json::parse(d).ok())
                    .unwrap_or(Json::Null);
                let correct = line.get("correct").and_then(Json::as_bool) == Some(true);
                all_correct &= correct && out.status.success();
                let mut entry = vec![
                    ("workload".to_owned(), Json::from(w.name)),
                    ("run".to_owned(), Json::Num(run as f64)),
                    ("seed".to_owned(), Json::Num(cli.seed as f64)),
                    ("trace".to_owned(), Json::Num(f64::from(u8::from(traced)))),
                ];
                entry.extend(line.entries().iter().cloned());
                entry.extend(detail.entries().iter().cloned());
                runs.push(Json::Obj(entry));
            }
        }
    }
    let program_sourced: Vec<Json> =
        PER_LAYER.iter().filter(|d| d.from_program).map(|d| Json::from(d.name)).collect();
    let file = Json::obj([
        (
            "environment",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                ("rustc", Json::from(command_line("rustc", &["-V"]))),
                ("git", Json::from(command_line("git", &["rev-parse", "HEAD"]))),
                ("profile", Json::from(if cfg!(debug_assertions) { "debug" } else { "release" })),
                ("seed", Json::Num(cli.seed as f64)),
                ("seconds", Json::Num(cli.seconds)),
                ("quick", Json::Bool(cli.quick)),
                ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("source_program", Json::Arr(program_sourced)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| run::out_dir().join(format!("results-seed{}.json", cli.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.positional.first().map(String::as_str), &cli.workload) {
        (Some("compare"), _) => {
            let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
            compare::compare(&cli.positional[1..], &spec, cli.slack).map(|worse| {
                if worse {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        (Some(other), _) => Err(format!("unknown command {other:?}")),
        (None, Some(name)) => Ok(run_one(&cli, name)),
        (None, None) => run_all(&cli),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
