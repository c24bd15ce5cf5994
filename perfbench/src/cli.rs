//! Command line of `onesql-bench`.
//!
//! With `--workload` the process runs that one workload itself and ends
//! with the contract's result line. Without it, the process runs every
//! workload in both modes, each in a child process of its own (a re-exec
//! of this binary), so one workload's peak RSS never leaks into the next.

use std::process::{Command, Stdio};

use crate::report::{median, relative_spread, RunResult};
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::{self, RunArgs};

const USAGE: &str = "\
onesql-bench: end-to-end + per-layer benchmark of the onesql engine

  --workload <name>   run one workload in this process (see --list)
  --seed <u64>        input seed (default 7)
  --seconds <f>       length of the measured region (default 12)
  --trace <0|1>       0: end-to-end metrics, tracing off (default)
                      1: per-layer metrics from the traced quarter-size run
  --scale <f>         input-size multiplier, for tests (default 1.0)
  --repeat <n>        without --workload: run the end-to-end set n times on
                      seeds seed..seed+n and print each metric's spread
                      next to its bound
  --json <path>       also write the result line(s) to <path>
  --list              print the workloads and why each exists
  --emit-spec         print the text of BENCHMARK.json
";

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    repeat: usize,
    json: Option<String>,
    rss_probe: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        repeat: 0,
        json: None,
        rss_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => o.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--scale" => o.scale = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--repeat" => o.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--json" => o.json = Some(value()?),
            // Internal: the child half of the `peak_rss_mb` measurement.
            "--rss-probe" => o.rss_probe = true,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !((0.0..=600.0).contains(&o.seconds) && o.scale > 0.0 && o.scale <= 16.0) {
        return Err("--seconds must be in [0, 600] and --scale in (0, 16]".into());
    }
    Ok(o)
}

fn specs_for(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Run one workload in this process and print its result.
fn run_one(o: &Options, name: &str) -> i32 {
    let Some(spec) = spec::workload(name) else {
        eprintln!("no workload named '{name}'; try --list");
        return 2;
    };
    let args = RunArgs {
        spec,
        seed: o.seed,
        seconds: o.seconds,
        scale: o.scale,
        trace: o.trace,
        rss_child: true,
    };
    if o.rss_probe {
        workloads::rss_probe(args);
        return 0;
    }
    print_result(o, name, &workloads::run(args))
}

fn print_result(o: &Options, name: &str, result: &RunResult) -> i32 {
    let specs = specs_for(o.trace);
    println!(
        "workload {name}  seed {}  scale {}  nproc {}  trace {}",
        o.seed,
        o.scale,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        u8::from(o.trace)
    );
    print!("{}", result.render_table(specs));
    println!(
        "  attempted {}  failed {}  correct {}",
        result.attempted, result.failed, result.correct
    );
    for problem in &result.problems {
        println!("  WRONG: {problem}");
    }
    let line = result.json_line(specs);
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
    }
    println!("{line}");
    i32::from(!result.correct)
}

/// The value of metric `name` in a result line this binary printed.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Run `name` in a child process; its result line, if it printed one
/// and exited 0.
fn run_child(o: &Options, name: &str, seed: u64, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--scale", &o.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().filter(|l| l.starts_with('{'))?;
    output.status.success().then(|| line.to_string())
}

/// Run every workload, one child process per run.
fn run_all(o: &Options) -> i32 {
    let started = std::time::Instant::now();
    let mut failed = 0;
    let mut lines = Vec::new();
    if o.repeat == 0 {
        for w in &WORKLOADS {
            for trace in [false, true] {
                match run_child(o, w.name, o.seed, trace) {
                    Some(line) => lines.push(format!(
                        "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {line}}}",
                        w.name,
                        u8::from(trace)
                    )),
                    None => failed += 1,
                }
            }
        }
    } else {
        // samples[workload][metric] over the repeats.
        let mut samples = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
        for round in 0..o.repeat {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let seed = o.seed + round as u64;
                let Some(line) = run_child(o, w.name, seed, false) else {
                    failed += 1;
                    continue;
                };
                for (mi, m) in END_TO_END.iter().enumerate() {
                    samples[wi][mi].extend(value_in(&line, m.name));
                }
                lines.push(format!(
                    "{{\"workload\": \"{}\", \"seed\": {seed}, \"result\": {line}}}",
                    w.name
                ));
            }
        }
        println!(
            "\nspread over {} runs (IQR / median) against each bound:",
            o.repeat
        );
        for (wi, w) in WORKLOADS.iter().enumerate() {
            for (mi, m) in END_TO_END.iter().enumerate() {
                let values = &samples[wi][mi];
                if values.len() < 2 {
                    continue;
                }
                let spread = relative_spread(values);
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                // Set-up time is held to its bound between medians, not
                // by its spread.
                let flag = if spread > bound && m.name != "setup_s" {
                    "  EXCEEDS BOUND"
                } else if spread > bound / 3.0 {
                    "  (over a third of the bound)"
                } else {
                    ""
                };
                println!(
                    "  {:<16} {:<16} median {:>14.4} {:<4} spread {:>6.2}%  bound {:>5.1}%{flag}",
                    w.name,
                    m.name,
                    median(values),
                    m.unit,
                    spread * 100.0,
                    bound * 100.0
                );
            }
        }
    }
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n"))) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
    }
    println!(
        "total wall {:.1} s, {failed} failed run(s)",
        started.elapsed().as_secs_f64()
    );
    i32::from(failed > 0)
}

/// Entry point; returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return 0;
    }
    if args.iter().any(|a| a == "--emit-spec") {
        print!("{}", spec::benchmark_json());
        return 0;
    }
    if args.iter().any(|a| a == "--list") {
        for w in &WORKLOADS {
            println!("{:<16} {:>9} events/pass  {}", w.name, w.events, w.why);
        }
        return 0;
    }
    let options = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return 2;
        }
    };
    match options.workload.clone() {
        Some(name) => run_one(&options, &name),
        None => run_all(&options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"throughput_eps\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
                    \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        assert_eq!(value_in(line, "throughput_eps"), Some(1234.5));
        assert_eq!(value_in(line, "setup_s"), Some(0.25));
        assert_eq!(value_in(line, "peak_rss_mb"), None);
    }
}
