//! `perfbench` — one run of one workload. Normally started through
//! `python3 perfbench/run.py`, which builds this binary and `campaignd`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon-bin PATH
//! ```
//!
//! Prints the machine fingerprint, every check and every metric by name
//! with its unit, then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The same record, with
//! the fingerprint and checks, goes to
//! `perfbench/results/<workload>-seed<N>-trace<T>.json`. Exits 1 when any
//! output check fails and 2 on a usage or environment error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::e2e::{self, RunArgs};
use perfbench::workloads::Workload;
use perfbench::{fingerprint, json_str, layers, Outcome};

struct Cli {
    run: RunArgs,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload attack_matrix|defense_matrix|campaignd_jobs --seed N \
--seconds S --trace 0|1 --daemon-bin PATH"
        .to_string()
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut daemon_bin = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value for {flag}: {value}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--daemon-bin" => daemon_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    Ok(Cli {
        run: RunArgs {
            workload: workload.ok_or_else(usage)?,
            seed,
            seconds,
            daemon_bin: daemon_bin.ok_or_else(usage)?,
            root,
        },
        trace,
    })
}

fn metrics_json(o: &Outcome) -> String {
    let items: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics_json(o)
    )
}

/// The full record written under `perfbench/results/`.
fn record(cli: &Cli, o: &Outcome, print: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {{",
        json_str(cli.run.workload.name()),
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.trace)
    );
    let fp: Vec<String> = print
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    out.push_str(&fp.join(", "));
    out.push_str("}, \"checks\": {");
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(name, r)| {
            let verdict = match r {
                Ok(()) => "ok".to_string(),
                Err(why) => why.clone(),
            };
            format!("{}: {}", json_str(name), json_str(&verdict))
        })
        .collect();
    out.push_str(&checks.join(", "));
    let notes: Vec<String> = o.notes.iter().map(|n| json_str(n)).collect();
    let _ = writeln!(
        out,
        "}}, \"notes\": [{}], \"result\": {}}}",
        notes.join(", "),
        result_line(o)
    );
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Internal: the set-up probe that `setup_s` times from its parent.
    if let [flag, name, seed_flag, seed] = argv.as_slice() {
        if flag == "--probe" && seed_flag == "--seed" {
            let (Some(workload), Ok(seed)) = (Workload::parse(name), seed.parse()) else {
                return ExitCode::from(2);
            };
            e2e::prepare(workload, seed);
            println!("ready");
            return ExitCode::SUCCESS;
        }
    }
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let print = fingerprint(&cli.run.root);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cli.run.workload.name(),
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.trace)
    );
    let fp: Vec<String> = print.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("fingerprint {}", fp.join(" "));

    let outcome = if cli.trace {
        layers::run(&cli.run)
    } else {
        e2e::run(&cli.run)
    };
    let state = cli.run.state_root();
    let _ = std::fs::remove_dir_all(&state);
    if let Some(parent) = state.parent() {
        // Removed only once no other run's directory is left in it.
        let _ = std::fs::remove_dir(parent);
    }
    let o = match outcome {
        Ok(o) => o,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    for (name, r) in &o.checks {
        match r {
            Ok(()) => println!("check {name}: ok"),
            Err(why) => println!("check {name}: FAILED ({why})"),
        }
    }
    for note in &o.notes {
        println!("note {note}");
    }
    for m in &o.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let dir = cli.run.root.join("perfbench/results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        cli.run.workload.name(),
        cli.run.seed,
        u8::from(cli.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record(&cli, &o, &print)))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{}", result_line(&o));
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
