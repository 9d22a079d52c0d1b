//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on standard error and the result line as the last
//! line of standard output; exits 2 on a bad command line and 1 when
//! the harness cannot produce a result.
//!
//! The program starts itself with `--canary 1` added to run a canary in
//! a child process: it then runs the workload at canary size and prints
//! the outcome as lines for the parent (see `opeer_perfbench::run`).

use opeer_perfbench::workloads::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <cold_build|epoch_stream|wire_read|sweep> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    canary: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut canary) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
                .is_some(),
            "--seconds" => seconds
                .replace(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
                .is_some(),
            "--trace" => trace.replace(flag_bit(&flag, &value)?).is_some(),
            "--canary" => canary.replace(flag_bit(&flag, &value)?).is_some(),
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        if slot_taken {
            return Err(format!("`{flag}` given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        canary: canary.unwrap_or(false),
    })
}

fn flag_bit(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad {} `{value}`", flag.trim_start_matches('-'))),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.canary {
        print!(
            "{}",
            opeer_perfbench::canary_lines(args.workload, args.seed, args.seconds, args.trace)
        );
        return ExitCode::SUCCESS;
    }
    let run = match opeer_perfbench::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &run.notes {
        eprintln!("perfbench: {note}");
    }
    if let Some(spans) = &run.spans_json {
        let dir = std::path::Path::new(".bench_build").join("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
    }
    println!("{}", run.line);
    ExitCode::SUCCESS
}
