//! The TeNDaX keystroke-to-screen benchmark. See `benchmark/README.md`.

mod agg;
mod calib;
mod catalog;
mod fixture;
mod json;
mod ladder;
mod layers;
mod record;
mod rng;
mod schedule;
mod services;
mod tcp;
mod trace;

use std::process::ExitCode;

use record::RunRecord;

/// `BENCHMARK.json`'s `run_seconds`; `--quick` runs a twentieth of it.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tendax-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]\n\
         \x20      tendax-benchmark --describe | --describe-json\n\
         workloads: {}\n\
         without --workload every workload runs, each in a process of its own",
        catalog::WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => args.seconds = 1,
            "--describe" => {
                print!("{}", catalog::describe());
                std::process::exit(0)
            }
            "--describe-json" => {
                print!("{}", catalog::benchmark_json(DEFAULT_SECONDS));
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        usage();
    }
    args
}

/// Run every workload, each in a child process so that `peak_rss_mb`
/// belongs to one workload. Fails if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for (name, _) in catalog::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("start a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this same command again on one CPU, under `taskset`, and return
/// its exit code; `None` when this process is that second one. On the
/// two-core container a wake-up that crosses cores costs several times
/// one that does not, and which of the two a thread gets changes from
/// run to run (loopback edit p50 104 us or 230 us for one binary and
/// seed); with one op in flight there is nothing to run in parallel.
/// Without `taskset` there is no comparable number to report, so the run
/// fails.
fn rerun_pinned() -> Option<ExitCode> {
    const MARK: &str = "TENDAX_BENCH_PINNED";
    if std::env::var_os(MARK).is_some() {
        return None;
    }
    // The last CPU this process may run on ("0-1" or "2,5" in
    // /proc/self/status); CPU 0 takes most interrupts.
    let cpu = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            allowed
                .trim()
                .rsplit(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u32>()
                .ok()
        });
    let Some(cpu) = cpu else {
        eprintln!("cannot read the allowed CPUs from /proc/self/status: not run");
        return Some(ExitCode::FAILURE);
    };
    let exe = std::env::current_exe().expect("path of this executable");
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(MARK, "1")
        // One CPU, so one malloc arena; and fixed thresholds, because
        // glibc otherwise moves its mmap threshold with the sizes it has
        // seen freed, which depends on thread timing: peak RSS then
        // differed by up to 9 % between runs of one seed, with these
        // settings by 0.3 %.
        .env("MALLOC_ARENA_MAX", "1")
        .env("MALLOC_MMAP_THRESHOLD_", "262144")
        .env("MALLOC_TRIM_THRESHOLD_", "1048576")
        .status();
    Some(match status {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!(
                "cannot pin to one CPU (taskset: {err}); unpinned numbers are bimodal and \
                 not comparable: not run"
            );
            ExitCode::FAILURE
        }
    })
}

fn run_pass(workload: &str, seed: u64, seconds: u64, traced: bool) -> RunRecord {
    match workload {
        "workspace_services" => services::run(seed, seconds, traced),
        name => {
            let w = tcp::by_name(name).unwrap_or_else(|| usage());
            let mut rec = tcp::run(&w, seed, seconds, traced);
            if name == "typing_durable" {
                let failed_before = rec.failed;
                rec.io_ops_per_edit = ladder::crash_check(&mut rec, seed);
                rec.crash_edits_lost = rec.failed - failed_before;
            }
            rec
        }
    }
}

fn print_receipts(workload: &str, args: &Args, rec: &RunRecord) {
    println!(
        "workload {workload}  seed {}  seconds {}{}",
        args.seed,
        args.seconds,
        if args.seconds < DEFAULT_SECONDS {
            "  (short run: sample floors not met, numbers are not comparable)"
        } else {
            ""
        }
    );
    println!(
        "  schedule digest {:016x}  model digest {:016x}  document digest {:016x}",
        rec.schedule_digest, rec.model_digest, rec.doc_digest
    );
    println!(
        "  ops attempted {}  failed {}  measured edits {}  opens {}  rounds {}",
        rec.attempted,
        rec.failed,
        rec.edits,
        rec.samples.of(trace::Class::DocOpen).len(),
        rec.samples.of(trace::Class::Round).len(),
    );
    use trace::Class::*;
    for (label, class) in [
        ("edit ack", EditAck),
        ("edit visible", EditVisible),
        ("doc open", DocOpen),
        ("round", Round),
        ("paste", Paste),
        ("folder refresh", Folder),
        ("search", Search),
        ("mining", Mining),
        ("lineage", Lineage),
        ("task route", Task),
        ("checkpoint", Checkpoint),
        ("vacuum", Vacuum),
    ] {
        let samples = rec.samples.of(class);
        if !samples.is_empty() {
            println!(
                "  {label:<16} {:>7} samples  p50 {:>12.1} us  as measured {:>12.1} us  total {:>8.3} s",
                samples.len(),
                rec.steady_ns(class, 0.5) / 1e3,
                rec.raw_ns(class, 0.5) / 1e3,
                samples.iter().sum::<u64>() as f64 / 1e9
            );
        }
    }
    // How the run went over time: each class's p50 per thirty-second of
    // the run. A neighbour burst on the machine shows as a bump here.
    for (label, class) in [
        ("edit ack", EditAck),
        ("edit visible", EditVisible),
        ("doc open", DocOpen),
        ("round", Round),
        ("calibration (memory)", CalibMem),
        ("calibration (socket)", CalibNet),
    ] {
        let s = rec.samples.of(class);
        if s.len() >= 64 {
            let blocks: Vec<String> = (0..32)
                .map(|b| &s[b * s.len() / 32..(b + 1) * s.len() / 32])
                .map(|b| format!("{:.0}", agg::percentile(b, 0.5) / 1e3))
                .collect();
            println!("  {label} p50 by 32nd of the run, us: {}", blocks.join(" "));
        }
    }
    println!(
        "  machine factor: run {:.3}  set-ups {:.3}  reopens {:.3}  (1.0 = the reference state)",
        rec.factor(),
        rec.setups.factor(),
        rec.reopens.factor()
    );
    for p in rec.problems.iter().take(10) {
        println!("  PROBLEM: {p}");
    }
}

fn main() -> ExitCode {
    // `Options::default()` reads these; the workloads fix the engine's
    // configuration themselves.
    std::env::remove_var("TENDAX_WAL_SHARDS");
    std::env::remove_var("TENDAX_COLD");
    let args = parse_args();
    let Some(workload) = args.workload.clone() else {
        return run_all(&args);
    };
    if !catalog::WORKLOADS.iter().any(|w| w.0 == workload) {
        usage();
    }
    if let Some(code) = rerun_pinned() {
        return code;
    }

    let rec = run_pass(&workload, args.seed, args.seconds, false);
    print_receipts(&workload, &args, &rec);
    let (mut correct, mut attempted, mut failed) = (rec.correct(), rec.attempted, rec.failed);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced = run_pass(&workload, args.seed, args.seconds, true);
        let path = fixture::out_dir().join(format!("trace_{workload}.jsonl"));
        if let Err(err) = traced.tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {err}", path.display());
        }
        let rungs = ladder::run(&workload, args.seed, args.seconds);
        let values = layers::assemble(&rec, &traced, rungs);
        for m in catalog::PER_LAYER {
            let value = values.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<44} {value:>16.4} {}", m.name, m.unit);
            metrics.push((m.name, value, m.unit));
        }
        correct &= traced.correct();
        attempted += traced.attempted;
        failed += traced.failed;
    } else {
        let values = rec.end_to_end();
        for m in catalog::END_TO_END {
            let (_, value, raw) = values
                .iter()
                .find(|(n, ..)| *n == m.name)
                .unwrap_or_else(|| panic!("no value for {}", m.name));
            // `as measured` is the same statistic without the machine
            // factor; `repeat.sh` reads it for its with/without table.
            println!(
                "  {:<28} {value:>16.4} {:<6} as measured {raw:>16.4}",
                m.name, m.unit
            );
            metrics.push((m.name, *value, m.unit));
        }
    }
    fixture::remove_scratch();

    println!(
        "{}",
        json::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
