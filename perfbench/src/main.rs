//! `perfbench` — time to a certified vertex cover, end to end and per layer.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One process runs one workload: it builds the input from the seed
//! several times (`setup_s`), then solves it repeatedly at pool width
//! `nproc` and at width 1 until about `--seconds` have passed, checking
//! every output. End-to-end times are calibrated against a fixed kernel
//! run around every timed call (calibrate.rs).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every public call, writes them out, and prints the per-layer
//! metrics. The last line of standard output is one JSON object. See
//! README.md for the workloads and what each metric should move.

mod calibrate;
mod spans;
mod workloads;

use calibrate::Calibrator;
use spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Executor, Input, Solved, Workload, MIN_PAIRS, MIN_SETUPS, SETUP_SHARE, WORKLOADS};

/// Seed used when `--seed` is absent; the held-out seed for confirming a
/// gain is [`HOLDOUT_SEED`].
const DEFAULT_SEED: u64 = 20;
/// Seed not used while tuning the benchmark or writing an optimisation.
const HOLDOUT_SEED: u64 = 21;
/// Least share of the process's wall time the top-level spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         defaults: --seed {DEFAULT_SEED} (held-out seed: {HOLDOUT_SEED}), --seconds 10, --trace 0",
        names.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    if std::env::args().nth(1).as_deref() == Some(calibrate::CHILD_FLAG) {
        return calibrate::serve();
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args, t0) {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Build outputs, traces and scratch files stay under the target directory.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("perfbench-runs")
}

/// A directory this run creates for every file it writes except the trace,
/// and removes on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create(parent: &Path, workload: &str) -> Result<Scratch, String> {
        let path = parent.join(format!("scratch-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Tallies solves and checks each against the first: cover, duals and
/// every model number must repeat exactly across samples and pool widths.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
    reference: Option<Solved>,
}

impl Checked {
    fn record(&mut self, label: &str, result: Result<Solved, String>) -> Option<Solved> {
        self.attempted += 1;
        let outcome = result.and_then(|s| match &self.reference {
            None => {
                self.reference = Some(s);
                Ok(s)
            }
            Some(r) if r.fingerprint == s.fingerprint && r.model == s.model => Ok(s),
            Some(r) => Err(format!(
                "output differs from the first solve: fingerprint {:#018x} vs {:#018x}, model {:?} vs {:?}",
                s.fingerprint, r.fingerprint, s.model, r.model
            )),
        });
        match outcome {
            Ok(s) => {
                eprintln!("[perfbench] {label}: {:.4} s", s.wall_s);
                Some(s)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("[perfbench] {label}: FAILED: {e}");
                None
            }
        }
    }
}

/// Runs `f` between two calibration kernel runs on `threads` threads and
/// returns its result with the mean of the two kernel times.
fn bracketed<R>(
    cal: &mut Calibrator,
    threads: usize,
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> R,
) -> Result<(R, f64), String> {
    let s = tr.open("bench.calibrate");
    let before = cal.run(threads);
    tr.close(s);
    let r = f(tr);
    let s = tr.open("bench.calibrate");
    let after = cal.run(threads);
    tr.close(s);
    let (before, after) = (before?, after?);
    eprintln!("[perfbench] calibration kernel at {threads} threads: {before:.4} s, {after:.4} s");
    Ok((r, (before + after) / 2.0))
}

/// One solve on `pool`, between two calibration runs; a panic counts as a
/// failed solve, not a crash. Only a failing kernel is an `Err`.
fn solve_once(
    w: &Workload,
    input: &Input,
    seed: u64,
    pool: &rayon::ThreadPool,
    cal: &mut Calibrator,
    tr: &mut Tracer,
) -> Result<(Result<Solved, String>, f64), String> {
    bracketed(cal, pool.current_num_threads(), tr, |tr| {
        let depth = tr.depth();
        catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| w.solve(input, seed, tr))
        }))
        .unwrap_or_else(|panic| {
            tr.unwind_to(depth);
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        })
    })
}

/// Wall time scaled to the nominal host by the kernel time around it.
fn calibrated(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * calibrate::NOMINAL_S / kernel_s
}

fn run(args: &Args, t0: Instant) -> Result<Report, String> {
    let w = &args.workload;
    let out_dir = output_dir();
    let scratch = Scratch::create(&out_dir, w.name)?;
    // Spill and checkpoint files go to the temporary directory; keep them
    // inside the scratch directory too. Set before any thread exists.
    std::env::set_var("TMPDIR", &scratch.0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| format!("cannot build a {threads}-thread pool: {e}"))
    };
    let (wide, narrow) = (pool(nproc)?, pool(1)?);
    let mut tr = Tracer::new(t0, args.trace);
    let s = tr.open("bench.calibrate");
    let mut cal = Calibrator::start()?;
    tr.close(s);

    // Raw and calibrated times of every build and successful solve. The
    // out-of-core build is bound by file I/O, which the kernel does not
    // model, so its set-up time stays raw.
    let calibrate_setup = w.executor != Executor::OutOfCore;
    let mut input = None;
    let (mut setup_s, mut setup_cal) = (Vec::new(), Vec::new());
    let setups = Instant::now();
    while setup_s.len() < MIN_SETUPS || setups.elapsed().as_secs_f64() < SETUP_SHARE * args.seconds
    {
        let s = tr.open("bench.drop_input");
        drop(input.take());
        tr.close(s);
        let build = |tr: &mut Tracer| wide.install(|| w.setup(args.seed, &scratch.0, tr));
        let (built, kernel_s) = if calibrate_setup {
            bracketed(&mut cal, nproc, &mut tr, build)?
        } else {
            (build(&mut tr), calibrate::NOMINAL_S)
        };
        let (built, secs) = built?;
        eprintln!("[perfbench] setup: {secs:.4} s");
        setup_s.push(secs);
        setup_cal.push(calibrated(secs, kernel_s));
        input = Some(built);
    }
    let input = input.ok_or("the workload plan has no setup")?;
    let edges = input.num_edges();
    let ocsr_bytes = std::fs::metadata(scratch.0.join("graph.ocsr")).map_or(0, |m| m.len());

    // Interleave the two sides of each pair so slow drift hits both.
    let mut checked = Checked::default();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    let (mut first_cal, mut second_cal) = (Vec::new(), Vec::new());
    // The run, set-up included, lasts about `--seconds`: a pair starts only
    // if one more like the last still ends in time, or fewer than
    // MIN_PAIRS are done.
    let (mut pairs, mut last_pair_s) = (0, 0.0);
    while pairs < MIN_PAIRS || t0.elapsed().as_secs_f64() + last_pair_s <= args.seconds {
        let pair = Instant::now();
        if args.trace {
            // Untraced and traced solve at the same width; the difference
            // of their medians is the tracing overhead.
            let s = tr.open("sample.untraced");
            let mut quiet = Tracer::new(t0, false);
            let untraced = solve_once(w, &input, args.seed, &wide, &mut cal, &mut quiet);
            tr.close(s);
            first.extend(checked.record("untraced solve", untraced?.0));
            let s = tr.open("sample.traced");
            let traced = solve_once(w, &input, args.seed, &wide, &mut cal, &mut tr);
            tr.close(s);
            second.extend(checked.record("traced solve", traced?.0));
        } else {
            let (s, kernel_s) = solve_once(w, &input, args.seed, &wide, &mut cal, &mut tr)?;
            if let Some(s) = checked.record(&format!("solve at {nproc} threads"), s) {
                first_cal.push(calibrated(s.wall_s, kernel_s));
                first.push(s);
            }
            let (s, kernel_s) = solve_once(w, &input, args.seed, &narrow, &mut cal, &mut tr)?;
            if let Some(s) = checked.record("solve at 1 thread", s) {
                second_cal.push(calibrated(s.wall_s, kernel_s));
                second.push(s);
            }
        }
        pairs += 1;
        last_pair_s = pair.elapsed().as_secs_f64();
    }

    let s = tr.open("bench.teardown");
    drop(input);
    drop(scratch);
    drop(cal);
    tr.close(s);

    let mut report = Report {
        header: format!(
            "perfbench {} seed={} trace={} nproc={nproc} edges={edges}",
            w.name, args.seed, args.trace as u8
        ),
        correct: checked.failed == 0 && checked.reference.is_some(),
        attempted: checked.attempted,
        failed: checked.failed,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let reference = checked.reference.unwrap_or_default();
    report
        .notes
        .push(format!("fingerprint {:#018x}", reference.fingerprint));

    if args.trace {
        per_layer(&mut report, w, &tr, &first, &second, &reference, ocsr_bytes);
        let wall_s = t0.elapsed().as_secs_f64();
        let coverage = tr.coverage(wall_s);
        report.notes.push(format!(
            "spans cover {:.2}% of {wall_s:.3} s",
            100.0 * coverage
        ));
        if coverage < MIN_SPAN_COVERAGE {
            report.correct = false;
            report.notes.push(format!(
                "FAILED: spans cover less than {:.0}% of the run",
                100.0 * MIN_SPAN_COVERAGE
            ));
        }
        let path = out_dir.join(format!("trace-{}-seed{}.json", w.name, args.seed));
        tr.write_json(
            &path,
            &[
                ("workload", format!("\"{}\"", w.name)),
                ("seed", args.seed.to_string()),
                ("nproc", nproc.to_string()),
                ("process_wall_s", wall_s.to_string()),
                ("span_coverage", coverage.to_string()),
            ],
        )?;
        report
            .notes
            .push(format!("trace written to {}", path.display()));
    } else {
        // End-to-end times are medians of calibrated samples
        // (calibrate.rs); the raw wall-time medians go in the notes.
        let wide_s = median_f(&first_cal);
        let rate = if wide_s > 0.0 {
            edges as f64 / wide_s
        } else {
            0.0
        };
        let m = &reference.model;
        let ok = 1.0 - checked.failed as f64 / checked.attempted as f64;
        let r = &mut report;
        let note = |what: &str, n: usize| format!("calibrated, median of {n} {what}");
        r.metric("solve_s", wide_s, "s", &note("solves", first_cal.len()));
        r.metric(
            "solve_1t_s",
            median_f(&second_cal),
            "s",
            &note("solves", second_cal.len()),
        );
        r.metric("edges_per_s", rate, "edges/s", "input edges / solve_s");
        let setup_note = if calibrate_setup {
            note("builds", setup_cal.len())
        } else {
            format!("raw, median of {} builds", setup_s.len())
        };
        r.metric("setup_s", median_f(&setup_cal), "s", &setup_note);
        r.metric("peak_rss_mb", peak_rss_mb()?, "MB", "VmHWM of this process");
        r.metric(
            "certified_ratio",
            m.certified_ratio,
            "ratio",
            "cover weight / dual bound",
        );
        r.metric("mpc_rounds", m.rounds as f64, "rounds", "");
        r.metric(
            "peak_machine_words",
            m.peak_machine_words as f64,
            "words",
            "",
        );
        r.metric(
            "success_rate",
            ok,
            "fraction",
            &format!("{} of {} solves failed", checked.failed, checked.attempted),
        );
        r.notes.push(format!(
            "raw wall-time medians: solve {:.4} s, solve at 1 thread {:.4} s, setup {:.4} s",
            median(&first),
            median(&second),
            median_f(&setup_s)
        ));
    }
    Ok(report)
}

/// Per-layer metrics of a traced run; layers a workload does not reach
/// read 0.
fn per_layer(
    r: &mut Report,
    w: &Workload,
    tr: &Tracer,
    untraced: &[Solved],
    traced: &[Solved],
    reference: &Solved,
    ocsr_bytes: u64,
) {
    let host = |f: fn(&Solved) -> f64| median_f(&traced.iter().map(f).collect::<Vec<_>>());
    let outside = host(|s| s.wall_s - s.host.round_wall_s);
    let m = &reference.model;
    let distributed = w.executor == Executor::Distributed;
    let roundcompress = w.executor == Executor::RoundCompress;
    let outofcore = w.executor == Executor::OutOfCore;
    let when = |on: bool, v: f64| if on { v } else { 0.0 };
    let route_s = host(|s| s.host.route_s);
    let generate = tr.child_sums("setup", &["graph.gnm", "graph.chung_lu", "graph.weights"]);

    r.metric(
        "graph.generate_s",
        median_f(&generate),
        "s",
        "generator + weight sampling",
    );
    r.metric(
        "graph.stream_build_s",
        median_f(&tr.durations("graph.stream_build")),
        "s",
        "",
    );
    r.metric("graph.ocsr_bytes", ocsr_bytes as f64, "bytes", "");
    r.metric(
        "graph.edge_index_s",
        median_f(&tr.durations("graph.edge_index")),
        "s",
        "",
    );
    r.metric(
        "distributed.outside_rounds_s",
        when(distributed, outside),
        "s",
        "entry call - sum(round_wall)",
    );
    r.metric(
        "distributed.phases",
        when(distributed, m.steps as f64),
        "count",
        "",
    );
    r.metric(
        "roundcompress.outside_rounds_s",
        when(roundcompress, outside),
        "s",
        "entry call - sum(round_wall)",
    );
    r.metric(
        "roundcompress.levels",
        when(roundcompress, m.steps as f64),
        "count",
        "",
    );
    r.metric(
        "outofcore.iterations",
        when(outofcore, m.steps as f64),
        "count",
        "",
    );
    r.metric("mpc.round_wall_s", host(|s| s.host.round_wall_s), "s", "");
    r.metric("mpc.compute_s", host(|s| s.host.compute_s), "s", "");
    r.metric("mpc.route_s", route_s, "s", "");
    r.metric(
        "mpc.slowest_round_s",
        host(|s| s.host.slowest_round_s),
        "s",
        "max round_wall",
    );
    r.metric("mpc.message_words", m.message_words as f64, "words", "");
    let words_per_s = if route_s > 0.0 {
        m.message_words as f64 / route_s
    } else {
        0.0
    };
    r.metric(
        "mpc.route_words_per_s",
        words_per_s,
        "words/s",
        "message_words / route_s",
    );
    r.metric("mpc.spill_words", m.spill_words as f64, "words", "");
    let read_bytes = m.spill_words as f64 * 8.0 * m.steps as f64;
    r.metric(
        "mpc.spill_read_bytes",
        when(outofcore, read_bytes),
        "bytes",
        "computed: spill_words * 8 * iterations",
    );
    let overhead = median(traced) - median(untraced);
    r.metric(
        "trace.overhead_s",
        overhead,
        "s",
        &format!("traced - untraced solve, medians of {}", traced.len()),
    );
}

/// Median wall time of the samples.
fn median(samples: &[Solved]) -> f64 {
    median_f(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>())
}

fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

struct Report {
    header: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit, note)
    metrics: Vec<(&'static str, f64, &'static str, String)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit, note.to_string()));
    }

    /// A readable table, then the JSON object as the last line.
    fn print(&self) {
        println!("{}", self.header);
        for (name, value, unit, note) in &self.metrics {
            println!("  {name:<32} {value:>16.6} {unit:<8} {note}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
