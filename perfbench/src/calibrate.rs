//! Host-speed calibration of the end-to-end times.
//!
//! A virtual machine on a shared host does not run at one speed. Other
//! tenants compete for the shared cache and memory system, and
//! memory-bound code such as these solvers slows by up to 2× for seconds
//! to minutes at a time. Raw wall times of the same code then spread
//! between runs far more than any useful bound.
//!
//! [`Calibrator`] times a fixed kernel that shares no code with the
//! program under test: a chain of dependent random reads through a
//! 16 MiB table, more than a core's private caches, so nearly every step
//! waits on the shared cache the way the solvers' scattered reads do. It
//! runs right before and right after every measured call, on as many
//! threads as the call uses. Each measured wall time `t` is reported as
//!
//! ```text
//! calibrated = t × NOMINAL_S / k
//! ```
//!
//! where `k` is the mean of the two kernel times around it: the time the
//! call would take on a host where one kernel run takes [`NOMINAL_S`]. A
//! program change moves `t` and leaves `k` alone, so it moves the reported
//! time by the same factor; a host slow-down moves both.
//!
//! The kernel runs in a child process (this binary, started with
//! [`CHILD_FLAG`]), so its table is not part of the benchmark process's
//! peak resident set. The child builds the table once, then answers one
//! request at a time over its standard input and output, and exits when
//! its standard input closes.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// First argument that makes the binary serve kernel runs instead.
pub const CHILD_FLAG: &str = "--calibration-kernel";

/// Kernel time, in seconds, that calibrated times are scaled to: about
/// what a single-thread kernel run takes on an uncontended 2-vCPU x86-64
/// virtual machine, so calibrated seconds stay close to wall seconds there.
pub const NOMINAL_S: f64 = 0.15;

/// Table entries (u32): 16 MiB.
const TABLE_LEN: usize = 1 << 22;
/// Dependent reads per kernel run on each thread.
const STEPS: usize = 600_000;

fn splitmix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Each read's index hashes the value read before it with the step
/// number, so the chain never settles into a short cached cycle.
fn chase(table: &[u32], start: u64) -> u64 {
    let mut h = start;
    for k in 0..STEPS as u64 {
        let i = (splitmix(h ^ k) as usize) & (TABLE_LEN - 1);
        h = u64::from(table[i]) ^ (h << 1);
    }
    h
}

/// Runs `threads` chases at once and returns the wall time.
fn kernel(table: &[u32], threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads as u64)
            .map(|k| s.spawn(move || chase(table, k)))
            .collect();
        for run in runs {
            black_box(run.join().unwrap_or_default());
        }
    });
    t.elapsed().as_secs_f64()
}

/// The child's side: builds the table, says `ready`, then reads one thread
/// count per line and answers each with one kernel time in seconds.
pub fn serve() -> std::process::ExitCode {
    let mut state = 0x00ca_11b7_a7e5_u64;
    let table: Vec<u32> = (0..TABLE_LEN)
        .map(|_| {
            state = splitmix(state);
            state as u32
        })
        .collect();
    let mut out = std::io::stdout().lock();
    if writeln!(out, "ready").and_then(|_| out.flush()).is_err() {
        return std::process::ExitCode::FAILURE;
    }
    for line in std::io::stdin().lock().lines() {
        let Some(threads) = line.ok().and_then(|l| l.trim().parse::<usize>().ok()) else {
            return std::process::ExitCode::FAILURE;
        };
        let secs = kernel(&table, threads.max(1));
        if writeln!(out, "{secs}").and_then(|_| out.flush()).is_err() {
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}

/// The benchmark's side: owns the child and asks it for kernel runs.
/// Dropping it closes the child's input and waits for the child to exit.
pub struct Calibrator {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Calibrator {
    /// Starts the child and waits until its table is built.
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot find this binary to start the calibration kernel: {e}"))?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the calibration kernel: {e}"))?;
        let (to, from) = (child.stdin.take(), child.stdout.take());
        let mut cal = Calibrator {
            child,
            to,
            from: BufReader::new(from.ok_or("calibration kernel has no output pipe")?),
        };
        match cal.read_line()?.as_str() {
            "ready" => Ok(cal),
            other => Err(format!("calibration kernel said {other:?}, not ready")),
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.from.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line.trim().to_string()),
            Ok(_) => Err("calibration kernel exited".to_string()),
            Err(e) => Err(format!("cannot read from the calibration kernel: {e}")),
        }
    }

    /// One kernel run on `threads` threads at once; returns its wall time.
    pub fn run(&mut self, threads: usize) -> Result<f64, String> {
        let to = self.to.as_mut().ok_or("calibration kernel is closed")?;
        writeln!(to, "{threads}")
            .and_then(|_| to.flush())
            .map_err(|e| format!("cannot write to the calibration kernel: {e}"))?;
        let line = self.read_line()?;
        line.parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("calibration kernel answered {line:?}"))
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        drop(self.to.take());
        let _ = self.child.wait();
    }
}
