//! What the machine is and how fast it is right now: the stamp every results file
//! carries, the calibration loop that shows when the machine was disturbed, and the
//! process's own peak RSS.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// No run uses more threads than this.
pub fn tmax() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn rss_peak_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A fixed amount of work that depends on nothing in the repository: a pointer chase
/// through a 16 MiB random cycle (memory latency) followed by a dependent integer chain
/// (core speed). Its duration moves only when the machine does. It runs between any two
/// measurements, and each measurement is scaled by the run before it and the run after.
pub struct Calibration {
    next: Vec<u32>,
    last_s: f64,
    seen_s: Vec<f64>,
}

impl Calibration {
    const SLOTS: usize = 1 << 22;
    const CHASE_STEPS: usize = 150_000;
    const CHAIN_STEPS: usize = 10_000_000;

    pub fn new() -> Self {
        // Sattolo's algorithm: a single cycle through all slots, so the chase cannot
        // settle into a short, cache-resident loop.
        let mut next: Vec<u32> = (0..Self::SLOTS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..Self::SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        let mut calibration = Self {
            next,
            last_s: 0.0,
            seen_s: Vec::new(),
        };
        calibration.last_s = calibration.run();
        calibration
    }

    /// Runs the fixed work and returns the seconds it took.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut p = 0u32;
        for _ in 0..Self::CHASE_STEPS {
            p = self.next[p as usize];
        }
        let mut x = black_box(88_172_645_463_325_252u64) ^ u64::from(p);
        for _ in 0..Self::CHAIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        let seconds = start.elapsed().as_secs_f64();
        self.seen_s.push(seconds);
        seconds
    }

    /// Calibrates now and returns the factor that takes a duration measured since the
    /// previous call to what it would have been on the quiet reference box. There
    /// everything — this loop, every layer of the partitioner — slows down together by
    /// up to 1.7x for ten seconds and more at a time (a busy hyperthread sibling, by the
    /// look of it), so unscaled medians of whole runs differ by a third; scaled ones by
    /// a few percent.
    pub fn scale_since_last(&mut self) -> f64 {
        let before_s = self.last_s;
        self.last_s = self.run();
        REFERENCE_CALIB_S / ((before_s + self.last_s) / 2.0)
    }

    /// Seconds the most recent calibration run took.
    pub fn last_s(&self) -> f64 {
        self.last_s
    }

    /// Seconds of every calibration run so far.
    pub fn seen_s(&self) -> &[f64] {
        &self.seen_s
    }
}

/// What one calibration run takes on the quiet 2-vCPU reference box (median of 300
/// back-to-back runs: 0.0403 s). Times are reported as if the calibration loop had run
/// at this speed; see [`Calibration::scale_since_last`].
pub const REFERENCE_CALIB_S: f64 = 0.040;

/// When a run's calibration times spread wider than this (ninth decile over first) the
/// machine was not the same machine throughout, and the results say so.
pub const NOISY_CALIB_RATIO: f64 = 1.15;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The fields ROADMAP item 2 lists as missing from every BENCH file.
pub fn stamp() -> Vec<(String, Json)> {
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".to_string()));
    vec![
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        ("cpu_model".to_string(), text(cpu_model())),
        ("tmax".to_string(), Json::Num(tmax() as f64)),
        ("rustc".to_string(), text(command_line("rustc", &["-V"]))),
        (
            "git_commit".to_string(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}
