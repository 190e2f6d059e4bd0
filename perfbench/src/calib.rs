//! Host-speed calibration. The benchmark's host is a VM on shared
//! hardware, and its speed drifts by up to 2x over seconds: the
//! hypervisor takes the virtual CPU away (steal), and clock frequency
//! and contention change how fast it runs. Every host time the benchmark
//! reports is therefore
//!
//! - process CPU time, not wall time, so that time the process did not
//!   run does not count, and
//! - scaled to a nominal host speed: a fixed reference kernel, owned by
//!   the benchmark and independent of the library, is timed between
//!   chunks of measured work, and each chunk's CPU time is multiplied by
//!   the reference's nominal pass time over the mean of the passes timed
//!   just before and just after it.
//!
//! A change to the library moves the measured work but never the
//! reference. Work the library spreads over threads is counted in full.

use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

use veda_model::ModelConfig;

/// CPU nanoseconds of the reference's fixed part at full speed on the
/// measurement host (about the 5th percentile of its pass times).
const NOMINAL_FIXED_NS: f64 = 180_000.0;

/// CPU nanoseconds per multiply-add of the reference's footprint sweep
/// at full speed on the measurement host, over the small model's
/// 4096x256 LM-head shape (about the 5th percentile).
const NOMINAL_SWEEP_NS_PER_MAC: f64 = 0.7;

/// Wall time of measured work between two reference passes.
const CHUNK: Duration = Duration::from_millis(20);

const DIM: usize = 64;

/// Chained 64x64 `f32` matrix-vector products.
const ITERS: usize = 100;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU nanoseconds this process has run, summed over its threads.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The reference kernel. Its fixed part is plain `f32` multiply-adds on
/// an L1-resident matrix; its footprint part sweeps once over a matrix
/// of the workload model's LM-head shape (vocab x d_model), so that a
/// workload whose weights spill out of the core's caches is calibrated
/// by work that spills the same way. For the tiny model the sweep is
/// under 1% of a pass; for the small model, about 80%.
pub struct Reference {
    m: Vec<f32>,
    x: Vec<f32>,
    sweep: Vec<f32>,
    sweep_x: Vec<f32>,
    sweep_y: Vec<f32>,
    nominal_ns: f64,
}

impl Reference {
    pub fn new(model: &ModelConfig) -> Self {
        let (rows, cols) = (model.vocab_size, model.d_model);
        Reference {
            m: (0..DIM * DIM).map(|i| (i * 7 % 13) as f32 / 13.0).collect(),
            x: vec![0.5; DIM],
            sweep: (0..rows * cols).map(|i| (i % 13) as f32 / 13.0).collect(),
            sweep_x: vec![0.5; cols],
            sweep_y: vec![0.0; rows],
            nominal_ns: NOMINAL_FIXED_NS + (rows * cols) as f64 * NOMINAL_SWEEP_NS_PER_MAC,
        }
    }

    /// CPU nanoseconds of one pass.
    pub fn sample(&mut self) -> f64 {
        let c0 = cpu_ns();
        let cols = self.sweep_x.len();
        for (row, out) in black_box(&self.sweep).chunks_exact(cols).zip(self.sweep_y.iter_mut()) {
            *out = row.iter().zip(&self.sweep_x).fold(0.0, |acc, (a, b)| acc + a * b);
        }
        black_box(&self.sweep_y);
        for _ in 0..ITERS {
            let mut y = [0f32; DIM];
            for (row, out) in black_box(&self.m).chunks_exact(DIM).zip(y.iter_mut()) {
                *out = row.iter().zip(&self.x).fold(0.0, |acc, (a, b)| acc + a * b);
            }
            for (x, y) in self.x.iter_mut().zip(y) {
                *x = y / DIM as f32 + 0.5;
            }
        }
        black_box(&self.x);
        (cpu_ns() - c0) as f64
    }

    /// Runs `f` between two reference passes; returns its result, its
    /// calibrated seconds and its wall seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.sample();
        let (t0, c0) = (Instant::now(), cpu_ns());
        let out = f();
        let (cpu_s, wall_s) = ((cpu_ns() - c0) as f64 / 1e9, t0.elapsed().as_secs_f64());
        let after = self.sample();
        (out, cpu_s * self.factor(before, after), wall_s)
    }

    /// Calibration factor of work bracketed by two reference passes.
    fn factor(&self, before_ns: f64, after_ns: f64) -> f64 {
        2.0 * self.nominal_ns / (before_ns + after_ns)
    }
}

/// Calibrates a timed loop chunk by chunk: every [`CHUNK`] of wall time
/// it closes the chunk with a reference pass (not counted in the loop's
/// time).
pub struct Chunks {
    reference: Reference,
    last_ns: f64,
    start: Instant,
    start_cpu: u64,
    first_tick: usize,
    /// (wall seconds, CPU seconds, ticks end, factor) of each closed chunk.
    closed: Vec<(f64, f64, usize, f64)>,
}

impl Chunks {
    pub fn start(model: &ModelConfig) -> Self {
        let mut reference = Reference::new(model);
        let last_ns = reference.sample();
        Chunks {
            reference,
            last_ns,
            start: Instant::now(),
            start_cpu: cpu_ns(),
            first_tick: 0,
            closed: Vec::new(),
        }
    }

    /// Called after each tick with the number of ticks timed so far.
    pub fn after_tick(&mut self, ticks: usize) {
        if self.start.elapsed() >= CHUNK {
            self.close(ticks);
        }
    }

    fn close(&mut self, ticks: usize) {
        let cpu_s = (cpu_ns() - self.start_cpu) as f64 / 1e9;
        let wall_s = self.start.elapsed().as_secs_f64();
        let now_ns = self.reference.sample();
        self.closed.push((wall_s, cpu_s, ticks, self.reference.factor(self.last_ns, now_ns)));
        self.last_ns = now_ns;
        self.first_tick = ticks;
        self.start = Instant::now();
        self.start_cpu = cpu_ns();
    }

    /// Closes the last chunk and scales `tick_ns` (CPU nanoseconds of
    /// each tick) in place. Returns the loop's calibrated, CPU and wall
    /// seconds.
    pub fn finish(mut self, tick_ns: &mut [u64]) -> (f64, f64, f64) {
        if self.first_tick < tick_ns.len() || self.closed.is_empty() {
            self.close(tick_ns.len());
        }
        let (mut calibrated_s, mut cpu_s, mut wall_s, mut from) = (0.0, 0.0, 0.0, 0);
        for &(chunk_wall_s, chunk_cpu_s, to, f) in &self.closed {
            for ns in &mut tick_ns[from..to] {
                *ns = (*ns as f64 * f).round() as u64;
            }
            calibrated_s += chunk_cpu_s * f;
            cpu_s += chunk_cpu_s;
            wall_s += chunk_wall_s;
            from = to;
        }
        (calibrated_s, cpu_s, wall_s)
    }
}
