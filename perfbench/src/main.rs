//! The repository benchmark. Drives one named workload through
//! `veda_serving::Cluster` from a seeded generator, checks its outputs,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 11 --seconds 10 --trace 0
//! ```

mod calib;
mod gate;
mod measure;
mod probes;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use veda_accel::DecodeScheduler;
use veda_mem::HbmConfig;

use calib::Reference;
use gate::Gate;
use measure::{median, percentile, tail, Rep, Virt};
use traced::{BenchSink, Recorded, Spans};
use workloads::Spec;

pub type Error = Box<dyn std::error::Error>;

/// Default seed of each workload. The held-out seeds, kept for
/// re-checking later claims, are listed in `DEFINITION.json`; both have
/// goldens in `goldens.txt`.
const DEFAULT_SEEDS: [(&str, u64); 3] = [("serve_mixed", 11), ("decode_long", 12), ("chaos_prefix", 13)];

/// Set-ups timed per run, at least (`setup_s` is their median).
const SETUPS: usize = 9;

/// Host seconds of timed set-ups per run, at least: cheap set-ups are
/// timed many more than [`SETUPS`] times.
const SETUP_S: f64 = 1.0;

/// Host seconds of untimed warm-up set-ups before the timed ones.
const WARM_UP_S: f64 = 0.5;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    print_digest: bool,
}

fn parse_args() -> Result<Args, Error> {
    let mut args =
        Args { workload: String::new(), seed: None, seconds: 10.0, trace: false, print_digest: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value after {arg}"));
        match arg.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse()?),
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--print-digest" => args.print_digest = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required (one of {:?})", workloads::NAMES).into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Host-time results of the measured repetitions, calibrated to the
/// nominal host speed, with the uncalibrated wall times beside them.
#[derive(Default)]
struct Host {
    setup_s: Vec<f64>,
    setup_wall_s: Vec<f64>,
    tokens_per_s: Vec<f64>,
    requests_per_s: Vec<f64>,
    tick_ns: Vec<u64>,
    loop_s: Vec<f64>,
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
    report_s: Vec<f64>,
}

impl Host {
    fn add(&mut self, run: &Run) {
        let (rep, virt) = (&run.rep, &run.virt);
        self.tokens_per_s.push(virt.tokens() as f64 / rep.loop_s);
        self.requests_per_s.push(virt.completed as f64 / rep.loop_s);
        self.tick_ns.extend_from_slice(&rep.tick_ns);
        self.loop_s.push(rep.loop_s);
        self.cpu_s.push(rep.cpu_s);
        self.wall_s.push(rep.wall_s);
        self.report_s.push(rep.report_s);
    }
}

/// One repetition: its host observations, deterministic summary and,
/// when traced, the sink's recording.
struct Run {
    rep: Rep,
    virt: Virt,
    recorded: Option<Recorded>,
}

/// Everything one invocation runs and checks.
struct Bench {
    spec: Spec,
    seed: u64,
    gate: Gate,
    /// Report and digest of the first repetition: every later run of the
    /// same input must reproduce them.
    reference: Option<(veda_serving::ClusterReport, u64)>,
    attempted: usize,
    failed: usize,
}

impl Bench {
    fn expected_requests(&self) -> usize {
        match self.spec.arrivals {
            workloads::Arrivals::Poisson { total, .. } | workloads::Arrivals::Closed { total, .. } => total,
        }
    }

    /// One set-up plus repetition, checked against the first one
    /// (same report, same digest) and for conservation. With `spans`,
    /// the repetition is traced: spans around each call into a layer and
    /// the benchmark's sink on the cluster, whose recording is returned.
    fn rep(&mut self, threads: usize, mut spans: Option<&mut Spans>, what: &str) -> Result<Run, Error> {
        let (sink, recorded) = if spans.is_some() {
            let (sink, recorded) = BenchSink::install(&self.spec);
            (Some(sink), Some(recorded))
        } else {
            (None, None)
        };
        let cluster = workloads::setup(&self.spec, self.seed, threads, sink, spans.as_deref_mut())?;
        let rep = measure::drive(cluster, &self.spec.model, spans);
        let virt = Virt::of(&rep.report);
        self.gate.conservation(&rep.report, self.expected_requests());
        self.attempted += virt.submitted;
        self.failed += virt.submitted - virt.completed;
        match &self.reference {
            None => self.reference = Some((rep.report.clone(), virt.digest)),
            Some((report, digest)) => {
                self.gate.same_digest(what, *digest, virt.digest);
                self.gate.same_report(what, report, &rep.report);
            }
        }
        let recorded = match recorded {
            Some(shared) => Some(std::mem::take(&mut *shared.lock().map_err(|_| "trace sink poisoned")?)),
            None => None,
        };
        Ok(Run { rep, virt, recorded })
    }

    /// Untraced repetitions for `seconds` (at least one).
    fn measure(&mut self, seconds: f64, host: &mut Host) -> Result<Virt, Error> {
        let start = Instant::now();
        let mut virt = None;
        loop {
            let run = self.rep(self.spec.decode_threads, None, "untraced repetition")?;
            host.add(&run);
            virt = virt.or(Some(run.virt));
            let mean = start.elapsed().as_secs_f64() / host.loop_s.len() as f64;
            if start.elapsed().as_secs_f64() + mean > seconds {
                break;
            }
        }
        virt.ok_or_else(|| "no repetition ran".into())
    }

    /// Times back-to-back set-ups, each between two calibration passes,
    /// until [`SETUPS`] ran and [`SETUP_S`] passed; `setup_s` is their
    /// median. Untimed warm-up set-ups run first for [`WARM_UP_S`], so
    /// the timed ones do not see a cold process or an idle CPU.
    fn time_setups(&self, host: &mut Host) -> Result<(), Error> {
        let mut reference = Reference::new(&self.spec.model);
        let start = Instant::now();
        let mut timed_s = 0.0;
        while host.setup_s.len() < SETUPS || timed_s < SETUP_S {
            let (cluster, calibrated_s, wall_s) = reference
                .time(|| workloads::setup(&self.spec, self.seed, self.spec.decode_threads, None, None));
            drop(cluster?);
            if start.elapsed().as_secs_f64() > WARM_UP_S {
                host.setup_s.push(calibrated_s);
                host.setup_wall_s.push(wall_s);
                timed_s += wall_s;
            }
        }
        Ok(())
    }

    /// A traced repetition; returns it with its spans and recording.
    fn traced(&mut self) -> Result<(Spans, Run, Recorded), Error> {
        let mut spans = Spans::new();
        let mut run = self.rep(self.spec.decode_threads, Some(&mut spans), "traced vs untraced")?;
        let recorded = run.recorded.take().ok_or("traced repetition recorded nothing")?;
        Ok((spans, run, recorded))
    }

    /// The gate checks every mode shares: accel replay, thread-count
    /// invariance (decode_long) and the golden digest.
    fn replay_and_threads(&mut self, recorded: &Recorded, virt: &Virt) -> Result<ReplayOut, Error> {
        let engine = workloads::build_engine(&self.spec, 1)?;
        let scheduler = DecodeScheduler::new(
            engine.arch().clone(),
            shape_of(&self.spec),
            HbmConfig::default(),
            engine.variant(),
        );
        let out = match traced::replay(&scheduler, &recorded.steps) {
            Ok((components, total, host_s)) => {
                self.gate.require_equal(
                    "accel replay cycles vs engine batched cycles",
                    total,
                    virt.batched_cycles,
                );
                ReplayOut { components, host_s, calls: recorded.steps.len() }
            }
            Err(e) => {
                self.gate.violations.push(e.to_string());
                ReplayOut::default()
            }
        };
        if self.spec.name == "decode_long" {
            self.rep(2, None, "decode_long at 2 decode threads vs 1")?;
        }
        self.gate.golden(self.spec.name, self.seed, virt.digest);
        Ok(out)
    }
}

#[derive(Default)]
struct ReplayOut {
    components: std::collections::BTreeMap<&'static str, u64>,
    host_s: f64,
    calls: usize,
}

fn shape_of(spec: &Spec) -> veda_accel::LlamaShape {
    let m = &spec.model;
    veda_accel::LlamaShape {
        d_model: m.d_model,
        n_heads: m.n_heads,
        ffn_hidden: m.ffn_hidden,
        n_layers: m.n_layers,
        vocab_size: m.vocab_size,
    }
}

/// Peak resident memory of this process, in MB (from `VmHWM`).
fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run() -> Result<bool, Error> {
    let args = parse_args()?;
    let spec = workloads::spec(&args.workload)?;
    let seed = args
        .seed
        .or_else(|| DEFAULT_SEEDS.iter().find(|s| s.0 == spec.name).map(|s| s.1))
        .ok_or("no default seed")?;
    let mut bench = Bench { spec, seed, gate: Gate::default(), reference: None, attempted: 0, failed: 0 };
    println!(
        "perfbench: workload {} seed {seed} seconds {} trace {} host_parallelism {}",
        bench.spec.name,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    if args.print_digest {
        let run = bench.rep(bench.spec.decode_threads, None, "digest")?;
        println!("{} {seed} {:016x}", bench.spec.name, run.virt.digest);
        return Ok(true);
    }

    let metrics =
        if args.trace { per_layer(&mut bench, args.seconds)? } else { end_to_end(&mut bench, args.seconds)? };

    for v in &bench.gate.violations {
        println!("GATE VIOLATION: {v}");
    }
    if !bench.gate.golden_checked {
        println!(
            "gate: seed {seed} has no committed golden digest; run-to-run, traced and thread checks only"
        );
    }
    let correct = bench.gate.ok();
    let failed = if correct { bench.failed } else { bench.attempted };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        bench.attempted.max(1),
        body.join(", ")
    );
    Ok(correct)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `--trace 0`: untraced repetitions for the host metrics, then the gate.
fn end_to_end(bench: &mut Bench, seconds: f64) -> Result<Vec<Metric>, Error> {
    let mut host = Host::default();
    bench.time_setups(&mut host)?;
    let virt = bench.measure(seconds, &mut host)?;
    let rss = peak_rss_mb()?;

    let (_, traced, recorded) = bench.traced()?;
    bench.replay_and_threads(&recorded, &traced.virt)?;

    let mut ticks = host.tick_ns.clone();
    ticks.sort_unstable();
    let (tick_p, tick_tail, tick_beyond) = tail(&ticks);
    let (ttft_p, ttft_tail, ttft_beyond) = tail(&virt.ttft);
    let (e2e_p, e2e_tail, e2e_beyond) = tail(&virt.e2e);
    println!(
        "reps {} | ticks sampled {} | host_tick_tail = p{tick_p} ({tick_beyond} samples beyond) | \
         virt_ttft_tail = p{ttft_p} of {} ({ttft_beyond} beyond) | virt_e2e_tail = p{e2e_p} of {} ({e2e_beyond} beyond)",
        host.loop_s.len(),
        ticks.len(),
        virt.ttft.len(),
        virt.e2e.len()
    );
    println!(
        "host times are calibrated CPU times; medians of the tick loop: wall {:.4} s, CPU {:.4} s, \
         calibrated {:.4} s; set-up wall {:.6} s",
        median(&host.wall_s),
        median(&host.cpu_s),
        median(&host.loop_s),
        median(&host.setup_wall_s),
    );
    println!(
        "requests {} completed {} rejected {} shed {} dead-lettered {} retries {} | virtual ticks {}",
        virt.submitted, virt.completed, virt.rejected, virt.shed, virt.dead_letters, virt.retries, virt.ticks
    );
    let m = vec![
        metric("setup_s", median(&host.setup_s), "s"),
        metric("host_tokens_per_s", median(&host.tokens_per_s), "tokens/s"),
        metric("host_requests_per_s", median(&host.requests_per_s), "requests/s"),
        metric("host_tick_p50_us", percentile(&ticks, 50.0) as f64 / 1e3, "us"),
        metric("host_tick_tail_us", tick_tail as f64 / 1e3, "us"),
        metric("peak_rss_mb", rss, "MB"),
        metric("virt_ttft_p50_ticks", percentile(&virt.ttft, 50.0) as f64, "ticks"),
        metric("virt_ttft_tail_ticks", ttft_tail as f64, "ticks"),
        metric("virt_e2e_tail_ticks", e2e_tail as f64, "ticks"),
        metric("virt_goodput_per_ktick", virt.goodput_per_ktick(), "requests/ktick"),
        metric("virt_cycles_per_token", virt.cycles_per_token(), "cycles/token"),
        metric("virt_energy_uj_per_token", virt.energy_uj_per_token(), "uJ/token"),
        metric("completed_frac", virt.completed_frac(), "frac"),
    ];
    for (name, value, unit) in &m {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    Ok(m)
}

/// `--trace 1`: traced and untraced repetitions, the probes, and the
/// per-layer table.
fn per_layer(bench: &mut Bench, seconds: f64) -> Result<Vec<Metric>, Error> {
    let start = Instant::now();
    let mut host = Host::default();
    let mut traced_loop_s = Vec::new();
    // A traced repetition first: its recording shapes the probes.
    let (mut spans, first, rec) = bench.traced()?;
    traced_loop_s.push(first.rep.loop_s);
    let virt = first.virt;

    let spec = bench.spec.clone();
    let model = &spec.model;
    let layers = model.n_layers as f64;
    let tokens = virt.tokens() as f64;
    let mut decode_lens: Vec<usize> = rec.decode_lens().collect();
    decode_lens.sort_unstable();
    let mut forward_lens: Vec<usize> = rec.prefill_positions().chain(decode_lens.iter().copied()).collect();
    forward_lens.sort_unstable();
    let median_len = decode_lens.get(decode_lens.len() / 2).copied().unwrap_or(1);
    let probe = probes::ModelProbe::new(model, &probes::quantiles(&forward_lens, 5));
    // The probes run once here and once after the repetitions; each
    // keeps its fastest pass, so host-speed drift between the traced
    // ticks and the probes cannot inflate the inner-layer estimates.
    let mut costs = probes::Costs::measure(&spec, &probe, &rec, &virt, median_len)?;

    // Alternate untraced and traced repetitions for half the budget. Every
    // repetition reproduces the first one's report (the gate checks it),
    // so only the newest spans are kept.
    loop {
        let run = bench.rep(bench.spec.decode_threads, None, "untraced vs traced")?;
        host.add(&run);
        if start.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
        let (run_spans, run, _) = bench.traced()?;
        traced_loop_s.push(run.rep.loop_s);
        spans = run_spans;
    }
    let replay = bench.replay_and_threads(&rec, &virt)?;
    costs = costs.fastest(&probes::Costs::measure(&spec, &probe, &rec, &virt, median_len)?);

    let model_s = tokens * costs.forward_ns / 1e9;
    let core_s = tokens * costs.step_us / 1e6;
    let eviction_s = (tokens * layers * costs.observe_ns + virt.evictions as f64 * costs.evict_ns) / 1e9;
    let (mut macs, mut bytes) = (0.0, 0.0);
    for &l in &forward_lens {
        let (m, b) = probes::macs_and_bytes(model, l);
        macs += m;
        bytes += b;
    }
    let n_fwd = forward_lens.len().max(1) as f64;

    // serving
    let tick_total = spans.total_s("serving.tick");
    let ticks = spans.durations_ns("serving.tick");
    let (_, tick_tail, _) = tail(&ticks);
    let inner = core_s.max(model_s + eviction_s + replay.host_s);
    let serving_self = tick_total - inner;
    let (_, wait_tail, _) = tail(&virt.queue_wait);

    // telemetry
    let overhead = median(&traced_loop_s) / median(&host.loop_s) - 1.0;
    let report_s = median(&host.report_s);

    let generated = virt.generated_tokens.max(1) as f64;
    let mut m = vec![
        metric("serving.tick_us_p50", percentile(&ticks, 50.0) as f64 / 1e3, "us"),
        metric("serving.tick_us_tail", tick_tail as f64 / 1e3, "us"),
        metric("serving.self_s", serving_self, "s"),
        metric("serving.admitted", virt.admitted as f64, "count"),
        metric("serving.rejected", virt.rejected as f64, "count"),
        metric("serving.shed", virt.shed as f64, "count"),
        metric("serving.dead_letters", virt.dead_letters as f64, "count"),
        metric("serving.retries", virt.retries as f64, "count"),
        metric("serving.preemptions", virt.preemptions as f64, "count"),
        metric("serving.migrations", virt.migrations as f64, "count"),
        metric("serving.queue_wait_p50_ticks", percentile(&virt.queue_wait, 50.0) as f64, "ticks"),
        metric("serving.queue_wait_tail_ticks", wait_tail as f64, "ticks"),
        metric("serving.queue_depth_mean", virt.queue_depth_mean, "requests"),
        metric("core.steps", virt.steps as f64, "count"),
        metric("core.batch_tokens_mean", tokens / virt.steps.max(1) as f64, "tokens"),
        metric("core.decode_tokens", virt.generated_tokens as f64, "count"),
        metric("core.prefill_tokens", virt.prefill_tokens as f64, "count"),
        metric("core.prefill_tokens_skipped", virt.prefill_skipped as f64, "count"),
        metric("core.step_us_per_token", costs.step_us, "us"),
        metric("core.step_s", core_s, "s"),
        metric("core.kv_reserved_peak_bytes", virt.kv_reserved_peak as f64, "bytes"),
        metric("core.kv_resident_peak_bytes", virt.kv_resident_peak as f64, "bytes"),
        metric(
            "core.kv_resident_over_reserved",
            virt.kv_resident_peak as f64 / virt.kv_reserved_peak.max(1) as f64,
            "frac",
        ),
        metric("core.prefix_hit_rate", virt.prefix_hits as f64 / virt.prefix_lookups.max(1) as f64, "frac"),
        metric("core.prefix_hits", virt.prefix_hits as f64, "count"),
        metric("core.prefix_lookups", virt.prefix_lookups as f64, "count"),
        metric("core.prefix_evictions", virt.prefix_evictions as f64, "count"),
        metric("core.prefix_expiries", virt.prefix_expiries as f64, "count"),
        metric("core.prefix_spills", virt.prefix_spills as f64, "count"),
        metric("core.prefix_fills", virt.prefix_fills as f64, "count"),
        metric("model.forward_calls", tokens, "count"),
        metric("model.forward_ns_per_token", costs.forward_ns, "ns"),
        metric("model.forward_s", model_s, "s"),
        metric("tensor.macs_per_token", macs / n_fwd, "MAC"),
        metric("tensor.bytes_per_token", bytes / n_fwd, "bytes"),
        metric("tensor.gemv_inner_lm_gmacs", costs.lm_gmacs.0, "GMAC/s"),
        metric("tensor.gemv_outer_lm_gmacs", costs.lm_gmacs.1, "GMAC/s"),
        metric("tensor.gemv_inner_dd_gmacs", costs.dd_gmacs.0, "GMAC/s"),
        metric("tensor.gemv_outer_dd_gmacs", costs.dd_gmacs.1, "GMAC/s"),
        metric("tensor.softmax_ns", costs.softmax_ns, "ns"),
        metric("eviction.evictions", virt.evictions as f64, "count"),
        metric("eviction.evictions_per_token", virt.evictions as f64 / generated, "count"),
        metric("eviction.ns_per_layer_token", eviction_s * 1e9 / (tokens * layers).max(1.0), "ns"),
        metric("eviction.s", eviction_s, "s"),
        metric("accel.mixed_batch_calls", replay.calls as f64, "count"),
        metric("accel.mixed_batch_ns", replay.host_s * 1e9 / replay.calls.max(1) as f64, "ns"),
    ];
    for name in
        ["qkv", "attention", "prefill_attention", "proj", "ffn_gate_up", "ffn_down", "norm", "lm_head"]
    {
        let cycles = replay.components.get(name).copied().unwrap_or(0);
        m.push((format!("accel.cycles_per_token.{name}"), cycles as f64 / generated, "cycles"));
    }
    m.extend([
        metric("mem.swap_bytes", virt.swap_bytes as f64, "bytes"),
        metric("mem.migration_bytes", virt.migration_bytes as f64, "bytes"),
        metric("mem.spill_bytes", virt.spill_bytes as f64, "bytes"),
        metric("mem.fill_bytes", virt.fill_bytes as f64, "bytes"),
        metric("mem.link_cycles", virt.link_cycles as f64, "cycles"),
        metric("telemetry.report_s", report_s, "s"),
        metric("telemetry.trace_events", rec.events() as f64, "count"),
        metric("telemetry.trace_overhead_frac", overhead, "frac"),
    ]);

    println!(
        "traced tick time {tick_total:.4} s: estimates (probe cost x recorded calls) core step {core_s:.4} s, \
         model {model_s:.4} s, eviction {eviction_s:.4} s, accel {:.4} s -> serving self {serving_self:.4} s",
        replay.host_s
    );
    println!(
        "shares of traced tick time: model {:.1}%, eviction {:.1}%, accel {:.1}%, core step {:.1}% | \
         tensor MAC/bytes per token are computed from tensor sizes",
        100.0 * model_s / tick_total,
        100.0 * eviction_s / tick_total,
        100.0 * replay.host_s / tick_total,
        100.0 * core_s / tick_total
    );
    let kinds: Vec<String> = rec.counts.iter().map(|(kind, n)| format!("{kind} {n}")).collect();
    println!("trace events by kind: {}", kinds.join(", "));
    if serving_self < 0.0 {
        println!("warning: serving.self_s < 0: the probes over-estimate the inner layers");
    }
    for (name, value, unit) in &m {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    write_spans(&spec, bench.seed, &spans)?;
    Ok(m)
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(spec: &Spec, seed: u64, spans: &Spans) -> Result<(), Error> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{seed}.json", spec.name));
    std::fs::write(&path, spans.to_json())?;
    println!("spans: {} -> {}", spans.spans.len(), path.display());
    Ok(())
}
