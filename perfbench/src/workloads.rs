//! The three named workloads: their fixed configuration, the seeded
//! request generator, and the set-up that turns a (workload, seed) pair
//! into a ready-to-tick [`Cluster`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veda::{Budget, Engine, EngineBuilder, PrefixCacheConfig, Request};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;
use veda_serving::{
    Cluster, ClusterConfig, FaultConfig, FaultPlan, MigrationConfig, RetryPolicy, RouterKind, SchedKind,
    ServingRequest, SinkHandle, Workload,
};

use crate::traced::Spans;
use crate::Error;

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Open loop: Poisson arrivals at `rate` requests per virtual tick,
    /// generated up front by the benchmark and replayed as a trace.
    Poisson { rate: f64, total: usize },
    /// Closed loop: `users` clients, each submitting its next request
    /// only after the previous one completes (zero think time).
    Closed { users: usize, total: usize },
}

/// The request population a workload samples from.
#[derive(Debug, Clone)]
pub struct Mix {
    pub policies: Vec<PolicyKind>,
    pub budgets: Vec<Budget>,
    pub prompt_len: (usize, usize),
    pub new_tokens: (usize, usize),
    pub priority_tiers: u8,
    /// Shared prefix prepended to every prompt (0 = none).
    pub shared_prefix: usize,
    pub prefix_groups: usize,
}

impl Mix {
    /// Policy of request `index`: all policy × budget pairings, in turn.
    pub fn policy(&self, index: usize) -> PolicyKind {
        self.policies[index % self.policies.len()]
    }

    /// Budget of request `index`.
    pub fn budget(&self, index: usize) -> Budget {
        self.budgets[(index / self.policies.len()) % self.budgets.len()]
    }

    fn group_prefix(&self, group: usize, vocab: usize) -> Vec<usize> {
        (0..self.shared_prefix).map(|j| (group * 31 + j * 7 + 1) % (vocab - 1) + 1).collect()
    }

    /// Samples request `index` from `rng`.
    fn sample(&self, rng: &mut StdRng, index: usize, vocab: usize) -> ServingRequest {
        let mut prompt = if self.shared_prefix > 0 {
            self.group_prefix(index % self.prefix_groups.max(1), vocab)
        } else {
            Vec::new()
        };
        let suffix = rng.gen_range(self.prompt_len.0..=self.prompt_len.1);
        prompt.extend((0..suffix).map(|_| rng.gen_range(1..vocab)));
        let max_new = rng.gen_range(self.new_tokens.0..=self.new_tokens.1);
        let priority = if self.priority_tiers <= 1 { 0 } else { rng.gen_range(0..self.priority_tiers) };
        let request = Request::new(prompt, max_new).policy(self.policy(index)).budget(self.budget(index));
        ServingRequest { request, priority }
    }
}

/// One named workload's fixed configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub model: ModelConfig,
    pub shards: usize,
    pub router: RouterKind,
    pub sched: SchedKind,
    pub capacity_bytes: u64,
    pub max_queue_depth: usize,
    pub prefill_chunk: usize,
    pub decode_threads: usize,
    pub prefix: Option<PrefixCacheConfig>,
    pub migration: Option<MigrationConfig>,
    pub faults: Option<FaultConfig>,
    pub arrivals: Arrivals,
    pub mix: Mix,
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["serve_mixed", "decode_long", "chaos_prefix"];

/// Looks up a workload by name.
pub fn spec(name: &str) -> Result<Spec, Error> {
    match name {
        "serve_mixed" => Ok(serve_mixed()),
        "decode_long" => Ok(decode_long()),
        "chaos_prefix" => chaos_prefix(),
        other => Err(format!("unknown workload {other:?} (expected one of {NAMES:?})").into()),
    }
}

/// Many short requests on the tiny model: per-tick serving, scheduling,
/// eviction and cost-model work weigh as much as the forward pass.
fn serve_mixed() -> Spec {
    Spec {
        name: "serve_mixed",
        model: ModelConfig::tiny(),
        shards: 4,
        router: RouterKind::LeastLoaded,
        sched: SchedKind::Fcfs,
        capacity_bytes: veda_mem::HbmConfig::default().capacity_bytes,
        max_queue_depth: 64,
        prefill_chunk: 8,
        decode_threads: 1,
        prefix: None,
        migration: None,
        faults: None,
        arrivals: Arrivals::Poisson { rate: 0.5, total: 4000 },
        mix: Mix {
            policies: vec![PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow, PolicyKind::Full],
            budgets: vec![Budget::Ratio(0.5), Budget::Fixed(12), Budget::Ratio(0.25), Budget::Unbounded],
            prompt_len: (12, 32),
            new_tokens: (6, 16),
            priority_tiers: 3,
            shared_prefix: 0,
            prefix_groups: 0,
        },
    }
}

/// Long generations on the small model with binding eviction budgets:
/// the forward kernels carry nearly all host time.
fn decode_long() -> Spec {
    Spec {
        name: "decode_long",
        model: ModelConfig::small(),
        shards: 1,
        router: RouterKind::RoundRobin,
        sched: SchedKind::Fcfs,
        capacity_bytes: 64 << 20,
        max_queue_depth: 64,
        prefill_chunk: 16,
        decode_threads: 1,
        prefix: None,
        migration: None,
        faults: None,
        arrivals: Arrivals::Closed { users: 16, total: 80 },
        mix: Mix {
            policies: vec![PolicyKind::Voting, PolicyKind::H2o],
            budgets: vec![Budget::Ratio(0.5), Budget::Ratio(0.25)],
            prompt_len: (40, 104),
            new_tokens: (48, 112),
            priority_tiers: 1,
            shared_prefix: 0,
            prefix_groups: 0,
        },
    }
}

/// Shared-prefix traffic under churn and faults: prefix hits, evictions,
/// spills and fills, preemption with swap, migration, a crash with
/// recovery, a degraded link and deadline retries.
fn chaos_prefix() -> Result<Spec, Error> {
    let plan = FaultPlan::parse("crash@4000:shard=1:recover=4400;degrade@8000-9500:shard=2:bw=0.25")?;
    Ok(Spec {
        name: "chaos_prefix",
        model: ModelConfig::tiny(),
        shards: 4,
        router: RouterKind::PrefixAffinity,
        sched: SchedKind::Priority,
        capacity_bytes: 96 << 10,
        max_queue_depth: 512,
        prefill_chunk: 8,
        decode_threads: 1,
        prefix: Some(PrefixCacheConfig {
            min_match_tokens: 8,
            max_entries: 32,
            max_bytes: 24 << 10,
            ttl_ticks: 150,
            spill: true,
        }),
        migration: Some(MigrationConfig { hot_fraction: 0.5, cold_fraction: 0.35, max_per_tick: 1 }),
        faults: Some(FaultConfig {
            plan,
            retry: RetryPolicy { max_attempts: 8, backoff_base: 4 },
            ttft_deadline: None,
            e2e_deadline: Some(400),
            shed_watermark: None,
        }),
        arrivals: Arrivals::Poisson { rate: 0.3, total: 8000 },
        mix: Mix {
            policies: vec![PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow, PolicyKind::Full],
            budgets: vec![Budget::Ratio(0.5), Budget::Fixed(24), Budget::Ratio(0.25), Budget::Unbounded],
            prompt_len: (9, 16),
            new_tokens: (6, 16),
            priority_tiers: 3,
            shared_prefix: 24,
            prefix_groups: 24,
        },
    })
}

/// Builds one engine per shard (weights are generated here), the
/// seeded workload and the cluster over them. `threads` overrides the
/// spec's decode-thread count; `trace` installs a sink; `spans` records
/// the engine builds and the workload generation.
pub fn setup(
    spec: &Spec,
    seed: u64,
    threads: usize,
    trace: Option<SinkHandle>,
    mut spans: Option<&mut Spans>,
) -> Result<Cluster, Error> {
    let span = spans.as_deref_mut().map(|s| s.begin("core.build", None));
    let engines = (0..spec.shards).map(|_| build_engine(spec, threads)).collect::<Result<Vec<_>, _>>()?;
    let span = spans.as_deref_mut().zip(span).map(|(s, id)| {
        s.end(id);
        s.begin("serving.workload", None)
    });
    let workload = generate(spec, seed);
    if let Some((s, id)) = spans.zip(span) {
        s.end(id);
    }
    let config = ClusterConfig {
        shards: spec.shards,
        per_shard_capacity_bytes: spec.capacity_bytes,
        max_queue_depth: spec.max_queue_depth,
        router: spec.router,
        sched: spec.sched,
        migration: spec.migration,
        faults: spec.faults.clone(),
        trace,
        ..ClusterConfig::default()
    };
    Ok(Cluster::try_new(engines, workload, config)?)
}

/// One engine of the workload's shape.
pub fn build_engine(spec: &Spec, threads: usize) -> Result<Engine, Error> {
    let mut builder = EngineBuilder::new()
        .model(spec.model.clone())
        .decode_threads(threads)
        .prefill_chunk(spec.prefill_chunk);
    if let Some(prefix) = spec.prefix {
        builder = builder.prefix_cache(prefix);
    }
    Ok(builder.build()?)
}

/// The seeded request stream. Open-loop arrival ticks and every request
/// body come from the benchmark's own generator; the library's
/// closed-loop driver is used only for the closed loop, whose arrival
/// ticks depend on completions and whose requests it draws from the
/// benchmark's seed.
pub fn generate(spec: &Spec, seed: u64) -> Workload {
    let vocab = spec.model.vocab_size;
    match spec.arrivals {
        Arrivals::Poisson { rate, total } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tick = 0u64;
            let mut arrivals = Vec::with_capacity(total);
            for i in 0..total {
                let u: f64 = rng.gen();
                tick += (-(1.0 - u).ln() / rate).round() as u64;
                arrivals.push((tick, spec.mix.sample(&mut rng, i, vocab)));
            }
            Workload::trace(arrivals)
        }
        Arrivals::Closed { users, total } => {
            let mix = veda_serving::RequestMix {
                policies: spec.mix.policies.clone(),
                budgets: spec.mix.budgets.clone(),
                prompt_len: spec.mix.prompt_len,
                max_new_tokens: spec.mix.new_tokens,
                priority_tiers: spec.mix.priority_tiers,
                vocab_size: vocab,
                shared_prefix_len: spec.mix.shared_prefix,
                prefix_groups: spec.mix.prefix_groups,
            };
            Workload::closed_loop(seed, users, 0.0, total, mix)
        }
    }
}

/// The resident-token cap of request `index` with a prompt of
/// `prompt_len` tokens (what the engine charges decode steps against).
pub fn resident_cap(spec: &Spec, index: usize, prompt_len: usize) -> usize {
    let budget = match spec.arrivals {
        // The library's closed loop pairs policy and budget by index.
        Arrivals::Closed { .. } => spec.mix.budgets[index % spec.mix.budgets.len()],
        Arrivals::Poisson { .. } => spec.mix.budget(index),
    };
    budget.resolve(prompt_len)
}
