//! One serving shard: a full [`Engine`] + [`AdmissionController`] +
//! queue/swap machinery, factored out of [`crate::Server`] so the same
//! code path drives both a standalone server and every member of a
//! [`crate::Cluster`].
//!
//! A shard owns everything below the arrival stream: screening, the wait
//! queue, scheduler-driven admission, preemption and swap-in
//! serialization over its private [`HostLink`], pressure response, and
//! per-request record keeping. What it does *not* own is the virtual
//! clock and the [`Workload`] — those belong to the layer above (a
//! [`crate::Server`] with one shard, or a [`crate::Cluster`] stepping N
//! shards on one clock), which drives the shard through the
//! crate-internal `accept` → `begin_tick` → `step_engine` sequence
//! each tick. Because the standalone server *is* a 1-shard cluster
//! running this exact code, the two are bit-identical by construction —
//! the determinism pin the cluster tests assert.
//!
//! ## Migrated-in sessions and foreign records
//!
//! Cross-shard migration hands a live session to another shard while its
//! [`RequestRecord`] stays on the shard that accepted the arrival (the
//! *home* shard — reports stay in arrival order, attributable to the
//! routing decision). The hosting shard tracks such sessions with a
//! crate-internal `RecordRef::Foreign` reference and queues record updates (tokens,
//! completion, preemptions) into an outbox instead of writing them
//! directly; the cluster drains every outbox after stepping all shards,
//! in shard order, so record state is deterministic and never torn
//! mid-tick. A standalone server never produces foreign entries.

use std::collections::VecDeque;

use veda::{Engine, PrefixPin, PrefixTransferKind, Request, Session, TokenEvent};
use veda_eviction::BudgetController;
use veda_mem::{HostLink, HostLinkConfig, SwapDirection, TransferKind};
use veda_telemetry::{saturating_u32, SinkHandle, TraceEvent, TraceEventKind, Tracer};

use crate::admission::{AdmissionConfig, AdmissionController, RejectReason};
use crate::faults::LostWork;
use crate::report::{RequestRecord, ServingReport};
use crate::scheduler::{QueuedView, RunningView, SchedKind, SchedulerPolicy};
use crate::workload::{ArrivalKind, ServingRequest, Workload};

/// Which [`RequestRecord`] an in-flight session reports into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordRef {
    /// Index into this shard's own records (the common case).
    Local(usize),
    /// A migrated-in session: the record lives on its home shard.
    Foreign {
        /// The home shard's index within the cluster.
        shard: usize,
        /// Index into the home shard's records.
        index: usize,
    },
}

/// Why an admitted session spent ticks off the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitKind {
    /// Preempted and swapped out to the host.
    Swap,
    /// In flight between shards (cross-shard migration).
    Migration {
        /// The source shard it was extracted from.
        from: usize,
    },
}

/// A deferred update to a foreign (home-shard) record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordDelta {
    /// One generated token at tick `now`; `finished` marks the last.
    Token { now: u64, finished: bool },
    /// The session was preempted on its hosting shard.
    Preempted,
    /// The session finished an off-device wait spanning `[from, to)`.
    Wait { kind: WaitKind, from: u64, to: u64 },
    /// The request was (re-)admitted on its hosting shard at tick `now`
    /// — a retried request can land anywhere, so admission itself can
    /// now be a cross-shard fact. The home shard stamps the record and,
    /// if the request was recovering from a loss, folds the recovery
    /// wait and emits the `Recovered` event.
    Admitted { now: u64 },
}

/// Folds one completed off-device wait interval `[from, to)` into the
/// record's stage accounting. The interval is classified against the
/// first-token tick for the waterfall split: a wait is "before first
/// token" iff the first token had not yet been generated when the wait
/// ended (waits never straddle the first token — a session generating at
/// tick T cannot have been paused at T, so every interval lies entirely
/// on one side).
pub(crate) fn apply_wait(record: &mut RequestRecord, kind: WaitKind, from: u64, to: u64) {
    let ticks = to.saturating_sub(from);
    match kind {
        WaitKind::Swap => record.swap_wait_ticks += ticks,
        WaitKind::Migration { .. } => record.migration_wait_ticks += ticks,
    }
    if record.first_token.is_none_or(|f| f >= to) {
        record.wait_before_first_ticks += ticks;
    }
}

/// An outbox item: apply `delta` to record `index` on shard `shard`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ForeignUpdate {
    pub(crate) shard: usize,
    pub(crate) index: usize,
    pub(crate) delta: RecordDelta,
}

/// A request waiting for admission. Fresh arrivals queue on their home
/// shard (a `Local` record); retried requests can land anywhere, so a
/// queue entry can reference a foreign record.
#[derive(Debug)]
pub(crate) struct QueuedEntry {
    pub(crate) record: RecordRef,
    /// Global arrival index (mirrored so foreign entries need no
    /// cross-shard lookup).
    pub(crate) arrival: usize,
    /// Tick this *attempt* entered the serving plane: the original
    /// submission for a first attempt, the requeue tick for a retry.
    /// Deadlines and scheduler ordering run against this epoch; the
    /// record keeps the original submission tick for latency metrics.
    pub(crate) submitted: u64,
    pub(crate) request: Request,
    pub(crate) priority: u8,
    /// Reserved peak KV bytes (shared-prefix discounted when sound).
    pub(crate) est_bytes: u64,
    /// Undiscounted peak KV bytes — what a migration target must
    /// reserve, since extraction privatizes any shared span.
    pub(crate) full_bytes: u64,
    /// The admission pin on the prefix entry whose match discounted
    /// `est_bytes` (None when the discount was unsound or nothing
    /// matched). Held while the entry waits so churn cannot shrink the
    /// match under the discounted reservation; released after the
    /// submit takes its own seed pin, and on every queue-exit path.
    pub(crate) prefix_pin: Option<PrefixPin>,
}

/// An admitted session — in the `running` set it is prefilling/decoding,
/// in the `paused` set its KV state lives on the host until resumed, in
/// the `swapping` set its KV state is in flight back over the host link.
#[derive(Debug)]
pub(crate) struct SessionEntry {
    pub(crate) record: RecordRef,
    /// Global arrival index (mirrored from the record so foreign entries
    /// need no cross-shard lookup in scheduler views).
    pub(crate) arrival: usize,
    /// This attempt's epoch tick (see [`QueuedEntry::submitted`]).
    pub(crate) submitted: u64,
    /// The original request, kept so a crash or deadline teardown can
    /// re-queue the session from its prompt.
    pub(crate) request: Request,
    pub(crate) session: Session,
    pub(crate) priority: u8,
    pub(crate) est_bytes: u64,
    pub(crate) full_bytes: u64,
    /// Preemption count (mirrors the record for the same reason).
    pub(crate) preemptions: u32,
    /// Current resident-token cap (tracked for budget shrinking).
    pub(crate) cap: usize,
    /// When the session is off the device (paused or swapping), the wait
    /// kind and the tick the wait began; folded into the record's stage
    /// accounting when the session rejoins the batch.
    pub(crate) wait_since: Option<(WaitKind, u64)>,
}

/// A session whose KV state is moving in over the host link (swap-in or
/// migration); it rejoins the batch once the shard's cycle clock reaches
/// `ready_at`.
#[derive(Debug)]
pub(crate) struct SwapInEntry {
    pub(crate) entry: SessionEntry,
    /// Engine-cycle timestamp at which the transfer completes.
    pub(crate) ready_at: u64,
}

/// One serving shard (see the [module docs](self)). The driving layer
/// ([`crate::Server`] or [`crate::Cluster`]) calls, per virtual tick:
/// the crate-internal `accept` for each arrival routed here, then
/// `begin_tick` (swap-in completion/start + admission), then
/// `step_engine` (one batched engine tick + accounting).
pub struct Shard {
    pub(crate) id: usize,
    pub(crate) engine: Engine,
    pub(crate) admission: AdmissionController,
    pub(crate) policy: Box<dyn SchedulerPolicy>,
    pub(crate) link: HostLink,
    pub(crate) shrink: Option<BudgetController>,
    pub(crate) kv_bytes_per_token: u64,
    /// Engine cycles elapsed so far (sum of executed tick batch cycles)
    /// — the clock swap-in completions are timed against.
    pub(crate) elapsed_cycles: u64,
    pub(crate) queue: VecDeque<QueuedEntry>,
    pub(crate) running: Vec<SessionEntry>,
    pub(crate) paused: Vec<SessionEntry>,
    pub(crate) swapping: Vec<SwapInEntry>,
    pub(crate) records: Vec<RequestRecord>,
    pub(crate) queue_depth: Vec<usize>,
    /// Deferred updates to foreign (home-shard) records; drained by the
    /// cluster after every shard has stepped.
    pub(crate) outbox: Vec<ForeignUpdate>,
    pub(crate) admitted: usize,
    pub(crate) rejected_never_fits: usize,
    pub(crate) rejected_queue_full: usize,
    pub(crate) rejected_invalid: usize,
    pub(crate) preemptions: u64,
    pub(crate) resumes: u64,
    pub(crate) swap_wait_ticks: u64,
    pub(crate) budget_shrinks: u64,
    pub(crate) decode_ticks: u64,
    pub(crate) kv_resident_peak: u64,
    pub(crate) kv_reserved_peak: u64,
    /// Observation-only trace sink shared with the engine's tracer
    /// (`None` = telemetry off, zero cost, byte-identical behavior).
    pub(crate) trace: Option<SinkHandle>,
}

impl Shard {
    /// Creates a shard `id` over an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine already has in-flight sessions.
    pub fn new(
        id: usize,
        engine: Engine,
        admission: AdmissionConfig,
        host_link: HostLinkConfig,
        sched: SchedKind,
        shrink: Option<BudgetController>,
    ) -> Self {
        assert!(
            engine.active_sessions() == 0 && engine.paused_sessions() == 0,
            "shard requires an idle engine"
        );
        let kv_bytes_per_token = engine.kv_bytes_per_token();
        Self {
            id,
            engine,
            admission: AdmissionController::new(admission),
            policy: sched.build(),
            link: HostLink::new(host_link),
            shrink,
            kv_bytes_per_token,
            elapsed_cycles: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            paused: Vec::new(),
            swapping: Vec::new(),
            records: Vec::new(),
            queue_depth: Vec::new(),
            outbox: Vec::new(),
            admitted: 0,
            rejected_never_fits: 0,
            rejected_queue_full: 0,
            rejected_invalid: 0,
            preemptions: 0,
            resumes: 0,
            swap_wait_ticks: 0,
            budget_shrinks: 0,
            decode_ticks: 0,
            kv_resident_peak: 0,
            kv_reserved_peak: 0,
            trace: None,
        }
    }

    /// Installs an observation-only trace sink on this shard *and* its
    /// engine. Shard-level events (submit/queue/admit/reject, preemption,
    /// swap and migration waits) and engine-level events (prefill chunks,
    /// tokens, finishes) then flow into one stream, stamped with this
    /// shard's id, the virtual tick, and the cycle clock.
    pub fn install_trace(&mut self, sink: SinkHandle) {
        self.engine.install_tracer(Tracer::new(sink.clone(), saturating_u32(self.id)));
        self.trace = Some(sink);
    }

    /// Emit one shard-level event (no-op without a sink). The cluster
    /// also calls this to stamp fault-plane events (retries, dead
    /// letters, sheds) onto a request's home shard.
    pub(crate) fn emit(&self, now: u64, request: u64, kind: TraceEventKind) {
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent {
                tick: now,
                cycles: self.elapsed_cycles,
                shard: saturating_u32(self.id),
                request,
                kind,
            });
        }
    }

    /// This shard's index within its cluster (`0` for a standalone
    /// server).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Requests routed to this shard so far (records kept here).
    pub fn submitted(&self) -> usize {
        self.records.len()
    }

    /// Requests of this shard's records that finished (including ones
    /// that finished on another shard after migrating away).
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.finished.is_some()).count()
    }

    /// Requests rejected by this shard so far.
    pub fn rejected(&self) -> usize {
        self.rejected_never_fits + self.rejected_queue_full + self.rejected_invalid
    }

    /// Sessions currently queued, prefilling/decoding, preempted, or
    /// swapping in on this shard — including migrated-in sessions whose
    /// records live elsewhere.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.running.len() + self.paused.len() + self.swapping.len()
    }

    /// Requests currently waiting in this shard's admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// KV bytes currently reserved by this shard's admission control.
    pub fn reserved_bytes(&self) -> u64 {
        self.admission.reserved_bytes()
    }

    /// This shard's configured device KV capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.admission.config().capacity_bytes
    }

    /// Snapshot for routing: load, health, plus how much of `prompt`
    /// this shard's prefix cache already holds.
    pub(crate) fn view(
        &self,
        prompt: &[usize],
        health: crate::faults::ShardHealth,
    ) -> crate::router::ShardView {
        crate::router::ShardView {
            shard: self.id,
            reserved_bytes: self.admission.reserved_bytes(),
            capacity_bytes: self.admission.config().capacity_bytes,
            queue_depth: self.queue.len(),
            running: self.running.len(),
            prefix_match_tokens: self.engine.prefix_match_len(prompt),
            health,
        }
    }

    /// Checks a request is one the engine will accept (trace workloads
    /// may carry arbitrary requests; generated mixes always pass).
    fn validate(&self, request: &Request) -> Result<(), RejectReason> {
        let vocab = self.engine.model_config().vocab_size;
        let ok = !request.prompt.is_empty()
            && request.max_new_tokens > 0
            && request.prompt.iter().all(|&t| t < vocab)
            && request.budget.validate().is_ok();
        if ok {
            Ok(())
        } else {
            Err(RejectReason::Invalid)
        }
    }

    /// HBM bytes the engine's prefix cache itself keeps resident (each
    /// entry counted once). Subtracted from admission headroom so cached
    /// prefixes are never free capacity (see `veda_serving::admission`).
    pub(crate) fn prefix_overhead(&self) -> u64 {
        self.engine.prefix_cache_bytes()
    }

    /// Screens one arrival into the queue or a rejection record.
    /// `global_arrival` is the cluster-wide arrival index (equal to the
    /// local record index for a standalone server); `workload` is
    /// notified when a rejection disposes of a closed-loop user's
    /// request. A prompt with a known shared prefix reserves only its
    /// *unshared* peak bytes — the shared span stays resident in the
    /// engine's prefix cache — provided the discount is sound for this
    /// request: the accept takes a [`veda::Engine::pin_prefix`] pin on
    /// the matched entry (held until the submit lands, making the entry
    /// immune to LRU eviction, host spill and TTL expiry — the match
    /// cannot shrink), only requests that can never evict
    /// ([`veda::Request::never_evicts`]) qualify (an eviction inside
    /// the shared span would privatize it and push the session past a
    /// discounted reservation), and budget shrinking must be off —
    /// [`veda::Engine::tighten_budget`] can force even an
    /// unbounded-budget session to evict, retroactively breaking the
    /// never-evicts promise.
    pub(crate) fn accept(
        &mut self,
        arrival: ServingRequest,
        global_arrival: usize,
        now: u64,
        workload: &mut Workload,
    ) {
        let ServingRequest { request, priority } = arrival;
        let index = self.records.len();
        self.emit(
            now,
            global_arrival as u64,
            TraceEventKind::Submitted {
                prompt_tokens: saturating_u32(request.prompt.len()),
                max_new_tokens: saturating_u32(request.max_new_tokens),
                priority: u32::from(priority),
            },
        );
        let discount_sound = request.never_evicts() && self.shrink.is_none();
        let prefix_pin = if discount_sound { self.engine.pin_prefix(&request.prompt) } else { None };
        let shared_tokens = prefix_pin.as_ref().map_or(0, PrefixPin::matched);
        let est_bytes =
            AdmissionController::estimate_unshared_bytes(&request, shared_tokens, self.kv_bytes_per_token);
        let full_bytes = AdmissionController::estimate_bytes(&request, self.kv_bytes_per_token);
        let mut record = RequestRecord {
            arrival: global_arrival,
            session: None,
            priority,
            submitted: now,
            admitted: None,
            first_token: None,
            finished: None,
            generated_tokens: 0,
            preemptions: 0,
            swap_wait_ticks: 0,
            migration_wait_ticks: 0,
            wait_before_first_ticks: 0,
            rejected: None,
            retries: 0,
            timeouts: 0,
            shed: None,
            dead_letter: None,
            lost_at: None,
            recovery_wait_ticks: 0,
        };
        let screened =
            self.validate(&request).and_then(|()| self.admission.screen(est_bytes, self.queue.len()));
        match screened {
            Ok(()) => {
                self.emit(now, global_arrival as u64, TraceEventKind::Queued);
                self.queue.push_back(QueuedEntry {
                    record: RecordRef::Local(index),
                    arrival: global_arrival,
                    submitted: now,
                    request,
                    priority,
                    est_bytes,
                    full_bytes,
                    prefix_pin,
                });
            }
            Err(reason) => {
                if let Some(pin) = prefix_pin {
                    self.engine.unpin_prefix(pin);
                }
                self.emit(now, global_arrival as u64, TraceEventKind::Rejected { reason: reason.as_str() });
                record.rejected = Some(reason);
                match reason {
                    RejectReason::NeverFits => self.rejected_never_fits += 1,
                    RejectReason::QueueFull => self.rejected_queue_full += 1,
                    RejectReason::Invalid => self.rejected_invalid += 1,
                }
                // A rejection disposes of the request: without this, a
                // closed-loop user whose request was rejected would never
                // submit again and the run could not drain.
                workload.notify_completion(now);
            }
        }
        self.records.push(record);
    }

    /// The pre-step half of one tick: swap-in completions, swap-in
    /// starts, then scheduler-driven admission (see [`crate::Server`]'s
    /// module docs for the ordering rationale).
    pub(crate) fn begin_tick(&mut self, now: u64) {
        // Refresh the tick the engine's tracer stamps onto its events
        // (prefill chunks, tokens, finishes) before any engine call.
        self.engine.set_trace_now(now);
        // TTL expiry runs first so this tick's swap-ins and admissions
        // see post-expiry cache contents (and post-expiry overhead).
        self.engine.advance_prefix_clock(now);
        self.complete_swap_ins(now);
        self.start_swap_ins();
        self.admit_from_queue(now);
    }

    /// The step half of one tick: one batched engine tick (if any
    /// session is active), event observation, pressure response, and
    /// cycle/peak/queue-depth accounting.
    pub(crate) fn step_engine(&mut self, now: u64, workload: &mut Workload) {
        let mut stepped_cycles = 0;
        if self.engine.active_sessions() > 0 {
            let tick = self.engine.step();
            self.decode_ticks += 1;
            stepped_cycles = tick.batch_cycles;
            // Device-resident KV = session-owned bytes plus the prefix
            // cache's entries (each counted once).
            self.kv_resident_peak =
                self.kv_resident_peak.max(tick.kv_bytes_resident + self.engine.prefix_cache_bytes());
            for event in &tick.events {
                self.observe(event, now, workload);
            }
            // A chunked-prefill harvest may have inserted a new entry
            // under byte pressure, evicting/spilling cold ones; bill the
            // spill traffic now (harvests never generate fills, so there
            // is no latency to serialize here).
            self.charge_prefix_traffic();
            self.apply_pressure();
        }
        self.elapsed_cycles += stepped_cycles;
        self.swap_wait_ticks += self.swapping.len() as u64;
        if stepped_cycles == 0 && !self.swapping.is_empty() {
            // Nothing decoded this tick but swap-ins are in flight:
            // fast-forward the cycle clock to the earliest completion so
            // the run cannot stall on an otherwise idle engine.
            let earliest = self.swapping.iter().map(|s| s.ready_at).min().expect("non-empty");
            self.elapsed_cycles = self.elapsed_cycles.max(earliest);
        }
        self.kv_reserved_peak = self.kv_reserved_peak.max(self.admission.reserved_bytes());
        self.queue_depth.push(self.queue.len());
    }

    /// Takes the queued foreign-record updates (cluster use).
    pub(crate) fn take_outbox(&mut self) -> Vec<ForeignUpdate> {
        std::mem::take(&mut self.outbox)
    }

    /// Applies one deferred update from another shard's outbox to a
    /// record homed here.
    pub(crate) fn apply_record_delta(&mut self, index: usize, delta: RecordDelta) {
        match delta {
            RecordDelta::Token { now, finished } => {
                let record = &mut self.records[index];
                record.generated_tokens += 1;
                if record.first_token.is_none() {
                    record.first_token = Some(now);
                }
                if finished {
                    record.finished = Some(now);
                }
            }
            RecordDelta::Preempted => self.records[index].preemptions += 1,
            RecordDelta::Wait { kind, from, to } => apply_wait(&mut self.records[index], kind, from, to),
            RecordDelta::Admitted { now } => self.note_admitted(index, now),
        }
    }

    /// Stamps a (re-)admission onto the record homed here: sets the
    /// admitted tick and, if the request was recovering from a loss,
    /// folds the recovery wait and emits the `Recovered` event. Called
    /// locally from [`Shard::admit`] and via [`RecordDelta::Admitted`]
    /// when a retried request was admitted on another shard.
    fn note_admitted(&mut self, index: usize, now: u64) {
        let (arrival, recovered) = {
            let record = &mut self.records[index];
            record.admitted = Some(now);
            let recovered = record.lost_at.take().map(|lost| {
                let ticks = now.saturating_sub(lost);
                record.recovery_wait_ticks += ticks;
                ticks
            });
            (record.arrival, recovered)
        };
        if let Some(recovery_ticks) = recovered {
            self.emit(now, arrival as u64, TraceEventKind::Recovered { recovery_ticks });
        }
    }

    /// Resolves a record reference to its `(home shard, record index)`.
    fn home(&self, record: RecordRef) -> (usize, usize) {
        match record {
            RecordRef::Local(index) => (self.id, index),
            RecordRef::Foreign { shard, index } => (shard, index),
        }
    }

    /// Fail-stop: every queued request is orphaned and every admitted
    /// session is discarded — KV freed, no finished report, partial
    /// token streams lost — and the shard's admission state resets with
    /// them. Returns the displaced work (queue first, then running,
    /// paused and swapping sessions, all in entry order) for the cluster
    /// to retry or dead-letter. The engine's prefix cache, link traffic
    /// counters and elapsed cycles survive the crash: cache entries own
    /// their bytes independently of sessions, which is exactly what
    /// makes re-prefilling recovered requests cheap.
    pub(crate) fn fail(&mut self) -> Vec<LostWork> {
        let mut lost = Vec::new();
        for mut entry in std::mem::take(&mut self.queue) {
            if let Some(pin) = entry.prefix_pin.take() {
                self.engine.unpin_prefix(pin);
            }
            lost.push(LostWork {
                home: self.home(entry.record),
                arrival: entry.arrival,
                priority: entry.priority,
                request: entry.request,
            });
        }
        let running: Vec<SessionEntry> = std::mem::take(&mut self.running);
        let paused: Vec<SessionEntry> = std::mem::take(&mut self.paused);
        let swapping: Vec<SwapInEntry> = std::mem::take(&mut self.swapping);
        for entry in running.into_iter().chain(paused).chain(swapping.into_iter().map(|s| s.entry)) {
            self.engine.discard(entry.session).expect("in-flight entry tracks the engine");
            lost.push(LostWork {
                home: self.home(entry.record),
                arrival: entry.arrival,
                priority: entry.priority,
                request: entry.request,
            });
        }
        self.admission.reset();
        lost
    }

    /// Queues a retried request on this shard (the fault-plane analogue
    /// of [`Shard::accept`]: the record already exists on its home
    /// shard, so only screening and queueing happen here). On screening
    /// failure the work is handed back for another retry or a dead
    /// letter.
    pub(crate) fn requeue(&mut self, work: LostWork, now: u64) -> Result<(), (RejectReason, LostWork)> {
        let record = if work.home.0 == self.id {
            RecordRef::Local(work.home.1)
        } else {
            RecordRef::Foreign { shard: work.home.0, index: work.home.1 }
        };
        let discount_sound = work.request.never_evicts() && self.shrink.is_none();
        let prefix_pin = if discount_sound { self.engine.pin_prefix(&work.request.prompt) } else { None };
        let shared_tokens = prefix_pin.as_ref().map_or(0, PrefixPin::matched);
        let est_bytes = AdmissionController::estimate_unshared_bytes(
            &work.request,
            shared_tokens,
            self.kv_bytes_per_token,
        );
        let full_bytes = AdmissionController::estimate_bytes(&work.request, self.kv_bytes_per_token);
        match self.admission.screen(est_bytes, self.queue.len()) {
            Ok(()) => {
                self.emit(now, work.arrival as u64, TraceEventKind::Queued);
                self.queue.push_back(QueuedEntry {
                    record,
                    arrival: work.arrival,
                    submitted: now,
                    request: work.request,
                    priority: work.priority,
                    est_bytes,
                    full_bytes,
                    prefix_pin,
                });
                Ok(())
            }
            Err(reason) => {
                if let Some(pin) = prefix_pin {
                    self.engine.unpin_prefix(pin);
                }
                Err((reason, work))
            }
        }
    }

    /// Creates the record (and emits `Submitted`) for an arrival that
    /// could not be routed anywhere — every shard down — and therefore
    /// parks in the cluster's retry queue instead of a shard queue. This
    /// shard becomes the request's home purely for record keeping.
    pub(crate) fn register_deferred(
        &mut self,
        request: &Request,
        priority: u8,
        global_arrival: usize,
        now: u64,
    ) -> usize {
        let index = self.records.len();
        self.emit(
            now,
            global_arrival as u64,
            TraceEventKind::Submitted {
                prompt_tokens: saturating_u32(request.prompt.len()),
                max_new_tokens: saturating_u32(request.max_new_tokens),
                priority: u32::from(priority),
            },
        );
        self.records.push(RequestRecord {
            arrival: global_arrival,
            session: None,
            priority,
            submitted: now,
            admitted: None,
            first_token: None,
            finished: None,
            generated_tokens: 0,
            preemptions: 0,
            swap_wait_ticks: 0,
            migration_wait_ticks: 0,
            wait_before_first_ticks: 0,
            rejected: None,
            retries: 0,
            timeouts: 0,
            shed: None,
            dead_letter: None,
            lost_at: None,
            recovery_wait_ticks: 0,
        });
        index
    }

    /// Tears down one in-flight attempt that missed its `deadline`
    /// (searched across the queue and the running/paused/swapping sets),
    /// emitting `TimedOut` and returning the work for a retry or a dead
    /// letter. Reservations are released where they are actually held:
    /// running and swapping entries hold one, queued and paused entries
    /// do not.
    pub(crate) fn remove_timed_out(
        &mut self,
        arrival: usize,
        deadline: &'static str,
        now: u64,
    ) -> Option<LostWork> {
        let work = if let Some(mut e) =
            self.queue.iter().position(|e| e.arrival == arrival).and_then(|pos| self.queue.remove(pos))
        {
            if let Some(pin) = e.prefix_pin.take() {
                self.engine.unpin_prefix(pin);
            }
            LostWork {
                home: self.home(e.record),
                arrival: e.arrival,
                priority: e.priority,
                request: e.request,
            }
        } else if let Some(pos) = self.running.iter().position(|e| e.arrival == arrival) {
            let e = self.running.remove(pos);
            self.engine.discard(e.session).expect("running entry tracks the engine");
            self.admission.release(e.est_bytes);
            LostWork {
                home: self.home(e.record),
                arrival: e.arrival,
                priority: e.priority,
                request: e.request,
            }
        } else if let Some(pos) = self.paused.iter().position(|e| e.arrival == arrival) {
            let e = self.paused.remove(pos);
            self.engine.discard(e.session).expect("paused entry tracks the engine");
            LostWork {
                home: self.home(e.record),
                arrival: e.arrival,
                priority: e.priority,
                request: e.request,
            }
        } else if let Some(pos) = self.swapping.iter().position(|e| e.entry.arrival == arrival) {
            let e = self.swapping.remove(pos).entry;
            self.engine.discard(e.session).expect("swapping entry tracks the engine");
            self.admission.release(e.est_bytes);
            LostWork {
                home: self.home(e.record),
                arrival: e.arrival,
                priority: e.priority,
                request: e.request,
            }
        } else {
            return None;
        };
        self.emit(now, work.arrival as u64, TraceEventKind::TimedOut { deadline });
        Some(work)
    }

    /// Removes one queued entry by arrival id (the load-shedder's
    /// removal path; queued entries hold no reservation, but a
    /// discounted one holds a prefix pin, released here).
    pub(crate) fn remove_queued(&mut self, arrival: usize) -> Option<QueuedEntry> {
        let pos = self.queue.iter().position(|e| e.arrival == arrival)?;
        let mut entry = self.queue.remove(pos)?;
        if let Some(pin) = entry.prefix_pin.take() {
            self.engine.unpin_prefix(pin);
        }
        Some(entry)
    }

    /// Re-admits swapped-in sessions whose host-link transfer has
    /// completed (its cycles have elapsed on the shard's cycle clock),
    /// oldest swap first. The session's bytes were re-reserved and the
    /// transfer charged when the swap *started*
    /// ([`Shard::start_swap_ins`]) or when the migration landed; this is
    /// where the latency finally releases the session into the batch.
    fn complete_swap_ins(&mut self, now: u64) {
        let mut i = 0;
        while i < self.swapping.len() {
            if self.swapping[i].ready_at <= self.elapsed_cycles {
                let SwapInEntry { mut entry, .. } = self.swapping.remove(i);
                self.engine.resume(entry.session).expect("swapping entry tracks the engine");
                if let Some((kind, from)) = entry.wait_since.take() {
                    // The off-device wait ends here: fold `[from, now)`
                    // into the record's stage accounting (directly for a
                    // local record, via the outbox for a foreign one) and
                    // emit the matching rejoin event.
                    match entry.record {
                        RecordRef::Local(r) => apply_wait(&mut self.records[r], kind, from, now),
                        RecordRef::Foreign { shard, index } => self.outbox.push(ForeignUpdate {
                            shard,
                            index,
                            delta: RecordDelta::Wait { kind, from, to: now },
                        }),
                    }
                    let wait_ticks = now.saturating_sub(from);
                    let rejoin = match kind {
                        WaitKind::Swap => TraceEventKind::SwapInComplete { wait_ticks },
                        WaitKind::Migration { from: src } => {
                            TraceEventKind::MigrationLand { from_shard: saturating_u32(src), wait_ticks }
                        }
                    };
                    self.emit(now, entry.arrival as u64, rejoin);
                }
                self.running.push(entry);
            } else {
                i += 1;
            }
        }
    }

    /// Starts swapping preempted sessions back in while their
    /// reservations fit, oldest preemption first. The reservation is
    /// taken and the host-link transfer charged immediately (the space
    /// must be held for the DMA), but the session only rejoins the batch
    /// once the transfer's cycles have elapsed — swap latency is
    /// serialized into the clock, not instantaneous.
    fn start_swap_ins(&mut self) {
        let mut i = 0;
        while i < self.paused.len() {
            if self.admission.would_fit(self.paused[i].est_bytes.saturating_add(self.prefix_overhead())) {
                let entry = self.paused.remove(i);
                let bytes =
                    self.engine.session_kv_bytes(entry.session).expect("paused entry tracks the engine");
                let cycles = self.link.transfer_tagged(bytes, SwapDirection::In, TransferKind::Swap);
                self.admission.reserve(entry.est_bytes);
                self.resumes += 1;
                self.swapping.push(SwapInEntry { entry, ready_at: self.elapsed_cycles + cycles });
            } else {
                i += 1;
            }
        }
    }

    fn queued_view(entry: &QueuedEntry) -> QueuedView {
        QueuedView {
            arrival: entry.arrival,
            // Scheduler ordering runs on the attempt epoch: a retried
            // request competes from its requeue tick, not its original
            // submission (it already consumed its place in line once).
            submitted: entry.submitted,
            priority: entry.priority,
            total_tokens: entry.request.max_new_tokens,
            est_bytes: entry.est_bytes,
        }
    }

    fn running_views(&self) -> Vec<RunningView> {
        self.running
            .iter()
            .map(|entry| RunningView {
                arrival: entry.arrival,
                priority: entry.priority,
                remaining_tokens: self
                    .engine
                    .session_remaining_tokens(entry.session)
                    .expect("running entry tracks the engine"),
                est_bytes: entry.est_bytes,
                preemptions: entry.preemptions,
            })
            .collect()
    }

    /// Admits scheduler-ordered candidates until one does not fit (even
    /// after any preemption the policy offers).
    fn admit_from_queue(&mut self, now: u64) {
        while !self.queue.is_empty() {
            let views: Vec<QueuedView> = self.queue.iter().map(Self::queued_view).collect();
            let Some(pick) = self.policy.next_candidate(&views) else { break };
            let incoming = views[pick];
            // Admission must fit the reservation *and* the prefix cache's
            // own resident bytes inside capacity — including the bytes a
            // host-tier fill would promote back into device memory for
            // this prompt (otherwise a discounted accept could be
            // bankrupted by its own fill traffic).
            let fill_bytes =
                self.queue.get(pick).map_or(0, |e| self.engine.prefix_fill_bytes(&e.request.prompt));
            let needed = incoming.est_bytes.saturating_add(self.prefix_overhead()).saturating_add(fill_bytes);
            while !self.admission.would_fit(needed) {
                let victims = self.running_views();
                let Some(victim) = self.policy.preemption_victim(&incoming, &victims) else { break };
                self.preempt(victim, now);
            }
            if !self.admission.would_fit(needed) {
                break;
            }
            let entry = self.queue.remove(pick).expect("pick indexes the queue");
            self.policy.on_admitted(&incoming);
            self.admit(entry, now);
        }
    }

    /// Pauses the running session at `index` and swaps its KV state out.
    fn preempt(&mut self, index: usize, now: u64) {
        let mut entry = self.running.remove(index);
        let bytes = self.engine.pause(entry.session).expect("running entry tracks the engine");
        self.link.transfer_tagged(bytes, SwapDirection::Out, TransferKind::Swap);
        self.admission.release(entry.est_bytes);
        entry.preemptions += 1;
        entry.wait_since = Some((WaitKind::Swap, now));
        match entry.record {
            RecordRef::Local(r) => self.records[r].preemptions += 1,
            RecordRef::Foreign { shard, index } => {
                self.outbox.push(ForeignUpdate { shard, index, delta: RecordDelta::Preempted });
            }
        }
        self.preemptions += 1;
        self.emit(now, entry.arrival as u64, TraceEventKind::Preempted);
        self.emit(now, entry.arrival as u64, TraceEventKind::SwapOutStart { bytes });
        self.paused.push(entry);
    }

    /// Submits a queued request into the engine. The engine only
    /// validates, reserves KV and enqueues the session in its
    /// `Prefilling` phase; with a finite
    /// [`veda::EngineBuilder::prefill_chunk`] the prompt is consumed by
    /// subsequent on-clock ticks (instant prefill consumes it here,
    /// synchronously, as the pre-chunking stack did).
    fn admit(&mut self, mut entry: QueuedEntry, now: u64) {
        let request = entry.request.clone();
        let prompt_len = request.prompt.len();
        let peak_tokens = AdmissionController::peak_resident_tokens(&request);
        let cap = request.budget.resolve(prompt_len).min(peak_tokens);
        let arrival = entry.arrival;
        // The engine stamps this request's global arrival index onto its
        // trace events, so the request keeps one id across shards.
        self.emit(now, arrival as u64, TraceEventKind::Admitted { est_bytes: entry.est_bytes });
        self.engine.set_next_trace_id(arrival as u64);
        let session = self.engine.submit(entry.request).expect("accept() validated the request");
        self.admission.reserve(entry.est_bytes);
        // The submit took its own seed pin on the matched entry (held
        // until the session retires), so the admission pin can hand off
        // now: the submit-time match is at least the pinned match, so
        // the session's privately owned bytes fit the discounted
        // reservation.
        if let Some(pin) = entry.prefix_pin.take() {
            self.engine.unpin_prefix(pin);
        }
        // A host-tier hit promoted its entry during submit; the fill
        // bytes must cross the host link before the session's shared
        // span is device-resident, so the session waits out the
        // transfer like a swap-in instead of decoding instantly.
        let fill_cycles = self.charge_prefix_traffic();
        self.admitted += 1;
        match entry.record {
            RecordRef::Local(index) => {
                self.records[index].session = Some(session);
                self.note_admitted(index, now);
            }
            // A retried request admitted away from home: the home shard
            // stamps the admission (and any recovery) via the outbox.
            RecordRef::Foreign { shard, index } => {
                self.outbox.push(ForeignUpdate { shard, index, delta: RecordDelta::Admitted { now } });
            }
        }
        debug_assert!(self.engine.is_active(session), "validated requests have max_new_tokens >= 1");
        let mut session_entry = SessionEntry {
            record: entry.record,
            arrival,
            submitted: entry.submitted,
            request,
            session,
            priority: entry.priority,
            est_bytes: entry.est_bytes,
            full_bytes: entry.full_bytes,
            preemptions: 0,
            cap,
            wait_since: None,
        };
        if fill_cycles > 0 {
            // Park the session until the fill's cycles elapse on the
            // shard clock — the same serialization path as a swap-in
            // (its wait is accounted as swap wait).
            assert!(self.engine.pause(session).is_some(), "a just-submitted session is always pausable");
            session_entry.wait_since = Some((WaitKind::Swap, now));
            self.swapping
                .push(SwapInEntry { entry: session_entry, ready_at: self.elapsed_cycles + fill_cycles });
        } else {
            self.running.push(session_entry);
        }
    }

    /// Drains the engine's prefix spill/fill outbox onto this shard's
    /// host link. Spill traffic leaves the device asynchronously (no
    /// latency on any session's critical path); fill traffic is
    /// returned as cycles for the caller to serialize onto the clock.
    fn charge_prefix_traffic(&mut self) -> u64 {
        let mut fill_cycles = 0;
        for transfer in self.engine.take_prefix_transfers() {
            match transfer.kind {
                PrefixTransferKind::Spill => {
                    self.link.transfer_tagged(transfer.bytes, SwapDirection::Out, TransferKind::PrefixSpill);
                }
                PrefixTransferKind::Fill => {
                    fill_cycles += self.link.transfer_tagged(
                        transfer.bytes,
                        SwapDirection::In,
                        TransferKind::PrefixFill,
                    );
                }
            }
        }
        fill_cycles
    }

    /// Applies one session's tick event to its record (or, for a
    /// migrated-in session, to the outbox). Prefill progress only moves
    /// the clock (the record's first-token tick stays unset — that is
    /// exactly what makes TTFT real under chunked prefill); generated
    /// tokens update the record, and completions release their
    /// reservation and notify closed-loop workloads.
    fn observe(&mut self, event: &TokenEvent, now: u64, workload: &mut Workload) {
        let TokenEvent::Generated { session, finished, .. } = *event else {
            return;
        };
        let index = self
            .running
            .iter()
            .position(|r| r.session == session)
            .expect("every stepped session has a running entry");
        match self.running[index].record {
            RecordRef::Local(r) => {
                let record = &mut self.records[r];
                record.generated_tokens += 1;
                if record.first_token.is_none() {
                    record.first_token = Some(now);
                }
                if finished {
                    record.finished = Some(now);
                }
            }
            RecordRef::Foreign { shard, index: r } => {
                self.outbox.push(ForeignUpdate {
                    shard,
                    index: r,
                    delta: RecordDelta::Token { now, finished },
                });
            }
        }
        if finished {
            let entry = self.running.remove(index);
            self.admission.release(entry.est_bytes);
            workload.notify_completion(now);
        }
    }

    /// Budget-shrink pressure response (opt-in, see
    /// [`crate::ServerConfig`]).
    fn apply_pressure(&mut self) {
        let Some(controller) = self.shrink else { return };
        let resident = self.engine.kv_bytes_active();
        let factor = controller.shrink_factor(resident, self.capacity_bytes());
        if factor >= 1.0 {
            return;
        }
        for entry in &mut self.running {
            let new_cap = controller.shrunk_cap(entry.cap, factor);
            if new_cap < entry.cap {
                self.engine.tighten_budget(entry.session, new_cap);
                entry.cap = new_cap;
                self.budget_shrinks += 1;
            }
        }
    }

    /// Drains the engine and assembles this shard's [`ServingReport`].
    pub(crate) fn into_report(mut self, arrival: ArrivalKind, ticks: u64) -> ServingReport {
        // Safety valve: a truncated run still drains the engine so the
        // batched accounting is complete and well-formed. Requests still
        // queued release their admission pins (they will never submit).
        for mut entry in std::mem::take(&mut self.queue) {
            if let Some(pin) = entry.prefix_pin.take() {
                self.engine.unpin_prefix(pin);
            }
        }
        let swapping: Vec<SwapInEntry> = std::mem::take(&mut self.swapping);
        for swap in swapping {
            self.engine.resume(swap.entry.session).expect("swapping entry tracks the engine");
        }
        let paused: Vec<SessionEntry> = std::mem::take(&mut self.paused);
        for entry in paused {
            self.engine.resume(entry.session).expect("paused entry tracks the engine");
        }
        let engine = self.engine.run_to_completion();
        // Drain-time harvests can spill under byte pressure; bill the
        // traffic so the link counters below are complete.
        self.charge_prefix_traffic();
        ServingReport {
            shard_id: self.id,
            arrival,
            sched: self.policy.kind(),
            ticks,
            decode_ticks: self.decode_ticks,
            submitted: self.records.len(),
            admitted: self.admitted,
            completed: self.records.iter().filter(|r| r.finished.is_some()).count(),
            rejected_never_fits: self.rejected_never_fits,
            rejected_queue_full: self.rejected_queue_full,
            rejected_invalid: self.rejected_invalid,
            preemptions: self.preemptions,
            resumes: self.resumes,
            swap_out_bytes: self.link.tagged_bytes(TransferKind::Swap, SwapDirection::Out),
            swap_in_bytes: self.link.tagged_bytes(TransferKind::Swap, SwapDirection::In),
            swap_cycles: self.link.kind_total_cycles(TransferKind::Swap),
            prefix_spill_bytes: self.link.tagged_bytes(TransferKind::PrefixSpill, SwapDirection::Out),
            prefix_fill_bytes: self.link.tagged_bytes(TransferKind::PrefixFill, SwapDirection::In),
            prefix_transfer_cycles: self.link.kind_total_cycles(TransferKind::PrefixSpill)
                + self.link.kind_total_cycles(TransferKind::PrefixFill),
            swap_wait_ticks: self.swap_wait_ticks,
            budget_shrinks: self.budget_shrinks,
            queue_depth: self.queue_depth,
            kv_resident_peak_bytes: self.kv_resident_peak,
            kv_reserved_peak_bytes: self.kv_reserved_peak,
            capacity_bytes: self.admission.config().capacity_bytes,
            records: self.records,
            engine,
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("queued", &self.queue.len())
            .field("running", &self.running.len())
            .field("paused", &self.paused.len())
            .field("swapping", &self.swapping.len())
            .field("records", &self.records.len())
            .finish()
    }
}
