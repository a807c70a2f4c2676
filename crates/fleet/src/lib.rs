//! `vroom-fleet` — fleet-scale serving simulation: one shared Vroom server,
//! thousands of concurrent clients.
//!
//! The paper's deployment story (§6) is a front-end resolution server
//! answering many loads at once; the rest of this workspace models a
//! *single* page load. This crate closes the gap with a throughput mode
//! whose every moving part is deterministic:
//!
//! * **Clients** — `N` simulated clients, each fully derived from the fleet
//!   seed (site, virtual arrival time, device, cookie identity, nonce are
//!   pure hashes of `(seed, client id)`).
//! * **Batched resolution** — clients arriving within one batch window
//!   share a single resolver pass ([`vroom_server::batch`]): the expensive
//!   offline-intersection + online-scan pipeline runs once per
//!   (site, hour, device-bucket), not once per request.
//! * **Sharded hint store** — resolver output is filed in a
//!   [`ShardedStore`] routed by [`vroom_intern::UrlId::shard`]; every load
//!   reads its page's hint lists back out of the store, bumping the
//!   per-shard logical access counters the report exposes. Shards are
//!   counter partitions over one map, not separate locks.
//! * **Per-origin connection reuse** — the fleet tracks which origins
//!   already hold a warm server connection; later loads touching the same
//!   origin count as reuses (a counter model: reuse does not alter the
//!   simulated load itself).
//! * **Parallel execution** — batches fan resolver passes and client loads
//!   over [`vroom_exec::par_map_indexed`], so the report is byte-identical
//!   at any worker count.
//!
//! Determinism argument: batch membership and batch order are pure
//! functions of the seed; resolver passes are pure and committed in a fixed
//! order between batches (so shared-table ids are deterministic); client
//! loads within a batch read a frozen store snapshot-equivalent (no writes
//! happen during the load phase) and land in input-index slots; the shard
//! counters are *logical* — one bump per operation — so their totals depend
//! on the workload, never on scheduling. Everything in [`FleetReport`] is
//! therefore identical for any `workers`, which `tests/tests/fleet.rs` pins
//! byte-for-byte. Wall-clock throughput (loads/sec) is measured *outside*
//! this crate by `vroom-bench fleet` and kept in a separate `timing`
//! section of `BENCH_fleet.json`.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use vroom::policy::apply_fault_plan;
use vroom_browser::config::{FetchPolicy, LoadConfig, ServerModel};
use vroom_browser::metrics::percentile_sorted;
use vroom_browser::{BrowserEngine, EngineScratch, LoadResult};
use vroom_exec::Pool;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::json::Value;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, DeviceClass, LoadContext, PageGenerator};
use vroom_server::batch::{commit_pass_at, run_pass, PassOutput};
use vroom_server::freshness::observed_pass;
use vroom_server::push_policy::{select_pushes, PushPolicy};
use vroom_server::resolve::embedded_htmls;
use vroom_server::store::{EvictionPolicy, HintStore, ShardStats, ShardedStore};

pub mod freshness;

pub use freshness::{run_freshness, AgeAccuracy, FreshnessCell, FreshnessConfig, FreshnessReport};

/// The simulated wall-clock hour the fleet starts in. With
/// [`FleetConfig::span_hours`]` == 0` every client arrives within this one
/// hour bucket, so a site needs exactly one resolver pass for the whole
/// run; larger spans spread arrivals over `span_hours + 1` buckets.
pub const FLEET_BASE_HOURS: f64 = 2000.0;

/// Milliseconds per hour bucket.
const MS_PER_HOUR: u64 = 3_600_000;

/// Upper bound on [`FleetConfig::arrival_span_ms`]: the sub-hour arrival
/// offset must stay inside one hour bucket, or per-bucket resolver-pass
/// batching silently breaks (clients would claim an hour their context
/// does not live in). Larger requested spans are clamped here and surfaced
/// through the report's freshness section; spread arrivals across hours
/// with [`FleetConfig::span_hours`] instead.
pub const MAX_ARRIVAL_SPAN_MS: u64 = MS_PER_HOUR;

/// Which clients an injected fault plan applies to, and how hard it hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaults {
    /// Seed for per-client plan derivation.
    pub seed: u64,
    /// Plan severity in `[0, 1]`; `<= 0` disables every plan (the inactive
    /// configuration the chaos suite proves byte-identical to no faults).
    pub severity: f64,
    /// Apply the plan to every `one_in`-th client (`client_id % one_in ==
    /// 0`); `1` = every client, `0` = nobody.
    pub one_in: u64,
}

impl FleetFaults {
    /// The fault plan for one client: inactive unless this client is
    /// selected, otherwise seeded from `(seed, client id)` so faults are
    /// independent across clients.
    pub fn plan_for(&self, client: u64) -> FaultPlan {
        if self.severity <= 0.0 || self.one_in == 0 || client % self.one_in != 0 {
            FaultPlan::none()
        } else {
            FaultPlan::from_seed(mix(self.seed, client), self.severity)
        }
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated clients.
    pub clients: usize,
    /// Fleet seed; every per-client parameter derives from it.
    pub seed: u64,
    /// Number of distinct sites the clients are spread over (a prefix of
    /// the News+Sports corpus).
    pub sites: usize,
    /// Corpus seed (site structures).
    pub corpus_seed: u64,
    /// Seed for the server's crawls.
    pub server_seed: u64,
    /// Hint-store shard count.
    pub shards: usize,
    /// Virtual batch window: clients whose arrival falls in the same
    /// window share one resolver admission round.
    pub batch_window_ms: u64,
    /// Client arrivals spread uniformly over this virtual span *within
    /// their hour bucket* (clamped to [`MAX_ARRIVAL_SPAN_MS`]).
    pub arrival_span_ms: u64,
    /// Hour buckets beyond the base hour that arrivals spread over: each
    /// client derives an hour offset in `0..=span_hours`, so `0` (the
    /// default) keeps the whole fleet inside [`FLEET_BASE_HOURS`].
    pub span_hours: u64,
    /// How stored hint entries age out ([`EvictionPolicy::Never`] is the
    /// pre-freshness behavior, byte-identical to it).
    pub policy: EvictionPolicy,
    /// Feed each batch's *observed* client loads back into the store (one
    /// commit per site per batch, from the site's first arrival). Off by
    /// default: the store then only ever holds crawler-pass output.
    pub learn_from_loads: bool,
    /// Worker threads for resolver passes and client loads (`1` =
    /// sequential). The report is byte-identical for every value.
    pub workers: usize,
    /// The access network every client loads over.
    pub profile: NetworkProfile,
    /// Optional fault injection.
    pub faults: Option<FleetFaults>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 1000,
            seed: 0xF1EE7,
            sites: 8,
            corpus_seed: 7,
            server_seed: 77,
            shards: 16,
            batch_window_ms: 100,
            arrival_span_ms: 10_000,
            span_hours: 0,
            policy: EvictionPolicy::Never,
            learn_from_loads: false,
            workers: 1,
            profile: NetworkProfile::lte(),
            faults: None,
        }
    }
}

impl FleetConfig {
    /// A reduced configuration for quick tests.
    pub fn quick(clients: usize, sites: usize) -> Self {
        FleetConfig {
            clients,
            sites,
            ..Default::default()
        }
    }

    /// The configuration with `arrival_span_ms` clamped to
    /// [`MAX_ARRIVAL_SPAN_MS`], plus the original (over-limit) value when a
    /// clamp happened (`0` otherwise) — rendered as a warning counter in
    /// the report's freshness section rather than silently ignored.
    pub fn validated(&self) -> (FleetConfig, u64) {
        if self.arrival_span_ms > MAX_ARRIVAL_SPAN_MS {
            // vroom-lint: allow(hot-path-alloc) -- one config clone per run, before any client is served
            let mut cfg = self.clone();
            cfg.arrival_span_ms = MAX_ARRIVAL_SPAN_MS;
            (cfg, self.arrival_span_ms)
        } else {
            // vroom-lint: allow(hot-path-alloc) -- one config clone per run, before any client is served
            (self.clone(), 0)
        }
    }
}

/// splitmix-style hash used for every per-client derivation.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One client's derived parameters — a pure function of (fleet seed, id).
#[derive(Debug, Clone, Copy)]
struct ClientSpec {
    id: usize,
    site: usize,
    /// Sub-hour arrival offset within the client's hour bucket; kept below
    /// [`MAX_ARRIVAL_SPAN_MS`] by [`FleetConfig::validated`] so it can
    /// never push the context into a different bucket than [`bucket`].
    ///
    /// [`bucket`]: ClientSpec::bucket
    arrival_ms: u64,
    /// Hour buckets past [`FLEET_BASE_HOURS`] this client arrives in
    /// (always `0` when the fleet's `span_hours` is `0`).
    hour_offset: u64,
    device: DeviceClass,
    user_id: u64,
    nonce: u64,
}

impl ClientSpec {
    fn derive(cfg: &FleetConfig, id: usize) -> ClientSpec {
        let id64 = id as u64;
        // The fleet is a mobile population: phone devices only, so the
        // server's phone-bucket resolver pass serves every client. (Large
        // vs small phones still differ in CPU speed and DPR-keyed URLs —
        // slightly wrong hints for the minority device are part of the
        // model, as in the paper's Fig 9.)
        let device = if mix(cfg.seed, id64 * 4 + 1) % 2 == 0 {
            DeviceClass::PhoneLarge
        } else {
            DeviceClass::PhoneSmall
        };
        ClientSpec {
            id,
            site: (mix(cfg.seed, id64 * 4) % cfg.sites.max(1) as u64) as usize,
            arrival_ms: mix(cfg.seed, id64 * 4 + 2) % cfg.arrival_span_ms.max(1),
            // A fresh hash stream: span-0 fleets keep every other derived
            // parameter byte-identical to the pre-freshness fleet.
            hour_offset: mix(cfg.seed ^ 0x5A9B_00C3, id64) % (cfg.span_hours + 1),
            device,
            user_id: mix(cfg.seed, id64 * 4 + 3),
            nonce: mix(cfg.seed ^ 0x0C11E27, id64),
        }
    }

    /// Total virtual arrival time: the hour offset plus the sub-hour
    /// offset — what arrivals sort and batch by.
    fn arrival_total_ms(&self) -> u64 {
        self.hour_offset * MS_PER_HOUR + self.arrival_ms
    }

    /// The hour bucket this client arrives (and reads the store) in.
    fn bucket(&self) -> i64 {
        FLEET_BASE_HOURS as i64 + self.hour_offset as i64
    }

    fn ctx(&self) -> LoadContext {
        LoadContext {
            // Sub-hour arrival offset: stays inside the client's hour
            // bucket (arrival_ms < MAX_ARRIVAL_SPAN_MS by validation).
            hours: self.bucket() as f64 + self.arrival_ms as f64 / MS_PER_HOUR as f64,
            user_id: self.user_id,
            device: self.device,
            nonce: self.nonce,
        }
    }
}

/// What one client's load produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Client id (index into the fleet).
    pub id: usize,
    /// Site index the client loaded.
    pub site: usize,
    /// Virtual arrival time within the run.
    pub arrival_ms: u64,
    /// Whether an active fault plan was applied to this client.
    pub faulted: bool,
    /// HTML documents whose hints were found in the shared store.
    pub hint_hits: u64,
    /// HTML documents with no store entry (churned iframe URLs, mostly),
    /// including entries the eviction policy logically evicted.
    pub hint_misses: u64,
    /// HTML documents served *stale* hints (counted in `hint_hits` too):
    /// nonzero only under [`EvictionPolicy::RefreshOnMiss`], where it
    /// triggers a re-resolution admission in the next batch.
    pub hint_stale: u64,
    /// Distinct origins the load touched, sorted.
    pub origins: Vec<String>,
    /// The full simulated load result.
    pub result: LoadResult,
}

/// Aggregate report of one fleet run. Every field is deterministic: equal
/// configs produce byte-identical reports at any worker count. Wall-clock
/// throughput is intentionally absent — `vroom-bench fleet` measures it
/// around this crate and files it in a separate `timing` section.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Simulated clients.
    pub clients: u64,
    /// Distinct sites.
    pub sites: u64,
    /// Hint-store shards.
    pub shards: u64,
    /// Batch window (virtual ms).
    pub batch_window_ms: u64,
    /// Batches executed.
    pub batches: u64,
    /// Resolver passes run (≤ sites: passes are shared within and across
    /// batches through the store).
    pub resolver_passes: u64,
    /// Live hint-store entries at end of run.
    pub store_entries: u64,
    /// Per-shard access counters, in shard order.
    pub shard_stats: Vec<ShardStats>,
    /// HTML documents served hints out of the store.
    pub hint_hits: u64,
    /// HTML documents that missed the store.
    pub hint_misses: u64,
    /// Origins that required a new server connection.
    pub origins_opened: u64,
    /// Loads that found their origin's connection already warm.
    pub origin_reuses: u64,
    /// Median onload across the fleet (simulated ms).
    pub onload_p50_ms: f64,
    /// 99th-percentile onload (simulated ms).
    pub onload_p99_ms: f64,
    /// Clients that ran under an active fault plan.
    pub faulted_clients: u64,
    /// Clients with at least one failed resource.
    pub failed_loads: u64,
    /// Failed resources across the fleet.
    pub failed_resources: u64,
    /// Retries across the fleet.
    pub retries: u64,
    /// RST_STREAM-equivalent events.
    pub rst_streams: u64,
    /// GOAWAY-equivalent events.
    pub goaways: u64,
    /// Timed-out attempts.
    pub timeouts: u64,
    /// Bytes fetched that belonged to the pages.
    pub useful_bytes: u64,
    /// Bytes wasted on inaccurate hints/pushes.
    pub wasted_bytes: u64,
    /// Freshness-loop accounting. `None` for a legacy run (policy `Never`,
    /// zero span, no learning, nothing clamped), in which case the render
    /// and JSON are byte-identical to the pre-freshness report.
    pub freshness: Option<FleetFreshness>,
}

/// The freshness section of a [`FleetReport`]: everything the hint-aging
/// loop did during the run. All counters are logical and therefore
/// byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFreshness {
    /// The eviction policy label (`never`, `ttl(1)`, `refresh-on-miss(1)`).
    pub policy: String,
    /// Hour buckets past the base hour arrivals spread over.
    pub span_hours: u64,
    /// Store reads classified stale (logically evicted or served stale).
    pub stale_reads: u64,
    /// HTML documents served stale hints (RefreshOnMiss only).
    pub stale_served: u64,
    /// Entries physically removed by TTL sweeps.
    pub evictions: u64,
    /// Resolver passes re-run for a site that already had one (TTL expiry
    /// or stale-read admissions).
    pub refresh_passes: u64,
    /// Observed-load commits fed back into the store.
    pub observed_commits: u64,
    /// The requested `arrival_span_ms` when it exceeded
    /// [`MAX_ARRIVAL_SPAN_MS`] and was clamped; `0` when no clamp happened.
    pub arrival_span_clamped_from_ms: u64,
}

impl FleetReport {
    /// Store hit rate in percent (0 when nothing was looked up).
    pub fn hint_hit_rate(&self) -> f64 {
        let total = self.hint_hits + self.hint_misses;
        if total == 0 {
            return 0.0;
        }
        self.hint_hits as f64 * 100.0 / total as f64
    }

    /// The deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("==== fleet ====\n");
        out.push_str(&format!(
            "clients {}  sites {}  shards {}  window {} ms  batches {}\n",
            self.clients, self.sites, self.shards, self.batch_window_ms, self.batches
        ));
        out.push_str(&format!(
            "resolver passes {}  store entries {}\n",
            self.resolver_passes, self.store_entries
        ));
        out.push_str(&format!(
            "hints: hits {}  misses {}  hit rate {:.1}%\n",
            self.hint_hits,
            self.hint_misses,
            self.hint_hit_rate()
        ));
        out.push_str(&format!(
            "origins: opened {}  reused {}\n",
            self.origins_opened, self.origin_reuses
        ));
        out.push_str(&format!(
            "onload: p50 {:.1} ms  p99 {:.1} ms\n",
            self.onload_p50_ms, self.onload_p99_ms
        ));
        out.push_str(&format!(
            "faults: faulted clients {}  failed loads {}  failed resources {}  \
             retries {}  rst {}  goaway {}  timeouts {}\n",
            self.faulted_clients,
            self.failed_loads,
            self.failed_resources,
            self.retries,
            self.rst_streams,
            self.goaways,
            self.timeouts
        ));
        out.push_str(&format!(
            "bytes: useful {}  wasted {}\n",
            self.useful_bytes, self.wasted_bytes
        ));
        if let Some(f) = &self.freshness {
            if f.arrival_span_clamped_from_ms > 0 {
                out.push_str(&format!(
                    "warning: arrival span clamped {} -> {} ms (use span_hours to cross buckets)\n",
                    f.arrival_span_clamped_from_ms, MAX_ARRIVAL_SPAN_MS
                ));
            }
            out.push_str(&format!(
                "freshness: policy {}  span {} h  stale reads {}  stale served {}  \
                 evictions {}  refresh passes {}  observed commits {}\n",
                f.policy,
                f.span_hours,
                f.stale_reads,
                f.stale_served,
                f.evictions,
                f.refresh_passes,
                f.observed_commits
            ));
        }
        out.push_str("shard   reads    hits  writes entries\n");
        for (i, s) in self.shard_stats.iter().enumerate() {
            out.push_str(&format!(
                "  {:>3} {:>7} {:>7} {:>7} {:>7}\n",
                i, s.reads, s.hits, s.writes, s.entries
            ));
        }
        out
    }

    /// The deterministic metrics as a canonical-codec JSON tree — the
    /// `metrics` object of `BENCH_fleet.json`.
    pub fn to_json_value(&self) -> Value {
        let round3 = |x: f64| (x * 1e3).round() / 1e3;
        let mut m = BTreeMap::new();
        m.insert("clients".into(), Value::Int(self.clients));
        m.insert("sites".into(), Value::Int(self.sites));
        m.insert("shards".into(), Value::Int(self.shards));
        m.insert("batch_window_ms".into(), Value::Int(self.batch_window_ms));
        m.insert("batches".into(), Value::Int(self.batches));
        m.insert("resolver_passes".into(), Value::Int(self.resolver_passes));
        m.insert("store_entries".into(), Value::Int(self.store_entries));
        m.insert("hint_hits".into(), Value::Int(self.hint_hits));
        m.insert("hint_misses".into(), Value::Int(self.hint_misses));
        m.insert("origins_opened".into(), Value::Int(self.origins_opened));
        m.insert("origin_reuses".into(), Value::Int(self.origin_reuses));
        m.insert(
            "onload_p50_ms".into(),
            Value::Float(round3(self.onload_p50_ms)),
        );
        m.insert(
            "onload_p99_ms".into(),
            Value::Float(round3(self.onload_p99_ms)),
        );
        m.insert("faulted_clients".into(), Value::Int(self.faulted_clients));
        m.insert("failed_loads".into(), Value::Int(self.failed_loads));
        m.insert("failed_resources".into(), Value::Int(self.failed_resources));
        m.insert("retries".into(), Value::Int(self.retries));
        m.insert("rst_streams".into(), Value::Int(self.rst_streams));
        m.insert("goaways".into(), Value::Int(self.goaways));
        m.insert("timeouts".into(), Value::Int(self.timeouts));
        m.insert("useful_bytes".into(), Value::Int(self.useful_bytes));
        m.insert("wasted_bytes".into(), Value::Int(self.wasted_bytes));
        let shards = self
            .shard_stats
            .iter()
            .map(|s| {
                let mut e = BTreeMap::new();
                e.insert("reads".into(), Value::Int(s.reads));
                e.insert("hits".into(), Value::Int(s.hits));
                e.insert("writes".into(), Value::Int(s.writes));
                e.insert("entries".into(), Value::Int(s.entries));
                Value::Object(e)
            })
            .collect();
        m.insert("shard_stats".into(), Value::Array(shards));
        if let Some(f) = &self.freshness {
            let mut fo = BTreeMap::new();
            fo.insert("policy".into(), Value::Str(f.policy.clone()));
            fo.insert("span_hours".into(), Value::Int(f.span_hours));
            fo.insert("stale_reads".into(), Value::Int(f.stale_reads));
            fo.insert("stale_served".into(), Value::Int(f.stale_served));
            fo.insert("evictions".into(), Value::Int(f.evictions));
            fo.insert("refresh_passes".into(), Value::Int(f.refresh_passes));
            fo.insert("observed_commits".into(), Value::Int(f.observed_commits));
            fo.insert(
                "arrival_span_clamped_from_ms".into(),
                Value::Int(f.arrival_span_clamped_from_ms),
            );
            m.insert("freshness".into(), Value::Object(fo));
        }
        Value::Object(m)
    }
}

/// A finished fleet run: the aggregate report plus every client's outcome
/// (in client-id order, for per-client assertions in the test tier).
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Aggregate, deterministic report.
    pub report: FleetReport,
    /// Per-client outcomes, sorted by client id.
    pub outcomes: Vec<ClientOutcome>,
}

/// Per-worker scratch state a [`Pool`] worker keeps alive across the many
/// client loads it runs: the browser engine's internal buffers. Reuse is
/// observationally pure — a recycled scratch produces byte-identical
/// results to a fresh one (pinned by the pipelined-vs-reference proptest).
#[derive(Default)]
pub struct FleetScratch {
    engine: EngineScratch,
}

/// Wall-clock time spent in each stage of a fleet run, in seconds.
/// Populated only when [`run_fleet_instrumented`] is given a clock; all
/// zeros otherwise. Purely diagnostic: none of it feeds the report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStageTiming {
    /// Dedicated resolver-pass fan-outs: cold-start passes (first batch)
    /// and refresh admissions that could not be overlapped.
    pub pass_s: f64,
    /// Sequential store commits between fan-outs.
    pub commit_s: f64,
    /// The combined fan-outs: client loads overlapped with the *next*
    /// batch's arrival-driven resolver passes.
    pub load_s: f64,
    /// Sequential post-batch accounting (origin pool, learning commits).
    pub account_s: f64,
}

/// One unit of work in the combined per-batch fan-out: a client load of
/// the current batch, or a prefetched resolver pass for the next batch.
enum FleetWork {
    Load(ClientSpec),
    Pass { site: usize, bucket: i64 },
}

enum FleetDone {
    Load(Box<ClientOutcome>),
    Pass(PassOutput),
}

/// Mutable cross-batch accounting state, shared by the pipelined
/// implementation and the unpipelined reference.
#[derive(Default)]
struct FleetAccum {
    /// The hour bucket each site's store entries were last resolved at.
    last_pass: BTreeMap<usize, i64>,
    /// Sites whose stale reads admitted a re-resolution (RefreshOnMiss).
    pending_refresh: BTreeSet<usize>,
    resolver_passes: u64,
    refresh_passes: u64,
    observed_commits: u64,
    warm_origins: BTreeSet<String>,
    origins_opened: u64,
    origin_reuses: u64,
    outcomes: Vec<ClientOutcome>,
}

impl FleetAccum {
    /// Admission: which (site, bucket) pairs need a resolver pass for this
    /// batch's *arrivals* — sites never passed and sites whose pass expired
    /// under the TTL. (Stale-read refresh admissions are a separate input:
    /// they depend on the previous batch's outcomes.) Deterministic order
    /// (BTreeSet) so commit order — and therefore shared-table id
    /// assignment — is schedule-independent; ascending buckets make the
    /// newest pass win for a site admitted at two buckets.
    ///
    /// Depends only on `last_pass`, which commits alone update — that is
    /// what lets the pipelined path compute batch k+1's arrival admissions
    /// during batch k's load phase.
    fn arrivals_needed(
        &self,
        batch: &[ClientSpec],
        policy: EvictionPolicy,
    ) -> BTreeSet<(usize, i64)> {
        let mut needed = BTreeSet::new();
        for spec in batch {
            let due = match (self.last_pass.get(&spec.site), policy) {
                (None, _) => true,
                (Some(_), EvictionPolicy::Never) => false,
                (Some(&at), EvictionPolicy::Ttl(h)) => spec.bucket() - at > h as i64,
                // Stale reads, not arrivals, admit refresh passes.
                (Some(_), EvictionPolicy::RefreshOnMiss(_)) => false,
            };
            if due {
                needed.insert((spec.site, spec.bucket()));
            }
        }
        needed
    }

    /// Record one committed pass.
    fn committed(&mut self, site: usize, bucket: i64) {
        let prior = self.last_pass.insert(site, bucket);
        self.resolver_passes += 1;
        self.refresh_passes += prior.is_some() as u64;
    }

    /// Sequential post-batch accounting, in arrival order: the origin
    /// pool models per-origin connection reuse across the fleet, stale
    /// serves admit refresh passes, and (when enabled) each site's
    /// first observed load of the batch is committed back to the store.
    fn account_batch(
        &mut self,
        cfg: &FleetConfig,
        corpus: &Corpus,
        store: &ShardedStore,
        urls: &mut Arc<UrlTable>,
        batch: &[ClientSpec],
        batch_outcomes: Vec<ClientOutcome>,
    ) {
        let mut learned: BTreeSet<usize> = BTreeSet::new();
        for (spec, outcome) in batch.iter().zip(batch_outcomes) {
            if outcome.hint_stale > 0 {
                self.pending_refresh.insert(outcome.site);
            }
            if cfg.learn_from_loads && learned.insert(spec.site) {
                // The page is memoized per (site, context): this re-borrow
                // is the same snapshot the load itself used.
                let page = corpus.sites[spec.site].snapshot_arc(&spec.ctx());
                let observed = observed_pass(&page, &outcome.result);
                if !observed.entries.is_empty() {
                    let table =
                        Arc::get_mut(urls).expect("no table refs outstanding between fan-outs");
                    commit_pass_at(&observed, store, table, spec.bucket());
                    self.observed_commits += 1;
                }
            }
            for origin in &outcome.origins {
                if self.warm_origins.contains(origin) {
                    self.origin_reuses += 1;
                } else {
                    // vroom-lint: allow(hot-path-alloc) -- one clone per first-seen origin; bounded by distinct origins, not loads
                    self.warm_origins.insert(origin.clone());
                    self.origins_opened += 1;
                }
            }
            self.outcomes.push(outcome);
        }
    }

    /// Assemble the final report from the accumulated state.
    fn finish(
        mut self,
        cfg: &FleetConfig,
        clamped_from: u64,
        store: &ShardedStore,
        window: u64,
        batches: u64,
    ) -> FleetRun {
        self.outcomes.sort_by_key(|o| o.id);
        let outcomes = self.outcomes;

        let mut onloads: Vec<f64> = outcomes
            .iter()
            .map(|o| o.result.plt.as_secs_f64() * 1e3)
            .collect();
        onloads.sort_by(f64::total_cmp);

        let sum = |f: &dyn Fn(&ClientOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
        let shard_stats = store.shard_stats();
        // The freshness section only exists when the freshness machinery
        // was in play: a legacy run's report stays byte-identical.
        let freshness = (cfg.policy != EvictionPolicy::Never
            || cfg.span_hours > 0
            || cfg.learn_from_loads
            || clamped_from > 0)
            .then(|| FleetFreshness {
                policy: cfg.policy.label(),
                span_hours: cfg.span_hours,
                stale_reads: shard_stats.iter().map(|s| s.stale).sum(),
                stale_served: sum(&|o| o.hint_stale),
                evictions: shard_stats.iter().map(|s| s.evictions).sum(),
                refresh_passes: self.refresh_passes,
                observed_commits: self.observed_commits,
                arrival_span_clamped_from_ms: clamped_from,
            });
        let report = FleetReport {
            clients: cfg.clients as u64,
            sites: cfg.sites.max(1) as u64,
            shards: store.shard_count() as u64,
            batch_window_ms: window,
            batches,
            resolver_passes: self.resolver_passes,
            store_entries: store.len() as u64,
            shard_stats,
            hint_hits: sum(&|o| o.hint_hits),
            hint_misses: sum(&|o| o.hint_misses),
            origins_opened: self.origins_opened,
            origin_reuses: self.origin_reuses,
            onload_p50_ms: percentile_sorted(&onloads, 0.50),
            onload_p99_ms: percentile_sorted(&onloads, 0.99),
            faulted_clients: sum(&|o| o.faulted as u64),
            failed_loads: sum(&|o| (o.result.failed_resources > 0) as u64),
            failed_resources: sum(&|o| o.result.failed_resources as u64),
            retries: sum(&|o| o.result.retries as u64),
            rst_streams: sum(&|o| o.result.rst_streams as u64),
            goaways: sum(&|o| o.result.goaways as u64),
            timeouts: sum(&|o| o.result.timeouts as u64),
            useful_bytes: sum(&|o| o.result.useful_bytes),
            wasted_bytes: sum(&|o| o.result.wasted_bytes),
            freshness,
        };
        FleetRun { report, outcomes }
    }
}

/// Derive, sort, and window the fleet's clients.
fn plan_batches(cfg: &FleetConfig) -> (Vec<Vec<ClientSpec>>, u64) {
    // Derive and order clients by virtual arrival (ties by id).
    let mut specs: Vec<ClientSpec> = (0..cfg.clients)
        .map(|id| ClientSpec::derive(cfg, id))
        .collect();
    specs.sort_by_key(|s| (s.arrival_total_ms(), s.id));

    // Partition into batch windows (over total arrival time, so a span
    // across hour buckets yields per-bucket arrival clusters).
    let window = cfg.batch_window_ms.max(1);
    let mut batches: Vec<Vec<ClientSpec>> = Vec::new();
    for spec in specs {
        let bucket = spec.arrival_total_ms() / window;
        match batches.last_mut() {
            Some(last) if last[0].arrival_total_ms() / window == bucket => last.push(spec),
            _ => batches.push(vec![spec]),
        }
    }
    (batches, window)
}

/// Run the fleet. Deterministic: the returned report and outcomes are
/// byte-identical for any `cfg.workers` and across repeated runs with the
/// same config.
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    run_fleet_instrumented(cfg, None).0
}

/// [`run_fleet`] with an injected wall clock (seconds; any epoch) for the
/// per-stage breakdown `vroom-bench fleet` files under `timing`. The clock
/// stays injected so this crate never touches `std::time` — simulated
/// results must be a pure function of the config, and the caller's clock
/// reads only bracket stages, never feed them.
///
/// Execution is *pipelined*: each batch's fan-out combines the batch's
/// client loads with the **next** batch's arrival-driven resolver passes
/// (both pure in the frozen shared state), so resolver work hides behind
/// load work instead of serializing with it. Commits stay sequential, in
/// batch order, between fan-outs; refresh admissions (which depend on the
/// previous batch's outcomes) are never prefetched. The report is
/// byte-identical to [`run_fleet_unpipelined`], which the fleet proptests
/// pin.
pub fn run_fleet_instrumented(
    cfg: &FleetConfig,
    clock: Option<&dyn Fn() -> f64>,
) -> (FleetRun, FleetStageTiming) {
    let (cfg, clamped_from) = cfg.validated();
    let cfg = &cfg;
    let now = || clock.map_or(0.0, |c| c());
    let corpus = Arc::new(Corpus::news_and_sports_capped(
        cfg.corpus_seed,
        Some(cfg.sites.max(1)),
    ));
    let store = Arc::new(ShardedStore::new(cfg.shards));
    let mut urls = Arc::new(UrlTable::new());
    let (batches, window) = plan_batches(cfg);
    let pool: Pool<FleetScratch> = Pool::new(cfg.workers);

    let mut accum = FleetAccum::default();
    let mut timing = FleetStageTiming::default();
    // Passes computed ahead of their batch by a previous combined fan-out.
    let mut prefetched: BTreeMap<(usize, i64), PassOutput> = BTreeMap::new();

    for (bi, batch) in batches.iter().enumerate() {
        let batch_bucket = batch
            .iter()
            .map(|s| s.bucket())
            .min()
            .unwrap_or(FLEET_BASE_HOURS as i64);

        // TTL policy: a sequential eviction sweep between batches — reads
        // never mutate the maps, so the parallel load phase stays pure.
        if let EvictionPolicy::Ttl(h) = cfg.policy {
            store.evict_resolved_before(batch_bucket - h as i64);
        }

        let mut needed = accum.arrivals_needed(batch, cfg.policy);
        for &site in &accum.pending_refresh {
            needed.insert((site, batch_bucket));
        }
        accum.pending_refresh.clear();

        // Run whatever this batch needs that no previous fan-out prefetched:
        // the cold start (first batch) and refresh admissions.
        let t0 = now();
        let missing: Vec<(usize, i64)> = needed
            .iter()
            .filter(|key| !prefetched.contains_key(key))
            .copied()
            .collect();
        if !missing.is_empty() {
            for (key, out) in run_passes_on_pool(&pool, cfg, &corpus, missing) {
                prefetched.insert(key, out);
            }
        }
        let t1 = now();
        timing.pass_s += t1 - t0;

        // Sequential commits, in deterministic (site, bucket) order. The
        // pool's ack barrier guarantees every worker dropped its table Arc,
        // so `get_mut` is exclusive access, not a copy.
        for &(site, bucket) in &needed {
            let pass = prefetched
                .remove(&(site, bucket))
                .expect("admitted pass was just run or prefetched");
            let table =
                Arc::get_mut(&mut urls).expect("no table refs outstanding between fan-outs");
            commit_pass_at(&pass, store.as_ref(), table, bucket);
            accum.committed(site, bucket);
        }
        let t2 = now();
        timing.commit_s += t2 - t1;

        // The combined fan-out: this batch's loads (against the store
        // frozen above) plus the next batch's arrival-driven passes (pure —
        // they read neither store nor table). Passes lead so the expensive
        // items never straggle behind the claim counter.
        let next_arrivals: Vec<(usize, i64)> = match batches.get(bi + 1) {
            Some(next) => accum
                .arrivals_needed(next, cfg.policy)
                .into_iter()
                .collect(),
            // vroom-lint: allow(hot-path-alloc) -- Vec::new is allocation-free
            None => Vec::new(),
        };
        // vroom-lint: allow(hot-path-alloc) -- one work list per batch, amortized across its items
        let mut work: Vec<FleetWork> = Vec::with_capacity(next_arrivals.len() + batch.len());
        work.extend(
            next_arrivals
                .iter()
                .map(|&(site, bucket)| FleetWork::Pass { site, bucket }),
        );
        work.extend(batch.iter().map(|&spec| FleetWork::Load(spec)));

        let shared_corpus = Arc::clone(&corpus);
        let shared_urls = Arc::clone(&urls);
        let shared_store = Arc::clone(&store);
        // vroom-lint: allow(hot-path-alloc) -- one profile clone per batch for the 'static closure
        let profile = cfg.profile.clone();
        let (policy, faults, server_seed) = (cfg.policy, cfg.faults, cfg.server_seed);
        let done = pool.dispatch(work, move |scratch, _, item| match *item {
            FleetWork::Pass { site, bucket } => FleetDone::Pass(run_pass(
                &shared_corpus.sites[site],
                bucket as f64,
                DeviceClass::PhoneLarge,
                server_seed,
            )),
            FleetWork::Load(ref spec) => {
                let plan = match &faults {
                    Some(f) => f.plan_for(spec.id as u64),
                    None => FaultPlan::none(),
                };
                FleetDone::Load(Box::new(load_client(
                    &profile,
                    policy,
                    spec,
                    &shared_corpus.sites[spec.site],
                    &shared_urls,
                    shared_store.as_ref(),
                    &plan,
                    scratch,
                )))
            }
        });
        let t3 = now();
        timing.load_s += t3 - t2;

        let mut done = done.into_iter();
        for &key in &next_arrivals {
            match done.next() {
                Some(FleetDone::Pass(out)) => {
                    prefetched.insert(key, out);
                }
                _ => unreachable!("pass results lead the fan-out, in input order"),
            }
        }
        let batch_outcomes: Vec<ClientOutcome> = done
            .map(|d| match d {
                FleetDone::Load(outcome) => *outcome,
                FleetDone::Pass(_) => {
                    unreachable!("load results trail the fan-out, in input order")
                }
            })
            .collect();

        accum.account_batch(cfg, &corpus, &store, &mut urls, batch, batch_outcomes);
        timing.account_s += now() - t3;
    }
    debug_assert!(prefetched.is_empty(), "every prefetched pass is consumed");

    let run = accum.finish(cfg, clamped_from, &store, window, batches.len() as u64);
    (run, timing)
}

/// Fan a set of resolver passes over the pool. Pure per item; each key is
/// returned alongside its output, in input order.
fn run_passes_on_pool(
    pool: &Pool<FleetScratch>,
    cfg: &FleetConfig,
    corpus: &Arc<Corpus>,
    keys: Vec<(usize, i64)>,
) -> Vec<((usize, i64), PassOutput)> {
    let shared_corpus = Arc::clone(corpus);
    let server_seed = cfg.server_seed;
    pool.dispatch(keys, move |_, _, &(site, bucket)| {
        (
            (site, bucket),
            run_pass(
                &shared_corpus.sites[site],
                bucket as f64,
                DeviceClass::PhoneLarge,
                server_seed,
            ),
        )
    })
}

/// The unpipelined reference implementation: two spawn/join fan-outs per
/// batch on [`vroom_exec::par_map_indexed`], a fresh engine scratch per
/// load, no cross-batch overlap — the executable specification the
/// pipelined [`run_fleet`] must (and, per the fleet proptests, does)
/// reproduce byte-for-byte at every worker count.
pub fn run_fleet_unpipelined(cfg: &FleetConfig) -> FleetRun {
    let (cfg, clamped_from) = cfg.validated();
    let cfg = &cfg;
    let corpus = Corpus::news_and_sports_capped(cfg.corpus_seed, Some(cfg.sites.max(1)));
    let store = ShardedStore::new(cfg.shards);
    let mut urls = Arc::new(UrlTable::new());
    let (batches, window) = plan_batches(cfg);

    let mut accum = FleetAccum::default();

    for batch in &batches {
        let batch_bucket = batch
            .iter()
            .map(|s| s.bucket())
            .min()
            .unwrap_or(FLEET_BASE_HOURS as i64);

        if let EvictionPolicy::Ttl(h) = cfg.policy {
            store.evict_resolved_before(batch_bucket - h as i64);
        }

        let mut needed = accum.arrivals_needed(batch, cfg.policy);
        for &site in &accum.pending_refresh {
            needed.insert((site, batch_bucket));
        }
        accum.pending_refresh.clear();
        let needed: Vec<(usize, i64)> = needed.into_iter().collect();

        // The expensive half fans out; the cheap commits stay sequential.
        let passes = vroom_exec::par_map_indexed(&needed, cfg.workers, |_, &(site, bucket)| {
            run_pass(
                &corpus.sites[site],
                bucket as f64,
                DeviceClass::PhoneLarge,
                cfg.server_seed,
            )
        });
        for (&(site, bucket), pass) in needed.iter().zip(&passes) {
            let table =
                Arc::get_mut(&mut urls).expect("no table refs outstanding between fan-outs");
            commit_pass_at(pass, &store, table, bucket);
            accum.committed(site, bucket);
        }

        // Load phase: the store is frozen (no writes until the next batch),
        // so every client's load is a pure function of its spec and the
        // shared state committed above.
        let batch_outcomes = vroom_exec::par_map_indexed(batch, cfg.workers, |_, spec| {
            let plan = match &cfg.faults {
                Some(f) => f.plan_for(spec.id as u64),
                None => FaultPlan::none(),
            };
            let mut scratch = FleetScratch::default();
            load_client(
                &cfg.profile,
                cfg.policy,
                spec,
                &corpus.sites[spec.site],
                &urls,
                &store,
                &plan,
                &mut scratch,
            )
        });

        accum.account_batch(cfg, &corpus, &store, &mut urls, batch, batch_outcomes);
    }

    accum.finish(cfg, clamped_from, &store, window, batches.len() as u64)
}

/// One client's load against the shared server state. Pure in the shared
/// state: only reads `urls` and `store` (read locks + logical counters).
/// Store reads are classified by `policy` at the client's own hour bucket;
/// a stale serve still feeds the load (old hints beat none) but is counted
/// so the caller can admit a refresh.
///
/// The load resolves hints against the *shared* intern table directly: the
/// store files hint lists under shared-table ids, and the engine only ever
/// looks ids up by equality (never iterates in id order), so handing every
/// client the server's one `Arc`'d table is behaviorally identical to the
/// old per-load re-interning — minus one table build and one hint-list
/// copy per document per load.
#[allow(clippy::too_many_arguments)]
fn load_client(
    profile: &NetworkProfile,
    policy: EvictionPolicy,
    spec: &ClientSpec,
    site: &PageGenerator,
    urls: &Arc<UrlTable>,
    store: &dyn HintStore,
    plan: &FaultPlan,
    scratch: &mut FleetScratch,
) -> ClientOutcome {
    let ctx = spec.ctx();
    let page = site.snapshot_arc(&ctx);

    let mut load_cfg = LoadConfig::http2_baseline();
    load_cfg.cpu_factor = ctx.device.cpu_factor();
    load_cfg.fetch_policy = FetchPolicy::VroomStaged;
    load_cfg.ordered_responses = true;

    // Gather the HTML documents this load will request (root + iframes)
    // and pull each one's hints out of the shared store. The stored lists
    // already carry shared-table ids and are refcounted, so serving a
    // client is a map insert per document — no translation, no copy.
    let mut server = ServerModel::default();
    let mut hint_hits = 0u64;
    let mut hint_misses = 0u64;
    let mut hint_stale = 0u64;
    let mut htmls = vec![&page.url];
    htmls.extend(
        embedded_htmls(&page)
            .into_iter()
            .map(|f| &page.resources[f].url),
    );
    // Resolve every document's shared id first, then fetch all hint lists
    // in one batched store read: one lock acquisition per load instead of
    // one per document. Only resolved ids reach the store, so the logical
    // read/hit counters match the per-document form exactly.
    let ids: Vec<Option<UrlId>> = htmls.iter().map(|&h| urls.lookup(h)).collect();
    let resolved: Vec<UrlId> = ids.iter().filter_map(|i| *i).collect();
    let mut fetched = store
        .get_fresh_many(&resolved, spec.bucket(), policy)
        .into_iter();
    for (html, id) in htmls.iter().zip(&ids) {
        let read = match id {
            Some(_) => fetched.next(),
            None => None,
        };
        let stored = match read {
            Some(read) => {
                hint_stale += read.is_stale() as u64;
                read.into_hints()
            }
            None => None,
        };
        let (Some(stored), &Some(html_id)) = (stored, id) else {
            hint_misses += 1;
            continue;
        };
        hint_hits += 1;
        let pushes = select_pushes(PushPolicy::HighPriorityLocal, &html.host, &stored, urls);
        if !pushes.is_empty() {
            server.pushes.insert(html_id, pushes);
        }
        server.hints.insert(html_id, stored);
    }
    load_cfg.urls = Arc::clone(urls);
    load_cfg.server = server;

    let faulted = plan.is_active();
    if faulted {
        apply_fault_plan(&mut load_cfg, plan);
    }

    let result = BrowserEngine::load_with_scratch(&page, profile, &load_cfg, &mut scratch.engine);
    let origins: Vec<String> = page
        .resources
        .iter()
        .map(|r| r.url.origin())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    ClientOutcome {
        id: spec.id,
        site: spec.site,
        arrival_ms: spec.arrival_ms,
        faulted,
        hint_hits,
        hint_misses,
        hint_stale,
        origins,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_derivation_is_deterministic_and_in_range() {
        let cfg = FleetConfig::quick(64, 4);
        for id in 0..64 {
            let a = ClientSpec::derive(&cfg, id);
            let b = ClientSpec::derive(&cfg, id);
            assert_eq!(a.site, b.site);
            assert_eq!(a.arrival_ms, b.arrival_ms);
            assert_eq!(a.nonce, b.nonce);
            assert!(a.site < 4);
            assert!(a.arrival_ms < cfg.arrival_span_ms);
            assert_eq!(a.device.bucket(), "phone");
        }
    }

    #[test]
    fn small_fleet_shares_resolver_passes() {
        let cfg = FleetConfig::quick(40, 3);
        let run = run_fleet(&cfg);
        let r = &run.report;
        assert_eq!(r.clients, 40);
        assert_eq!(r.resolver_passes, 3, "one pass per site, shared by all");
        assert!(r.hint_hits > 0, "root documents hit the store");
        assert!(
            r.hint_hits > r.hint_misses,
            "hits {} should dominate misses {}",
            r.hint_hits,
            r.hint_misses
        );
        assert!(r.origin_reuses > r.origins_opened);
        assert!(r.onload_p99_ms >= r.onload_p50_ms);
        assert!(r.onload_p50_ms > 0.0);
        assert_eq!(r.shard_stats.len(), r.shards as usize);
        let reads: u64 = r.shard_stats.iter().map(|s| s.reads).sum();
        assert_eq!(reads, r.hint_hits + r.hint_misses);
        assert_eq!(r.faulted_clients, 0);
    }

    #[test]
    fn fleet_outcomes_are_in_client_id_order() {
        let run = run_fleet(&FleetConfig::quick(25, 2));
        let ids: Vec<usize> = run.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn report_json_matches_render_fields() {
        let run = run_fleet(&FleetConfig::quick(16, 2));
        let Value::Object(m) = run.report.to_json_value() else {
            panic!("metrics must be an object");
        };
        assert_eq!(m.get("clients"), Some(&Value::Int(16)));
        assert!(m.contains_key("onload_p50_ms"));
        assert!(m.contains_key("shard_stats"));
        let rendered = run.report.render();
        assert!(rendered.starts_with("==== fleet ===="));
        assert!(rendered.contains("resolver passes"));
    }

    #[test]
    fn fault_selector_respects_one_in() {
        let f = FleetFaults {
            seed: 5,
            severity: 0.8,
            one_in: 3,
        };
        assert!(f.plan_for(0).is_active());
        assert!(!f.plan_for(1).is_active());
        assert!(!f.plan_for(2).is_active());
        assert!(f.plan_for(3).is_active());
        let off = FleetFaults { severity: 0.0, ..f };
        assert!(!off.plan_for(0).is_active());
        let nobody = FleetFaults { one_in: 0, ..f };
        assert!(!nobody.plan_for(0).is_active());
    }
}
