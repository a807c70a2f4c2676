//! The traced layer ledger: per-layer costs and counts, taken by timing
//! calls into each layer's public functions from outside, on the same
//! seed-derived inputs the workloads run.
//!
//! Every traced run reports every layer. Layers a workload does not drive
//! are probed on the inputs of the workload that does: fleet stages come
//! from fleet-steady ops unless the run is a fleet workload, and the wire
//! figures from a fresh server unless the run is `wire`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use vroom::experiment as exp;
use vroom::{run_load, ExperimentConfig, System};
use vroom_browser::{
    BrowserEngine, EngineScratch, FetchPolicy, LoadConfig, LoadResult, ServerModel,
};
use vroom_fleet::{FleetConfig, FleetReport, FleetStageTiming, FLEET_BASE_HOURS};
use vroom_hpack::{Decoder, Encoder};
use vroom_intern::{UrlId, UrlTable};
use vroom_pages::{Corpus, DeviceClass, LoadContext, Page};
use vroom_server::resolve::embedded_htmls;
use vroom_server::store::HintStore;
use vroom_server::{
    commit_pass_at, observed_pass, parse_hints, run_pass, select_pushes, PassOutput, PushPolicy,
    ShardedStore,
};

use crate::stats::median;
use crate::wire::{PageLoad, WireRig};
use crate::workload::{self, Workload, PARALLEL_WORKERS};
use crate::{cpu_seconds, mix};

/// Fleet or wire ops the ledger runs itself when the traced loop did not.
const PROBE_OPS: u64 = 3;
/// Repeats of the `figures` exhibit probe.
const FIGURE_REPS: u64 = 3;
/// Salt separating the ledger's own inputs from the timed loop's.
const LEDGER_SALT: u64 = 0x001E_D6E5;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A traced fleet op: its report, its stage clocks and its wall time.
pub struct FleetOp {
    pub report: FleetReport,
    pub timing: FleetStageTiming,
    pub wall_s: f64,
}

/// Wire pages from the traced loop and the loop's process CPU share.
pub struct WireTrace<'a> {
    pub rig: &'a WireRig,
    pub pages: Vec<PageLoad>,
    pub cpu_share: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Default)]
struct Ledger(Vec<Metric>);

impl Ledger {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median per-call time in µs of `f`, over `rounds` rounds of `reps` calls.
fn per_call_us(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            us(t) / reps as f64
        })
        .collect();
    median(&times)
}

/// Run the whole ledger.
pub fn run(
    workload: Workload,
    seed: u64,
    fleet_ops: Vec<FleetOp>,
    wire: Option<WireTrace>,
) -> Vec<Metric> {
    let mut l = Ledger::default();
    let fleet_w = match workload {
        Workload::FleetSteady | Workload::FleetChurn => workload,
        _ => Workload::FleetSteady,
    };
    let fleet_ops = if fleet_ops.is_empty() {
        (0..PROBE_OPS)
            .map(|k| {
                let cfg = workload::fleet_config(
                    fleet_w,
                    workload::op_seed(fleet_w, seed ^ LEDGER_SALT, k),
                );
                let start = Instant::now();
                let clock = || start.elapsed().as_secs_f64();
                let (run, timing) = vroom_fleet::run_fleet_instrumented(&cfg, Some(&clock));
                FleetOp {
                    report: run.report,
                    timing,
                    wall_s: start.elapsed().as_secs_f64(),
                }
            })
            .collect()
    } else {
        fleet_ops
    };
    let probe_cfg = workload::fleet_config(
        fleet_w,
        workload::op_seed(fleet_w, seed ^ LEDGER_SALT, PROBE_OPS),
    );
    let costs = fleet_layers(&mut l, &probe_cfg, &fleet_ops);
    fleet_stages(&mut l, fleet_w, &probe_cfg, &fleet_ops, &costs);
    exec_layers(&mut l);
    figures_layers(&mut l, seed);
    match wire {
        Some(trace) => wire_layers(&mut l, trace),
        None => match WireRig::start(seed ^ LEDGER_SALT) {
            Ok(rig) => {
                let (cpu0, t0) = (cpu_seconds(), Instant::now());
                let pages: Vec<PageLoad> = (0..PROBE_OPS).filter_map(|_| rig.load().ok()).collect();
                let cpu_share = (cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
                wire_layers(
                    &mut l,
                    WireTrace {
                        rig: &rig,
                        pages,
                        cpu_share,
                    },
                );
            }
            Err(e) => println!("ledger: wire server failed to start: {e}"),
        },
    }
    l.0
}

/// Mean per-call costs of the load and write paths, used for attribution.
struct LayerCosts {
    /// Snapshot + store read + push selection + engine load, µs.
    load_us: f64,
    pass_us: f64,
    commit_us: f64,
    evict_us: f64,
    observed_us: f64,
}

/// One probe client: a seed-derived context like a fleet client's.
struct ProbeClient {
    site: usize,
    bucket: i64,
    ctx: LoadContext,
}

fn probe_clients(cfg: &FleetConfig) -> Vec<ProbeClient> {
    (0..cfg.clients as u64)
        .map(|i| {
            let h = |k: u64| mix(cfg.seed, i * 8 + k);
            let bucket = FLEET_BASE_HOURS as i64 + (h(1) % (cfg.span_hours + 1)) as i64;
            let arrival_ms = h(2) % cfg.arrival_span_ms.max(1);
            ProbeClient {
                site: (h(0) % cfg.sites as u64) as usize,
                bucket,
                ctx: LoadContext {
                    hours: bucket as f64 + arrival_ms as f64 / 3_600_000.0,
                    user_id: h(3),
                    device: if h(4) % 2 == 0 {
                        DeviceClass::PhoneLarge
                    } else {
                        DeviceClass::PhoneSmall
                    },
                    nonce: h(5),
                },
            }
        })
        .collect()
}

/// Re-run the serving path's layer calls one at a time: resolver passes and
/// their commits for every (site, hour) the clients need, then each
/// client's snapshot, store read, push selection and engine load, then
/// observed-load learning and a TTL sweep.
fn fleet_layers(l: &mut Ledger, cfg: &FleetConfig, ops: &[FleetOp]) -> LayerCosts {
    let corpus = Corpus::news_and_sports_capped(cfg.corpus_seed, Some(cfg.sites));
    let clients = probe_clients(cfg);
    let needed: BTreeSet<(i64, usize)> = clients.iter().map(|c| (c.bucket, c.site)).collect();

    let store = ShardedStore::new(cfg.shards);
    let mut urls = UrlTable::new();
    let (mut pass_ms, mut commit_us) = (Vec::new(), Vec::new());
    let mut passes: Vec<PassOutput> = Vec::new();
    for &(bucket, site) in &needed {
        let t = Instant::now();
        let pass = run_pass(
            &corpus.sites[site],
            bucket as f64,
            DeviceClass::PhoneLarge,
            cfg.server_seed,
        );
        pass_ms.push(ms(t));
        let t = Instant::now();
        commit_pass_at(&pass, &store, &mut urls, bucket);
        commit_us.push(us(t));
        passes.push(pass);
    }

    let urls = Arc::new(urls);
    let mut scratch = EngineScratch::default();
    let (mut snap, mut read, mut select, mut load) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut load_ns, mut event_total) = (Vec::new(), 0.0, 0u64);
    let mut learned: Vec<(Arc<Page>, LoadResult, i64)> = Vec::new();
    for c in &clients {
        let t = Instant::now();
        let page = corpus.sites[c.site].snapshot_arc(&c.ctx);
        snap.push(us(t));

        let mut ids: Vec<UrlId> = urls.lookup(&page.url).into_iter().collect();
        ids.extend(
            embedded_htmls(&page)
                .into_iter()
                .filter_map(|f| urls.lookup(&page.resources[f].url)),
        );
        let t = Instant::now();
        let reads = store.get_fresh_many(&ids, c.bucket, cfg.policy);
        read.push(us(t));

        let mut server = ServerModel::default();
        let mut select_us = 0.0;
        for (&id, r) in ids.iter().zip(reads) {
            let Some(hints) = r.into_hints() else {
                continue;
            };
            let t = Instant::now();
            let pushes = select_pushes(
                PushPolicy::HighPriorityLocal,
                &urls.get(id).host,
                &hints,
                &urls,
            );
            select_us += us(t);
            if !pushes.is_empty() {
                server.pushes.insert(id, pushes);
            }
            server.hints.insert(id, hints);
        }
        select.push(select_us);

        let mut load_cfg = LoadConfig::http2_baseline();
        load_cfg.cpu_factor = c.ctx.device.cpu_factor();
        load_cfg.fetch_policy = FetchPolicy::VroomStaged;
        load_cfg.ordered_responses = true;
        load_cfg.urls = Arc::clone(&urls);
        load_cfg.server = server;
        let t = Instant::now();
        let result = BrowserEngine::load_with_scratch(&page, &cfg.profile, &load_cfg, &mut scratch);
        let dt = us(t);
        load.push(dt);
        load_ns += dt * 1e3;
        event_total += scratch.last_event_count();
        events.push(scratch.last_event_count() as f64);
        if learned.len() < 16 {
            learned.push((page, result, c.bucket));
        }
    }

    let mut urls = Arc::try_unwrap(urls).unwrap_or_else(|shared| (*shared).clone());
    let observed: Vec<f64> = learned
        .iter()
        .map(|(page, result, bucket)| {
            let t = Instant::now();
            let obs = observed_pass(page, result);
            if !obs.entries.is_empty() {
                commit_pass_at(&obs, &store, &mut urls, *bucket);
            }
            us(t)
        })
        .collect();

    // A TTL sweep over a store holding four hours of passes, half expired.
    let base = FLEET_BASE_HOURS as i64;
    let evict: Vec<f64> = (0..5)
        .map(|_| {
            let aged = ShardedStore::new(cfg.shards);
            let mut table = UrlTable::new();
            for hour in 0..4 {
                for pass in &passes {
                    commit_pass_at(pass, &aged, &mut table, base + hour);
                }
            }
            let t = Instant::now();
            aged.evict_resolved_before(base + 2);
            us(t)
        })
        .collect();

    l.put("pages.snapshot_us", median(&snap), "us");
    l.put("server.store.read_us", median(&read), "us");
    l.put("server.push.select_us", median(&select), "us");
    l.put("browser.load_us", median(&load), "us");
    l.put("browser.events_per_load", median(&events), "count");
    l.put(
        "browser.ns_per_event",
        load_ns / event_total.max(1) as f64,
        "ns",
    );
    let (hits, docs): (u64, u64) = ops
        .iter()
        .map(|o| {
            (
                o.report.hint_hits,
                o.report.hint_hits + o.report.hint_misses,
            )
        })
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    l.put(
        "server.store.hit_share",
        hits as f64 / docs.max(1) as f64,
        "ratio",
    );

    let per_op = |f: &dyn Fn(&FleetReport) -> u64| {
        median(&ops.iter().map(|o| f(&o.report) as f64).collect::<Vec<_>>())
    };
    l.put("server.resolve.pass_ms", median(&pass_ms), "ms");
    l.put(
        "server.resolve.passes_per_op",
        per_op(&|r| r.resolver_passes),
        "count",
    );
    l.put("server.store.commit_us", median(&commit_us), "us");
    l.put("server.store.evict_us", median(&evict), "us");
    l.put("server.learn.observed_us", median(&observed), "us");
    l.put(
        "server.store.stale_reads",
        per_op(&|r| r.freshness.as_ref().map_or(0, |f| f.stale_reads)),
        "count",
    );
    l.put(
        "server.store.evictions",
        per_op(&|r| r.freshness.as_ref().map_or(0, |f| f.evictions)),
        "count",
    );

    LayerCosts {
        load_us: mean(&snap) + mean(&read) + mean(&select) + mean(&load),
        pass_us: mean(&pass_ms) * 1e3,
        commit_us: mean(&commit_us),
        evict_us: mean(&evict),
        observed_us: mean(&observed),
    }
}

/// Per-op stage clocks, and how much of each op the layer costs explain.
fn fleet_stages(l: &mut Ledger, w: Workload, cfg: &FleetConfig, ops: &[FleetOp], c: &LayerCosts) {
    let stage = |f: &dyn Fn(&FleetStageTiming) -> f64| {
        median(&ops.iter().map(|o| f(&o.timing) * 1e3).collect::<Vec<_>>())
    };
    l.put("fleet.pass_ms", stage(&|t| t.pass_s), "ms");
    l.put("fleet.commit_ms", stage(&|t| t.commit_s), "ms");
    l.put("fleet.load_ms", stage(&|t| t.load_s), "ms");
    l.put("fleet.account_ms", stage(&|t| t.account_s), "ms");

    let workers = cfg.workers as f64;
    let ttl = matches!(cfg.policy, vroom_server::EvictionPolicy::Ttl(_));
    let (mut unattributed, mut idle, mut load_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut explained = (0.0, 0.0);
    for o in ops {
        let r = &o.report;
        let observed = r.freshness.as_ref().map_or(0, |f| f.observed_commits) as f64;
        // The fan-outs run on `workers` threads; commits, sweeps and
        // learning run on one.
        let fan_out_us = r.clients as f64 * c.load_us + r.resolver_passes as f64 * c.pass_us;
        let sequential_us = r.resolver_passes as f64 * c.commit_us
            + observed * c.observed_us
            + if ttl {
                r.batches as f64 * c.evict_us
            } else {
                0.0
            };
        let attributed_s = (fan_out_us / workers + sequential_us) / 1e6;
        unattributed.push(1.0 - attributed_s / o.wall_s);
        idle.push(1.0 - fan_out_us / 1e6 / (workers * (o.timing.pass_s + o.timing.load_s)));
        load_share.push(o.timing.load_s / o.wall_s);
        explained = (explained.0 + attributed_s, explained.1 + o.wall_s);
    }
    l.put("fleet.unattributed_share", median(&unattributed), "ratio");
    l.put("exec.idle_share", median(&idle), "ratio");
    println!(
        "attribution: {} layer cost x call counts = {:.1} ms of {:.1} ms op wall over {} ops \
         (unattributed {:.1}%); load stage {:.1}% of op wall",
        w.name(),
        explained.0 * 1e3,
        explained.1 * 1e3,
        ops.len(),
        median(&unattributed) * 100.0,
        median(&load_share) * 100.0
    );
}

fn exec_layers(l: &mut Ledger) {
    let items = vec![0u64; 10];
    let pool: vroom_exec::Pool<()> = vroom_exec::Pool::new(PARALLEL_WORKERS);
    l.put(
        "exec.dispatch_us",
        per_call_us(21, 100, || {
            std::hint::black_box(pool.dispatch(items.clone(), |_, i, &x| x + i as u64));
        }),
        "us",
    );
    drop(pool);
    l.put(
        "exec.par_map_us",
        per_call_us(21, 50, || {
            std::hint::black_box(vroom_exec::par_map_indexed(
                &items,
                PARALLEL_WORKERS,
                |i, &x| x + i as u64,
            ));
        }),
        "us",
    );
}

/// The public exhibit functions, timed one after another.
type Exhibit = fn(&ExperimentConfig);

const EXHIBITS: [(&str, Exhibit); 18] = [
    ("fig01", |c| drop(exp::fig01(c))),
    ("fig02", |c| drop(exp::fig02(c))),
    ("fig03", |c| drop(exp::fig03(c))),
    ("fig04", |c| drop(exp::fig04(c))),
    ("fig07", |c| drop(exp::fig07(c))),
    ("fig09", |c| drop(exp::fig09(c))),
    ("fig11", |c| drop(exp::fig11(c))),
    ("fig13", |c| drop(exp::fig13(c))),
    ("fig14", |c| drop(exp::fig14(c))),
    ("fig15", |c| drop(exp::fig15(c))),
    ("fig16", |c| drop(exp::fig16(c))),
    ("fig17", |c| drop(exp::fig17(c))),
    ("fig18", |c| drop(exp::fig18(c))),
    ("fig19", |c| drop(exp::fig19(c))),
    ("fig20", |c| drop(exp::fig20(c))),
    ("fig21", |c| drop(exp::fig21(c))),
    ("incremental_deployment", |c| {
        drop(exp::incremental_deployment(c))
    }),
    ("top400_sample", |c| drop(exp::top400_sample(c))),
];

const SYSTEMS: [(&str, System); 6] = [
    ("http1", System::Http1),
    ("http2", System::Http2),
    ("vroom", System::Vroom),
    ("push_all_fetch_asap", System::PushAllFetchAsap),
    ("polaris_like", System::PolarisLike),
    ("network_bound", System::NetworkBound),
];

/// Each exhibit on one worker, one after another (fresh corpus seeds, so
/// the process-wide lower-bound memo never serves a previous rep), against
/// the wall time of a whole report on [`PARALLEL_WORKERS`].
fn figures_layers(l: &mut Ledger, seed: u64) {
    let probe_seed = |k: u64| workload::op_seed(Workload::Figures, seed ^ LEDGER_SALT, k);
    let mut per_exhibit = vec![Vec::new(); EXHIBITS.len()];
    let (mut sums, mut walls) = (Vec::new(), Vec::new());
    for rep in 0..FIGURE_REPS {
        let mut cfg = workload::figures_config(probe_seed(2 * rep));
        cfg.workers = 1;
        let mut sum = 0.0;
        for (k, (_, exhibit)) in EXHIBITS.iter().enumerate() {
            let t = Instant::now();
            exhibit(&cfg);
            let dt = ms(t);
            per_exhibit[k].push(dt);
            sum += dt;
        }
        sums.push(sum);
        let t = Instant::now();
        std::hint::black_box(exp::run_all_report(&workload::figures_config(probe_seed(
            2 * rep + 1,
        ))));
        walls.push(ms(t));
    }
    for ((name, _), times) in EXHIBITS.iter().zip(&per_exhibit) {
        l.put(format!("figures.{name}_ms"), median(times), "ms");
    }
    let efficiency = median(&sums) / (PARALLEL_WORKERS as f64 * median(&walls));
    l.put("exec.par_efficiency", efficiency, "ratio");
    println!(
        "attribution: figures exhibits sum to {:.1} ms on 1 worker; a whole report takes {:.1} ms \
         on {PARALLEL_WORKERS} (parallel efficiency {:.2})",
        median(&sums),
        median(&walls),
        efficiency
    );

    let t = Instant::now();
    let corpus = Corpus::news_and_sports_capped(probe_seed(99), Some(workload::FIGURE_SITES));
    let reference = LoadContext::reference();
    for site in &corpus.sites {
        std::hint::black_box(site.snapshot_arc(&reference));
    }
    l.put("pages.corpus_ms", ms(t), "ms");
    let cfg = ExperimentConfig::default();
    for (name, system) in SYSTEMS {
        let times: Vec<f64> = corpus
            .sites
            .iter()
            .map(|site| {
                let t = Instant::now();
                std::hint::black_box(run_load(
                    site,
                    &reference,
                    &cfg.profile,
                    system,
                    cfg.server_seed,
                ));
                ms(t)
            })
            .collect();
        l.put(format!("vroom.load.{name}_ms"), median(&times), "ms");
    }
}

fn wire_layers(l: &mut Ledger, w: WireTrace) {
    let pages = &w.pages;
    let stage = |f: &dyn Fn(&PageLoad) -> f64| median(&pages.iter().map(f).collect::<Vec<_>>());
    let root_ms = stage(&|p| p.root_stage.as_secs_f64() * 1e3);
    let total_ms = stage(&|p| p.total.as_secs_f64() * 1e3);
    l.put(
        "server.wire.connect_ms",
        stage(&|p| p.connect.as_secs_f64() * 1e3),
        "ms",
    );
    l.put("server.wire.root_stage_ms", root_ms, "ms");
    l.put(
        "server.wire.tier_stage_ms",
        stage(&|p| p.tier_stage.as_secs_f64() * 1e3),
        "ms",
    );
    l.put(
        "server.wire.root_goodput_mbps",
        stage(&|p| p.root_bytes as f64 * 8.0 / p.root_stage.as_secs_f64() / 1e6),
        "Mbit/s",
    );
    l.put("server.wire.cpu_share", w.cpu_share, "ratio");
    l.put("server.wire.resets", stage(&|p| p.resets as f64), "count");
    l.put(
        "server.wire.pushes_per_page",
        stage(&|p| p.pushes as f64),
        "count",
    );
    l.put(
        "server.wire.bytes_per_page",
        stage(&|p| p.bytes as f64),
        "bytes",
    );
    let expected = w.rig.expected.len() as f64;
    l.put(
        "server.wire.delivered_share",
        stage(&|p| p.resources.len() as f64 / expected),
        "ratio",
    );
    println!(
        "attribution: wire root stage {root_ms:.1} ms of {total_ms:.1} ms per page ({:.1}%), \
         {} pages, process CPU {:.2}% of wall",
        root_ms / total_ms * 100.0,
        pages.len(),
        w.cpu_share * 100.0
    );

    let fields = w.rig.root_response().to_fields();
    let block = Encoder::new().encode(&fields);
    l.put(
        "hpack.encode_us",
        per_call_us(21, 200, || {
            std::hint::black_box(Encoder::new().encode(&fields));
        }),
        "us",
    );
    l.put(
        "hpack.decode_us",
        per_call_us(21, 200, || {
            std::hint::black_box(Decoder::new().decode(&block).expect("own encoding decodes"));
        }),
        "us",
    );
    l.put(
        "http2.conn_roundtrip_us",
        per_call_us(11, 5, || {
            std::hint::black_box(
                w.rig
                    .conn_roundtrip()
                    .expect("in-memory round trip completes"),
            );
        }),
        "us",
    );
    let page = &w.rig.page;
    l.put(
        "html.scan_us",
        per_call_us(21, 20, || {
            std::hint::black_box(vroom_server::online::scan_served_html(
                page,
                0,
                &mut UrlTable::new(),
            ));
        }),
        "us",
    );
    let root = w.rig.root_response();
    l.put(
        "server.hints.parse_us",
        per_call_us(21, 200, || {
            std::hint::black_box(parse_hints(&root, &mut UrlTable::new()));
        }),
        "us",
    );
}
