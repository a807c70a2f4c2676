//! Fleet determinism tier: the fleet-scale serving simulation — shared
//! sharded hint store, batched resolver passes, parallel client loads — is
//! byte-identical at any worker count and across repeated runs, and the
//! sharded store is observationally equal to the single-shard reference,
//! shard by shard, for arbitrary operation sequences.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use vroom_browser::config::Hint;
use vroom_fleet::{
    run_fleet, run_fleet_unpipelined, run_freshness, FleetConfig, FleetFaults, FleetRun,
    FreshnessConfig,
};
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::json::Value;
use vroom_server::store::{
    EvictionPolicy, FreshRead, HintStore, ShardStats, ShardedStore, UnshardedStore,
};

/// The two byte-comparable projections of a run: the text report and the
/// deterministic metrics tree of `BENCH_fleet.json` (timings excluded by
/// construction — they are added by `vroom-bench`, outside the simulation).
fn fingerprints(run: &FleetRun) -> (String, String) {
    let mut json = String::new();
    run.report.to_json_value().write_pretty_into(&mut json);
    (run.report.render(), json)
}

fn assert_identical_at_all_widths(mut cfg: FleetConfig) {
    cfg.workers = 1;
    let reference = run_fleet(&cfg);
    let (ref_render, ref_json) = fingerprints(&reference);
    assert!(ref_render.starts_with("==== fleet ===="));
    for workers in [2, 8] {
        cfg.workers = workers;
        let got = run_fleet(&cfg);
        let (render, json) = fingerprints(&got);
        assert_eq!(ref_render, render, "report diverged at workers={workers}");
        assert_eq!(ref_json, json, "metrics diverged at workers={workers}");
        assert_eq!(
            reference.outcomes, got.outcomes,
            "per-client outcomes diverged at workers={workers}"
        );
    }
    // Same seed, second run: nothing hidden (allocator state, map order,
    // shard scheduling) may leak into the output.
    cfg.workers = 1;
    let again = run_fleet(&cfg);
    assert_eq!(fingerprints(&again), (ref_render, ref_json));
    assert_eq!(again.outcomes, reference.outcomes);
}

#[test]
fn fleet_is_byte_identical_across_worker_counts_and_runs() {
    assert_identical_at_all_widths(FleetConfig::quick(150, 4));
}

/// The acceptance-scale run: 1000 clients. Costs tens of seconds
/// unoptimized, so the debug tier skips it; CI runs it in release mode
/// alongside the chaos suite.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1000-client fleet is release-only; CI runs it"
)]
fn thousand_client_fleet_is_byte_identical() {
    let cfg = FleetConfig::default();
    assert!(cfg.clients >= 1000);
    assert_identical_at_all_widths(cfg);
}

#[test]
fn different_seeds_produce_different_fleets() {
    let a = run_fleet(&FleetConfig::quick(60, 3));
    let b = run_fleet(&FleetConfig {
        seed: 0xD1FF,
        ..FleetConfig::quick(60, 3)
    });
    assert_ne!(
        a.report.render(),
        b.report.render(),
        "the seed must actually steer arrivals and site choices"
    );
}

#[test]
fn shard_count_changes_layout_but_not_semantics() {
    let base = FleetConfig::quick(60, 3);
    let one = run_fleet(&FleetConfig {
        shards: 1,
        ..base.clone()
    });
    let many = run_fleet(&FleetConfig { shards: 32, ..base });
    // Shard layout is invisible to clients: every load-derived number
    // matches; only the per-shard breakdown differs.
    assert_eq!(one.outcomes, many.outcomes);
    assert_eq!(one.report.store_entries, many.report.store_entries);
    assert_eq!(one.report.hint_hits, many.report.hint_hits);
    assert_eq!(one.report.onload_p50_ms, many.report.onload_p50_ms);
    assert_eq!(one.report.shard_stats.len(), 1);
    assert_eq!(many.report.shard_stats.len(), 32);
    let total = |r: &vroom_fleet::FleetReport| {
        r.shard_stats.iter().fold((0, 0, 0, 0), |(a, b, c, d), s| {
            (a + s.reads, b + s.hits, c + s.writes, d + s.entries)
        })
    };
    assert_eq!(total(&one.report), total(&many.report));
}

#[test]
fn metrics_json_is_a_canonical_fixed_point() {
    let run = run_fleet(&FleetConfig::quick(30, 2));
    let mut text = String::new();
    run.report.to_json_value().write_pretty_into(&mut text);
    let back = Value::parse(&text).expect("metrics parse");
    let mut second = String::new();
    back.write_pretty_into(&mut second);
    assert_eq!(text, second, "canonical form is a fixed point");
}

// ---------------------------------------------------------------------------
// Freshness determinism tier
// ---------------------------------------------------------------------------

#[test]
fn freshness_fleet_is_byte_identical_across_worker_counts_and_runs() {
    // Multi-bucket arrivals, TTL eviction, and observed-load learning all
    // at once: the freshness machinery must preserve the worker-identity
    // guarantee the legacy fleet pins above.
    let ttl = FleetConfig {
        span_hours: 3,
        policy: EvictionPolicy::Ttl(1),
        learn_from_loads: true,
        ..FleetConfig::quick(90, 3)
    };
    assert_identical_at_all_widths(ttl);
    let refresh = FleetConfig {
        span_hours: 2,
        policy: EvictionPolicy::RefreshOnMiss(1),
        ..FleetConfig::quick(60, 3)
    };
    assert_identical_at_all_widths(refresh);
}

#[test]
fn legacy_fleet_report_has_no_freshness_section() {
    // Policy Never + span 0 + no learning: render and JSON must be
    // byte-identical to the pre-freshness report, which means the
    // freshness section (and its config keys) must not exist at all.
    let run = run_fleet(&FleetConfig::quick(30, 2));
    assert!(run.report.freshness.is_none());
    assert!(!run.report.render().contains("freshness:"));
    let Value::Object(m) = run.report.to_json_value() else {
        panic!("metrics must be an object");
    };
    assert!(!m.contains_key("freshness"));
}

#[test]
fn oversized_arrival_span_is_clamped_and_surfaced() {
    // A 2-hour arrival span used to silently break one-pass-per-site
    // batching (clients claimed an hour their context did not live in);
    // now it clamps to one bucket and says so in the report.
    let run = run_fleet(&FleetConfig {
        arrival_span_ms: 7_200_000,
        ..FleetConfig::quick(40, 3)
    });
    let r = &run.report;
    assert_eq!(r.resolver_passes, 3, "clamped span keeps one pass per site");
    let f = r.freshness.as_ref().expect("clamp surfaces the section");
    assert_eq!(f.arrival_span_clamped_from_ms, 7_200_000);
    assert!(r
        .render()
        .contains("warning: arrival span clamped 7200000 -> 3600000 ms"));
    for o in &run.outcomes {
        assert!(o.arrival_ms < 3_600_000, "arrivals stay inside one bucket");
    }
}

#[test]
fn span_hours_spreads_arrivals_and_reruns_passes_per_bucket() {
    let run = run_fleet(&FleetConfig {
        span_hours: 2,
        ..FleetConfig::quick(80, 2)
    });
    let r = &run.report;
    // Under Never, a site is passed at its first bucket only — passes stay
    // at one per site even across buckets.
    assert_eq!(r.resolver_passes, 2);
    let f = r.freshness.as_ref().expect("span > 0 surfaces the section");
    assert_eq!(f.span_hours, 2);
    assert_eq!(f.policy, "never");
    assert_eq!(f.refresh_passes, 0);
}

/// The committed `BENCH_fleet.json` is a legacy run (policy `Never`, zero
/// span): re-running its exact config must reproduce the committed
/// `metrics` section byte-for-byte — the freshness machinery may not move
/// a single counter of the pre-freshness fleet. Release-only (1000
/// clients); CI runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1000-client baseline replay is release-only; CI runs it"
)]
fn legacy_fleet_metrics_match_the_committed_bench_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_fleet.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_fleet.json");
    let Value::Object(root) = Value::parse(&text).expect("baseline parses") else {
        panic!("baseline top level is not an object");
    };
    let Some(Value::Object(config)) = root.get("config") else {
        panic!("baseline has no config section");
    };
    assert!(
        !config.contains_key("policy"),
        "committed baseline must be a legacy run"
    );
    let get = |k: &str| match config.get(k) {
        Some(Value::Int(n)) => *n,
        other => panic!("config.{k}: {other:?}"),
    };
    let run = run_fleet(&FleetConfig {
        clients: get("clients") as usize,
        sites: get("sites") as usize,
        shards: get("shards") as usize,
        seed: get("seed"),
        batch_window_ms: get("batch_window_ms"),
        arrival_span_ms: get("arrival_span_ms"),
        ..FleetConfig::default()
    });
    assert!(run.report.freshness.is_none());
    let mut fresh = String::new();
    run.report.to_json_value().write_pretty_into(&mut fresh);
    let mut committed = String::new();
    root.get("metrics")
        .expect("baseline has a metrics section")
        .write_pretty_into(&mut committed);
    assert_eq!(
        fresh, committed,
        "policy Never + span 0 must reproduce the committed metrics exactly"
    );
}

// ---------------------------------------------------------------------------
// Pipelined execution == unpipelined reference
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The pipelined fleet — persistent pool, per-worker scratch reuse,
    /// batch k+1's resolver passes overlapped with batch k's loads — is
    /// byte-identical to the two-fan-outs-per-batch reference at every
    /// worker count, with and without fault injection, under every
    /// eviction policy.
    #[test]
    fn pipelined_fleet_equals_unpipelined_reference(
        clients in 1usize..=50,
        sites in 1usize..=4,
        seed in any::<u64>(),
        policy_sel in 0u8..3,
        faulted in any::<bool>(),
        fault_seed in any::<u64>(),
        fault_one_in in 1u64..4,
    ) {
        let mut cfg = FleetConfig::quick(clients, sites);
        cfg.seed = seed;
        cfg.policy = policy_of(policy_sel);
        if cfg.policy != EvictionPolicy::Never {
            cfg.span_hours = 3;
            cfg.learn_from_loads = true;
        }
        cfg.faults = faulted.then_some(FleetFaults {
            seed: fault_seed,
            severity: 0.7,
            one_in: fault_one_in,
        });
        for workers in [1usize, 2, 8] {
            cfg.workers = workers;
            let pipelined = run_fleet(&cfg);
            let reference = run_fleet_unpipelined(&cfg);
            prop_assert_eq!(
                fingerprints(&pipelined),
                fingerprints(&reference),
                "report diverged at workers={}",
                workers
            );
            prop_assert_eq!(
                &pipelined.outcomes,
                &reference.outcomes,
                "outcomes diverged at workers={}",
                workers
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Freshness sweep (speedup vs hint age)
// ---------------------------------------------------------------------------

#[test]
fn freshness_sweep_is_byte_identical_across_worker_counts_and_runs() {
    let mut cfg = FreshnessConfig::quick(10, 2, 2);
    cfg.workers = 1;
    let reference = run_freshness(&cfg);
    assert!(reference.render().starts_with("==== freshness ===="));
    let mut ref_json = String::new();
    reference.to_json_value().write_pretty_into(&mut ref_json);
    for workers in [2, 8] {
        cfg.workers = workers;
        let got = run_freshness(&cfg);
        assert_eq!(reference, got, "sweep diverged at workers={workers}");
        let mut json = String::new();
        got.to_json_value().write_pretty_into(&mut json);
        assert_eq!(ref_json, json, "sweep JSON diverged at workers={workers}");
    }
    cfg.workers = 1;
    assert_eq!(run_freshness(&cfg), reference, "second run identical");
}

/// The exhibit's headline claims, at full scale: speedup decays as hints
/// age, the calibrated TTL beats serving stale hints beyond one bucket of
/// staleness, and RefreshOnMiss recovers fresh-hint speedups at any age.
/// Release-only; CI runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full freshness sweep is release-only; CI runs it"
)]
fn speedup_decays_with_age_and_ttl_beats_never_past_the_ttl() {
    let r = run_freshness(&FreshnessConfig::default());
    let cell = |age: u64, policy: &str| {
        r.cells
            .iter()
            .find(|c| c.age_hours == age && c.policy == policy)
            .unwrap_or_else(|| panic!("cell ({age}, {policy})"))
    };
    // Fresh hints help.
    assert!(
        cell(0, "never").speedup_p50 > 1.0,
        "fresh hints must beat no hints: {:.3}",
        cell(0, "never").speedup_p50
    );
    // Aged hints are worth less than fresh ones.
    assert!(
        cell(6, "never").speedup_p50 < cell(0, "never").speedup_p50,
        "speedup must decay with age: {:.3} vs {:.3}",
        cell(6, "never").speedup_p50,
        cell(0, "never").speedup_p50
    );
    // Past the TTL, eviction degrades to the baseline *exactly* (no hints
    // left, so the loads are the baseline loads)...
    assert_eq!(cell(2, "ttl(1)").speedup_p50, 1.0);
    assert_eq!(cell(2, "ttl(1)").hint_hits, 0);
    // ...which beats serving the stale hints.
    for age in 2..=6 {
        assert!(
            cell(age, "ttl(1)").speedup_p50 >= cell(age, "never").speedup_p50,
            "age {age}: ttl {:.3} must beat never {:.3}",
            cell(age, "ttl(1)").speedup_p50,
            cell(age, "never").speedup_p50
        );
    }
    // RefreshOnMiss re-resolves stale sites, recovering fresh speedups.
    let refreshed = cell(6, "refresh-on-miss(1)");
    assert!(refreshed.refresh_passes > 0);
    assert!(
        refreshed.speedup_p50 > cell(6, "never").speedup_p50,
        "refreshed {:.3} must beat stale {:.3}",
        refreshed.speedup_p50,
        cell(6, "never").speedup_p50
    );
    // The analytic accuracy curve decays with the speedups.
    let err = |a: &vroom_fleet::AgeAccuracy| a.false_negative + a.false_positive;
    assert!(err(&r.accuracy_by_age[6]) > err(&r.accuracy_by_age[0]));
}

// ---------------------------------------------------------------------------
// Sharded hint store properties
// ---------------------------------------------------------------------------

/// One batched store operation at bucket 0 under `Never`: a `put_many_at`
/// of derived hint lists (duplicate keys resolve last-write-wins), or a
/// `get_fresh_many`.
#[derive(Debug, Clone)]
enum Op {
    Put(Vec<(u32, u8, u8)>),
    Get(Vec<u32>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec((0u32..64, 0u8..3, 0u8..6), 0..6).prop_map(Op::Put),
        proptest::collection::vec(0u32..96, 0..6).prop_map(Op::Get),
    ]
}

fn apply(ops: &[Op], store: &dyn HintStore) -> Vec<FreshRead> {
    let mut reads = Vec::new();
    for op in ops {
        match op {
            Op::Put(entries) => store.put_many_at(
                entries
                    .iter()
                    .map(|&(key, tier, hints)| {
                        (
                            UrlId::from_index(key as usize),
                            (0..hints)
                                .map(|i| Hint {
                                    url: UrlId::from_index((key + u32::from(i) + 1) as usize),
                                    tier,
                                    size_hint: u64::from(key) * 100 + u64::from(i),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                0,
            ),
            Op::Get(keys) => {
                let keys: Vec<UrlId> = keys
                    .iter()
                    .map(|&k| UrlId::from_index(k as usize))
                    .collect();
                reads.extend(store.get_fresh_many(&keys, 0, EvictionPolicy::Never));
            }
        }
    }
    reads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For an arbitrary sequence of batched puts and gets, the sharded
    /// store's reads and merged contents equal the single-shard reference
    /// exactly, and the logical counter totals match — sharding changes
    /// layout, never semantics.
    #[test]
    fn sharded_store_equals_unsharded_reference(
        ops in proptest::collection::vec(arb_op(), 0..60),
        shards in 1usize..24,
    ) {
        let sharded = ShardedStore::new(shards);
        let reference = UnshardedStore::new();
        let reads_s = apply(&ops, &sharded);
        let reads_u = apply(&ops, &reference);
        prop_assert_eq!(reads_s, reads_u, "read-by-read results");
        prop_assert_eq!(sharded.snapshot_versioned(), reference.snapshot_versioned());
        prop_assert_eq!(sharded.len(), reference.len());
        let totals = |stats: &[ShardStats]| {
            stats.iter().fold((0u64, 0u64, 0u64), |(r, h, w), s| {
                (r + s.reads, h + s.hits, w + s.writes)
            })
        };
        prop_assert_eq!(
            totals(&sharded.shard_stats()),
            totals(&reference.shard_stats())
        );
    }

    /// Shard routing is total (always a valid index) and a pure function
    /// of the id value: growing the intern table never re-routes an
    /// existing id.
    #[test]
    fn shard_routing_is_total_and_stable_under_growth(
        hosts in proptest::collection::vec(0u32..500, 1..40),
        shards in 1usize..64,
    ) {
        let mut table = UrlTable::new();
        let mut routed: Vec<(UrlId, usize)> = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            let id = table.intern(Url::https(&format!("h{h}.example.com"), &format!("/r/{i}")));
            let shard = id.shard(shards);
            prop_assert!(shard < shards, "routing must be total");
            // Every id routed earlier still routes identically now that
            // the table has grown.
            for &(prev, expect) in &routed {
                prop_assert_eq!(prev.shard(shards), expect, "routing drifted under growth");
            }
            routed.push((id, shard));
        }
    }
}

// ---------------------------------------------------------------------------
// Versioned store properties (TTL / RefreshOnMiss equivalence)
// ---------------------------------------------------------------------------

/// One versioned store operation: a bucket-stamped put, a policy-aware
/// read, or a TTL eviction sweep.
#[derive(Debug, Clone, Copy)]
enum VersionedOp {
    PutAt {
        key: u32,
        tier: u8,
        hints: u8,
        bucket: i64,
    },
    GetFresh {
        key: u32,
        now: i64,
        policy: u8,
    },
    Evict {
        min_bucket: i64,
    },
}

fn arb_versioned_op() -> impl Strategy<Value = VersionedOp> {
    prop_oneof![
        (0u32..48, 0u8..3, 0u8..5, 1995u64..2006).prop_map(|(key, tier, hints, bucket)| {
            VersionedOp::PutAt {
                key,
                tier,
                hints,
                bucket: bucket as i64,
            }
        }),
        (0u32..64, 1995u64..2010, 0u8..3).prop_map(|(key, now, policy)| {
            VersionedOp::GetFresh {
                key,
                now: now as i64,
                policy,
            }
        }),
        (1993u64..2012).prop_map(|min_bucket| VersionedOp::Evict {
            min_bucket: min_bucket as i64
        }),
    ]
}

fn policy_of(sel: u8) -> EvictionPolicy {
    match sel % 3 {
        0 => EvictionPolicy::Never,
        1 => EvictionPolicy::Ttl(2),
        _ => EvictionPolicy::RefreshOnMiss(2),
    }
}

/// Apply the sequence, returning every read's classification so the two
/// stores can be compared observation-by-observation, not just end-state.
fn apply_versioned(ops: &[VersionedOp], store: &dyn HintStore) -> Vec<FreshRead> {
    let mut reads = Vec::new();
    for op in ops {
        match *op {
            VersionedOp::PutAt {
                key,
                tier,
                hints,
                bucket,
            } => store.put_many_at(
                vec![(
                    UrlId::from_index(key as usize),
                    (0..hints)
                        .map(|i| Hint {
                            url: UrlId::from_index((key + u32::from(i) + 1) as usize),
                            tier,
                            size_hint: u64::from(key) * 100 + u64::from(i),
                        })
                        .collect(),
                )],
                bucket,
            ),
            VersionedOp::GetFresh { key, now, policy } => {
                reads.push(store.get_fresh(
                    UrlId::from_index(key as usize),
                    now,
                    policy_of(policy),
                ));
            }
            VersionedOp::Evict { min_bucket } => {
                let _ = store.evict_resolved_before(min_bucket);
            }
        }
    }
    reads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary versioned operation sequences under every eviction
    /// policy, the sharded store and the single-shard reference agree on
    /// every read classification, the versioned contents, and the counter
    /// totals. Per shard, every counter — reads, hits, writes, entries,
    /// stale, evictions — equals that of a reference fed only the ops whose
    /// key routes to that shard (sweeps reach every reference), so a count
    /// charged to the wrong shard fails even when the totals agree.
    #[test]
    fn versioned_sharded_store_equals_unsharded_reference(
        ops in proptest::collection::vec(arb_versioned_op(), 0..120),
        shards in 1usize..24,
    ) {
        let sharded = ShardedStore::new(shards);
        let reference = UnshardedStore::new();
        let reads_s = apply_versioned(&ops, &sharded);
        let reads_u = apply_versioned(&ops, &reference);
        prop_assert_eq!(reads_s, reads_u, "read-by-read classification");
        prop_assert_eq!(sharded.snapshot_versioned(), reference.snapshot_versioned());
        prop_assert_eq!(sharded.len(), reference.len());
        let totals = |stats: &[ShardStats]| {
            stats.iter().fold([0u64; 6], |t, s| {
                [
                    t[0] + s.reads,
                    t[1] + s.hits,
                    t[2] + s.writes,
                    t[3] + s.entries,
                    t[4] + s.stale,
                    t[5] + s.evictions,
                ]
            })
        };
        prop_assert_eq!(
            totals(&sharded.shard_stats()),
            totals(&reference.shard_stats())
        );

        let per_shard: Vec<UnshardedStore> =
            (0..shards).map(|_| UnshardedStore::new()).collect();
        for op in &ops {
            let key = match *op {
                VersionedOp::PutAt { key, .. } | VersionedOp::GetFresh { key, .. } => key,
                VersionedOp::Evict { .. } => {
                    for r in &per_shard {
                        apply_versioned(std::slice::from_ref(op), r);
                    }
                    continue;
                }
            };
            let shard = UrlId::from_index(key as usize).shard(shards);
            apply_versioned(std::slice::from_ref(op), &per_shard[shard]);
        }
        let expected: Vec<ShardStats> =
            per_shard.iter().flat_map(|r| r.shard_stats()).collect();
        prop_assert_eq!(sharded.shard_stats(), expected, "per-shard counters");
    }
}
