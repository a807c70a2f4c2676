//! The hint-freshness loop: observed-load feedback and the
//! accuracy-vs-staleness calibration (ROADMAP item 3).
//!
//! Crawler passes ([`crate::batch::run_pass`]) are the *push* half of
//! keeping a shared [`crate::store::HintStore`] fresh; this module adds the
//! *pull* half — turning what a real client actually fetched back into a
//! committable [`PassOutput`] — plus the Fig 7 persistence constants that
//! calibrate the store's TTL policy.
//!
//! The corpus generator models the paper's Fig 7 churn curve: roughly 70%
//! of a page's URLs persist across one hour and 50% across one week, with
//! ~22% turning over between back-to-back loads. The calibration argument
//! for [`CALIBRATED_TTL_HOURS`]: the sub-hour lifetime class is fully
//! rotated after one bucket, so a hint list older than one bucket has
//! already lost the (1 − 0.70) ≈ 30% of its targets that churn fastest —
//! past that point stale hints buy wasted fetches (Fig 17's failure mode)
//! faster than they buy discovery, and re-resolution is cheaper than the
//! waste. `vroom-bench freshness` renders that crossover as onload speedup
//! vs hint age per eviction policy.

use vroom_browser::LoadResult;
use vroom_pages::{LoadContext, Page, PageGenerator};

use crate::accuracy::{evaluate_aged, Accuracy};
use crate::batch::{PassHint, PassOutput};
use crate::resolve::{embedded_htmls, Strategy};

/// Fraction of a page's URLs that persist across one hour (paper Fig 7).
pub const PERSISTENCE_1H: f64 = 0.70;

/// Fraction of a page's URLs that persist across one week (paper Fig 7).
pub const PERSISTENCE_1WEEK: f64 = 0.50;

/// TTL (in hour buckets) calibrated to the Fig 7 persistence curve: after
/// one bucket the fastest-churning ~30% of hint targets are gone, and a
/// stale list starts costing more in wasted fetches than it saves in
/// discovery. See the module docs for the full argument.
pub const CALIBRATED_TTL_HOURS: u64 = 1;

/// Whether a client actually obtained resource `id` during the load (from
/// the network or its cache) — the ground truth observed feedback commits.
fn fetched_ok(result: &LoadResult, id: usize) -> bool {
    result
        .resources
        .get(id)
        .is_some_and(|t| !t.failed && (t.requested.is_some() || t.from_cache))
}

/// Turn one observed client load into a committable pass: for the root
/// document and each embedded HTML, the markup-visible children the client
/// actually fetched, as hints in tier order.
///
/// Only `via_markup` children are fed back — per-load and user-personalized
/// URLs are exactly what Vroom never hints, and committing them would
/// poison the shared store with one client's noise. The result goes through
/// [`crate::batch::commit_pass_at`] with the observing client's bucket, so
/// a store under a TTL policy treats real-traffic feedback exactly like a
/// crawler pass of the same age.
pub fn observed_pass(page: &Page, result: &LoadResult) -> PassOutput {
    let mut docs = vec![0usize];
    docs.extend(embedded_htmls(page));
    let entries = docs
        .into_iter()
        .filter_map(|doc| {
            let mut targets: Vec<PassHint> = page
                .children(doc)
                .filter(|r| r.via_markup && fetched_ok(result, r.id))
                // vroom-lint: allow(hot-path-alloc) -- the observed pass owns its URLs; once per learning commit, off the serving path
                .map(|r| (r.url.clone(), r.hint_tier(), r.size))
                .collect();
            if targets.is_empty() {
                return None;
            }
            // Tier order, as the wire scanner emits (stable sort keeps
            // document order within a tier).
            targets.sort_by_key(|(_, tier, _)| *tier);
            // vroom-lint: allow(hot-path-alloc) -- the observed pass owns its URLs; once per learning commit, off the serving path
            Some((page.resources[doc].url.clone(), targets))
        })
        .collect();
    PassOutput { entries }
}

/// Vroom hint quality as a function of hint age: `(age, accuracy)` for
/// every age in `0..=max_age_hours`, with the resolver pinned to the hour
/// the hints were (hypothetically) resolved and the client load pinned to
/// `ctx.hours` — the per-site curve behind the freshness exhibit.
pub fn hint_quality_by_age(
    generator: &PageGenerator,
    ctx: &LoadContext,
    server_seed: u64,
    max_age_hours: u64,
) -> Vec<(u64, Accuracy)> {
    (0..=max_age_hours)
        .map(|age| {
            (
                age,
                evaluate_aged(generator, ctx, Strategy::Vroom, server_seed, age),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::commit_pass_at;
    use crate::store::{EvictionPolicy, HintStore, ShardedStore};
    use vroom_browser::config::{FetchPolicy, LoadConfig};
    use vroom_browser::BrowserEngine;
    use vroom_intern::UrlTable;
    use vroom_net::NetworkProfile;
    use vroom_pages::{DeviceClass, SiteProfile};

    fn ctx(h: f64) -> LoadContext {
        LoadContext {
            hours: h,
            user_id: 42,
            device: DeviceClass::PhoneLarge,
            nonce: 7,
        }
    }

    fn load(page: &Page) -> LoadResult {
        let mut cfg = LoadConfig::http2_baseline();
        cfg.fetch_policy = FetchPolicy::OnDiscovery;
        BrowserEngine::load(page, &NetworkProfile::lte(), &cfg)
    }

    #[test]
    fn observed_pass_commits_markup_children_the_client_fetched() {
        let g = PageGenerator::new(SiteProfile::news(), 555);
        let c = ctx(2000.0);
        let page = g.snapshot(&c);
        let result = load(&page);
        let obs = observed_pass(&page, &result);
        assert!(!obs.entries.is_empty(), "a news page yields observed hints");
        assert_eq!(obs.entries[0].0, page.url, "root document first");
        for (html, targets) in &obs.entries {
            assert!(!targets.is_empty());
            let doc = page
                .resources
                .iter()
                .find(|r| &r.url == html)
                .expect("entry key is a page document");
            for (url, tier, size) in targets {
                let child = page
                    .children(doc.id)
                    .find(|r| &r.url == url)
                    .expect("every target is a child of its document");
                assert!(child.via_markup, "only markup-visible URLs fed back");
                assert_eq!(*tier, child.hint_tier());
                assert_eq!(*size, child.size);
            }
            // Tier-ordered, like the wire scanner's output.
            assert!(targets.windows(2).all(|w| w[0].1 <= w[1].1));
        }

        // The observed pass round-trips through the store like any other.
        let store = ShardedStore::new(4);
        let mut urls = UrlTable::new();
        let keys = commit_pass_at(&obs, &store, &mut urls, 2000);
        let read = store.get_fresh(keys[0], 2000, EvictionPolicy::Ttl(1));
        assert_eq!(
            read.into_hints().expect("root entry readable").len(),
            obs.entries[0].1.len()
        );
    }

    #[test]
    fn observed_pass_skips_failed_resources() {
        let g = PageGenerator::new(SiteProfile::news(), 556);
        let page = g.snapshot(&ctx(2000.0));
        let mut result = load(&page);
        // Pretend every resource failed: nothing must be fed back.
        for t in &mut result.resources {
            t.failed = true;
        }
        let obs = observed_pass(&page, &result);
        assert!(obs.entries.is_empty());
    }

    #[test]
    fn hint_quality_decays_with_age() {
        // Median the curve over several sites: per-site curves are noisy
        // (an individual page may churn little in 6 hours).
        let mut fn_by_age = vec![Vec::new(); 7];
        for seed in 0..12u64 {
            let g = PageGenerator::new(SiteProfile::news(), 7400 + seed);
            let curve = hint_quality_by_age(&g, &ctx(1500.0 + seed as f64), 1, 6);
            assert_eq!(curve.len(), 7);
            for (age, acc) in curve {
                fn_by_age[age as usize].push(acc.false_negative + acc.false_positive);
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let fresh = median(&mut fn_by_age[0]);
        let stale = median(&mut fn_by_age[6]);
        assert!(
            stale > fresh,
            "6-hour-old hints must score worse (FN+FP) than fresh ones: {stale:.3} vs {fresh:.3}"
        );
    }

    #[test]
    fn calibration_constants_match_the_corpus_model() {
        // The generator's churn model is built from these same Fig 7
        // anchors; keep the calibration constants tied to them.
        assert!(PERSISTENCE_1H > PERSISTENCE_1WEEK);
        assert!((0.0..=1.0).contains(&PERSISTENCE_1WEEK));
        assert_eq!(CALIBRATED_TTL_HOURS, 1);
    }
}
