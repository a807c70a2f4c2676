//! The five call-graph rule families: `sim-purity`, `panic-reachable`,
//! `hot-path-alloc`, `protocol-exhaustive`, and `lock-safety` (the
//! `lock-order` / `blocking-under-lock` / `lock-in-hot-loop` triple).
//!
//! All families are over-approximations in the safe direction: the call
//! graph adds edges when resolution is ambiguous, effect scanning is
//! syntactic, guard liveness is may-hold (DESIGN.md §2h), and match
//! coverage is judged by explicit variant references — so none of the
//! families can miss a violation that its lexical definitions cover.
//! The cost is occasional false positives, paid down with per-call-site
//! waivers or the ratchet baseline.

use crate::callgraph::Graph;
use crate::hotpaths::HotPathConfig;
use crate::parse::{CallKind, CallSite, EffectKind, FileSummary};
use crate::rules::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Simulation entrypoint crates: every non-test fn defined under these
/// paths is a sim-purity root. `src/bin/` is excluded — CLI frontends may
/// parse arguments from the environment.
const SIM_ROOT_PREFIXES: [&str; 2] = ["crates/sim/src/", "crates/vroom/src/"];

/// The wire server accept loop lives here; every non-test fn in the file is
/// a panic-reachability root.
const WIRE_ROOT_FILE: &str = "crates/server/src/wire.rs";

/// Files outside the simulator where wall-clock effects are the *product*,
/// not a leak: `crates/bench` (the perf-trajectory harness) and the vendored
/// criterion stand-in it drives time real executions by design, and
/// `crates/intern` is allocation machinery that never advances simulated
/// time. Call resolution is name-based and conservative, so a sim root can
/// appear to reach these files through any same-named method; they are
/// excluded from sim-purity diagnostics by definition site rather than
/// waived line by line.
const SIM_PURITY_EXEMPT_PREFIXES: [&str; 3] =
    ["crates/bench/", "crates/intern/", "vendor/criterion/"];

/// Enums whose matches in `crates/http2` must be exhaustive without
/// catch-alls. `ErrorCode` is the reproduction's name for the paper's
/// connection-error codes (`ConnError`).
const PROTOCOL_ENUMS: [&str; 5] = ["FrameType", "Frame", "StreamState", "ErrorCode", "Event"];
const PROTOCOL_PREFIX: &str = "crates/http2/";

/// Effect families the sim-purity rule bans. Thread spawning counts: a
/// stray thread makes completion order observable. The one sanctioned
/// site is `vroom_exec::par_map_indexed`, whose pool is waived in place
/// because it collects results by input index (closures passed through it
/// are still analyzed like any other code).
const PURITY_KINDS: [EffectKind; 6] = [
    EffectKind::WallClock,
    EffectKind::Randomness,
    EffectKind::Fs,
    EffectKind::Net,
    EffectKind::UnorderedIter,
    EffectKind::ThreadSpawn,
];

/// Run all interprocedural rules with the compiled-in hot-path roots.
pub fn semantic_violations(summaries: &[FileSummary]) -> Vec<Violation> {
    semantic_violations_with(summaries, &HotPathConfig::default())
}

/// Run all interprocedural rules over the workspace summaries.
pub fn semantic_violations_with(summaries: &[FileSummary], hot: &HotPathConfig) -> Vec<Violation> {
    let graph = Graph::build(summaries);
    let mut out = Vec::new();
    sim_purity(&graph, &mut out);
    panic_reachable(&graph, &mut out);
    hot_path_alloc(&graph, hot, &mut out);
    protocol_exhaustive(summaries, &mut out);
    lock_safety(&graph, hot, &mut out);
    // Nested fns are scanned by both themselves and their parent, and a
    // node can be reached from several roots; keep one diagnostic per
    // (rule, site).
    out.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    out.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    out
}

fn sim_purity(graph: &Graph, out: &mut Vec<Violation>) {
    let roots = graph.select(|path, _| {
        SIM_ROOT_PREFIXES.iter().any(|p| path.starts_with(p)) && !path.contains("/bin/")
    });
    let pred = graph.reachable(&roots);
    for id in 0..graph.nodes.len() {
        if pred[id].is_none() {
            continue;
        }
        let n = graph.nodes[id];
        let file = &graph.summaries[n.file];
        if SIM_PURITY_EXEMPT_PREFIXES
            .iter()
            .any(|p| file.path.starts_with(p))
        {
            continue;
        }
        let f = &file.fns[n.item];
        for e in &f.effects {
            if !PURITY_KINDS.contains(&e.kind) || e.waived {
                continue;
            }
            let chain = graph.chain(&pred, id);
            let root = graph.display(chain[0]);
            let via = via_text(graph, &chain);
            out.push(Violation {
                rule: "sim-purity",
                path: file.path.clone(),
                line: e.line,
                message: format!(
                    "{} ({}) is reachable from simulation entrypoint `{root}`{via}; \
                     the deterministic path must take time from the engine, randomness \
                     from the seeded Rng, iterate ordered containers, and parallelize \
                     only through `vroom_exec::par_map_indexed`",
                    e.detail,
                    e.kind.name(),
                ),
                snippet: e.snippet.clone(),
            });
        }
    }
}

fn panic_reachable(graph: &Graph, out: &mut Vec<Violation>) {
    let roots = graph.select(|path, _| path == WIRE_ROOT_FILE);
    let pred = graph.reachable(&roots);
    for id in 0..graph.nodes.len() {
        if pred[id].is_none() {
            continue;
        }
        let n = graph.nodes[id];
        let file = &graph.summaries[n.file];
        let f = &file.fns[n.item];
        for e in &f.effects {
            if e.kind != EffectKind::Panic || e.waived {
                continue;
            }
            let chain = graph.chain(&pred, id);
            let root = graph.display(chain[0]);
            let via = via_text(graph, &chain);
            out.push(Violation {
                rule: "panic-reachable",
                path: file.path.clone(),
                line: e.line,
                message: format!(
                    "{} can panic and is reachable from the wire server accept path \
                     (`{root}`{via}); return a typed error instead (ratcheted: \
                     pre-existing sites are baselined, new ones are rejected)",
                    e.detail,
                ),
                snippet: e.snippet.clone(),
            });
        }
    }
}

fn hot_path_alloc(graph: &Graph, cfg: &HotPathConfig, out: &mut Vec<Violation>) {
    let roots = graph.select(|path, f| {
        cfg.roots
            .iter()
            .any(|(p, fns)| p == path && fns.iter().any(|n| n == &f.name))
    });
    if roots.is_empty() {
        return;
    }
    let pred = graph.reachable(&roots);
    struct Finding {
        weight: usize,
        path: String,
        line: usize,
        detail: String,
        snippet: String,
        root: String,
        via: String,
    }
    let mut found: Vec<Finding> = Vec::new();
    for id in 0..graph.nodes.len() {
        if pred[id].is_none() {
            continue;
        }
        let n = graph.nodes[id];
        let file = &graph.summaries[n.file];
        if cfg.exempt.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        let f = &file.fns[n.item];
        for e in &f.effects {
            if !matches!(e.kind, EffectKind::Alloc(_)) || e.waived {
                continue;
            }
            let chain = graph.chain(&pred, id);
            found.push(Finding {
                weight: e.loop_depth,
                path: file.path.clone(),
                line: e.line,
                detail: e.detail.clone(),
                snippet: e.snippet.clone(),
                root: graph.display(chain[0]),
                via: via_text(graph, &chain),
            });
        }
    }
    // Nested fns are scanned by both themselves and their parent, and a
    // site may be reached from several roots; keep one finding per site,
    // preferring the shortest chain, so ranks count distinct sites.
    found.sort_by(|a, b| {
        (&a.path, a.line, &a.detail, a.via.len()).cmp(&(&b.path, b.line, &b.detail, b.via.len()))
    });
    found.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.detail == b.detail);
    // Rank by loop depth: an alloc inside a per-frame loop outranks a
    // once-per-load alloc. Ties break on (path, line, detail) so the
    // ordering — and thus every message — is deterministic.
    found.sort_by(|a, b| {
        (std::cmp::Reverse(a.weight), &a.path, a.line, &a.detail).cmp(&(
            std::cmp::Reverse(b.weight),
            &b.path,
            b.line,
            &b.detail,
        ))
    });
    let total = found.len();
    for (i, fd) in found.iter().enumerate() {
        out.push(Violation {
            rule: "hot-path-alloc",
            path: fd.path.clone(),
            line: fd.line,
            message: format!(
                "hot-path alloc ({}) reachable from `{}`{}; loop depth {}, rank {} of {total} — \
                 the wire path stays zero-copy: share via SharedBytes/SharedStr or reuse a \
                 scratch buffer instead of allocating per item",
                fd.detail,
                fd.root,
                fd.via,
                fd.weight,
                i + 1,
            ),
            snippet: fd.snippet.clone(),
        });
    }
}

/// A lock guard that may be live somewhere inside one fn: either one of the
/// fn's own acquisitions, or a guard a callee returned into this fn.
#[derive(Clone)]
struct GuardView {
    /// Workspace identity: `<defining file path>::<receiver symbol>`.
    id: String,
    /// 1-based acquisition line in this fn (the obtaining call's line for
    /// guards returned by a helper).
    line: usize,
    /// Inclusive line range the guard may be live, within this fn.
    span: (usize, usize),
    binding: Option<String>,
    stmt_temp: bool,
}

/// Where a possibly-held lock was acquired, for diagnostics. `chain` is the
/// call path (node ids) from the holding fn to the fn being diagnosed,
/// capped so messages stay readable.
#[derive(Clone)]
struct Origin {
    path: String,
    line: usize,
    binding: Option<String>,
    chain: Vec<usize>,
}

/// Is `call` a method call *on the guard itself*? Such calls deref to the
/// guarded std container (`guard.remove(..)`, `cache.insert(..)`) — the
/// workspace fns they name-collide with can never run under this guard, so
/// pairing them would manufacture false lock-order/blocking findings. Free
/// calls are never suppressed: `helper(&mut guard)` really does run the
/// workspace `helper` with the lock held.
fn on_guard(g: &GuardView, call: &CallSite) -> bool {
    if call.kind != CallKind::Method {
        return false;
    }
    // The acquisition statement's own chain (`m.lock().expect("..")`) parses
    // as method calls with a compound receiver on the guard's line; they
    // *produce* the guard rather than run under it.
    if call.recv.is_none() && call.line == g.line {
        return true;
    }
    match (&g.binding, g.stmt_temp) {
        // `guard.insert(..)` on a bound guard.
        (Some(b), _) => call.recv.as_deref() == Some(b.as_str()),
        // A statement temporary's chained calls (`m.lock().unwrap().get(..)`)
        // have a compound receiver the parser records as `None`.
        (None, true) => call.recv.is_none(),
        _ => false,
    }
}

/// The `lock-safety` family: compute the set of locks possibly held at
/// every call site (a may-hold lattice of `(lock identity, origin)` pairs,
/// DESIGN.md §2h), then report acquisition-order cycles, blocking work
/// under a live guard, and loop-carried acquisitions on hot paths.
fn lock_safety(graph: &Graph, cfg: &HotPathConfig, out: &mut Vec<Violation>) {
    let n = graph.nodes.len();
    let file_fn = |id: usize| {
        let nr = graph.nodes[id];
        let file = &graph.summaries[nr.file];
        (file, &file.fns[nr.item])
    };
    let qualify = |path: &str, sym: &str| format!("{path}::{sym}");

    // Per-node guard views. The first `locks.len()` entries are the fn's
    // own acquisitions in source order; after those come pseudo-guards for
    // calls to helpers that return their guard (`escapes`), live from the
    // call to the end of the caller's body — the caller's own binding of
    // the returned guard is not tracked, so this over-approximates.
    let mut guards: Vec<Vec<GuardView>> = vec![Vec::new(); n];
    for id in 0..n {
        let (file, f) = file_fn(id);
        for lk in &f.locks {
            guards[id].push(GuardView {
                id: qualify(&file.path, &lk.id),
                line: lk.line,
                span: lk.span,
                binding: lk.binding.clone(),
                stmt_temp: lk.stmt_temp,
            });
        }
        for &(call_idx, callee) in &graph.site_edges[id] {
            let call = &f.calls[call_idx];
            let (cfile, cf) = file_fn(callee);
            for lk in cf.locks.iter().filter(|l| l.escapes) {
                guards[id].push(GuardView {
                    id: qualify(&cfile.path, &lk.id),
                    line: call.line,
                    span: (call.line, f.end_line),
                    binding: None,
                    stmt_temp: false,
                });
            }
        }
    }

    // Fixpoint: locks possibly held at fn entry. A guard crosses a call
    // site when its span covers the call line (entry-held guards cover the
    // whole body) and the call is not on the guard itself. First-wins
    // insertion over a sorted worklist keeps origins deterministic; the
    // map only grows, so the loop terminates.
    let mut entry: Vec<BTreeMap<String, Origin>> = vec![BTreeMap::new(); n];
    let mut work: BTreeSet<usize> = (0..n).collect();
    while let Some(u) = work.pop_first() {
        let (ufile, uf) = file_fn(u);
        for &(call_idx, v) in &graph.site_edges[u] {
            let call = &uf.calls[call_idx];
            let mut incoming: Vec<(String, Origin)> = Vec::new();
            for g in &guards[u] {
                if g.span.0 <= call.line && call.line <= g.span.1 && !on_guard(g, call) {
                    incoming.push((
                        g.id.clone(),
                        Origin {
                            path: ufile.path.clone(),
                            line: g.line,
                            binding: g.binding.clone(),
                            chain: vec![u, v],
                        },
                    ));
                }
            }
            for (gid, o) in &entry[u] {
                let mut chain = o.chain.clone();
                if chain.len() < 8 {
                    chain.push(v);
                }
                incoming.push((gid.clone(), Origin { chain, ..o.clone() }));
            }
            for (gid, o) in incoming {
                if let std::collections::btree_map::Entry::Vacant(slot) = entry[v].entry(gid) {
                    slot.insert(o);
                    work.insert(v);
                }
            }
        }
    }

    let held_text = |o: &Origin| -> String {
        let binding = o
            .binding
            .as_ref()
            .map(|b| format!(" as `{b}`"))
            .unwrap_or_default();
        let hops: Vec<String> = o
            .chain
            .iter()
            .map(|&id| format!("`{}`", graph.display(id)))
            .collect();
        format!(
            " (guard bound at {}:{}{}, held via {})",
            o.path,
            o.line,
            binding,
            hops.join(" -> "),
        )
    };

    // --- blocking-under-lock: blocking effects with a live guard ---------
    for id in 0..n {
        let (file, f) = file_fn(id);
        for e in &f.effects {
            if !e.kind.is_blocking() || e.waived_blocking {
                continue;
            }
            let local = guards[id]
                .iter()
                .find(|g| g.span.0 <= e.line && e.line <= g.span.1);
            let witness = if let Some(g) = local {
                let binding = g
                    .binding
                    .as_ref()
                    .map(|b| format!(" as `{b}`"))
                    .unwrap_or_default();
                format!(" (guard bound at {}:{}{})", file.path, g.line, binding)
            } else if let Some((_, o)) = entry[id].iter().next() {
                held_text(o)
            } else {
                continue;
            };
            let gid = local
                .map(|g| g.id.clone())
                .unwrap_or_else(|| entry[id].keys().next().unwrap().clone());
            out.push(Violation {
                rule: "blocking-under-lock",
                path: file.path.clone(),
                line: e.line,
                message: format!(
                    "{} ({}) can run while the `{gid}` guard is live{witness}; \
                     every waiter on that lock stalls behind this call — shrink \
                     the critical section so the guard drops first",
                    e.detail,
                    e.kind.name(),
                ),
                snippet: e.snippet.clone(),
            });
        }
    }

    // --- nested acquisitions: order edges + blocking at the inner site ---
    // Directed acquisition-graph edges `outer -> inner`, each with its
    // lexicographically smallest witness (path, line, snippet, held-info).
    type Witness = (String, usize, String, String);
    let mut order_edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let record =
        |edges: &mut BTreeMap<(String, String), Witness>, from: String, to: String, w: Witness| {
            match edges.entry((from, to)) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(w);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    if (&w.0, w.1) < (&o.get().0, o.get().1) {
                        o.insert(w);
                    }
                }
            }
        };
    for id in 0..n {
        let (file, f) = file_fn(id);
        for (i, inner) in f.locks.iter().enumerate() {
            let inner_id = qualify(&file.path, &inner.id);
            // Outer candidates, deterministically ordered: local guards in
            // source order, then entry-held locks by identity.
            let mut outers: Vec<(String, String)> = Vec::new(); // (gid, held text)
            for (j, g) in guards[id].iter().enumerate() {
                if j == i {
                    continue;
                }
                let covers = g.span.0 <= inner.line && inner.line <= g.span.1;
                let before = g.line < inner.line || (g.line == inner.line && j < i);
                if covers && before {
                    let binding = g
                        .binding
                        .as_ref()
                        .map(|b| format!(" as `{b}`"))
                        .unwrap_or_default();
                    outers.push((
                        g.id.clone(),
                        format!(" (guard bound at {}:{}{})", file.path, g.line, binding),
                    ));
                }
            }
            for (gid, o) in &entry[id] {
                outers.push((gid.clone(), held_text(o)));
            }
            for (outer_id, held) in &outers {
                if *outer_id == inner_id {
                    // Same identity re-acquired while held: a self-cycle on
                    // the acquisition graph, rendered with per-acquisition
                    // indices (shard locks share a symbol; the index is the
                    // acquisition order).
                    if !inner.waived_order {
                        out.push(Violation {
                            rule: "lock-order",
                            path: file.path.clone(),
                            line: inner.line,
                            message: format!(
                                "`{inner_id}` is re-acquired while already held{held} — \
                                 acquisition cycle `{inner_id}#0` -> `{inner_id}#1`; \
                                 Mutex::lock and RwLock::write self-deadlock here, and \
                                 two shard guards from one pool must be taken in a \
                                 fixed index order",
                            ),
                            snippet: inner.snippet.clone(),
                        });
                    }
                } else {
                    if !inner.waived_order {
                        record(
                            &mut order_edges,
                            outer_id.clone(),
                            inner_id.clone(),
                            (
                                file.path.clone(),
                                inner.line,
                                inner.snippet.clone(),
                                held.clone(),
                            ),
                        );
                    }
                    // A second lock is itself a blocking wait under the
                    // first — report even when no cycle exists yet.
                    if !inner.waived_blocking {
                        out.push(Violation {
                            rule: "blocking-under-lock",
                            path: file.path.clone(),
                            line: inner.line,
                            message: format!(
                                "`{inner_id}` is acquired while the `{outer_id}` guard \
                                 is live{held}; nested acquisition blocks every waiter \
                                 on the outer lock — release it first or take both in \
                                 one ordered step",
                            ),
                            snippet: inner.snippet.clone(),
                        });
                    }
                }
            }
        }
    }
    // Two-lock cycles: an A->B edge and a B->A edge anywhere in the
    // workspace. One report per unordered pair, anchored at the
    // lexicographically smallest witness so the diagnostic is stable.
    let mut seen_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), w_ab) in &order_edges {
        let pair = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if seen_pairs.contains(&pair) {
            continue;
        }
        let Some(w_ba) = order_edges.get(&(b.clone(), a.clone())) else {
            continue;
        };
        seen_pairs.insert(pair);
        let (w_min, w_other, first, second) = if (&w_ab.0, w_ab.1) <= (&w_ba.0, w_ba.1) {
            (w_ab, w_ba, a, b)
        } else {
            (w_ba, w_ab, b, a)
        };
        out.push(Violation {
            rule: "lock-order",
            path: w_min.0.clone(),
            line: w_min.1,
            message: format!(
                "lock-order inversion between `{first}` and `{second}`: \
                 `{first}` -> `{second}` here{}, but `{second}` -> `{first}` at \
                 {}:{}{} — two threads interleaving these paths deadlock; pick one \
                 acquisition order",
                w_min.3, w_other.0, w_other.1, w_other.3,
            ),
            snippet: w_min.2.clone(),
        });
    }

    // --- lock-in-hot-loop: loop-carried acquisitions on hot paths --------
    let roots = graph.select(|path, f| {
        cfg.lock_roots
            .iter()
            .any(|(p, fns)| p == path && fns.iter().any(|nm| nm == &f.name))
    });
    if roots.is_empty() {
        return;
    }
    let pred = graph.reachable(&roots);
    struct Finding {
        weight: usize,
        path: String,
        line: usize,
        detail: String,
        snippet: String,
        root: String,
        via: String,
    }
    let mut found: Vec<Finding> = Vec::new();
    for id in 0..n {
        if pred[id].is_none() {
            continue;
        }
        let (file, f) = file_fn(id);
        if cfg.exempt.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for lk in &f.locks {
            if lk.loop_depth == 0 || lk.waived_hot {
                continue;
            }
            let chain = graph.chain(&pred, id);
            found.push(Finding {
                weight: lk.loop_depth,
                path: file.path.clone(),
                line: lk.line,
                detail: format!("`{}`.{}()", qualify(&file.path, &lk.id), lk.op.label()),
                snippet: lk.snippet.clone(),
                root: graph.display(chain[0]),
                via: via_text(graph, &chain),
            });
        }
    }
    found.sort_by(|a, b| {
        (&a.path, a.line, &a.detail, a.via.len()).cmp(&(&b.path, b.line, &b.detail, b.via.len()))
    });
    found.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.detail == b.detail);
    found.sort_by(|a, b| {
        (std::cmp::Reverse(a.weight), &a.path, a.line, &a.detail).cmp(&(
            std::cmp::Reverse(b.weight),
            &b.path,
            b.line,
            &b.detail,
        ))
    });
    let total = found.len();
    for (i, fd) in found.iter().enumerate() {
        out.push(Violation {
            rule: "lock-in-hot-loop",
            path: fd.path.clone(),
            line: fd.line,
            message: format!(
                "lock acquisition ({}) inside a loop reachable from `{}`{}; loop depth {}, \
                 rank {} of {total} — hoist the acquisition out of the loop or batch the \
                 guarded work (`get_fresh_many`/`put_many_at`) so the lock is taken once per pass",
                fd.detail,
                fd.root,
                fd.via,
                fd.weight,
                i + 1,
            ),
            snippet: fd.snippet.clone(),
        });
    }
}

/// `, via \`a\` -> \`b\`` — the BFS shortest call chain, elided when the
/// effect sits in the root itself.
fn via_text(graph: &Graph, chain: &[usize]) -> String {
    if chain.len() <= 1 {
        return String::new();
    }
    let hops: Vec<String> = chain[1..]
        .iter()
        .map(|&id| format!("`{}`", graph.display(id)))
        .collect();
    format!(" via {}", hops.join(" -> "))
}

fn protocol_exhaustive(summaries: &[FileSummary], out: &mut Vec<Violation>) {
    // Workspace variant table; on duplicate enum names, the definition
    // inside crates/http2 wins (that is the protocol being matched).
    let mut variants: BTreeMap<&str, (&str, &Vec<String>)> = BTreeMap::new();
    for file in summaries {
        for e in &file.enums {
            let entry = variants.entry(e.name.as_str());
            match entry {
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    if file.path.starts_with(PROTOCOL_PREFIX)
                        && !o.get().0.starts_with(PROTOCOL_PREFIX)
                    {
                        o.insert((file.path.as_str(), &e.variants));
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert((file.path.as_str(), &e.variants));
                }
            }
        }
    }

    for file in summaries {
        if !file.path.starts_with(PROTOCOL_PREFIX) || file.is_test {
            continue;
        }
        for m in &file.matches {
            if m.waived || !PROTOCOL_ENUMS.contains(&m.enum_name.as_str()) {
                continue;
            }
            let Some((_, all)) = variants.get(m.enum_name.as_str()) else {
                continue;
            };
            if m.catch_all {
                out.push(Violation {
                    rule: "protocol-exhaustive",
                    path: file.path.clone(),
                    line: m.line,
                    message: format!(
                        "match on protocol enum `{}` hides variants behind a catch-all \
                         arm; enumerate every variant explicitly so new frame types \
                         fail to compile instead of being silently swallowed",
                        m.enum_name,
                    ),
                    snippet: m.snippet.clone(),
                });
                continue;
            }
            let missing: Vec<&str> = all
                .iter()
                .map(String::as_str)
                .filter(|v| !m.covered.iter().any(|c| c == v))
                .collect();
            if !missing.is_empty() {
                out.push(Violation {
                    rule: "protocol-exhaustive",
                    path: file.path.clone(),
                    line: m.line,
                    message: format!(
                        "match on protocol enum `{}` does not name variants: {}",
                        m.enum_name,
                        missing.join(", "),
                    ),
                    snippet: m.snippet.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::summarize_source;

    fn analyze(files: &[(&str, &str)]) -> Vec<Violation> {
        let summaries: Vec<FileSummary> =
            files.iter().map(|(p, s)| summarize_source(p, s)).collect();
        semantic_violations(&summaries)
    }

    #[test]
    fn wall_clock_in_helper_called_from_sim_entrypoint_is_flagged() {
        // The acceptance-criterion case: the effect is in another crate,
        // two hops away, and only the call graph can see it.
        let v = analyze(&[
            (
                "crates/sim/src/entry.rs",
                "pub fn drive() { helper_tick(); }\n",
            ),
            (
                "crates/net/src/helper.rs",
                "pub fn helper_tick() { deep_tick(); }\n\
                 fn deep_tick() { let t = Instant::now(); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "sim-purity");
        assert_eq!(v[0].path, "crates/net/src/helper.rs");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("sim::drive"), "{}", v[0].message);
    }

    #[test]
    fn unreachable_effects_are_clean() {
        let v = analyze(&[
            ("crates/sim/src/entry.rs", "pub fn drive() {}\n"),
            (
                "crates/net/src/helper.rs",
                "pub fn unused() { let t = Instant::now(); }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_covers_the_call_site() {
        let v = analyze(&[
            ("crates/sim/src/entry.rs", "pub fn drive() { tick(); }\n"),
            (
                "crates/net/src/helper.rs",
                "pub fn tick() { let t = Instant::now(); } // vroom-lint: allow(sim-purity) -- injected shim\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn thread_spawn_reachable_from_sim_entrypoint_is_flagged() {
        let v = analyze(&[
            (
                "crates/vroom/src/experiment.rs",
                "pub fn fig99() { fan_out(); }\n",
            ),
            (
                "crates/net/src/helper.rs",
                "pub fn fan_out() { std::thread::spawn(|| {}); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "sim-purity");
        assert!(v[0].message.contains("thread spawn"), "{}", v[0].message);
        assert!(v[0].message.contains("par_map_indexed"), "{}", v[0].message);
    }

    #[test]
    fn waived_executor_pool_is_clean_but_its_closures_are_not() {
        // The par_map_indexed shape: the pool's own spawn is waived, yet an
        // impure closure argument is still attributed to its enclosing fn
        // and flagged through the call graph.
        let v = analyze(&[
            (
                "crates/vroom/src/experiment.rs",
                "pub fn fig99() { par_map_indexed(&[1], 8, |_i, _s| Instant::now()); }\n",
            ),
            (
                "crates/exec/src/lib.rs",
                "pub fn par_map_indexed() {\n\
                 \u{20}   // vroom-lint: allow(sim-purity) -- index-ordered pool\n\
                 \u{20}   std::thread::scope(|s| { s.spawn(|| {}); });\n\
                 }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "sim-purity");
        assert_eq!(v[0].path, "crates/vroom/src/experiment.rs");
        assert!(v[0].message.contains("wall-clock"), "{}", v[0].message);
    }

    #[test]
    fn bench_and_intern_crates_are_outside_sim_purity() {
        // Wall-clock timing is legal in the perf harness and the intern
        // crate even when name-based resolution ties a sim entrypoint to a
        // same-named fn there; the identical shape in any other crate is
        // still flagged (see wall_clock_in_helper_called_from_sim_entrypoint).
        let v = analyze(&[
            (
                "crates/vroom/src/experiment.rs",
                "pub fn fig99() { sample(); warm(); }\n",
            ),
            (
                "crates/bench/src/bin/vroom_bench.rs",
                "pub fn sample() { let t = Instant::now(); }\n",
            ),
            (
                "crates/intern/src/lib.rs",
                "pub fn warm() { let t = Instant::now(); }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn panic_reachable_from_wire_accept_loop() {
        let v = analyze(&[
            (
                "crates/server/src/wire.rs",
                "pub fn serve() { decode_frame(); }\n",
            ),
            (
                "crates/http2/src/frame.rs",
                "pub fn decode_frame() { let x: Option<u8> = None; x.unwrap(); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "panic-reachable");
        assert!(v[0].message.contains("server::serve"));
    }

    #[test]
    fn panic_outside_wire_reach_is_clean() {
        let v = analyze(&[(
            "crates/pages/src/model.rs",
            "pub fn depth(v: &[u32]) -> u32 { v[0] }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn protocol_match_catch_all_flagged() {
        let v = analyze(&[(
            "crates/http2/src/frame.rs",
            "pub enum FrameType { Data, Headers, Ping }\n\
             pub fn name(t: FrameType) -> u8 {\n\
                 match t { FrameType::Data => 0, _ => 1 }\n\
             }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "protocol-exhaustive");
        assert!(v[0].message.contains("catch-all"));
    }

    #[test]
    fn protocol_match_missing_variant_flagged() {
        let v = analyze(&[(
            "crates/http2/src/frame.rs",
            "pub enum StreamState { Idle, Open, Closed }\n\
             pub fn f(s: StreamState) -> u8 {\n\
                 match s { StreamState::Idle => 0, StreamState::Open => 1 }\n\
             }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Closed"), "{}", v[0].message);
    }

    #[test]
    fn exhaustive_protocol_match_and_waivers_pass() {
        let v = analyze(&[(
            "crates/http2/src/frame.rs",
            "pub enum FrameType { Data, Headers }\n\
             pub fn a(t: FrameType) -> u8 {\n\
                 match t { FrameType::Data => 0, FrameType::Headers => 1 }\n\
             }\n\
             pub fn b(t: FrameType) -> u8 {\n\
                 // vroom-lint: allow(protocol-exhaustive) -- collapse is the point here\n\
                 match t { FrameType::Data => 0, _ => 1 }\n\
             }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_alloc_ranks_loop_allocs_above_once_per_call() {
        // Two allocs reachable from the hpack encode root: the one inside a
        // loop must rank 1, the once-per-call one rank 2.
        let v = analyze(&[(
            "crates/hpack/src/encoder.rs",
            "pub fn encode(fields: &[u8]) { once(); per_field(fields); }\n\
             fn once() -> String { let s = name_of(); s.to_owned() }\n\
             fn name_of() -> String { String::new() }\n\
             fn per_field(fields: &[u8]) {\n\
                 for f in fields { let _ = f.to_string(); }\n\
             }\n",
        )]);
        let hot: Vec<&Violation> = v.iter().filter(|v| v.rule == "hot-path-alloc").collect();
        assert_eq!(hot.len(), 2, "{v:?}");
        let per_field = hot.iter().find(|v| v.line == 5).unwrap();
        let once = hot.iter().find(|v| v.line == 2).unwrap();
        assert!(
            per_field.message.contains("loop depth 1, rank 1 of 2"),
            "{}",
            per_field.message
        );
        assert!(
            once.message.contains("loop depth 0, rank 2 of 2"),
            "{}",
            once.message
        );
        assert!(once.message.contains("hpack::encode"), "{}", once.message);
    }

    #[test]
    fn hot_path_alloc_sees_hidden_helper_two_hops_away() {
        let v = analyze(&[
            (
                "crates/server/src/wire.rs",
                "fn serve_connection() { assemble(); }\n",
            ),
            (
                "crates/http2/src/util.rs",
                "pub fn assemble() { deep_copy(); }\n\
                 fn deep_copy() -> Vec<u8> { b\"x\".to_vec() }\n",
            ),
        ]);
        let hot: Vec<&Violation> = v.iter().filter(|v| v.rule == "hot-path-alloc").collect();
        assert_eq!(hot.len(), 1, "{v:?}");
        assert_eq!(hot[0].path, "crates/http2/src/util.rs");
        assert!(
            hot[0].message.contains("server::serve_connection"),
            "{}",
            hot[0].message
        );
        assert!(
            hot[0].message.contains("`http2::assemble`"),
            "{}",
            hot[0].message
        );
    }

    #[test]
    fn hot_path_alloc_honors_waivers_and_exempt_prefixes() {
        let v = analyze(&[
            (
                "crates/hpack/src/decoder.rs",
                "pub fn decode() { copy_field(); report(); }\n\
                 fn copy_field() -> Vec<u8> {\n\
                 \u{20}   // vroom-lint: allow(hot-path-alloc) -- contiguous reassembly buffer\n\
                 \u{20}   b\"x\".to_vec()\n\
                 }\n",
            ),
            (
                "crates/bench/src/report.rs",
                "pub fn report() -> String { b\"x\".to_vec(); String::from(\"y\") }\n",
            ),
        ]);
        let hot: Vec<&Violation> = v.iter().filter(|v| v.rule == "hot-path-alloc").collect();
        assert!(hot.is_empty(), "{v:?}");
    }

    #[test]
    fn allocs_not_reachable_from_any_hot_root_are_clean() {
        let v = analyze(&[(
            "crates/pages/src/model.rs",
            "pub fn build() -> String { format!(\"x\") }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_protocol_crates_matches_ignored() {
        let v = analyze(&[(
            "crates/browser/src/engine.rs",
            "pub enum Event { A, B }\n\
             pub fn f(e: Event) -> u8 { match e { Event::A => 0, _ => 1 } }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn same_lock_reacquired_while_held_is_an_acquisition_cycle() {
        let v = analyze(&[(
            "crates/server/src/a.rs",
            "struct S { m: Mutex<u64> }\n\
             impl S {\n\
                 fn go(&self) -> u64 {\n\
                     let a = self.m.lock();\n\
                     let b = self.m.lock();\n\
                     *a + *b\n\
                 }\n\
             }\n",
        )]);
        let order: Vec<&Violation> = v.iter().filter(|v| v.rule == "lock-order").collect();
        assert_eq!(order.len(), 1, "{v:?}");
        assert_eq!(order[0].line, 5);
        assert!(order[0].message.contains("#0"), "{}", order[0].message);
        assert!(order[0].message.contains("#1"), "{}", order[0].message);
        assert!(
            !v.iter().any(|v| v.rule == "blocking-under-lock"),
            "same-id nesting reports as a cycle only: {v:?}"
        );
    }

    #[test]
    fn lock_order_waiver_silences_the_cycle() {
        let v = analyze(&[(
            "crates/server/src/a.rs",
            "struct S { m: Mutex<u64> }\n\
             impl S {\n\
                 fn go(&self) -> u64 {\n\
                     let a = self.m.lock();\n\
                     // vroom-lint: allow(lock-order) -- audited: re-entrant test double\n\
                     let b = self.m.lock();\n\
                     *a + *b\n\
                 }\n\
             }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn blocking_effect_under_live_guard_is_flagged_at_the_effect() {
        let v = analyze(&[(
            "crates/server/src/b.rs",
            "struct S { m: Mutex<u64> }\n\
             impl S {\n\
                 fn go(&self, rx: &Receiver<u64>) -> u64 {\n\
                     let g = self.m.lock();\n\
                     let v = rx.recv();\n\
                     *g + v\n\
                 }\n\
             }\n",
        )]);
        let blocked: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == "blocking-under-lock")
            .collect();
        assert_eq!(blocked.len(), 1, "{v:?}");
        assert_eq!(blocked[0].line, 5);
        assert!(blocked[0].message.contains("`g`"), "{}", blocked[0].message);
    }

    #[test]
    fn blocking_under_lock_waiver_at_the_effect_site_holds() {
        let v = analyze(&[(
            "crates/server/src/b.rs",
            "struct S { m: Mutex<u64> }\n\
             impl S {\n\
                 fn go(&self, rx: &Receiver<u64>) -> u64 {\n\
                     let g = self.m.lock();\n\
                     // vroom-lint: allow(blocking-under-lock) -- audited: bounded by test harness\n\
                     let v = rx.recv();\n\
                     *g + v\n\
                 }\n\
             }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn calls_on_the_guard_itself_do_not_count_as_under_lock() {
        // `q.len()` derefs to the guarded data; resolving it against
        // workspace methods named `len` would poison every guard scope.
        let v = analyze(&[
            (
                "crates/server/src/b.rs",
                "struct S { q: Mutex<Vec<u64>> }\n\
                 impl S {\n\
                     fn go(&self) -> usize {\n\
                         let q = self.q.lock();\n\
                         q.len()\n\
                     }\n\
                 }\n",
            ),
            (
                // A same-name, same-arity workspace method that blocks: if
                // `q.len()` were resolved and paired with the guard, this
                // would (wrongly) fire blocking-under-lock here.
                "crates/html/src/dom.rs",
                "pub struct Doc;\n\
                 impl Doc {\n\
                     fn len(&self) -> usize {\n\
                         std::thread::sleep(PARSE_BUDGET);\n\
                         0\n\
                     }\n\
                 }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_loop_acquisition_reachable_from_lock_root_is_ranked_and_waivable() {
        let src_hot = "pub fn handle_request(s: &S) -> u64 { spin(s) }\n\
                       fn spin(s: &S) -> u64 {\n\
                           let mut t = 0;\n\
                           for _ in 0..8 {\n\
                               let g = s.m.lock();\n\
                               t += *g;\n\
                           }\n\
                           t\n\
                       }\n";
        let v = analyze(&[("crates/server/src/wire.rs", src_hot)]);
        let hot: Vec<&Violation> = v.iter().filter(|v| v.rule == "lock-in-hot-loop").collect();
        assert_eq!(hot.len(), 1, "{v:?}");
        assert_eq!(hot[0].line, 5);
        assert!(
            hot[0].message.contains("handle_request"),
            "{}",
            hot[0].message
        );
        assert!(
            hot[0].message.contains("loop depth 1"),
            "{}",
            hot[0].message
        );

        let waived = src_hot.replace(
            "let g = s.m.lock();",
            "// vroom-lint: allow(lock-in-hot-loop) -- audited: uncontended in tests\n\
             let g = s.m.lock();",
        );
        let v = analyze(&[("crates/server/src/wire.rs", &waived)]);
        assert!(
            !v.iter().any(|v| v.rule == "lock-in-hot-loop"),
            "waiver must hold: {v:?}"
        );
    }
}
