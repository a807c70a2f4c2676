//! The four workloads: their per-op inputs (derived from the workload
//! seed), their checked warm-up, and one op each.

use vroom::ExperimentConfig;
use vroom_fleet::{FleetConfig, FleetRun, FleetStageTiming};
use vroom_server::EvictionPolicy;

use crate::golden;
use crate::mix;
use crate::wire::{PageLoad, WireRig};

/// Worker threads for a fleet op. One: a fleet op fans out once per
/// 100 ms batch, about 20 times per op, and with two workers every fan-out
/// waits for the slower core, so on a 2-core share of a busy host its op
/// times measure when the host hands a core back (see README.md, "What
/// keeps the numbers steady").
pub const FLEET_WORKERS: usize = 1;
/// Worker threads for a `figures` op and for the traced ledger's fan-out
/// probes: the box's two cores. A report fans out whole systems and
/// sites, claimed in chunks, so a core the host slows sheds work to the
/// other instead of stalling the op.
pub const PARALLEL_WORKERS: usize = 2;
/// Clients per fleet op.
pub const FLEET_CLIENTS: usize = 200;
/// Arrival span per fleet op: the committed fleet's density (1000 clients
/// over 10 s) at 200 clients.
pub const FLEET_SPAN_MS: u64 = 2_000;
/// Sites per `figures` op.
pub const FIGURE_SITES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetChurn,
    Figures,
    Wire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetChurn,
        Workload::Figures,
        Workload::Wire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetChurn => "fleet-churn",
            Workload::Figures => "figures",
            Workload::Wire => "wire",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What `throughput_per_s` counts.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::FleetSteady | Workload::FleetChurn => "client loads",
            Workload::Figures => "reports",
            Workload::Wire => "pages",
        }
    }

    /// Work units one op completes.
    pub fn units_per_op(self) -> f64 {
        match self {
            Workload::FleetSteady | Workload::FleetChurn => FLEET_CLIENTS as f64,
            Workload::Figures | Workload::Wire => 1.0,
        }
    }

    /// Worker threads one op runs on (the `wire` client is one thread).
    pub fn workers(self) -> usize {
        match self {
            Workload::FleetSteady | Workload::FleetChurn => FLEET_WORKERS,
            Workload::Figures => PARALLEL_WORKERS,
            Workload::Wire => 1,
        }
    }

    /// Client connections the workload drives.
    pub fn connections(self) -> &'static str {
        match self {
            Workload::Wire => "1 at a time, loopback TCP (not a real link)",
            _ => "none (in-process simulation)",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::FleetSteady => 0x0051_EAD7,
            Workload::FleetChurn => 0x000C_40A2,
            Workload::Figures => 0xF165,
            Workload::Wire => 0x314E,
        }
    }
}

/// The seed of op `i` of a run: a fixed, seed-derived sequence.
pub fn op_seed(workload: Workload, seed: u64, i: u64) -> u64 {
    mix(seed ^ workload.salt(), i)
}

/// The fleet configuration of one op of a fleet workload.
pub fn fleet_config(workload: Workload, op_seed: u64) -> FleetConfig {
    let base = FleetConfig {
        clients: FLEET_CLIENTS,
        seed: op_seed,
        sites: 8,
        shards: 16,
        batch_window_ms: 100,
        arrival_span_ms: FLEET_SPAN_MS,
        workers: FLEET_WORKERS,
        ..FleetConfig::default()
    };
    match workload {
        Workload::FleetChurn => FleetConfig {
            sites: 32,
            span_hours: 6,
            policy: EvictionPolicy::Ttl(1),
            learn_from_loads: true,
            ..base
        },
        _ => base,
    }
}

/// The experiment configuration of one `figures` op.
pub fn figures_config(op_seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(FIGURE_SITES);
    cfg.corpus_seed = op_seed;
    cfg.workers = PARALLEL_WORKERS;
    cfg
}

/// State built in set-up and used by every op.
pub enum Rig {
    Sim,
    Wire(Box<WireRig>),
}

/// What one op produced, beyond its wall time.
pub enum OpOutput {
    Fleet(Box<FleetRun>, FleetStageTiming),
    Figures,
    Wire(PageLoad),
    Failed,
}

/// Set up a workload: build its inputs and run the warm-up op, checked
/// against the committed golden. Returns the rig, or why the check failed
/// (the set-up then counts as one failed op).
pub fn setup(workload: Workload, seed: u64) -> Result<Rig, String> {
    match workload {
        Workload::FleetSteady | Workload::FleetChurn => {
            let (cfg, expected) = golden::fleet_golden(golden::FLEET_GOLDEN, FLEET_WORKERS)?;
            golden::check_fleet(&expected, &vroom_fleet::run_fleet(&cfg).report)?;
            Ok(Rig::Sim)
        }
        Workload::Figures => {
            let expected = golden::figures_golden(golden::FIGURES_GOLDEN)?;
            let mut cfg = ExperimentConfig::quick(3);
            cfg.workers = PARALLEL_WORKERS;
            golden::check_text(&expected, &vroom::experiment::run_all_report(&cfg))
                .map_err(|e| format!("{}: {e}", golden::FIGURES_GOLDEN))?;
            Ok(Rig::Sim)
        }
        Workload::Wire => {
            let rig = WireRig::start(seed).map_err(|e| format!("wire server: {e}"))?;
            let warm = rig.load().map_err(|e| format!("wire warm-up: {e}"))?;
            warm.check.map_err(|e| format!("wire warm-up: {e}"))?;
            Ok(Rig::Wire(Box::new(rig)))
        }
    }
}

/// Run op `i`. `clock` brackets the fleet stages when given; it is the
/// only difference between a traced and an untraced fleet op.
pub fn run_op(
    workload: Workload,
    rig: &Rig,
    seed: u64,
    i: u64,
    clock: Option<&dyn Fn() -> f64>,
) -> (OpOutput, Result<(), String>) {
    let s = op_seed(workload, seed, i);
    match (workload, rig) {
        (Workload::FleetSteady | Workload::FleetChurn, _) => {
            let (run, timing) =
                vroom_fleet::run_fleet_instrumented(&fleet_config(workload, s), clock);
            let check = check_fleet_op(workload, &run);
            (OpOutput::Fleet(Box::new(run), timing), check)
        }
        (Workload::Figures, _) => {
            let report = vroom::experiment::run_all_report(&figures_config(s));
            (OpOutput::Figures, check_figures_op(&report))
        }
        (Workload::Wire, Rig::Wire(rig)) => match rig.load() {
            Ok(load) => {
                let check = load.check.clone();
                (OpOutput::Wire(load), check)
            }
            Err(e) => (OpOutput::Failed, Err(format!("wire io: {e}"))),
        },
        (Workload::Wire, Rig::Sim) => (OpOutput::Failed, Err("wire op without a server".into())),
    }
}

/// Invariants every fleet op must satisfy.
fn check_fleet_op(workload: Workload, run: &FleetRun) -> Result<(), String> {
    let r = &run.report;
    let reads: u64 = r.shard_stats.iter().map(|s| s.reads).sum();
    let hits: u64 = r.shard_stats.iter().map(|s| s.hits).sum();
    let problem = if r.clients != FLEET_CLIENTS as u64 || run.outcomes.len() != FLEET_CLIENTS {
        Some(format!("{} clients served", run.outcomes.len()))
    } else if r.failed_loads != 0 {
        Some(format!("{} failed loads", r.failed_loads))
    } else if r.hint_hits == 0 {
        Some("no load found hints in the store".into())
    } else if hits != r.hint_hits || reads > r.hint_hits + r.hint_misses {
        // Documents whose URL was never resolved miss without a store read.
        Some(format!(
            "{reads} store reads with {hits} hits for {} documents with {} hits",
            r.hint_hits + r.hint_misses,
            r.hint_hits
        ))
    } else if (workload == Workload::FleetChurn) != r.freshness.is_some() {
        Some("freshness section present on the wrong workload".into())
    } else {
        None
    };
    problem.map_or(Ok(()), |p| Err(format!("fleet op: {p}")))
}

/// Every section of the report, in order, with no unknown ones.
fn check_figures_op(report: &str) -> Result<(), String> {
    let mut at = 0;
    for id in vroom::experiment::RUN_ALL_SECTIONS {
        let header = format!("==== {id} ====\n");
        match report[at..].find(&header) {
            Some(pos) => at += pos + header.len(),
            None => return Err(format!("figures op: section {id} missing or out of order")),
        }
    }
    if report.contains("unknown section") || report.contains("NaN") {
        return Err("figures op: report holds an unknown section or NaN".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_op_sequence() {
        for w in Workload::ALL {
            let a: Vec<u64> = (0..64).map(|i| op_seed(w, 1, i)).collect();
            let b: Vec<u64> = (0..64).map(|i| op_seed(w, 1, i)).collect();
            let other: Vec<u64> = (0..64).map(|i| op_seed(w, 2, i)).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, other, "{}: another seed, another sequence", w.name());
            let distinct: std::collections::BTreeSet<_> = a.iter().collect();
            assert_eq!(
                distinct.len(),
                a.len(),
                "{}: every op gets its own seed",
                w.name()
            );
        }
        let cfg = |s| {
            format!(
                "{:?}",
                fleet_config(Workload::FleetChurn, op_seed(Workload::FleetChurn, s, 3))
            )
        };
        assert_eq!(cfg(9), cfg(9));
    }

    #[test]
    fn workloads_differ_in_sequence_and_parse_by_name() {
        assert_ne!(
            op_seed(Workload::FleetSteady, 1, 0),
            op_seed(Workload::FleetChurn, 1, 0)
        );
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn figures_op_check_rejects_a_missing_section() {
        let full: String = vroom::experiment::RUN_ALL_SECTIONS
            .iter()
            .map(|id| format!("==== {id} ====\nrow\n\n"))
            .collect();
        assert!(check_figures_op(&full).is_ok());
        assert!(check_figures_op(&full.replace("==== fig13 ====\n", "")).is_err());
    }
}
