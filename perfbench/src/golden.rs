//! Output checks against committed goldens. The goldens are read from the
//! repository at run time, so an intentional re-bless updates one place.

use std::collections::BTreeMap;

use vroom_fleet::{FleetConfig, FleetReport};
use vroom_html::Url;
use vroom_net::json::Value;

/// The fleet golden, relative to the repository root.
pub const FLEET_GOLDEN: &str = "BENCH_fleet.json";
/// The figures golden, relative to the repository root.
pub const FIGURES_GOLDEN: &str = "results/run_all_sites3.txt";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e} (run the benchmark from the repository root)"))
}

/// The committed fleet run: its configuration (at `workers`) and the exact
/// `metrics` object it must reproduce.
pub fn fleet_golden(path: &str, workers: usize) -> Result<(FleetConfig, Value), String> {
    let root = Value::parse(&read(path)?).map_err(|e| format!("parse {path}: {e}"))?;
    let section = |name: &str| {
        root.get(name)
            .cloned()
            .ok_or_else(|| format!("{path}: no {name:?} section"))
    };
    let config = section("config")?;
    let field = |name: &str| {
        config
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: config.{name} is not a whole number"))
    };
    let cfg = FleetConfig {
        clients: field("clients")? as usize,
        seed: field("seed")?,
        sites: field("sites")? as usize,
        shards: field("shards")? as usize,
        batch_window_ms: field("batch_window_ms")?,
        arrival_span_ms: field("arrival_span_ms")?,
        workers,
        ..FleetConfig::default()
    };
    Ok((cfg, section("metrics")?))
}

/// The fleet report must equal the golden `metrics` exactly.
pub fn check_fleet(expected: &Value, report: &FleetReport) -> Result<(), String> {
    let got = report.to_json_value();
    if &got == expected {
        return Ok(());
    }
    let why = check_text(&expected.to_pretty(), &got.to_pretty())
        .err()
        .unwrap_or_else(|| "values differ".into());
    Err(format!("{FLEET_GOLDEN} metrics: {why}"))
}

/// The figures golden, byte for byte.
pub fn figures_golden(path: &str) -> Result<String, String> {
    read(path)
}

/// `got` must equal `expected` byte for byte; the error names the first
/// differing line.
pub fn check_text(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let mut want = expected.lines();
    let mut have = got.lines();
    for line in 1.. {
        match (want.next(), have.next()) {
            (Some(w), Some(h)) if w == h => continue,
            (None, None) => break,
            (w, h) => {
                return Err(format!(
                    "line {line}: expected {:?}, got {:?}",
                    w.unwrap_or("<end>"),
                    h.unwrap_or("<end>")
                ))
            }
        }
    }
    Err("outputs differ only in trailing newlines".into())
}

/// One wire exchange as the check sees it.
pub struct Delivered<'a> {
    pub url: &'a Url,
    pub status: u16,
    pub body_len: usize,
}

/// Every delivered resource, requested or pushed, must be 200 with the
/// recorded body length, and every expected resource must arrive.
pub fn check_wire<'a>(
    expected: &BTreeMap<Url, usize>,
    delivered: impl IntoIterator<Item = Delivered<'a>>,
) -> Result<(), String> {
    let mut seen = 0;
    for d in delivered {
        let Some(&want) = expected.get(d.url) else {
            return Err(format!("{}: not part of the recorded page", d.url));
        };
        if d.status != 200 || d.body_len != want {
            return Err(format!(
                "{}: status {} with {} body bytes, recorded 200 with {want}",
                d.url, d.status, d.body_len
            ));
        }
        seen += 1;
    }
    if seen != expected.len() {
        return Err(format!(
            "{seen} of {} recorded resources delivered",
            expected.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path of a repository file from the package directory.
    fn repo_file(rel: &str) -> String {
        format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"))
    }

    /// A copy of `src` in the temp directory with the byte at the first
    /// digit after `anchor` changed to another digit.
    fn one_byte_changed(src: &str, anchor: &str, tag: &str) -> String {
        let mut bytes = std::fs::read(src).expect("golden readable");
        let from = String::from_utf8_lossy(&bytes)
            .find(anchor)
            .expect("anchor present")
            + anchor.len();
        let at = from
            + bytes[from..]
                .iter()
                .position(u8::is_ascii_digit)
                .expect("a digit follows the anchor");
        bytes[at] = if bytes[at] == b'9' {
            b'0'
        } else {
            bytes[at] + 1
        };
        let path = std::env::temp_dir().join(format!(
            "vroom-perfbench-{tag}-{}-{}",
            std::process::id(),
            src.rsplit('/').next().unwrap_or("golden")
        ));
        std::fs::write(&path, bytes).expect("temp copy writable");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fleet_check_passes_on_golden_and_fails_on_one_byte_change() {
        let golden = repo_file(FLEET_GOLDEN);
        let (cfg, expected) = fleet_golden(&golden, 2).expect("golden parses");
        let report = vroom_fleet::run_fleet(&cfg).report;
        check_fleet(&expected, &report).expect("committed golden reproduces");

        let changed = one_byte_changed(&golden, "\"hint_hits\": ", "fleet");
        let (_, mutated) = fleet_golden(&changed, 2).expect("mutated copy still parses");
        std::fs::remove_file(&changed).ok();
        let err = check_fleet(&mutated, &report).expect_err("one changed byte must fail");
        assert!(err.contains("hint_hits"), "{err}");
    }

    #[test]
    fn figures_check_passes_on_golden_and_fails_on_one_byte_change() {
        let golden = repo_file(FIGURES_GOLDEN);
        let mut cfg = vroom::ExperimentConfig::quick(3);
        cfg.workers = 2;
        let report = vroom::experiment::run_all_report(&cfg);
        check_text(&figures_golden(&golden).expect("readable"), &report)
            .expect("committed golden reproduces");

        let changed = one_byte_changed(&golden, "median", "figures");
        let mutated = figures_golden(&changed).expect("readable");
        std::fs::remove_file(&changed).ok();
        assert_eq!(mutated.len(), report.len(), "same length, one byte differs");
        assert!(check_text(&mutated, &report).is_err());
    }

    #[test]
    fn wire_check_rejects_missing_extra_and_non_200_resources() {
        let a = Url::https("news.example", "/");
        let b = Url::https("news.example", "/app.js");
        let ok = |url| Delivered {
            url,
            status: 200,
            body_len: 100,
        };
        let one: BTreeMap<Url, usize> = [(a.clone(), 100)].into();
        let two: BTreeMap<Url, usize> = [(a.clone(), 100), (b.clone(), 100)].into();
        check_wire(&one, [ok(&a)]).expect("matching delivery passes");
        assert!(check_wire(&two, [ok(&a)]).is_err(), "missing resource");
        assert!(
            check_wire(&one, [ok(&a), ok(&b)]).is_err(),
            "unrecorded resource"
        );
        let not_found = Delivered {
            status: 404,
            ..ok(&a)
        };
        assert!(check_wire(&one, [not_found]).is_err(), "non-200 status");
    }
}
