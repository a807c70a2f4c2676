//! Hot-path root configuration for the `hot-path-alloc` rule.
//!
//! Roots are declared in a checked-in `lint-hotpaths.toml` at the workspace
//! root so the set is reviewable in diffs. The parser handles exactly the
//! subset of TOML the file uses — two sections of `"key" = ["value", ...]`
//! lines — because the workspace vendors no TOML crate. The compiled-in
//! [`Default`] mirrors the checked-in file (a unit test keeps them in sync)
//! so in-memory analyses (fixtures, library tests) see the same roots
//! without touching the filesystem.

use std::path::Path;

/// Workspace-root-relative name of the config file.
pub const HOTPATHS_FILE: &str = "lint-hotpaths.toml";

/// Roots and exemptions for `hot-path-alloc` reachability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPathConfig {
    /// `(file path, fn names)` — every listed fn defined in that file is a
    /// reachability root.
    pub roots: Vec<(String, Vec<String>)>,
    /// Path prefixes whose allocation sites are never reported even when
    /// name-based call resolution makes them look reachable.
    pub exempt: Vec<String>,
    /// `(file path, fn names)` — reachability roots for `lock-in-hot-loop`.
    /// A superset of `roots`: the serving hot paths plus the fleet/batch
    /// drivers, whose loops multiply every lock acquisition per client or
    /// per entry.
    pub lock_roots: Vec<(String, Vec<String>)>,
}

impl Default for HotPathConfig {
    fn default() -> Self {
        let root = |path: &str, fns: &[&str]| {
            (
                path.to_string(),
                fns.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        HotPathConfig {
            roots: vec![
                root("crates/browser/src/engine.rs", &["load"]),
                root(
                    "crates/fleet/src/lib.rs",
                    &["load_client", "run_fleet_instrumented"],
                ),
                root("crates/hpack/src/decoder.rs", &["decode"]),
                root("crates/hpack/src/encoder.rs", &["encode", "encode_into"]),
                root(
                    "crates/http2/src/conn.rs",
                    &["push_promise", "recv", "send_data", "send_header_block"],
                ),
                root("crates/http2/src/frame.rs", &["decode", "encode"]),
                root("crates/net/src/replay.rs", &["lookup_id"]),
                root(
                    "crates/server/src/wire.rs",
                    &["handle_request", "serve_connection"],
                ),
            ],
            exempt: vec![
                "crates/bench/".to_string(),
                "crates/html/".to_string(),
                "crates/intern/".to_string(),
                "crates/lint/".to_string(),
                "crates/pages/".to_string(),
                "crates/server/src/resolve.rs".to_string(),
                "crates/vroom/".to_string(),
            ],
            lock_roots: vec![
                root("crates/browser/src/engine.rs", &["load"]),
                root(
                    "crates/fleet/src/lib.rs",
                    &["load_client", "run_fleet", "run_fleet_instrumented"],
                ),
                root("crates/server/src/batch.rs", &["commit_pass_at"]),
                root(
                    "crates/server/src/wire.rs",
                    &["handle_request", "serve_connection"],
                ),
            ],
        }
    }
}

/// Load the config from `<root>/lint-hotpaths.toml`, falling back to the
/// compiled-in default when the file does not exist. A file that exists but
/// cannot be read or parsed is an error — silent fallback would quietly
/// turn the rule off.
pub fn load(root: &Path) -> Result<HotPathConfig, String> {
    let path = root.join(HOTPATHS_FILE);
    if !path.is_file() {
        return Ok(HotPathConfig::default());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse the `lint-hotpaths.toml` dialect: `#` comments, `[roots]` /
/// `[exempt]` section headers, and `"key" = ["a", "b"]` entries.
pub fn parse(text: &str) -> Result<HotPathConfig, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Roots,
        Exempt,
        LockRoots,
    }
    let mut section = Section::None;
    let mut cfg = HotPathConfig {
        roots: Vec::new(),
        exempt: Vec::new(),
        lock_roots: Vec::new(),
    };
    for (i, raw) in text.lines().enumerate() {
        let no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[roots]" => {
                section = Section::Roots;
                continue;
            }
            "[exempt]" => {
                section = Section::Exempt;
                continue;
            }
            "[lock_roots]" => {
                section = Section::LockRoots;
                continue;
            }
            _ if line.starts_with('[') => {
                return Err(format!("line {no}: unknown section {line}"));
            }
            _ => {}
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {no}: expected `key = [..]`"))?;
        let key = key_of(key.trim())
            .ok_or_else(|| format!("line {no}: key must be quoted or a bare identifier"))?;
        let items = parse_array(value.trim())
            .ok_or_else(|| format!("line {no}: value must be an array of quoted strings"))?;
        match section {
            Section::Roots => cfg.roots.push((key, items)),
            Section::LockRoots => cfg.lock_roots.push((key, items)),
            Section::Exempt if key == "prefixes" => cfg.exempt.extend(items),
            Section::Exempt => {
                return Err(format!("line {no}: unknown exempt key `{key}`"));
            }
            Section::None => {
                return Err(format!("line {no}: entry before any [section]"));
            }
        }
    }
    Ok(cfg)
}

/// A key is either a quoted string (paths) or a bare TOML identifier.
fn key_of(s: &str) -> Option<String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        if inner.contains('"') {
            return None;
        }
        return Some(inner.to_string());
    }
    if !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Some(s.to_string());
    }
    None
}

/// `["a", "b"]` → `vec!["a", "b"]`. Only quoted strings, commas, and
/// whitespace may appear between the brackets.
fn parse_array(s: &str) -> Option<Vec<String>> {
    let inner = s.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let body = rest.strip_prefix('"')?;
        let end = body.find('"')?;
        out.push(body[..end].to_string());
        rest = body[end + 1..].trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let cfg = parse(
            "# comment\n\
             [roots]\n\
             \"crates/a/src/x.rs\" = [\"f\", \"g\"]\n\
             \n\
             [exempt]\n\
             prefixes = [\"crates/bench/\"]\n\
             \n\
             [lock_roots]\n\
             \"crates/a/src/y.rs\" = [\"h\"]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.roots,
            vec![(
                "crates/a/src/x.rs".to_string(),
                vec!["f".to_string(), "g".to_string()]
            )]
        );
        assert_eq!(cfg.exempt, vec!["crates/bench/".to_string()]);
        assert_eq!(
            cfg.lock_roots,
            vec![("crates/a/src/y.rs".to_string(), vec!["h".to_string()])]
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_silence() {
        assert!(parse("\"a\" = [\"f\"]\n").is_err(), "entry before section");
        assert!(
            parse("[roots]\n\"a\" \"b\" = [\"f\"]\n").is_err(),
            "malformed key"
        );
        assert!(parse("[roots]\n\"a\" = f\n").is_err(), "non-array value");
        assert!(parse("[surprise]\n").is_err(), "unknown section");
        assert!(
            parse("[exempt]\nother = [\"x\"]\n").is_err(),
            "unknown exempt key"
        );
    }

    #[test]
    fn checked_in_file_matches_compiled_in_default() {
        // The defaults exist so in-memory runs (fixtures, tests) agree with
        // filesystem runs; drift between the two would make `cargo run -p
        // vroom-lint` and the fixture suite disagree about reachability.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(HOTPATHS_FILE);
        let text = std::fs::read_to_string(&path).expect("checked-in lint-hotpaths.toml");
        assert_eq!(parse(&text).unwrap(), HotPathConfig::default());
    }
}
