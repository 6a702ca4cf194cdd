//! Hand-rolled parser and serializer for the scenario file format.
//!
//! The format is a strict subset of TOML (every scenario file is valid
//! TOML, not every TOML file is a valid scenario), chosen so the parser
//! stays small and auditable with no external dependency:
//!
//! ```toml
//! name = "fig07"
//! title = "Gini evolution under near-symmetric utilization"
//!
//! [market]                     # base MarketSpec keys
//! peers = 500
//! profile = "near-symmetric:0.03"
//!
//! [run]
//! horizon = 40000              # seconds
//! seed = 4242
//! replications = 1
//!
//! [case.taxed]                 # optional explicit variants
//! tax = "0.2:50"
//!
//! [sweep]                      # optional value grids (cross product)
//! credits = [50, 100, 200]
//! ```
//!
//! Grammar rules (documented for users in `docs/SCENARIOS.md`):
//! `#` starts a comment (outside strings); values are integers, floats,
//! booleans, `"quoted strings"` (no escapes), or flat `[lists]` of those;
//! bare values must be numbers or booleans; keys and case names are
//! `[A-Za-z0-9._-]+`; duplicate keys and unknown keys/sections are
//! errors, each reported with its 1-based line number.

use std::collections::BTreeSet;
use std::fmt;

use scrip_core::spec::MarketSpec;

use super::{CaseSpec, Metric, RunSpec, Scenario, SweepAxis};

/// A scenario-file syntax or value error, with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A parsed right-hand side: a single scalar or a flat list of scalars.
/// Scalars are kept as their literal text (quotes stripped); typed
/// interpretation happens at the consumer ([`MarketSpec::set`], run-key
/// parsing).
enum RawValue {
    Scalar(String),
    List(Vec<String>),
}

impl RawValue {
    fn scalar(self, line: usize, key: &str) -> Result<String, ParseError> {
        match self {
            RawValue::Scalar(s) => Ok(s),
            RawValue::List(_) => Err(ParseError::new(
                line,
                format!("key {key:?} takes a single value, not a list"),
            )),
        }
    }

    fn list(self, line: usize, key: &str) -> Result<Vec<String>, ParseError> {
        match self {
            RawValue::List(v) => Ok(v),
            RawValue::Scalar(_) => Err(ParseError::new(
                line,
                format!("key {key:?} takes a list, e.g. {key} = [1, 2]"),
            )),
        }
    }
}

/// Truncates `line` at the first `#` that is outside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

pub(crate) fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Parses one scalar token: a quoted string (no escapes), a number, or a
/// boolean.
fn parse_scalar(raw: &str, line: usize) -> Result<String, ParseError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(ParseError::new(line, "empty value"));
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(ParseError::new(line, format!("unterminated string {raw}")));
        };
        if inner.contains('"') {
            return Err(ParseError::new(
                line,
                format!("string {raw} contains an embedded quote (escapes are not supported)"),
            ));
        }
        return Ok(inner.to_string());
    }
    if raw == "true" || raw == "false" || raw.parse::<f64>().is_ok() {
        return Ok(raw.to_string());
    }
    Err(ParseError::new(
        line,
        format!("bare value {raw} is neither a number nor a boolean; quote strings as \"{raw}\""),
    ))
}

/// Splits list items on commas that are outside quoted strings.
fn split_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, ch) in inner.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&inner[start..]);
    items
}

fn parse_value(raw: &str, line: usize) -> Result<RawValue, ParseError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(ParseError::new(line, format!("unterminated list {raw}")));
        };
        if inner.trim().is_empty() {
            return Ok(RawValue::List(Vec::new()));
        }
        let items = split_items(inner)
            .into_iter()
            .map(|item| parse_scalar(item, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(RawValue::List(items));
    }
    Ok(RawValue::Scalar(parse_scalar(raw, line)?))
}

fn parse_u64(value: &str, line: usize, key: &str) -> Result<u64, ParseError> {
    value.parse::<u64>().map_err(|_| {
        ParseError::new(
            line,
            format!("key {key:?} expects a non-negative integer, got {value:?}"),
        )
    })
}

#[derive(Clone, Copy, PartialEq)]
enum Section {
    Top,
    Market,
    Run,
    Case(usize),
    Sweep,
}

/// Parses the scenario file format. See the [module docs](self) for the
/// grammar.
pub fn parse_scenario(text: &str) -> Result<Scenario, ParseError> {
    let mut sc = Scenario::new("unnamed", MarketSpec::default());
    let mut section = Section::Top;
    // Namespaced duplicate-key tracking: "top/name", "market/peers",
    // "case.3/tax", ...
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // Per-case probe specs: each starts from the base as of the case
    // header and accumulates that case's overrides in order, mirroring
    // what `Scenario::expand` will do — so context-dependent values
    // (e.g. `streaming.*` after the case enables `streaming`) validate
    // exactly as they will run, with the failing line number. This is
    // best-effort (a `[market]` section *after* a case header changes
    // the real base); `Scenario::validate`/`expand` remain the
    // authority and re-check everything.
    let mut case_probes: Vec<MarketSpec> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let content = strip_comment(raw_line).trim();
        if content.is_empty() {
            continue;
        }

        if let Some(rest) = content.strip_prefix('[') {
            let Some(header) = rest.strip_suffix(']') else {
                return Err(ParseError::new(
                    line,
                    format!("malformed section {content}"),
                ));
            };
            let header = header.trim();
            section = match header {
                "market" | "run" | "sweep" => {
                    if !seen.insert(format!("section/{header}")) {
                        return Err(ParseError::new(
                            line,
                            format!("duplicate section [{header}]"),
                        ));
                    }
                    match header {
                        "market" => Section::Market,
                        "run" => Section::Run,
                        _ => Section::Sweep,
                    }
                }
                _ => {
                    let Some(label) = header.strip_prefix("case.") else {
                        return Err(ParseError::new(
                            line,
                            format!(
                                "unknown section [{header}] (expected [market], [run], \
                                 [case.NAME], or [sweep])"
                            ),
                        ));
                    };
                    if !is_ident(label) {
                        return Err(ParseError::new(
                            line,
                            format!("invalid case name {label:?}"),
                        ));
                    }
                    if sc.cases.iter().any(|c| c.label == label) {
                        return Err(ParseError::new(line, format!("duplicate case {label:?}")));
                    }
                    sc.cases.push(CaseSpec::new(label));
                    case_probes.push(sc.base.clone());
                    Section::Case(sc.cases.len() - 1)
                }
            };
            continue;
        }

        let Some((key, value)) = content.split_once('=') else {
            return Err(ParseError::new(
                line,
                format!("expected `key = value` or a [section] header, got {content:?}"),
            ));
        };
        let key = key.trim();
        if !is_ident(key) {
            return Err(ParseError::new(line, format!("invalid key {key:?}")));
        }
        let value = parse_value(value, line)?;
        let scope = match section {
            Section::Top => "top".to_string(),
            Section::Market => "market".to_string(),
            Section::Run => "run".to_string(),
            Section::Case(i) => format!("case.{i}"),
            Section::Sweep => "sweep".to_string(),
        };
        if !seen.insert(format!("{scope}/{key}")) {
            return Err(ParseError::new(line, format!("duplicate key {key:?}")));
        }

        match section {
            Section::Top => match key {
                "name" => sc.name = value.scalar(line, key)?,
                "title" => sc.title = value.scalar(line, key)?,
                _ => {
                    return Err(ParseError::new(
                        line,
                        format!("unknown top-level key {key:?} (expected name or title)"),
                    ))
                }
            },
            Section::Market => {
                let scalar = value.scalar(line, key)?;
                sc.base
                    .set(key, &scalar)
                    .map_err(|e| ParseError::new(line, e.to_string()))?;
            }
            Section::Run => match key {
                "horizon" => {
                    sc.run.horizon_secs = parse_u64(&value.scalar(line, key)?, line, key)?;
                    if sc.run.horizon_secs == 0 {
                        return Err(ParseError::new(line, "horizon must be positive"));
                    }
                }
                "seed" => sc.run.seed = parse_u64(&value.scalar(line, key)?, line, key)?,
                "replications" => {
                    let n = parse_u64(&value.scalar(line, key)?, line, key)?;
                    if n == 0 {
                        return Err(ParseError::new(line, "replications must be at least 1"));
                    }
                    sc.run.replications = n as usize;
                }
                "snapshots" => {
                    sc.run.snapshots = value
                        .list(line, key)?
                        .iter()
                        .map(|v| parse_u64(v, line, key))
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "metrics" => {
                    sc.run.metrics = value
                        .list(line, key)?
                        .iter()
                        .map(|v| {
                            Metric::from_name(v).ok_or_else(|| {
                                // Sourced from the probe registry, so
                                // newly registered metrics are
                                // self-documenting here.
                                ParseError::new(
                                    line,
                                    format!(
                                        "unknown metric {v:?} (expected one of: {})",
                                        Metric::registry()
                                            .iter()
                                            .map(|m| m.name())
                                            .collect::<Vec<_>>()
                                            .join(", ")
                                    ),
                                )
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                _ => {
                    return Err(ParseError::new(
                        line,
                        format!(
                            "unknown run key {key:?} (expected horizon, seed, replications, \
                             snapshots, or metrics)"
                        ),
                    ))
                }
            },
            Section::Case(i) => {
                let scalar = value.scalar(line, key)?;
                // Apply to the case's cumulative probe so earlier
                // overrides in the same case provide context (exactly
                // how `expand` will apply them).
                case_probes[i]
                    .set(key, &scalar)
                    .map_err(|e| ParseError::new(line, e.to_string()))?;
                sc.cases[i].overrides.push((key.to_string(), scalar));
            }
            Section::Sweep => {
                let values = value.list(line, key)?;
                if values.is_empty() {
                    return Err(ParseError::new(
                        line,
                        format!("sweep axis {key:?} is empty"),
                    ));
                }
                // Sweep values apply on top of *each* resolved case, so
                // a value is only a parse error if it is invalid against
                // every context seen so far (the base and every case).
                // False accepts are caught by `expand` with the full
                // case label; false rejects here would wrongly refuse
                // runnable files.
                for v in &values {
                    let base_err = sc.base.clone().set(key, v).err();
                    if let Some(err) = base_err {
                        if !case_probes
                            .iter()
                            .any(|probe| probe.clone().set(key, v).is_ok())
                        {
                            return Err(ParseError::new(line, err.to_string()));
                        }
                    }
                }
                sc.sweep.push(SweepAxis {
                    key: key.to_string(),
                    values,
                });
            }
        }
    }
    Ok(sc)
}

/// Renders a scalar back into file syntax: numbers and booleans bare,
/// everything else quoted.
fn scalar_literal(v: &str) -> String {
    if v == "true" || v == "false" || v.parse::<f64>().is_ok() {
        v.to_string()
    } else {
        format!("\"{v}\"")
    }
}

fn list_literal<S: AsRef<str>>(items: &[S]) -> String {
    let body: Vec<String> = items.iter().map(|s| scalar_literal(s.as_ref())).collect();
    format!("[{}]", body.join(", "))
}

/// Serializes a scenario to the canonical file format (see
/// [`Scenario::to_file_string`]).
pub fn serialize_scenario(sc: &Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!("name = \"{}\"\n", sc.name));
    if !sc.title.is_empty() {
        out.push_str(&format!("title = \"{}\"\n", sc.title));
    }

    out.push_str("\n[market]\n");
    for (key, value) in sc.base.entries() {
        out.push_str(&format!("{key} = {}\n", scalar_literal(&value)));
    }

    out.push_str("\n[run]\n");
    out.push_str(&format!("horizon = {}\n", sc.run.horizon_secs));
    out.push_str(&format!("seed = {}\n", sc.run.seed));
    out.push_str(&format!("replications = {}\n", sc.run.replications));
    if !sc.run.snapshots.is_empty() {
        let items: Vec<String> = sc.run.snapshots.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("snapshots = {}\n", list_literal(&items)));
    }
    if sc.run.metrics != RunSpec::default().metrics {
        let items: Vec<&str> = sc.run.metrics.iter().map(|m| m.name()).collect();
        out.push_str(&format!("metrics = {}\n", list_literal(&items)));
    }

    for case in &sc.cases {
        out.push_str(&format!("\n[case.{}]\n", case.label));
        for (key, value) in &case.overrides {
            out.push_str(&format!("{key} = {}\n", scalar_literal(value)));
        }
    }

    if !sc.sweep.is_empty() {
        out.push_str("\n[sweep]\n");
        for axis in &sc.sweep {
            out.push_str(&format!("{} = {}\n", axis.key, list_literal(&axis.values)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# A comment-rich scenario exercising every section.
name = "sample"
title = "demo # not a comment inside a string"

[market]
peers = 60
credits = 100
profile = "near-symmetric:0.1"   # trailing comment

[run]
horizon = 2000
seed = 777
replications = 3
snapshots = [500, 1000]
metrics = ["gini-series", "snapshots"]

[case.plain]

[case.taxed]
tax = "0.2:50"

[sweep]
credits = [50, 100]
"#;

    #[test]
    fn sample_parses_fully() {
        let sc = parse_scenario(SAMPLE).expect("valid");
        assert_eq!(sc.name, "sample");
        assert_eq!(sc.title, "demo # not a comment inside a string");
        assert_eq!(sc.base.config().n, 60);
        assert_eq!(sc.run.horizon_secs, 2_000);
        assert_eq!(sc.run.seed, 777);
        assert_eq!(sc.run.replications, 3);
        assert_eq!(sc.run.snapshots, [500, 1000]);
        assert_eq!(sc.run.metrics, [Metric::GINI_SERIES, Metric::SNAPSHOTS]);
        assert_eq!(sc.cases.len(), 2);
        assert_eq!(
            sc.cases[1].overrides,
            [("tax".to_string(), "0.2:50".to_string())]
        );
        assert_eq!(sc.sweep.len(), 1);
        assert_eq!(sc.sweep[0].values, ["50", "100"]);
        assert_eq!(sc.expand().expect("expands").len(), 4);
    }

    #[test]
    fn round_trip_is_exact() {
        let sc = parse_scenario(SAMPLE).expect("valid");
        let serialized = sc.to_file_string();
        let reparsed = parse_scenario(&serialized).expect("serialized form parses");
        assert_eq!(sc, reparsed, "parse → serialize → parse must be identity");
        // And serialization is a fixed point.
        assert_eq!(serialized, reparsed.to_file_string());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: [(&str, &str); 12] = [
            ("peers = 10", "unknown top-level key"),
            ("name = unquoted", "neither a number nor a boolean"),
            ("[market]\npeers = \"ten\"", "invalid value"),
            ("[market]\npeers = [1, 2]", "single value"),
            ("[banana]", "unknown section"),
            ("[case.bad name]", "invalid case name"),
            ("[run]\nhorizon = 0", "horizon must be positive"),
            ("[run]\nreplications = 0", "replications must be at least 1"),
            ("[run]\nmetrics = [\"entropy\"]", "unknown metric"),
            ("[sweep]\ncredits = 5", "takes a list"),
            ("[sweep]\ncredits = []", "is empty"),
            ("just some words", "expected `key = value`"),
        ];
        for (text, needle) in cases {
            let err = parse_scenario(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "{text:?}: got {:?}, wanted {needle:?}",
                err.message
            );
            assert!(err.line > 0, "{text:?}: line number missing");
            assert!(err.to_string().contains("line"), "{err}");
        }
    }

    #[test]
    fn error_line_numbers_point_at_the_offender() {
        let text = "name = \"x\"\n\n[market]\npeers = 60\ncredits = oops\n";
        let err = parse_scenario(text).expect_err("bad credits");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn removed_shards_key_fails_closed_with_line_number() {
        let text = "name = \"x\"\n\n[market]\npeers = 60\nshards = 1\n";
        let err = parse_scenario(text).expect_err("shards is gone");
        assert_eq!(err.line, 5);
        assert!(
            err.message
                .contains("`shards` was removed: execution is always serial"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_keys_and_sections_are_rejected() {
        for text in [
            "name = \"a\"\nname = \"b\"",
            "[market]\npeers = 10\npeers = 20",
            "[market]\npeers = 10\n[market]\ncredits = 5",
            "[case.a]\n[case.a]",
            "[run]\nseed = 1\nseed = 2",
        ] {
            assert!(parse_scenario(text).is_err(), "{text:?} should fail");
        }
        // The same key in different cases is fine.
        let ok = "[case.a]\ntax = \"0.1:50\"\n[case.b]\ntax = \"0.2:50\"";
        assert_eq!(parse_scenario(ok).expect("valid").cases.len(), 2);
    }

    #[test]
    fn unterminated_tokens_are_rejected() {
        for text in ["name = \"open", "[market", "[run]\nsnapshots = [1, 2"] {
            assert!(parse_scenario(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn case_overrides_provide_context_for_later_lines() {
        // A case may enable streaming itself and then tune its
        // sub-keys; each line validates against the case's cumulative
        // state, exactly as expand() will apply it.
        let text = "[case.chunk]\nstreaming = \"paced:1\"\nstreaming.window = 48\n";
        let sc = parse_scenario(text).expect("case-local streaming enables sub-keys");
        sc.validate().expect("expands and builds");
        // Interdependent sub-keys inside one case: raise the window,
        // then a startup that only fits the raised window.
        let text = "[market]\nstreaming = \"paced:1\"\n\
                    [case.deep]\nstreaming.window = 256\nstreaming.startup = 100\n";
        parse_scenario(text).expect("cumulative case probing");
        // Out-of-context sub-keys are still refused with a line number.
        let err = parse_scenario("[case.bad]\nstreaming.window = 48\n")
            .expect_err("no streaming context");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("streaming"), "{err}");
    }

    #[test]
    fn sweep_values_validate_against_any_case_context() {
        // The sweep axis drives a streaming sub-key; streaming is
        // enabled only inside the cases, not in the base.
        let text = "[case.a]\nstreaming = \"paced:1\"\n[case.b]\nstreaming = \"paced:2\"\n\
                    [sweep]\nstreaming.source-uploads = [1, 8]\n";
        let sc = parse_scenario(text).expect("case context admits the sweep");
        sc.validate().expect("expands and builds");
        // A value invalid in every context still fails at parse time.
        let bad = "[case.a]\nstreaming = \"paced:1\"\n[sweep]\nstreaming.window = [\"wide\"]\n";
        assert!(parse_scenario(bad).is_err());
    }

    #[test]
    fn quoted_commas_survive_list_splitting() {
        let text = "[sweep]\nprofile = [\"symmetric\", \"near-symmetric:0.1\"]";
        let sc = parse_scenario(text).expect("valid");
        assert_eq!(sc.sweep[0].values, ["symmetric", "near-symmetric:0.1"]);
    }
}
