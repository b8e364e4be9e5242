//! The hand-rolled TOML-like parser (grammar in DESIGN.md §15).
//!
//! Dialect: `[section]` headers (`scenario`, `traffic`), repeated
//! `[[group]]` tables, and `key = value` pairs where a value is a
//! number, a `"quoted string"`, `true`/`false`, or the bare literal
//! `inf`.  `#` starts a comment (outside strings).  Every diagnostic —
//! syntax, unknown key, out-of-bounds value — carries the 1-based line
//! and column it points at.

use crate::{
    GroupSpec, MobilitySpec, Role, ScenarioSpec, TrafficPattern, TrafficSpec, MAX_CELLS_PER_AXIS,
    MAX_FLEET_TRACE_BYTES, MAX_GROUP_COUNT, MAX_SEGMENTS_PER_HOST, MAX_TOTAL_HOSTS, SEGMENT_BYTES,
};
use std::fmt;

/// A parse or validation failure, located in the source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column (in characters) of the offending token.
    pub col: u32,
    pub msg: String,
}

impl ParseError {
    fn new(line: u32, col: u32, msg: impl Into<String>) -> Self {
        ParseError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Int(i128),
    Num(f64),
    Str(String),
    Bool(bool),
    Inf,
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) | Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Inf => "inf",
        }
    }
}

/// One `key = value` occurrence with its spans.
#[derive(Clone, Debug)]
struct Entry {
    value: Value,
    line: u32,
    /// Column of the key (unknown-key diagnostics point here).
    key_col: u32,
    /// Column of the value (bounds diagnostics point here).
    val_col: u32,
}

/// An in-order key/entry table for one section.
#[derive(Debug, Default)]
struct Table {
    entries: Vec<(String, Entry)>,
    /// Line of the section header, for aggregate diagnostics.
    header_line: u32,
}

impl Table {
    fn insert(&mut self, key: String, entry: Entry) -> Result<(), ParseError> {
        if self.entries.iter().any(|(k, _)| *k == key) {
            return Err(ParseError::new(
                entry.line,
                entry.key_col,
                format!("duplicate key `{key}`"),
            ));
        }
        self.entries.push((key, entry));
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<Entry> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    /// Error on the first leftover key (in file order).
    fn reject_leftovers(&self, section: &str) -> Result<(), ParseError> {
        if let Some((k, e)) = self.entries.first() {
            return Err(ParseError::new(
                e.line,
                e.key_col,
                format!("unknown key `{k}` in {section}"),
            ));
        }
        Ok(())
    }
}

// ---- typed accessors -------------------------------------------------

fn want_str(e: &Entry) -> Result<String, ParseError> {
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(ParseError::new(
            e.line,
            e.val_col,
            format!("expected a string, found {}", other.type_name()),
        )),
    }
}

fn want_f64(e: &Entry) -> Result<f64, ParseError> {
    match e.value {
        Value::Int(i) => Ok(i as f64),
        Value::Num(x) => Ok(x),
        ref other => Err(ParseError::new(
            e.line,
            e.val_col,
            format!("expected a number, found {}", other.type_name()),
        )),
    }
}

fn want_int(e: &Entry) -> Result<i128, ParseError> {
    match e.value {
        Value::Int(i) => Ok(i),
        ref other => Err(ParseError::new(
            e.line,
            e.val_col,
            format!("expected an integer, found {}", other.type_name()),
        )),
    }
}

/// A finite number bounded to `[lo, hi]` (use `lo > -inf` exclusivity via
/// `lo_excl`).
fn bounded_f64(e: &Entry, key: &str, lo: f64, hi: f64, lo_excl: bool) -> Result<f64, ParseError> {
    let x = want_f64(e)?;
    let below = if lo_excl { x <= lo } else { x < lo };
    if !x.is_finite() || below || x > hi {
        let op = if lo_excl { "(" } else { "[" };
        return Err(ParseError::new(
            e.line,
            e.val_col,
            format!("{key} must be in {op}{lo}, {hi}], got {x}"),
        ));
    }
    Ok(x)
}

fn bounded_usize(e: &Entry, key: &str, lo: usize, hi: usize) -> Result<usize, ParseError> {
    let i = want_int(e)?;
    if i < lo as i128 || i > hi as i128 {
        return Err(ParseError::new(
            e.line,
            e.val_col,
            format!("{key} must be in [{lo}, {hi}], got {i}"),
        ));
    }
    Ok(i as usize)
}

// ---- line-level scanning ---------------------------------------------

/// Strip a `#` comment (quote-aware) and return the effective line.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// 1-based column (in characters) of byte offset `byte` within `line`.
fn col_at(line: &str, byte: usize) -> u32 {
    line[..byte].chars().count() as u32 + 1
}

fn valid_key(k: &str) -> bool {
    !k.is_empty()
        && k.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(raw: &str, lineno: u32, col: u32) -> Result<Value, ParseError> {
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(ParseError::new(lineno, col, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(ParseError::new(lineno, col, "stray quote inside string"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "inf" => return Ok(Value::Inf),
        _ => {}
    }
    let looks_int = {
        let digits = raw.strip_prefix('-').unwrap_or(raw);
        !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit())
    };
    if looks_int {
        if let Ok(i) = raw.parse::<i128>() {
            return Ok(Value::Int(i));
        }
    }
    if let Ok(x) = raw.parse::<f64>() {
        if x.is_finite() {
            return Ok(Value::Num(x));
        }
    }
    Err(ParseError::new(
        lineno,
        col,
        format!("invalid value {raw:?} (expected a number, \"string\", true/false, or inf)"),
    ))
}

#[derive(Clone, Copy, PartialEq)]
enum Section {
    None,
    Scenario,
    Group,
    Traffic,
}

/// Parse and validate a scenario file.
pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
    let mut scenario_tbl: Option<Table> = None;
    let mut traffic_tbl: Option<Table> = None;
    let mut group_tbls: Vec<Table> = Vec::new();
    let mut section = Section::None;

    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = strip_comment(raw_line);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let start_byte = line.len() - line.trim_start().len();
        let start_col = col_at(line, start_byte);

        if let Some(rest) = trimmed.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return Err(ParseError::new(lineno, start_col, "expected `[[group]]`"));
            };
            if name.trim() != "group" {
                return Err(ParseError::new(
                    lineno,
                    start_col + 2,
                    format!("unknown array section `[[{}]]` (expected [[group]])", name.trim()),
                ));
            }
            group_tbls.push(Table {
                header_line: lineno,
                ..Table::default()
            });
            section = Section::Group;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ParseError::new(lineno, start_col, "unclosed section header"));
            };
            let name = name.trim();
            let slot = match name {
                "scenario" => {
                    section = Section::Scenario;
                    &mut scenario_tbl
                }
                "traffic" => {
                    section = Section::Traffic;
                    &mut traffic_tbl
                }
                other => {
                    return Err(ParseError::new(
                        lineno,
                        start_col + 1,
                        format!("unknown section `[{other}]` (expected [scenario], [[group]], or [traffic])"),
                    ));
                }
            };
            if slot.is_some() {
                return Err(ParseError::new(
                    lineno,
                    start_col,
                    format!("duplicate section `[{name}]`"),
                ));
            }
            *slot = Some(Table {
                header_line: lineno,
                ..Table::default()
            });
            continue;
        }

        // key = value
        let Some(eq_byte) = line.find('=') else {
            return Err(ParseError::new(
                lineno,
                start_col,
                "expected `key = value` or a section header",
            ));
        };
        let key = line[..eq_byte].trim();
        if !valid_key(key) {
            return Err(ParseError::new(lineno, start_col, format!("invalid key {key:?}")));
        }
        let val_raw = line[eq_byte + 1..].trim();
        let val_byte = eq_byte + 1 + (line[eq_byte + 1..].len() - line[eq_byte + 1..].trim_start().len());
        let val_col = col_at(line, val_byte);
        if val_raw.is_empty() {
            return Err(ParseError::new(
                lineno,
                val_col,
                format!("key `{key}` has no value"),
            ));
        }
        let value = parse_value(val_raw, lineno, val_col)?;
        let entry = Entry {
            value,
            line: lineno,
            key_col: start_col,
            val_col,
        };
        let tbl = match section {
            Section::None => {
                return Err(ParseError::new(
                    lineno,
                    start_col,
                    format!("key `{key}` appears before any section header"),
                ));
            }
            Section::Scenario => scenario_tbl.as_mut().unwrap(),
            Section::Traffic => traffic_tbl.as_mut().unwrap(),
            Section::Group => group_tbls.last_mut().unwrap(),
        };
        tbl.insert(key.to_string(), entry)?;
    }

    // ---- finalize [scenario] ----
    let Some(mut sc) = scenario_tbl else {
        return Err(ParseError::new(1, 1, "missing [scenario] section"));
    };
    let name = match sc.take("name") {
        Some(e) => want_str(&e)?,
        None => "unnamed".to_string(),
    };
    let field_w = match sc.take("field_w") {
        Some(e) => bounded_f64(&e, "field_w", 0.0, 100_000.0, true)?,
        None => 1000.0,
    };
    let field_h = match sc.take("field_h") {
        Some(e) => bounded_f64(&e, "field_h", 0.0, 100_000.0, true)?,
        None => 1000.0,
    };
    let cell_side = match sc.take("cell_side") {
        Some(e) => bounded_f64(&e, "cell_side", 0.0, 10_000.0, true)?,
        None => 100.0,
    };
    for (axis, side) in [("field_w", field_w), ("field_h", field_h)] {
        let cells = (side / cell_side).ceil();
        if cells > f64::from(MAX_CELLS_PER_AXIS) {
            return Err(ParseError::new(
                sc.header_line,
                1,
                format!("{axis} / cell_side spans {cells} cells; a grid spans at most {MAX_CELLS_PER_AXIS} per axis"),
            ));
        }
    }
    let duration_s = match sc.take("duration_s") {
        Some(e) => bounded_f64(&e, "duration_s", 0.0, 10_000_000.0, true)?,
        None => {
            return Err(ParseError::new(
                sc.header_line,
                1,
                "[scenario] is missing required key `duration_s`",
            ));
        }
    };
    let seed = match sc.take("seed") {
        Some(e) => {
            let i = want_int(&e)?;
            if !(0..=u64::MAX as i128).contains(&i) {
                return Err(ParseError::new(
                    e.line,
                    e.val_col,
                    format!("seed must be a u64, got {i}"),
                ));
            }
            i as u64
        }
        None => {
            return Err(ParseError::new(
                sc.header_line,
                1,
                "[scenario] is missing required key `seed`",
            ));
        }
    };
    sc.reject_leftovers("[scenario]")?;

    // ---- finalize [[group]] tables ----
    if group_tbls.is_empty() {
        return Err(ParseError::new(
            sc.header_line,
            1,
            "scenario has no [[group]] sections",
        ));
    }
    let field_min = field_w.min(field_h);
    let mut groups = Vec::with_capacity(group_tbls.len());
    // the world builds every host's trace before its run starts, so the
    // fleet's traces are bounded here, where a refusal names the group
    let mut trace_bytes = 0.0;
    for mut g in group_tbls {
        let group = finalize_group(&mut g, field_min, duration_s)?;
        trace_bytes +=
            group.count as f64 * group.mobility.segments_per_host(duration_s, field_min) * SEGMENT_BYTES;
        if trace_bytes > MAX_FLEET_TRACE_BYTES {
            return Err(ParseError::new(
                g.header_line,
                1,
                format!(
                    "group {:?} brings the fleet's mobility traces to {:.0} bytes; a fleet holds at most \
                     {MAX_FLEET_TRACE_BYTES:.0}",
                    group.name, trace_bytes
                ),
            ));
        }
        groups.push(group);
    }
    let total: usize = groups.iter().map(|g: &GroupSpec| g.count).sum();
    if total > MAX_TOTAL_HOSTS {
        return Err(ParseError::new(
            1,
            1,
            format!("total host count {total} exceeds the {MAX_TOTAL_HOSTS} ceiling"),
        ));
    }

    // ---- finalize [traffic] ----
    let traffic = match traffic_tbl {
        Some(mut t) => finalize_traffic(&mut t, duration_s)?,
        None => TrafficSpec {
            pattern: TrafficPattern::Cbr,
            flows: 0,
            rate_pps: 1.0,
            packet_bytes: 512,
            start_s: 5.0,
        },
    };

    let spec = ScenarioSpec {
        name,
        field_w,
        field_h,
        cell_side,
        duration_s,
        seed,
        groups,
        traffic,
    };

    // aggregate traffic-vs-roles checks
    if spec.traffic.flows > 0 {
        let eligible: usize = spec
            .groups
            .iter()
            .filter(|g| g.role.is_source() || g.role.is_sink())
            .map(|g| g.count)
            .sum();
        if spec.source_hosts() == 0 || spec.sink_hosts() == 0 || eligible < 2 {
            return Err(ParseError::new(
                1,
                1,
                "traffic declares flows but the groups offer no (source, sink) pair \
                 (need a source-eligible and a distinct sink-eligible host)",
            ));
        }
    }
    Ok(spec)
}

/// All keys that parameterize some mobility model, with the models each
/// applies to — used for the "does not apply" diagnostic.
const MOBILITY_PARAMS: &[(&str, &[&str])] = &[
    (
        "max_speed",
        &["waypoint", "walk", "manhattan", "convoy", "hotspot"],
    ),
    ("pause_s", &["waypoint", "manhattan", "convoy"]),
    ("epoch_s", &["walk", "gauss_markov"]),
    ("mean_speed", &["gauss_markov"]),
    ("alpha", &["gauss_markov"]),
    ("block_m", &["manhattan"]),
    ("group_radius_m", &["convoy"]),
    ("hotspots", &["hotspot"]),
    ("dwell_s", &["hotspot"]),
];

fn finalize_group(g: &mut Table, field_min: f64, duration_s: f64) -> Result<GroupSpec, ParseError> {
    let name = match g.take("name") {
        Some(e) => want_str(&e)?,
        None => {
            return Err(ParseError::new(
                g.header_line,
                1,
                "[[group]] is missing required key `name`",
            ));
        }
    };
    let count = match g.take("count") {
        Some(e) => bounded_usize(&e, "count", 1, MAX_GROUP_COUNT)?,
        None => {
            return Err(ParseError::new(
                g.header_line,
                1,
                format!("[[group]] \"{name}\" is missing required key `count`"),
            ));
        }
    };
    let role = match g.take("role") {
        Some(e) => {
            let s = want_str(&e)?;
            match s.as_str() {
                "relay" => Role::Relay,
                "source" => Role::Source,
                "sink" => Role::Sink,
                "peer" => Role::Peer,
                "endpoint" => Role::Endpoint,
                other => {
                    return Err(ParseError::new(
                        e.line,
                        e.val_col,
                        format!("unknown role {other:?} (expected relay|source|sink|peer|endpoint)"),
                    ));
                }
            }
        }
        None => Role::Peer,
    };
    let battery_j = match g.take("battery_j") {
        Some(e) => match e.value {
            Value::Inf => None,
            _ => {
                let j = bounded_f64(&e, "battery_j", 0.0, 1e12, true)?;
                if role == Role::Endpoint {
                    return Err(ParseError::new(
                        e.line,
                        e.val_col,
                        "role \"endpoint\" requires battery_j = inf (Model-1 endpoints are unmetered)",
                    ));
                }
                Some(j)
            }
        },
        None if role == Role::Endpoint => None,
        None => Some(500.0),
    };
    let battery_var = match g.take("battery_var") {
        Some(e) => bounded_f64(&e, "battery_var", 0.0, 1.0, false)?,
        None => 0.0,
    };
    let range_m = match g.take("range_m") {
        Some(e) => bounded_f64(&e, "range_m", 0.0, 10_000.0, true)?,
        None => 250.0,
    };
    let gps_sigma_m = match g.take("gps_sigma_m") {
        Some(e) => bounded_f64(&e, "gps_sigma_m", 0.0, 1000.0, false)?,
        None => 0.0,
    };

    let model = match g.take("mobility") {
        Some(e) => {
            let s = want_str(&e)?;
            match s.as_str() {
                "stationary" | "waypoint" | "walk" | "gauss_markov" | "manhattan" | "convoy" | "hotspot" => s,
                other => {
                    return Err(ParseError::new(
                        e.line,
                        e.val_col,
                        format!(
                            "unknown mobility model {other:?} (expected stationary|waypoint|walk|\
                             gauss_markov|manhattan|convoy|hotspot)"
                        ),
                    ));
                }
            }
        }
        None => "waypoint".to_string(),
    };

    // reject params that belong to a *different* model before pulling the
    // relevant ones, so the diagnostic names the mismatch precisely
    for (key, applies) in MOBILITY_PARAMS {
        if applies.contains(&model.as_str()) {
            continue;
        }
        if let Some((_, e)) = g.entries.iter().find(|(k, _)| k == key) {
            return Err(ParseError::new(
                e.line,
                e.key_col,
                format!("key `{key}` does not apply to mobility = {model:?}"),
            ));
        }
    }

    // a refused trace length points at the key pacing the legs, if given
    let pace_key = match model.as_str() {
        "walk" | "gauss_markov" => "epoch_s",
        "manhattan" => "block_m",
        "hotspot" => "dwell_s",
        _ => "max_speed",
    };
    let (pace_line, pace_col) = g
        .entries
        .iter()
        .find(|(k, _)| k == pace_key)
        .map_or((g.header_line, 1), |(_, e)| (e.line, e.val_col));

    // pulled ahead of the closure below so it doesn't contend for `g`
    let hotspots = match g.take("hotspots") {
        Some(e) => bounded_usize(&e, "hotspots", 1, 64)? as u32,
        None => 3,
    };
    let mut f64_param = |key: &str, default: f64, lo: f64, hi: f64, lo_excl: bool| match g.take(key) {
        Some(e) => bounded_f64(&e, key, lo, hi, lo_excl),
        None => Ok(default),
    };
    let mobility = match model.as_str() {
        "stationary" => MobilitySpec::Stationary,
        "waypoint" => MobilitySpec::Waypoint {
            max_speed: f64_param("max_speed", 1.0, 0.0, 1000.0, true)?,
            pause_s: f64_param("pause_s", 0.0, 0.0, 1e6, false)?,
        },
        "walk" => MobilitySpec::Walk {
            max_speed: f64_param("max_speed", 1.0, 0.0, 1000.0, true)?,
            epoch_s: f64_param("epoch_s", 10.0, 0.0, 1e6, true)?,
        },
        "gauss_markov" => MobilitySpec::GaussMarkov {
            mean_speed: f64_param("mean_speed", 1.0, 0.0, 1000.0, true)?,
            alpha: f64_param("alpha", 0.85, 0.0, 1.0, false)?,
            epoch_s: f64_param("epoch_s", 5.0, 0.0, 1e6, true)?,
        },
        "manhattan" => MobilitySpec::Manhattan {
            max_speed: f64_param("max_speed", 1.0, 0.0, 1000.0, true)?,
            pause_s: f64_param("pause_s", 0.0, 0.0, 1e6, false)?,
            // two intersections per side, or a lone one has no street to take
            block_m: f64_param("block_m", 100f64.min(field_min), 0.0, field_min, true)?,
        },
        "convoy" => MobilitySpec::Convoy {
            max_speed: f64_param("max_speed", 1.0, 0.0, 1000.0, true)?,
            pause_s: f64_param("pause_s", 0.0, 0.0, 1e6, false)?,
            group_radius_m: f64_param("group_radius_m", 50.0, 0.0, 10_000.0, true)?,
        },
        "hotspot" => MobilitySpec::Hotspot {
            max_speed: f64_param("max_speed", 1.0, 0.0, 1000.0, true)?,
            hotspots,
            dwell_s: f64_param("dwell_s", 60.0, 0.0, 1e6, true)?,
        },
        _ => unreachable!(),
    };
    let segments = mobility.segments_per_host(duration_s, field_min);
    if segments > MAX_SEGMENTS_PER_HOST {
        return Err(ParseError::new(
            pace_line,
            pace_col,
            format!(
                "mobility = {model:?} needs up to {segments:.0} trace segments per host over \
                 duration_s = {duration_s}; a host holds at most {MAX_SEGMENTS_PER_HOST}"
            ),
        ));
    }

    g.reject_leftovers("[[group]]")?;
    Ok(GroupSpec {
        name,
        count,
        battery_j,
        battery_var,
        range_m,
        gps_sigma_m,
        role,
        mobility,
    })
}

fn finalize_traffic(t: &mut Table, duration_s: f64) -> Result<TrafficSpec, ParseError> {
    let pattern_name = match t.take("pattern") {
        Some(e) => {
            let s = want_str(&e)?;
            match s.as_str() {
                "cbr" | "bursty" | "many_to_one" => s,
                other => {
                    return Err(ParseError::new(
                        e.line,
                        e.val_col,
                        format!("unknown traffic pattern {other:?} (expected cbr|bursty|many_to_one)"),
                    ));
                }
            }
        }
        None => "cbr".to_string(),
    };
    let flows = match t.take("flows") {
        Some(e) => bounded_usize(&e, "flows", 0, 100_000)?,
        None => 0,
    };
    let rate_pps = match t.take("rate_pps") {
        Some(e) => bounded_f64(&e, "rate_pps", 0.0, 1e6, true)?,
        None => 1.0,
    };
    let packet_bytes = match t.take("packet_bytes") {
        Some(e) => bounded_usize(&e, "packet_bytes", 1, 65_536)? as u32,
        None => 512,
    };
    let start_s = match t.take("start_s") {
        Some(e) => bounded_f64(&e, "start_s", 0.0, duration_s.max(1.0), false)?,
        None => 5.0f64.min(duration_s),
    };
    let pattern = match pattern_name.as_str() {
        "cbr" => TrafficPattern::Cbr,
        "many_to_one" => TrafficPattern::ManyToOne,
        "bursty" => TrafficPattern::Bursty {
            on_s: match t.take("on_s") {
                Some(e) => bounded_f64(&e, "on_s", 0.0, 1e6, true)?,
                None => 4.0,
            },
            off_s: match t.take("off_s") {
                Some(e) => bounded_f64(&e, "off_s", 0.0, 1e6, false)?,
                None => 6.0,
            },
        },
        _ => unreachable!(),
    };
    if !matches!(pattern, TrafficPattern::Bursty { .. }) {
        for key in ["on_s", "off_s"] {
            if let Some((_, e)) = t.entries.iter().find(|(k, _)| k == key) {
                return Err(ParseError::new(
                    e.line,
                    e.key_col,
                    format!("key `{key}` only applies to pattern = \"bursty\""),
                ));
            }
        }
    }
    t.reject_leftovers("[traffic]")?;
    Ok(TrafficSpec {
        pattern,
        flows,
        rate_pps,
        packet_bytes,
        start_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!("[scenario]\nduration_s = 10\nseed = 1\n\n[[group]]\nname = \"g\"\ncount = 2\n{extra}")
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let spec = parse(&minimal("")).unwrap();
        assert_eq!(spec.name, "unnamed");
        assert_eq!(spec.field_w, 1000.0);
        assert_eq!(spec.cell_side, 100.0);
        assert_eq!(spec.groups[0].battery_j, Some(500.0));
        assert_eq!(spec.groups[0].range_m, 250.0);
        assert_eq!(spec.groups[0].role, Role::Peer);
        assert_eq!(spec.traffic.flows, 0);
    }

    /// One group of `count = 3` over `duration_s`, its mobility keys
    /// starting on line 8.
    fn one_group(duration_s: &str, mobility: &str) -> String {
        format!("[scenario]\nduration_s = {duration_s}\nseed = 1\n\n[[group]]\nname = \"g\"\ncount = 3\n{mobility}")
    }

    #[test]
    fn an_epoch_model_past_the_segment_ceiling_is_refused_at_epoch_s() {
        for model in ["walk", "gauss_markov"] {
            // 100 s (and 10 s of slack) at 0.1 ms is 1 100 000 epochs per
            // host, counted three times for legs a wall cuts short
            let text = one_group("100", &format!("mobility = \"{model}\"\nepoch_s = 0.0001\n"));
            let err = parse(&text).unwrap_err();
            assert_eq!((err.line, err.col), (9, 11), "{model}: {err}");
            assert!(
                err.msg.contains("3300001 trace segments per host"),
                "{model}: {err}"
            );
            // 82 501 segments: under the 100 000 a host may hold
            parse(&one_group(
                "100",
                &format!("mobility = \"{model}\"\nepoch_s = 0.004\n"),
            ))
            .unwrap();
        }
    }

    #[test]
    fn a_manhattan_lattice_past_the_segment_ceiling_is_refused_at_block_m() {
        let err = parse(&one_group("10", "mobility = \"manhattan\"\nblock_m = 1e-6\n")).unwrap_err();
        assert_eq!((err.line, err.col), (9, 11), "{err}");
        assert!(err.msg.contains("mobility = \"manhattan\" needs up to"), "{err}");
        // 2 · 10 s · 1 m/s / 0.2 m = 100 legs
        parse(&one_group("10", "mobility = \"manhattan\"\nblock_m = 0.2\n")).unwrap();
    }

    #[test]
    fn the_fleet_s_traces_are_bounded_and_the_group_that_crosses_is_named() {
        // a 3 001-segment walk host (990 s and 10 s of slack, a 1 s epoch
        // counted three times) holds 144 048 B: 7 454 of them fit in 1 GiB
        let fleet = |count: usize| {
            format!(
                "[scenario]\nduration_s = 990\nseed = 1\n\n\
                 [[group]]\nname = \"still\"\ncount = 10\nmobility = \"stationary\"\n\n\
                 [[group]]\nname = \"walkers\"\ncount = {count}\nmobility = \"walk\"\nepoch_s = 1\n"
            )
        };
        let walker = MobilitySpec::Walk {
            max_speed: 1.0,
            epoch_s: 1.0,
        };
        let per_walker = walker.segments_per_host(990.0, 1000.0) * SEGMENT_BYTES;
        assert_eq!(per_walker, 3001.0 * 48.0);
        let room = MAX_FLEET_TRACE_BYTES - 10.0 * SEGMENT_BYTES;
        let most = (room / per_walker).floor() as usize;
        assert_eq!(most, 7454);
        let at = parse(&fleet(most)).unwrap();
        assert_eq!(at.total_hosts(), 10 + most);
        let err = parse(&fleet(most + 1)).unwrap_err();
        assert_eq!((err.line, err.col), (10, 1), "the walkers' header: {err}");
        assert!(
            err.msg
                .starts_with("group \"walkers\" brings the fleet's mobility traces to")
                && err.msg.ends_with("a fleet holds at most 1073741824"),
            "{err}"
        );
    }

    #[test]
    fn a_manhattan_block_fits_the_shorter_field_side() {
        let field = |side: &str, block: &str| {
            format!(
                "[scenario]\nfield_w = {side}\nfield_h = {side}\ncell_side = {side}\nduration_s = 10\nseed = 1\n\n\
                 [[group]]\nname = \"g\"\ncount = 2\nmobility = \"manhattan\"\n{block}"
            )
        };
        let err = parse(&field("0.5", "block_m = 1\n")).unwrap_err();
        assert_eq!((err.line, err.col), (12, 11), "{err}");
        assert_eq!(err.msg, "block_m must be in (0, 0.5], got 1");
        // the 100 m default shrinks to a field narrower than one block
        let spec = parse(&field("50", "")).unwrap();
        assert!(
            matches!(spec.groups[0].mobility, MobilitySpec::Manhattan { block_m, .. } if block_m == 50.0)
        );
    }

    #[test]
    fn waypoint_legs_past_the_segment_ceiling_are_refused_at_max_speed() {
        // the `run_one --speed 1000 --duration 10000000` fleet: 60 000 062
        // expected segments on the 1000 m field
        for model in ["waypoint", "convoy"] {
            let text = one_group("10000000", &format!("mobility = \"{model}\"\nmax_speed = 1000\n"));
            let err = parse(&text).unwrap_err();
            assert_eq!((err.line, err.col), (9, 13), "{model}: {err}");
            assert!(
                err.msg.contains("60000062 trace segments per host"),
                "{model}: {err}"
            );
        }
        // a defaulted pace key points at the group header: 1 m/s over
        // 10 000 000 s is 60 000 legs, a 10-s convoy offset epoch 1 000 000
        parse(&one_group("10000000", "mobility = \"waypoint\"\n")).unwrap();
        let err = parse(&one_group("10000000", "mobility = \"convoy\"\n")).unwrap_err();
        assert_eq!((err.line, err.col), (5, 1), "{err}");
        // a hotspot host dwells once per leg
        let err = parse(&one_group("100", "mobility = \"hotspot\"\ndwell_s = 0.001\n")).unwrap_err();
        assert_eq!((err.line, err.col), (9, 11), "{err}");
    }

    #[test]
    fn unknown_key_reports_its_line_and_col() {
        let text =
            "[scenario]\nduration_s = 10\nseed = 1\n  bogus = 3\n\n[[group]]\nname = \"g\"\ncount = 2\n";
        let err = parse(text).unwrap_err();
        assert_eq!((err.line, err.col), (4, 3), "{err}");
        assert!(err.msg.contains("unknown key `bogus`"), "{err}");
    }

    #[test]
    fn unknown_section_reports_position() {
        let err = parse("[scenaro]\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 2), "{err}");
        assert!(err.msg.contains("unknown section"), "{err}");
    }

    #[test]
    fn missing_equals_is_a_syntax_error() {
        let err = parse("[scenario]\nduration_s 10\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("key = value"), "{err}");
    }

    #[test]
    fn count_bounds_are_enforced_at_the_value() {
        let text = "[scenario]\nduration_s = 10\nseed = 1\n[[group]]\nname = \"g\"\ncount = 0\n";
        let err = parse(text).unwrap_err();
        assert_eq!((err.line, err.col), (6, 9), "{err}");
        assert!(err.msg.contains("count must be in"), "{err}");
    }

    #[test]
    fn a_grid_spans_at_most_65_535_cells_per_axis() {
        let field = |w: u32, h: u32| {
            let text = minimal("");
            parse(&text.replacen(
                "seed = 1\n",
                &format!("seed = 1\nfield_w = {w}\nfield_h = {h}\ncell_side = 1\n"),
                1,
            ))
        };
        assert!(field(65_535, 65_535).is_ok());
        for (w, h, axis) in [(65_536, 10, "field_w"), (10, 100_000, "field_h")] {
            let err = field(w, h).unwrap_err();
            assert!(
                err.msg.starts_with(axis) && err.msg.contains("at most 65535 per axis"),
                "{err}"
            );
        }
    }

    #[test]
    fn battery_capacity_bounds() {
        let err = parse(&minimal("battery_j = -5\n")).unwrap_err();
        assert!(err.msg.contains("battery_j"), "{err}");
        assert!(parse(&minimal("battery_j = inf\n")).unwrap().groups[0]
            .battery_j
            .is_none());
    }

    #[test]
    fn endpoint_role_forces_infinite_battery() {
        let err = parse(&minimal("role = \"endpoint\"\nbattery_j = 500\n")).unwrap_err();
        assert!(err.msg.contains("endpoint"), "{err}");
        let ok = parse(&minimal("role = \"endpoint\"\n")).unwrap();
        assert_eq!(ok.groups[0].battery_j, None);
    }

    #[test]
    fn mobility_param_for_wrong_model_is_rejected() {
        let err = parse(&minimal("mobility = \"waypoint\"\nblock_m = 80\n")).unwrap_err();
        assert!(err.msg.contains("does not apply"), "{err}");
        assert_eq!(err.line, 9, "{err}");
    }

    #[test]
    fn burst_keys_require_bursty_pattern() {
        let text = minimal("\n[traffic]\npattern = \"cbr\"\nflows = 1\non_s = 2\n");
        let err = parse(&text).unwrap_err();
        assert!(err.msg.contains("bursty"), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse(&minimal("count = 3\n")).unwrap_err();
        assert!(err.msg.contains("duplicate key `count`"), "{err}");
    }

    #[test]
    fn flows_require_an_eligible_pair() {
        let text = "[scenario]\nduration_s = 10\nseed = 1\n[[group]]\nname = \"r\"\ncount = 5\nrole = \"relay\"\n\n[traffic]\nflows = 2\n";
        let err = parse(text).unwrap_err();
        assert!(err.msg.contains("no (source, sink) pair"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# top\n[scenario] # side\nduration_s = 10\n\nseed = 1 # tail\n[[group]]\nname = \"g # not a comment\"\ncount = 1\n";
        let spec = parse(text).unwrap();
        assert_eq!(spec.groups[0].name, "g # not a comment");
    }

    #[test]
    fn total_host_ceiling_is_enforced() {
        let mut text = String::from("[scenario]\nduration_s = 10\nseed = 1\n");
        for i in 0..3 {
            text.push_str(&format!("[[group]]\nname = \"g{i}\"\ncount = 100000\n"));
        }
        let err = parse(&text).unwrap_err();
        assert!(err.msg.contains("ceiling"), "{err}");
    }
}
