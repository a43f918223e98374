//! Wire serialization for campaign results — and the hand-rolled JSON
//! subset underneath it.
//!
//! The journal introduced a deliberately tiny JSON dialect (objects,
//! strings, unsigned integers, booleans) so the workspace stays hermetic.
//! The campaign service speaks the same dialect over HTTP, so the parser
//! lives here now — extended with arrays and finite floats (a
//! `CampaignSpec` carries a fault-kind list and an injection fraction; a
//! fitted correlation model carries a negative intercept and signed
//! residuals) — together with the full [`CampaignResult`] wire format and
//! the shard merge that recombines partial campaigns into one result.
//!
//! Serialization is **canonical**: one byte sequence per value, no
//! optional whitespace. The cache and the bit-for-bit merge guarantees
//! both lean on that.

pub mod fleet;

use crate::error::JournalError;
use crate::result::{CampaignResult, CampaignStats, FaultOutcome, FaultRecord};
use crate::safety::{Detection, Mechanism};
use crate::sites::{FaultSite, Target};
use crate::static_analysis::PrunedBy;
use rtl_sim::{FaultKind, NetId};
use sparc_isa::Unit;
use std::fmt::Write as _;

/// The JSON subset the journal and the campaign service use: objects,
/// arrays, strings, unsigned integers, finite floats and booleans.
/// Hand-rolled to keep the workspace hermetic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, as the parsed `(key, value)` pairs in source order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// An unsigned integer (no fraction part or sign in the source).
    Num(u64),
    /// A finite float (the source carried a fraction part or a leading
    /// minus sign — the dialect's only signed numbers are floats).
    /// Serializers must never emit NaN or an infinity; neither reparses.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Json {
    /// Parse a complete JSON value (trailing bytes are an error).
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on any syntax error, and on
    /// arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Look up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a string field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up an unsigned-integer field.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Look up a numeric field as a float (integers coerce).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Float(f) => Some(*f),
            Json::Num(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Look up a boolean field.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Look up an array field.
    pub fn get_array(&self, key: &str) -> Option<&[Json]> {
        match self.get(key)? {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// This value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serialize this value back to the dialect's canonical form: no
    /// whitespace, object fields in source order, strings escaped via
    /// [`escape_json`]. A value parsed from canonical text re-serializes
    /// byte-identically, which lets protocol messages embed an
    /// already-canonical object (a campaign spec, say) without the
    /// carrier re-interpreting it.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(32);
        self.write_json(&mut s);
        s
    }

    fn write_json(&self, s: &mut String) {
        match self {
            Json::Object(fields) => {
                s.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&escape_json(key));
                    s.push(':');
                    value.write_json(s);
                }
                s.push('}');
            }
            Json::Array(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write_json(s);
                }
                s.push(']');
            }
            Json::Str(text) => s.push_str(&escape_json(text)),
            Json::Num(n) => {
                let _ = write!(s, "{n}");
            }
            Json::Float(f) => {
                let _ = write!(s, "{f}");
            }
            Json::Bool(b) => {
                let _ = write!(s, "{b}");
            }
        }
    }
}

/// Escape a string into a JSON string literal (with quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a fault-kind name as produced by `FaultKind::name`
/// (e.g. `stuck-at-1`). Parameterless kinds only; the parameterized
/// time-varying kinds travel as tokens (see [`kind_from_token`]).
pub fn kind_from_name(name: &str) -> Option<FaultKind> {
    [
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::OpenLine,
        FaultKind::TransientFlip,
    ]
    .into_iter()
    .find(|k| k.name() == name)
}

/// Canonical wire token of a fault kind: the plain name for the
/// parameterless kinds (byte-identical to the pre-v5 wire form), and
/// `name(field=value,...)` with fields in declaration order for the
/// parameterized time-varying kinds, e.g.
/// `intermittent-stuck(level=1,period=8,duty=2,phase=0)` or
/// `transient-burst(flips=3,spacing=4)`.
pub fn kind_to_token(kind: FaultKind) -> String {
    match kind {
        FaultKind::IntermittentStuck {
            level,
            period,
            duty,
            phase,
        } => format!(
            "intermittent-stuck(level={},period={period},duty={duty},phase={phase})",
            u8::from(level)
        ),
        FaultKind::TransientBurst { flips, spacing } => {
            format!("transient-burst(flips={flips},spacing={spacing})")
        }
        _ => kind.name().to_string(),
    }
}

/// Parse a [`kind_to_token`] token back into a kind, validating both the
/// syntax (field names and order are canonical) and the parameter ranges.
pub fn kind_from_token(token: &str) -> Result<FaultKind, String> {
    if let Some(kind) = kind_from_name(token) {
        return Ok(kind);
    }
    let (base, params) = match token.split_once('(') {
        Some((base, rest)) => {
            let params = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("fault-kind token `{token}` missing closing `)`"))?;
            (base, params)
        }
        None => return Err(format!("unknown fault kind `{token}`")),
    };
    let fields: Vec<(&str, &str)> = params
        .split(',')
        .map(|pair| {
            pair.split_once('=')
                .ok_or_else(|| format!("malformed fault-kind parameter `{pair}` in `{token}`"))
        })
        .collect::<Result<_, _>>()?;
    let expect = |names: &[&str]| -> Result<Vec<u64>, String> {
        if fields.len() != names.len() || fields.iter().map(|(n, _)| *n).ne(names.iter().copied()) {
            return Err(format!(
                "fault-kind token `{token}` must carry exactly the fields {names:?} in order"
            ));
        }
        fields
            .iter()
            .map(|(name, value)| {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("fault-kind field `{name}` in `{token}` is not a number"))
            })
            .collect()
    };
    let kind = match base {
        "intermittent-stuck" => {
            let v = expect(&["level", "period", "duty", "phase"])?;
            if v[0] > 1 {
                return Err(format!(
                    "fault-kind field `level` in `{token}` must be 0 or 1"
                ));
            }
            FaultKind::IntermittentStuck {
                level: v[0] == 1,
                period: v[1],
                duty: v[2],
                phase: v[3],
            }
        }
        "transient-burst" => {
            let v = expect(&["flips", "spacing"])?;
            let flips = u32::try_from(v[0])
                .map_err(|_| format!("fault-kind field `flips` in `{token}` out of range"))?;
            FaultKind::TransientBurst {
                flips,
                spacing: v[1],
            }
        }
        _ => return Err(format!("unknown fault kind `{token}`")),
    };
    kind.validate()?;
    Ok(kind)
}

/// The canonical wire token of an injection domain — the same tokens the
/// `repro campaign` CLI uses (`"iu"`, `"cmem"`, `"whole"`).
pub fn target_to_token(target: Target) -> &'static str {
    match target {
        Target::IntegerUnit => "iu",
        Target::CacheMemory => "cmem",
        Target::Whole => "whole",
    }
}

/// Parse a [`target_to_token`] token back into a target.
pub fn target_from_token(token: &str) -> Option<Target> {
    match token {
        "iu" => Some(Target::IntegerUnit),
        "cmem" => Some(Target::CacheMemory),
        "whole" => Some(Target::Whole),
        _ => None,
    }
}

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// (and the drop of the value it builds) recurse once per level, so an
/// unbounded depth lets one request body of `[`s overflow the stack of
/// whatever thread parses it. Every message of the dialect nests a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )),
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if digits_start == self.pos {
            return Err(format!("bad number at offset {start}"));
        }
        // A fraction part turns the token into a float, and so does a
        // sign: the dialect's integers are exact u64 (the journal's
        // hashes don't survive an f64 round trip), so every negative
        // number — fraction or not — is a float. Rust's `{}` Display for
        // f64 never emits an exponent, so the canonical bytes round-trip.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if frac_start == self.pos {
                return Err(format!("bad number at offset {start}"));
            }
        } else if !negative {
            return std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at offset {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Float)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            // Surrogate pairs cover payloads with
                            // non-BMP characters.
                            let c = if (0xd800..0xdc00).contains(&first) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let second = self.hex4()?;
                                let combined = 0x10000
                                    + ((first - 0xd800) << 10)
                                    + (second.checked_sub(0xdc00).ok_or("bad low surrogate")?);
                                char::from_u32(combined).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(first).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated \\u escape")?;
        let v = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or("bad \\u escape digits")?;
        self.pos = end;
        Ok(v)
    }
}

/// Append one record's fields (no surrounding braces) — shared between a
/// journal entry line and a wire result's record objects, so the two
/// formats cannot drift.
pub(crate) fn write_record_fields(s: &mut String, record: &FaultRecord) {
    let _ = write!(
        s,
        "\"net\":{},\"bit\":{},\"unit\":\"{}\",\"kind\":\"{}\",\"outcome\":",
        record.site.net.raw(),
        record.site.bit,
        record.site.unit.name(),
        kind_to_token(record.kind),
    );
    s.push_str(&outcome_to_json(&record.outcome));
    let _ = write!(s, ",\"activated\":{}", record.activated);
    if let Detection::Detected {
        mechanism,
        latency_cycles,
        latency_writes,
    } = record.detection
    {
        // The mechanism name is a fixed enum today, but escaping it
        // keeps the serializer honest if that ever changes.
        let _ = write!(
            s,
            ",\"detected_by\":{},\"det_latency\":{latency_cycles},\
             \"det_writes\":{latency_writes}",
            escape_json(mechanism.name()),
        );
    }
    // Emitted only when present, like the detection fields, so every
    // pre-static-analysis record serializes byte-identically.
    if let Some(pruned_by) = record.pruned_by {
        let _ = write!(s, ",\"pruned_by\":\"{}\"", pruned_by.name());
    }
}

/// Reconstruct a record from a parsed object carrying the
/// [`write_record_fields`] fields.
pub(crate) fn record_from_obj(v: &Json) -> Result<FaultRecord, String> {
    let num = |key: &str| {
        v.get_u64(key)
            .ok_or_else(|| format!("missing numeric `{key}`"))
    };
    let txt = |key: &str| {
        v.get_str(key)
            .ok_or_else(|| format!("missing string `{key}`"))
    };
    let unit_name = txt("unit")?;
    let unit = Unit::ALL
        .into_iter()
        .find(|u| u.name() == unit_name)
        .ok_or_else(|| format!("unknown unit `{unit_name}`"))?;
    let kind = kind_from_token(txt("kind")?)?;
    let outcome = outcome_from_json(v.get("outcome").ok_or("missing `outcome`")?)?;
    let detection = match v.get_str("detected_by") {
        Some(name) => {
            let mechanism =
                Mechanism::from_name(name).ok_or_else(|| format!("unknown mechanism `{name}`"))?;
            Detection::Detected {
                mechanism,
                latency_cycles: num("det_latency")?,
                latency_writes: num("det_writes")?,
            }
        }
        None => Detection::Undetected,
    };
    let pruned_by = match v.get_str("pruned_by") {
        Some(name) => {
            Some(PrunedBy::from_name(name).ok_or_else(|| format!("unknown pruned_by `{name}`"))?)
        }
        None => None,
    };
    Ok(FaultRecord {
        site: FaultSite {
            net: NetId::from_raw(num("net")? as u32),
            bit: num("bit")? as u8,
            unit,
        },
        kind,
        outcome,
        activated: v.get_bool("activated").ok_or("missing bool `activated`")?,
        detection,
        pruned_by,
    })
}

pub(crate) fn outcome_to_json(outcome: &FaultOutcome) -> String {
    match outcome {
        FaultOutcome::NoEffect => "{\"t\":\"no_effect\"}".to_string(),
        FaultOutcome::Failure {
            divergence,
            latency_cycles,
        } => format!(
            "{{\"t\":\"failure\",\"divergence\":{divergence},\"latency\":{latency_cycles}}}"
        ),
        FaultOutcome::Hang { latency_cycles } => {
            format!("{{\"t\":\"hang\",\"latency\":{latency_cycles}}}")
        }
        FaultOutcome::ErrorModeStop { latency_cycles } => {
            format!("{{\"t\":\"error_mode\",\"latency\":{latency_cycles}}}")
        }
        FaultOutcome::EngineAnomaly { payload } => {
            format!("{{\"t\":\"anomaly\",\"payload\":{}}}", escape_json(payload))
        }
    }
}

pub(crate) fn outcome_from_json(v: &Json) -> Result<FaultOutcome, String> {
    let tag = v.get_str("t").ok_or("outcome missing `t`")?;
    match tag {
        "no_effect" => Ok(FaultOutcome::NoEffect),
        "failure" => Ok(FaultOutcome::Failure {
            divergence: v
                .get_u64("divergence")
                .ok_or("failure missing `divergence`")? as usize,
            latency_cycles: v.get_u64("latency").ok_or("failure missing `latency`")?,
        }),
        "hang" => Ok(FaultOutcome::Hang {
            latency_cycles: v.get_u64("latency").ok_or("hang missing `latency`")?,
        }),
        "error_mode" => Ok(FaultOutcome::ErrorModeStop {
            latency_cycles: v.get_u64("latency").ok_or("error_mode missing `latency`")?,
        }),
        "anomaly" => Ok(FaultOutcome::EngineAnomaly {
            payload: v
                .get_str("payload")
                .ok_or("anomaly missing `payload`")?
                .to_string(),
        }),
        other => Err(format!("unknown outcome tag `{other}`")),
    }
}

/// Read one stats counter for serialization.
type StatsGet = fn(&CampaignStats) -> u64;
/// Write one stats counter back while parsing.
type StatsSet = fn(&mut CampaignStats, u64);

/// The stats fields on the wire, in serialization order. One table drives
/// both directions so the formats cannot drift.
const STATS_FIELDS: [(&str, StatsGet, StatsSet); 25] = [
    ("jobs", |s| s.jobs as u64, |s, v| s.jobs = v as usize),
    ("forked", |s| s.forked as u64, |s, v| s.forked = v as usize),
    (
        "full_reexecutions",
        |s| s.full_reexecutions as u64,
        |s, v| s.full_reexecutions = v as usize,
    ),
    (
        "skipped_inactive",
        |s| s.skipped_inactive as u64,
        |s, v| s.skipped_inactive = v as usize,
    ),
    (
        "short_circuited",
        |s| s.short_circuited as u64,
        |s, v| s.short_circuited = v as usize,
    ),
    (
        "timed_out",
        |s| s.timed_out as u64,
        |s, v| s.timed_out = v as usize,
    ),
    (
        "retried",
        |s| s.retried as u64,
        |s, v| s.retried = v as usize,
    ),
    (
        "anomalies",
        |s| s.anomalies as u64,
        |s, v| s.anomalies = v as usize,
    ),
    (
        "resumed",
        |s| s.resumed as u64,
        |s, v| s.resumed = v as usize,
    ),
    (
        "restored_from_checkpoint",
        |s| s.restored_from_checkpoint as u64,
        |s, v| s.restored_from_checkpoint = v as usize,
    ),
    (
        "replay_cycles",
        |s| s.replay_cycles,
        |s, v| s.replay_cycles = v,
    ),
    (
        "checkpoints_taken",
        |s| s.checkpoints_taken as u64,
        |s, v| s.checkpoints_taken = v as usize,
    ),
    (
        "checkpoint_bytes",
        |s| s.checkpoint_bytes,
        |s, v| s.checkpoint_bytes = v,
    ),
    (
        "prefix_cycles",
        |s| s.prefix_cycles,
        |s, v| s.prefix_cycles = v,
    ),
    (
        "golden_cycles",
        |s| s.golden_cycles,
        |s, v| s.golden_cycles = v,
    ),
    (
        "cycles_simulated",
        |s| s.cycles_simulated,
        |s, v| s.cycles_simulated = v,
    ),
    (
        "cycles_avoided",
        |s| s.cycles_avoided,
        |s, v| s.cycles_avoided = v,
    ),
    ("safe", |s| s.safe as u64, |s, v| s.safe = v as usize),
    (
        "detected_lockstep",
        |s| s.detected_lockstep as u64,
        |s, v| s.detected_lockstep = v as usize,
    ),
    (
        "detected_parity",
        |s| s.detected_parity as u64,
        |s, v| s.detected_parity = v as usize,
    ),
    (
        "detected_watchdog",
        |s| s.detected_watchdog as u64,
        |s, v| s.detected_watchdog = v as usize,
    ),
    (
        "residual",
        |s| s.residual as u64,
        |s, v| s.residual = v as usize,
    ),
    ("latent", |s| s.latent as u64, |s, v| s.latent = v as usize),
    (
        "statically_pruned",
        |s| s.statically_pruned as u64,
        |s, v| s.statically_pruned = v as usize,
    ),
    (
        "collapsed_classes",
        |s| s.collapsed_classes as u64,
        |s, v| s.collapsed_classes = v as usize,
    ),
];

fn stats_to_json(stats: &CampaignStats) -> String {
    let mut s = String::with_capacity(STATS_FIELDS.len() * 24);
    s.push('{');
    for (i, (name, get, _)) in STATS_FIELDS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{}", get(stats));
    }
    s.push('}');
    s
}

fn stats_from_obj(v: &Json) -> Result<CampaignStats, String> {
    let mut stats = CampaignStats::default();
    for (name, _, set) in &STATS_FIELDS {
        set(
            &mut stats,
            v.get_u64(name)
                .ok_or_else(|| format!("stats missing `{name}`"))?,
        );
    }
    Ok(stats)
}

/// Serialize a full campaign result — every record plus the cost ledger —
/// as one canonical JSON object.
pub fn result_to_json(result: &CampaignResult) -> String {
    let mut s = String::with_capacity(64 + result.records().len() * 96);
    s.push_str("{\"records\":[");
    for (i, record) in result.records().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        write_record_fields(&mut s, record);
        s.push('}');
    }
    s.push_str("],\"stats\":");
    s.push_str(&stats_to_json(result.stats()));
    s.push('}');
    s
}

/// Reconstruct a campaign result from a parsed [`result_to_json`] object.
///
/// # Errors
///
/// Fails with a human-readable reason on a missing or mistyped field.
pub fn result_from_obj(v: &Json) -> Result<CampaignResult, String> {
    let records = v
        .get_array("records")
        .ok_or("missing `records`")?
        .iter()
        .map(record_from_obj)
        .collect::<Result<Vec<FaultRecord>, String>>()?;
    let stats = stats_from_obj(v.get("stats").ok_or("missing `stats`")?)?;
    Ok(CampaignResult::with_stats(records, stats))
}

/// Parse a [`result_to_json`] string.
///
/// # Errors
///
/// Fails with a human-readable reason on syntax or schema errors.
pub fn result_from_json(text: &str) -> Result<CampaignResult, String> {
    result_from_obj(&Json::parse(text)?)
}

/// One shard's worth of a campaign: the campaign's public fingerprint,
/// the shard coordinates, and the records the shard actually ran. The
/// unsharded case is `index 0 / count 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// [`crate::Campaign::fingerprint`] of the (unsharded) campaign.
    pub fingerprint: String,
    /// Which shard this is (`0..count`).
    pub index: u32,
    /// How many shards the campaign was split into.
    pub count: u32,
    /// The shard's result.
    pub result: CampaignResult,
}

impl ShardResult {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fingerprint\":{},\"shard_index\":{},\"shard_count\":{},\"result\":{}}}",
            escape_json(&self.fingerprint),
            self.index,
            self.count,
            result_to_json(&self.result),
        )
    }

    /// Reconstruct from a parsed [`ShardResult::to_json`] object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<ShardResult, String> {
        Ok(ShardResult {
            fingerprint: v
                .get_str("fingerprint")
                .ok_or("missing `fingerprint`")?
                .to_string(),
            index: v.get_u64("shard_index").ok_or("missing `shard_index`")? as u32,
            count: v.get_u64("shard_count").ok_or("missing `shard_count`")? as u32,
            result: result_from_obj(v.get("result").ok_or("missing `result`")?)?,
        })
    }

    /// Parse a [`ShardResult::to_json`] string.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on syntax or schema errors.
    pub fn parse(text: &str) -> Result<ShardResult, String> {
        ShardResult::from_obj(&Json::parse(text)?)
    }
}

/// Recombine the shards of one campaign into the unsharded
/// [`CampaignResult`], **bit-for-bit**.
///
/// Sharding partitions the job list by stride (job `j` runs in shard
/// `j % n`), so the original record order is reconstructed round-robin.
/// The merged stats equal the unsharded run's: per-job counters sum
/// across shards, while the shared fault-free prefix — which every fork
/// shard simulated for itself — is de-duplicated down to the single
/// prefix the unsharded campaign pays.
///
/// # Errors
///
/// Refuses (with [`JournalError::HeaderMismatch`] naming the field) shards
/// of different campaigns (`fingerprint`), inconsistent shard geometry
/// (`shard_count`, a duplicate or missing `shard_index`), shards whose
/// golden facts disagree (`golden_cycles`, `prefix_cycles`), or a shard
/// with the wrong number of records (`jobs`). An empty input is
/// [`JournalError::MissingHeader`] (there is nothing to identify the
/// campaign by).
pub fn merge_shards(mut shards: Vec<ShardResult>) -> Result<ShardResult, JournalError> {
    let Some(first) = shards.first() else {
        return Err(JournalError::MissingHeader);
    };
    let fingerprint = first.fingerprint.clone();
    let count = first.count;
    for s in &shards {
        if s.fingerprint != fingerprint {
            return Err(JournalError::HeaderMismatch {
                field: "fingerprint",
                expected: fingerprint,
                found: s.fingerprint.clone(),
            });
        }
        if s.count != count {
            return Err(JournalError::HeaderMismatch {
                field: "shard_count",
                expected: count.to_string(),
                found: s.count.to_string(),
            });
        }
    }
    if shards.len() != count as usize {
        return Err(JournalError::HeaderMismatch {
            field: "shard_count",
            expected: count.to_string(),
            found: shards.len().to_string(),
        });
    }
    shards.sort_by_key(|s| s.index);
    for (i, s) in shards.iter().enumerate() {
        if s.index != i as u32 {
            return Err(JournalError::HeaderMismatch {
                field: "shard_index",
                expected: i.to_string(),
                found: s.index.to_string(),
            });
        }
    }
    let n = shards.len();
    let golden_cycles = shards[0].result.stats().golden_cycles;
    let prefix_cycles = shards[0].result.stats().prefix_cycles;
    for s in &shards[1..] {
        if s.result.stats().golden_cycles != golden_cycles {
            return Err(JournalError::HeaderMismatch {
                field: "golden_cycles",
                expected: golden_cycles.to_string(),
                found: s.result.stats().golden_cycles.to_string(),
            });
        }
        if s.result.stats().prefix_cycles != prefix_cycles {
            return Err(JournalError::HeaderMismatch {
                field: "prefix_cycles",
                expected: prefix_cycles.to_string(),
                found: s.result.stats().prefix_cycles.to_string(),
            });
        }
    }
    // The stride partition fixes each shard's record count exactly.
    let total: usize = shards.iter().map(|s| s.result.records().len()).sum();
    for (i, s) in shards.iter().enumerate() {
        let expected = total / n + usize::from(i < total % n);
        if s.result.records().len() != expected {
            return Err(JournalError::HeaderMismatch {
                field: "jobs",
                expected: expected.to_string(),
                found: s.result.records().len().to_string(),
            });
        }
    }
    // Reassemble the original job order: job j lives in shard j % n, at
    // the shard's next unconsumed position.
    let mut cursors = vec![0usize; n];
    let mut records = Vec::with_capacity(total);
    for j in 0..total {
        let s = j % n;
        records.push(shards[s].result.records()[cursors[s]].clone());
        cursors[s] += 1;
    }
    let mut stats = CampaignStats::default();
    for s in &shards {
        stats.merge(s.result.stats());
    }
    // Every fork shard simulated the shared fault-free prefix for
    // itself (and captured its own identical checkpoint pool); the
    // unsharded campaign pays for both exactly once.
    stats.cycles_simulated -= prefix_cycles * (n as u64 - 1);
    stats.prefix_cycles = prefix_cycles;
    stats.checkpoints_taken = shards[0].result.stats().checkpoints_taken;
    stats.checkpoint_bytes = shards[0].result.stats().checkpoint_bytes;
    Ok(ShardResult {
        fingerprint,
        index: 0,
        count: 1,
        result: CampaignResult::with_stats(records, stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::Detection;

    fn record(net: u32, outcome: FaultOutcome, detection: Detection) -> FaultRecord {
        FaultRecord {
            site: FaultSite {
                net: NetId::from_raw(net),
                bit: 3,
                unit: Unit::Fetch,
            },
            kind: FaultKind::StuckAt1,
            outcome,
            activated: true,
            detection,
            pruned_by: None,
        }
    }

    fn result_with(records: Vec<FaultRecord>, stats: CampaignStats) -> CampaignResult {
        CampaignResult::with_stats(records, stats)
    }

    #[test]
    fn json_arrays_and_floats_parse() {
        let v = Json::parse(r#"{"kinds":["a","b"],"frac":0.25,"n":7}"#).unwrap();
        let kinds: Vec<&str> = v
            .get_array("kinds")
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(kinds, ["a", "b"]);
        assert_eq!(v.get_f64("frac"), Some(0.25));
        // Integers coerce to f64 but not the other way round.
        assert_eq!(v.get_f64("n"), Some(7.0));
        assert_eq!(v.get_u64("frac"), None);
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(Vec::new()));
        assert!(Json::parse("0.").is_err());
    }

    #[test]
    fn signed_numbers_parse_as_floats_and_round_trip() {
        // Any leading minus makes a float — the dialect's integers are
        // unsigned — and the canonical bytes survive a round trip.
        for (text, value) in [
            ("-0.0191", -0.0191),
            ("-5", -5.0),
            ("-0", -0.0),
            ("-123.456", -123.456),
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed, Json::Float(value), "{text}");
            assert_eq!(Json::parse(&parsed.to_json()).unwrap(), parsed, "{text}");
        }
        let v = Json::parse(r#"{"b":-0.0191,"residuals":[-0.01,0.02,-3]}"#).unwrap();
        assert_eq!(v.get_f64("b"), Some(-0.0191));
        assert_eq!(v.get_u64("b"), None);
        // Refusals: a bare minus, and a minus with only a fraction.
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("-.5").is_err());
        assert!(Json::parse(r#"{"x":-}"#).is_err());
    }

    #[test]
    fn target_tokens_round_trip() {
        for target in [Target::IntegerUnit, Target::CacheMemory, Target::Whole] {
            assert_eq!(target_from_token(target_to_token(target)), Some(target));
        }
        assert_eq!(target_from_token("alu"), None);
    }

    #[test]
    fn kind_tokens_round_trip_and_validate() {
        let kinds = [
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
            FaultKind::TransientFlip,
            FaultKind::IntermittentStuck {
                level: true,
                period: 8,
                duty: 2,
                phase: 5,
            },
            FaultKind::IntermittentStuck {
                level: false,
                period: 1,
                duty: 1,
                phase: 0,
            },
            FaultKind::TransientBurst {
                flips: 3,
                spacing: 4,
            },
        ];
        for kind in kinds {
            assert_eq!(kind_from_token(&kind_to_token(kind)), Ok(kind));
        }
        // Parameterless kinds stay byte-identical to the pre-v5 names.
        assert_eq!(kind_to_token(FaultKind::StuckAt1), "stuck-at-1");
        assert_eq!(
            kind_to_token(FaultKind::IntermittentStuck {
                level: true,
                period: 8,
                duty: 2,
                phase: 0
            }),
            "intermittent-stuck(level=1,period=8,duty=2,phase=0)"
        );
        // Refusals: unknown names, wrong field order, out-of-range params.
        assert!(kind_from_token("bitrot").is_err());
        assert!(kind_from_token("intermittent-stuck(period=8,level=1,duty=2,phase=0)").is_err());
        assert!(kind_from_token("intermittent-stuck(level=1,period=8,duty=9,phase=0)").is_err());
        assert!(kind_from_token("transient-burst(flips=0,spacing=1)").is_err());
        assert!(kind_from_token("transient-burst(flips=1,spacing=1").is_err());
    }

    #[test]
    fn time_varying_record_round_trips() {
        let mut rec = record(4, FaultOutcome::NoEffect, Detection::Undetected);
        rec.kind = FaultKind::IntermittentStuck {
            level: false,
            period: 12,
            duty: 3,
            phase: 7,
        };
        let result = result_with(vec![rec], CampaignStats::default());
        let text = result_to_json(&result);
        assert!(text.contains("intermittent-stuck(level=0,period=12,duty=3,phase=7)"));
        assert_eq!(result_from_json(&text).unwrap(), result);
    }

    #[test]
    fn result_round_trips() {
        let records = vec![
            record(4, FaultOutcome::NoEffect, Detection::Undetected),
            record(
                9,
                FaultOutcome::Failure {
                    divergence: 2,
                    latency_cycles: 81,
                },
                Detection::Detected {
                    mechanism: Mechanism::Lockstep,
                    latency_cycles: 40,
                    latency_writes: 2,
                },
            ),
            record(
                11,
                FaultOutcome::EngineAnomaly {
                    payload: "panic with \"quotes\"\nand 🚗".to_string(),
                },
                Detection::Undetected,
            ),
        ];
        let stats = CampaignStats {
            jobs: 3,
            forked: 2,
            prefix_cycles: 120,
            golden_cycles: 4_000,
            cycles_simulated: 999,
            residual: 1,
            ..CampaignStats::default()
        };
        let result = result_with(records, stats);
        let text = result_to_json(&result);
        assert_eq!(result_from_json(&text).unwrap(), result);
        // Canonical: serializing the round trip reproduces the bytes.
        assert_eq!(result_to_json(&result_from_json(&text).unwrap()), text);
    }

    #[test]
    fn provenance_and_pruning_stats_round_trip() {
        let mut collapsed = record(
            7,
            FaultOutcome::Failure {
                divergence: 5,
                latency_cycles: 33,
            },
            Detection::Undetected,
        );
        collapsed.pruned_by = Some(crate::static_analysis::PrunedBy::Collapsed);
        let mut pruned = record(8, FaultOutcome::NoEffect, Detection::Undetected);
        pruned.pruned_by = Some(crate::static_analysis::PrunedBy::Static);
        let stats = CampaignStats {
            jobs: 2,
            statically_pruned: 2,
            collapsed_classes: 1,
            ..CampaignStats::default()
        };
        let result = result_with(vec![collapsed, pruned], stats);
        let text = result_to_json(&result);
        assert!(text.contains("\"pruned_by\":\"collapsed\""));
        assert!(text.contains("\"pruned_by\":\"static\""));
        assert!(text.contains("\"statically_pruned\":2"));
        assert!(text.contains("\"collapsed_classes\":1"));
        assert_eq!(result_from_json(&text).unwrap(), result);
        assert_eq!(result_to_json(&result_from_json(&text).unwrap()), text);
        // Unknown provenance names are structural errors, not data.
        let bad = text.replace("\"pruned_by\":\"static\"", "\"pruned_by\":\"oracle\"");
        assert!(result_from_json(&bad).is_err());
    }

    #[test]
    fn shard_result_round_trips() {
        let shard = ShardResult {
            fingerprint: "0123456789abcdef-fedcba9876543210".to_string(),
            index: 1,
            count: 3,
            result: result_with(
                vec![record(2, FaultOutcome::NoEffect, Detection::Undetected)],
                CampaignStats {
                    jobs: 1,
                    ..CampaignStats::default()
                },
            ),
        };
        assert_eq!(ShardResult::parse(&shard.to_json()).unwrap(), shard);
    }

    #[test]
    fn merge_refuses_mismatches() {
        let mk = |fp: &str, index, count, records: usize| ShardResult {
            fingerprint: fp.to_string(),
            index,
            count,
            result: result_with(
                (0..records)
                    .map(|i| record(i as u32, FaultOutcome::NoEffect, Detection::Undetected))
                    .collect(),
                CampaignStats {
                    jobs: records,
                    ..CampaignStats::default()
                },
            ),
        };
        assert_eq!(merge_shards(Vec::new()), Err(JournalError::MissingHeader));
        assert!(matches!(
            merge_shards(vec![mk("aa", 0, 2, 1), mk("bb", 1, 2, 1)]),
            Err(JournalError::HeaderMismatch {
                field: "fingerprint",
                ..
            })
        ));
        assert!(matches!(
            merge_shards(vec![mk("aa", 0, 2, 1), mk("aa", 1, 3, 1)]),
            Err(JournalError::HeaderMismatch {
                field: "shard_count",
                ..
            })
        ));
        // A missing shard: two declared, one supplied.
        assert!(matches!(
            merge_shards(vec![mk("aa", 0, 2, 1)]),
            Err(JournalError::HeaderMismatch {
                field: "shard_count",
                ..
            })
        ));
        // A duplicate index.
        assert!(matches!(
            merge_shards(vec![mk("aa", 1, 2, 1), mk("aa", 1, 2, 1)]),
            Err(JournalError::HeaderMismatch {
                field: "shard_index",
                ..
            })
        ));
        // Record counts that cannot come from a stride partition.
        assert!(matches!(
            merge_shards(vec![mk("aa", 0, 2, 3), mk("aa", 1, 2, 1)]),
            Err(JournalError::HeaderMismatch { field: "jobs", .. })
        ));
    }

    #[test]
    fn merge_reassembles_round_robin_and_dedups_the_prefix() {
        // Jobs 0..5 striped over two shards: shard 0 holds jobs {0,2,4},
        // shard 1 holds {1,3}. Net id encodes the original job index.
        let rec = |j: u32| record(j, FaultOutcome::NoEffect, Detection::Undetected);
        let stats = |jobs, sim| CampaignStats {
            jobs,
            prefix_cycles: 100,
            golden_cycles: 500,
            cycles_simulated: sim,
            ..CampaignStats::default()
        };
        let shards = vec![
            ShardResult {
                fingerprint: "fp".to_string(),
                index: 1,
                count: 2,
                result: result_with(vec![rec(1), rec(3)], stats(2, 160)),
            },
            ShardResult {
                fingerprint: "fp".to_string(),
                index: 0,
                count: 2,
                result: result_with(vec![rec(0), rec(2), rec(4)], stats(3, 190)),
            },
        ];
        let merged = merge_shards(shards).unwrap();
        assert_eq!((merged.index, merged.count), (0, 1));
        let order: Vec<u32> = merged
            .result
            .records()
            .iter()
            .map(|r| r.site.net.raw())
            .collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        let s = merged.result.stats();
        assert_eq!(s.jobs, 5);
        assert_eq!(s.prefix_cycles, 100, "prefix billed once");
        assert_eq!(
            s.cycles_simulated,
            190 + 160 - 100,
            "one duplicate prefix removed"
        );
        assert_eq!(s.golden_cycles, 500);
    }
}
