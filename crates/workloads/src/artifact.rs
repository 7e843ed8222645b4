//! One artifact framework for everything committed under `results/`.
//!
//! * [`Codec`] maps leaf values to JSON and back: `f64`, `Option<T>` ↔
//!   `null`, unsigned integers, strings, booleans and `Vec<T>`. Emission
//!   is strict ([`to_json`]): a NaN or infinity is an [`EmitError`]
//!   naming its JSON path, never a silent `null`.
//! * `record!` declares a record's fields once; the one declaration
//!   drives both the emitter and the validating parser, whose
//!   [`SchemaError`]s carry the JSON path of the first bad value.
//! * [`Artifact`] adds the artifact's id, its `.txt` rendering and the
//!   domain checks `--check` runs.
//! * [`registry`] lists all 26 committed artifacts with their full and
//!   smoke configurations; the `artifacts` binary drives it.
//!
//! [`check`] is the contract every committed pair satisfies: the JSON
//! parses, passes its domain check and re-emits byte for byte, and the
//! `.txt` re-renders from it byte for byte.

use crate::json::{self, EmitError, Value};
use crate::{ablations, faultsweep, figures, heatmap, torussweep, Figure};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A document that does not match the artifact's schema (or is not
/// JSON at all, at path `/`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// Slash-separated path of the offending value.
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for SchemaError {}

fn schema_error(message: String) -> SchemaError {
    SchemaError {
        path: String::new(),
        message,
    }
}

impl SchemaError {
    /// Prefixes the path with one segment as the error unwinds out of a
    /// nested value.
    fn within(mut self, segment: impl fmt::Display) -> Self {
        self.path = format!("/{segment}{}", self.path);
        self
    }

    /// The document root's path is `/`.
    fn rooted(mut self) -> Self {
        if self.path.is_empty() {
            self.path.push('/');
        }
        self
    }
}

/// A value with one JSON representation, parsed with validation. Error
/// paths are relative to the value.
pub trait Codec: Sized {
    /// The JSON form of `self` (non-finite numbers included; [`to_json`]
    /// rejects them).
    fn emit(&self) -> Value;

    /// Reads a value back from its JSON form.
    ///
    /// # Errors
    /// [`SchemaError`] for the first missing or mistyped value.
    fn parse(value: &Value) -> Result<Self, SchemaError>;
}

fn mismatch(want: &str, found: &Value) -> SchemaError {
    let found = match found {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    };
    schema_error(format!("expected {want}, found {found}"))
}

impl Codec for f64 {
    fn emit(&self) -> Value {
        Value::Number(*self)
    }

    fn parse(value: &Value) -> Result<f64, SchemaError> {
        match value {
            Value::Number(x) if x.is_finite() => Ok(*x),
            _ => Err(mismatch("a finite number", value)),
        }
    }
}

macro_rules! unsigned_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn emit(&self) -> Value {
                Value::Number(*self as f64)
            }

            fn parse(value: &Value) -> Result<$t, SchemaError> {
                match value {
                    Value::Number(x) if x.fract() == 0.0 && (0.0..=<$t>::MAX as f64).contains(x) => {
                        Ok(*x as $t)
                    }
                    _ => Err(mismatch(concat!("an integer in ", stringify!($t)), value)),
                }
            }
        }
    )*};
}

unsigned_codec!(u8, u32, u64, usize);

impl Codec for bool {
    fn emit(&self) -> Value {
        Value::Bool(*self)
    }

    fn parse(value: &Value) -> Result<bool, SchemaError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(mismatch("a boolean", value)),
        }
    }
}

impl Codec for String {
    fn emit(&self) -> Value {
        Value::String(self.clone())
    }

    fn parse(value: &Value) -> Result<String, SchemaError> {
        let s = value.as_str().ok_or_else(|| mismatch("a string", value))?;
        Ok(s.to_string())
    }
}

/// `None` is `null`: the only way an artifact may hold one.
impl<T: Codec> Codec for Option<T> {
    fn emit(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::emit)
    }

    fn parse(value: &Value) -> Result<Option<T>, SchemaError> {
        match value {
            Value::Null => Ok(None),
            _ => T::parse(value).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn emit(&self) -> Value {
        Value::Array(self.iter().map(T::emit).collect())
    }

    fn parse(value: &Value) -> Result<Vec<T>, SchemaError> {
        let items = value
            .as_array()
            .ok_or_else(|| mismatch("an array", value))?;
        let items = items.iter().enumerate();
        items
            .map(|(i, x)| T::parse(x).map_err(|e| e.within(i)))
            .collect()
    }
}

/// The members of an object declared with `record!`, which can also be
/// spliced into an enclosing record (`..field`).
pub(crate) trait Record: Sized {
    fn emit_members(&self, out: &mut Vec<(String, Value)>);
    fn parse_members(obj: &Value) -> Result<Self, SchemaError>;
}

// What the `record!` expansion calls, member by member.

pub(crate) fn parse_member<T: Codec>(obj: &Value, key: &str) -> Result<T, SchemaError> {
    match obj.get(key) {
        Some(v) => T::parse(v),
        None => Err(schema_error("missing field".into())),
    }
    .map_err(|e| e.within(key))
}

pub(crate) fn expect_member(obj: &Value, key: &str, want: Value) -> Result<(), SchemaError> {
    match obj.get(key) {
        Some(found) if *found == want => Ok(()),
        Some(found) => Err(schema_error(format!(
            "expected {}, found {}",
            want.to_string_pretty(),
            found.to_string_pretty()
        ))),
        None => Err(schema_error("missing field".into())),
    }
    .map_err(|e| e.within(key))
}

pub(crate) fn expect_object(value: &Value) -> Result<(), SchemaError> {
    match value {
        Value::Object(_) => Ok(()),
        _ => Err(mismatch("an object", value)),
    }
}

/// Declares a record's JSON members once, in output order, and derives
/// [`Record`] and [`Codec`] from that one list. A member is
///
/// * `field` — struct field `field` under its own name;
/// * `"key" => field` — struct field `field` under another name;
/// * `..field` — a nested [`Record`] spliced into this object;
/// * `const "key" = value` — a fixed member, checked on parse.
///
/// The parser builds the struct literal from the same list, so a struct
/// field left out of the declaration is a compile error.
macro_rules! record {
    ($ty:ty { $($body:tt)* }) => {
        impl $crate::artifact::Record for $ty {
            fn emit_members(&self, out: &mut Vec<(String, $crate::json::Value)>) {
                let this = self;
                $crate::artifact::record!(@emit this, out; $($body)*,);
            }

            fn parse_members(
                obj: &$crate::json::Value,
            ) -> Result<Self, $crate::artifact::SchemaError> {
                $crate::artifact::record!(@parse obj, []; $($body)*,)
            }
        }

        impl $crate::artifact::Codec for $ty {
            fn emit(&self) -> $crate::json::Value {
                let mut out = Vec::new();
                $crate::artifact::Record::emit_members(self, &mut out);
                $crate::json::Value::Object(out)
            }

            fn parse(value: &$crate::json::Value) -> Result<Self, $crate::artifact::SchemaError> {
                $crate::artifact::expect_object(value)?;
                $crate::artifact::Record::parse_members(value)
            }
        }
    };

    (@emit $s:ident, $o:ident; $(,)?) => {};
    (@emit $s:ident, $o:ident; const $key:literal = $val:expr, $($rest:tt)*) => {
        $o.push(($key.into(), $crate::json::Value::from($val)));
        $crate::artifact::record!(@emit $s, $o; $($rest)*);
    };
    (@emit $s:ident, $o:ident; .. $field:ident, $($rest:tt)*) => {
        $crate::artifact::Record::emit_members(&$s.$field, $o);
        $crate::artifact::record!(@emit $s, $o; $($rest)*);
    };
    (@emit $s:ident, $o:ident; $key:literal => $field:ident, $($rest:tt)*) => {
        $o.push(($key.into(), $crate::artifact::Codec::emit(&$s.$field)));
        $crate::artifact::record!(@emit $s, $o; $($rest)*);
    };
    (@emit $s:ident, $o:ident; $field:ident, $($rest:tt)*) => {
        $o.push((stringify!($field).into(), $crate::artifact::Codec::emit(&$s.$field)));
        $crate::artifact::record!(@emit $s, $o; $($rest)*);
    };

    (@parse $obj:ident, [$($acc:tt)*]; $(,)?) => {
        Ok(Self { $($acc)* })
    };
    (@parse $obj:ident, [$($acc:tt)*]; const $key:literal = $val:expr, $($rest:tt)*) => {{
        $crate::artifact::expect_member($obj, $key, $crate::json::Value::from($val))?;
        $crate::artifact::record!(@parse $obj, [$($acc)*]; $($rest)*)
    }};
    (@parse $obj:ident, [$($acc:tt)*]; .. $field:ident, $($rest:tt)*) => {
        $crate::artifact::record!(@parse $obj, [
            $($acc)* $field: $crate::artifact::Record::parse_members($obj)?,
        ]; $($rest)*)
    };
    (@parse $obj:ident, [$($acc:tt)*]; $key:literal => $field:ident, $($rest:tt)*) => {
        $crate::artifact::record!(@parse $obj, [
            $($acc)* $field: $crate::artifact::parse_member($obj, $key)?,
        ]; $($rest)*)
    };
    (@parse $obj:ident, [$($acc:tt)*]; $field:ident, $($rest:tt)*) => {
        $crate::artifact::record!(@parse $obj, [
            $($acc)* $field: $crate::artifact::parse_member($obj, stringify!($field))?,
        ]; $($rest)*)
    };
}

pub(crate) use record;

/// Emits `value` as pretty-printed JSON, strictly: a non-finite `f64`
/// anywhere fails with its path instead of becoming `null`.
///
/// # Errors
/// [`EmitError`] naming the first non-finite number.
pub fn to_json<T: Codec>(value: &T) -> Result<String, EmitError> {
    value.emit().to_string_pretty_strict()
}

/// Parses and validates a JSON document.
///
/// # Errors
/// [`SchemaError`] at `/` for malformed JSON, else at the first missing
/// or mistyped value.
pub fn from_json<T: Codec>(text: &str) -> Result<T, SchemaError> {
    let value = json::parse(text).map_err(|e| schema_error(e.to_string()).rooted())?;
    T::parse(&value).map_err(SchemaError::rooted)
}

/// A committed result: a codec plus its id, its `.txt` rendering and
/// its domain checks.
pub trait Artifact: Codec {
    /// The id, which names the files (`<id>.json`, `<id>.txt`).
    fn id(&self) -> &str;

    /// The `.txt` artifact.
    fn render(&self) -> String;

    /// Checks beyond the schema that every instance must pass (oracle
    /// verdicts, recovery shape, vector lengths, …).
    ///
    /// # Errors
    /// A message naming the first violation.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The two files of one artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Files {
    /// `<id>.json`, strictly emitted.
    pub json: String,
    /// `<id>.txt`.
    pub txt: String,
}

fn files<A: Artifact>(artifact: &A) -> Result<Files, EmitError> {
    let json = to_json(artifact)?;
    Ok(Files {
        json,
        txt: artifact.render(),
    })
}

/// The `--check` contract for an artifact of type `A` named `name`: the
/// JSON parses, carries id `name`, passes [`Artifact::check`] and
/// re-emits byte for byte, and `txt` is exactly its rendering.
///
/// # Errors
/// A message naming the first failed step.
pub fn check<A: Artifact>(name: &str, json: &str, txt: &str) -> Result<(), String> {
    let artifact: A = from_json(json).map_err(|e| format!("schema violation at {e}"))?;
    if artifact.id() != name {
        return Err(format!("id {:?} does not match the name", artifact.id()));
    }
    artifact.check()?;
    let again = files(&artifact).map_err(|e| e.to_string())?;
    let line = |a: &str, b: &str| 1 + a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count();
    if again.json != json {
        let line = line(json, &again.json);
        return Err(format!("JSON does not re-emit byte for byte (line {line})"));
    }
    if again.txt != txt {
        let line = line(txt, &again.txt);
        return Err(format!(
            ".txt does not re-render from the JSON (line {line})"
        ));
    }
    Ok(())
}

/// One registered artifact: how to regenerate it and how to check it.
pub struct Entry {
    /// The artifact id.
    pub name: &'static str,
    regen: Box<dyn Fn(bool) -> Result<Files, EmitError> + Send + Sync>,
    check: fn(&str, &str, &str) -> Result<(), String>,
}

impl Entry {
    /// Computes the artifact at its committed configuration or, with
    /// `smoke`, at the short CI configuration.
    ///
    /// # Errors
    /// [`EmitError`] if a non-`Option` field is not finite.
    pub fn regen(&self, smoke: bool) -> Result<Files, EmitError> {
        (self.regen)(smoke)
    }

    /// Runs [`check`] for this artifact.
    ///
    /// # Errors
    /// A message naming the first failed step.
    pub fn check(&self, json: &str, txt: &str) -> Result<(), String> {
        (self.check)(self.name, json, txt)
    }
}

fn entry<A: Artifact>(
    name: &'static str,
    make: impl Fn(bool) -> A + Send + Sync + 'static,
) -> Entry {
    Entry {
        name,
        regen: Box::new(move |smoke| files(&make(smoke))),
        check: check::<A>,
    }
}

/// Per-point trials of a figure: `paper`, or 3 under `--smoke`.
fn trials(smoke: bool, paper: usize) -> usize {
    if smoke {
        3
    } else {
        paper
    }
}

/// A figure pair computed once (Figures 11/12 and 13/14) and shared by
/// its two registry entries.
fn pair(make: fn(bool) -> (Figure, Figure)) -> impl Fn(bool, bool) -> Figure + Clone + Send + Sync {
    let memo: Arc<[OnceLock<(Figure, Figure)>; 2]> = Arc::default();
    move |smoke, second| {
        let (a, b) = memo[usize::from(smoke)].get_or_init(|| make(smoke));
        if second { b } else { a }.clone()
    }
}

/// Every committed artifact, in regeneration order: the paper's Figures
/// 9–14, the twelve ablations, the three figure-shaped extension
/// sweeps and the five structured sweeps.
#[must_use]
pub fn registry() -> Vec<Entry> {
    use crate::chaossweep::{chaos_sweep, ChaosSweepConfig as Chaos};
    use crate::collectivessweep::{collectives_sweep, CollectivesConfig as Collectives};
    use crate::lanesweep::{lane_sweep, LaneSweepConfig as Lanes};
    use crate::telemetrysweep::{telemetry_sweep, TelemetrySweepConfig as Telemetry};
    use crate::trafficsweep::{traffic_sweep, SweepConfig as Traffic};
    use figures::{PAPER_TRIALS_NCUBE as NCUBE, PAPER_TRIALS_STEPS as STEPS};
    fn pick<C>(smoke: bool, full: fn() -> C, small: fn() -> C) -> C {
        if smoke {
            small()
        } else {
            full()
        }
    }
    let fig11_12 = pair(|s| figures::fig11_12(trials(s, NCUBE)));
    let fig13_14 = pair(|s| figures::fig13_14(trials(s, STEPS)));
    let halves = [
        ("fig11", &fig11_12, false),
        ("fig12", &fig11_12, true),
        ("fig13", &fig13_14, false),
        ("fig14", &fig13_14, true),
    ];
    type MakeFigure = fn(usize) -> Figure;
    let others: [(&str, MakeFigure); 15] = [
        ("ablation_ports", ablations::ablation_ports),
        ("ablation_msgsize", ablations::ablation_message_size),
        ("ablation_sensitivity", ablations::ablation_sensitivity),
        ("ablation_optimality", ablations::ablation_optimality),
        ("ablation_contention", ablations::ablation_contention),
        ("ablation_load", ablations::ablation_background_load),
        ("ablation_pipelining", |_| ablations::ablation_pipelining()),
        ("ablation_scatter", ablations::ablation_scatter),
        ("ablation_scaling", ablations::ablation_scaling),
        ("ablation_concurrency", ablations::ablation_concurrency),
        ("ablation_fidelity", ablations::ablation_model_fidelity),
        ("ablation_kport", ablations::ablation_kport),
        ("fault_sweep", faultsweep::fault_sweep),
        ("torus_sweep", torussweep::torus_sweep),
        ("contention_heatmap", heatmap::contention_heatmap),
    ];
    let mut all = vec![
        entry("fig09", |s| figures::fig09(trials(s, STEPS))),
        entry("fig10", |s| figures::fig10(trials(s, STEPS))),
    ];
    all.extend(halves.map(|(name, pair, second)| {
        let pair = pair.clone();
        entry(name, move |s| pair(s, second))
    }));
    all.extend(others.map(|(name, make)| entry(name, move |s| make(trials(s, NCUBE)))));
    all.extend([
        entry("traffic_sweep", |s| {
            traffic_sweep(&pick(s, Traffic::full, Traffic::smoke))
        }),
        entry("chaos_sweep", |s| {
            chaos_sweep(&pick(s, Chaos::full, Chaos::smoke))
        }),
        entry("lane_sweep", |s| {
            lane_sweep(&pick(s, Lanes::full, Lanes::smoke))
        }),
        entry("telemetry_sweep", |s| {
            telemetry_sweep(&pick(s, Telemetry::full, Telemetry::smoke))
        }),
        entry("collectives_sweep", |s| {
            collectives_sweep(&pick(s, Collectives::full, Collectives::smoke))
        }),
    ]);
    all
}
