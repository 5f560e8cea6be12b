//! A minimal hand-rolled JSON writer.
//!
//! The workspace builds on machines with no crates.io access, so machine
//! readable output (telemetry snapshots, every CLI's `--json` report, the
//! repro binary's `--json` dump) is serialized through this module instead
//! of an external library. Only what the observability layer needs is
//! implemented: objects, arrays, strings, integers, floats and booleans.

use std::fmt;

/// A JSON value tree, rendered through [`fmt::Display`].
///
/// # Examples
///
/// ```
/// use siopmp::json::Json;
/// let v = Json::object([
///     ("name", Json::str("cold_switch")),
///     ("cycles", Json::u64(341)),
/// ]);
/// assert_eq!(v.to_string(), r#"{"name":"cold_switch","cycles":341}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (JSON number).
    U64(u64),
    /// A signed integer (JSON number).
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn u64(v: u64) -> Json {
        Json::U64(v)
    }

    /// A float value.
    pub fn f64(v: f64) -> Json {
        Json::F64(v)
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Renders with two-space indentation (for humans; the compact form is
    /// the `Display` impl).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty(&mut out, 0);
        out
    }

    fn render_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&format!("{}:", Json::Str(k.clone())));
                    out.push(' ');
                    v.render_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => {
                out.push_str(&other.to_string());
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{}` on f64 always round-trips and never prints `inf`.
                    write!(f, "{v}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{}", Json::Str(k.clone()), v)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Version of the unified report envelope produced by [`envelope`]. Bump
/// when a field is added, removed or changes meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// Wraps a tool's machine-readable output in the workspace-wide report
/// envelope shared by `siopmp-scenario`, `repro --json`, `siopmp-prove`
/// and `siopmp-verify`:
///
/// ```json
/// {"schema_version": 1, "scenario": "...", "seed": 7, "threads": 4,
///  "payload": { ... tool-specific ... }}
/// ```
///
/// Downstream tooling parses one shape: `scenario` names what ran, `seed`
/// is `null` when the run draws no randomness, `threads` is the worker
/// count the run was executed with (1 for purely serial tools), and
/// everything tool-specific lives under `payload`.
///
/// # Examples
///
/// ```
/// use siopmp::json::{envelope, Json, SCHEMA_VERSION};
/// let doc = envelope("quickstart", Some(7), 4, Json::object([("ok", Json::Bool(true))]));
/// assert_eq!(
///     doc.to_string(),
///     format!(
///         r#"{{"schema_version":{SCHEMA_VERSION},"scenario":"quickstart","seed":7,"threads":4,"payload":{{"ok":true}}}}"#
///     )
/// );
/// ```
pub fn envelope(scenario: &str, seed: Option<u64>, threads: usize, payload: Json) -> Json {
    Json::object([
        ("schema_version", Json::u64(SCHEMA_VERSION)),
        ("scenario", Json::str(scenario)),
        ("seed", seed.map(Json::u64).unwrap_or(Json::Null)),
        ("threads", Json::u64(threads as u64)),
        ("payload", payload),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_carries_the_common_fields() {
        let doc = envelope("s", None, 1, Json::Null);
        let Json::Object(pairs) = &doc else {
            panic!("envelope must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["schema_version", "scenario", "seed", "threads", "payload"]
        );
        assert_eq!(pairs[2].1, Json::Null, "absent seed renders as null");
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(Json::f64(f64::NAN).to_string(), "null");
        assert_eq!(Json::f64(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::f64(1.5).to_string(), "1.5");
    }

    #[test]
    fn nested_structure_renders_compactly() {
        let v = Json::object([
            ("a", Json::array([Json::u64(1), Json::u64(2)])),
            ("b", Json::Bool(true)),
            ("c", Json::Null),
        ]);
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":true,"c":null}"#);
    }

    #[test]
    fn pretty_round_trips_values() {
        let v = Json::object([("x", Json::u64(1))]);
        let p = v.pretty();
        assert!(p.contains("\"x\": 1"), "{p}");
    }
}
