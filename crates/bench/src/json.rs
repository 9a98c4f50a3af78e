//! The one JSON writer behind every `BENCH_*.json` artifact, and the
//! [`Artifact`] trait that pairs each report's JSON with its gates.
//!
//! The workspace has no serde. A report builds a [`Json`] tree; the
//! writer prints it with a two-space indent, arrays of scalars on one
//! line, and every measured number at the precision its field
//! declares, so a regenerated artifact differs from the committed one
//! only in its numbers.

/// A JSON value, as the artifacts use it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An exact count, size or seed.
    Int(u64),
    /// A measured number and the decimals it is printed with. A NaN or
    /// infinite value prints as `null` and fails [`Artifact::check`].
    Num(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in output order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// The pretty-printed text (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x, decimals) if x.is_finite() => out.push_str(&format!("{x:.decimals$}")),
            Json::Num(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.iter().all(Json::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    push_indent(out, indent + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// True when `key` names a member of this object or of any object
    /// nested in it.
    pub fn has_key(&self, key: &str) -> bool {
        match self {
            Json::Obj(members) => members.iter().any(|(k, v)| k == key || v.has_key(key)),
            Json::Arr(items) => items.iter().any(|v| v.has_key(key)),
            _ => false,
        }
    }

    /// One message per NaN or infinite number, naming its path
    /// (`a.b[2].c`).
    pub fn non_finite(&self) -> Vec<String> {
        let mut found = Vec::new();
        self.collect_non_finite(String::new(), &mut found);
        found
    }

    fn collect_non_finite(&self, path: String, found: &mut Vec<String>) {
        match self {
            Json::Num(x, _) if !x.is_finite() => found.push(format!("{path} is not finite ({x})")),
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    item.collect_non_finite(format!("{path}[{i}]"), found);
                }
            }
            Json::Obj(members) => {
                for (key, value) in members {
                    let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    value.collect_non_finite(path, found);
                }
            }
            _ => {}
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<u16> for Json {
    fn from(n: u16) -> Json {
        Json::Int(n.into())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A report that becomes one `BENCH_*.json` artifact.
pub trait Artifact {
    /// Keys the artifact must carry, at any depth.
    const KEYS: &'static [&'static str];

    /// The artifact's JSON.
    fn json(&self) -> Json;

    /// The report's floors and structural invariants: one message per
    /// violated one.
    fn floors(&self) -> Vec<String>;

    /// Every failed gate: non-finite numbers, missing keys, then the
    /// floors. Empty when the artifact passes.
    fn check(&self) -> Vec<String> {
        let json = self.json();
        let mut failures = json.non_finite();
        failures.extend(
            Self::KEYS.iter().filter(|k| !json.has_key(k)).map(|k| format!("missing key \"{k}\"")),
        );
        failures.extend(self.floors());
        failures
    }
}

/// The messages of the `(passed, message)` pairs that did not pass.
pub(crate) fn failing(checks: impl IntoIterator<Item = (bool, String)>) -> Vec<String> {
    checks.into_iter().filter(|(ok, _)| !ok).map(|(_, msg)| msg).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_separators_match_the_artifact_layout() {
        let json = Json::obj([
            ("smoke", Json::from(false)),
            ("rows", Json::arr([Json::obj([("n", Json::from(4u64)), ("x", Json::Num(1.0, 2))])])),
            ("walls", Json::arr([Json::Num(1.26, 1), Json::Num(3.0, 1)])),
            ("nested", Json::obj([("ok", Json::from("identical"))])),
        ]);
        assert_eq!(
            json.render(),
            "{\n  \"smoke\": false,\n  \"rows\": [\n    {\n      \"n\": 4,\n      \"x\": 1.00\n    }\n  ],\n  \"walls\": [1.3, 3.0],\n  \"nested\": {\n    \"ok\": \"identical\"\n  }\n}"
        );
    }

    #[test]
    fn empty_containers_render_inline() {
        let json = Json::obj([("a", Json::obj(Vec::<(&str, Json)>::new())), ("b", Json::arr([]))]);
        assert_eq!(json.render(), "{\n  \"a\": {},\n  \"b\": []\n}");
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let json = Json::obj([("k\"ey", Json::from("a\\b\n\"c\"\u{1}"))]);
        assert_eq!(json.render(), "{\n  \"k\\\"ey\": \"a\\\\b\\n\\\"c\\\"\\u0001\"\n}");
    }

    #[test]
    fn non_finite_numbers_render_null_and_are_named() {
        let json = Json::obj([
            ("ok", Json::Num(1.5, 2)),
            ("rows", Json::arr([Json::obj([("rate", Json::Num(f64::INFINITY, 1))])])),
            ("nan", Json::Num(f64::NAN, 3)),
            ("walls", Json::arr([Json::Num(f64::NEG_INFINITY, 1)])),
        ]);
        let text = json.render();
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        assert_eq!(text.matches("null").count(), 3);
        assert_eq!(
            json.non_finite(),
            vec![
                "rows[0].rate is not finite (inf)".to_string(),
                "nan is not finite (NaN)".to_string(),
                "walls[0] is not finite (-inf)".to_string(),
            ]
        );
    }

    #[test]
    fn has_key_searches_every_depth() {
        let json = Json::obj([("a", Json::arr([Json::obj([("deep", Json::from(1u64))])]))]);
        assert!(json.has_key("a") && json.has_key("deep"));
        assert!(!json.has_key("missing"));
    }

    struct Probe(f64);

    impl Artifact for Probe {
        const KEYS: &'static [&'static str] = &["value", "absent"];
        fn json(&self) -> Json {
            Json::obj([("value", Json::Num(self.0, 2))])
        }
        fn floors(&self) -> Vec<String> {
            failing([(self.0 > 0.0, "value must be positive".to_string())])
        }
    }

    #[test]
    fn check_reports_non_finite_missing_keys_and_floors() {
        assert_eq!(
            Probe(f64::INFINITY).check(),
            vec!["value is not finite (inf)".to_string(), "missing key \"absent\"".to_string()]
        );
        assert_eq!(
            Probe(-1.0).check(),
            vec!["missing key \"absent\"".to_string(), "value must be positive".to_string()]
        );
    }
}
