//! The benchmark's declared metrics (`BENCHMARK.json` at the repository
//! root), metric-name rules, and which end-to-end metric each per-layer
//! metric is expected to move.

use std::collections::BTreeMap;

/// Per-layer metric → the `(end-to-end metric, workload)` pairs it should
/// move. An empty list means no end-to-end metric is predicted to move: the
/// layer is measured for the users who call it directly, or — the jump-tier
/// rows — its workload has no steady end-to-end metric (the jump tier is
/// under 2% of `table1_sweep`; its rows come from one traced Fratricide
/// election at n = 2^26).
pub const LAYER_MAP: &[(&str, &[(&str, &str)])] = &[
    (
        "rand.word_ns",
        &[
            ("interactions_per_s", "pll_elect_2e16"),
            ("interactions_per_s", "pll_tail_2e20"),
        ],
    ),
    (
        "rand.hypergeom_inv_ns",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    (
        "rand.hypergeom_hrua_ns",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    (
        "rand.shuffle_ns_per_elem",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    ("rand.sumtree_pair_ns", &[("op_s_tail", "pll_elect_2e16")]),
    ("rand.geometric_ns", &[]),
    ("engine.compiled.share", &[("op_s_tail", "pll_elect_2e16")]),
    (
        "engine.compiled.ns_per_int",
        &[("op_s_tail", "pll_elect_2e16")],
    ),
    ("engine.batch.ns_per_int", &[("op_s_p50", "pll_elect_2e16")]),
    ("engine.batch.walks", &[("op_s_p50", "pll_elect_2e16")]),
    (
        "engine.tier.transitions",
        &[
            ("op_s_p50", "pll_elect_2e16"),
            ("op_s_tail", "pll_elect_2e16"),
        ],
    ),
    (
        "engine.tier.dispatches",
        &[
            ("op_s_p50", "pll_elect_2e16"),
            ("op_s_tail", "pll_elect_2e16"),
        ],
    ),
    (
        "engine.batch.early_int_per_s",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    (
        "engine.batch.late_int_per_s",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    (
        "engine.batch.int_per_episode",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    (
        "engine.support_peak",
        &[("interactions_per_s", "pll_tail_2e20")],
    ),
    ("engine.jump.share", &[]),
    ("engine.jump.ns_per_episode", &[]),
    ("engine.batch.s_share", &[]),
    ("engine.timeline_residual", &[]),
    ("sweep.fratricide_s", &[("op_s_p50", "table1_sweep")]),
    ("sweep.blottery_s", &[("op_s_p50", "table1_sweep")]),
    ("sweep.ulottery_s", &[("op_s_p50", "table1_sweep")]),
    ("sweep.pll_s", &[("op_s_p50", "table1_sweep")]),
    ("sweep.residual", &[]),
    ("runner.jobs_per_s", &[("op_s_p50", "table1_sweep")]),
    ("fabric.overhead_s", &[]),
    ("obs.trace_overhead", &[]),
];

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// of ASCII letters, digits, `_`, `.` and `-`, starting with a letter or a
/// digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of ASCII letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The declared metrics: name → unit, for each of the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<String, String>,
    pub per_layer: BTreeMap<String, String>,
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            match root.get(key) {
                Some(Json::Arr(items)) => Ok(items.iter().collect()),
                _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
            }
        };
        let str_field = |item: &Json, key: &str| -> Result<String, String> {
            match item.get(key) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: entry without a string `{key}`")),
            }
        };
        let metrics = |key: &str| -> Result<BTreeMap<String, String>, String> {
            let mut out = BTreeMap::new();
            for item in names(key)? {
                out.insert(str_field(item, "name")?, str_field(item, "unit")?);
            }
            Ok(out)
        };
        Ok(Self {
            workloads: names("workloads")?
                .into_iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Loads `BENCHMARK.json` from `dir`.
    pub fn load(dir: &std::path::Path) -> Result<Self, String> {
        let path = dir.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// The declared metrics of a traced (`true`) or untraced run.
    pub fn metrics(&self, traced: bool) -> &BTreeMap<String, String> {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A parsed JSON value (just enough of JSON for `BENCHMARK.json`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: {what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return self.err("expected `:`");
                    }
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return self.err("expected `,` or `}`");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("expected `,` or `]`");
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let digits = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                match digits.parse::<f64>() {
                    Ok(x) if !digits.is_empty() => Ok(Json::Num(x)),
                    _ => self.err("expected a value"),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let Some(c) = rest.chars().next() else {
                return self.err("unterminated string");
            };
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return self.err("unterminated escape");
                    };
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).unwrap_or(b"");
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            self.i += 4;
                            match code.and_then(char::from_u32) {
                                Some(ch) => ch,
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        other => char::from(other),
                    });
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn spec() -> Spec {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Spec::load(&root).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "setup_s",
            "rand.word_ns",
            "engine.batch.s_share",
            "0x-1",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".x",
            "has space",
            "ünï",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "count", "%", "ns/int"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_names_and_units_are_valid() {
        let spec = spec();
        let mut seen = BTreeSet::new();
        let all = spec.end_to_end.iter().chain(&spec.per_layer);
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        for w in &spec.workloads {
            assert!(valid_name(w), "{w}");
        }
        assert_eq!(
            spec.end_to_end.get("setup_s").map(String::as_str),
            Some("s")
        );
    }

    #[test]
    fn layer_map_covers_exactly_the_declared_per_layer_metrics() {
        let spec = spec();
        let mapped: BTreeSet<&str> = LAYER_MAP.iter().map(|(layer, _)| *layer).collect();
        let declared: BTreeSet<&str> = spec.per_layer.keys().map(String::as_str).collect();
        assert_eq!(mapped, declared);
        assert_eq!(mapped.len(), LAYER_MAP.len(), "a layer is mapped twice");
    }

    #[test]
    fn layer_map_targets_declared_end_to_end_metrics_and_workloads() {
        let spec = spec();
        for (layer, targets) in LAYER_MAP {
            for (metric, workload) in *targets {
                assert!(
                    spec.end_to_end.contains_key(*metric),
                    "{layer} → unknown end-to-end metric {metric}"
                );
                assert!(
                    spec.workloads.iter().any(|w| w == workload),
                    "{layer} → unknown workload {workload}"
                );
            }
        }
        // Every workload is the target of at least one layer metric.
        for w in &spec.workloads {
            assert!(
                LAYER_MAP
                    .iter()
                    .any(|(_, t)| t.iter().any(|(_, tw)| tw == w)),
                "no layer metric targets {w}"
            );
        }
    }

    #[test]
    fn json_parser_reads_nested_documents() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"A"}} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Json::Str("x\"A".into()))
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] x").is_err());
    }
}
