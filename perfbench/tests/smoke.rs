//! Smoke run of every workload at a tiny bound: each passes its correctness
//! gate, and every metric `BENCHMARK.json` names is emitted with its unit,
//! untraced (end-to-end) and traced (per-layer).

use std::collections::BTreeMap;

use perfbench::workloads::Workload;

/// Just enough JSON for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal {w}"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object"),
    }
}

fn string(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(bench: &Json, key: &str) -> BTreeMap<String, String> {
    let Json::Arr(items) = field(bench, key) else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_string(),
                string(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_names_every_workload() {
    let bench = benchmark();
    let Json::Arr(ws) = field(&bench, "workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<&str> = ws.iter().map(|w| string(field(w, "name"))).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    let bench = benchmark();
    for trace in [false, true] {
        let want = listed(&bench, if trace { "per_layer" } else { "end_to_end" });
        for w in Workload::ALL {
            let o = perfbench::run(w, w.bound(true), 7, 0.0, trace);
            assert!(
                o.correct,
                "{} (trace {trace}) failed its gate: {:?}",
                w.name(),
                o.failures
            );
            assert_eq!(o.failed, 0);
            let got: BTreeMap<String, String> = o
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} (trace {trace})", w.name());
            assert_eq!(got.len(), o.metrics.len(), "a metric is emitted twice");

            // The result line parses and carries exactly the four keys.
            let line = perfbench::result_json(&o);
            let Json::Obj(result) = parse(&line) else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result["correct"], Json::Bool(true));
        }
    }
}
