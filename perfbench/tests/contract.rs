//! The benchmark's own contract: seeded inputs repeat exactly, and the
//! metrics it prints are the ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;

use mvolap_perfbench::bench::Workload;
use mvolap_perfbench::gen::{schedule_hash, script, warehouse};
use mvolap_perfbench::report::{END_TO_END, PER_LAYER};

fn hash_of(seed: u64) -> u64 {
    let wh = warehouse(seed).unwrap();
    let sc = script(&wh, seed, 96, Some(16)).unwrap();
    schedule_hash(&sc, seed, 2, wh.versions, 96)
}

#[test]
fn the_seed_fixes_the_commit_script_and_the_query_schedule() {
    assert_eq!(hash_of(11), hash_of(11));
    assert_ne!(hash_of(11), hash_of(12));
}

/// A JSON value — just enough of the grammar for `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Str(String),
    Num,
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
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
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
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
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            _ => {
                while self.i < self.s.len() && b"-+.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    Parser {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn printed(defs: &[mvolap_perfbench::report::MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), printed(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), printed(PER_LAYER));
    for w in json.get("workloads").arr() {
        let name = w.get("name").str();
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
