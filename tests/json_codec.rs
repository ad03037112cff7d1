//! Differential oracle for the JSON codec.
//!
//! The wire uses the direct path: derive-emitted `write_json` writers
//! behind `serde_json::to_string`, and `read_json` readers over the
//! depth-bounded pull reader behind `serde_json::from_str`. The `Value`
//! path (`to_value` + the tree writer, `parse` + `from_value`) is kept
//! as the oracle. For every protocol type this test requires:
//!
//! * **writing** — `to_string(x)` is byte-identical to writing
//!   `to_value(x)`;
//! * **reading** — on valid encodings and on mutated text (duplicate,
//!   unknown and missing keys, wrong types, `null` numbers, the number
//!   forms `1.0`, `-0`, `1e400`, `01` and `1.`, escapes and surrogate
//!   pairs, nesting around the depth bound, truncation, trailing
//!   garbage and whitespace), `from_str` and `from_value(parse(..))`
//!   either both fail or return equal values, floats compared by bits.
//!
//! The base values come from a real engine session, so every
//! `Response` variant carries realistic content; each case perturbs
//! their leaves before encoding.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use whatif::core::bulk::ScenarioSpec;
use whatif::core::goal::{Goal, OptimizerChoice};
use whatif::core::model_backend::{ModelConfig, ModelKind, TrainerTier};
use whatif::core::perturbation::{Perturbation, PerturbationSet};
use whatif::core::spec::AnalysisSpec;
use whatif::core::{DriverConstraint, ErrorCode};
use whatif::server::{ApiError, Engine, Envelope, Reply, Request, Response, UseCase};

/// One base value of every protocol type.
struct Corpus {
    requests: Vec<Request>,
    responses: Vec<Response>,
    envelopes: Vec<Envelope>,
    replies: Vec<Reply>,
    errors: Vec<ApiError>,
    configs: Vec<ModelConfig>,
    cells: Vec<whatif::frame::Value>,
    specs: Vec<AnalysisSpec>,
}

fn requests(session: u64) -> Vec<Request> {
    let driver = "Open Marketing Email";
    let scenario = ScenarioSpec::new(
        "ome +40% \"quoted\"",
        PerturbationSet::new(vec![
            Perturbation::percentage(driver, 40.0),
            Perturbation::absolute("Call", -1.5),
        ]),
    );
    vec![
        Request::ListUseCases,
        Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(120),
            seed: None,
        },
        Request::LoadCsv {
            csv: "a,b\n1,2.5\n3,\"x\ty\"\n".into(),
        },
        Request::TableView {
            session,
            max_rows: 4,
        },
        Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        },
        Request::SelectDrivers {
            session,
            drivers: None,
        },
        Request::SelectDrivers {
            session,
            drivers: Some(vec![driver.into(), "Call".into()]),
        },
        Request::Train {
            session,
            config: Some(ModelConfig {
                n_trees: 4,
                max_depth: 4,
                n_threads: 1,
                max_features: Some(3),
                ..ModelConfig::default()
            }),
        },
        Request::Train {
            session,
            config: None,
        },
        Request::DriverImportanceView {
            session,
            verify: true,
        },
        Request::SensitivityView {
            session,
            perturbations: vec![Perturbation::percentage(driver, -20.0)],
        },
        Request::ComparisonView {
            session,
            percentages: vec![-20.0, 0.0, 0.5, 20.0],
        },
        Request::PerDataView {
            session,
            row: 0,
            perturbations: vec![Perturbation::absolute(driver, 2.0)],
        },
        Request::GoalInversionView {
            session,
            goal: Goal::Target(0.75),
            constraints: vec![DriverConstraint {
                driver: driver.into(),
                low_pct: -50.0,
                high_pct: 50.0,
            }],
            optimizer: Some(OptimizerChoice::RandomSearch { n_evals: 6 }),
            seed: 11,
        },
        Request::GoalInversionView {
            session,
            goal: Goal::Maximize,
            constraints: vec![],
            optimizer: None,
            seed: 0,
        },
        Request::EvaluateScenarios {
            session,
            scenarios: vec![scenario.clone(), scenario],
            record: true,
            n_threads: Some(1),
        },
        Request::RecordScenario {
            session,
            name: "best so far".into(),
        },
        Request::ListScenarios { session },
        Request::CacheStats,
        Request::ConfigureCache {
            capacity_bytes: Some(1 << 20),
            enabled: None,
        },
        Request::ModelStoreStats,
        Request::MetricsSnapshot,
        Request::MetricsPrometheus,
        Request::CloseSession { session },
        Request::Shutdown,
        Request::Batch(vec![
            Request::ListUseCases,
            Request::SelectKpi {
                session: u64::MAX,
                kpi: "k".into(),
            },
        ]),
    ]
}

/// Run a small real session so every `Response` variant is realistic.
fn responses(engine: &Engine) -> (u64, Vec<Response>) {
    let Ok(Response::SessionCreated { session, .. }) = engine.handle(Request::LoadUseCase {
        use_case: UseCase::DealClosing,
        n_rows: Some(120),
        seed: Some(3),
    }) else {
        panic!("load failed");
    };
    let mut out = Vec::new();
    for request in requests(session) {
        let skip = matches!(
            request,
            Request::LoadUseCase { .. }
                | Request::CloseSession { .. }
                | Request::Shutdown
                | Request::Batch(_)
                | Request::Train { config: None, .. }
        );
        if skip {
            continue;
        }
        match engine.handle(request.clone()) {
            Ok(response) => out.push(response),
            Err(e) => panic!("{request:?} failed: {e}"),
        }
    }
    let closing = [
        Request::CloseSession { session },
        Request::Shutdown,
        Request::ListUseCases,
    ];
    for request in closing {
        out.push(engine.handle(request).expect("bookkeeping request"));
    }
    out.push(Response::Batch(vec![
        Reply::ok(1, Response::SessionClosed),
        Reply::fail(1, ApiError::unknown_session(9)),
    ]));
    out.push(Response::Error(ApiError::not_trained()));
    (session, out)
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let engine = Engine::new();
        let (session, responses) = responses(&engine);
        let requests = requests(session);
        let mut envelopes = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let envelope = Envelope::new(i as u64, request.clone());
            envelopes.push(envelope.clone().with_trace(format!("trace-{i}")));
            envelopes.push(envelope.clone().with_deadline_ms(250));
            envelopes.push(envelope);
        }
        let errors: Vec<ApiError> = ErrorCode::all()
            .into_iter()
            .map(|code| ApiError::new(code, format!("{code} \u{1} é 😀")))
            .collect();
        let mut replies: Vec<Reply> = responses
            .iter()
            .enumerate()
            .map(|(i, r)| Reply::ok(i as u64, r.clone()).with_cached(i % 2 == 0))
            .collect();
        replies.extend(
            errors
                .iter()
                .map(|e| Reply::fail(7, e.clone()).with_trace(Some("t".into()))),
        );
        let configs = vec![
            ModelConfig::default(),
            ModelConfig {
                kind: ModelKind::Auto,
                trainer: TrainerTier::Binned,
                n_bins: 32,
                max_features: Some(2),
                holdout_fraction: 0.25,
                ..ModelConfig::default()
            },
        ];
        let cells = vec![
            whatif::frame::Value::Null,
            whatif::frame::Value::Bool(true),
            whatif::frame::Value::Int(-3),
            whatif::frame::Value::Float(2.5),
            whatif::frame::Value::Float(f64::NAN),
            whatif::frame::Value::Str("x\"y".into()),
        ];
        let specs = vec![
            AnalysisSpec::DriverImportance { verify: true },
            AnalysisSpec::Sensitivity {
                perturbations: vec![Perturbation::percentage("Call", 10.0)],
                clamp_non_negative: false,
            },
            AnalysisSpec::Comparison {
                percentages: vec![-10.0, 10.0],
            },
            AnalysisSpec::PerData {
                row: 3,
                perturbations: vec![],
            },
            AnalysisSpec::GoalInversion {
                goal: Goal::Minimize,
                constraints: vec![],
                optimizer: OptimizerChoice::Bayesian { n_calls: 8 },
                seed: 2,
            },
            AnalysisSpec::Scenarios {
                scenarios: vec![],
                n_threads: 2,
            },
        ];
        Corpus {
            requests,
            responses,
            envelopes,
            replies,
            errors,
            configs,
            cells,
            specs,
        }
    })
}

// ------------------------------------------------------------- comparing

/// Tree equality with floats compared by bits.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// The writer check: direct bytes equal the tree writer's bytes.
fn assert_writes_like_the_tree<T: serde::Serialize>(x: &T) {
    let direct = serde_json::to_string(x).unwrap();
    let tree = serde_json::to_string(&serde_json::to_value(x).unwrap()).unwrap();
    assert_eq!(direct, tree);
}

/// The reader check: both paths fail, or both return the same value.
fn assert_reads_like_the_tree<T>(text: &str)
where
    T: serde::Serialize + serde::Deserialize + std::fmt::Debug,
{
    let direct = serde_json::from_str::<T>(text);
    let tree = serde_json::parse(text).and_then(|v| serde_json::from_value::<T>(&v));
    match (&direct, &tree) {
        (Err(_), Err(_)) => {}
        (Ok(a), Ok(b)) => assert!(
            same(
                &serde_json::to_value(a).unwrap(),
                &serde_json::to_value(b).unwrap()
            ),
            "paths disagree on {text:?}:\n direct {a:?}\n   tree {b:?}"
        ),
        _ => panic!(
            "one path failed on {text:?}:\n direct {:?}\n   tree {:?}",
            direct.as_ref().err(),
            tree.as_ref().err()
        ),
    }
}

// ------------------------------------------------------------- mutating

const ODD_CHARS: &[char] = &[
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
];

fn odd_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..6usize);
    (0..len)
        .map(|_| ODD_CHARS[rng.gen_range(0..ODD_CHARS.len())])
        .collect()
}

fn odd_float(rng: &mut StdRng, x: f64) -> f64 {
    match rng.gen_range(0..9u32) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-300,
        3 => -1e300,
        4 => f64::NAN,
        5 => f64::INFINITY,
        6 => x * rng.gen_range(-3.0..3.0),
        7 => rng.gen_range(-1e6..1e6),
        _ => 0.1 + x,
    }
}

/// Change leaves of a tree in type-preserving ways, so the result
/// usually still decodes as the type it came from.
fn perturb(v: &mut Value, rng: &mut StdRng) {
    match v {
        Value::F64(x) if rng.gen_bool(0.5) => *x = odd_float(rng, *x),
        Value::I64(x) if rng.gen_bool(0.2) => *x = rng.gen_range(0..4i64),
        Value::U64(x) if rng.gen_bool(0.2) => *x = rng.gen_range(0..4u64),
        Value::String(s) if rng.gen_bool(0.3) => *s = odd_string(rng),
        Value::Bool(b) if rng.gen_bool(0.5) => *b = !*b,
        Value::Array(items) => {
            if !items.is_empty() && rng.gen_bool(0.1) {
                items.truncate(items.len() - 1);
            }
            items.iter_mut().for_each(|item| perturb(item, rng));
        }
        Value::Object(pairs) => pairs.iter_mut().for_each(|(_, item)| perturb(item, rng)),
        _ => {}
    }
}

/// A perturbed copy of `base` that still decodes as `T`, or `base`.
fn perturbed<T>(base: &T, rng: &mut StdRng) -> T
where
    T: serde::Serialize + serde::Deserialize + Clone,
{
    let tree = serde_json::to_value(base).unwrap();
    for _ in 0..4 {
        let mut candidate = tree.clone();
        perturb(&mut candidate, rng);
        if let Ok(x) = serde_json::from_value::<T>(&candidate) {
            return x;
        }
    }
    base.clone()
}

/// Renders a tree as JSON text, mutating it on the way.
struct Mutator<'r> {
    rng: &'r mut StdRng,
    depth: usize,
}

impl Mutator<'_> {
    fn hit(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    fn ws(&mut self, out: &mut String) {
        if self.hit(0.05) {
            out.push_str([" ", "\n", "\t", "\r\n  "][self.rng.gen_range(0..4usize)]);
        }
    }

    /// A random value of any kind, sometimes nested around the depth
    /// bound.
    fn junk(&mut self, out: &mut String) {
        match self.rng.gen_range(0..7u32) {
            0 => out.push_str("null"),
            1 => out.push_str("true"),
            2 => out.push_str("-12"),
            3 => out.push_str("\"j\\u00e9nk\""),
            4 => out.push_str("{\"k\":[1,{\"v\":null}]}"),
            5 => out.push_str("[]"),
            _ => {
                // Nest so the total depth lands on either side of the
                // bound: skipped values count toward it too.
                let n = self
                    .rng
                    .gen_range(118..132usize)
                    .saturating_sub(self.depth)
                    .max(1);
                let (open, close) = if self.hit(0.5) {
                    ("[", "]")
                } else {
                    ("{\"a\":", "}")
                };
                out.push_str(&open.repeat(n));
                out.push('0');
                out.push_str(&close.repeat(n));
            }
        }
    }

    fn string(&mut self, s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            let escaped = self.hit(0.2);
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' if escaped => out.push_str("\\/"),
                c if (c as u32) < 0x20 || escaped => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn number(&mut self, text: String, out: &mut String) {
        if self.hit(0.2) {
            let forms = ["1.0", "-0", "1e400", "01", "1.", "null", "-0.0", "2", "1E2"];
            out.push_str(forms[self.rng.gen_range(0..forms.len())]);
        } else {
            out.push_str(&text);
        }
    }

    fn value(&mut self, v: &Value, out: &mut String) {
        self.ws(out);
        if self.hit(0.01) {
            self.junk(out);
            return;
        }
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(x) => self.number(x.to_string(), out),
            Value::U64(x) => self.number(x.to_string(), out),
            Value::F64(x) => {
                let text = if x.is_finite() {
                    format!("{x:?}")
                } else {
                    "null".into()
                };
                self.number(text, out);
            }
            Value::String(s) => self.string(s, out),
            Value::Array(items) => {
                self.depth += 1;
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(item, out);
                }
                self.ws(out);
                out.push(']');
                self.depth -= 1;
            }
            Value::Object(pairs) => self.object(pairs, out),
        }
        self.ws(out);
    }

    fn object(&mut self, pairs: &[(String, Value)], out: &mut String) {
        // Entries to write: a real pair, a duplicate of one with a
        // different value, or an unknown key with junk.
        enum Entry<'p> {
            Pair(&'p str, Value),
            Unknown(&'p str),
        }
        let mut entries: Vec<Entry> = pairs
            .iter()
            .map(|(k, v)| Entry::Pair(k, v.clone()))
            .collect();
        if !entries.is_empty() && self.hit(0.05) {
            let i = self.rng.gen_range(0..entries.len());
            entries.remove(i);
        }
        if !pairs.is_empty() && self.hit(0.1) {
            let (k, v) = &pairs[self.rng.gen_range(0..pairs.len())];
            let mut other = v.clone();
            perturb(&mut other, self.rng);
            let at = self.rng.gen_range(0..=entries.len());
            entries.insert(at, Entry::Pair(k, other));
        }
        if self.hit(0.1) {
            let at = self.rng.gen_range(0..=entries.len());
            entries.insert(at, Entry::Unknown("zz_unknown"));
        }
        self.depth += 1;
        out.push('{');
        for (i, entry) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.ws(out);
            match entry {
                Entry::Pair(k, v) => {
                    self.string(k, out);
                    out.push(':');
                    self.value(v, out);
                }
                Entry::Unknown(k) => {
                    self.string(k, out);
                    out.push(':');
                    self.junk(out);
                }
            }
        }
        self.ws(out);
        out.push('}');
        self.depth -= 1;
    }
}

/// One mutated rendering of `tree`, with text-level damage sometimes.
fn mutated(tree: &Value, rng: &mut StdRng) -> String {
    let mut out = String::new();
    Mutator { rng, depth: 0 }.value(tree, &mut out);
    match rng.gen_range(0..12u32) {
        0 => {
            let mut cut = rng.gen_range(0..=out.len());
            while !out.is_char_boundary(cut) {
                cut -= 1;
            }
            out.truncate(cut);
        }
        1 => out.push_str([" x", "}", ",", " 1", "]", "\"a\""][rng.gen_range(0..6usize)]),
        2 => out.push_str(" \n\t "),
        _ => {}
    }
    out
}

/// Both checks on a perturbed copy of each base value, then the reader
/// check on several mutated renderings of it.
fn check_all<T>(bases: &[T], rng: &mut StdRng)
where
    T: serde::Serialize + serde::Deserialize + Clone + std::fmt::Debug,
{
    for base in bases {
        let x = perturbed(base, rng);
        assert_writes_like_the_tree(&x);
        let text = serde_json::to_string(&x).unwrap();
        assert_reads_like_the_tree::<T>(&text);
        let tree = serde_json::to_value(&x).unwrap();
        for _ in 0..3 {
            assert_reads_like_the_tree::<T>(&mutated(&tree, rng));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn direct_codec_matches_the_value_path(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let mut rng = StdRng::seed_from_u64(seed);
        check_all(&corpus.requests, &mut rng);
        check_all(&corpus.responses, &mut rng);
        check_all(&corpus.envelopes, &mut rng);
        check_all(&corpus.replies, &mut rng);
        check_all(&corpus.errors, &mut rng);
        check_all(&corpus.configs, &mut rng);
        check_all(&corpus.cells, &mut rng);
        check_all(&corpus.specs, &mut rng);
    }
}

#[test]
fn corpus_covers_every_response_variant() {
    let mut kinds: Vec<String> = corpus()
        .responses
        .iter()
        .map(|r| {
            let json = serde_json::to_string(r).unwrap();
            let tag = json.trim_start_matches(['{', '"']);
            tag[..tag.find('"').unwrap()].to_string()
        })
        .collect();
    kinds.sort();
    kinds.dedup();
    assert_eq!(kinds.len(), 22, "{kinds:?}");
}

#[test]
fn defaulted_fields_may_be_omitted() {
    let config = ModelConfig {
        n_bins: 64,
        ..ModelConfig::default()
    };
    let Value::Object(pairs) = serde_json::to_value(&config).unwrap() else {
        panic!("a config is a map");
    };
    let trimmed: Vec<(String, Value)> = pairs
        .into_iter()
        .filter(|(k, _)| k != "trainer" && k != "n_bins")
        .collect();
    let text = serde_json::to_string(&Value::Object(trimmed)).unwrap();
    assert_reads_like_the_tree::<ModelConfig>(&text);
    assert_eq!(
        serde_json::from_str::<ModelConfig>(&text).unwrap(),
        ModelConfig::default()
    );
    for text in [
        r#"{"id":1,"body":"ListUseCases"}"#,
        r#"{"body":"ListUseCases","id":1,"version":2,"trace_id":null}"#,
    ] {
        assert_reads_like_the_tree::<Envelope>(text);
    }
    assert_reads_like_the_tree::<Reply>(r#"{"id":3}"#);
}

#[test]
fn pinned_read_rules() {
    // First key wins; later duplicates are skipped.
    let env: Envelope =
        serde_json::from_str(r#"{"id":1,"body":"ListUseCases","id":2,"body":7}"#).unwrap();
    assert_eq!(env.id, 1);
    // An externally tagged enum finds its key among unknown siblings,
    // and two variant keys are ambiguous.
    let req: Request =
        serde_json::from_str(r#"{"note":[1],"CloseSession":{"session":4}}"#).unwrap();
    assert_eq!(req, Request::CloseSession { session: 4 });
    assert!(serde_json::from_str::<Request>(r#"{"Shutdown":null,"Shutdown":null}"#).is_err());
    // Integer text classifies before floats: `1.0` is no integer, and
    // `-0` reads as integer 0, so an f64 field gets +0.0.
    assert!(serde_json::from_str::<Request>(r#"{"CloseSession":{"session":1.0}}"#).is_err());
    let cmp: Request =
        serde_json::from_str(r#"{"ComparisonView":{"session":1,"percentages":[-0,-0.0]}}"#)
            .unwrap();
    let Request::ComparisonView { percentages, .. } = cmp else {
        panic!("a comparison request");
    };
    assert_eq!(percentages[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(percentages[1].to_bits(), (-0.0f64).to_bits());
    // A missing non-default field reads as null: `None`, or an error.
    let cfg: Request = serde_json::from_str(r#"{"Train":{"session":1}}"#).unwrap();
    assert_eq!(
        cfg,
        Request::Train {
            session: 1,
            config: None
        }
    );
    assert!(serde_json::from_str::<Request>(r#"{"Train":{"config":null}}"#).is_err());
}
