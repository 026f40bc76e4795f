//! Differential test of the wire codec against the document-tree codec
//! it replaced.
//!
//! The oracle below is that codec, kept here and nowhere else: it builds
//! a `delprop_json::Json` tree per message and renders it, and decodes
//! by parsing a tree and looking fields up in it. The typed codec must
//!
//! - encode every `Request` and `Response` variant to the very bytes
//!   the tree renders — escaped and non-ASCII strings, fractional,
//!   tiny, NaN and infinite costs, integers up to 2^53 and beyond;
//! - decode every frame to the same value, or fail where the oracle
//!   fails: each valid frame, the same document with its keys
//!   reordered, duplicated or joined by unknown ones, with other
//!   whitespace, `\u` escapes and `3.0` / `3e0` integers, and every
//!   truncated prefix of each valid frame.
//!
//! The one intended difference: the oracle casts negative, fractional
//! and out-of-range numbers into ids (`-1` to view 0); the codec
//! refuses them. Those inputs are checked on their own at the end.

use delprop_core::solvers::local_search::Objective;
use delprop_json::{parse, Json};
use delprop_server::{InstanceSpec, Request, Response, SolveOk, SolveRequest};

// -------------------------------------------------------------------
// The oracle: the tree codec
// -------------------------------------------------------------------

fn objective_label(o: Objective) -> &'static str {
    match o {
        Objective::Standard => "standard",
        Objective::Balanced => "balanced",
    }
}

fn pairs_json(pairs: &[(usize, usize)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(a, b)| Json::Arr(vec![Json::uint(a as u64), Json::uint(b as u64)]))
            .collect(),
    )
}

fn request_json(req: &Request) -> Json {
    match req {
        Request::Solve(s) => {
            let mut pairs = vec![
                ("op".to_string(), Json::str("solve")),
                ("tenant".to_string(), Json::str(s.tenant.clone())),
                (
                    "objective".to_string(),
                    Json::str(objective_label(s.objective)),
                ),
            ];
            if !s.deletions.is_empty() {
                pairs.push(("deletions".to_string(), pairs_json(&s.deletions)));
            }
            if let Some(d) = s.deadline_ms {
                pairs.push(("deadline_ms".to_string(), Json::uint(d)));
            }
            if let Some(t) = s.ticks {
                pairs.push(("ticks".to_string(), Json::uint(t)));
            }
            if let Some(r) = s.racing {
                pairs.push(("racing".to_string(), Json::Bool(r)));
            }
            if let Some(sh) = s.sharded {
                pairs.push(("sharded".to_string(), Json::Bool(sh)));
            }
            Json::Obj(pairs)
        }
        Request::Publish { label, spec } => Json::obj(vec![
            ("op", Json::str("publish")),
            ("label", Json::str(label.clone())),
            ("spec", spec.to_json()),
        ]),
        Request::PublishDelta {
            deletions,
            restores,
        } => Json::obj(vec![
            ("op", Json::str("publish_delta")),
            ("deletions", pairs_json(deletions)),
            ("restores", pairs_json(restores)),
        ]),
        Request::Health => Json::obj(vec![("op", Json::str("health"))]),
        Request::Stats => Json::obj(vec![("op", Json::str("stats"))]),
        Request::Epoch => Json::obj(vec![("op", Json::str("epoch"))]),
    }
}

fn response_json(resp: &Response) -> Json {
    match resp {
        Response::Ok(ok) => Json::obj(vec![
            ("status", Json::str("ok")),
            ("epoch", Json::uint(ok.epoch)),
            ("winner", Json::str(ok.winner.clone())),
            ("guarantee", Json::str(ok.guarantee.clone())),
            ("degraded", Json::Bool(ok.degraded)),
            ("cost", Json::Num(ok.cost)),
            ("deleted", pairs_json(&ok.deleted)),
            ("micros", Json::uint(ok.micros)),
            ("ticks", Json::uint(ok.ticks)),
            ("attempts", Json::uint(u64::from(ok.attempts))),
        ]),
        Response::Overloaded { reason } => Json::obj(vec![
            ("status", Json::str("overloaded")),
            ("reason", Json::str(reason.clone())),
        ]),
        Response::DeadlineExceeded { attempts, micros } => Json::obj(vec![
            ("status", Json::str("deadline_exceeded")),
            ("attempts", Json::uint(u64::from(*attempts))),
            ("micros", Json::uint(*micros)),
        ]),
        Response::Error { message } => Json::obj(vec![
            ("status", Json::str("error")),
            ("message", Json::str(message.clone())),
        ]),
        Response::Health {
            epoch,
            label,
            inflight,
            requests,
        } => Json::obj(vec![
            ("status", Json::str("health")),
            ("epoch", Json::uint(*epoch)),
            ("label", Json::str(label.clone())),
            ("inflight", Json::uint(*inflight)),
            ("requests", Json::uint(*requests)),
        ]),
        Response::Stats { metrics } => Json::obj(vec![
            ("status", Json::str("stats")),
            ("metrics", Json::str(metrics.clone())),
        ]),
        Response::Epoch { epoch, label } => Json::obj(vec![
            ("status", Json::str("epoch")),
            ("epoch", Json::uint(*epoch)),
            ("label", Json::str(label.clone())),
        ]),
        Response::Published { epoch, label } => Json::obj(vec![
            ("status", Json::str("published")),
            ("epoch", Json::uint(*epoch)),
            ("label", Json::str(label.clone())),
        ]),
        Response::DeltaPublished {
            epoch,
            label,
            deleted,
            restored,
            overdeleted,
            rederived,
        } => Json::obj(vec![
            ("status", Json::str("delta_published")),
            ("epoch", Json::uint(*epoch)),
            ("label", Json::str(label.clone())),
            ("deleted", Json::uint(*deleted)),
            ("restored", Json::uint(*restored)),
            ("overdeleted", Json::uint(*overdeleted)),
            ("rederived", Json::uint(*rederived)),
        ]),
    }
}

fn get_str<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match j.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_num).map(|n| n as u64)
}

fn need_u64(j: &Json, key: &str) -> Result<u64, String> {
    get_u64(j, key).ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn get_bool(j: &Json, key: &str) -> Option<bool> {
    match j.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn parse_pairs(j: &Json, key: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut out = Vec::new();
    if let Some(arr) = j.get(key).and_then(Json::as_arr) {
        for d in arr {
            let [v, i] = d
                .as_arr()
                .and_then(|p| <&[Json; 2]>::try_from(p).ok())
                .ok_or_else(|| format!("`{key}` entries must be [view, index]"))?;
            let v = v.as_num().ok_or("non-numeric view")?;
            let i = i.as_num().ok_or("non-numeric index")?;
            out.push((v as usize, i as usize));
        }
    }
    Ok(out)
}

fn parse_objective(s: &str) -> Result<Objective, String> {
    match s {
        "standard" => Ok(Objective::Standard),
        "balanced" => Ok(Objective::Balanced),
        other => Err(format!("unknown objective `{other}`")),
    }
}

fn request_from_json(j: &Json) -> Result<Request, String> {
    let op = get_str(j, "op").ok_or("missing string field `op`")?;
    match op {
        "solve" => {
            let mut req = SolveRequest {
                tenant: get_str(j, "tenant").unwrap_or("default").to_string(),
                ..SolveRequest::default()
            };
            req.deletions = parse_pairs(j, "deletions")?;
            if let Some(o) = get_str(j, "objective") {
                req.objective = parse_objective(o)?;
            }
            req.deadline_ms = get_u64(j, "deadline_ms");
            req.ticks = get_u64(j, "ticks");
            req.racing = get_bool(j, "racing");
            req.sharded = get_bool(j, "sharded");
            Ok(Request::Solve(req))
        }
        "publish" => {
            let label = get_str(j, "label").unwrap_or("unnamed").to_string();
            let spec = j.get("spec").ok_or("publish requires a `spec` object")?;
            Ok(Request::Publish {
                label,
                spec: InstanceSpec::from_json(spec)?,
            })
        }
        "publish_delta" => Ok(Request::PublishDelta {
            deletions: parse_pairs(j, "deletions")?,
            restores: parse_pairs(j, "restores")?,
        }),
        "health" => Ok(Request::Health),
        "stats" => Ok(Request::Stats),
        "epoch" => Ok(Request::Epoch),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn response_from_json(j: &Json) -> Result<Response, String> {
    let status = get_str(j, "status").ok_or("missing string field `status`")?;
    let text = |key: &str| get_str(j, key).unwrap_or_default().to_string();
    match status {
        "ok" => Ok(Response::Ok(SolveOk {
            epoch: need_u64(j, "epoch")?,
            winner: get_str(j, "winner").ok_or("missing `winner`")?.to_string(),
            guarantee: get_str(j, "guarantee")
                .ok_or("missing `guarantee`")?
                .to_string(),
            degraded: get_bool(j, "degraded").ok_or("missing `degraded`")?,
            cost: j
                .get("cost")
                .and_then(Json::as_num)
                .ok_or("missing `cost`")?,
            deleted: parse_pairs(j, "deleted")?,
            micros: need_u64(j, "micros")?,
            ticks: need_u64(j, "ticks")?,
            attempts: need_u64(j, "attempts")? as u32,
        })),
        "overloaded" => Ok(Response::Overloaded {
            reason: text("reason"),
        }),
        "deadline_exceeded" => Ok(Response::DeadlineExceeded {
            attempts: need_u64(j, "attempts")? as u32,
            micros: need_u64(j, "micros")?,
        }),
        "error" => Ok(Response::Error {
            message: text("message"),
        }),
        "health" => Ok(Response::Health {
            epoch: need_u64(j, "epoch")?,
            label: text("label"),
            inflight: need_u64(j, "inflight")?,
            requests: need_u64(j, "requests")?,
        }),
        "stats" => Ok(Response::Stats {
            metrics: text("metrics"),
        }),
        "epoch" => Ok(Response::Epoch {
            epoch: need_u64(j, "epoch")?,
            label: text("label"),
        }),
        "published" => Ok(Response::Published {
            epoch: need_u64(j, "epoch")?,
            label: text("label"),
        }),
        "delta_published" => Ok(Response::DeltaPublished {
            epoch: need_u64(j, "epoch")?,
            label: text("label"),
            deleted: need_u64(j, "deleted")?,
            restored: need_u64(j, "restored")?,
            overdeleted: need_u64(j, "overdeleted")?,
            rederived: need_u64(j, "rederived")?,
        }),
        other => Err(format!("unknown status `{other}`")),
    }
}

fn oracle_request(bytes: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    request_from_json(&parse(text)?)
}

fn oracle_response(bytes: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    response_from_json(&parse(text)?)
}

// -------------------------------------------------------------------
// Cases
// -------------------------------------------------------------------

const STRINGS: [&str; 7] = [
    "",
    "default",
    "quote \" and back\\slash",
    "ctl \u{1}\u{8}\u{c}\u{1f}\n\t\r",
    "é ✓ ü 漢字 🦀",
    "mixed \"é\"\n/",
    "ratio 1.386",
];

const COSTS: [f64; 9] = [
    0.0,
    160.0,
    0.1,
    1e-9,
    2876.0802634348534,
    -3.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Integers the wire carries: up to 2^53.
const INTS: [u64; 4] = [0, 7, (1 << 53) - 1, 1 << 53];

/// Integers beyond: encoded alike, but refused on decoding.
const HUGE: [u64; 6] = [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];

fn pairs(n: usize, seed: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i % 7, (i + seed) * 7919)).collect()
}

fn requests(ints: &[u64]) -> Vec<Request> {
    let mut out = vec![
        Request::Solve(SolveRequest::default()),
        Request::Health,
        Request::Stats,
        Request::Epoch,
        Request::PublishDelta {
            deletions: Vec::new(),
            restores: Vec::new(),
        },
        Request::PublishDelta {
            deletions: pairs(8, 1),
            restores: pairs(3, 2),
        },
        Request::Publish {
            label: "fig1".to_string(),
            spec: InstanceSpec::Fig1,
        },
        Request::Publish {
            label: "forest".to_string(),
            spec: InstanceSpec::default(),
        },
        Request::Publish {
            label: "random \"é\"".to_string(),
            spec: InstanceSpec::Random {
                num_relations: 6,
                num_queries: 3,
                atoms_per_query: 3,
                domain: 20,
                tuples_per_relation: 60,
                delete_fraction: 0.25,
                weighted: true,
                seed: 3,
            },
        },
    ];
    for (i, tenant) in STRINGS.iter().enumerate() {
        out.push(Request::Solve(SolveRequest {
            tenant: tenant.to_string(),
            deletions: pairs(i * 3, i),
            objective: if i % 2 == 0 {
                Objective::Standard
            } else {
                Objective::Balanced
            },
            deadline_ms: Some(ints[i % ints.len()]),
            ticks: (i % 3 != 0).then_some(ints[(i + 2) % ints.len()]),
            racing: [None, Some(true), Some(false)][i % 3],
            sharded: [Some(true), None, Some(false)][i % 3],
        }));
    }
    out
}

fn responses(ints: &[u64]) -> Vec<Response> {
    let mut out = vec![Response::DeadlineExceeded {
        attempts: 3,
        micros: 250_000,
    }];
    for (i, cost) in COSTS.iter().enumerate() {
        out.push(Response::Ok(SolveOk {
            epoch: ints[i % ints.len()],
            winner: STRINGS[i % STRINGS.len()].to_string(),
            guarantee: STRINGS[(i + 3) % STRINGS.len()].to_string(),
            degraded: i % 2 == 1,
            cost: *cost,
            deleted: pairs([0, 1, 10, 250][i % 4], i),
            micros: ints[(i + 1) % ints.len()],
            ticks: ints[(i + 2) % ints.len()],
            attempts: [1, 2, u32::MAX][i % 3],
        }));
    }
    for (i, s) in STRINGS.iter().enumerate() {
        let (n, s) = (ints[i % ints.len()], s.to_string());
        out.push(Response::Overloaded { reason: s.clone() });
        out.push(Response::Error { message: s.clone() });
        out.push(Response::Stats { metrics: s.clone() });
        out.push(Response::Health {
            epoch: n,
            label: s.clone(),
            inflight: 4,
            requests: n,
        });
        out.push(Response::Epoch {
            epoch: n,
            label: s.clone(),
        });
        out.push(Response::Published {
            epoch: n,
            label: s.clone(),
        });
        out.push(Response::DeltaPublished {
            epoch: n,
            label: s,
            deleted: 8,
            restored: 0,
            overdeleted: n,
            rederived: 11,
        });
    }
    out
}

// -------------------------------------------------------------------
// Rewriting a document: same value, other text
// -------------------------------------------------------------------

/// SplitMix64: a seeded stream, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How a rewrite varies the text.
#[derive(Clone, Copy)]
struct Style {
    shuffle: bool,
    whitespace: bool,
    escapes: bool,
    number_forms: bool,
}

fn ws(rng: &mut Rng, style: Style, out: &mut String) {
    if style.whitespace {
        for _ in 0..rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4)]);
        }
    }
}

fn write_string(s: &str, rng: &mut Rng, style: Style, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if style.escapes && rng.below(2) == 0 => out.push_str("\\/"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c if style.escapes && (c as u32) <= 0xffff && rng.below(2) == 0 => {
                let hex = format!("{:04x}", c as u32);
                out.push_str("\\u");
                out.push_str(&if rng.below(2) == 0 {
                    hex
                } else {
                    hex.to_uppercase()
                });
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_doc(j: &Json, rng: &mut Rng, style: Style, out: &mut String) {
    ws(rng, style, out);
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 && style.number_forms => {
            let i = *n as i64;
            out.push_str(&[format!("{i}"), format!("{i}.0"), format!("{i}e0")][rng.below(3)]);
        }
        Json::Num(n) => out.push_str(&format!("{n:?}")),
        Json::Str(s) => write_string(s, rng, style, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_doc(item, rng, style, out);
            }
            ws(rng, style, out);
            out.push(']');
        }
        Json::Obj(pairs) => {
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            if style.shuffle {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
            }
            out.push('{');
            for (n, &i) in order.iter().enumerate() {
                let (k, v) = &pairs[i];
                if n > 0 {
                    out.push(',');
                }
                ws(rng, style, out);
                write_string(k, rng, style, out);
                ws(rng, style, out);
                out.push(':');
                write_doc(v, rng, style, out);
            }
            ws(rng, style, out);
            out.push('}');
        }
    }
    ws(rng, style, out);
}

/// Values a duplicate or unknown key may carry.
fn filler(rng: &mut Rng) -> Json {
    match rng.below(8) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(rng.below(100) as f64),
        3 => Json::str("health"),
        4 => Json::str("ok"),
        5 => Json::Arr(vec![Json::Arr(vec![Json::int(1), Json::int(2)])]),
        6 => Json::Arr(vec![Json::str("x"), Json::Null]),
        _ => Json::obj(vec![
            ("kind", Json::str("fig1")),
            ("nested", Json::Arr(vec![Json::Obj(Vec::new())])),
        ]),
    }
}

/// `doc` with some keys repeated (before or after the original, with
/// another value) and some unknown keys added.
fn with_extra_keys(doc: &Json, rng: &mut Rng) -> Json {
    let Json::Obj(pairs) = doc else {
        return doc.clone();
    };
    let mut pairs = pairs.clone();
    for _ in 0..1 + rng.below(3) {
        let i = rng.below(pairs.len());
        let dup = (pairs[i].0.clone(), filler(rng));
        pairs.insert(i + rng.below(2), dup);
    }
    for n in 0..rng.below(3) {
        let at = rng.below(pairs.len() + 1);
        pairs.insert(at, (format!("unknown_{n}"), filler(rng)));
    }
    Json::Obj(pairs)
}

/// The same document, other text: every style alone, then all at once
/// with extra keys.
fn rewrites(frame: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let doc = parse(std::str::from_utf8(frame).unwrap()).unwrap();
    let off = Style {
        shuffle: false,
        whitespace: false,
        escapes: false,
        number_forms: false,
    };
    let styles = [
        Style {
            shuffle: true,
            ..off
        },
        Style {
            whitespace: true,
            ..off
        },
        Style {
            escapes: true,
            ..off
        },
        Style {
            number_forms: true,
            ..off
        },
        Style {
            shuffle: true,
            whitespace: true,
            escapes: true,
            number_forms: true,
        },
    ];
    let mut out = Vec::new();
    for style in styles {
        let mut text = String::new();
        write_doc(&doc, rng, style, &mut text);
        out.push(text.into_bytes());
    }
    for _ in 0..4 {
        let mut text = String::new();
        write_doc(&with_extra_keys(&doc, rng), rng, styles[4], &mut text);
        out.push(text.into_bytes());
    }
    out
}

fn agree<T: PartialEq + std::fmt::Debug>(
    input: &[u8],
    new: Result<T, String>,
    old: Result<T, String>,
) {
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{}", String::from_utf8_lossy(input)),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "codec {new:?} vs oracle {old:?} on {:?}",
            String::from_utf8_lossy(input)
        ),
    }
}

// -------------------------------------------------------------------
// Tests
// -------------------------------------------------------------------

#[test]
fn every_message_encodes_to_the_bytes_the_tree_renders() {
    for req in requests(&HUGE) {
        assert_eq!(
            String::from_utf8(req.to_bytes()).unwrap(),
            request_json(&req).render(),
            "{req:?}"
        );
    }
    for resp in responses(&HUGE) {
        assert_eq!(
            String::from_utf8(resp.to_bytes()).unwrap(),
            response_json(&resp).render(),
            "{resp:?}"
        );
    }
}

#[test]
fn rewritten_documents_decode_alike() {
    let mut rng = Rng(0x5eed);
    for req in requests(&INTS) {
        let frame = req.to_bytes();
        agree(&frame, Request::from_bytes(&frame), oracle_request(&frame));
        for text in rewrites(&frame, &mut rng) {
            agree(&text, Request::from_bytes(&text), oracle_request(&text));
        }
    }
    for resp in responses(&INTS) {
        let frame = resp.to_bytes();
        agree(
            &frame,
            Response::from_bytes(&frame),
            oracle_response(&frame),
        );
        for text in rewrites(&frame, &mut rng) {
            agree(&text, Response::from_bytes(&text), oracle_response(&text));
        }
    }
}

#[test]
fn every_truncated_prefix_decodes_alike() {
    for req in requests(&INTS) {
        let frame = req.to_bytes();
        for cut in 0..frame.len() {
            let text = &frame[..cut];
            agree(text, Request::from_bytes(text), oracle_request(text));
        }
    }
    for resp in responses(&INTS) {
        let frame = resp.to_bytes();
        for cut in 0..frame.len() {
            let text = &frame[..cut];
            agree(text, Response::from_bytes(text), oracle_response(text));
        }
    }
}

#[test]
fn hand_written_edge_cases_decode_alike() {
    let requests: &[&[u8]] = &[
        b"",
        b"null",
        b"[1, 2]",
        b"{}",
        br#"{"op": 5}"#,
        br#"{"op": "solve", "tenant": 7, "objective": "balanced"}"#,
        br#"{"op": "solve", "objective": 3}"#,
        br#"{"op": "solve", "objective": "fastest"}"#,
        br#"{"op": "solve", "deletions": 5, "racing": "yes", "ticks": "9"}"#,
        br#"{"op": "solve", "deletions": null, "deadline_ms": null}"#,
        br#"{"op": "solve", "deletions": [[1, 2], [3]]}"#,
        br#"{"op": "solve", "deletions": [[1, 2, 3]]}"#,
        br#"{"op": "solve", "deletions": [[1, "2"]]}"#,
        br#"{"op": "solve", "deletions": [5]}"#,
        br#"{"op": "solve", "deletions": [[1e0, 20E-1]], "ticks": 1.5e3}"#,
        br#"{"op": "health", "deletions": [[1]], "spec": 3, "x": [[[]]]}"#,
        br#"{"op": "health", "x": [1,]}"#,
        br#"{"op": "health"} {}"#,
        br#"{"op": "health",}"#,
        br#"{"op": "health"}"#,
        br#"{"op": "epoch"}"#,
        br#"{"op": "publish"}"#,
        br#"{"op": "publish", "spec": 3}"#,
        br#"{"op": "publish", "spec": {"kind": "fig1"}, "label": 9}"#,
        br#"{"op": "publish", "spec": {"kind": "teapot"}}"#,
        br#"{"op": "publish_delta", "restores": [[0, 1]], "deletions": {}}"#,
        br#"{"op": "stats", "op": "health"}"#,
        br#"{"op": "solve", "sharded": 1, "sharded": true}"#,
        b"{\"op\": \"st\xc3\xa9ts\"}",
        b"{\"op\": \"stats\", \"x\": \"\xff\"}",
    ];
    for text in requests {
        agree(text, Request::from_bytes(text), oracle_request(text));
    }
    let responses: &[&[u8]] = &[
        br#"{"status": "ok"}"#,
        br#"{"status": "error"}"#,
        br#"{"status": "error", "deleted": [[1, "x"]], "message": 4}"#,
        br#"{"status": "overloaded", "reason": null}"#,
        br#"{"status": "delta_published", "deleted": [[1, 2]], "epoch": 1, "restored": 0, "overdeleted": 0, "rederived": 0}"#,
        br#"{"status": "delta_published", "deleted": 3, "epoch": 1, "restored": 0, "overdeleted": 0, "rederived": 0, "label": "x"}"#,
        br#"{"attempts": 1, "cost": "NaN", "degraded": false, "deleted": [], "epoch": 1, "guarantee": "exact", "micros": 5, "status": "ok", "ticks": 0, "winner": "w"}"#,
        br#"{"attempts": 1, "cost": 2, "degraded": 0, "deleted": [], "epoch": 1, "guarantee": "exact", "micros": 5, "status": "ok", "ticks": 0, "winner": "w"}"#,
        br#"{"attempts": 1, "cost": 2, "degraded": false, "deleted": {}, "epoch": 1, "guarantee": "exact", "micros": 5, "status": "ok", "ticks": 0, "winner": "w"}"#,
        br#"{"attempts": 1, "cost": 2, "degraded": false, "deleted": [[0, 1]], "epoch": 1, "guarantee": "exact", "micros": 5, "status": "ok", "ticks": 0}"#,
    ];
    for text in responses {
        agree(text, Response::from_bytes(text), oracle_response(text));
    }
}

#[test]
fn the_only_divergence_is_refusing_to_cast_numbers_into_ids() {
    let cast: &[&[u8]] = &[
        br#"{"op":"solve","deletions":[[-1,5]]}"#,
        br#"{"op":"solve","deletions":[[0.9,1e300]]}"#,
        br#"{"op":"solve","deadline_ms":-5}"#,
        br#"{"op":"publish_delta","restores":[[2,-3]]}"#,
    ];
    for text in cast {
        assert!(oracle_request(text).is_ok(), "the oracle casts");
        assert!(Request::from_bytes(text).is_err(), "the codec refuses");
    }
    let ok = br#"{"attempts": 1, "cost": 2, "degraded": false, "deleted": [[0, -1]], "epoch": 1, "guarantee": "exact", "micros": 5, "status": "ok", "ticks": 0, "winner": "w"}"#;
    assert!(oracle_response(ok).is_ok(), "the oracle casts");
    assert!(Response::from_bytes(ok).is_err(), "the codec refuses");

    // Far beyond 2^53 the oracle saturates the cast; the codec refuses.
    for req in requests(&[u64::MAX]) {
        let frame = req.to_bytes();
        if let Request::Solve(s) = &req {
            assert!(oracle_request(&frame).is_ok(), "{req:?}");
            assert_eq!(
                Request::from_bytes(&frame).is_err(),
                s.deadline_ms.is_some() || s.ticks.is_some()
            );
        }
    }
}
