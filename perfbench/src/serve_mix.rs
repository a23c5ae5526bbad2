//! `serve-mix`: two closed-loop clients over loopback against the shipped
//! `xmltc serve`, replaying a seeded stream of four request kinds — hot
//! fixture typechecks (verdict-cache reads), cold tag-renamed variants of
//! the same triples (miss every cache layer, then build and insert),
//! `validate` and `transform` on generated `q2.dtd` documents.

use crate::gen::{mix, q2_document, rename_tags, shuffle, FIXTURES, Q2_DTD, Q2_XSL, RELABEL_XSL};
use crate::layers::{self, Probe};
use crate::measure::{
    self, end_to_end, median, ms_since, peak_rss_mb, timed_setups, Decision, Outcome, Rate, Tally,
    Tracer,
};
use crate::{per_layer, trace_path, Args};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmltc_dtd::Dtd;
use xmltc_obs::Json;
use xmltc_service::Client;
use xmltc_trees::SmallRng;
use xmltc_typecheck::TypecheckOptions;
use xmltc_xml::{parse_document, raw_to_xml};
use xmltc_xmlql::{DocumentPipeline, Stylesheet};

/// Closed-loop clients (one per core of the reference host).
const CLIENTS: usize = 2;
/// Requests per block: the kind mix is exact per block, in a seeded order.
/// No recorded traffic exists to take shares from, so the mix is
/// stipulated: equal shares of the four kinds (hot, cold, validate, and
/// transform, the rest of the block).
const BLOCK: usize = 20;
const HOT_PER_BLOCK: usize = 5;
const COLD_PER_BLOCK: usize = 5;
const VALIDATE_PER_BLOCK: usize = 5;
/// Generated documents (sizes 0..MAX_CHILDREN children, stratified).
const DOCS: usize = 64;
const MAX_CHILDREN: usize = 48;
/// The server's artifact-cache budget, stipulated below the shipped
/// 256 MiB default. Cold requests insert without end, and the cache's size
/// estimates undercount resident memory 3-4x, so at the default budget the
/// server grows past 0.8 GB within 10 s and its peak RSS measures how many
/// cold requests a run fitted in. At 32 MiB the cache fills within the
/// first second and evicts from then on: peak RSS measures the steady
/// state.
const CACHE_BYTES: &str = "33554432";
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 9;
/// The stylesheets `transform` requests use.
const SHEETS: [&str; 2] = [Q2_XSL, RELABEL_XSL];
/// Cache layers whose hit ratios the traced run reports.
const LAYERS: [&str; 5] = ["dtd", "pipeline", "tau2", "violations", "verdict"];

#[derive(Clone)]
enum Kind {
    /// A fixture typecheck, its verdict cached at set-up.
    Hot(usize),
    /// A tag-renamed fixture typecheck nobody has asked for before.
    Cold(usize, String),
    /// `validate` of document `d`; `valid` by construction.
    Validate(usize, bool),
    /// `transform` of document `d` by stylesheet `s`.
    Transform(usize, usize),
}

struct Req {
    kind: Kind,
    line: String,
}

fn typecheck_line(input: &str, sheet: &str, output: &str) -> String {
    Json::obj(vec![
        ("cmd", Json::Str("typecheck".into())),
        ("input_dtd", Json::Str(input.into())),
        ("stylesheet", Json::Str(sheet.into())),
        ("output_dtd", Json::Str(output.into())),
    ])
    .encode()
}

fn request(kind: Kind, docs: &[(String, bool)]) -> Req {
    let line = match &kind {
        Kind::Hot(f) => {
            let f = &FIXTURES[*f];
            typecheck_line(f.input_dtd, f.stylesheet, f.output_dtd)
        }
        Kind::Cold(f, suffix) => {
            let f = &FIXTURES[*f];
            typecheck_line(
                &rename_tags(f.input_dtd, suffix),
                &rename_tags(f.stylesheet, suffix),
                &rename_tags(f.output_dtd, suffix),
            )
        }
        Kind::Validate(d, _) => Json::obj(vec![
            ("cmd", Json::Str("validate".into())),
            ("input_dtd", Json::Str(Q2_DTD.into())),
            ("document", Json::Str(docs[*d].0.clone())),
        ])
        .encode(),
        Kind::Transform(s, d) => Json::obj(vec![
            ("cmd", Json::Str("transform".into())),
            ("input_dtd", Json::Str(Q2_DTD.into())),
            ("stylesheet", Json::Str(SHEETS[*s].into())),
            ("document", Json::Str(docs[*d].0.clone())),
        ])
        .encode(),
    };
    Req { kind, line }
}

/// The documents: even slots valid, odd slots invalid by a nested `a`
/// (when they have a child to nest in). Sizes are drawn by stratified
/// sampling: pair `j` of slots draws from the `j`-th of `DOCS / 2`
/// equal-width strata of `0..MAX_CHILDREN`, so every seed sees the same
/// spread of sizes and the latency mix does not move with the seed.
fn documents(seed: u64) -> Vec<(String, bool)> {
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0xd0c5));
    let strata = DOCS / 2;
    (0..DOCS)
        .map(|i| {
            let lo = (i / 2) * MAX_CHILDREN / strata;
            let hi = (i / 2 + 1) * MAX_CHILDREN / strata;
            let n = rng.gen_range(lo..hi);
            let nest = (i % 2 == 1 && n > 0).then(|| rng.gen_range(0..n));
            (q2_document(n, nest), nest.is_none())
        })
        .collect()
}

/// Block `b` of client `c`: the fixed kind mix in a seeded order. Cold
/// requests rotate through the fixtures and carry a suffix unique to
/// `(seed, client, block, slot)`.
fn block(seed: u64, c: usize, b: usize, docs: &[(String, bool)]) -> Vec<Req> {
    let s = mix(seed ^ mix((c as u64) << 40 | b as u64));
    let mut rng = SmallRng::seed_from_u64(s);
    let nf = FIXTURES.len();
    let rot = (seed as usize).wrapping_add(c * 3);
    let mut kinds = Vec::with_capacity(BLOCK);
    for i in 0..HOT_PER_BLOCK {
        kinds.push(Kind::Hot((rot + b * HOT_PER_BLOCK + i) % nf));
    }
    for i in 0..COLD_PER_BLOCK {
        let suffix = format!("x{:x}c{c}b{b}i{i}", seed & 0xffff);
        kinds.push(Kind::Cold((rot + b * COLD_PER_BLOCK + i) % nf, suffix));
    }
    for _ in 0..VALIDATE_PER_BLOCK {
        let d = rng.gen_range(0..DOCS);
        kinds.push(Kind::Validate(d, docs[d].1));
    }
    while kinds.len() < BLOCK {
        // Transforms run on the valid (even-slot) documents.
        let d = 2 * rng.gen_range(0..DOCS / 2);
        kinds.push(Kind::Transform(rng.gen_range(0..SHEETS.len()), d));
    }
    shuffle(&mut kinds, s);
    kinds.into_iter().map(|k| request(k, docs)).collect()
}

/// A running `xmltc serve`; killed if still running when dropped.
struct Server {
    child: Child,
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(xmltc: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(xmltc)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache-bytes",
                CACHE_BYTES,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xmltc.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = out.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("xmltc serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected serve banner `{}`", line.trim()));
        };
        let addr = addr.to_string();
        // Drain the shutdown report so the server never blocks on a full pipe.
        let stdout = std::thread::spawn(move || {
            let _ = out.read_to_end(&mut Vec::new());
        });
        Ok(Server {
            child,
            addr,
            stdout: Some(stdout),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.roundtrip_line(r#"{"cmd":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Per-layer cache `(hits, misses)` from a `stats` response.
fn cache_counts(addr: &str) -> Result<BTreeMap<&'static str, (f64, f64)>, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = c.roundtrip(&Json::obj(vec![("cmd", Json::Str("stats".into()))]))?;
    let mut out = BTreeMap::new();
    for layer in LAYERS {
        let kind = stats
            .get("cache")
            .and_then(|c| c.get("kinds"))
            .and_then(|k| k.get(layer));
        let n = |f: &str| {
            kind.and_then(|k| k.get(f))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        out.insert(layer, (n("hits"), n("misses")));
    }
    Ok(out)
}

/// Everything set-up produces. Request blocks are generated as the
/// clients reach them, outside the timed round trips.
struct Ready {
    server: Server,
    docs: Vec<(String, bool)>,
}

/// Generates the documents, starts the server and warms what users keep
/// warm: every hot fixture's verdict, the document type and both
/// transform pipelines.
fn setup(args: &Args) -> Result<Ready, String> {
    let docs = documents(args.seed);
    let server = Server::start(&args.xmltc)?;
    let mut client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut warm: Vec<Kind> = (0..FIXTURES.len()).map(Kind::Hot).collect();
    warm.push(Kind::Validate(0, docs[0].1));
    warm.extend((0..SHEETS.len()).map(|s| Kind::Transform(s, 0)));
    for k in warm {
        let r = request(k, &docs);
        let resp = client.roundtrip_line(&r.line)?;
        if !resp.contains("\"ok\":true") {
            return Err(format!("warm-up request failed: {resp}"));
        }
    }
    Ok(Ready { server, docs })
}

/// One answered request.
struct Sample {
    kind: Kind,
    rtt_ms: f64,
    server_ms: f64,
    decision: Decision,
    /// `transform` output, checked after the loop.
    output: Option<String>,
    /// Why the response was wrong, if it was.
    wrong: Option<String>,
}

fn judge(kind: &Kind, resp: &Json) -> (Decision, Option<String>, Option<String>) {
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return (Decision::Failed, None, None);
    }
    let field = |k: &str| {
        resp.get("result")
            .and_then(|r| r.get(k))
            .and_then(Json::as_str)
    };
    let expect = |got: Option<&str>, want: &str, what: String| {
        if got == Some(want) {
            (Decision::Decided, None, None)
        } else {
            (
                Decision::Decided,
                None,
                Some(format!("{what}: got {got:?}, expected {want}")),
            )
        }
    };
    match kind {
        Kind::Hot(f) | Kind::Cold(f, _) => {
            let fx = &FIXTURES[*f];
            let want = if fx.typechecks {
                "typechecks"
            } else {
                "counterexample"
            };
            expect(field("verdict"), want, format!("typecheck {}", fx.name))
        }
        Kind::Validate(d, valid) => {
            let want = if *valid { "valid" } else { "invalid" };
            expect(field("verdict"), want, format!("validate document {d}"))
        }
        Kind::Transform(..) => match field("output") {
            Some(out) => (Decision::Decided, Some(out.to_string()), None),
            None => (Decision::Failed, None, None),
        },
    }
}

/// Local copies of the work a request makes the server do, timed by the
/// traced run after its round trips: parsing documents, compiling DTDs and
/// stylesheets, evaluating transforms, and typechecking a cold triple
/// layer by layer. A hot request is a verdict-cache read: no layer work.
struct Mirror {
    dtd: Dtd,
    pipelines: Vec<DocumentPipeline>,
}

impl Mirror {
    fn new() -> Mirror {
        let dtd = Dtd::parse_text(Q2_DTD).expect("q2.dtd parses");
        let pipelines = SHEETS
            .iter()
            .map(|s| {
                DocumentPipeline::new(
                    Stylesheet::parse_text(s).expect("stylesheet parses"),
                    Dtd::parse_text(Q2_DTD).expect("q2.dtd parses"),
                )
                .expect("pipeline builds")
            })
            .collect();
        Mirror { dtd, pipelines }
    }

    fn run(&self, t: &mut Tracer, kind: &Kind, docs: &[(String, bool)]) {
        match kind {
            Kind::Hot(_) => {}
            Kind::Cold(f, suffix) => {
                // The server's cold path: the pipeline (stylesheet and
                // input DTD), the output DTD, then Theorem 4.4.
                let fx = &FIXTURES[*f];
                let input = rename_tags(fx.input_dtd, suffix);
                let sheet = rename_tags(fx.stylesheet, suffix);
                let output = rename_tags(fx.output_dtd, suffix);
                let Some(input) = t.span("dtd.compile", || Dtd::parse_text(&input).ok()) else {
                    return;
                };
                let Some((transducer, enc_in, enc_out)) = t.span("xmlql.compile", || {
                    Stylesheet::parse_text(&sheet)
                        .ok()?
                        .compile(input.alphabet())
                        .ok()
                }) else {
                    return;
                };
                let Some((tau1, tau2)) = t.span("dtd.compile", || {
                    let out = Dtd::parse_text_with(&output, enc_out.source()).ok()?;
                    Some((input.compile(&enc_in).ok()?, out.compile(&enc_out).ok()?))
                }) else {
                    return;
                };
                let opts = TypecheckOptions::default();
                let _ = layers::typecheck(&mut Probe(Some(t)), &transducer, &tau1, &tau2, &opts);
            }
            Kind::Validate(d, _) => {
                t.span("xml.parse", || {
                    parse_document(&docs[*d].0, self.dtd.alphabet()).ok()
                });
            }
            Kind::Transform(s, d) => {
                let p = &self.pipelines[*s];
                let doc = t.span("xml.parse", || {
                    parse_document(&docs[*d].0, p.input_dtd().alphabet()).ok()
                });
                if let Some(doc) = doc {
                    t.span("core.eval", || p.transform(&doc).ok());
                }
            }
        }
    }
}

/// One client's share of a pass.
struct ClientRun {
    samples: Vec<Sample>,
    tracer: Tracer,
    next_block: usize,
}

/// What one pass of all clients produced.
struct Pass {
    /// Every answered request.
    samples: Vec<Sample>,
    /// The clients' spans, merged (empty unless traced).
    tracer: Tracer,
    /// The first block no client reached.
    next_block: usize,
    tally: Tally,
}

/// Runs both clients for `seconds` (whole blocks), starting at block
/// `first_block`. With `trace`, each client records a span per round trip
/// (and the server's `wall_ms` inside it); once both clients have stopped,
/// the mirror work of every request is timed, filed under its request's
/// op, so it never competes with the server for the cores.
fn clients(
    ready: &Ready,
    args: &Args,
    seconds: f64,
    first_block: usize,
    trace: bool,
) -> Result<Pass, String> {
    let start = Instant::now();
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<ClientRun, String> {
                    let mut client =
                        Client::connect(&ready.server.addr).map_err(|e| e.to_string())?;
                    let mut tracer = Tracer::default();
                    let mut samples = Vec::new();
                    let mut b = first_block;
                    while start.elapsed().as_secs_f64() < seconds {
                        for r in block(args.seed, c, b, &ready.docs) {
                            let mut exchange = || {
                                let t0 = Instant::now();
                                let resp = client.roundtrip_line(&r.line);
                                (resp, ms_since(t0))
                            };
                            let (resp, rtt_ms) = if trace {
                                tracer.op(|t| {
                                    let (resp, rtt) = exchange();
                                    let wall = resp
                                        .as_ref()
                                        .ok()
                                        .and_then(|l| Json::parse(l).ok())
                                        .and_then(|j| j.get("wall_ms").and_then(Json::as_f64))
                                        .unwrap_or(0.0);
                                    t.external("service.server", wall);
                                    (resp, rtt)
                                })
                            } else {
                                exchange()
                            };
                            let parsed = resp.as_ref().ok().and_then(|l| Json::parse(l).ok());
                            let (decision, output, wrong) = match &parsed {
                                Some(j) => judge(&r.kind, j),
                                None => (Decision::Failed, None, None),
                            };
                            let server_ms = parsed
                                .as_ref()
                                .and_then(|j| j.get("wall_ms").and_then(Json::as_f64))
                                .unwrap_or(0.0);
                            samples.push(Sample {
                                kind: r.kind,
                                rtt_ms,
                                server_ms,
                                decision,
                                output,
                                wrong,
                            });
                        }
                        b += 1;
                    }
                    Ok(ClientRun {
                        samples,
                        tracer,
                        next_block: b,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut pass = Pass {
        samples: Vec::new(),
        tracer: Tracer::default(),
        next_block: first_block,
        tally: Tally::default(),
    };
    pass.tally.wall_s = start.elapsed().as_secs_f64();
    let mirror = trace.then(Mirror::new);
    for r in results {
        let mut run = r?;
        if let Some(m) = &mirror {
            for (i, s) in run.samples.iter().enumerate() {
                run.tracer
                    .within(i as u64 + 1, |t| m.run(t, &s.kind, &ready.docs));
            }
        }
        pass.samples.extend(run.samples);
        pass.tracer.merge(run.tracer);
        pass.next_block = pass.next_block.max(run.next_block);
    }
    for s in &pass.samples {
        pass.tally.record(s.rtt_ms, s.decision);
    }
    Ok(pass)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // A superseded set-up's server is killed when its `Ready` is dropped.
    let (setup_s, ready) = timed_setups(SETUPS, || setup(args));
    let ready = ready?;
    let before = cache_counts(&ready.server.addr)?;

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = clients(&ready, args, untraced_secs, 0, false)?;

    let (mut outcome, all) = if args.trace {
        let traced = clients(&ready, args, args.seconds / 2.0, untraced.next_block, true)?;
        let after = cache_counts(&ready.server.addr)?;
        if let Err(e) = traced.tracer.write_chrome(&trace_path(args)) {
            eprintln!("perfbench: cannot write the trace: {e}");
        }
        let p50 = |f: &dyn Fn(&Sample) -> Option<f64>| {
            median(&traced.samples.iter().filter_map(f).collect::<Vec<f64>>())
        };
        let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
        extra.insert(
            "service.hit_rtt_ms.p50",
            p50(&|s| matches!(s.kind, Kind::Hot(_)).then_some(s.rtt_ms)),
        );
        extra.insert(
            "service.miss_rtt_ms.p50",
            p50(&|s| matches!(s.kind, Kind::Cold(..)).then_some(s.rtt_ms)),
        );
        extra.insert("service.server_ms.p50", p50(&|s| Some(s.server_ms)));
        extra.insert(
            "service.wire_ms.p50",
            p50(&|s| Some(s.rtt_ms - s.server_ms)),
        );
        for (layer, metric) in LAYERS.iter().zip([
            "service.hit_ratio.dtd",
            "service.hit_ratio.pipeline",
            "service.hit_ratio.tau2",
            "service.hit_ratio.violations",
            "service.hit_ratio.verdict",
        ]) {
            let (h0, m0) = before[layer];
            let (h1, m1) = after[layer];
            let total = (h1 - h0) + (m1 - m0);
            extra.insert(metric, if total > 0.0 { (h1 - h0) / total } else { 0.0 });
        }
        let outcome = Outcome {
            attempted: traced.tally.attempted(),
            failed: traced.tally.failed,
            wrong: Vec::new(),
            metrics: per_layer(
                &traced.tracer,
                measure::mean(&untraced.tally.latencies_ms),
                measure::mean(&traced.tally.latencies_ms),
                extra,
            ),
        };
        let mut all = untraced.samples;
        all.extend(traced.samples);
        (outcome, all)
    } else {
        let outcome = Outcome {
            attempted: untraced.tally.attempted(),
            failed: untraced.tally.failed,
            wrong: Vec::new(),
            metrics: end_to_end(
                &untraced.tally,
                Rate::MedianWindow,
                setup_s,
                peak_rss_mb(&ready.server.pid()),
            ),
        };
        (outcome, untraced.samples)
    };
    ready.server.stop();

    // Reference checks: verdicts and validity were judged per response
    // against the hand-written table and the documents' construction;
    // transforms must equal `Stylesheet::apply` on the parsed document.
    let mut wrong: Vec<String> = all.iter().filter_map(|s| s.wrong.clone()).collect();
    let sheets: Vec<Stylesheet> = SHEETS
        .iter()
        .map(|s| Stylesheet::parse_text(s).expect("stylesheet parses"))
        .collect();
    let dtd = Arc::new(Dtd::parse_text(Q2_DTD).expect("q2.dtd parses"));
    let mut expected: BTreeMap<(usize, usize), String> = BTreeMap::new();
    for s in &all {
        if let (Kind::Transform(sh, d), Some(out)) = (&s.kind, &s.output) {
            let want = expected.entry((*sh, *d)).or_insert_with(|| {
                parse_document(&ready.docs[*d].0, dtd.alphabet())
                    .ok()
                    .and_then(|doc| sheets[*sh].apply(&doc).ok())
                    .map(|raw| raw_to_xml(&raw))
                    .unwrap_or_default()
            });
            if want != out {
                wrong.push(format!(
                    "transform {sh} of document {d}: got {out}, expected {want}"
                ));
            }
        }
    }
    wrong.truncate(20);
    outcome.wrong = wrong;
    Ok(outcome)
}
