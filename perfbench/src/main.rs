//! `perfbench`: the xmltc benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--xmltc <path to the xmltc binary>] [--out-dir <dir>]
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up several times
//! (reporting the median set-up time; the library workloads repeat their
//! set-up between ops of the loop), runs its timed loop for `--seconds`,
//! then checks every result against a reference that does not share code
//! with the layer being measured. With `--trace 0` the untraced loop gives
//! the end-to-end metrics; with `--trace 1` the loop runs once untraced and
//! once with a span around every layer call, giving the per-layer metrics
//! (the spans are written to `<out-dir>/trace-<workload>-<seed>.json`).
//! The last line of stdout is the JSON result. See `README.md`.

mod corpus_sweep;
mod gen;
mod layers;
mod measure;
mod pebble_k2;
mod serve_mix;
mod walk_scale;

use layers::Probe;
use measure::{
    end_to_end, mean, median, peak_rss_mb, run_loop, timed, Decision, Metrics, Outcome, Rate,
    Setup, Tracer,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// The shipped `xmltc` binary (`serve-mix` only).
    pub xmltc: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["corpus-sweep", "walk-scale", "pebble-k2", "serve-mix"];

/// Every per-layer metric of the traced run, with its unit. A workload that
/// does not call a layer reports `0` for it.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("product.ms", "ms"),
    ("product.pebble_states", "count"),
    ("walk.kernel_ms", "ms"),
    ("walk.convert_ms", "ms"),
    ("walk.dbta_states", "count"),
    ("walk.compositions", "count"),
    ("walk.memo_hit_rate", "ratio"),
    ("walk.fixpoint_steps", "count"),
    ("walk.parallel_batches", "count"),
    ("mso.compile_ms", "ms"),
    ("mso.max_states", "count"),
    ("mso.determinizations", "count"),
    ("mso.operations", "count"),
    ("emptiness.ms", "ms"),
    ("emptiness.states_materialized", "count"),
    ("bad_output.ms", "ms"),
    ("dtd.compile_ms", "ms"),
    ("xmlql.compile_ms", "ms"),
    ("xml.parse_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("service.hit_rtt_ms.p50", "ms"),
    ("service.miss_rtt_ms.p50", "ms"),
    ("service.server_ms.p50", "ms"),
    ("service.wire_ms.p50", "ms"),
    ("service.hit_ratio.dtd", "ratio"),
    ("service.hit_ratio.pipeline", "ratio"),
    ("service.hit_ratio.tau2", "ratio"),
    ("service.hit_ratio.violations", "ratio"),
    ("service.hit_ratio.verdict", "ratio"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Span name → per-layer time metric (mean self time per op).
const SPAN_METRICS: [(&str, &str); 10] = [
    ("product", "product.ms"),
    ("walk.kernel", "walk.kernel_ms"),
    ("walk.convert", "walk.convert_ms"),
    ("mso.compile", "mso.compile_ms"),
    ("emptiness", "emptiness.ms"),
    ("bad_output", "bad_output.ms"),
    ("dtd.compile", "dtd.compile_ms"),
    ("xmlql.compile", "xmlql.compile_ms"),
    ("xml.parse", "xml.parse_ms"),
    ("core.eval", "core.eval_ms"),
];

/// Counters averaged per op.
const COUNT_METRICS: [&str; 9] = [
    "product.pebble_states",
    "walk.dbta_states",
    "walk.compositions",
    "walk.fixpoint_steps",
    "walk.parallel_batches",
    "mso.max_states",
    "mso.determinizations",
    "mso.operations",
    "emptiness.states_materialized",
];

/// Assembles the per-layer metrics of a traced run. `untraced_ms` and
/// `traced_ms` are the mean op times of the two passes over the same ops;
/// `extra` holds workload-specific values (the service figures).
pub fn per_layer(
    tracer: &Tracer,
    untraced_ms: f64,
    traced_ms: f64,
    extra: BTreeMap<&'static str, f64>,
) -> Metrics {
    let ops = tracer.ops().max(1) as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let self_ms = tracer.self_ms();
    for (span, metric) in SPAN_METRICS {
        values.insert(metric, self_ms.get(span).copied().unwrap_or(0.0) / ops);
    }
    for name in COUNT_METRICS {
        values.insert(name, tracer.total(name) / ops);
    }
    let compositions = tracer.total("walk.compositions");
    values.insert(
        "walk.memo_hit_rate",
        if compositions > 0.0 {
            tracer.total("walk.memo_hits") / compositions
        } else {
            0.0
        },
    );
    values.insert("unattributed_pct", tracer.unattributed_pct());
    values.insert(
        "trace_overhead_pct",
        if untraced_ms > 0.0 {
            100.0 * (traced_ms - untraced_ms) / untraced_ms
        } else {
            0.0
        },
    );
    values.extend(extra);
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    m
}

/// The timed loop of a library workload. Untraced, it gives the
/// end-to-end metrics. Traced, it runs untraced for half the time, then the
/// same ops again with each one inside a root `op` span and `op` handed a
/// recording probe, giving the per-layer metrics. `prepare` builds op `k`'s
/// input outside the op's time and span; `op` runs and judges it. `rate`
/// chooses how the untraced loop reports throughput. The untraced loop of
/// an untraced run also repeats `setup` between ops, spread evenly over
/// `--seconds`, and reports the median of its `reps` set-up times: a
/// shared host's slow spells last seconds to minutes (README, B-noise), so
/// set-ups timed back to back before the loop would all meet the same one.
pub fn run_passes<P, T, F: FnMut() -> T>(
    args: &Args,
    window: usize,
    rate: Rate,
    mut setup: Setup<F>,
    mut prepare: impl FnMut(usize) -> P,
    mut op: impl FnMut(usize, &P, &mut Probe) -> Decision,
) -> Outcome {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let reps = if args.trace { 1 } else { setup.reps.max(1) };
    let mut setup_secs = vec![setup.first_s];
    let start = Instant::now();
    let untraced = run_loop(seconds, window, None, |k| {
        while setup_secs.len() < reps
            && start.elapsed().as_secs_f64() >= seconds * setup_secs.len() as f64 / reps as f64
        {
            let t = Instant::now();
            drop((setup.again)());
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let input = prepare(k);
        let (d, ms) = timed(|| op(k, &input, &mut Probe(None)));
        (ms, d)
    });
    if !args.trace {
        let setup_s = median(&setup_secs);
        return Outcome {
            attempted: untraced.attempted(),
            failed: untraced.failed,
            wrong: Vec::new(),
            metrics: end_to_end(&untraced, rate, setup_s, peak_rss_mb("self")),
        };
    }
    let mut tracer = Tracer::default();
    let traced = run_loop(f64::INFINITY, window, Some(untraced.attempted()), |k| {
        let input = prepare(k);
        let (d, ms) = timed(|| tracer.op(|t| op(k, &input, &mut Probe(Some(t)))));
        (ms, d)
    });
    if let Err(e) = tracer.write_chrome(&trace_path(args)) {
        eprintln!("perfbench: cannot write the trace: {e}");
    }
    Outcome {
        attempted: traced.attempted(),
        failed: traced.failed,
        wrong: Vec::new(),
        metrics: per_layer(
            &tracer,
            mean(&untraced.latencies_ms),
            mean(&traced.latencies_ms),
            BTreeMap::new(),
        ),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut xmltc = PathBuf::from(".bench_build/release/xmltc");
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            "--xmltc" => xmltc = PathBuf::from(value),
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        xmltc,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "corpus-sweep" => corpus_sweep::run(&args),
        "walk-scale" => walk_scale::run(&args),
        "pebble-k2" => pebble_k2::run(&args),
        _ => serve_mix::run(&args),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for w in &outcome.wrong {
        eprintln!("perfbench: WRONG RESULT: {w}");
    }
    println!(
        "{} seed={} trace={} attempted={} failed={} wrong={}",
        args.workload,
        args.seed,
        args.trace as u8,
        outcome.attempted,
        outcome.failed,
        outcome.wrong.len()
    );
    for (name, value, unit) in &outcome.metrics.0 {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        measure::result_json(outcome.wrong.is_empty(), &outcome)
    );
    ExitCode::SUCCESS
}

/// Where the traced run of `args` writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    args.out_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed))
}
