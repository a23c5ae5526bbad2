//! Measurement plumbing shared by the workloads: latency samples, the
//! in-memory span recorder of the traced run, set-up timing, peak RSS, and
//! the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// `0.0` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of samples; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` `reps` times and returns the median wall time in seconds
/// together with the last result (the one the timed loop uses).
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// A library workload's set-up, timed again during its loop: `first_s` is
/// the wall time of the set-up the run uses, and `again` repeats it (what
/// it builds is dropped) until `reps` set-ups are timed. See
/// `crate::run_passes`.
pub struct Setup<F> {
    /// Seconds the first set-up took.
    pub first_s: f64,
    /// Set-ups to time in all.
    pub reps: usize,
    /// Runs the set-up once more.
    pub again: F,
}

/// Runs `setup` once, returning what it built and the `Setup` that repeats
/// it.
pub fn first_setup<T, F: FnMut() -> T>(reps: usize, mut setup: F) -> (T, Setup<F>) {
    let t = Instant::now();
    let value = setup();
    let first_s = t.elapsed().as_secs_f64();
    (
        value,
        Setup {
            first_s,
            reps,
            again: setup,
        },
    )
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How one op ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// A verdict (or response) that the reference checks accept.
    Decided,
    /// An expected non-verdict: budget exhaustion or a typed error the
    /// workload documents as its undecided share.
    Undecided,
    /// An unexpected error (protocol failure, an error kind the workload
    /// never expects). Counted as undecided and as failed.
    Failed,
}

/// The end-to-end tally of one timed loop.
#[derive(Default)]
pub struct Tally {
    /// Per-op latency, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops that ended decided.
    pub decided: u64,
    /// Ops that ended with an unexpected error.
    pub failed: u64,
    /// Wall time of the timed loop, seconds.
    pub wall_s: f64,
    /// Ops per second of op time, per whole measurement window.
    pub windows: Vec<f64>,
}

impl Tally {
    /// Records one op.
    pub fn record(&mut self, ms: f64, d: Decision) {
        self.latencies_ms.push(ms);
        match d {
            Decision::Decided => self.decided += 1,
            Decision::Undecided => {}
            Decision::Failed => self.failed += 1,
        }
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// One closed span of the traced run.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`op` for the whole op).
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are pushed when they open and closed in
/// place, so a span's children always follow it in `spans`.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f();
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Runs one whole op: a root `op` span with a fresh op id.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        let idx = self.spans.len();
        self.spans.push(Span {
            name: "op",
            op: self.op,
            parent: None,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Runs `f` with the spans it opens filed under the earlier op `op`
    /// (work timed after that op's own span closed).
    pub fn within<R>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let current = std::mem::replace(&mut self.op, op);
        let out = f(self);
        self.op = current;
        out
    }

    /// Adds a span whose duration was measured elsewhere (the server's
    /// own `wall_ms`), nested in the currently open span and ending now.
    pub fn external(&mut self, name: &'static str, ms: f64) {
        let end = self.now_ns();
        let dur = (ms * 1e6) as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: end.saturating_sub(dur),
            end_ns: end,
        });
    }

    /// Appends another recorder's spans (as further ops) and counters.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.op += self.op;
            self.spans.push(s);
        }
        self.op += other.op;
        for (k, v) in other.counts {
            self.count(k, v);
        }
    }

    /// Adds `value` to the running total of counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Running total of counter `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Ops recorded so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Self time per span name, milliseconds summed over all ops: each
    /// span's duration minus the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total duration of all root `op` spans, milliseconds.
    pub fn op_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Share of op time no layer span covers, percent.
    pub fn unattributed_pct(&self) -> f64 {
        let op = self.op_ms();
        if op <= 0.0 {
            return 0.0;
        }
        100.0 * self.self_ms().get("op").copied().unwrap_or(0.0) / op
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// one row per op.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The metrics one run reports, in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Ops attempted in the reported loop.
    pub attempted: u64,
    /// Ops that ended with an unexpected error.
    pub failed: u64,
    /// Reference-check failures (any makes the run incorrect).
    pub wrong: Vec<String>,
    /// The metrics of this run.
    pub metrics: Metrics,
}

/// How `end_to_end` reports throughput.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rate {
    /// With at least two whole measurement windows, the median window's
    /// ops per second of op time: a heavy-tailed draw then moves the
    /// latency tail, not the typical rate. Otherwise ops over the loop's
    /// wall time.
    MedianWindow,
    /// Ops per second of op time over the whole loop: for a loop whose
    /// windows differ in cost by design, where the median window would
    /// depend on which draw it happened to be.
    WholeLoop,
}

/// The end-to-end metrics every workload reports from its untraced loop.
pub fn end_to_end(t: &Tally, rate: Rate, setup_s: f64, rss_mb: f64) -> Metrics {
    let throughput = match rate {
        Rate::MedianWindow if t.windows.len() >= 2 => median(&t.windows),
        Rate::MedianWindow => t.attempted() as f64 / t.wall_s.max(1e-9),
        Rate::WholeLoop => {
            1e3 * t.attempted() as f64 / t.latencies_ms.iter().sum::<f64>().max(1e-9)
        }
    };
    let mut m = Metrics::default();
    m.put("latency_ms.p50", median(&t.latencies_ms), "ms");
    m.put("latency_ms.p99", percentile(&t.latencies_ms, 0.99), "ms");
    m.put("throughput_ops_s", throughput, "1/s");
    m.put(
        "decided_ratio",
        t.decided as f64 / t.attempted().max(1) as f64,
        "ratio",
    );
    m.put("peak_rss_mb", rss_mb, "MiB");
    m.put("setup_s", setup_s, "s");
    m
}

/// Renders the result line.
pub fn result_json(correct: bool, o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.0.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

/// Runs ops `0, 1, 2, …` in windows of `window` ops until `seconds` have
/// passed — checking the clock only between windows, so every run sees
/// each part of a round in the same proportion — or until `limit` ops have
/// run. Each whole window records its rate. `op` returns its own latency,
/// so input preparation can stay outside it.
pub fn run_loop(
    seconds: f64,
    window: usize,
    limit: Option<u64>,
    mut op: impl FnMut(usize) -> (f64, Decision),
) -> Tally {
    let window = window.max(1);
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut i = 0usize;
    let mut window_ms = 0.0f64;
    loop {
        if limit.is_some_and(|n| i as u64 >= n) {
            break;
        }
        if i.is_multiple_of(window) {
            if i > 0 {
                tally
                    .windows
                    .push(1e3 * window as f64 / window_ms.max(1e-9));
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            window_ms = 0.0;
        }
        let (ms, d) = op(i);
        tally.record(ms, d);
        window_ms += ms;
        i += 1;
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    tally
}

/// Runs `f`, returning its result and wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms_since(t))
}
