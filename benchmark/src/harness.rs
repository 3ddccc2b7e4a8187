//! Shared measurement machinery: command-line options, host-clock spans
//! around public calls, the per-run context with its set-up and timed op
//! window, metric records, checks, digests and the final report.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use trisolve_obs::Tracer;
use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve_tridiag::{Scalar, SystemBatch};

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the benchmark process.
    Host,
    /// The simulated device clock: deterministic, repeats bit for bit.
    Sim,
    /// A count or ratio that belongs to neither clock.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

/// One named number with its unit, clock and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        clock: Clock,
        value: f64,
        samples: usize,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            clock,
            value,
            samples,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Re-tune and rewrite the pinned configuration instead of measuring.
    pub regenerate_pins: bool,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            regenerate_pins: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--workload" => o.workload = value("--workload")?,
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    o.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    o.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--regenerate-pins" => o.regenerate_pins = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if o.workload.is_empty() && !o.regenerate_pins {
            return Err("--workload is required".into());
        }
        Ok(o)
    }
}

/// One host-clock span around a public call of the library.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// `layer.call`, e.g. `engine.solve_pipelined`.
    pub name: &'static str,
    /// Index of the op the span fell in (`None` during set-up).
    pub op: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Recorder of host spans. Recording is switched per op so a traced run
/// can interleave traced and untraced ops; when off, `time` is one branch
/// plus the call itself.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: Cell<bool>,
    op: Cell<Option<usize>>,
    spans: RefCell<Vec<HostSpan>>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            on: Cell::new(false),
            op: Cell::new(None),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.on.set(on);
    }

    pub fn set_op(&self, op: Option<usize>) {
        self.op.set(op);
    }

    /// Run `f`, recording a span named `name` when recording is on.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.borrow_mut().push(HostSpan {
            name,
            op: self.op.get(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        });
        out
    }

    /// Microseconds since the run's origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn all(&self) -> Vec<HostSpan> {
        self.spans.borrow().clone()
    }

    /// Per traced op of `w`, the summed milliseconds of the spans named
    /// `name` (ops without such a span contribute 0).
    pub fn traced_ms(&self, w: &Window, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        w.traced_ops()
            .iter()
            .map(|&op| {
                spans
                    .iter()
                    .filter(|s| s.op == Some(op) && s.name == name)
                    .map(|s| s.dur_us / 1e3)
                    .sum()
            })
            .collect()
    }

    /// Median milliseconds of the set-up spans named exactly `name`, and
    /// how many there were.
    pub fn setup_ms(&self, name: &str) -> (f64, usize) {
        let ms: Vec<f64> = self
            .spans
            .borrow()
            .iter()
            .filter(|s| s.op.is_none() && s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect();
        (median(&ms), ms.len())
    }
}

/// Host timings of the ops run in a timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Host milliseconds of every op, in order.
    pub op_ms: Vec<f64>,
    /// Whether each op ran with tracing on.
    pub traced: Vec<bool>,
    /// Host µs since the run's origin at which each op started.
    pub op_start_us: Vec<f64>,
    /// Host seconds from the first op's start to the last op's end.
    pub elapsed_s: f64,
}

impl Window {
    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    pub fn traced_ops(&self) -> Vec<usize> {
        (0..self.ops()).filter(|&i| self.traced[i]).collect()
    }

    fn ms_where(&self, traced: bool) -> Vec<f64> {
        (0..self.ops())
            .filter(|&i| self.traced[i] == traced)
            .map(|i| self.op_ms[i])
            .collect()
    }

    /// Host ms of the untraced ops (every op of an untraced run).
    pub fn untraced_ms(&self) -> Vec<f64> {
        self.ms_where(false)
    }

    pub fn traced_ms(&self) -> Vec<f64> {
        self.ms_where(true)
    }
}

/// Ops every run executes whatever `--seconds` says. The sim-clock
/// metrics and the digests are taken over these ops only, so they do not
/// depend on how many ops the host managed in the window.
pub const PREFIX_OPS: usize = 2;

/// Per-run context shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    pub opts: Options,
    /// Taken first thing in `main`: set-up time counts from here.
    pub origin: Instant,
    pub spans: Spans,
    /// The program's own simulated-clock tracer; enabled only in a traced
    /// run and attached only for the traced ops.
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(opts: Options, origin: Instant) -> Self {
        let tracer = if opts.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        Self {
            opts,
            origin,
            spans: Spans::new(origin),
            tracer,
        }
    }

    /// The tracer to attach for one op.
    pub fn tracer_for(&self, traced: bool) -> Tracer {
        if traced {
            self.tracer.clone()
        } else {
            Tracer::disabled()
        }
    }

    /// Run `setup` `times` times (spans recorded in a traced run) and keep
    /// the last result. Returns it with the `setup_s` metric: the median
    /// set-up seconds. The first set-up is timed from process start
    /// (`origin`), so `setup_s` covers everything before the first op.
    pub fn setup<S>(&self, times: usize, mut setup: impl FnMut(usize) -> S) -> (S, Metric) {
        self.spans.set_recording(self.opts.trace);
        let mut secs = Vec::with_capacity(times);
        let mut last = None;
        for k in 0..times {
            let t0 = if k == 0 { self.origin } else { Instant::now() };
            // Drop the previous set-up before building the next, so peak
            // memory is that of one set-up.
            drop(last.take());
            let s = setup(k);
            secs.push(t0.elapsed().as_secs_f64());
            last = Some(s);
        }
        self.spans.set_recording(false);
        let metric = Metric::new("setup_s", "s", Clock::Host, median(&secs), times);
        (last.expect("at least one set-up"), metric)
    }

    /// Run ops back to back until `--seconds` have passed and at least
    /// [`PREFIX_OPS`] ran (twice that in a traced run). In a traced run
    /// every second op (the odd ones) runs traced, so traced and untraced
    /// ops see the same machine state and `obs.trace_overhead_frac`
    /// compares like with like.
    pub fn window(&self, mut op: impl FnMut(usize, bool)) -> Window {
        let trace = self.opts.trace;
        let min_ops = if trace { 2 * PREFIX_OPS } else { PREFIX_OPS };
        let spans = &self.spans;
        let mut w = Window::default();
        let begin = Instant::now();
        let mut i = 0usize;
        while i < min_ops || begin.elapsed().as_secs_f64() < self.opts.seconds {
            let traced = trace && i % 2 == 1;
            spans.set_recording(traced);
            spans.set_op(Some(i));
            w.op_start_us.push(spans.now_us());
            let t0 = Instant::now();
            op(i, traced);
            w.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            w.traced.push(traced);
            i += 1;
        }
        spans.set_recording(false);
        spans.set_op(None);
        w.elapsed_s = begin.elapsed().as_secs_f64();
        w
    }
}

/// The end-to-end metrics every workload reports, from an untraced window.
pub fn end_to_end(setup: Metric, w: &Window, equations: f64) -> Vec<Metric> {
    let ms = w.untraced_ms();
    vec![
        setup,
        Metric::new("host_op_p50_ms", "ms", Clock::Host, median(&ms), ms.len()),
        Metric::new(
            "host_meq_per_s",
            "Meq/s",
            Clock::Host,
            equations / w.elapsed_s / 1e6,
            w.ops(),
        ),
    ]
}

/// Median host ms of the engine's set-up spans: `engine.session_new_ms`
/// and `engine.plan_first_ms` (the first `plan_for`).
pub fn engine_setup_metrics(spans: &Spans) -> [Metric; 2] {
    [
        ("engine.session_new_ms", "engine.session_new"),
        ("engine.plan_first_ms", "engine.plan_first"),
    ]
    .map(|(metric, span)| {
        let (ms, n) = spans.setup_ms(span);
        Metric::new(metric, "ms", Clock::Host, ms, n)
    })
}

/// Host ms of plain single-threaded CPU Thomas over `batch`: the
/// reference that shows the simulator's host slowdown.
pub fn cpu_thomas_ms<T: Scalar>(batch: &SystemBatch<T>) -> f64 {
    let t0 = Instant::now();
    black_box(solve_batch_sequential(
        black_box(batch),
        BatchAlgorithm::Thomas,
    ))
    .ok();
    t0.elapsed().as_secs_f64() * 1e3
}

/// `x <= tol`, false when `x` is NaN: a residual that is not a number
/// fails its check.
pub fn within(x: f64, tol: f64) -> bool {
    x.partial_cmp(&tol).is_some_and(|o| o.is_le())
}

/// `a.max(b)`, but NaN when either is NaN. `f64::max` drops a NaN, so a
/// fold with it would let a NaN residual or error through its check.
pub fn max_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Whether every element of a solution is finite. The library's residual
/// norms fold with `f64::max`, which drops NaN, so an all-NaN solution
/// reads as residual 0; this check runs before them.
pub fn all_finite<T: Scalar>(x: &[T]) -> bool {
    x.iter().all(|v| v.is_finite())
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 over a byte stream: a stable hash (unlike `DefaultHasher`,
/// it does not change between Rust releases).
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    /// Operations (or requests, for the service) checked.
    pub attempted: u64,
    /// Checks that failed; each is also listed in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics named in BENCHMARK.json, in order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics named in BENCHMARK.json, in order (traced runs).
    pub per_layer: Vec<Metric>,
    /// Every other measured number: the workload's simulated-clock
    /// metrics and its full per-layer breakdown.
    pub detail: Vec<Metric>,
    /// Hash of every sim-clock metric of the deterministic op prefix.
    pub sim_digest: String,
    /// Hash of the solution bits of the deterministic op prefix.
    pub solution_digest: String,
    /// Hash of the seeded inputs.
    pub input_digest: String,
    /// Share of each traced op's host time inside named public-call spans.
    pub span_cover: Vec<f64>,
    /// Where the Chrome trace of a traced run was written.
    pub trace_file: Option<String>,
}

impl Report {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Record one checked op with the failures it collected (none = ok).
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Record one checked item; a failed check adds a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: every metric with clock, unit and samples,
    /// then the digests. Goes to stdout before the JSON result line.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== workload {}", self.workload);
        let section = |out: &mut String, title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            let _ = writeln!(out, "-- {title}");
            for m in ms {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>16.6} {:<8} clock={:<4} n={}",
                    m.name,
                    m.value,
                    m.unit,
                    m.clock.label(),
                    m.samples
                );
            }
        };
        section(&mut out, "end-to-end", &self.end_to_end);
        if trace {
            section(&mut out, "per-layer (benchmark set)", &self.per_layer);
        }
        section(&mut out, "detail", &self.detail);
        if !self.span_cover.is_empty() {
            let cells: Vec<String> = self
                .span_cover
                .iter()
                .map(|c| format!("{:.3}", c))
                .collect();
            let _ = writeln!(out, "-- span cover per traced op: {}", cells.join(" "));
        }
        if let Some(f) = &self.trace_file {
            let _ = writeln!(out, "-- chrome trace: {f}");
        }
        let _ = writeln!(
            out,
            "-- digest {} sim={} solution={} inputs={}",
            self.workload, self.sim_digest, self.solution_digest, self.input_digest
        );
        let _ = writeln!(
            out,
            "-- checks attempted={} failed={} fail_frac={}",
            self.attempted,
            self.failed,
            if self.attempted > 0 {
                self.failed as f64 / self.attempted as f64
            } else {
                1.0
            }
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "   FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let cells: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            cells.join(",")
        )
    }
}

/// Shortest round-trip form of a float. `main` turns a non-finite
/// metric into a failed check, so `null` never reaches a passing result.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}
