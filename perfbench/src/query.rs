//! The `paths` and `triangles` workloads: one client in a closed loop
//! repeating one statement through `Engine::prepare` and then
//! `render::write_body` into an in-memory sink — the bytes `msj` prints
//! on stdout for the same query.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use minesweeper_join::engine::{Engine, ExecOptions, PreparedStatement};
use minesweeper_join::render::{body_string, write_body};
use minesweeper_join::storage::Val;
use minesweeper_join::text::parse_query_ast;

use crate::inputs::Graph;
use crate::layers::{Layers, Work};
use crate::report::{peak_rss_mb, ratio, Report, Samples};
use crate::speed::{Reference, SpeedLog, Stamped};
use crate::trace::Tracer;

/// One single-statement workload.
pub struct QueryWorkload {
    pub name: &'static str,
    pub why: &'static str,
    pub text: &'static str,
    /// `0` = the default serial engine; otherwise the sharded engine.
    pub threads: usize,
    pub nodes: Val,
    /// Edges drawn by the generator (distinct edges are fewer).
    pub samples: usize,
}

pub const PATHS: QueryWorkload = QueryWorkload {
    name: "paths",
    why: "the beta-acyclic 2-path in chain mode, where Theorem 2.7 is strongest; large output",
    text: "E(x, y), E(y, z)",
    threads: 0,
    nodes: 3_000,
    samples: 6_000,
};

pub const TRIANGLES: QueryWorkload = QueryWorkload {
    name: "triangles",
    why: "the beta-cyclic triangle in General-mode CDS through the sharded materializing pipeline",
    text: "E(a, b), E(b, c), E(a, c)",
    threads: 2,
    nodes: 3_000,
    samples: 6_000,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// LFTJ executions behind `baselines.lftj_ms`.
const LFTJ_RUNS: usize = 7;
/// Sharded first-row probes behind `core.sharded.first_row_ms`.
const FIRST_ROW_PROBES: usize = 7;
/// A run measures at least this many requests, whatever `--seconds` says.
const MIN_REQUESTS: usize = 8;

/// An in-memory body sink that notes when the first data row (the line
/// after the `# columns` header) is complete.
pub struct Sink {
    pub buf: Vec<u8>,
    newlines: usize,
    pub first_row: Option<Instant>,
}

impl Sink {
    pub fn new() -> Self {
        Sink {
            buf: Vec::with_capacity(1 << 20),
            newlines: 0,
            first_row: None,
        }
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.newlines = 0;
        self.first_row = None;
    }
}

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.first_row.is_none() {
            self.newlines += bytes.iter().filter(|&&b| b == b'\n').count();
            if self.newlines >= 2 {
                self.first_row = Some(Instant::now());
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A loaded engine with its statement prepared and bound.
struct Ready {
    engine: Engine,
    setup_s: f64,
    load_ms: f64,
    miss_ms: f64,
    bind_ms: f64,
}

/// From handing the generated text to the engine until the first request
/// can be served: load and index, the cold prepare, and the bind of the
/// plan (any GAO re-index) — which is why the first timed request is not
/// a cold one.
fn set_up(w: &QueryWorkload, graph: &Graph, opts: &ExecOptions, tr: &mut Tracer) -> Ready {
    let root = tr.begin("setup", 0);
    let mut engine = Engine::new();
    let (loaded, load) = tr.timed("storage.load_tsv", 0, || engine.load_tsv("E", &graph.tsv));
    loaded.expect("generated relation text loads");
    let (stmt, prep) = tr.timed("engine.prepare", 0, || engine.prepare(w.text));
    tr.tag(prep, "miss");
    let stmt = stmt.expect("workload statement prepares");
    let (_, bind) = tr.timed("engine.bind", 0, || {
        let mut stream = stmt.stream(opts).expect("workload statement streams");
        stream.next();
    });
    let setup_ms = tr.end(root);
    Ready {
        engine,
        setup_s: setup_ms / 1e3,
        load_ms: tr.span(load).ms(),
        miss_ms: tr.span(prep).ms(),
        bind_ms: tr.span(bind).ms(),
    }
}

fn prepare(engine: &Engine, text: &str) -> PreparedStatement {
    engine.prepare(text).expect("workload statement prepares")
}

/// Runs one workload and returns its report.
pub fn run(w: &QueryWorkload, seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    // The reference kernel allocates its buffers first, so they sit
    // below everything the program allocates.
    let mut kernel = Reference::new();
    let graph = Graph::chung_lu(w.nodes, w.samples, seed);
    let opts = ExecOptions::default().with_threads(w.threads);
    let mut tr = Tracer::new();

    let mut setups = Stamped::default();
    let mut setup_speed = SpeedLog::default();
    let mut loads = Samples::default();
    let mut misses = Samples::default();
    let mut binds = Samples::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let r = set_up(w, &graph, &opts, &mut tr);
        setups.push(t0, Instant::now(), r.setup_s);
        setup_speed.after_setup(&mut kernel);
        loads.push(r.load_ms);
        misses.push(r.miss_ms);
        binds.push(r.bind_ms);
        ready = Some(r);
    }
    let engine = ready.expect("at least one set-up").engine;

    // Correctness, outside the timed loop: the workload's body must be
    // byte-identical to LFTJ's, and a sharded body to the serial one.
    let stmt = prepare(&engine, w.text);
    let reference = body_string(&stmt, &ExecOptions::default().with_algo("leapfrog"))
        .expect("LFTJ runs the statement");
    if w.threads > 0 {
        let serial = body_string(&stmt, &ExecOptions::default()).expect("serial body");
        report.check(serial == reference);
    }
    let reference = reference.into_bytes();
    let rows_per_request = reference.iter().filter(|&&b| b == b'\n').count() - 1;
    report.info(format!(
        "workload {}: {} (seed {seed}; {})",
        w.name, w.text, w.why
    ));
    report.info(format!(
        "inputs: Chung-Lu gamma={} nodes={} edges={} (distinct of {} drawn); rows per request={rows_per_request}; threads={}",
        crate::inputs::GAMMA,
        graph.nodes,
        graph.edges.len(),
        w.samples,
        w.threads
    ));

    let total = Duration::from_secs(seconds);
    let mut sink = Sink::new();
    // The untraced closed loop. A traced run spends half its time here
    // and the other half in the traced loop.
    let untraced = if trace { total / 2 } else { total };
    let mut latency = Stamped::default();
    let mut first_row = Stamped::default();
    let mut rows = 0u64;
    let mut speed = SpeedLog::default();
    speed.sample(&mut kernel);
    let started = Instant::now();
    while started.elapsed() < untraced || latency.len() < MIN_REQUESTS {
        sink.clear();
        let t0 = Instant::now();
        let stmt = prepare(&engine, w.text);
        let outcome = write_body(&mut sink, &stmt, &opts);
        let done = Instant::now();
        let first = sink.first_row.unwrap_or(done);
        latency.push(t0, done, (done - t0).as_secs_f64() * 1e3);
        first_row.push(t0, first, (first - t0).as_secs_f64() * 1e3);
        rows += outcome.as_ref().map_or(0, |o| o.rows as u64);
        report.check(outcome.is_ok() && sink.buf == reference);
        speed.paced(&mut kernel);
    }
    let elapsed = started.elapsed().as_secs_f64();
    report.check(speed.bad + setup_speed.bad == 0);
    let (reference_ms, reference_runs) = (speed.median_ms(), speed.len());
    let scale = speed.scale();
    let (adj_latency, adj_first_row) = (latency.adjusted(&scale), first_row.adjusted(&scale));
    let (latency, first_row) = (latency.raw(), first_row.raw());
    let adj_setups = setups.adjusted(&setup_speed.scale());
    let setups = setups.raw();

    report.info(format!(
        "latency ms: min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3} mean {:.3} (n={})",
        latency.quantile(0.0),
        latency.quantile(0.1),
        latency.quantile(0.25),
        latency.median(),
        latency.quantile(0.75),
        latency.quantile(0.9),
        latency.quantile(1.0),
        latency.sum() / latency.len() as f64,
        latency.len()
    ));
    let (n, n_first) = (Some(latency.len()), Some(first_row.len()));
    report.figure("query_p50_ms", latency.median(), "ms", n);
    report.figure("query_p90_ms", latency.quantile(0.9), "ms", n);
    report.figure("first_row_p50_ms", first_row.median(), "ms", n_first);
    report.figure("first_row_p90_ms", first_row.quantile(0.9), "ms", n_first);
    report.figure("adj_query_p50_ms", adj_latency.median(), "ms", n);
    report.figure("adj_query_p90_ms", adj_latency.quantile(0.9), "ms", n);
    report.figure("rows_per_s", rows as f64 / elapsed, "rows/s", None);
    report.figure("ops_per_s", latency.len() as f64 / elapsed, "ops/s", None);
    report.figure(
        "speed.reference_ms",
        reference_ms,
        "ms",
        Some(reference_runs),
    );
    report.figure("raw_setup_s", setups.median(), "s", Some(setups.len()));
    report.e2e("setup_s", adj_setups.median(), "s", Some(setups.len()));
    report.e2e("adj_query_p75_ms", adj_latency.quantile(0.75), "ms", n);
    report.e2e(
        "adj_first_row_p75_ms",
        adj_first_row.quantile(0.75),
        "ms",
        n_first,
    );
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB", None);

    if trace {
        let mut layers = Layers::default();
        layers.set("speed.reference_ms", reference_ms);
        layers.set("storage.load_ms", loads.median());
        layers.set("engine.prepare_miss_ms", misses.median());
        layers.set("engine.bind_ms", binds.median());
        traced_loop(
            w,
            &engine,
            &opts,
            &reference,
            total - untraced,
            &mut tr,
            &mut report,
            &mut layers,
            &latency,
        );
        write_trace(&tr, w.name, seed, &mut report);
        layers.emit(&mut report);
    }
    report
}

/// The traced half of a traced run: the same closed loop with spans
/// around each layer call, plus the attribution calls (a paired
/// `execute`, a separate query parse, the LFTJ yardstick).
#[allow(clippy::too_many_arguments)]
fn traced_loop(
    w: &QueryWorkload,
    engine: &Engine,
    opts: &ExecOptions,
    reference: &[u8],
    budget: Duration,
    tr: &mut Tracer,
    report: &mut Report,
    layers: &mut Layers,
    untraced: &Samples,
) {
    let stats_opts = opts.clone().with_stats();
    let mut sink = Sink::new();
    let mut request = Samples::default();
    let mut render_self = Samples::default();
    let mut work = Work::default();
    let (mut hits, mut prepares, mut rows, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let spans_before = tr.len();
    let started = Instant::now();
    let mut id = 1u64;
    while started.elapsed() < budget || request.len() < MIN_REQUESTS {
        sink.clear();
        let root = tr.begin("request", id);
        let (stmt, prep) = tr.timed("engine.prepare", id, || prepare(engine, w.text));
        tr.tag(prep, if stmt.cache_hit() { "hit" } else { "miss" });
        let (outcome, body) = tr.timed("render.write_body", id, || {
            write_body(&mut sink, &stmt, opts)
        });
        request.push(tr.end(root));
        let outcome = outcome.expect("workload statement runs");
        report.check(sink.buf == reference);
        prepares += 1;
        hits += u64::from(stmt.cache_hit());
        rows += outcome.rows as u64;
        bytes += sink.buf.len() as u64;

        let _ = tr.timed("text.parse_query_ast", id, || parse_query_ast(w.text));
        let (result, exec) = tr.timed("core.execute", id, || stmt.execute(&stats_opts));
        let result = result.expect("workload statement runs");
        let exec_ms = tr.span(exec).ms();
        work.add(
            &result.stats.unwrap_or_default(),
            exec_ms,
            result.shards.as_deref(),
        );
        render_self.push(tr.span(body).ms() - exec_ms);
        id += 1;
    }
    let traced_spans = tr.len() - spans_before;
    let traced_ms = started.elapsed().as_secs_f64() * 1e3;

    let stmt = prepare(engine, w.text);
    if w.threads > 0 {
        for _ in 0..FIRST_ROW_PROBES {
            tr.timed("core.sharded.first_row", id, || {
                let mut stream = stmt.stream(opts).expect("sharded stream opens");
                stream.next();
                // Dropping the stream cancels the remaining shards.
            });
        }
        let first = Samples::from(tr.durations("core.sharded.first_row", None));
        layers.set("core.sharded.first_row_ms", first.median());
    }
    let lftj_opts = ExecOptions::default().with_algo("leapfrog");
    for _ in 0..LFTJ_RUNS {
        let (result, _) = tr.timed("baselines.lftj", id, || stmt.execute(&lftj_opts));
        result.expect("LFTJ runs the statement");
    }

    let exec = Samples::from(tr.durations("core.execute", None));
    let lftj = Samples::from(tr.durations("baselines.lftj", None));
    layers.set(
        "text.parse_us",
        Samples::from(tr.durations("text.parse_query_ast", None)).median() * 1e3,
    );
    layers.set(
        "engine.prepare_hit_us",
        Samples::from(tr.durations("engine.prepare", Some("hit"))).median() * 1e3,
    );
    layers.set(
        "engine.cache_hit_ratio",
        ratio(hits as f64, prepares as f64),
    );
    layers.set("core.stream.exec_ms", exec.median());
    work.set_probe_layers(layers);
    work.set_sharded_layers(layers);
    layers.set("render.self_ms", render_self.median());
    layers.set(
        "render.ns_per_row",
        render_self.median() * 1e6 / ratio(rows as f64, request.len() as f64),
    );
    layers.set("render.bytes_per_row", ratio(bytes as f64, rows as f64));
    layers.set("baselines.lftj_ms", lftj.median());
    layers.set("core.ms_over_lftj", ratio(exec.median(), lftj.median()));
    let span_cost = Tracer::span_cost_ns();
    layers.set("trace.span_cost_ns", span_cost);
    // The recorder's calibrated cost over the traced wall time. The A/B
    // against the untraced half is reported too, but it mostly measures
    // how the machine's speed drifted between the halves.
    let overhead = span_cost * traced_spans as f64 / 1e6 / traced_ms;
    layers.set("trace.overhead_frac", overhead);
    report.info(format!(
        "trace: {} requests traced; recorder cost {span_cost:.0} ns/span x {traced_spans} spans = {:.4}% of {traced_ms:.0} ms traced; request span p50 {:.3} ms vs untraced p50 {:.3} ms",
        request.len(),
        100.0 * overhead,
        request.median(),
        untraced.median(),
    ));
}

/// Writes the spans to `.bench_out/trace-<workload>-<seed>.jsonl` under
/// the working directory and names the file in the report.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64, report: &mut Report) {
    let path = Path::new(".bench_out").join(format!("trace-{workload}-{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => report.info(format!(
            "trace: {} spans ({}) written to {}",
            tr.len(),
            tr.names().join(", "),
            path.display()
        )),
        Err(e) => report.info(format!("trace: could not write {}: {e}", path.display())),
    }
}
