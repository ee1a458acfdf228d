//! The `serve-rw` workload: a closed-loop client over real TCP against
//! an in-process `server::Server` (admission budget 2) on a durable
//! engine, mixing point reads, limited streams and writes; then a clean
//! shutdown and a reopen of the data directory.
//!
//! Each client owns the edges whose source is `≡ client (mod CLIENTS)`:
//! it writes only there and its `E(v, y)` reads ask only there, so a
//! client's own model of its acknowledged writes predicts those reads
//! exactly, and the union of the models predicts the relation recovered
//! after the reopen.
//!
//! The traced run replays the recorded request sequence in process,
//! against an identically booted engine, with spans around each layer's
//! calls.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use minesweeper_join::durability::DurabilityOptions;
use minesweeper_join::engine::{DurableBoot, Engine, ExecOptions, PreparedStatement, RowOp};
use minesweeper_join::render::write_body;
use minesweeper_join::server::protocol::parse_request;
use minesweeper_join::server::{
    Client, Request, ResponseLine, Server, ServerOptions, ServerStats, WriteAction,
};
use minesweeper_join::storage::{Val, Value};
use minesweeper_join::text::parse_query_ast;

use crate::inputs::Graph;
use crate::layers::{Layers, Work};
use crate::query::{write_trace, Sink};
use crate::report::{peak_rss_mb, ratio, Report, Samples};
use crate::speed::{Reference, SpeedLog, Stamped};
use crate::trace::Tracer;

const WHY: &str =
    "the only path through server, text, the plan cache, the WAL and merge-backend reads; \
                   writes beside reads force re-plans";
const NODES: Val = 20_000;
const SAMPLES: usize = 40_000;
/// One client. With two, on a 2-vCPU guest, one client's write (WAL
/// fsync under the database write lock) stalls the other's reads, and
/// when the host deschedules a vCPU that stall grows with it: in one set
/// of ten runs the point-read p90 doubled in the last five while the
/// reference kernel slowed by a tenth.
const CLIENTS: usize = 1;
const BUDGET: usize = 2;
/// Boots per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Reopens of the data directory; `serve.recovery_s` is their median.
const REOPENS: usize = 3;
/// Checkpoints timed after the replay.
const CHECKPOINTS: usize = 3;

/// The statement every client `PREPARE`s and `EXEC`s.
const PATH2: &str = "E(x, y), E(y, z)";
const PATH2_LIMIT: usize = 50;
const PAR_LIMIT: usize = 20;

/// One request class of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `E(v, y)` with `v` in the client's own partition (checked exactly).
    ReadOut,
    /// `E(x, v)`.
    ReadIn,
    /// `E(x, v), E(v, z)`.
    ReadPath,
    /// `EXEC p2 limit=50` of the prepared 2-path.
    Exec,
    /// `Q threads=2 limit=20` of the 2-path.
    ParStream,
    Insert,
    Delete,
}

use Kind::*;

/// The request schedule each client cycles through (from its own
/// offset): 13 point reads, 3 limited streams and 4 writes in 20 — a
/// fixed mix, so every run has the same proportions; the literals are
/// what the seed varies.
const CYCLE: [Kind; 20] = [
    ReadOut, ReadIn, Insert, ReadPath, Exec, ReadOut, ReadIn, Delete, ReadPath, ReadOut, ParStream,
    ReadIn, Insert, ReadPath, ReadOut, Exec, Delete, ReadIn, ReadPath, ReadOut,
];

/// Every request class, in report order.
const KINDS: [Kind; 7] = [ReadOut, ReadIn, ReadPath, Exec, ParStream, Insert, Delete];

impl Kind {
    fn label(self) -> String {
        match self {
            ReadOut => "E(v, y)".to_string(),
            ReadIn => "E(x, v)".to_string(),
            ReadPath => "E(x, v), E(v, z)".to_string(),
            Exec => format!("EXEC limit={PATH2_LIMIT}"),
            ParStream => format!("Q threads=2 limit={PAR_LIMIT}"),
            Insert => "W INSERT".to_string(),
            Delete => "W DELETE".to_string(),
        }
    }

    fn is_point_read(self) -> bool {
        matches!(self, ReadOut | ReadIn | ReadPath)
    }

    fn is_stream(self) -> bool {
        matches!(self, Exec | ParStream)
    }

    fn is_write(self) -> bool {
        matches!(self, Insert | Delete)
    }
}

/// One completed request as a client saw it.
struct Op {
    client: usize,
    kind: Kind,
    line: String,
    sent: Instant,
    first_row: Option<Instant>,
    done: Instant,
    rows: u64,
}

impl Op {
    fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    fn first_row_ms(&self) -> f64 {
        (self.first_row.unwrap_or(self.done) - self.sent).as_secs_f64() * 1e3
    }
}

/// A client's model of its own partition: the initial edges whose
/// source it owns, plus its acknowledged writes.
#[derive(Default)]
struct Partition {
    adj: BTreeMap<Val, BTreeSet<Val>>,
    edges: Vec<(Val, Val)>,
    index: HashMap<(Val, Val), usize>,
}

impl Partition {
    fn new(client: usize, graph: &Graph) -> Partition {
        let mut p = Partition::default();
        for &e in &graph.edges {
            if owner(e.0) == client {
                p.insert(e);
            }
        }
        p
    }

    fn contains(&self, e: (Val, Val)) -> bool {
        self.index.contains_key(&e)
    }

    fn insert(&mut self, e: (Val, Val)) {
        if self.index.insert(e, self.edges.len()).is_none() {
            self.edges.push(e);
            self.adj.entry(e.0).or_default().insert(e.1);
        }
    }

    fn remove(&mut self, e: (Val, Val)) {
        if let Some(i) = self.index.remove(&e) {
            self.edges.swap_remove(i);
            if let Some(&moved) = self.edges.get(i) {
                self.index.insert(moved, i);
            }
            if let Some(out) = self.adj.get_mut(&e.0) {
                out.remove(&e.1);
            }
        }
    }

    /// The exact body of `E(v, y)`.
    fn out_body(&self, v: Val) -> Vec<String> {
        let mut body = vec!["# y".to_string()];
        if let Some(out) = self.adj.get(&v) {
            body.extend(out.iter().map(|y| y.to_string()));
        }
        body
    }
}

// With one client the remainder is always 0; the partitioning stays
// general so a second client needs no other change.
#[allow(clippy::modulo_one)]
fn owner(v: Val) -> usize {
    (v as usize) % CLIENTS
}

/// Point reads ask about ordinary nodes: the 1% of highest Chung–Lu
/// weight (ids below `HUBS`) are left out, because a 2-path through one
/// of them returns tens of thousands of rows — a bulk query, not a point
/// read — and whether a run happened to draw one would decide its peak
/// memory. Writes may touch any node.
const HUBS: Val = NODES / 100;

/// A node of `client`'s partition with id at least `from`, uniformly.
fn own_node(rng: &mut StdRng, client: usize, from: Val) -> Val {
    let k = CLIENTS as Val;
    rng.gen_range(from / k..NODES / k) * k + client as Val
}

/// The statements each boot prepares and binds before it counts as
/// ready: one per request shape of the mix.
fn warm_shapes() -> Vec<(&'static str, ExecOptions)> {
    vec![
        ("E(0, y)", ExecOptions::default()),
        ("E(x, 0)", ExecOptions::default()),
        ("E(x, 0), E(0, z)", ExecOptions::default()),
        (PATH2, ExecOptions::default().with_limit(PATH2_LIMIT)),
        (
            PATH2,
            ExecOptions::default().with_threads(2).with_limit(PAR_LIMIT),
        ),
    ]
}

/// A booted durable engine, optionally behind a listening server.
struct Booted {
    engine: Arc<Engine>,
    server: Option<Server>,
    dir: PathBuf,
    setup_s: f64,
    load_ms: f64,
    miss_ms: Vec<f64>,
    bind_ms: Vec<f64>,
}

impl Booted {
    /// Shuts the server down and drops the engine (closing its WAL).
    fn close(mut self) -> PathBuf {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        drop(self.engine);
        self.dir
    }
}

/// Boots the `serve` way: a fresh data directory, the generated relation
/// loaded, the boot checkpoint, the server started, and every request
/// shape prepared and bound once — the cold work charged to `setup_s`.
fn boot(graph: &Graph, dir: PathBuf, serve: bool, tr: &mut Tracer) -> Result<Booted, String> {
    let _ = fs::remove_dir_all(&dir);
    let root = tr.begin("setup", 0);
    let (opened, _) = tr.timed("durability.open", 0, || {
        Engine::open_durable(&dir, DurabilityOptions::default())
    });
    let (mut engine, how) = opened.map_err(|e| format!("open {}: {e}", dir.display()))?;
    if !matches!(how, DurableBoot::Fresh) {
        return Err(format!("{} was not fresh", dir.display()));
    }
    let (loaded, load) = tr.timed("storage.load_tsv", 0, || engine.load_tsv("E", &graph.tsv));
    loaded.map_err(|e| e.to_string())?;
    let (ck, _) = tr.timed("durability.checkpoint", 0, || engine.checkpoint());
    ck.map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    let server = if serve {
        let options = ServerOptions {
            budget: BUDGET,
            ..ServerOptions::default()
        };
        let (server, _) = tr.timed("server.start", 0, || {
            Server::start_with(Arc::clone(&engine), "127.0.0.1:0", options)
        });
        Some(server.map_err(|e| format!("server start: {e}"))?)
    } else {
        None
    };
    let (mut miss_ms, mut bind_ms) = (Vec::new(), Vec::new());
    for (text, opts) in warm_shapes() {
        let (stmt, prep) = tr.timed("engine.prepare", 0, || engine.prepare(text));
        let stmt = stmt.map_err(|e| e.to_string())?;
        if !stmt.cache_hit() {
            tr.tag(prep, "miss");
            miss_ms.push(tr.span(prep).ms());
        }
        let (bound, bind) = tr.timed("engine.bind", 0, || {
            stmt.stream(&opts).map(|mut s| {
                s.next();
            })
        });
        bound.map_err(|e| e.to_string())?;
        if !stmt.cache_hit() {
            bind_ms.push(tr.span(bind).ms());
        }
    }
    let setup_ms = tr.end(root);
    Ok(Booted {
        engine,
        server,
        dir,
        setup_s: setup_ms / 1e3,
        load_ms: tr.span(load).ms(),
        miss_ms,
        bind_ms,
    })
}

/// The next request line of `client`'s schedule.
fn next_line(kind: Kind, rng: &mut StdRng, client: usize, model: &Partition) -> (Kind, String) {
    match kind {
        ReadOut => (kind, format!("Q E({}, y)", own_node(rng, client, HUBS))),
        ReadIn => (kind, format!("Q E(x, {})", rng.gen_range(HUBS..NODES))),
        ReadPath => {
            let v = rng.gen_range(HUBS..NODES);
            (kind, format!("Q E(x, {v}), E({v}, z)"))
        }
        Exec => (kind, format!("EXEC p2 limit={PATH2_LIMIT}")),
        ParStream => (kind, format!("Q threads=2 limit={PAR_LIMIT} -- {PATH2}")),
        Delete if !model.edges.is_empty() => {
            let (u, w) = model.edges[rng.gen_range(0..model.edges.len())];
            (kind, format!("W DELETE E {u} {w}"))
        }
        Insert | Delete => {
            let u = own_node(rng, client, 0);
            let mut w = rng.gen_range(0..NODES);
            if w == u {
                w = (w + 1) % NODES;
            }
            (Insert, format!("W INSERT E {u} {w}"))
        }
    }
}

/// The edge a `W` line names.
fn edge_of(line: &str) -> (Val, Val) {
    let cells: Vec<Val> = line
        .split_whitespace()
        .skip(3)
        .map(|c| c.parse().expect("generated cell"))
        .collect();
    (cells[0], cells[1])
}

/// What one client did: its requests, its final model, and how many of
/// its checks failed.
struct ClientRun {
    ops: Vec<Op>,
    model: Partition,
    checks: u64,
    failed: u64,
    speed: SpeedLog,
}

/// One response: its body lines, when its first data row arrived, and
/// the row count of its `OK` (`None` for an `ERR`).
fn exchange(
    conn: &mut Client,
    line: &str,
) -> io::Result<(Vec<String>, Option<Instant>, Option<u64>)> {
    conn.send(line)?;
    let mut body: Vec<String> = Vec::new();
    let mut first_row = None;
    loop {
        match conn.read_line()? {
            ResponseLine::Body(l) => {
                if first_row.is_none() && !l.starts_with('#') {
                    first_row = Some(Instant::now());
                }
                body.push(l);
            }
            ResponseLine::Ok(n) => return Ok((body, first_row, Some(n))),
            ResponseLine::Err(..) => return Ok((body, first_row, None)),
        }
    }
}

/// One closed-loop client: connect, `PREPARE` the 2-path, wait for the
/// other clients, then send the schedule until `seconds` have passed. A
/// transport error counts as a failed check and ends this client.
fn drive(
    addr: std::net::SocketAddr,
    client: usize,
    seed: u64,
    seconds: f64,
    mut model: Partition,
    start: &Barrier,
) -> ClientRun {
    let mut run = ClientRun {
        ops: Vec::new(),
        model: Partition::default(),
        checks: 1,
        failed: 0,
        speed: SpeedLog::default(),
    };
    let mut kernel = Reference::new();
    let connected = Client::connect(addr).and_then(|mut conn| {
        let prepare = format!("PREPARE p2 limit={PATH2_LIMIT} -- {PATH2}");
        let (_, _, ok) = exchange(&mut conn, &prepare)?;
        Ok((conn, ok.is_some()))
    });
    start.wait();
    let mut conn = match connected {
        Ok((conn, true)) => conn,
        Ok((_, false)) | Err(_) => {
            run.failed = 1;
            run.model = model;
            return run;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client as u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut slot = client * CYCLE.len() / CLIENTS;
    while Instant::now() < deadline {
        let (kind, line) = next_line(CYCLE[slot % CYCLE.len()], &mut rng, client, &model);
        slot += 1;
        let sent = Instant::now();
        run.checks += 1;
        let Ok((body, first_row, terminator)) = exchange(&mut conn, &line) else {
            run.failed += 1;
            break;
        };
        let done = Instant::now();
        let data_rows = body.iter().filter(|l| !l.starts_with('#')).count() as u64;
        let ok = match (kind, terminator) {
            (_, None) => false,
            (ReadOut, Some(n)) => {
                let v: Val = line[4..line.find(',').expect("E(v, y)")]
                    .parse()
                    .expect("generated literal");
                n == data_rows && body == model.out_body(v)
            }
            (Insert, Some(n)) => {
                let e = edge_of(&line);
                let expected = u64::from(!model.contains(e));
                model.insert(e);
                n == expected
            }
            (Delete, Some(n)) => {
                let e = edge_of(&line);
                let expected = u64::from(model.contains(e));
                model.remove(e);
                n == expected
            }
            (Exec, Some(n)) => n == data_rows && n <= PATH2_LIMIT as u64,
            (ParStream, Some(n)) => n == data_rows && n <= PAR_LIMIT as u64,
            (ReadIn | ReadPath, Some(n)) => n == data_rows,
        };
        run.failed += u64::from(!ok);
        run.ops.push(Op {
            client,
            kind,
            line,
            sent,
            first_row,
            done,
            rows: data_rows,
        });
        run.speed.paced(&mut kernel);
    }
    let _ = conn.request("QUIT");
    run.model = model;
    run
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut kernel = Reference::new();
    let graph = Graph::chung_lu(NODES, SAMPLES, seed);
    let scratch =
        ScratchDir(Path::new(".bench_out").join(format!("serve-rw-{}", std::process::id())));
    let out = &scratch.0;
    let mut tr = Tracer::new();

    let mut setups = Stamped::default();
    let mut setup_speed = SpeedLog::default();
    let mut loads = Samples::default();
    let mut misses = Samples::default();
    let mut binds = Samples::default();
    let mut booted = None;
    for k in 0..SETUPS {
        if let Some(previous) = booted.take() {
            let dir = Booted::close(previous);
            let _ = fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        let b = boot(&graph, out.join(format!("boot{k}")), true, &mut tr)?;
        setups.push(t0, Instant::now(), b.setup_s);
        setup_speed.after_setup(&mut kernel);
        loads.push(b.load_ms);
        b.miss_ms.iter().for_each(|&m| misses.push(m));
        b.bind_ms.iter().for_each(|&m| binds.push(m));
        booted = Some(b);
    }
    let booted = booted.expect("at least one boot");
    let rss_after_setup = peak_rss_mb();
    let engine = Arc::clone(&booted.engine);
    let addr = booted.server.as_ref().expect("served boot").addr();
    let parses_at_start = engine.query_parses();

    // The closed loop.
    let start = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let model = Partition::new(c, &graph);
            let start = Arc::clone(&start);
            let secs = seconds as f64;
            thread::spawn(move || drive(addr, c, seed, secs, model, &start))
        })
        .collect();
    let mut ops: Vec<Op> = Vec::new();
    let mut models = Vec::new();
    let mut speed = SpeedLog::default();
    for h in handles {
        let run = h.join().map_err(|_| "client thread panicked")?;
        report.attempted += run.checks;
        report.failed += run.failed;
        ops.extend(run.ops);
        models.push(run.model);
        speed.merge(run.speed);
    }
    report.check(speed.bad + setup_speed.bad == 0);
    let (reference_ms, reference_runs) = (speed.median_ms(), speed.len());
    let scale = speed.scale();
    let adj_setups = setups.adjusted(&setup_speed.scale());
    let setups = setups.raw();
    ops.sort_by_key(|o| o.done);
    let stats: ServerStats = booted.server.as_ref().expect("served boot").stats();
    let parses = engine.query_parses() - parses_at_start;
    let auto_compactions = engine.auto_compactions();
    let wal = engine.durability_stats().unwrap_or_default();
    drop(engine);
    let dir = booted.close();

    let window = match (ops.iter().map(|o| o.sent).min(), ops.last()) {
        (Some(first), Some(last)) => (last.done - first).as_secs_f64(),
        _ => return Err("no request completed".to_string()),
    };
    let of = |pick: fn(Kind) -> bool, f: fn(&Op) -> f64| -> Samples {
        Samples::from(
            ops.iter()
                .filter(|o| pick(o.kind))
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let point = of(Kind::is_point_read, Op::latency_ms);
    let first_row = of(Kind::is_stream, Op::first_row_ms);
    let adjusted = |pick: fn(Kind) -> bool, first: bool| -> Samples {
        Samples::from(
            ops.iter()
                .filter(|o| pick(o.kind))
                .map(|o| {
                    let end = if first {
                        o.first_row.unwrap_or(o.done)
                    } else {
                        o.done
                    };
                    scale.adjust((end - o.sent).as_secs_f64() * 1e3, o.sent, end)
                })
                .collect::<Vec<_>>(),
        )
    };
    let adj_point = adjusted(Kind::is_point_read, false);
    let adj_first_row = adjusted(Kind::is_stream, true);
    let writes = of(Kind::is_write, Op::latency_ms);
    let rows: u64 = ops.iter().map(|o| o.rows).sum();
    // Stream rows are fixed by each stream's limit; point-read rows vary
    // with the literal drawn.
    let stream_rows: u64 = ops
        .iter()
        .filter(|o| o.kind.is_stream())
        .map(|o| o.rows)
        .sum();

    // Reopen the data directory: recovery time, and the recovered
    // relation must equal the union of the clients' models.
    let mut recovery = Samples::default();
    let mut replayed_records = 0u64;
    let mut expected: Vec<(Val, Val)> = models
        .iter()
        .flat_map(|m| m.edges.iter().copied())
        .collect();
    expected.sort_unstable();
    for k in 0..REOPENS {
        let t0 = Instant::now();
        let (reopened, how) = Engine::open_durable(&dir, DurabilityOptions::default())
            .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        recovery.push(t0.elapsed().as_secs_f64());
        if let DurableBoot::Recovered(r) = how {
            replayed_records = r.replayed_records;
        }
        if k == 0 {
            let dump = reopened
                .execute("E(x, y)", &ExecOptions::default())
                .map_err(|e| e.to_string())?;
            let got: Vec<(Val, Val)> = dump
                .rows
                .iter()
                .map(|r| match (&r[0], &r[1]) {
                    (Value::Int(x), Value::Int(y)) => (*x, *y),
                    _ => (-1, -1),
                })
                .collect();
            report.check(got == expected);
        }
    }
    let _ = fs::remove_dir_all(&dir);

    report.info(format!("workload serve-rw: seed {seed}; {WHY}"));
    report.info(format!(
        "inputs: Chung-Lu gamma={} nodes={} edges={} (distinct of {SAMPLES} drawn); {CLIENTS} closed-loop clients, admission budget {BUDGET}, fsync always",
        crate::inputs::GAMMA,
        graph.nodes,
        graph.edges.len(),
    ));
    report.info(format!("peak RSS after set-up: {rss_after_setup:.1} MB"));
    report.info(format!(
        "requests: {} in {window:.3} s; rows per request {:.1}, at most {}",
        ops.len(),
        rows as f64 / ops.len() as f64,
        ops.iter().map(|o| o.rows).max().unwrap_or(0),
    ));
    let per_kind: Vec<String> = KINDS
        .iter()
        .map(|&k| {
            let lat = Samples::from(
                ops.iter()
                    .filter(|o| o.kind == k)
                    .map(Op::latency_ms)
                    .collect::<Vec<_>>(),
            );
            format!(
                "{} {:.3}/{:.3} ms (n={})",
                k.label(),
                lat.median(),
                lat.quantile(0.9),
                lat.len()
            )
        })
        .collect();
    report.info(format!(
        "p50/p90 latency per request class: {}",
        per_kind.join(", ")
    ));
    let (n_point, n_first, n_write) =
        (Some(point.len()), Some(first_row.len()), Some(writes.len()));
    report.figure("point_p50_ms", point.median(), "ms", n_point);
    report.figure("point_p90_ms", point.quantile(0.9), "ms", n_point);
    report.figure("point_p99_ms", point.quantile(0.99), "ms", n_point);
    report.figure("first_row_p50_ms", first_row.median(), "ms", n_first);
    report.figure("first_row_p90_ms", first_row.quantile(0.9), "ms", n_first);
    report.figure("first_row_p99_ms", first_row.quantile(0.99), "ms", n_first);
    report.figure("write_p50_ms", writes.median(), "ms", n_write);
    report.figure("write_p99_ms", writes.quantile(0.99), "ms", n_write);
    report.figure("ops_per_s", ops.len() as f64 / window, "ops/s", None);
    report.figure(
        "stream_rows_per_s",
        stream_rows as f64 / window,
        "rows/s",
        None,
    );
    report.figure("recovery_s", recovery.median(), "s", Some(recovery.len()));
    report.figure("adj_point_p50_ms", adj_point.median(), "ms", n_point);
    report.figure("adj_point_p90_ms", adj_point.quantile(0.9), "ms", n_point);
    report.figure(
        "speed.reference_ms",
        reference_ms,
        "ms",
        Some(reference_runs),
    );
    report.figure("raw_setup_s", setups.median(), "s", Some(setups.len()));
    report.e2e("setup_s", adj_setups.median(), "s", Some(setups.len()));
    // On this workload the headline read is the point read.
    report.e2e("adj_query_p75_ms", adj_point.quantile(0.75), "ms", n_point);
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
        layers.set("serve.point_p99_ms", point.quantile(0.99));
        layers.set("serve.first_row_p99_ms", first_row.quantile(0.99));
        layers.set("serve.write_p50_ms", writes.median());
        layers.set("serve.write_p99_ms", writes.quantile(0.99));
        layers.set("serve.recovery_s", recovery.median());
        layers.set("storage.load_ms", loads.median());
        layers.set("storage.auto_compactions", auto_compactions as f64);
        let responses = (point.len() + first_row.len()) as f64;
        layers.set(
            "server.flushes_per_response",
            ratio(stats.flushes as f64, responses),
        );
        layers.set(
            "server.admission_wait_frac",
            ratio(stats.waited as f64, stats.admitted as f64),
        );
        // Parses beyond one per `Q` are EXEC re-plans forced by writes.
        let queries = ops.iter().filter(|o| o.line.starts_with("Q ")).count() as u64;
        layers.set("engine.exec_replans", parses.saturating_sub(queries) as f64);
        let user_bytes: usize = ops
            .iter()
            .filter(|o| o.kind.is_write())
            .map(|o| o.line.len() + 1)
            .sum();
        layers.set(
            "durability.wal_bytes_per_user_byte",
            ratio(wal.wal_bytes as f64, user_bytes as f64),
        );
        layers.set("durability.replayed_records", replayed_records as f64);
        replay(
            &graph,
            &ops,
            out,
            seconds,
            &mut tr,
            &mut report,
            &mut layers,
            &misses,
            &binds,
        )?;
        write_trace(&tr, "serve-rw", seed, &mut report);
        layers.emit(&mut report);
    }
    Ok(report)
}

/// The run's data directories, removed when the run ends, however it
/// ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Prepares made inside replayed request spans.
#[derive(Default)]
struct Prepares {
    hits: u64,
    total: u64,
    /// Cold prepares (plan builds), ms.
    misses: Samples,
    /// Binds of freshly built plans (any GAO re-index), ms.
    binds: Samples,
}

impl Prepares {
    /// `Engine::prepare` in a span tagged `hit` or `miss_tag`; a cache
    /// miss also binds the new plan in an `engine.bind` span, so the
    /// re-index a write forces is not booked to the `write_body` after it.
    fn prepare(
        &mut self,
        engine: &Engine,
        text: &str,
        miss_tag: &'static str,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<PreparedStatement, String> {
        let (stmt, span) = tr.timed("engine.prepare", id, || engine.prepare(text));
        let stmt = stmt.map_err(|e| e.to_string())?;
        self.total += 1;
        if stmt.cache_hit() {
            self.hits += 1;
            tr.tag(span, "hit");
        } else {
            tr.tag(span, miss_tag);
            self.misses.push(tr.span(span).ms());
            let (bound, span) = tr.timed("engine.bind", id, || {
                stmt.stream(&ExecOptions::default()).map(drop)
            });
            bound.map_err(|e| e.to_string())?;
            self.binds.push(tr.span(span).ms());
        }
        Ok(stmt)
    }
}

/// The traced pass: replays the recorded requests (in completion order)
/// in process against an identically booted durable engine, for at most
/// a third of `seconds`, with spans around each layer call. The `request` span holds
/// what the server itself would do; the paired attribution calls
/// (separate query parse, execute or stream with counters, the same
/// write on an in-memory twin) run after it, under the same request id.
#[allow(clippy::too_many_arguments)]
fn replay(
    graph: &Graph,
    ops: &[Op],
    out: &Path,
    seconds: u64,
    tr: &mut Tracer,
    report: &mut Report,
    layers: &mut Layers,
    boot_misses: &Samples,
    boot_binds: &Samples,
) -> Result<(), String> {
    let booted = boot(graph, out.join("replay"), false, tr)?;
    let engine = Arc::clone(&booted.engine);
    let mut twin = Engine::new();
    twin.load_tsv("E", &graph.tsv).map_err(|e| e.to_string())?;
    let p2_opts = ExecOptions::default().with_limit(PATH2_LIMIT);
    let mut prepared: Vec<PreparedStatement> = (0..CLIENTS)
        .map(|_| engine.prepare(PATH2))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let mut sink = Sink::new();
    let mut reads = Work::default();
    let mut streams = Work::default();
    let mut render_self = Samples::default();
    let mut server_self = Samples::default();
    let mut tally = Prepares {
        misses: boot_misses.clone(),
        binds: boot_binds.clone(),
        ..Prepares::default()
    };
    let (mut rows, mut bytes) = (0u64, 0u64);
    // (executions, FindGap calls) per request class, in `KINDS` order.
    let mut gaps_by_kind = [(0u64, 0u64); KINDS.len()];
    let spans_before = tr.len();
    let started = Instant::now();
    let budget = Duration::from_secs(seconds) / 3;
    for (i, op) in ops.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let id = i as u64 + 1;
        let root = tr.begin("request", id);
        let (request, _) = tr.timed("server.protocol_parse_request", id, || {
            parse_request(&op.line)
        });
        let request = request.map_err(|e| format!("replay {:?}: {e}", op.line))?;
        // What the attribution pass runs after the request span closes:
        // the statement (`None` = this client's prepared one), its
        // options, and the `write_body` time to pair with.
        let mut paired: Option<(Option<PreparedStatement>, ExecOptions, f64)> = None;
        let mut query_text = None;
        let mut write: Option<RowOp> = None;
        match request {
            Request::Query { opts, text, .. } => {
                let stmt = tally.prepare(&engine, &text, "miss", id, tr)?;
                sink.clear();
                let (outcome, body) = tr.timed("render.write_body", id, || {
                    write_body(&mut sink, &stmt, &opts)
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                rows += outcome.rows as u64;
                bytes += sink.buf.len() as u64;
                paired = Some((Some(stmt), opts, tr.span(body).ms()));
                query_text = Some(text);
            }
            Request::Exec { overrides, .. } => {
                // The session's staleness check: a write since PREPARE
                // re-plans from the stored text.
                if !prepared[op.client].is_current(&engine.db()) {
                    prepared[op.client] = tally.prepare(&engine, PATH2, "replan", id, tr)?;
                }
                let mut opts = p2_opts.clone();
                opts.limit = overrides.limit.or(opts.limit);
                sink.clear();
                let stmt = &prepared[op.client];
                let (outcome, body) = tr.timed("render.write_body", id, || {
                    write_body(&mut sink, stmt, &opts)
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                rows += outcome.rows as u64;
                bytes += sink.buf.len() as u64;
                paired = Some((None, opts, tr.span(body).ms()));
            }
            Request::Write {
                action,
                relation,
                cells,
            } => {
                let rel = engine.db().id_of(&relation).map_err(|e| e.to_string())?;
                let row = Engine::type_row(&relation, engine.schema(rel), &cells)
                    .map_err(|e| e.to_string())?;
                let row_op = match action {
                    WriteAction::Insert => RowOp::Insert(row),
                    WriteAction::Delete => RowOp::Delete(row),
                };
                let (applied, _) = tr.timed("engine.apply_batch", id, || {
                    engine.apply_batch(&relation, [row_op.clone()])
                });
                applied.map_err(|e| e.to_string())?;
                let (ck, _) = tr.timed("durability.maybe_checkpoint", id, || {
                    engine.maybe_checkpoint()
                });
                ck.map_err(|e| e.to_string())?;
                write = Some(row_op);
            }
            other => return Err(format!("replay: unexpected request {other:?}")),
        }
        let request_ms = tr.end(root);
        server_self.push(op.latency_ms() - request_ms);

        // Attribution, outside the request span.
        if let Some(text) = query_text {
            let _ = tr.timed("text.parse_query_ast", id, || parse_query_ast(&text));
        }
        if let Some((owned, opts, body_ms)) = paired {
            let stmt = owned.as_ref().unwrap_or(&prepared[op.client]);
            let stats_opts = opts.clone().with_stats();
            let exec_ms = if opts.limit.is_some() {
                let span = tr.begin("core.stream", id);
                let first = tr.begin(
                    if opts.threads > 0 {
                        "core.sharded.first_row"
                    } else {
                        "core.stream.first_row"
                    },
                    id,
                );
                let mut stream = stmt.stream(&stats_opts).map_err(|e| e.to_string())?;
                stream.next();
                tr.end(first);
                for _ in stream.by_ref() {}
                let (stats, shards) = stream.finish();
                let ms = tr.end(span);
                streams.add(&stats, ms, shards.as_deref());
                ms
            } else {
                let (result, exec) = tr.timed("core.execute", id, || stmt.execute(&stats_opts));
                let result = result.map_err(|e| e.to_string())?;
                let ms = tr.span(exec).ms();
                let stats = result.stats.unwrap_or_default();
                reads.add(&stats, ms, result.shards.as_deref());
                let k = KINDS
                    .iter()
                    .position(|&k| k == op.kind)
                    .expect("listed kind");
                gaps_by_kind[k].0 += 1;
                gaps_by_kind[k].1 += stats.find_gap_calls;
                ms
            };
            render_self.push(body_ms - exec_ms);
        }
        if let Some(row_op) = write {
            let (applied, _) = tr.timed("engine.apply_batch.memory", id, || {
                twin.apply_batch("E", [row_op])
            });
            applied.map_err(|e| e.to_string())?;
        }
    }
    let replayed = server_self.len();
    let per_kind: Vec<String> = KINDS
        .iter()
        .zip(gaps_by_kind)
        .filter(|(_, (n, _))| *n > 0)
        .map(|(k, (n, g))| format!("{} {:.0}", k.label(), g as f64 / n as f64))
        .collect();
    report.info(format!(
        "FindGap calls per execution: {}",
        per_kind.join(", ")
    ));
    let traced_spans = tr.len() - spans_before;
    let traced_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut checkpoints = Samples::default();
    for _ in 0..CHECKPOINTS {
        let (ck, span) = tr.timed("durability.checkpoint", 0, || engine.checkpoint());
        ck.map_err(|e| e.to_string())?;
        checkpoints.push(tr.span(span).ms());
    }
    drop(engine);
    let _ = fs::remove_dir_all(booted.close());

    let durations = |name: &str, tag: Option<&str>| Samples::from(tr.durations(name, tag));
    layers.set(
        "text.parse_us",
        durations("text.parse_query_ast", None).median() * 1e3,
    );
    layers.set(
        "server.protocol_parse_us",
        durations("server.protocol_parse_request", None).median() * 1e3,
    );
    layers.set("server.self_ms", server_self.median());
    layers.set(
        "engine.prepare_hit_us",
        durations("engine.prepare", Some("hit")).median() * 1e3,
    );
    layers.set("engine.prepare_miss_ms", tally.misses.median());
    layers.set("engine.bind_ms", tally.binds.median());
    layers.set(
        "engine.cache_hit_ratio",
        ratio(tally.hits as f64, tally.total as f64),
    );
    layers.set(
        "core.plan.find_gap_per_point_read",
        ratio(reads.stats.find_gap_calls as f64, reads.requests as f64),
    );
    layers.set(
        "core.stream.exec_ms",
        durations("core.execute", None).median(),
    );
    reads.set_probe_layers(layers);
    streams.set_sharded_layers(layers);
    layers.set(
        "core.sharded.first_row_ms",
        durations("core.sharded.first_row", None).median(),
    );
    layers.set("render.self_ms", render_self.median());
    layers.set(
        "render.ns_per_row",
        render_self.sum() * 1e6 / rows.max(1) as f64,
    );
    layers.set("render.bytes_per_row", ratio(bytes as f64, rows as f64));
    let durable = durations("engine.apply_batch", None).median();
    let memory = durations("engine.apply_batch.memory", None).median();
    layers.set("durability.wal_append_us", (durable - memory) * 1e3);
    layers.set("durability.checkpoint_ms", checkpoints.median());
    let span_cost = Tracer::span_cost_ns();
    layers.set("trace.span_cost_ns", span_cost);
    // No untraced twin of the replay exists (writes change the data it
    // reads), so the overhead is the recorder's calibrated cost per span
    // times the spans recorded, over the traced wall time.
    let overhead = span_cost * traced_spans as f64 / 1e6 / traced_ms;
    layers.set("trace.overhead_frac", overhead);
    report.info(format!(
        "trace: replayed {replayed} of {} requests in {traced_ms:.0} ms; recorder cost {span_cost:.0} ns/span x {traced_spans} spans = {:.4}% overhead",
        ops.len(),
        overhead * 100.0
    ));
    Ok(())
}
