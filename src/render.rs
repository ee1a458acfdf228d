//! The one place query results become bytes.
//!
//! Both front doors — the `msj` CLI printing to stdout and the `msj
//! serve` TCP service streaming to a socket (see [`crate::server`]) —
//! emit the *same* textual result shape: a `# col…` header line,
//! tab-separated data rows, and a truncation marker when a `limit` cut
//! the result. The service's acceptance contract is that its response
//! body is **byte-identical** to the CLI's stdout for the same query and
//! options; rather than asserting that equivalence across two
//! implementations, this module is the single implementation both call.
//!
//! [`write_body`] reproduces the dispatch-dependent output shapes:
//!
//! * **serial engine, no limit** — materialized sorted rows;
//! * **serial engine, `limit k`** — the lazy stream's first `k` tuples
//!   (global attribute order) plus `# … output truncated at k` when more
//!   existed, the suffix's probe work never paid;
//! * **parallel engine (`threads > 0`)** — identical bytes to the serial
//!   engine in both modes, by the global-order merge's contract; under a
//!   limit the remaining shard work is **cancelled**;
//! * **registry baseline** — materialized sorted rows with the
//!   `# … N more` marker (baselines run to completion, so the exact
//!   remainder is known).
//!
//! Every shape writes its data rows the same way: tuples stay encoded
//! (`i64`, the caller's attribute numbering) from the engine to this
//! module, and the statement's row writer prints each row's visible
//! cells into one reused line buffer — integers formatted in place,
//! strings resolved from the statement's dictionary snapshot — which
//! then goes out in a single write. No row is decoded to
//! [`Value`](minesweeper_storage::Value)s on the way; that form is for
//! library callers of [`PreparedStatement::execute`] and
//! [`StatementStream`]'s `Iterator` impl.
//!
//! Writes are checked: a consumer that goes away (a closed pipe, a
//! disconnected client) surfaces as an [`io::Error`], upon which the
//! open stream is dropped — which *cancels* queued and in-flight shard
//! work — and the outcome reports [`BodyOutcome::disconnected`] instead
//! of treating the lost consumer as a failure.

use std::io::{self, Write};

use minesweeper_baselines::lookup;
use minesweeper_core::{json_string, ShardStats};
use minesweeper_storage::{ExecStats, Val};

use crate::engine::{DispatchKind, EngineError, ExecOptions, PreparedStatement, StatementStream};

/// What [`write_body`] did: how many data rows went out, whether the
/// consumer disconnected mid-stream (the body is then a prefix), and the
/// execution counters for the work actually performed.
#[derive(Debug)]
pub struct BodyOutcome {
    /// Data rows written (header and marker lines not counted).
    pub rows: usize,
    /// True when a write failed: the consumer is gone and any remaining
    /// stream work was cancelled. Callers treat this as "stop quietly",
    /// not as an error.
    pub disconnected: bool,
    /// Counters for the work performed (the shown prefix under a limit).
    pub stats: ExecStats,
    /// Per-shard counters, when the parallel engine ran.
    pub shards: Option<Vec<ShardStats>>,
    /// True when the request's deadline ([`ExecOptions::deadline`])
    /// passed mid-stream: the body is a prefix, the remaining work was
    /// cancelled server-side, and the caller owes the consumer an
    /// `ERR DEADLINE` terminator instead of `OK`. Materializing paths
    /// never set this — they surface expiry as
    /// [`EngineError::DeadlineExceeded`] before any byte is written.
    pub deadline_exceeded: bool,
}

/// Writes the full result body for `stmt` under `opts` (see the module
/// docs for the shapes). Execution errors are returned; consumer
/// disconnects are reported in the outcome.
pub fn write_body(
    out: &mut impl Write,
    stmt: &PreparedStatement,
    opts: &ExecOptions,
) -> Result<BodyOutcome, EngineError> {
    let kind = stmt.dispatch_kind(opts)?;
    // Counters are cheap and callers (server metrics, `--stats`) always
    // want them; the body bytes do not depend on this flag.
    let mut run_opts = opts.clone();
    run_opts.collect_stats = true;

    match kind {
        DispatchKind::Parallel(_) if run_opts.limit.is_some() => {
            let k = run_opts.limit.expect("guarded");
            // The incremental parallel stream: the global-order heap
            // merge yields the serial stream's exact prefix; the stream
            // itself enforces the cap and cancels remaining shards.
            let mut stream = stmt.stream(&run_opts)?;
            let mut w = CheckedWriter::body(out, stmt);
            let yielded = w.stream_rows(&mut stream, k);
            // A deadline that passed mid-stream ends the body here: no
            // truncation marker (the body is not a truthful `limit` cut),
            // just a prefix the session terminates with `ERR DEADLINE`.
            let deadline_exceeded = stream.deadline_expired();
            if !w.disconnected && !deadline_exceeded && yielded == k && stream.truncated() {
                w.line(format_args!("# … output truncated at {k}"));
            }
            // Join the workers (cancelling any still outstanding — the
            // disconnect and deadline paths) so the counters are final
            // and stable.
            let (stats, shards) = stream.finish();
            Ok(BodyOutcome {
                rows: yielded,
                disconnected: w.disconnected,
                stats,
                shards,
                deadline_exceeded,
            })
        }
        DispatchKind::Serial if run_opts.limit.is_some() => {
            let k = run_opts.limit.expect("guarded");
            // Limit pushdown: stream without a cap, take `k`, and probe
            // exactly one tuple further for the truncation marker. The
            // stats snapshot happens before the peek so counters reflect
            // only the shown prefix — the CLI's historical contract.
            let stream_opts = ExecOptions {
                limit: None,
                ..run_opts.clone()
            };
            let mut stream = stmt.stream(&stream_opts)?;
            let mut w = CheckedWriter::body(out, stmt);
            let yielded = w.stream_rows(&mut stream, k);
            let stats = stream.stats();
            let deadline_exceeded = stream.deadline_expired();
            if !w.disconnected && !deadline_exceeded && yielded == k && stream.next_raw().is_some()
            {
                w.line(format_args!("# … output truncated at {k}"));
            }
            Ok(BodyOutcome {
                rows: yielded,
                disconnected: w.disconnected,
                stats,
                shards: None,
                deadline_exceeded,
            })
        }
        DispatchKind::Serial | DispatchKind::Parallel(_) | DispatchKind::Baseline(_) => {
            // Materialize, sorted in the query's attribute order —
            // identical bytes for every engine. Only a baseline reaches
            // here with a limit: it runs to completion anyway, so the
            // limit is applied to the display and the exact remainder is
            // known.
            let display_limit = run_opts.limit.take();
            let raw = stmt.materialize(&run_opts)?;
            let shown = display_limit.unwrap_or(usize::MAX).min(raw.tuples.len());
            let mut w = CheckedWriter::body(out, stmt);
            for t in &raw.tuples[..shown] {
                w.row(t);
            }
            if raw.tuples.len() > shown {
                w.line(format_args!("# … {} more", raw.tuples.len() - shown));
            }
            Ok(BodyOutcome {
                rows: w.rows,
                disconnected: w.disconnected,
                stats: raw.stats,
                shards: raw.shards,
                deadline_exceeded: false,
            })
        }
    }
}

/// Writes the explain output for `stmt` under `opts` — the `--explain`
/// / `--explain-json` stdout shape, shared by the CLI and the service's
/// `explain` request option. Returns whether the consumer stayed
/// connected.
pub fn write_explain(
    out: &mut impl Write,
    stmt: &PreparedStatement,
    opts: &ExecOptions,
    json: bool,
) -> Result<bool, EngineError> {
    let mut w = CheckedWriter::new(out, stmt);
    if let DispatchKind::Baseline(name) = stmt.dispatch_kind(opts)? {
        // Baselines have no Minesweeper plan: say so rather than
        // mislabelling the planner's GAO/bound as the baseline's.
        let a = lookup(&name).expect("canonical baseline name resolves");
        if json {
            w.line(format_args!(
                "{{\"algorithm\":{},\"description\":{},\"plan\":null}}",
                json_string(a.name()),
                json_string(a.description())
            ));
        } else {
            w.line(format_args!(
                "algorithm: {} — {}",
                a.name(),
                a.description()
            ));
            w.line(format_args!(
                "(no Minesweeper plan applies; GAO/probe-mode planning is \
                 specific to the default engine)"
            ));
        }
        return Ok(!w.disconnected);
    }
    let ep = stmt.explain(opts)?;
    if json {
        w.line(format_args!("{}", ep.to_json()));
    } else {
        w.line(format_args!("{}", ep.render()));
    }
    Ok(!w.disconnected)
}

/// A body writer that records the first failed write instead of
/// propagating it: once the consumer is gone every further write is
/// skipped, and the caller reads `disconnected` to stop quietly. Data
/// rows go through the statement's row writer into one reused line
/// buffer, so a row costs one `write_all` and no allocation.
struct CheckedWriter<'w, W: Write> {
    out: &'w mut W,
    stmt: &'w PreparedStatement,
    line: Vec<u8>,
    rows: usize,
    disconnected: bool,
}

impl<'w, W: Write> CheckedWriter<'w, W> {
    fn new(out: &'w mut W, stmt: &'w PreparedStatement) -> Self {
        CheckedWriter {
            out,
            stmt,
            line: Vec::new(),
            rows: 0,
            disconnected: false,
        }
    }

    /// A writer for `stmt`'s result body, its `# col…` header written.
    fn body(out: &'w mut W, stmt: &'w PreparedStatement) -> Self {
        let mut w = Self::new(out, stmt);
        w.line(format_args!("# {}", stmt.columns().join("\t")));
        w
    }

    /// Writes one non-data line (header, marker).
    fn line(&mut self, line: std::fmt::Arguments<'_>) {
        if self.disconnected {
            return;
        }
        if writeln!(self.out, "{line}").is_err() {
            self.disconnected = true;
        }
    }

    /// Writes the encoded tuple `t` as one data row, counting it.
    fn row(&mut self, t: &[Val]) {
        if self.disconnected {
            return;
        }
        self.line.clear();
        self.stmt
            .write_row(&mut self.line, t)
            .expect("Vec writes cannot fail");
        if self.out.write_all(&self.line).is_err() {
            self.disconnected = true;
        } else {
            self.rows += 1;
        }
    }

    /// Writes up to `k` rows pulled from `stream`, stopping early when
    /// the consumer goes away; returns how many rows were pulled.
    fn stream_rows(&mut self, stream: &mut StatementStream<'_>, k: usize) -> usize {
        let mut yielded = 0;
        while !self.disconnected && yielded < k {
            let Some(t) = stream.next_raw() else { break };
            self.row(t);
            yielded += 1;
        }
        yielded
    }
}

/// Convenience used by tests and the load generator: the body bytes for
/// `stmt` under `opts`, exactly as the CLI would print them.
pub fn body_string(stmt: &PreparedStatement, opts: &ExecOptions) -> Result<String, EngineError> {
    let mut buf = Vec::new();
    let outcome = write_body(&mut buf, stmt, opts)?;
    debug_assert!(!outcome.disconnected, "Vec writes cannot fail");
    Ok(String::from_utf8(buf).expect("result bodies are UTF-8"))
}

/// The io-error kinds that mean "the consumer went away" on a socket or
/// pipe — shared by the server session and the CLI for deciding between
/// a quiet stop and a real error.
pub fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use minesweeper_storage::{ColumnType, Value};

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.add_relation(
            "F",
            &[ColumnType::Str, ColumnType::Str],
            [
                vec![Value::from("jfk"), Value::from("lhr")],
                vec![Value::from("lhr"), Value::from("nrt")],
                vec![Value::from("sfo"), Value::from("jfk")],
            ],
        )
        .unwrap();
        e
    }

    #[test]
    fn serial_and_parallel_bodies_are_identical() {
        let e = engine();
        let stmt = e.prepare("F(a, b), F(b, c)").unwrap();
        let serial = body_string(&stmt, &ExecOptions::default()).unwrap();
        let par = body_string(&stmt, &ExecOptions::default().with_threads(3)).unwrap();
        assert_eq!(serial, par);
        assert!(serial.starts_with("# a\tb\tc\n"), "{serial}");
    }

    #[test]
    fn limit_bodies_match_and_mark_truncation() {
        let e = engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let serial = body_string(&stmt, &ExecOptions::default().with_limit(2)).unwrap();
        let par =
            body_string(&stmt, &ExecOptions::default().with_limit(2).with_threads(2)).unwrap();
        assert_eq!(serial, par);
        assert!(serial.contains("# … output truncated at 2"), "{serial}");
    }

    #[test]
    fn baseline_body_marks_remainder() {
        let e = engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let opts = ExecOptions::default().with_algo("naive").with_limit(1);
        let body = body_string(&stmt, &opts).unwrap();
        assert!(body.contains("# … 2 more"), "{body}");
    }

    #[test]
    fn disconnect_is_reported_not_fatal() {
        /// A writer that fails after `n` successful writes.
        struct Flaky(usize);
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let e = engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let outcome = write_body(&mut Flaky(2), &stmt, &ExecOptions::default()).unwrap();
        assert!(outcome.disconnected);
        assert!(outcome.rows < 3, "a prefix at most: {}", outcome.rows);
    }
}
