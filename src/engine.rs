//! The engine front door: prepared statements over a typed catalog.
//!
//! The paper's certificate bound `Õ(|C| + Z)` (Theorem 3.2) is a statement
//! about the *probe loop* — it assumes the ordered indexes consistent with
//! the GAO already exist. A service that re-plans and physically re-indexes
//! on every call pays that setup cost per query; a service whose domain is
//! raw `i64` cannot speak real workloads at all. [`Engine`] closes both
//! gaps:
//!
//! * it owns the [`Database`] **plus a schema catalog** (per-column
//!   [`ColumnType`]s) and a [`Dictionary`] that interns string values into
//!   the storage-level integer domain at the input boundary and decodes
//!   them back at the output boundary — the hot path never sees a string;
//! * [`Engine::prepare`] parses a query once and returns a
//!   [`PreparedStatement`] backed by a cache **keyed by query shape**
//!   holding the parsed [`Query`], the [`Plan`], *and the GAO-re-indexed
//!   relations* ([`minesweeper_core::PreparedExec`]) — repeated executions
//!   skip straight to the probe loop, and the [`ExplainPlan`] reports the
//!   cache hit and a stable plan identity. Query literals (`F(a, "jfk")`)
//!   become equality constraints **pre-seeded into the probe loop's CDS**,
//!   so differently-parameterized statements of one shape share a single
//!   cache entry and the catalog/dictionary are never touched by queries —
//!   which is also why `prepare` takes `&self` and any number of
//!   statements can be alive at once;
//! * a single [`ExecOptions`] (`algo`, `threads`, `limit`,
//!   `collect_stats`) replaces per-call-site knobs, and every evaluator —
//!   serial Minesweeper, the sharded `minesweeper-par`, and each baseline
//!   in the registry — dispatches through the same
//!   [`PreparedStatement::execute`] / [`PreparedStatement::stream`] path.
//!
//! ```
//! use minesweeper_join::engine::{Engine, ExecOptions};
//! use minesweeper_join::storage::{ColumnType, Value};
//!
//! let mut engine = Engine::new();
//! engine
//!     .add_relation(
//!         "Flight",
//!         &[ColumnType::Str, ColumnType::Str],
//!         [
//!             vec![Value::from("jfk"), Value::from("lhr")],
//!             vec![Value::from("lhr"), Value::from("nrt")],
//!             vec![Value::from("sfo"), Value::from("jfk")],
//!         ],
//!     )
//!     .unwrap();
//! // Two-hop itineraries; planning and any re-indexing happen once.
//! let stmt = engine.prepare("Flight(a, b), Flight(b, c)").unwrap();
//! let result = stmt.execute(&ExecOptions::default()).unwrap();
//! assert_eq!(result.columns, vec!["a", "b", "c"]);
//! assert_eq!(
//!     result.rows[0],
//!     vec![Value::from("jfk"), Value::from("lhr"), Value::from("nrt")]
//! );
//! // String literals constrain a position to a constant; both statements
//! // can be held at the same time.
//! let hubs = engine.prepare("Flight(a, \"jfk\")").unwrap();
//! assert_eq!(
//!     hubs.execute(&ExecOptions::default()).unwrap().rows,
//!     vec![vec![Value::from("sfo")]]
//! );
//! assert_eq!(stmt.execute(&ExecOptions::default()).unwrap().rows, result.rows);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use minesweeper_baselines::lookup_configured;
use minesweeper_core::{
    plan, shard_strategy, Atom, ExplainCache, ExplainPlan, ExplainShards, ExplainStorage,
    MinesweeperPar, Plan, PreparedExec, Query, QueryError,
};
use minesweeper_durability::{
    Batch as WalBatch, CellOp, DurabilityCounters, DurabilityOptions, DurableStore, Opened,
    RelationDump, WalRecord,
};
use minesweeper_storage::{
    value::MAX_DOMAIN_VALUE, ColumnType, Database, Dictionary, ExecStats, LeafPolicy, RelId,
    RelationBuilder, StorageError, TrieRelation, Tuple, Val, Value, WriteOp, WriteOutcome,
};

use crate::text::{parse_query_ast, parse_typed_relation, QueryArg, TextError};

/// Pipeline description shared by every sharded-execution explain (the
/// `strategy` field carries the data-dependent variant; the `merge`
/// field names the global-order reassembly).
const SHARD_DETAIL: &str = "equi-depth shard tasks of the first GAO attribute (nested \
                            second-attribute splits for heavy runs) on a work-stealing deque, \
                            k-way heap merge keyed by GAO-translated tuples";

/// Errors from the engine front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Query / relation text failed to parse or resolve.
    Text(TextError),
    /// Planning or execution rejected the query.
    Query(QueryError),
    /// The storage catalog rejected an operation.
    Storage(String),
    /// An attribute is bound to columns of conflicting types (or a
    /// literal's type does not match its column).
    TypeMismatch {
        /// The attribute's name.
        attr: String,
        /// Type seen first (for literals: the column's type).
        expected: ColumnType,
        /// Conflicting type.
        found: ColumnType,
    },
    /// A row's cell count does not match the declared column count.
    RowArity {
        /// Relation being loaded.
        relation: String,
        /// Declared column count.
        expected: usize,
        /// Cells found in the offending row.
        got: usize,
    },
    /// A row cell does not match the declared column type.
    ValueType {
        /// Relation being loaded.
        relation: String,
        /// 0-based column.
        column: usize,
        /// The declared type the cell violated.
        expected: ColumnType,
    },
    /// `ExecOptions::algo` named no registered algorithm.
    UnknownAlgorithm(String),
    /// The execution deadline ([`ExecOptions::deadline`]) passed before
    /// the statement completed. The query itself was fine — this reports
    /// an execution cut short, so it is *not* a query rejection.
    DeadlineExceeded,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Text(e) => write!(f, "{e}"),
            EngineError::Query(e) => write!(f, "{e}"),
            EngineError::Storage(msg) => write!(f, "{msg}"),
            EngineError::TypeMismatch {
                attr,
                expected,
                found,
            } => write!(
                f,
                "attribute {attr} is bound to both {expected} and {found} columns"
            ),
            EngineError::RowArity {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation}: row has {got} cells but {expected} columns are declared"
            ),
            EngineError::ValueType {
                relation,
                column,
                expected,
            } => write!(
                f,
                "relation {relation} column {column}: value does not match declared type \
                 {expected}"
            ),
            EngineError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl EngineError {
    /// The stable protocol error code for this error — what `msj serve`
    /// puts on an `ERR <code> <message>` response line (see
    /// `docs/SERVICE.md`). Codes are part of the wire contract: they
    /// name error *categories*, never message text, so clients can
    /// switch on them across releases.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::Text(_) => "PARSE",
            EngineError::Query(_) => "PLAN",
            EngineError::Storage(_) => "STORAGE",
            EngineError::TypeMismatch { .. } => "TYPE",
            EngineError::RowArity { .. } | EngineError::ValueType { .. } => "LOAD",
            EngineError::UnknownAlgorithm(_) => "ALGO",
            EngineError::DeadlineExceeded => "DEADLINE",
        }
    }

    /// True when the error rejects the *request itself* (unparseable or
    /// unplannable query text, a type conflict, an unknown algorithm)
    /// rather than reporting a failure while executing it. The CLI maps
    /// the two classes to distinct process exit codes (3 vs. 1).
    pub fn is_query_rejection(&self) -> bool {
        matches!(
            self,
            EngineError::Text(_)
                | EngineError::Query(_)
                | EngineError::TypeMismatch { .. }
                | EngineError::UnknownAlgorithm(_)
        )
    }
}

impl std::error::Error for EngineError {}

impl From<TextError> for EngineError {
    fn from(e: TextError) -> Self {
        EngineError::Text(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e.to_string())
    }
}

/// Execution knobs — the one options struct every evaluator honours.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Evaluator name or alias from the registry (`None` = the planned
    /// Minesweeper engine; `"minesweeper-par"` = the sharded engine).
    pub algo: Option<String>,
    /// Worker threads. `0` (the default) runs serially; any explicit
    /// count — including `1` — selects the sharded parallel engine for
    /// the Minesweeper evaluators (baselines ignore it).
    pub threads: usize,
    /// Cap on materialized output tuples. The serial engine pushes the
    /// limit into the probe loop; the parallel engine stops its
    /// global-order merge at the cap and cancels queued and in-flight
    /// shards (memory `O(tasks × channel capacity + limit)`), returning
    /// the exact serial prefix; baselines truncate after running to
    /// completion.
    pub limit: Option<usize>,
    /// Attach [`ExecStats`] (and per-shard stats, when sharded) to the
    /// result.
    pub collect_stats: bool,
    /// Cancel execution at this instant. Streaming paths stop yielding
    /// (see [`StatementStream::deadline_expired`]) and materializing
    /// paths return [`EngineError::DeadlineExceeded`]; either way the
    /// remaining probe work — queued and in-flight shards included — is
    /// abandoned. Baseline evaluators run to completion and honour the
    /// deadline only when they finish. `None` (the default) never
    /// expires and leaves every execution path exactly as it was.
    pub deadline: Option<Instant>,
}

impl ExecOptions {
    /// Selects an evaluator by registry name or alias.
    pub fn with_algo(mut self, name: impl Into<String>) -> Self {
        self.algo = Some(name.into());
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps materialized output.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Requests statistics on the result.
    pub fn with_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// Sets the execution deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// True when `deadline` is set and has passed. Callers poll this between
/// tuples — `Instant::now()` is tens of nanoseconds, far below one probe.
fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// One row-level write in an [`Engine::apply_batch`] batch, with typed
/// cells (the write-path twin of the typed rows [`Engine::add_relation`]
/// loads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOp {
    /// Add a row (no-op if present — set semantics).
    Insert(Vec<Value>),
    /// Remove a row (no-op if absent).
    Delete(Vec<Value>),
}

impl RowOp {
    /// The row the operation carries.
    pub fn row(&self) -> &[Value] {
        match self {
            RowOp::Insert(r) | RowOp::Delete(r) => r,
        }
    }
}

/// How a durable engine came up (see [`Engine::open_durable`]).
#[derive(Debug)]
pub enum DurableBoot {
    /// A new data directory: the caller loads initial relations, then
    /// writes the boot checkpoint.
    Fresh,
    /// An existing directory was recovered losslessly.
    Recovered(RecoveryReport),
}

/// What a recovery did — surfaced on `msj serve` startup.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The checkpoint the catalog was rebuilt from.
    pub checkpoint_id: u64,
    /// Relations restored from that checkpoint.
    pub relations: usize,
    /// WAL tail records replayed on top of it.
    pub replayed_records: u64,
    /// Conditions recovery tolerated (torn final line, an invalid newest
    /// checkpoint it fell back past).
    pub warnings: Vec<String>,
}

/// What one checkpoint wrote (see [`Engine::checkpoint`]).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// The published checkpoint's sequence number.
    pub id: u64,
    /// Relations dumped.
    pub relations: usize,
    /// Total rows across all dumps.
    pub rows: u64,
}

/// The WAL text form of one typed row (integers print, strings pass
/// through; escaping happens at the record layer).
fn cells_of(row: &[Value]) -> Vec<String> {
    row.iter()
        .map(|cell| match cell {
            Value::Int(v) => v.to_string(),
            Value::Str(s) => s.clone(),
        })
        .collect()
}

/// Decodes one stored tuple back to text cells for a checkpoint dump —
/// the exact inverse of the loader's encoding.
fn decode_cells(tuple: &[Val], types: &[ColumnType], dict: &Dictionary) -> Vec<String> {
    tuple
        .iter()
        .zip(types)
        .map(|(&v, ty)| match ty {
            ColumnType::Int => v.to_string(),
            ColumnType::Str => dict
                .resolve(v)
                .expect("stored string ids always resolve")
                .to_string(),
        })
        .collect()
}

/// Parses a checkpoint manifest's column-type tokens back into the
/// schema catalog's types.
fn parse_type_tokens(relation: &str, tokens: &[String]) -> Result<Vec<ColumnType>, EngineError> {
    tokens
        .iter()
        .map(|t| match t.as_str() {
            "int" => Ok(ColumnType::Int),
            "str" => Ok(ColumnType::Str),
            other => Err(EngineError::Storage(format!(
                "checkpoint manifest: relation {relation} has unknown column type {other:?}"
            ))),
        })
        .collect()
}

/// Declared shape of one stored relation.
#[derive(Debug, Clone)]
struct RelSchema {
    cols: Vec<ColumnType>,
}

/// One cached prepared-statement entry: everything repeated executions of
/// a query *shape* reuse — differently-parameterized literals share it,
/// since literal values live in per-statement seed constraints, not here.
/// Shared (`Arc`) between the cache and the statements hitting it — also
/// across threads, which is what lets one engine serve many connections.
#[derive(Debug)]
struct CachedStatement {
    /// Stable plan identity: statements reporting the same id share one
    /// plan and one set of re-indexed relations.
    id: u64,
    /// The query (original numbering) over the engine's database.
    query: Query,
    /// The planning decisions.
    plan: Plan,
    /// The bound execution: owns the GAO-re-indexed relations when the
    /// plan demanded them — the expensive half of the cache. Built
    /// lazily on the first Minesweeper-path execution, so statements
    /// dispatched to a baseline never pay the physical re-index.
    /// `OnceLock`, so concurrent first executions race safely and every
    /// later one reads the same bound state.
    exec: OnceLock<PreparedExec>,
    /// Per-attribute value types (decode map).
    attr_types: Vec<ColumnType>,
    /// `(relation, version)` for every relation the query touches, at plan
    /// time. A later prepare whose database disagrees treats the entry as
    /// stale — the write path's cache-invalidation key (see
    /// `docs/STORAGE.md`). Writes to relations *not* listed here leave the
    /// entry warm.
    versions: Vec<(RelId, u64)>,
}

impl CachedStatement {
    /// The bound execution, built (at most once, then cached) on first
    /// use. `plan()` already validated the query against this immutable
    /// catalog, so the bind cannot newly fail.
    fn exec(&self, db: &Database) -> &PreparedExec {
        self.exec.get_or_init(|| {
            self.plan
                .prepare_exec(db)
                .expect("query validated when the plan was built")
        })
    }
}

/// The engine front door (see the module docs). Loading relations takes
/// `&mut self`; preparing and executing statements take `&self`, so any
/// number of prepared statements can be alive concurrently.
///
/// The engine is `Send + Sync`: once loaded it can sit behind an
/// `Arc<Engine>` shared by many connection threads — the statement cache
/// is the shared hot state (`RwLock`-protected, read-mostly), and a
/// cached entry's expensive bound execution is a `OnceLock` so exactly
/// one thread pays any physical re-index. This is the contract the
/// `msj serve` front door (see [`crate::server`]) is built on.
#[derive(Debug)]
pub struct Engine {
    /// The current database version, behind a copy-on-write `Arc`: readers
    /// (prepared statements, detached parallel streams) clone the `Arc`
    /// once and never lock again — that clone *is* their snapshot, kept
    /// alive across any number of later writes. Writers take the write
    /// lock briefly to `Arc::make_mut` (cheap: relations are `Arc`-shared
    /// inside) and swap in the next version. See `docs/STORAGE.md`.
    db: RwLock<Arc<Database>>,
    schemas: Vec<RelSchema>,
    /// Copy-on-write like `db`: decode paths hold an `Arc` snapshot and
    /// never lock; write batches interning new strings clone-on-write.
    /// The dictionary only ever grows, so any newer snapshot decodes any
    /// older database version.
    dict: RwLock<Arc<Dictionary>>,
    cache: RwLock<HashMap<String, Arc<CachedStatement>>>,
    next_plan_id: AtomicU64,
    /// The write-ahead log + checkpoint store when the engine is durable
    /// (see [`Engine::open_durable`]); `None` for in-memory engines.
    /// Locked only inside the `db` write lock, so WAL order equals
    /// commit order by construction.
    durability: Option<Mutex<DurableStore>>,
    /// Threshold-triggered compaction after writes (default on): when a
    /// batch leaves a relation's delta above
    /// [`minesweeper_storage::COMPACT_DELTA_RATIO`], the engine folds it
    /// immediately, under the same write lock. Content-neutral —
    /// versions, cached plans, and reader snapshots are unaffected.
    auto_compact: AtomicBool,
    auto_compactions: AtomicU64,
    /// Query-text parses performed by [`Engine::prepare`]. Deliberately
    /// *not* a cache-hit counter: it counts trips through the text front
    /// end, which is exactly the work the service's `PREPARE`/`EXEC`
    /// verbs exist to skip — `EXEC` never bumps it, so the counter stays
    /// flat across repeated executions of a prepared statement.
    parses: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            db: RwLock::default(),
            schemas: Vec::new(),
            dict: RwLock::default(),
            cache: RwLock::default(),
            next_plan_id: AtomicU64::new(0),
            durability: None,
            auto_compact: AtomicBool::new(true),
            auto_compactions: AtomicU64::new(0),
            parses: AtomicU64::new(0),
        }
    }
}

// The service front door shares one engine across connection threads;
// losing either marker is an API break, so fail at compile time, not in
// a server stress test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineError>();
};

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing integer database: every column is catalogued as
    /// [`ColumnType::Int`], so embedded callers migrating from the raw
    /// `Database` API keep their exact semantics.
    pub fn from_database(db: Database) -> Self {
        let schemas = db
            .iter()
            .map(|(_, r)| RelSchema {
                cols: vec![ColumnType::Int; r.arity()],
            })
            .collect();
        Engine {
            db: RwLock::new(Arc::new(db)),
            schemas,
            ..Self::default()
        }
    }

    /// A snapshot of the current database version (encoded values). The
    /// returned `Arc` stays valid — and unchanged — across later writes;
    /// call again to observe them.
    pub fn db(&self) -> Arc<Database> {
        self.db.read().unwrap().clone()
    }

    /// A snapshot of the engine's string dictionary (append-only: any
    /// snapshot decodes any database version no newer than itself).
    pub fn dict(&self) -> Arc<Dictionary> {
        self.dict.read().unwrap().clone()
    }

    /// The declared column types of a stored relation.
    pub fn schema(&self, rel: RelId) -> &[ColumnType] {
        &self.schemas[rel.0].cols
    }

    /// Adds a typed relation: rows are checked against `types`, string
    /// cells are interned through the dictionary, and the encoded tuples
    /// are indexed exactly like native integers. Equality joins are
    /// preserved by any injective encoding, so the decoded result of a
    /// join over encoded relations equals the string-level join.
    pub fn add_relation(
        &mut self,
        name: &str,
        types: &[ColumnType],
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<RelId, EngineError> {
        let mut b = RelationBuilder::new(name, types.len());
        let mut buf: Tuple = vec![0; types.len()];
        let dict = Arc::make_mut(self.dict.get_mut().unwrap());
        for row in rows {
            if row.len() != types.len() {
                return Err(EngineError::RowArity {
                    relation: name.to_string(),
                    expected: types.len(),
                    got: row.len(),
                });
            }
            for (c, (cell, ty)) in row.iter().zip(types).enumerate() {
                buf[c] = match (cell, ty) {
                    (Value::Int(v), ColumnType::Int) => *v,
                    (Value::Str(s), ColumnType::Str) => dict.intern(s),
                    _ => {
                        return Err(EngineError::ValueType {
                            relation: name.to_string(),
                            column: c,
                            expected: *ty,
                        })
                    }
                };
            }
            b.push(&buf);
        }
        self.add_built(b.build()?, types.to_vec())
    }

    /// Loads a whitespace-separated tuple file (see
    /// [`crate::text::parse_typed_relation`]): column types are inferred,
    /// integer-only files stay byte-identical to the untyped path.
    pub fn load_tsv(&mut self, name: &str, text: &str) -> Result<RelId, EngineError> {
        let typed = parse_typed_relation(name, text)?;
        self.add_relation(&typed.name, &typed.types, typed.rows)
    }

    /// Adds an already-built integer relation under an all-`Int` schema.
    pub fn add_int_relation(&mut self, rel: TrieRelation) -> Result<RelId, EngineError> {
        let types = vec![ColumnType::Int; rel.arity()];
        self.add_built(rel, types)
    }

    fn add_built(
        &mut self,
        rel: TrieRelation,
        cols: Vec<ColumnType>,
    ) -> Result<RelId, EngineError> {
        // The Arc is unique during the loading phase (statements only
        // borrow the engine), so this mutates in place; a clone happens
        // only if a detached stream from an earlier statement is still
        // running, which keeps that stream's view consistent.
        let id = Arc::make_mut(self.db.get_mut().unwrap()).add(rel)?;
        debug_assert_eq!(id.0, self.schemas.len(), "schema catalog tracks RelIds");
        self.schemas.push(RelSchema { cols });
        Ok(id)
    }

    /// Inserts typed rows into a stored relation (set semantics: rows
    /// already present are no-ops). Takes `&self` — writes go through the
    /// copy-on-write database, so statements and streams prepared earlier
    /// keep their snapshots; the relation's version is bumped iff content
    /// actually changed, invalidating cached plans over it. See
    /// `docs/STORAGE.md` for the full lifecycle contract.
    pub fn insert(
        &self,
        relation: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<WriteOutcome, EngineError> {
        self.apply_batch(relation, rows.into_iter().map(RowOp::Insert))
    }

    /// Deletes typed rows from a stored relation (rows not present are
    /// no-ops). Same snapshot/version semantics as [`Engine::insert`].
    pub fn delete(
        &self,
        relation: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<WriteOutcome, EngineError> {
        self.apply_batch(relation, rows.into_iter().map(RowOp::Delete))
    }

    /// Applies a mixed batch of inserts and deletes to one relation,
    /// atomically and in order. The whole batch is validated against the
    /// declared schema before any state changes; the returned
    /// [`WriteOutcome`] counts rows that actually changed membership.
    /// Concurrent readers are never blocked: they keep the `Arc` snapshot
    /// they already hold, and the next prepare sees the new version.
    ///
    /// On a durable engine ([`Engine::open_durable`]) the batch is
    /// appended to the write-ahead log *before* the copy-on-write swap —
    /// validation up front is exhaustive (arity, type, value domain), so
    /// a logged record can never fail to apply, and a WAL append failure
    /// aborts the batch with nothing applied.
    pub fn apply_batch(
        &self,
        relation: &str,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<WriteOutcome, EngineError> {
        let ops: Vec<RowOp> = ops.into_iter().collect();
        let id = self.db.read().unwrap().id_of(relation)?;
        if ops.is_empty() {
            return Ok(WriteOutcome::default());
        }
        let types = self.schemas[id.0].cols.clone();
        // Validate the whole batch before interning, logging, or applying
        // anything. The checks mirror everything `Database::apply` would
        // reject (arity, cell type, integer domain), which is what makes
        // log-before-apply safe.
        for op in &ops {
            let row = op.row();
            if row.len() != types.len() {
                return Err(EngineError::RowArity {
                    relation: relation.to_string(),
                    expected: types.len(),
                    got: row.len(),
                });
            }
            for (c, (cell, ty)) in row.iter().zip(&types).enumerate() {
                match (cell, ty) {
                    (Value::Int(v), ColumnType::Int) => {
                        if !(0..=MAX_DOMAIN_VALUE).contains(v) {
                            return Err(StorageError::ValueOutOfDomain {
                                relation: relation.to_string(),
                                value: *v,
                            }
                            .into());
                        }
                    }
                    (Value::Str(_), ColumnType::Str) => {}
                    _ => {
                        return Err(EngineError::ValueType {
                            relation: relation.to_string(),
                            column: c,
                            expected: *ty,
                        })
                    }
                }
            }
        }
        // Encode. Inserts may intern new strings (copy-on-write on the
        // dictionary); a delete naming a string the dictionary has never
        // seen cannot match any stored tuple and is dropped as a no-op
        // without polluting the dictionary.
        let mut encoded: Vec<WriteOp> = Vec::with_capacity(ops.len());
        {
            let mut dict = self.dict.write().unwrap();
            'ops: for op in &ops {
                let row = op.row();
                let mut t: Tuple = Vec::with_capacity(row.len());
                for cell in row {
                    t.push(match cell {
                        Value::Int(v) => *v,
                        Value::Str(s) => match op {
                            RowOp::Insert(_) => Arc::make_mut(&mut dict).intern(s),
                            RowOp::Delete(_) => match dict.id_of(s) {
                                Some(v) => v,
                                None => continue 'ops, // vacuous delete
                            },
                        },
                    });
                }
                encoded.push(match op {
                    RowOp::Insert(_) => WriteOp::Insert(t),
                    RowOp::Delete(_) => WriteOp::Delete(t),
                });
            }
        }
        let mut db = self.db.write().unwrap();
        // Log before the swap, under the same write lock, so the WAL's
        // record order is exactly the commit order. The record carries the
        // *original* text-level ops (vacuous deletes included — replay
        // re-drops them the same way) plus the relation's pre-batch
        // version, which recovery uses as a continuity check.
        if let Some(store) = &self.durability {
            let record = WalRecord::Batch(WalBatch {
                relation: relation.to_string(),
                version_before: db.version(id),
                ops: ops
                    .iter()
                    .map(|op| match op {
                        RowOp::Insert(row) => CellOp::Insert(cells_of(row)),
                        RowOp::Delete(row) => CellOp::Delete(cells_of(row)),
                    })
                    .collect(),
            });
            store
                .lock()
                .unwrap()
                .log(&record)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        let outcome = Arc::make_mut(&mut db).apply(id, &encoded)?;
        // Threshold-triggered compaction, still under the write lock:
        // fold the delta the moment it outgrows the ratio, so read-path
        // merge overhead stays bounded without anyone asking. Not logged —
        // compaction is content-neutral and recovery re-converges on its
        // own (replayed deltas re-trigger the same threshold).
        if self.auto_compact.load(Ordering::Relaxed) && db.versioned(id).should_compact() {
            Arc::make_mut(&mut db).compact(id);
            self.auto_compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Whether threshold-triggered compaction after writes is enabled
    /// (see [`Engine::set_auto_compact`]; default on).
    pub fn auto_compact_enabled(&self) -> bool {
        self.auto_compact.load(Ordering::Relaxed)
    }

    /// Enables or disables threshold-triggered compaction after writes.
    /// Off restores the advise-only behavior: deltas accumulate until an
    /// explicit [`Engine::compact`] / `W COMPACT`.
    pub fn set_auto_compact(&self, on: bool) {
        self.auto_compact.store(on, Ordering::Relaxed);
    }

    /// The leaf-representation policy the catalog selects dense bitset
    /// leaves under (see [`LeafPolicy`]; default from `MSJ_LEAF`).
    pub fn leaf_policy(&self) -> LeafPolicy {
        self.db.read().unwrap().leaf_policy()
    }

    /// Switches the leaf-representation policy and rebuilds every
    /// relation's hybrid index under it. Content- and version-neutral:
    /// cached plans and snapshots held by running readers are unaffected.
    pub fn set_leaf_policy(&self, policy: LeafPolicy) {
        let mut db = self.db.write().unwrap();
        Arc::make_mut(&mut db).set_leaf_policy(policy);
    }

    /// How many threshold-triggered compactions the engine has performed.
    pub fn auto_compactions(&self) -> u64 {
        self.auto_compactions.load(Ordering::Relaxed)
    }

    /// How many query texts [`Engine::prepare`] has parsed. Executing an
    /// already-prepared statement never parses, so a service holding
    /// statements across requests (the `PREPARE`/`EXEC` verbs) keeps
    /// this flat — the deterministic evidence that the text front end
    /// was skipped.
    pub fn query_parses(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }

    /// Current version counter of a relation (bumped per content-changing
    /// batch; the cache-invalidation key).
    pub fn relation_version(&self, relation: &str) -> Result<u64, EngineError> {
        let db = self.db.read().unwrap();
        Ok(db.version(db.id_of(relation)?))
    }

    /// Folds one relation's write delta into a fresh immutable base.
    /// Content-neutral: versions, cached plans, and snapshots held by
    /// running readers are all unaffected. Returns false when the delta
    /// was already empty.
    pub fn compact_relation(&self, relation: &str) -> Result<bool, EngineError> {
        let mut db = self.db.write().unwrap();
        let id = db.id_of(relation)?;
        Ok(Arc::make_mut(&mut db).compact(id))
    }

    /// Compacts every relation with pending writes; returns how many were
    /// folded.
    pub fn compact(&self) -> usize {
        let mut db = self.db.write().unwrap();
        Arc::make_mut(&mut db).compact_all()
    }

    /// Types one text row against a declared schema, with exactly the
    /// rules the TSV loader and the `W INSERT` wire path use: integer
    /// columns parse the token, string columns take it verbatim. Shared
    /// by the server session and WAL replay, so a replayed record is
    /// typed bit-for-bit like the live request that produced it.
    pub fn type_row(
        relation: &str,
        types: &[ColumnType],
        cells: &[String],
    ) -> Result<Vec<Value>, EngineError> {
        if cells.len() != types.len() {
            return Err(EngineError::RowArity {
                relation: relation.to_string(),
                expected: types.len(),
                got: cells.len(),
            });
        }
        cells
            .iter()
            .zip(types)
            .enumerate()
            .map(|(c, (cell, ty))| match ty {
                ColumnType::Int => {
                    cell.parse()
                        .map(Value::Int)
                        .map_err(|_| EngineError::ValueType {
                            relation: relation.to_string(),
                            column: c,
                            expected: ColumnType::Int,
                        })
                }
                ColumnType::Str => Ok(Value::Str(cell.clone())),
            })
            .collect()
    }

    /// Opens a durable engine over a data directory (see
    /// `docs/DURABILITY.md`): creates the directory layout on first boot,
    /// or recovers — newest valid checkpoint, then WAL-tail replay
    /// through the normal typed write path — on every later one. The
    /// returned [`DurableBoot`] says which happened; after a fresh boot
    /// the caller loads its initial relations and calls
    /// [`Engine::checkpoint`] once before accepting writes.
    pub fn open_durable(
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<(Engine, DurableBoot), EngineError> {
        let opened =
            DurableStore::open(dir, options).map_err(|e| EngineError::Storage(e.to_string()))?;
        let mut engine = Engine::new();
        match opened {
            Opened::Fresh(store) => {
                engine.durability = Some(Mutex::new(store));
                Ok((engine, DurableBoot::Fresh))
            }
            Opened::Recovered(store, recovery) => {
                // Rebuild the catalog from the checkpoint dumps. Strings
                // re-intern in row order; ids may differ from the crashed
                // process, but every decoded answer is byte-identical —
                // the dictionary is an equality-preserving encoding, not
                // persisted state.
                for dump in &recovery.relations {
                    let types = parse_type_tokens(&dump.name, &dump.types)?;
                    let rows = dump
                        .rows
                        .iter()
                        .map(|cells| Self::type_row(&dump.name, &types, cells))
                        .collect::<Result<Vec<_>, _>>()?;
                    let id = engine.add_relation(&dump.name, &types, rows)?;
                    Arc::make_mut(engine.db.get_mut().unwrap()).restore_version(id, dump.version);
                }
                // Replay the tail through the public write path —
                // durability is not attached yet, so nothing re-logs.
                let mut replayed = 0u64;
                for rec in &recovery.tail {
                    match &rec.record {
                        WalRecord::Batch(batch) => {
                            let version = engine.relation_version(&batch.relation)?;
                            if version != batch.version_before {
                                return Err(EngineError::Storage(format!(
                                    "wal record {} expects relation {} at version {}, found {} — \
                                     the log does not continue this checkpoint",
                                    rec.lsn, batch.relation, batch.version_before, version
                                )));
                            }
                            let id = engine.db.get_mut().unwrap().id_of(&batch.relation)?;
                            let types = engine.schemas[id.0].cols.clone();
                            let ops = batch
                                .ops
                                .iter()
                                .map(|op| {
                                    Ok(match op {
                                        CellOp::Insert(cells) => RowOp::Insert(Self::type_row(
                                            &batch.relation,
                                            &types,
                                            cells,
                                        )?),
                                        CellOp::Delete(cells) => RowOp::Delete(Self::type_row(
                                            &batch.relation,
                                            &types,
                                            cells,
                                        )?),
                                    })
                                })
                                .collect::<Result<Vec<_>, EngineError>>()?;
                            engine.apply_batch(&batch.relation, ops)?;
                        }
                        WalRecord::Compact { relation } => match relation {
                            Some(rel) => {
                                engine.compact_relation(rel)?;
                            }
                            None => {
                                engine.compact();
                            }
                        },
                    }
                    replayed += 1;
                }
                let report = RecoveryReport {
                    checkpoint_id: recovery.checkpoint_id,
                    relations: recovery.relations.len(),
                    replayed_records: replayed,
                    warnings: recovery.warnings,
                };
                engine.durability = Some(Mutex::new(store));
                Ok((engine, DurableBoot::Recovered(report)))
            }
        }
    }

    /// True when this engine logs to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durability counters `STATS` reports; `None` on an in-memory
    /// engine.
    pub fn durability_stats(&self) -> Option<DurabilityCounters> {
        self.durability
            .as_ref()
            .map(|store| store.lock().unwrap().counters())
    }

    /// Writes a checkpoint: fsyncs the WAL, pins its position together
    /// with a consistent database snapshot (both under the write lock),
    /// dumps every relation's decoded rows outside the lock, publishes
    /// atomically, and prunes old checkpoints plus the WAL segments
    /// nothing retained still needs. Logs a `COMPACT`-free, read-only
    /// view — concurrent readers are unaffected; writers wait only for
    /// the position pin, then queue behind the WAL mutex until the dump
    /// is published. Returns `None` on an in-memory engine.
    pub fn checkpoint(&self) -> Result<Option<CheckpointReport>, EngineError> {
        let Some(store) = &self.durability else {
            return Ok(None);
        };
        // Pin (position, snapshot) atomically: holding the db read lock
        // excludes committers (they need the write lock), so no batch
        // can land between the two. Lock order is db before the WAL
        // mutex, the same order `apply_batch` uses — taking the store
        // mutex first would deadlock against a concurrent writer.
        let (pos, next_lsn, db, mut store) = {
            let db = self.db.read().unwrap();
            let mut store = store.lock().unwrap();
            let (pos, next_lsn) = store
                .sync_position()
                .map_err(|e| EngineError::Storage(e.to_string()))?;
            (pos, next_lsn, (*db).clone(), store)
        };
        let dict = self.dict.read().unwrap().clone();
        let mut dumps = Vec::with_capacity(db.len());
        let mut rows_total = 0u64;
        for (id, rel) in db.iter() {
            let types = &self.schemas[id.0].cols;
            let mut rows = Vec::with_capacity(rel.len());
            for tuple in rel.iter_tuples() {
                rows.push(decode_cells(&tuple, types, &dict));
            }
            rows_total += rows.len() as u64;
            dumps.push(RelationDump {
                name: rel.name().to_string(),
                types: types.iter().map(|t| t.to_string()).collect(),
                version: db.version(id),
                rows,
            });
        }
        let manifest = store
            .commit_checkpoint(pos, next_lsn, &dumps)
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        Ok(Some(CheckpointReport {
            id: manifest.id,
            relations: dumps.len(),
            rows: rows_total,
        }))
    }

    /// Writes a checkpoint iff the periodic policy
    /// ([`DurabilityOptions::checkpoint_every`]) says one is due — the
    /// call servers make after each write.
    pub fn maybe_checkpoint(&self) -> Result<Option<CheckpointReport>, EngineError> {
        let due = match &self.durability {
            Some(store) => store.lock().unwrap().checkpoint_due(),
            None => false,
        };
        if due {
            self.checkpoint()
        } else {
            Ok(None)
        }
    }

    /// Logs an explicit compaction (`W COMPACT`) to the WAL, then
    /// performs it. Threshold-triggered compactions are *not* logged —
    /// they are content-neutral and recovery re-triggers them — but an
    /// explicit one is a client-visible command, so replay repeats it.
    pub fn compact_logged(&self, relation: Option<&str>) -> Result<usize, EngineError> {
        let mut db = self.db.write().unwrap();
        if let Some(rel) = relation {
            db.id_of(rel)?; // validate before logging
        }
        if let Some(store) = &self.durability {
            let record = WalRecord::Compact {
                relation: relation.map(|r| r.to_string()),
            };
            store
                .lock()
                .unwrap()
                .log(&record)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        Ok(match relation {
            Some(rel) => {
                let id = db.id_of(rel)?;
                Arc::make_mut(&mut db).compact(id) as usize
            }
            None => Arc::make_mut(&mut db).compact_all(),
        })
    }

    /// Parses and prepares a query. Planning, GAO selection, and any
    /// physical re-indexing happen **at most once per query shape per
    /// data version**: a repeat prepare (different variable names,
    /// different literal values) returns the cached plan and re-indexed
    /// relations, and every [`PreparedStatement::execute`] after that
    /// goes straight to the probe loop. A write to a relation the shape
    /// touches bumps that relation's version and the next prepare
    /// rebuilds the entry; writes elsewhere leave it warm. Literals never
    /// touch the catalog or dictionary — they become pre-seeded CDS
    /// constraints on this statement.
    ///
    /// The statement is bound to the engine's **current snapshot**: later
    /// writes never change what it returns (snapshot isolation);
    /// re-prepare to observe them.
    pub fn prepare(&self, text: &str) -> Result<PreparedStatement, EngineError> {
        self.parses.fetch_add(1, Ordering::Relaxed);
        let db = self.db();
        let dict = self.dict();
        let ast = parse_query_ast(text)?;
        // Attribute *slots* in first-appearance order: one per variable,
        // one per literal occurrence (literals become hidden attributes
        // pinned by equality seeds).
        let mut slot_ids: HashMap<String, usize> = HashMap::new();
        let mut slot_names: Vec<String> = Vec::new();
        let mut slot_visible: Vec<bool> = Vec::new();
        let mut slot_literals: Vec<(usize, QueryArg)> = Vec::new();
        let mut data_atoms: Vec<(String, Vec<usize>)> = Vec::new();
        for atom in &ast {
            let mut slots = Vec::new();
            for arg in &atom.args {
                let slot = match arg {
                    QueryArg::Var(v) => *slot_ids.entry(v.clone()).or_insert_with(|| {
                        slot_names.push(v.clone());
                        slot_visible.push(true);
                        slot_names.len() - 1
                    }),
                    QueryArg::StrLit(s) => {
                        slot_names.push(format!("{s:?}"));
                        slot_visible.push(false);
                        let a = slot_names.len() - 1;
                        slot_literals.push((a, arg.clone()));
                        a
                    }
                    QueryArg::IntLit(v) => {
                        slot_names.push(v.to_string());
                        slot_visible.push(false);
                        let a = slot_names.len() - 1;
                        slot_literals.push((a, arg.clone()));
                        a
                    }
                };
                slots.push(slot);
            }
            data_atoms.push((atom.relation.clone(), slots));
        }
        // GAO positions consistent with every atom's written column order
        // (shared with `text::parse_query`): first-appearance numbering
        // when feasible, the closest consistent reordering otherwise —
        // this is what lets a literal sit before an already-bound
        // variable, as in `F(a, b), F("jfk", b)`.
        let pos = crate::text::assign_gao_positions(slot_names.len(), &data_atoms)?;
        let n = slot_names.len();
        let mut attr_names = vec![String::new(); n];
        let mut visible = vec![false; n];
        for slot in 0..n {
            attr_names[pos[slot]] = slot_names[slot].clone();
            visible[pos[slot]] = slot_visible[slot];
        }
        let mut query = Query::new(n);
        for (name, slots) in data_atoms {
            let rel = db
                .id_of(&name)
                .map_err(|_| TextError::UnknownRelation(name.clone()))?;
            let arity = db.relation(rel).arity();
            if arity != slots.len() {
                return Err(TextError::AtomArity {
                    relation: name,
                    atom: slots.len(),
                    relation_arity: arity,
                }
                .into());
            }
            query.atoms.push(Atom {
                rel,
                attrs: slots.iter().map(|&s| pos[s]).collect(),
            });
        }
        let (entry, hit) = self.entry_for(&db, &query, &attr_names)?;
        // Literals: type-check against the column the slot landed in,
        // then encode as equality seeds. A string the dictionary snapshot
        // has never seen cannot occur in this statement's database
        // snapshot (interning happens before a write lands), so the
        // statement is vacuously empty.
        let mut seeds: Vec<(usize, Val)> = Vec::new();
        let mut vacuous = false;
        for (slot, arg) in slot_literals {
            let attr = pos[slot];
            let column_ty = entry.attr_types[attr];
            let lit_ty = match arg {
                QueryArg::StrLit(_) => ColumnType::Str,
                QueryArg::IntLit(_) => ColumnType::Int,
                QueryArg::Var(_) => unreachable!("only literals are recorded"),
            };
            if lit_ty != column_ty {
                return Err(EngineError::TypeMismatch {
                    attr: attr_names[attr].clone(),
                    expected: column_ty,
                    found: lit_ty,
                });
            }
            match arg {
                QueryArg::IntLit(v) => seeds.push((attr, v)),
                QueryArg::StrLit(s) => match dict.id_of(&s) {
                    Some(id) => seeds.push((attr, id)),
                    None => vacuous = true,
                },
                QueryArg::Var(_) => unreachable!(),
            }
        }
        Ok(PreparedStatement {
            db,
            dict,
            entry,
            attr_names,
            visible,
            seeds,
            vacuous,
            hit,
        })
    }

    /// Prepares an already-built [`Query`] over this engine's database —
    /// the programmatic twin of [`Engine::prepare`], sharing the same
    /// plan/re-index cache (bench harnesses and embedded callers use
    /// this). Attributes are named by position (`a0`, `a1`, …).
    pub fn prepare_query(&self, query: &Query) -> Result<PreparedStatement, EngineError> {
        let db = self.db();
        let attr_names: Vec<String> = (0..query.n_attrs).map(|a| format!("a{a}")).collect();
        let (entry, hit) = self.entry_for(&db, query, &attr_names)?;
        Ok(PreparedStatement {
            db,
            dict: self.dict(),
            entry,
            visible: vec![true; attr_names.len()],
            attr_names,
            seeds: Vec::new(),
            vacuous: false,
            hit,
        })
    }

    /// One-shot convenience: prepare (against the cache) and execute.
    pub fn execute(&self, text: &str, opts: &ExecOptions) -> Result<StatementResult, EngineError> {
        self.prepare(text)?.execute(opts)
    }

    /// Cache lookup / population for a structural query against one
    /// database snapshot. An entry hits only when the versions of every
    /// relation the shape touches still match `db` — a write to one of
    /// them bumps its version and the stale entry is rebuilt (and
    /// replaced) here; writes to other relations leave it warm.
    fn entry_for(
        &self,
        db: &Arc<Database>,
        query: &Query,
        attr_names: &[String],
    ) -> Result<(Arc<CachedStatement>, bool), EngineError> {
        // Guard stale handles before any indexing: a Query built against
        // a different database must error, not panic.
        if let Some(atom) = query.atoms.iter().find(|a| a.rel.0 >= db.len()) {
            return Err(EngineError::Storage(format!(
                "relation id {} is not in this engine's catalog",
                atom.rel.0
            )));
        }
        let mut rels: Vec<RelId> = query.atoms.iter().map(|a| a.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        let versions: Vec<(RelId, u64)> = rels.into_iter().map(|r| (r, db.version(r))).collect();
        let key = shape_key(query);
        if let Some(entry) = self.cache.read().unwrap().get(&key) {
            if entry.versions == versions {
                return Ok((Arc::clone(entry), true));
            }
        }
        // Plan outside any lock: planning is pure and read-only, so two
        // threads racing on a cold shape at worst both plan — the loser's
        // entry is discarded below, keeping plan identity one-per-shape
        // (per data version).
        let attr_types = self.unify_attr_types(query, attr_names)?;
        let plan = plan(db, query)?;
        let mut cache = self.cache.write().unwrap();
        if let Some(entry) = cache.get(&key) {
            if entry.versions == versions {
                return Ok((Arc::clone(entry), true));
            }
        }
        let id = self.next_plan_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(CachedStatement {
            id,
            query: query.clone(),
            plan,
            exec: OnceLock::new(),
            attr_types,
            versions,
        });
        cache.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Derives each attribute's value type from the columns binding it,
    /// rejecting conflicting bindings.
    fn unify_attr_types(
        &self,
        query: &Query,
        attr_names: &[String],
    ) -> Result<Vec<ColumnType>, EngineError> {
        let mut types: Vec<Option<ColumnType>> = vec![None; query.n_attrs];
        for atom in &query.atoms {
            let schema = &self.schemas[atom.rel.0];
            for (col, &a) in atom.attrs.iter().enumerate() {
                let Some(&ty) = schema.cols.get(col) else {
                    continue; // arity mismatch; plan() reports it properly
                };
                match types.get(a).copied().flatten() {
                    None => {
                        if let Some(slot) = types.get_mut(a) {
                            *slot = Some(ty);
                        }
                    }
                    Some(prev) if prev != ty => {
                        return Err(EngineError::TypeMismatch {
                            attr: attr_names
                                .get(a)
                                .cloned()
                                .unwrap_or_else(|| format!("a{a}")),
                            expected: prev,
                            found: ty,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(types
            .into_iter()
            .map(|t| t.unwrap_or(ColumnType::Int))
            .collect())
    }
}

/// A structural cache key: two query texts with the same atoms over the
/// same relations — whatever the variables are called, whatever constants
/// the literals carry — share one entry.
fn shape_key(query: &Query) -> String {
    use std::fmt::Write;
    let mut key = format!("{}", query.n_attrs);
    for atom in &query.atoms {
        let _ = write!(key, "|{}:{:?}", atom.rel.0, atom.attrs);
    }
    key
}

/// The materialized outcome of [`PreparedStatement::execute`].
#[derive(Debug, Clone)]
pub struct StatementResult {
    /// Output column names (hidden literal positions excluded).
    pub columns: Vec<String>,
    /// Decoded rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution counters, when [`ExecOptions::collect_stats`] was set.
    pub stats: Option<ExecStats>,
    /// Per-shard counters, when the sharded engine ran with stats.
    pub shards: Option<Vec<minesweeper_core::ShardStats>>,
    /// True when a `limit` actually cut materialized rows; a result that
    /// merely equals the limit is complete and not flagged.
    pub truncated: bool,
}

/// The encoded outcome of [`PreparedStatement::materialize`]: what
/// [`StatementResult`] holds before its rows are decoded.
pub(crate) struct RawResult {
    /// Sorted tuples in the query's attribute numbering, hidden literal
    /// positions included.
    pub(crate) tuples: Vec<Tuple>,
    pub(crate) stats: ExecStats,
    pub(crate) shards: Option<Vec<minesweeper_core::ShardStats>>,
    pub(crate) truncated: bool,
}

/// A prepared query handle (see [`Engine::prepare`]): parsing, planning,
/// and any GAO re-indexing are already done and cached; `execute` /
/// `stream` go straight to the probe loop. A statement owns `Arc`
/// snapshots of the database and dictionary taken at prepare time, so any
/// number can be live at once and **later writes never change what a
/// statement returns** — snapshot isolation; re-prepare to observe a new
/// version.
pub struct PreparedStatement {
    /// The database version this statement is bound to.
    db: Arc<Database>,
    /// Dictionary snapshot for decode (append-only, ≥ the db snapshot).
    dict: Arc<Dictionary>,
    entry: Arc<CachedStatement>,
    attr_names: Vec<String>,
    /// `visible[a]` = attribute `a` appears in the caller's output
    /// (literal-bound positions are hidden).
    visible: Vec<bool>,
    /// Equality seeds `(attr, encoded value)` from query literals,
    /// original numbering.
    seeds: Vec<(usize, Val)>,
    /// True when a string literal can never match any stored value in
    /// this statement's snapshot (it was never interned): the statement's
    /// result is empty without running anything.
    vacuous: bool,
    hit: bool,
}

impl PreparedStatement {
    /// Output column names (hidden literal positions excluded).
    pub fn columns(&self) -> Vec<String> {
        self.attr_names
            .iter()
            .zip(&self.visible)
            .filter(|&(_, &v)| v)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// The cached plan.
    pub fn plan(&self) -> &Plan {
        &self.entry.plan
    }

    /// Stable identity of the cached plan: equal ids ⇒ the statements
    /// share one plan and one set of re-indexed relations.
    pub fn plan_id(&self) -> u64 {
        self.entry.id
    }

    /// True when this statement was served from the engine's cache (its
    /// plan and re-indexed relations were built by an earlier prepare).
    pub fn cache_hit(&self) -> bool {
        self.hit
    }

    /// True when every relation this statement touches still carries the
    /// version it was prepared against in `db`. A service holding
    /// statements across requests (the `PREPARE` verb) checks this before
    /// each execution: a statement always answers from its own snapshot
    /// (isolation), so a `false` here means re-preparing is required for
    /// the execution to observe later writes.
    pub fn is_current(&self, db: &Database) -> bool {
        self.entry
            .versions
            .iter()
            .all(|&(rel, version)| db.version(rel) == version)
    }

    /// The worker count `opts` resolves to: `Some(t)` when the sharded
    /// engine will run with `t` workers (explicit `threads`, or
    /// `minesweeper-par`'s hardware default), `None` for serial and
    /// baseline execution. The CLI uses this instead of re-deriving
    /// defaults.
    pub fn effective_threads(&self, opts: &ExecOptions) -> Result<Option<usize>, EngineError> {
        Ok(match self.dispatch(opts)? {
            Dispatch::Parallel(t) => Some(t),
            Dispatch::Serial | Dispatch::Baseline(_) => None,
        })
    }

    /// The evaluator `opts` resolves to, as data: which engine runs, how
    /// many workers, or which registry baseline. The CLI and the server
    /// both branch on this (rather than re-deriving it from flag
    /// combinations), and the server's admission control prices a
    /// request by its [`DispatchKind::worker_cost`].
    pub fn dispatch_kind(&self, opts: &ExecOptions) -> Result<DispatchKind, EngineError> {
        Ok(match self.dispatch(opts)? {
            Dispatch::Serial => DispatchKind::Serial,
            Dispatch::Parallel(t) => DispatchKind::Parallel(t),
            Dispatch::Baseline(a) => DispatchKind::Baseline(a.name().to_string()),
        })
    }

    /// The structured explanation for an execution with `opts`: the
    /// plan's decisions plus attribute/relation names, the shard strategy
    /// (when `opts` selects the parallel engine), and the cache
    /// provenance. Serialize with [`ExplainPlan::to_json`]; render with
    /// [`ExplainPlan::render`].
    ///
    /// The shard strategy is data-dependent, so a parallel explain binds
    /// the statement's execution (building the GAO re-index when the
    /// plan demands one) to inspect the *actual* split. That bind fills
    /// the same per-shape cache a later `execute` reuses — the cost is
    /// paid at most once per query shape, not per explain.
    pub fn explain(&self, opts: &ExecOptions) -> Result<ExplainPlan, EngineError> {
        let dispatch = self.dispatch(opts)?;
        let mut ep = self.entry.plan.explain_plan();
        ep.attr_names = Some(self.attr_names.clone());
        for (atom, ea) in self.entry.query.atoms.iter().zip(ep.atoms.iter_mut()) {
            ea.relation = Some(self.db.relation(atom.rel).name().to_string());
        }
        ep.cache = Some(ExplainCache {
            hit: self.hit,
            plan_id: self.entry.id,
        });
        let (dense, words) = self
            .entry
            .query
            .atoms
            .iter()
            .fold((0u64, 0u64), |(d, w), a| {
                let t = self.db.probe_target(a.rel);
                (d + t.dense_runs(), w + t.words_total())
            });
        ep.storage = Some(ExplainStorage {
            leaf: self.db.leaf_policy().label().to_string(),
            dense_leaves: dense,
            bitset_words: words,
        });
        match dispatch {
            Dispatch::Parallel(threads) => {
                // The split is data-dependent, so the explain inspects
                // the actual tasks the bound execution would run; the
                // bind lands in the shared per-shape cache, so a later
                // execute skips it.
                let specs = self.entry.exec(&self.db).shard_specs(&self.db, threads);
                ep.shards = Some(ExplainShards {
                    threads,
                    tasks: specs.len(),
                    strategy: shard_strategy(&specs, threads).to_string(),
                    merge: minesweeper_core::MERGE_STRATEGY.to_string(),
                    detail: SHARD_DETAIL.to_string(),
                });
            }
            Dispatch::Baseline(algo) => ep.algorithm = algo.name().to_string(),
            Dispatch::Serial => {}
        }
        Ok(ep)
    }

    /// Resolves the evaluator `opts` selects.
    fn dispatch(&self, opts: &ExecOptions) -> Result<Dispatch, EngineError> {
        let threads = if opts.threads > 0 {
            Some(opts.threads)
        } else {
            None
        };
        // Any explicit thread count — including 1 — selects the sharded
        // engine, so callers asking for "the threaded engine, one worker"
        // get real shard accounting rather than a silent serial fallback.
        match opts.algo.as_deref() {
            None => Ok(match threads {
                Some(t) => Dispatch::Parallel(t),
                None => Dispatch::Serial,
            }),
            Some(name) => {
                let algo = lookup_configured(name, threads)
                    .ok_or_else(|| EngineError::UnknownAlgorithm(name.to_string()))?;
                Ok(match algo.name() {
                    // The cached plan paths: the registry entries would
                    // re-plan per call, the cache must not.
                    "minesweeper" => match threads {
                        Some(t) => Dispatch::Parallel(t),
                        None => Dispatch::Serial,
                    },
                    "minesweeper-par" => Dispatch::Parallel(
                        threads.unwrap_or_else(|| MinesweeperPar::default().threads),
                    ),
                    _ => Dispatch::Baseline(algo),
                })
            }
        }
    }

    /// Decodes one stored tuple into the visible, typed output row.
    fn decode_row(&self, t: &[Val]) -> Vec<Value> {
        decode(&self.dict, &self.entry.attr_types, &self.visible, t)
    }

    /// The row writer: writes the visible cells of the encoded tuple `t`
    /// (original numbering) to `out` as one tab-separated, newline-ended
    /// line — the bytes `Value`'s `Display` prints for the row
    /// [`PreparedStatement::execute`] would decode from `t`, without
    /// building it. Strings are resolved from the statement's dictionary
    /// snapshot.
    pub(crate) fn write_row(&self, out: &mut impl Write, t: &[Val]) -> io::Result<()> {
        let mut sep: &[u8] = b"";
        for cell in visible_cells(&self.dict, &self.entry.attr_types, &self.visible, t) {
            out.write_all(sep)?;
            match cell {
                // Integer cells skip the formatting machinery: on the
                // `paths` benchmark (2 vCPUs) `write!` cost ~7% more per
                // request.
                Cell::Int(v) => write_int(out, v)?,
                other => write!(out, "{other}")?,
            }
            sep = b"\t";
        }
        out.write_all(b"\n")
    }

    /// Runs a registry baseline. Baselines evaluate the unconstrained
    /// shape, so the literal seeds are applied here as a filter, and
    /// `outputs` counts the rows that pass it.
    fn run_baseline(
        &self,
        algo: &dyn minesweeper_core::Algorithm,
    ) -> Result<(Vec<Tuple>, ExecStats), EngineError> {
        let res = algo.run(&self.db, &self.entry.query)?;
        let tuples: Vec<Tuple> = res
            .tuples
            .into_iter()
            .filter(|t| self.seeds.iter().all(|&(a, v)| t[a] == v))
            .collect();
        let mut stats = res.stats;
        stats.outputs = tuples.len() as u64;
        Ok((tuples, stats))
    }

    /// Runs the statement to completion (modulo `limit`) and decodes the
    /// result. Rows are sorted lexicographically in the query's attribute
    /// order — for every evaluator, so results are directly comparable
    /// across `algo` choices.
    pub fn execute(&self, opts: &ExecOptions) -> Result<StatementResult, EngineError> {
        let raw = self.materialize(opts)?;
        Ok(StatementResult {
            columns: self.columns(),
            rows: raw.tuples.iter().map(|t| self.decode_row(t)).collect(),
            stats: opts.collect_stats.then_some(raw.stats),
            shards: if opts.collect_stats { raw.shards } else { None },
            truncated: raw.truncated,
        })
    }

    /// The raw half of [`PreparedStatement::execute`]: the same tuples in
    /// the same order, still encoded (original numbering, sorted). The
    /// row writer renders them without decoding to [`Value`]s.
    pub(crate) fn materialize(&self, opts: &ExecOptions) -> Result<RawResult, EngineError> {
        let entry = &self.entry;
        let db = &self.db;
        if deadline_expired(opts.deadline) {
            return Err(EngineError::DeadlineExceeded);
        }
        if self.vacuous {
            let _ = self.dispatch(opts)?; // still surface unknown-algo errors
            return Ok(RawResult {
                tuples: Vec::new(),
                stats: ExecStats::new(),
                shards: None,
                truncated: false,
            });
        }
        let (tuples, stats, shards, truncated) = match self.dispatch(opts)? {
            Dispatch::Serial => match opts.limit {
                None if opts.deadline.is_none() => {
                    let exec = entry.exec(db).execute_seeded(db, &self.seeds);
                    (exec.result.tuples, exec.result.stats, None, false)
                }
                None => {
                    // Deadline-aware materialization: collect from the
                    // lazy stream (checking the clock between tuples) and
                    // sort — the same set of tuples `execute_seeded`
                    // materializes, in the same final order, but it can
                    // stop mid-probe instead of running to completion.
                    let mut stream = entry.exec(db).stream_seeded(db, &self.seeds);
                    let mut tuples: Vec<Tuple> = Vec::new();
                    loop {
                        if deadline_expired(opts.deadline) {
                            return Err(EngineError::DeadlineExceeded);
                        }
                        match stream.next() {
                            Some(t) => tuples.push(t),
                            None => break,
                        }
                    }
                    let stats = stream.stats();
                    tuples.sort_unstable();
                    (tuples, stats, None, false)
                }
                Some(k) => {
                    // Limit pushdown: the probe loop stops after k
                    // certified tuples (plus one peek for the truncation
                    // flag); the suffix's certificate work is never paid.
                    // Stats are snapshotted before the peek so they
                    // reflect only the shown prefix.
                    let mut stream = entry.exec(db).stream_seeded(db, &self.seeds);
                    let mut tuples: Vec<Tuple> = Vec::with_capacity(k.min(1 << 12));
                    while tuples.len() < k {
                        if deadline_expired(opts.deadline) {
                            return Err(EngineError::DeadlineExceeded);
                        }
                        match stream.next() {
                            Some(t) => tuples.push(t),
                            None => break,
                        }
                    }
                    let stats = stream.stats();
                    let truncated = stream.next().is_some();
                    tuples.sort_unstable();
                    (tuples, stats, None, truncated)
                }
            },
            Dispatch::Parallel(threads) if opts.deadline.is_none() => {
                let sharded =
                    entry
                        .exec(db)
                        .execute_parallel_seeded(db, threads, opts.limit, &self.seeds);
                let truncated = sharded.truncated;
                (
                    sharded.result.tuples,
                    sharded.result.stats,
                    Some(sharded.shards),
                    truncated,
                )
            }
            Dispatch::Parallel(threads) => {
                // Deadline-aware parallel materialization through the
                // global-order merge; on expiry the early return drops
                // the sharded stream, which cancels queued and in-flight
                // shard tasks exactly like a client disconnect.
                let mut stream =
                    entry
                        .exec(db)
                        .stream_parallel_seeded(db, threads, opts.limit, &self.seeds);
                let cap = opts.limit.unwrap_or(usize::MAX);
                let mut tuples: Vec<Tuple> = Vec::new();
                while tuples.len() < cap {
                    if deadline_expired(opts.deadline) {
                        return Err(EngineError::DeadlineExceeded);
                    }
                    match stream.next() {
                        Some(t) => tuples.push(t),
                        None => break,
                    }
                }
                let truncated = opts.limit.is_some_and(|k| tuples.len() == k) && stream.truncated();
                let report = stream.finish();
                tuples.sort_unstable();
                (tuples, report.stats, Some(report.shards), truncated)
            }
            Dispatch::Baseline(algo) => {
                let (mut tuples, stats) = self.run_baseline(algo.as_ref())?;
                // Baselines are all-at-once evaluators with no yield
                // points; the deadline is honoured at completion.
                if deadline_expired(opts.deadline) {
                    return Err(EngineError::DeadlineExceeded);
                }
                let total = tuples.len();
                if let Some(k) = opts.limit {
                    tuples.truncate(k);
                }
                let truncated = total > tuples.len();
                (tuples, stats, None, truncated)
            }
        };
        Ok(RawResult {
            tuples,
            stats,
            shards,
            truncated,
        })
    }

    /// Opens a row stream over the statement.
    ///
    /// With the serial Minesweeper engine the stream is **lazy**: rows
    /// are yielded as the probe loop certifies them (global attribute
    /// order), and dropping the stream early skips the remaining
    /// certificate work. With the parallel engine the stream is
    /// **incremental**: shard tasks run on background workers feeding
    /// bounded channels into a global-order heap merge, rows arrive
    /// **byte-identical to the serial stream's sequence** (re-indexed
    /// GAO or not), and dropping the stream cancels queued and in-flight
    /// shards — `--limit` and `--threads` compose exactly. Baselines
    /// materialize eagerly and the stream then yields the rows. Either
    /// way `opts.limit` caps the yielded rows.
    pub fn stream(&self, opts: &ExecOptions) -> Result<StatementStream<'_>, EngineError> {
        let inner = if self.vacuous {
            let _ = self.dispatch(opts)?;
            StreamInner::Materialized(Vec::new().into_iter(), ExecStats::new())
        } else {
            match self.dispatch(opts)? {
                Dispatch::Serial => StreamInner::Lazy(Box::new(
                    self.entry
                        .exec(&self.db)
                        .stream_seeded(&self.db, &self.seeds),
                )),
                Dispatch::Parallel(threads) => {
                    StreamInner::Sharded(self.entry.exec(&self.db).stream_parallel_seeded(
                        &self.db,
                        threads,
                        opts.limit,
                        &self.seeds,
                    ))
                }
                Dispatch::Baseline(algo) => {
                    let (tuples, stats) = self.run_baseline(algo.as_ref())?;
                    StreamInner::Materialized(tuples.into_iter(), stats)
                }
            }
        };
        Ok(StatementStream {
            dict: Arc::clone(&self.dict),
            entry: Arc::clone(&self.entry),
            visible: self.visible.clone(),
            src: RawSource {
                inner,
                current: Tuple::new(),
                remaining: opts.limit.unwrap_or(usize::MAX),
                deadline: opts.deadline,
                expired: false,
            },
        })
    }
}

/// One visible cell of an encoded tuple, as every output form shows it:
/// an integer, a string resolved from the dictionary snapshot, or `#id`
/// for a string id the snapshot lacks.
enum Cell<'d> {
    Int(Val),
    Str(&'d str),
    UnknownStr(Val),
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => fmt::Display::fmt(v, f),
            Cell::Str(s) => f.write_str(s),
            Cell::UnknownStr(id) => write!(f, "#{id}"),
        }
    }
}

/// The visible cells of the encoded tuple `t` (original numbering), in
/// column order — the one definition behind both [`decode`] and the row
/// writer ([`PreparedStatement::write_row`]).
fn visible_cells<'a>(
    dict: &'a Dictionary,
    attr_types: &'a [ColumnType],
    visible: &'a [bool],
    t: &'a [Val],
) -> impl Iterator<Item = Cell<'a>> + 'a {
    t.iter()
        .zip(attr_types)
        .zip(visible)
        .filter(|&(_, &visible)| visible)
        .map(|((&v, ty), _)| match ty {
            ColumnType::Int => Cell::Int(v),
            ColumnType::Str => dict.resolve(v).map_or(Cell::UnknownStr(v), Cell::Str),
        })
}

/// Shared row decode used by statements and streams.
fn decode(dict: &Dictionary, attr_types: &[ColumnType], visible: &[bool], t: &[Val]) -> Vec<Value> {
    visible_cells(dict, attr_types, visible, t)
        .map(|cell| match cell {
            Cell::Int(v) => Value::Int(v),
            other => Value::Str(other.to_string()),
        })
        .collect()
}

/// Writes `v` in decimal, as `Display` does, from a stack buffer.
fn write_int(out: &mut impl Write, v: Val) -> io::Result<()> {
    let mut buf = [0u8; 20]; // "-9223372036854775808" is 20 bytes
    let mut at = buf.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_all(&buf[at..])
}

/// The evaluator an [`ExecOptions`] resolves to.
enum Dispatch {
    Serial,
    Parallel(usize),
    Baseline(Box<dyn minesweeper_core::Algorithm>),
}

/// The public form of the dispatch decision (see
/// [`PreparedStatement::dispatch_kind`]): which evaluator an
/// [`ExecOptions`] selects for a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchKind {
    /// The serial Minesweeper probe loop on the cached plan.
    Serial,
    /// The sharded parallel engine with this many workers.
    Parallel(usize),
    /// A registry baseline, by canonical name.
    Baseline(String),
}

impl DispatchKind {
    /// How many pool workers the request occupies while it runs — what
    /// the server's admission control debits from its global budget. A
    /// serial or baseline execution costs one worker; a parallel one
    /// costs its thread count.
    pub fn worker_cost(&self) -> usize {
        match self {
            DispatchKind::Parallel(t) => (*t).max(1),
            DispatchKind::Serial | DispatchKind::Baseline(_) => 1,
        }
    }
}

enum StreamInner<'e> {
    /// Boxed: the probe loop's buffers make it the largest variant.
    Lazy(Box<minesweeper_core::TupleStream<'e>>),
    Sharded(minesweeper_core::ShardedStream),
    Materialized(std::vec::IntoIter<Tuple>, ExecStats),
}

/// A row stream (see [`PreparedStatement::stream`]) of decoded rows via
/// the `Iterator` impl; the crate's row writer reads the encoded tuples
/// underneath instead. The lifetime ties lazy serial streams to the statement's database
/// snapshot; the dictionary snapshot is owned, so decoding never takes a
/// lock.
pub struct StatementStream<'e> {
    dict: Arc<Dictionary>,
    entry: Arc<CachedStatement>,
    visible: Vec<bool>,
    src: RawSource<'e>,
}

/// The encoded tuples behind a [`StatementStream`], apart from its decode
/// state so a decoded row can borrow both.
struct RawSource<'e> {
    inner: StreamInner<'e>,
    /// The last tuple taken from an owning source (the sharded merge,
    /// a materialized baseline), lent out by [`RawSource::next`].
    current: Tuple,
    remaining: usize,
    /// Clock bound from [`ExecOptions::deadline`], checked before every
    /// yield; once it passes, the stream reports exhaustion and
    /// [`StatementStream::deadline_expired`] turns true.
    deadline: Option<Instant>,
    expired: bool,
}

impl RawSource<'_> {
    /// See `StatementStream::next_raw`.
    fn next(&mut self) -> Option<&[Val]> {
        if self.remaining == 0 || self.expired {
            return None;
        }
        if deadline_expired(self.deadline) {
            // The underlying stream is simply never pulled again; when
            // it drops (or `finish` consumes it), queued and in-flight
            // shard work is cancelled — the disconnect path's machinery,
            // triggered by the clock instead of a failed write.
            self.expired = true;
            return None;
        }
        self.remaining -= 1;
        match &mut self.inner {
            StreamInner::Lazy(s) => s.next_tuple(),
            StreamInner::Sharded(s) => {
                self.current = s.next()?;
                Some(&self.current)
            }
            StreamInner::Materialized(it, _) => {
                self.current = it.next()?;
                Some(&self.current)
            }
        }
    }
}

impl StatementStream<'_> {
    /// Execution counters so far (live mid-stream on the lazy path; the
    /// sum over finished shards on the parallel path — use
    /// [`StatementStream::finish`] for final, stable parallel counters;
    /// complete from the start on materialized paths).
    pub fn stats(&self) -> ExecStats {
        match &self.src.inner {
            StreamInner::Lazy(s) => s.stats(),
            StreamInner::Sharded(s) => s.stats(),
            StreamInner::Materialized(_, stats) => stats.clone(),
        }
    }

    /// The next tuple, still encoded (original numbering, hidden literal
    /// positions included) and borrowed until the following call: the
    /// raw form the row writer renders, and what the decoding
    /// [`Iterator`] impl builds [`Value`] rows from. Honours `limit` and
    /// the deadline exactly like `next`.
    pub(crate) fn next_raw(&mut self) -> Option<&[Val]> {
        self.src.next()
    }

    /// True when the stream stopped because its deadline passed rather
    /// than because the result (or its `limit`) was exhausted. Callers
    /// that saw `next()` return `None` branch on this to tell a complete
    /// body from a cancelled one.
    pub fn deadline_expired(&self) -> bool {
        self.src.expired
    }

    /// After the stream has yielded its `limit` rows, reports whether at
    /// least one more row existed — the truthfulness check behind the
    /// CLI's truncation marker. Bypasses the limit to probe exactly one
    /// tuple further (parallel workers emit one tuple of truncation
    /// evidence beyond the cap for exactly this call).
    pub fn truncated(&mut self) -> bool {
        match &mut self.src.inner {
            StreamInner::Lazy(s) => s.next().is_some(),
            StreamInner::Sharded(s) => s.truncated(),
            StreamInner::Materialized(it, _) => it.next().is_some(),
        }
    }

    /// Consumes the stream and returns final counters: on the parallel
    /// path this cancels outstanding shard work, joins the workers, and
    /// returns the complete per-shard breakdown; other paths return
    /// their counters with no shard list.
    pub fn finish(self) -> (ExecStats, Option<Vec<minesweeper_core::ShardStats>>) {
        match self.src.inner {
            StreamInner::Lazy(s) => (s.stats(), None),
            StreamInner::Sharded(s) => {
                let report = s.finish();
                (report.stats, Some(report.shards))
            }
            StreamInner::Materialized(_, stats) => (stats, None),
        }
    }
}

impl Iterator for StatementStream<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        let t = self.src.next()?;
        Some(decode(&self.dict, &self.entry.attr_types, &self.visible, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights_engine() -> Engine {
        let mut e = Engine::new();
        e.add_relation(
            "F",
            &[ColumnType::Str, ColumnType::Str],
            [
                vec![Value::from("jfk"), Value::from("lhr")],
                vec![Value::from("lhr"), Value::from("nrt")],
                vec![Value::from("sfo"), Value::from("jfk")],
                vec![Value::from("jfk"), Value::from("nrt")],
            ],
        )
        .unwrap();
        e
    }

    #[test]
    fn write_int_matches_display() {
        for v in [
            0,
            7,
            -7,
            10,
            -10,
            99,
            -100,
            1 << 40,
            Val::MAX,
            Val::MIN,
            Val::MIN + 1,
        ] {
            let mut buf = Vec::new();
            write_int(&mut buf, v).unwrap();
            assert_eq!(String::from_utf8(buf).unwrap(), v.to_string());
        }
    }

    #[test]
    fn string_join_round_trips() {
        let e = flights_engine();
        let stmt = e.prepare("F(a, b), F(b, c)").unwrap();
        assert!(!stmt.cache_hit());
        let res = stmt.execute(&ExecOptions::default()).unwrap();
        assert_eq!(res.columns, vec!["a", "b", "c"]);
        let rows: Vec<Vec<&str>> = res
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.as_str().unwrap()).collect())
            .collect();
        assert!(rows.contains(&vec!["jfk", "lhr", "nrt"]));
        assert!(rows.contains(&vec!["sfo", "jfk", "lhr"]));
        assert!(rows.contains(&vec!["sfo", "jfk", "nrt"]));
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn repeat_prepare_hits_the_cache_with_stable_identity() {
        let e = flights_engine();
        let first = e.prepare("F(a, b), F(b, c)").unwrap();
        assert!(!first.cache_hit());
        let id0 = first.plan_id();
        // Different variable names, same shape: cache hit, same plan —
        // and both statements are alive at once.
        let stmt = e.prepare("F(x, y), F(y, z)").unwrap();
        assert!(stmt.cache_hit());
        assert_eq!(stmt.plan_id(), id0);
        assert_eq!(stmt.columns(), vec!["x", "y", "z"]);
        let ep = stmt.explain(&ExecOptions::default()).unwrap();
        assert_eq!(
            ep.cache,
            Some(ExplainCache {
                hit: true,
                plan_id: id0
            })
        );
        assert_eq!(
            first.execute(&ExecOptions::default()).unwrap().rows,
            stmt.execute(&ExecOptions::default()).unwrap().rows
        );
    }

    #[test]
    fn literal_values_share_one_cache_entry() {
        let e = flights_engine();
        let to_nrt = e.prepare("F(a, \"nrt\")").unwrap();
        let to_lhr = e.prepare("F(a, \"lhr\")").unwrap();
        let plain = e.prepare("F(a, b)").unwrap();
        // One shape, one plan — the literal is a per-statement seed.
        assert_eq!(to_nrt.plan_id(), to_lhr.plan_id());
        assert_eq!(to_nrt.plan_id(), plain.plan_id());
        assert!(to_lhr.cache_hit() && plain.cache_hit());
        let nrt = to_nrt.execute(&ExecOptions::default()).unwrap();
        assert_eq!(
            nrt.rows,
            vec![vec![Value::from("jfk")], vec![Value::from("lhr")]]
        );
        let lhr = to_lhr.execute(&ExecOptions::default()).unwrap();
        assert_eq!(lhr.rows, vec![vec![Value::from("jfk")]]);
        assert_eq!(
            plain.execute(&ExecOptions::default()).unwrap().rows.len(),
            4
        );
    }

    #[test]
    fn literals_constrain_and_are_hidden() {
        let e = flights_engine();
        let stmt = e.prepare("F(a, \"nrt\")").unwrap();
        assert_eq!(stmt.columns(), vec!["a"]);
        let res = stmt.execute(&ExecOptions::default()).unwrap();
        assert_eq!(
            res.rows,
            vec![vec![Value::from("jfk")], vec![Value::from("lhr")]]
        );
        // A literal that appears in no data row matches nothing — and
        // leaves no trace in the catalog or dictionary.
        let rels = e.db().len();
        let words = e.dict().len();
        let none = e
            .prepare("F(a, \"never-seen\")")
            .unwrap()
            .execute(&ExecOptions::default())
            .unwrap();
        assert!(none.rows.is_empty());
        assert_eq!(e.db().len(), rels, "no literal relations created");
        assert_eq!(e.dict().len(), words, "no literal interning");
    }

    #[test]
    fn int_literal_and_type_checks() {
        let mut e = Engine::new();
        e.add_relation(
            "R",
            &[ColumnType::Int, ColumnType::Str],
            [
                vec![Value::Int(1), Value::from("one")],
                vec![Value::Int(2), Value::from("two")],
            ],
        )
        .unwrap();
        let res = e
            .prepare("R(2, name)")
            .unwrap()
            .execute(&ExecOptions::default())
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::from("two")]]);
        // Binding a string literal into the int column is a type error.
        assert!(matches!(
            e.prepare("R(\"x\", name)"),
            Err(EngineError::TypeMismatch { .. })
        ));
        // And an int literal into the string column likewise.
        assert!(matches!(
            e.prepare("R(x, 7)"),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn baseline_dispatch_never_builds_the_reindex() {
        // A shape whose written order is not a NEO: the Minesweeper path
        // must re-index, but a baseline runs on the stored indexes, so
        // the expensive bind must stay unbuilt until a planner path asks.
        let mut e = Engine::new();
        e.load_tsv("R", "1 2\n3 4\n").unwrap();
        e.load_tsv("S", "5 2\n6 4\n").unwrap();
        let stmt = e.prepare("R(a, c), S(b, c)").unwrap();
        assert!(stmt.plan().is_reindexed());
        assert!(stmt.entry.exec.get().is_none(), "lazy until needed");
        let base = stmt
            .execute(&ExecOptions::default().with_algo("naive"))
            .unwrap();
        assert!(
            stmt.entry.exec.get().is_none(),
            "baseline dispatch skips the physical re-index"
        );
        let ms = stmt.execute(&ExecOptions::default()).unwrap();
        assert!(stmt.entry.exec.get().is_some(), "built on first use");
        assert_eq!(base.rows, ms.rows);
    }

    #[test]
    fn row_arity_reported_distinctly() {
        let mut e = Engine::new();
        let err = e
            .add_relation(
                "R",
                &[ColumnType::Int, ColumnType::Int],
                [vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::RowArity {
                    expected: 2,
                    got: 3,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("3 cells"), "{err}");
    }

    #[test]
    fn value_type_checked_at_load() {
        let mut e = Engine::new();
        let err = e
            .add_relation("R", &[ColumnType::Int], [vec![Value::from("not-an-int")]])
            .unwrap_err();
        assert!(matches!(err, EngineError::ValueType { column: 0, .. }));
    }

    #[test]
    fn unknown_algo_reported() {
        let e = flights_engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let err = stmt
            .execute(&ExecOptions::default().with_algo("quantum"))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownAlgorithm(_)));
        assert_eq!(
            stmt.effective_threads(&ExecOptions::default().with_algo("minesweeper-par"))
                .unwrap()
                .map(|t| t >= 1),
            Some(true),
            "minesweeper-par resolves to a concrete worker count"
        );
    }
}
