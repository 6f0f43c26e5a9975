//! Layer-by-layer replay of one SELECT through the engine's public
//! functions: `parse_statement` → `Binder::bind_select` → `rewrite` →
//! `compile` → `optimise` → `Interpreter::run_traced` over the stored
//! BATs → result shaping → wire encode → client decode. Each step is
//! timed here, and the interpreter's per-instruction spans give the
//! kernel (`gdk`) split. The replay's `ResultSet` must equal the one the
//! public call returned; the traced run checks that for every replay.

use crate::spans::SpanLog;
use sciql_repro::algebra::{compile, rewrite, Binder, CodegenOptions, ColInfo};
use sciql_repro::gdk::{Bat, Value};
use sciql_repro::mal::{
    self, Binder as MalBinder, ExecStats, Interpreter, MalValue, OptConfig, Program, Registry,
};
use sciql_repro::obs::{SpanId, Tracer};
use sciql_repro::parser::ast::{InsertSource, SelectStmt, Stmt};
use sciql_repro::parser::parse_statement;
use sciql_repro::sciql::result::ResultSetBuilder;
use sciql_repro::sciql::{ColumnMeta, Connection, ResultSet, SessionConfig};
use std::sync::Arc;
use std::time::Instant;

/// Rows per wire page and the soft page byte bound, as the server uses.
const PAGE_ROWS: usize = sciql_repro::net::proto::PAGE_ROWS;
const PAGE_BYTES: usize = 1 << 20;

/// A SELECT compiled once, as a prepared statement's cached plan is.
pub struct Compiled {
    prog: Program,
    schema: Vec<ColInfo>,
}

/// What one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub rs: Option<ResultSet>,
    pub stats: ExecStats,
    /// `(phase, ns)` for the front-end phases that ran (none for a
    /// prepared statement's cached plan).
    pub phases: Vec<(&'static str, u64)>,
    pub exec_ns: u64,
    pub result_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub codegen_instrs: usize,
    pub opt_instrs: usize,
    pub wire_bytes: usize,
    /// Per executed instruction: primitive, self ns, tuples processed.
    pub instrs: Vec<(String, u64, u64)>,
    /// Whether encode and decode are on the replayed call's path.
    pub wire: bool,
}

impl Replay {
    /// The time the replayed layers took, as [`Layers::record`] lays it
    /// out: every timed phase, without the replay's own bookkeeping.
    pub fn laid_ns(&self) -> u64 {
        let phases: u64 = self.phases.iter().map(|&(_, ns)| ns).sum();
        let codec = if self.wire {
            self.encode_ns + self.decode_ns
        } else {
            0
        };
        phases + self.exec_ns + self.result_ns + codec
    }
}

/// The engine's compile pipeline, configured like a session.
pub struct Layers {
    registry: Registry,
    codegen: CodegenOptions,
    opt: OptConfig,
}

/// Resolves `sql.bind` against a connection's stored arrays and tables.
struct StoreBinder<'a>(&'a Connection);

impl MalBinder for StoreBinder<'_> {
    fn bind(&self, object: &str, column: &str) -> mal::Result<MalValue> {
        if let Ok(a) = self.0.array_store(object) {
            let col = a
                .def
                .dim_index(column)
                .map(|k| a.dims[k].clone())
                .or_else(|| a.def.attr_index(column).map(|k| a.attrs[k].clone()));
            return col
                .map(MalValue::Bat)
                .ok_or_else(|| mal::MalError::msg(format!("{object} has no column {column}")));
        }
        let t = self
            .0
            .table_store(object)
            .map_err(|e| mal::MalError::msg(e.to_string()))?;
        t.def
            .column_index(column)
            .map(|k| MalValue::Bat(t.cols[k].clone()))
            .ok_or_else(|| mal::MalError::msg(format!("{object} has no column {column}")))
    }
}

/// The SELECT a statement runs: itself, or the source of an
/// `INSERT … SELECT`.
pub fn select_of(stmt: &Stmt) -> Option<&SelectStmt> {
    match stmt {
        Stmt::Select(s) => Some(s),
        Stmt::Insert {
            source: InsertSource::Select(s),
            ..
        } => Some(s),
        _ => None,
    }
}

/// Wire encoding of a result: header then pages, as the server sends it.
pub fn encode(rs: &ResultSet) -> Vec<Vec<u8>> {
    let mut frames = vec![rs.encode_header()];
    frames.extend(rs.pages(PAGE_ROWS, PAGE_BYTES));
    frames
}

/// Do two results have the same wire bytes?
pub fn same_bytes(a: &ResultSet, b: &ResultSet) -> bool {
    encode(a) == encode(b)
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Layers {
    pub fn new(cfg: SessionConfig) -> Layers {
        let codegen = CodegenOptions {
            threads: cfg.threads.max(1),
            parallel_threshold: cfg.parallel_threshold,
            zone_skip: cfg.zone_skip,
            opt_level: cfg.opt_level,
            ..CodegenOptions::default()
        };
        Layers {
            registry: mal::prims::default_registry(),
            codegen,
            opt: OptConfig::level(cfg.opt_level),
        }
    }

    /// Bind, rewrite, compile and optimise `sql` against `conn`'s catalog.
    pub fn compile(&self, conn: &Connection, sql: &str) -> Result<Compiled, String> {
        let stmt = parse_statement(sql).map_err(|e| e.to_string())?;
        let sel = select_of(&stmt).ok_or("not a SELECT")?;
        let plan = rewrite(
            Binder::new(conn.catalog())
                .bind_select(sel)
                .map_err(|e| e.to_string())?,
        );
        let mut prog = compile(&plan, &self.codegen).map_err(|e| e.to_string())?;
        mal::optimise(&mut prog, &self.registry, self.opt);
        Ok(Compiled {
            prog,
            schema: plan.schema(),
        })
    }

    /// Replay `sql` (or, with `cached`, a prepared plan with `params`)
    /// against `conn`, timing every layer. The result is also encoded and
    /// decoded as it would cross the network; `wire` says whether the call
    /// being explained pays for that.
    pub fn replay(
        &self,
        conn: &Connection,
        sql: &str,
        cached: Option<&Compiled>,
        params: &[Value],
        wire: bool,
    ) -> Result<Replay, String> {
        let mut out = Replay {
            wire,
            ..Replay::default()
        };
        let owned;
        let compiled = match cached {
            Some(c) => c,
            None => {
                let t = Instant::now();
                let stmt = parse_statement(sql).map_err(|e| e.to_string())?;
                out.phases.push(("parse", ns_since(t)));
                let sel = select_of(&stmt).ok_or("not a SELECT")?;
                let t = Instant::now();
                let bound = Binder::new(conn.catalog())
                    .bind_select(sel)
                    .map_err(|e| e.to_string())?;
                out.phases.push(("bind", ns_since(t)));
                let t = Instant::now();
                let plan = rewrite(bound);
                out.phases.push(("rewrite", ns_since(t)));
                let t = Instant::now();
                let mut prog = compile(&plan, &self.codegen).map_err(|e| e.to_string())?;
                out.phases.push(("codegen", ns_since(t)));
                out.codegen_instrs = prog.instrs.len();
                let t = Instant::now();
                mal::optimise(&mut prog, &self.registry, self.opt);
                out.phases.push(("optimize", ns_since(t)));
                out.opt_instrs = prog.instrs.len();
                owned = Compiled {
                    prog,
                    schema: plan.schema(),
                };
                &owned
            }
        };

        let binder = StoreBinder(conn);
        let interp = Interpreter::with_config(&self.registry, &binder, self.codegen.par_config());
        let mut tracer = Tracer::on("replay");
        let t = Instant::now();
        let ran = interp.run_traced(&compiled.prog, params, &mut tracer, SpanId::ROOT);
        out.exec_ns = ns_since(t);
        let (outs, stats) = ran.map_err(|e| e.to_string())?;
        if let Some(trace) = tracer.finish() {
            // A kernel's work is the larger of the BATs it reads and the
            // BATs it writes: a selection over 64k rows that keeps one
            // still touched 64k tuples. Inputs are sized by the output
            // of the instruction that produced each argument.
            let mut produced = vec![0u64; compiled.prog.vars.len()];
            let spans = trace.spans().iter().filter(|s| s.parent == Some(0));
            for (ins, s) in compiled.prog.instrs.iter().zip(spans) {
                let out_tuples = s
                    .notes
                    .iter()
                    .find(|(k, _)| *k == "tuples")
                    .map_or(0, |&(_, v)| v);
                let in_tuples = ins
                    .args
                    .iter()
                    .filter_map(|a| match a {
                        mal::Arg::Var(v) => produced.get(*v).copied(),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0);
                for &v in &ins.results {
                    produced[v] = out_tuples;
                }
                out.instrs
                    .push((ins.qualified(), s.dur_ns, out_tuples.max(in_tuples)));
            }
        }
        out.stats = stats;

        let t = Instant::now();
        let mut columns = Vec::with_capacity(compiled.schema.len());
        let mut bats: Vec<Arc<Bat>> = Vec::with_capacity(compiled.schema.len());
        for ((label, val), info) in outs.into_iter().zip(&compiled.schema) {
            let b = match val {
                MalValue::Bat(b) => b,
                MalValue::Scalar(v) => {
                    let ty = v.scalar_type().unwrap_or(info.ty);
                    let mut nb = Bat::with_capacity(ty, 1);
                    nb.push(&v).map_err(|e| e.to_string())?;
                    Arc::new(nb)
                }
                other => return Err(format!("result column {label} is a {}", other.kind())),
            };
            columns.push(ColumnMeta {
                name: label,
                ty: b.tail_type(),
                dimensional: info.dimensional,
            });
            bats.push(b);
        }
        let rs = ResultSet { columns, bats };
        out.result_ns = ns_since(t);

        let t = Instant::now();
        let frames = encode(&rs);
        out.encode_ns = ns_since(t);
        out.wire_bytes = frames.iter().map(Vec::len).sum();
        let t = Instant::now();
        let mut b = ResultSetBuilder::from_header(&frames[0]).map_err(|e| e.to_string())?;
        for page in &frames[1..] {
            b.push_page(page).map_err(|e| e.to_string())?;
        }
        let decoded = b.finish();
        out.decode_ns = ns_since(t);
        if !same_bytes(&decoded, &rs) {
            return Err("decoded result differs from the encoded one".into());
        }
        out.rs = Some(rs);
        Ok(out)
    }

    /// Lay a replay's spans under the public call's root span `root`
    /// (which started at `root_start_ns`), in execution order, each
    /// duration multiplied by `scale`. The replay ran right after the call
    /// on the same inputs; laid over the call's interval at scale 1, what
    /// the layers do not explain (transport, session) is the root's self
    /// time.
    pub fn record(
        log: &mut SpanLog,
        req: u64,
        root: usize,
        root_start_ns: u64,
        r: &Replay,
        scale: f64,
    ) {
        let d = |ns: u64| (ns as f64 * scale) as u64;
        let mut at = root_start_ns;
        for &(name, ns) in &r.phases {
            log.push(req, Some(root), name, at, at + d(ns));
            at += d(ns);
        }
        let exec = log.push(req, Some(root), "exec", at, at + d(r.exec_ns));
        let mut i_at = at;
        for (prim, ns, _) in &r.instrs {
            log.push(
                req,
                Some(exec),
                format!("kernel:{prim}"),
                i_at,
                i_at + d(*ns),
            );
            i_at += d(*ns);
        }
        at += d(r.exec_ns);
        log.push(req, Some(root), "result", at, at + d(r.result_ns));
        at += d(r.result_ns);
        if r.wire {
            log.push(req, Some(root), "encode", at, at + d(r.encode_ns));
            at += d(r.encode_ns);
            log.push(req, Some(root), "decode", at, at + d(r.decode_ns));
        }
    }
}

/// The fold key of a span name: `layer.component`.
pub fn component_of(name: &str) -> String {
    let c = match name {
        "parse" => "parser.parse",
        "bind" => "algebra.bind",
        "rewrite" => "algebra.rewrite",
        "codegen" => "algebra.codegen",
        "optimize" => "mal.optimize",
        "exec" | "kernel:sql.bind" => "mal.exec",
        "result" => "core.result",
        "encode" | "decode" => "core.codec",
        "call:mem" => "core.session",
        "call:mem:dml" => "core.dml",
        "call:tcp" => "net.transport",
        "net.rtt" => "net.rtt",
        "server.dml" => "core.dml",
        "server.select" => "core.select",
        "fsync" => "store.fsync",
        "write" => "store.commit_wait",
        "read" => "repl.wait",
        other => {
            return match other.strip_prefix("kernel:") {
                Some(prim) => format!("gdk.{prim}"),
                None => format!("other.{other}"),
            }
        }
    };
    c.to_string()
}
