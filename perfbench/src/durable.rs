//! `durable_writes`: a primary over a file vault with group commit, plus
//! one live replica, each in its own process. Two open-loop connections
//! at fixed rates: a writer to the primary (single-cell `UPDATE`s on a
//! 256² array, single-row `INSERT`s into a log table, and every
//! [`COPY_EVERY`]th operation a 1024-row binary `COPY`), and a reader to
//! the replica that reads back the most recently acknowledged key with
//! the writer's WAL token (read-your-writes). Latency runs from each
//! operation's due time. Time goes to WAL append and fsync, the group
//! committer, and shipping and applying on the replica; queries are
//! trivial.

use crate::openloop::{account, send_time, wait_until, Schedule};
use crate::replay::{same_bytes, Layers};
use crate::report::{
    counter_delta, latency_metrics, mean, metric, plan_cache_hit_ratio, share_table, LayerAgg,
    Metric, RunResult,
};
use crate::spans::SpanLog;
use crate::stats::{interquartile_mean, tail_per_mille, Summary, UNCAPPED};
use crate::util::{self, Rng, ServerProc};
use crate::Args;
use sciql_repro::driver::Sciql;
use sciql_repro::gdk::Bat;
use sciql_repro::net::{Client, NetError, WalToken};
use sciql_repro::obs::{HistogramSnapshot, MetricsSnapshot};
use sciql_repro::sciql::{write_copy_binary, Connection, ResultSet, SessionConfig, SharedEngine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const GRID: usize = 256;
/// Writer operations per second. A single-cell UPDATE of the 256² grid
/// takes 3 ms on a quiet 2-vCPU host and 10 ms when the shared host runs
/// slow; at 50/s an UPDATE is done before the next write is due, so the
/// INSERTs behind it do not queue. At 100/s and above they did, and the
/// latency median of a run moved with the host's load several-fold.
const WRITE_RATE: f64 = 50.0;
/// Reader operations per second against the replica. Each read waits for
/// the primary's shipping loop (it polls its replica link every 50 ms),
/// so one connection serves fewer than 20 a second without queueing.
/// Most reads take longer than an INSERT, so they count against the
/// median of all statements; at 10/s they pushed it up into the INSERTs'
/// upper tail (see [`UPDATE_ONE_IN`]).
const READ_RATE: f64 = 5.0;
/// One writer operation in this many is a single-cell UPDATE. UPDATEs and
/// most replica reads are slower than every INSERT, so the median of all
/// statements sits at the INSERTs' quantile 0.5 / (INSERT share). With one
/// UPDATE in five and 10 reads/s that was the INSERTs' 70th percentile,
/// where a slow phase of the shared host doubled it and the median of a
/// set of runs spread by a third; one in twenty and 5 reads/s put it near
/// their 55th percentile, in the body of the INSERT latencies.
const UPDATE_ONE_IN: u64 = 20;
/// Every this many writer operations, one is a binary COPY batch.
const COPY_EVERY: u64 = 50;
const COPY_ROWS: usize = 1024;
/// Ids of COPY rows start here; single-row INSERTs count up from 1.
const COPY_ID_BASE: i64 = 1 << 30;
const SETUPS: usize = 31;
/// `tail_ms` and `write_tail_ms` percentile cap: a 30 s run collects
/// 1,500 writes and 150 reads, which reaches p99 (16 statements beyond).
const TAIL_CAP: usize = 990;
const WARMUP_WRITES: u64 = 2 * COPY_EVERY;

/// The most recently acknowledged write, as the reader reads it back.
#[derive(Debug, Clone)]
struct Acked {
    sql: String,
    want: i64,
    token: WalToken,
    at: Instant,
}

/// What the bench expects the vault to hold: the initial grid plus every
/// acknowledged write, and the bytes of live user data that makes.
struct Model {
    grid: Vec<i32>,
    log: BTreeMap<i64, i64>,
    user_bytes: u64,
}

fn net(e: NetError) -> String {
    e.to_string()
}

/// Wait until a replica read with `token` succeeds.
fn await_replica(replica: &mut Client, token: WalToken) -> Result<(), String> {
    replica.set_read_token(token);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match replica.query("SELECT COUNT(*) FROM log") {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() < deadline && !replica.is_broken() => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("replica never caught up: {e}")),
        }
    }
}

struct Cluster {
    primary: ServerProc,
    replica: ServerProc,
    pdir: PathBuf,
    admin: Client,
}

/// Start primary and replica over fresh vaults, create and ingest the
/// grid and the log table, and wait until the replica has it all.
fn setup(work: &Path, grid_file: &Path) -> Result<Cluster, String> {
    let pdir = util::fresh_dir(work, "primary");
    let rdir = util::fresh_dir(work, "replica");
    let primary = ServerProc::spawn(&["serve-primary", "--db", &pdir.display().to_string()])?;
    let mut admin = Client::connect_named(&primary.addr, "perfbench-admin").map_err(net)?;
    for sql in [
        format!(
            "CREATE ARRAY grid (x INT DIMENSION[0:1:{GRID}], y INT DIMENSION[0:1:{GRID}], v INT DEFAULT 0)"
        ),
        format!("COPY grid FROM '{}' (FORMAT binary)", grid_file.display()),
        "CREATE TABLE log (id INT, v INT)".to_string(),
        "INSERT INTO log VALUES (0, 0)".to_string(),
    ] {
        admin.execute(&sql).map_err(net)?;
    }
    let replica = ServerProc::spawn(&[
        "serve-replica",
        "--db",
        &rdir.display().to_string(),
        "--primary",
        &primary.addr,
    ])?;
    let mut rc = Client::connect_named(&replica.addr, "perfbench-admin").map_err(net)?;
    await_replica(&mut rc, admin.last_token())?;
    rc.close().map_err(net)?;
    Ok(Cluster {
        primary,
        replica,
        pdir,
        admin,
    })
}

/// One writer operation.
#[derive(Debug, Clone)]
enum Write {
    Update { x: usize, y: usize, v: i32 },
    Insert { id: i64, v: i64 },
    Copy { batch: usize },
}

impl Write {
    fn sql(&self, work: &Path) -> String {
        match self {
            Write::Update { x, y, v } => {
                format!("UPDATE grid SET v = {v} WHERE x = {x} AND y = {y}")
            }
            Write::Insert { id, v } => format!("INSERT INTO log VALUES ({id}, {v})"),
            Write::Copy { batch } => format!(
                "COPY log FROM '{}' (FORMAT binary)",
                copy_file(work, *batch).display()
            ),
        }
    }
}

impl Write {
    /// The replica read that must return this write once it is acked:
    /// each grid cell is updated at most once per run, and log ids are
    /// unique, so the value read back is exactly the value written.
    fn read_back(&self) -> Option<(String, i64)> {
        match *self {
            Write::Update { x, y, v } => Some((
                format!("SELECT v FROM grid WHERE x = {x} AND y = {y}"),
                i64::from(v),
            )),
            Write::Insert { id, v } => Some((format!("SELECT v FROM log WHERE id = {id}"), v)),
            Write::Copy { .. } => None,
        }
    }
}

fn copy_file(work: &Path, batch: usize) -> PathBuf {
    work.join(format!("batch-{batch}.bin"))
}

fn copy_rows(seed: u64, batch: usize) -> (Vec<i32>, Vec<i32>) {
    let mut rng = Rng::new(seed, 100 + batch as u64);
    let base = COPY_ID_BASE + (batch * COPY_ROWS) as i64;
    let ids = (0..COPY_ROWS as i64).map(|i| (base + i) as i32).collect();
    let vs = (0..COPY_ROWS).map(|_| rng.below(1 << 20) as i32).collect();
    (ids, vs)
}

/// The writer's deterministic operation stream. Updated cells walk the
/// grid with an odd stride from a seeded start, so no cell is written
/// twice within [`GRID`]² updates.
struct Writes {
    rng: Rng,
    n: u64,
    next_id: i64,
    next_batch: usize,
    cell: usize,
}

/// Odd, so it generates every cell of the power-of-two-sized grid.
const CELL_STRIDE: usize = 40_503;

impl Writes {
    fn next(&mut self) -> Write {
        self.n += 1;
        if self.n.is_multiple_of(COPY_EVERY) {
            self.next_batch += 1;
            return Write::Copy {
                batch: self.next_batch - 1,
            };
        }
        if self.rng.below(UPDATE_ONE_IN) == 0 {
            self.cell = (self.cell + CELL_STRIDE) % (GRID * GRID);
            Write::Update {
                x: self.cell / GRID,
                y: self.cell % GRID,
                v: self.rng.below(1 << 20) as i32,
            }
        } else {
            self.next_id += 1;
            Write::Insert {
                id: self.next_id,
                v: self.rng.below(1 << 20) as i64,
            }
        }
    }
}

/// Per-operation record of one measured window.
#[derive(Default)]
struct Window {
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    /// Traced windows: (sent, done) of each acked write.
    write_spans: Vec<(Instant, Instant)>,
    /// Traced windows: (sql, sent, done) of each correct read.
    read_spans: Vec<(String, Instant, Instant)>,
    /// When the last operation completed; the window's achieved rate
    /// counts up to here.
    last_done: Option<Instant>,
    elapsed: Duration,
}

impl Window {
    fn ops(&self) -> u64 {
        (self.write_ms.len() + self.read_ms.len()) as u64
    }
}

/// Apply an acknowledged write to the model.
fn acked(model: &mut Model, w: &Write, seed: u64) {
    match *w {
        Write::Update { x, y, v } => {
            model.grid[x * GRID + y] = v;
        }
        Write::Insert { id, v } => {
            model.log.insert(id, v);
            model.user_bytes += 8;
        }
        Write::Copy { batch } => {
            let (ids, vs) = copy_rows(seed, batch);
            for (id, v) in ids.into_iter().zip(vs) {
                model.log.insert(i64::from(id), i64::from(v));
            }
            model.user_bytes += 8 * COPY_ROWS as u64;
        }
    }
}

/// Run the writer and the reader open loop for `seconds`.
#[allow(clippy::too_many_arguments)]
fn measure(
    seconds: f64,
    traced: bool,
    writer: &mut Client,
    reader: &mut Client,
    writes: &mut Writes,
    model: &mut Model,
    last: &Mutex<Acked>,
    work: &Path,
    seed: u64,
) -> Window {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let (mut w, r) = std::thread::scope(|s| {
        let reader_thread = s.spawn(|| {
            let mut win = Window::default();
            let mut sched = Schedule::new(start, READ_RATE);
            let mut prev = None;
            loop {
                let due = sched.next_due();
                if due >= end {
                    break;
                }
                wait_until(due);
                let a = last.lock().expect("ack lock").clone();
                let sent = send_time(due, prev).max(Instant::now());
                reader.set_read_token(a.token);
                let res = reader.query(&a.sql);
                let done = Instant::now();
                prev = Some(done);
                win.last_done = prev;
                let t = account(due, sent, done);
                win.read_ms.push(util::ms(t.latency));
                win.late_ms.push(util::ms(t.late));
                let ok = matches!(&res, Ok(rs) if rs.row_count() == 1
                    && rs.get(0, 0).as_i64() == Some(a.want));
                if ok {
                    win.lag_ms
                        .push(util::ms(done.saturating_duration_since(a.at)));
                    if traced {
                        win.read_spans.push((a.sql, sent, done));
                    }
                } else {
                    win.failed += 1;
                }
            }
            win
        });
        let mut win = Window::default();
        let mut sched = Schedule::new(start, WRITE_RATE);
        let mut prev = None;
        loop {
            let due = sched.next_due();
            if due >= end {
                break;
            }
            wait_until(due);
            let op = writes.next();
            let sql = op.sql(work);
            let sent = send_time(due, prev).max(Instant::now());
            let res = writer.execute(&sql);
            let done = Instant::now();
            prev = Some(done);
            win.last_done = prev;
            let t = account(due, sent, done);
            win.write_ms.push(util::ms(t.latency));
            win.late_ms.push(util::ms(t.late));
            match res {
                Ok(_) => {
                    acked(model, &op, seed);
                    if traced {
                        win.write_spans.push((sent, done));
                    }
                    if let Some((sql, want)) = op.read_back() {
                        *last.lock().expect("ack lock") = Acked {
                            sql,
                            want,
                            token: writer.last_token(),
                            at: done,
                        };
                    }
                }
                Err(_) => win.failed += 1,
            }
        }
        (win, reader_thread.join().expect("reader thread panicked"))
    });
    w.read_ms = r.read_ms;
    w.lag_ms = r.lag_ms;
    w.late_ms.extend(r.late_ms);
    w.failed += r.failed;
    w.read_spans = r.read_spans;
    w.elapsed = w
        .last_done
        .max(r.last_done)
        .map_or(Duration::ZERO, |t| t - start);
    w
}

fn hist_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let zero = HistogramSnapshot::default();
    let (ha, hb) = (
        a.histogram(name).unwrap_or(&zero),
        b.histogram(name).unwrap_or(&zero),
    );
    HistogramSnapshot {
        bounds: hb.bounds.clone(),
        counts: hb
            .counts
            .iter()
            .enumerate()
            .map(|(i, c)| c - ha.counts.get(i).copied().unwrap_or(0))
            .collect(),
        count: hb.count - ha.count,
        sum_ns: hb.sum_ns - ha.sum_ns,
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|es| {
            es.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn dump(c: &mut Client, sql: &str) -> Result<ResultSet, String> {
    c.query(sql).map_err(net)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let work = util::fresh_dir(&args.work, "durable");
    let seed = args.seed;
    let mut rng = Rng::new(seed, 5);
    let grid: Vec<i32> = (0..GRID * GRID)
        .map(|_| rng.below(1 << 20) as i32)
        .collect();
    let grid_file = work.join("grid.bin");
    write_copy_binary(&grid_file, &[Bat::from_ints(grid.clone())]).map_err(|e| e.to_string())?;
    let batches = ((args.seconds + 1.0) * WRITE_RATE / COPY_EVERY as f64) as usize + 4;
    for b in 0..batches {
        let (ids, vs) = copy_rows(seed, b);
        write_copy_binary(
            copy_file(&work, b),
            &[Bat::from_ints(ids), Bat::from_ints(vs)],
        )
        .map_err(|e| e.to_string())?;
    }

    let mut setup_s = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        if let Some(Cluster {
            primary,
            replica,
            admin,
            ..
        }) = cluster.take()
        {
            drop(admin);
            replica.stop(Duration::from_secs(10));
            primary.stop(Duration::from_secs(10));
        }
        let t = Instant::now();
        cluster = Some(setup(&work, &grid_file)?);
        setup_s.push(util::secs(t.elapsed()));
    }
    let Cluster {
        primary,
        replica,
        pdir,
        mut admin,
    } = cluster.expect("set up at least once");

    let mut model = Model {
        grid,
        log: BTreeMap::from([(0, 0)]),
        user_bytes: 4 * (GRID * GRID) as u64 + 8,
    };
    let mut writer = Client::connect_named(&primary.addr, "perfbench-writer").map_err(net)?;
    let mut reader = Client::connect_named(&replica.addr, "perfbench-reader").map_err(net)?;
    let mut writes = Writes {
        rng: Rng::new(seed, 6),
        n: 0,
        next_id: 0,
        next_batch: 0,
        cell: Rng::new(seed, 7).below((GRID * GRID) as u64) as usize,
    };
    let last = Mutex::new(Acked {
        sql: "SELECT v FROM log WHERE id = 0".to_string(),
        want: 0,
        token: admin.last_token(),
        at: Instant::now(),
    });
    let mut r = RunResult::default();

    // From here to the end of the measured windows the CPUs do not halt.
    let spinners = util::IdleSpinners::start(util::nproc())?;
    // Warm-up, closed loop: both WAL paths (statement and COPY batch)
    // and the replica's apply path run before the window.
    for _ in 0..WARMUP_WRITES {
        let op = writes.next();
        r.attempted += 1;
        match writer.execute(&op.sql(&work)) {
            Ok(_) => {
                acked(&mut model, &op, seed);
                if let Some((sql, want)) = op.read_back() {
                    *last.lock().expect("ack lock") = Acked {
                        sql,
                        want,
                        token: writer.last_token(),
                        at: Instant::now(),
                    };
                }
            }
            Err(_) => r.failed += 1,
        }
    }
    await_replica(&mut reader, writer.last_token())?;

    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(
        half,
        false,
        &mut writer,
        &mut reader,
        &mut writes,
        &mut model,
        &last,
        &work,
        seed,
    );
    r.attempted += plain.ops();
    r.failed += plain.failed;

    let epoch = Instant::now();
    let mut traced_win = None;
    let mut snaps = None;
    let mut lag_max = 0i64;
    let mut rtt_primary = 0.0;
    let mut rtt_replica = 0.0;
    if args.trace {
        let mut radmin = Client::connect_named(&replica.addr, "perfbench-admin").map_err(net)?;
        rtt_primary = util::median_us(|| admin.ping().map_err(net))?;
        rtt_replica = util::median_us(|| radmin.ping().map_err(net))?;
        let p0 = admin.metrics().map_err(net)?;
        let r0 = radmin.metrics().map_err(net)?;
        let wal0 = wal_bytes(&pdir);
        let stop = AtomicBool::new(false);
        let gauge_max = AtomicI64::new(0);
        let w = std::thread::scope(|s| {
            let sampler = s.spawn(|| -> Result<(), String> {
                while !stop.load(Ordering::SeqCst) {
                    let m = admin.metrics().map_err(net)?;
                    let g = m.gauge("replication_lag_bytes").unwrap_or(0);
                    gauge_max.fetch_max(g, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(200));
                }
                Ok(())
            });
            let w = measure(
                half,
                true,
                &mut writer,
                &mut reader,
                &mut writes,
                &mut model,
                &last,
                &work,
                seed,
            );
            stop.store(true, Ordering::SeqCst);
            sampler.join().expect("sampler panicked").map(|_| w)
        })?;
        let p1 = admin.metrics().map_err(net)?;
        let r1 = radmin.metrics().map_err(net)?;
        let wal1 = wal_bytes(&pdir);
        lag_max = gauge_max.load(Ordering::SeqCst);
        radmin.close().map_err(net)?;
        r.attempted += w.ops();
        r.failed += w.failed;
        snaps = Some((p0, p1, r0, r1, wal1.saturating_sub(wal0)));
        traced_win = Some(w);
    }

    drop(spinners);
    // Closing checks: the replica converges to the primary, row for row.
    await_replica(&mut reader, writer.last_token())?;
    for sql in [
        "SELECT id, v FROM log ORDER BY id",
        "SELECT x, y, v FROM grid",
    ] {
        let same = match (dump(&mut admin, sql), dump(&mut reader, sql)) {
            (Ok(a), Ok(b)) => same_bytes(&a, &b),
            _ => false,
        };
        r.check(same, format!("replica differs from the primary on {sql}"));
    }
    let rss_primary = util::peak_rss_mb(Some(primary.pid()));
    let rss_replica = util::peak_rss_mb(Some(replica.pid()));
    writer.close().map_err(net)?;
    reader.close().map_err(net)?;
    admin.close().map_err(net)?;
    let clean = replica.stop(Duration::from_secs(20)) & primary.stop(Duration::from_secs(20));
    r.check(clean, "a server did not stop cleanly");

    // Reopen the primary's vault: every acknowledged write is there.
    let t = Instant::now();
    let engine = SharedEngine::open(&pdir).map_err(|e| e.to_string())?;
    let reopen_ms = util::ms(t.elapsed());
    let mut conn = Sciql::attach(&engine);
    let log_ok = conn
        .query("SELECT id, v FROM log ORDER BY id")
        .is_ok_and(|rows| {
            let rs = rows.result_set();
            rs.row_count() == model.log.len()
                && rs.rows().zip(&model.log).all(|(row, (id, v))| {
                    row[0].as_i64() == Some(*id) && row[1].as_i64() == Some(*v)
                })
        });
    r.check(log_ok, "reopened vault lacks acknowledged log rows");
    let grid_ok = conn.query("SELECT x, y, v FROM grid").is_ok_and(|rows| {
        let rs = rows.result_set();
        rs.row_count() == GRID * GRID
            && rs.rows().all(
                |row| match (row[0].as_i64(), row[1].as_i64(), row[2].as_i64()) {
                    (Some(x), Some(y), Some(v)) => {
                        model.grid[x as usize * GRID + y as usize] as i64 == v
                    }
                    _ => false,
                },
            )
    });
    r.check(grid_ok, "reopened vault lacks acknowledged grid updates");

    // Replica apply cost: the primary's WAL records applied one by one
    // to a fresh replica vault.
    let batch = engine.wal_records_from(0).map_err(|e| e.to_string())?;
    let rdir = util::fresh_dir(&work, "apply");
    let mut fresh = Connection::open_replica(&rdir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for rec in &batch.records {
        fresh
            .apply_replicated(&rec.payload)
            .map_err(|e| e.to_string())?;
    }
    let apply_us = util::us(t.elapsed()) / batch.records.len().max(1) as f64;
    drop(fresh);

    if let (Some(w), Some((p0, p1, r0, r1, wal_grown))) = (&traced_win, &snaps) {
        let layers = Layers::new(SessionConfig::default());
        let mut log = SpanLog::new(epoch);
        let mut agg = LayerAgg::default();
        let mut checks = RunResult::default();
        let writes_acked = w.write_spans.len().max(1) as f64;
        let fsync = hist_delta(p0, p1, "wal_fsync_ns");
        let mut req = 0;
        // Writes: the program has no spans on its commit path yet, so the
        // primary's counters over the window apportion each acknowledged
        // write's time in proportion to its duration: the round trip,
        // the server's statement time (`query_ns` over DML), and fsync
        // time. What remains is waiting for the group commit to retire
        // the write.
        let service_ns: f64 = w
            .write_spans
            .iter()
            .map(|&(sent, done)| (done - sent).as_nanos() as f64)
            .sum();
        let parts = [
            ("net.rtt", rtt_primary * 1e3 * writes_acked),
            ("server.dml", hist_delta(p0, p1, "query_ns").sum_ns as f64),
            ("fsync", fsync.sum_ns as f64),
        ];
        for &(sent, done) in &w.write_spans {
            req += 1;
            let (s, e) = (log.offset(sent), log.offset(done));
            let root = log.push(req, None, "write", s, e);
            let mut at = s;
            for (name, total) in parts {
                let ns = ((e - s) as f64 * total / service_ns.max(1.0)) as u64;
                log.push(req, Some(root), name, at, at + ns);
                at += ns;
            }
        }
        // Reads: the replay of each statement on the reopened vault; what
        // the call spends beyond it and the round trip is the replica
        // holding the read until it has applied the writer's token.
        for (sql, sent, done) in &w.read_spans {
            let t0 = Instant::now();
            let embedded = conn.query(sql).map(|r| r.into_result_set());
            let embedded_ns = t0.elapsed().as_nanos() as f64;
            let guard = engine.connection();
            let rep = layers.replay(&guard, sql, None, &[], true);
            drop(guard);
            let Ok(rep) = rep else {
                checks.check(false, "replay of a replica read failed");
                continue;
            };
            let same = matches!((&embedded, &rep.rs), (Ok(a), Some(b)) if same_bytes(a, b));
            checks.check(same, "replay differs from the driver result");
            req += 1;
            let s = log.offset(*sent);
            let root = log.push(req, None, "read", s, log.offset(*done));
            let rtt_ns = (rtt_replica * 1e3) as u64;
            log.push(req, Some(root), "net.rtt", s, s + rtt_ns);
            Layers::record(&mut log, req, root, s + rtt_ns, &rep, 1.0);
            agg.overhead_ns
                .push((*done - *sent).as_nanos() as f64 - embedded_ns);
            agg.add(&rep);
        }
        r.attempted += checks.attempted;
        r.failed += checks.failed;
        r.check_failures.append(&mut checks.check_failures);
        let mut table = String::new();
        r.metrics = share_table(&args.workload, &log, &mut table);
        print!("{table}");
        r.metrics.extend(agg.metrics(&mut r.notes, &mut r.extra));
        let batch_h = hist_delta(p0, p1, "group_commit_batch");
        let reads = w.read_spans.len().max(1) as f64;
        let all_lat = |w: &Window| [w.write_ms.as_slice(), w.read_ms.as_slice()].concat();
        r.metrics.extend([
            metric(
                "mal.plan_cache_hit_ratio",
                plan_cache_hit_ratio(r0, r1),
                "ratio",
            ),
            metric("net.rtt_us", rtt_primary, "us"),
            metric(
                "net.bytes_out_per_row",
                counter_delta(r0, r1, "bytes_out") / reads,
                "B/row",
            ),
            metric(
                "store.fsyncs_per_write",
                counter_delta(p0, p1, "wal_fsyncs") / writes_acked,
                "ratio",
            ),
            metric(
                "store.group_batch_mean",
                batch_h.sum_ns as f64 / batch_h.count.max(1) as f64,
                "writes",
            ),
            metric(
                "store.wal_bytes_per_write",
                *wal_grown as f64 / writes_acked,
                "B",
            ),
            metric("repl.lag_bytes_max", lag_max as f64, "B"),
            metric(
                "repl.shipped_minus_applied",
                counter_delta(p0, p1, "repl_records_shipped")
                    - counter_delta(r0, r1, "repl_records_applied"),
                "records",
            ),
            metric(
                "obs.trace_overhead_frac",
                mean(&all_lat(w)) / mean(&all_lat(&plain)) - 1.0,
                "ratio",
            ),
            metric(
                "loadgen.late_tail_ms",
                Summary::of(&w.late_ms, UNCAPPED).tail,
                "ms",
            ),
        ]);
        let tail_q = tail_per_mille(fsync.count as usize, UNCAPPED).unwrap_or(1000) as f64 / 1000.0;
        r.extra.extend([
            metric("store.fsync_mean_us", fsync.mean_ns() as f64 / 1e3, "us"),
            metric(
                "store.fsync_p50_us",
                fsync.quantile_ns(0.5) as f64 / 1e3,
                "us",
            ),
            metric(
                "store.fsync_tail_us",
                fsync.quantile_ns(tail_q) as f64 / 1e3,
                "us",
            ),
        ]);
        crate::report::write_spans(args, &log);
    }

    let t = Instant::now();
    engine.checkpoint().map_err(|e| e.to_string())?;
    let checkpoint_ms = util::ms(t.elapsed());
    drop(conn);
    drop(engine);
    let stored = util::dir_bytes(&pdir);

    if !args.trace {
        let all: Vec<f64> = [plain.write_ms.as_slice(), plain.read_ms.as_slice()].concat();
        r.metrics
            .push(metric("setup_s", interquartile_mean(&setup_s), "s"));
        r.metrics.push(metric(
            "ops_per_s",
            plain.ops() as f64 / plain.elapsed.as_secs_f64(),
            "stmt/s",
        ));
        r.metrics
            .extend(latency_metrics("", &all, TAIL_CAP, &mut r.notes));
        r.metrics.push(metric("peak_rss_mb", rss_primary, "MB"));
        let extra: Vec<Metric> = latency_metrics("write_", &plain.write_ms, TAIL_CAP, &mut r.notes);
        r.extra.extend(extra);
        let lag = Summary::of(&plain.lag_ms, UNCAPPED);
        r.notes.push(format!(
            "replica_lag_tail_ms is {} of {} samples ({} beyond it)",
            lag.tail_label(),
            lag.n,
            lag.beyond
        ));
        r.extra.extend([
            metric("replica_lag_tail_ms", lag.tail, "ms"),
            metric(
                "stored_bytes_per_user_byte",
                stored as f64 / model.user_bytes as f64,
                "ratio",
            ),
            metric("replica_peak_rss_mb", rss_replica, "MB"),
        ]);
    }
    r.extra.extend([
        metric("store.checkpoint_ms", checkpoint_ms, "ms"),
        metric("store.reopen_ms", reopen_ms, "ms"),
        metric("repl.apply_us_per_record", apply_us, "us"),
    ]);
    r.notes.push(format!(
        "open loop: writer {WRITE_RATE}/s (COPY every {COPY_EVERY}th), reader {READ_RATE}/s; \
         group commit, one fsync per group"
    ));
    Ok(r)
}
