//! `array_kernels`: the paper's array queries on an embedded `mem:`
//! engine, one closed-loop client, session threads = nproc.
//!
//! The mix is the image `invert`, `edges` and `smooth` queries on a 256²
//! image, the Fig-1 tiling `AVG … GROUP BY m[x:x+2][y:y+2]` on a 256²
//! matrix, and the Game of Life step (`INSERT INTO life SELECT … GROUP
//! BY` window) on a 128² board. The 256² arrays (65,536 cells) sit at the
//! default 64k `parallel_threshold` and the board (16,384 cells) below it,
//! so both the parallel and the serial kernel paths run. Operations run
//! in rounds, each a seeded permutation of the five, and the window ends
//! on a round boundary so every run measures the same mix.

use crate::replay::{same_bytes, Layers, Replay};
use crate::report::{
    latency_metrics, mean, metric, no_store_metrics, share_table, LayerAgg, Metric, RunResult,
};
use crate::spans::SpanLog;
use crate::stats::{interquartile_mean, median, Summary, UNCAPPED};
use crate::util::{self, Rng};
use crate::Args;
use sciql_repro::driver::{Conn, Outcome, Sciql};
use sciql_repro::gdk::{Bat, Value};
use sciql_repro::imaging::{ops, synth, vault::view_to_image, GreyImage};
use sciql_repro::life::Board;
use sciql_repro::sciql::{write_copy_binary, ResultSet, SessionConfig};
use std::path::Path;
use std::time::{Duration, Instant};

const IMG: usize = 256;
const BOARD: usize = 128;
/// Set-ups per run; `setup_s` is their interquartile mean.
const SETUPS: usize = 31;
/// `tail_ms` percentile cap: a 30 s run collects ~1,100 statements on the
/// reference host, which reaches p90 with a margin (p99 only just).
const TAIL_CAP: usize = 900;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Invert,
    Edges,
    Smooth,
    Tiling,
    Life,
}

const OPS: [Op; 5] = [Op::Invert, Op::Edges, Op::Smooth, Op::Tiling, Op::Life];

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Invert => "SELECT [x], [y], 255 - v FROM img",
            Op::Edges => "SELECT [x], [y], ABS(v - img[x-1][y]) + ABS(v - img[x][y-1]) FROM img",
            Op::Smooth => {
                "SELECT [x], [y], CAST(AVG(v) AS INT) FROM img GROUP BY img[x-1:x+2][y-1:y+2]"
            }
            Op::Tiling => "SELECT [x], [y], AVG(v) FROM m GROUP BY m[x:x+2][y:y+2]",
            Op::Life => {
                "INSERT INTO life SELECT [x], [y], \
                 CASE WHEN v = 1 AND SUM(v) - v IN (2, 3) THEN 1 \
                      WHEN v = 0 AND SUM(v) - v = 3 THEN 1 ELSE 0 END \
                 FROM life GROUP BY life[x-1:x+2][y-1:y+2]"
            }
        }
    }
}

/// The generated inputs.
struct Inputs {
    img: GreyImage,
    matrix: Vec<i32>,
    board: Board,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let matrix = (0..IMG * IMG).map(|_| rng.below(1000) as i32).collect();
    let mut board = Board::new(BOARD, BOARD);
    for x in 0..BOARD {
        for y in 0..BOARD {
            board.set(x, y, rng.unit() < 0.3);
        }
    }
    Inputs {
        img: synth::building(IMG, IMG, seed),
        matrix,
        board,
    }
}

/// Create the three arrays and ingest them with binary COPY.
fn setup(work: &Path, inp: &Inputs) -> Result<Conn, String> {
    let mut conn =
        Sciql::connect_with_config("mem:", SessionConfig::default()).map_err(|e| e.to_string())?;
    let life: Vec<i32> = inp
        .board
        .iter_cells()
        .map(|(_, _, alive)| i32::from(alive))
        .collect();
    for (name, n, values) in [
        ("img", IMG, inp.img.pixels.clone()),
        ("m", IMG, inp.matrix.clone()),
        ("life", BOARD, life),
    ] {
        let file = work.join(format!("{name}.bin"));
        write_copy_binary(&file, &[Bat::from_ints(values)]).map_err(|e| e.to_string())?;
        conn.execute(&format!(
            "CREATE ARRAY {name} (x INT DIMENSION[0:1:{n}], y INT DIMENSION[0:1:{n}], v INT DEFAULT 0)"
        ))
        .map_err(|e| e.to_string())?;
        conn.execute(&format!(
            "COPY {name} FROM '{}' (FORMAT binary)",
            file.display()
        ))
        .map_err(|e| e.to_string())?;
    }
    Ok(conn)
}

/// The plain-loop Fig-1 tiling: the mean of each in-range 2×2 tile.
fn tiling_reference(m: &[i32], x: usize, y: usize) -> f64 {
    let mut sum = 0i64;
    let mut cnt = 0i64;
    for tx in x..(x + 2).min(IMG) {
        for ty in y..(y + 2).min(IMG) {
            sum += i64::from(m[tx * IMG + ty]);
            cnt += 1;
        }
    }
    sum as f64 / cnt as f64
}

fn image_of(rs: &ResultSet) -> Option<GreyImage> {
    view_to_image(&rs.to_array_view().ok()?).ok()
}

/// Check the last result of every query against its native reference.
fn check_outputs(
    conn: &mut Conn,
    inp: &Inputs,
    last: &[Option<ResultSet>],
    steps: usize,
    r: &mut RunResult,
) {
    let expect = [
        (Op::Invert, ops::invert(&inp.img)),
        (Op::Edges, ops::edges(&inp.img)),
        (Op::Smooth, ops::smooth(&inp.img)),
    ];
    for (op, want) in expect {
        let got = last[op as usize].as_ref().and_then(image_of);
        r.check(
            got.as_ref() == Some(&want),
            format!("{op:?} differs from the native reference"),
        );
    }
    let tiling_ok = last[Op::Tiling as usize].as_ref().is_some_and(|rs| {
        rs.row_count() == IMG * IMG
            && rs.rows().all(|row| match (&row[0], &row[1], &row[2]) {
                (x, y, Value::Dbl(v)) => {
                    let (x, y) = (x.as_i64().unwrap_or(-1), y.as_i64().unwrap_or(-1));
                    (0..IMG as i64).contains(&x)
                        && (0..IMG as i64).contains(&y)
                        && *v == tiling_reference(&inp.matrix, x as usize, y as usize)
                }
                _ => false,
            })
    });
    r.check(
        tiling_ok,
        "Fig-1 tiling differs from the plain-loop reference",
    );
    let mut board = inp.board.clone();
    for _ in 0..steps {
        board = board.step();
    }
    let life_ok = conn.query("SELECT x, y, v FROM life").is_ok_and(|rows| {
        let rs = rows.result_set();
        rs.row_count() == BOARD * BOARD
            && rs.rows().all(|row| {
                let (x, y, v) = (row[0].as_i64(), row[1].as_i64(), row[2].as_i64());
                matches!((x, y, v), (Some(x), Some(y), Some(v))
                    if board.get(x as usize, y as usize) == (v == 1))
            })
    });
    r.check(
        life_ok,
        format!("Life board after {steps} steps differs from Board::step"),
    );
}

/// Latencies and per-layer state of one measured window.
#[derive(Default)]
struct Window {
    lat_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    ops: u64,
    failed: u64,
    elapsed: Duration,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    conn: &mut Conn,
    rng: &mut Rng,
    seconds: f64,
    last: &mut [Option<ResultSet>],
    steps: &mut usize,
    mut traced: Option<(&Layers, &mut SpanLog, &mut LayerAgg, &mut RunResult)>,
) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    let mut prev_done: Option<Instant> = None;
    let mut req = 0u64;
    // Whole rounds only: at least one, then until the window has passed.
    loop {
        let mut round = OPS;
        rng.shuffle(&mut round);
        for op in round {
            let sent = Instant::now();
            let out = conn.run(op.sql());
            let done = Instant::now();
            if let Some(p) = prev_done {
                w.gap_ms.push(util::ms(sent - p));
            }
            w.ops += 1;
            w.lat_ms.push(util::ms(done - sent));
            match out {
                Ok(Outcome::Rows(rs)) if rs.row_count() == IMG * IMG => {
                    last[op as usize] = Some(rs)
                }
                Ok(Outcome::Affected(_)) if op == Op::Life => *steps += 1,
                _ => w.failed += 1,
            }
            if let Some((layers, log, agg, r)) = traced.as_mut() {
                req += 1;
                replay_op(
                    conn,
                    op,
                    layers,
                    log,
                    agg,
                    r,
                    req,
                    sent,
                    done,
                    last[op as usize].as_ref(),
                );
            }
            prev_done = Some(Instant::now());
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.elapsed = t0.elapsed();
    w
}

/// Replay one statement layer by layer and record its span tree.
#[allow(clippy::too_many_arguments)]
fn replay_op(
    conn: &mut Conn,
    op: Op,
    layers: &Layers,
    log: &mut SpanLog,
    agg: &mut LayerAgg,
    r: &mut RunResult,
    req: u64,
    sent: Instant,
    done: Instant,
    driver_rs: Option<&ResultSet>,
) {
    let c = conn.embedded_connection().expect("mem: is embedded");
    let replayed: Result<Replay, String> = layers.replay(c, op.sql(), None, &[], false);
    let Ok(rep) = replayed else {
        r.check(false, format!("{op:?} replay failed"));
        return;
    };
    let (start, end) = (log.offset(sent), log.offset(done));
    let root_name = if op == Op::Life {
        "call:mem:dml"
    } else {
        "call:mem"
    };
    let root = log.push(req, None, root_name, start, end);
    let call_ns = (done - sent).as_nanos() as f64;
    // An embedded SELECT call runs exactly the replayed layers, so its
    // split is the replay's, scaled to the call; run-to-run noise between
    // the two would otherwise show up as session time. The Life step's
    // replay covers only its SELECT, and the rest is the DML apply.
    let scale = if op == Op::Life {
        1.0
    } else {
        call_ns / rep.laid_ns().max(1) as f64
    };
    Layers::record(log, req, root, start, &rep, scale);
    if op == Op::Life {
        // The step's own SELECT was replayed against the board it wrote,
        // so only its timing is comparable: apply = call minus SELECT.
        r.extra.push(metric(
            "core.dml_apply_us",
            (call_ns - rep.laid_ns() as f64) / 1e3,
            "us",
        ));
    } else {
        agg.overhead_ns.push(call_ns - rep.laid_ns() as f64);
        let same = match (driver_rs, rep.rs.as_ref()) {
            (Some(a), Some(b)) => same_bytes(a, b),
            _ => false,
        };
        r.check(
            same,
            format!("{op:?} replay differs from the driver result"),
        );
    }
    agg.add(&rep);
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let work = util::fresh_dir(&args.work, "kernels");
    let inp = inputs(args.seed);
    let mut setup_s = Vec::new();
    let mut conn = None;
    for _ in 0..SETUPS {
        drop(conn.take());
        let t = Instant::now();
        conn = Some(setup(&work, &inp)?);
        setup_s.push(util::secs(t.elapsed()));
    }
    let mut conn = conn.expect("set up at least once");

    let mut r = RunResult::default();
    let mut rng = Rng::new(args.seed, 2);
    let mut last: Vec<Option<ResultSet>> = vec![None; OPS.len()];
    let mut steps = 0usize;
    // Warm-up: one round fills allocator pools and first-touch pages.
    let warm = measure(&mut conn, &mut rng, 0.0, &mut last, &mut steps, None);
    r.attempted += warm.ops;
    r.failed += warm.failed;

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let w = measure(&mut conn, &mut rng, window, &mut last, &mut steps, None);
    r.attempted += w.ops;
    r.failed += w.failed;

    if !args.trace {
        r.metrics
            .push(metric("setup_s", interquartile_mean(&setup_s), "s"));
        r.metrics.push(metric(
            "ops_per_s",
            w.ops as f64 / w.elapsed.as_secs_f64(),
            "stmt/s",
        ));
        r.metrics
            .extend(latency_metrics("", &w.lat_ms, TAIL_CAP, &mut r.notes));
        r.metrics
            .push(metric("peak_rss_mb", util::peak_rss_mb(None), "MB"));
    } else {
        let layers = Layers::new(SessionConfig::default());
        let mut log = SpanLog::new(Instant::now());
        let mut agg = LayerAgg::default();
        let mut tr = RunResult::default();
        let tw = measure(
            &mut conn,
            &mut rng,
            window,
            &mut last,
            &mut steps,
            Some((&layers, &mut log, &mut agg, &mut tr)),
        );
        r.attempted += tw.ops + tr.attempted;
        r.failed += tw.failed + tr.failed;
        r.check_failures.append(&mut tr.check_failures);
        let dml: Vec<f64> = tr.extra.iter().map(|m| m.value).collect();
        r.extra
            .push(metric("core.dml_apply_us", median(&dml), "us"));
        let mut table = String::new();
        r.metrics = share_table(&args.workload, &log, &mut table);
        print!("{table}");
        r.metrics.extend(agg.metrics(&mut r.notes, &mut r.extra));
        r.metrics.extend(common_layer_metrics(&mut conn, &w, &tw)?);
        crate::report::write_spans(args, &log);
    }
    check_outputs(&mut conn, &inp, &last, steps, &mut r);
    Ok(r)
}

/// The per-layer metrics outside the replays: plan cache, the embedded
/// transport's round trip, trace overhead and the sender's gaps, and zero
/// for the wire, WAL and replication counts this workload does not drive.
fn common_layer_metrics(
    conn: &mut Conn,
    untraced: &Window,
    traced: &Window,
) -> Result<Vec<Metric>, String> {
    let rtt_us = util::median_us(|| conn.ping().map_err(|e| e.to_string()))?;
    let hit_ratio = conn
        .metrics()
        .map_err(|e| e.to_string())?
        .plan_cache_hit_ratio()
        .unwrap_or(0.0);
    let mut m = vec![
        metric("mal.plan_cache_hit_ratio", hit_ratio, "ratio"),
        metric("net.rtt_us", rtt_us, "us"),
        metric("net.bytes_out_per_row", 0.0, "B/row"),
        metric(
            "obs.trace_overhead_frac",
            mean(&traced.lat_ms) / mean(&untraced.lat_ms) - 1.0,
            "ratio",
        ),
        metric(
            "loadgen.late_tail_ms",
            Summary::of(&traced.gap_ms, UNCAPPED).tail,
            "ms",
        ),
    ];
    m.extend(no_store_metrics());
    Ok(m)
}
