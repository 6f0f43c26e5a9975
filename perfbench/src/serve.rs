//! Server modes of the benchmark binary. Each runs one engine in its own
//! process, prints `LISTEN <addr>`, and serves until a client sends a
//! shutdown frame or the parent closes our stdin.

use sciql_repro::net::{Server, ServerConfig, ServerHandle};
use sciql_repro::repl::Replica;
use sciql_repro::sciql::SharedEngine;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

/// Serve until stopped; returns the engine once every session ended.
fn serve_until_stopped(engine: Arc<SharedEngine>, config: ServerConfig) -> Result<(), String> {
    let server =
        Server::bind_with_config(engine, "127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let handle: ServerHandle = server.serve().map_err(|e| e.to_string())?;
    println!("LISTEN {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let parent_gone = Arc::new(AtomicBool::new(false));
    {
        let gone = Arc::clone(&parent_gone);
        // Detached on purpose: it blocks on stdin until the parent closes
        // it, and the process exits right after the server stops.
        std::thread::spawn(move || {
            let mut sink = [0u8; 64];
            while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
            gone.store(true, Ordering::SeqCst);
        });
    }
    while !handle.shutting_down() && !parent_gone.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(handle.stop());
    Ok(())
}

pub fn main(mode: &str, args: &[String]) -> i32 {
    let run = || -> Result<(), String> {
        match mode {
            "serve-mem" => serve_until_stopped(SharedEngine::in_memory(), ServerConfig::default()),
            "serve-primary" => {
                let engine = SharedEngine::open(flag(args, "--db")?).map_err(|e| e.to_string())?;
                let config = ServerConfig {
                    group_commit: true,
                    ..ServerConfig::default()
                };
                serve_until_stopped(engine, config)
            }
            "serve-replica" => {
                let replica = Replica::connect(flag(args, "--db")?, flag(args, "--primary")?)
                    .map_err(|e| e.to_string())?;
                let r = serve_until_stopped(Arc::clone(replica.engine()), ServerConfig::default());
                replica.stop();
                r
            }
            m => Err(format!("unknown mode {m}")),
        }
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench {mode}: {e}");
            1
        }
    }
}
