//! The `verifd` binary: the campaign server and the fleet runner.
//!
//! - `verifd [flags]` — a server with in-process workers and an
//!   in-memory store; blocks until a `POST /shutdown` stops it.
//! - `verifd coordinator [flags]` — the same server with no in-process
//!   workers (`--workers` defaults to 0) and an on-disk store: runners
//!   do the simulating.
//! - `verifd runner [flags]` — a fleet runner; works for a server until
//!   it drains.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use verifd::{
    CoordinatorConfig, Runner, RunnerConfig, Server, ServerConfig, RUNNER_FLAGS, SERVER_FLAGS,
};

fn usage() -> String {
    format!("usage: verifd [coordinator] {SERVER_FLAGS}\n       verifd runner {RUNNER_FLAGS}")
}

fn run(args: &[String]) -> Result<(), String> {
    let (base, flags) = match args.first().map(String::as_str) {
        Some("runner") => {
            let config = RunnerConfig::from_args(&args[1..])?;
            let addr = config.coordinator.clone();
            let runner = Runner::start(config).map_err(|e| format!("cannot start runner: {e}"))?;
            println!("verifd runner {} working for {addr}", runner.runner_id());
            runner.join();
            println!("verifd runner: fleet drained, exiting");
            return Ok(());
        }
        Some("coordinator") => (
            ServerConfig::from(CoordinatorConfig {
                addr: "127.0.0.1:4613".to_string(),
                ..CoordinatorConfig::default()
            }),
            &args[1..],
        ),
        _ => (
            ServerConfig {
                addr: "127.0.0.1:4612".to_string(),
                ..ServerConfig::default()
            },
            args,
        ),
    };
    let server = Server::start(ServerConfig::from_args(flags, base)?)
        .map_err(|e| format!("cannot start: {e}"))?;
    println!("verifd listening on {}", server.addr());
    server.join();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("verifd: {message}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
