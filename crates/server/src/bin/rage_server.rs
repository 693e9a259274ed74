//! The `rage-server` binary: serve RAGE explanations over HTTP.
//!
//! ```text
//! rage-server [--addr HOST:PORT] [--threads N]
//! ```
//!
//! Boots the shared [`rage_report::Service`] (the same layer the `report` CLI
//! renders through), binds a [`rage_server::Server`] on `--addr`
//! (default `127.0.0.1:7343`) and serves until killed. See the crate docs of
//! [`rage_server`] for the endpoint table.

use std::process::ExitCode;
use std::sync::Arc;

use rage_report::Service;
use rage_server::{Server, ServerConfig};

fn usage() -> &'static str {
    "usage: rage-server [--addr HOST:PORT] [--threads N]\n\
     \n\
     Serves the RAGE explanation service over HTTP/1.1.\n\
     \n\
       --addr HOST:PORT  listen address (default 127.0.0.1:7343)\n\
       --threads N       connection worker threads (default 4)\n"
}

fn run(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7343".to_string();
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--addr needs a value".to_string())?;
                i += 2;
            }
            "--threads" => {
                let value = args
                    .get(i + 1)
                    .ok_or("--threads needs a value".to_string())?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("--threads needs a positive integer, got {value:?}"))?;
                if parsed == 0 {
                    return Err("--threads needs a positive integer, got 0".to_string());
                }
                config.threads = parsed;
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }

    let service = Arc::new(Service::new());
    let server = Server::start(&addr, service, config).map_err(|err| err.to_string())?;
    println!("rage-server listening on http://{}", server.addr());
    println!("  try: curl http://{}/scenarios", server.addr());

    // Serve until the process is killed; the worker threads own the work.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    // First thing, before any instruction the x86-64-v3 build may use; see
    // `rage_report::cpu` for why this exits instead of returning.
    if let Err(message) = rage_report::cpu::check() {
        eprintln!("rage-server: {message}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("--help" | "-h" | "help")
    ) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rage-server: {message}");
            ExitCode::FAILURE
        }
    }
}
