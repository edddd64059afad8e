//! The served system under test: `pdp_server::serve` over the service a
//! workload's set-up file describes.
//!
//! ```text
//! perfbench-sut --setup FILE [--wal FILE]
//! ```
//!
//! Prints `listening ADDR` once bound and serves until a client sends
//! `Shutdown`.

use std::io::Write;
use std::path::PathBuf;

use pdp_core::WalWriter;
use pdp_server::{serve, ServerConfig};
use perfbench::setup::Setup;

fn run() -> Result<(), String> {
    let mut setup_path = None;
    let mut wal_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--setup" => setup_path = Some(PathBuf::from(value)),
            "--wal" => wal_path = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let setup = Setup::read(&setup_path.ok_or("--setup is required")?)?;
    let mut service = setup
        .builder()
        .and_then(|b| b.build())
        .map_err(|e| e.to_string())?;
    if let Some(path) = wal_path {
        service.attach_wal(WalWriter::create(&path).map_err(|e| e.to_string())?);
    }
    let handle = serve(service, &ServerConfig::default()).map_err(|e| e.to_string())?;
    println!("listening {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    drop(handle.join());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench-sut: {e}");
        std::process::exit(1);
    }
}
