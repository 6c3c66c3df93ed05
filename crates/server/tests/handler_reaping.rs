//! The daemon does not keep finished connection handlers around. Each
//! connection runs on its own thread, and an exited thread keeps its stack
//! mapped until its handle is joined or dropped; a daemon that held every
//! handle until shutdown grew its address space with every connection it
//! had ever served.
//!
//! This file holds one test on purpose: it counts the lines of this
//! process's `/proc/self/maps`, which any test running beside it would
//! disturb.
#![cfg(target_os = "linux")]

use wasabi_analyses::registry;
use wasabi_server::{Client, Server, ServerConfig};

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("reads /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn sequential_connections_do_not_grow_the_address_space() {
    const CYCLES: usize = 300;
    let path = std::env::temp_dir().join(format!("wasabid-reap-{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, ServerConfig::new(registry::by_name)).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let cycle = || {
        let mut client = Client::connect_unix(&path).expect("connects");
        client.status().expect("status");
    };
    // Warm up, so the baseline includes the allocator's and the thread
    // stack cache's first mappings.
    for _ in 0..10 {
        cycle();
    }
    let before = mappings();
    for _ in 0..CYCLES {
        cycle();
    }
    let grown = mappings().saturating_sub(before);
    assert!(
        grown < 100,
        "{CYCLES} finished connections left {grown} new mappings behind"
    );

    Client::connect_unix(&path)
        .expect("connects")
        .shutdown()
        .expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}
