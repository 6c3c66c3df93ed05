//! Hostile-input robustness: every malformed thing a client can put on
//! the wire yields a **structured error response** (or a clean close) —
//! never a panic, never a hang. The daemon stays alive throughout; the
//! final section proves it by doing real work afterwards.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use wasabi_analyses::registry;
use wasabi_server::{
    read_frame, write_frame, Client, ErrorCode, Request, Response, Server, ServerConfig, MAX_FRAME,
};

fn unix_socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wasabid-rob-{}-{name}.sock", std::process::id()))
}

fn connect(path: &std::path::Path) -> UnixStream {
    let conn = UnixStream::connect(path).expect("connects");
    // A hang is a test failure, not a timeout: every read below must
    // complete quickly or the suite errors out.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    conn
}

fn expect_error(conn: &mut UnixStream, code: ErrorCode) {
    let value = read_frame(conn).expect("error frame");
    match Response::from_json(&value).expect("typed response") {
        Response::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {:?} error, got {other:?}", code.as_str()),
    }
}

#[test]
fn malformed_frames_yield_structured_errors_never_panics_or_hangs() {
    let path = unix_socket_path("malformed");
    let server = Server::bind_unix(&path, ServerConfig::new(registry::by_name)).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    // 1. Oversized length prefix: structured error, then the daemon
    //    closes (it cannot resync past a lied-about payload).
    {
        let mut conn = connect(&path);
        conn.write_all(&((MAX_FRAME as u32) + 1).to_be_bytes())
            .expect("writes");
        conn.flush().expect("flushes");
        expect_error(&mut conn, ErrorCode::FrameTooLarge);
        let mut rest = Vec::new();
        assert_eq!(
            conn.read_to_end(&mut rest).expect("clean close"),
            0,
            "connection is closed after an oversized prefix"
        );
    }

    // 2. Truncated frame: header promises 100 bytes, the client sends 10
    //    and goes away. The daemon just closes its end — no hang.
    {
        let mut conn = connect(&path);
        conn.write_all(&100u32.to_be_bytes()).expect("writes");
        conn.write_all(b"0123456789").expect("writes");
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = Vec::new();
        assert_eq!(conn.read_to_end(&mut rest).expect("clean close"), 0);
    }

    // 3. Invalid JSON payload: structured error, and the connection
    //    SURVIVES — the framing layer is still aligned.
    {
        let mut conn = connect(&path);
        let garbage = b"{\"type\": nonsense!!";
        conn.write_all(&(garbage.len() as u32).to_be_bytes())
            .expect("writes");
        conn.write_all(garbage).expect("writes");
        conn.flush().expect("flushes");
        expect_error(&mut conn, ErrorCode::MalformedFrame);

        // Same connection, now a well-formed request: it works.
        write_frame(&mut conn, &Request::Status.to_json()).expect("writes");
        let value = read_frame(&mut conn).expect("status frame");
        assert!(matches!(
            Response::from_json(&value).expect("typed"),
            Response::Status(_)
        ));
    }

    // 4. Valid JSON, unknown request type: structured error, connection
    //    survives.
    {
        let mut conn = connect(&path);
        let frame = wasabi::report::JsonValue::object([(
            "type",
            wasabi::report::JsonValue::from("frobnicate"),
        )]);
        write_frame(&mut conn, &frame).expect("writes");
        expect_error(&mut conn, ErrorCode::UnknownRequest);
        write_frame(&mut conn, &Request::Status.to_json()).expect("writes");
        assert!(read_frame(&mut conn).is_ok(), "connection survives");
    }

    // 5. Valid JSON, not even an object: structured bad_request error.
    {
        let mut conn = connect(&path);
        write_frame(&mut conn, &wasabi::report::JsonValue::UInt(42)).expect("writes");
        expect_error(&mut conn, ErrorCode::BadRequest);
    }

    // 6. Known request with broken members (odd-length hex): bad_request.
    {
        let mut conn = connect(&path);
        let frame = wasabi::report::JsonValue::object([
            ("type", wasabi::report::JsonValue::from("upload")),
            ("bytes", wasabi::report::JsonValue::from("abc")),
        ]);
        write_frame(&mut conn, &frame).expect("writes");
        expect_error(&mut conn, ErrorCode::BadRequest);
    }

    // 7. Well-formed upload of bytes that are not a wasm module:
    //    invalid_module, and nothing is stored.
    {
        let mut conn = connect(&path);
        write_frame(
            &mut conn,
            &Request::Upload {
                bytes: b"definitely not wasm".to_vec(),
            }
            .to_json(),
        )
        .expect("writes");
        expect_error(&mut conn, ErrorCode::InvalidModule);
    }

    // 8. A 52-byte upload declaring millions of locals (four functions
    //    of 999,990 `i64`s): refused at decode with invalid_module, before
    //    anything is allocated for them, and the connection survives.
    {
        let mut bomb = wasabi_wasm::Module::new();
        for _ in 0..4 {
            bomb.add_function(
                wasabi_wasm::FuncType::new(&[], &[]),
                vec![wasabi_wasm::ValType::I64; 999_990],
                vec![wasabi_wasm::Instr::End],
            );
        }
        let bytes = wasabi_wasm::encode::encode(&bomb);
        let mut conn = connect(&path);
        write_frame(&mut conn, &Request::Upload { bytes }.to_json()).expect("writes");
        expect_error(&mut conn, ErrorCode::InvalidModule);
        write_frame(&mut conn, &Request::Status.to_json()).expect("writes");
        assert!(read_frame(&mut conn).is_ok(), "connection survives");
    }

    // After all of the above abuse the daemon still does real work.
    let mut client = Client::connect_unix(&path).expect("connects");
    let status = client.status().expect("status");
    assert_eq!(
        status.get("state").and_then(|state| state.as_str()),
        Some("accepting")
    );
    assert_eq!(
        status.get("modules").and_then(|modules| modules.as_i64()),
        Some(0),
        "no garbage was stored"
    );
    client.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}
