//! Protocol fuzz battery: arbitrary malformed, truncated, mutated, and
//! oversized request lines must each produce exactly one *typed* error
//! response — never a panic, never a wedged pool, never a stuck
//! connection — and mutated store files must come back as typed
//! `StoreError`s.
//!
//! Mutants come from the shared harness (`rtdc_rng::fuzz`);
//! `RTDC_FUZZ_ITERS` scales every loop here (e.g.
//! `RTDC_FUZZ_ITERS=20000 cargo test -p rtdc-serve --test protocol_fuzz
//! --release`).

use rtdc::imagefile::encode_image;
use rtdc::prelude::{ImageSpec, Scheme};
use rtdc_rng::{fuzz, Rng64};
use rtdc_serve::cache::CacheKey;
use rtdc_serve::client::Client;
use rtdc_serve::json::Json;
use rtdc_serve::protocol::{parse_request, MAX_LINE_BYTES};
use rtdc_serve::server::{handle_line, ServeConfig, ServeState, Server};
use rtdc_serve::store::{check_envelope, decode_store_file, encode_store_file};

/// Seed corpus of near-valid requests the mutator chews on.
const CORPUS: [&str; 8] = [
    r#"{"op":"build","bench":"sort","scheme":"d"}"#,
    r#"{"op":"run","bench":"crc32","scheme":"cp+rf","max_insns":100000}"#,
    r#"{"op":"trace","bench":"sort"}"#,
    r#"{"op":"plan","bench":"tiny-loop","scheme":"d2"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"run","bench":"sort","plan":"rtdc-plan v1 scheme=d source=manual iter=0 procs=1\n0 d 0\n"}"#,
    r#"{"op":"build","bench":"matmul","scheme":"lz+rf"}"#,
    r#"{"op":"run","bench":"strsearch","scheme":"native"}"#,
];

/// One mutated request line: a corpus entry through the harness, with
/// hostile field values and nesting among its splice tokens. Newlines
/// become spaces so the mutant stays one line on the socket.
fn mutate(rng: &mut Rng64) -> String {
    let mut bytes = rng.choose(&CORPUS).as_bytes().to_vec();
    let tokens: [&[u8]; 4] = [
        b"\"\\u0000\"",
        b"-1e999",
        b"\"+rf\"",
        b"[[[[[[[[[[[[[[[[[[[[",
    ];
    fuzz::mutate(rng, &mut bytes, &tokens);
    String::from_utf8_lossy(&bytes).replace('\n', " ")
}

#[test]
fn dispatcher_never_panics_on_mutated_lines() {
    // Direct `handle_line` fuzz: a panic here fails the test on the
    // spot; every response must itself be valid JSON with an `ok` bool.
    let state = ServeState::new(&ServeConfig {
        threads: 1,
        cache_bytes: 1 << 20,
        max_insns: 100_000, // cap simulation: fuzz may form valid runs
        ..ServeConfig::default()
    });
    let mut rng = Rng64::seed_from_u64(0xF022_0001);
    for i in 0..fuzz::iters(300) {
        let line = mutate(&mut rng);
        let request = fuzz::check(i, &*line, parse_request);
        let resp = handle_line(&state, &line, None);
        let parsed = rtdc_serve::json::parse(&resp)
            .unwrap_or_else(|e| panic!("iter {i}: response not JSON ({e}): {resp}\nline: {line}"));
        assert!(
            parsed.get("ok").and_then(Json::as_bool).is_some(),
            "iter {i}: response missing ok: {resp}"
        );
        if parsed.get("ok").and_then(Json::as_bool) == Some(false) {
            let kind = parsed.get("error").and_then(Json::as_str);
            assert!(kind.is_some(), "iter {i}: error response untyped: {resp}");
        }
        // A line the parser rejects is answered with that very error.
        if let Err(e) = request {
            let kind = parsed.get("error").and_then(Json::as_str);
            assert_eq!(kind, Some(e.kind()), "iter {i}: {resp}");
        }
    }
}

/// A request whose one number sits past a 32- or 64-bit field is
/// rejected with a typed error or kept exactly: the parsed request
/// still carries the number as given (a field value, a name or plan
/// text), never a rounding or truncation of it.
#[test]
fn boundary_numbers_in_requests_are_kept_or_rejected() {
    let mut rng = Rng64::seed_from_u64(0xF022_0005);
    for i in 0..fuzz::iters(300) {
        let mut bytes = rng.choose(&CORPUS).as_bytes().to_vec();
        let Some(value) = fuzz::boundary(&mut rng, &mut bytes) else {
            continue;
        };
        let line = String::from_utf8_lossy(&bytes);
        if let Ok(req) = fuzz::check(i, &*line, parse_request) {
            let parsed = format!("{req:?}");
            assert!(
                parsed.contains(&value.to_string()),
                "iter {i}: {line:?} parsed as {parsed}"
            );
        }
    }
}

#[test]
fn socket_survives_fuzz_and_stays_responsive() {
    let path = std::env::temp_dir().join(format!("rtdc-serve-fuzz-{}.sock", std::process::id()));
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 2,
            cache_bytes: 1 << 20,
            max_insns: 100_000,
            ..ServeConfig::default()
        },
    )
    .expect("start server");

    let mut rng = Rng64::seed_from_u64(0xF022_0002);
    let mut c = Client::connect(&path).expect("connect");
    for i in 0..fuzz::iters(200) {
        let line = mutate(&mut rng);
        let resp = c
            .request_raw(&line)
            .unwrap_or_else(|e| panic!("iter {i}: connection wedged: {e}\nline: {line}"));
        assert!(
            rtdc_serve::json::parse(&resp).is_ok(),
            "iter {i}: non-JSON response: {resp}"
        );
        // Interleave a known-good request: the pool must stay live the
        // whole time, not just at the end.
        if i % 25 == 0 {
            let ok = c.request(r#"{"op":"stats"}"#).expect("stats mid-fuzz");
            assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        }
    }

    // After the storm: real work still flows end to end.
    let resp = c
        .request(r#"{"op":"run","bench":"sort","scheme":"d","max_insns":100000}"#)
        .expect("post-fuzz run");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "pool wedged after fuzzing"
    );
    drop(server);
}

#[test]
fn oversized_lines_are_rejected_without_buffering_or_wedging() {
    let path =
        std::env::temp_dir().join(format!("rtdc-serve-oversize-{}.sock", std::process::id()));
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 2,
            cache_bytes: 1 << 20,
            max_insns: 100_000,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(&path).expect("connect");

    // A line just over the cap: typed rejection.
    let big = format!(
        r#"{{"op":"build","bench":"sort","scheme":"{}"}}"#,
        "x".repeat(MAX_LINE_BYTES)
    );
    let resp = c.request_raw(&big).expect("oversized request");
    assert!(
        resp.contains(r#""error":"oversized-line""#),
        "expected oversized-line rejection: {}",
        &resp[..resp.len().min(200)]
    );

    // A line just under the cap: parses (and is rejected for its
    // content, not its size).
    let padding = "y".repeat(MAX_LINE_BYTES - 64);
    let near = format!(r#"{{"op":"build","bench":"sort","scheme":"{padding}"}}"#);
    assert!(near.len() <= MAX_LINE_BYTES, "test arithmetic off");
    let resp = c.request_raw(&near).expect("near-cap request");
    assert!(
        resp.contains(r#""error":"unknown-scheme""#),
        "near-cap line must be parsed on its merits: {}",
        &resp[..resp.len().min(200)]
    );

    // Same connection, still healthy.
    let resp = c
        .request(r#"{"op":"stats"}"#)
        .expect("stats after oversize");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    drop(server);
}

#[test]
fn store_file_decode_never_panics_on_mutated_bytes() {
    // Every harness mutant of a valid store file must come back as a
    // typed `StoreError` from the envelope check and the full decode —
    // never a panic, never a silently-accepted mutant.
    let key = CacheKey {
        bench: "sort".into(),
        label: "d+rf".into(),
        plan_digest: 0xF025,
    };
    let program = rtdc_workloads::resolve_program("sort").expect("known-answer program");
    let pristine = ImageSpec::Uniform {
        scheme: Scheme::Dictionary,
        rf: true,
    }
    .build(&program)
    .expect("build");
    let baseline = encode_store_file(&key, &pristine).expect("encodes");
    // Sanity: the pristine file round-trips.
    let (k, img) = decode_store_file(&baseline).expect("pristine file decodes");
    assert_eq!(
        (k, encode_image(&img)),
        (key.clone(), encode_image(&pristine))
    );

    let mut rng = Rng64::seed_from_u64(0xF022_0003);
    let mut rejected = 0;
    let iters = fuzz::iters(400);
    for i in 0..iters {
        let mut bytes = baseline.clone();
        fuzz::mutate(&mut rng, &mut bytes, &[]);
        // Both entry points must fail typed — a mutant that still
        // passes the whole-file CRC *and* decodes *and* verifies would
        // be a silent acceptance unless it decodes to the same image.
        let outcome = fuzz::check(i, &bytes, |b: &Vec<u8>| {
            let full = decode_store_file(b).map(|(k, img)| (k, encode_image(&img)));
            (check_envelope(b).map(|(k, _)| k), full)
        });
        match outcome {
            (Err(e), Err(f)) => {
                // Typed both ways; `kind` is the taxonomy CI greps for.
                assert!(!e.kind().is_empty() && !f.kind().is_empty());
                rejected += 1;
            }
            (Ok(k), Ok((k2, image))) => {
                // Only a semantically invisible mutation may pass (CRC32
                // collisions are possible in theory, but the decoded
                // result must still be *correct*).
                assert_eq!((&k, &k2), (&key, &key), "iter {i}: mutant changed the key");
                assert_eq!(
                    image,
                    encode_image(&pristine),
                    "iter {i}: mutant image differs"
                );
            }
            (env, full) => panic!(
                "iter {i}: envelope and decode disagree: {env:?} vs {:?}",
                full.map(|(k, _)| k)
            ),
        }
    }
    assert!(
        rejected >= iters * 9 / 10,
        "mutation family too weak: only {rejected}/{iters} rejected"
    );
}
