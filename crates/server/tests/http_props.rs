//! Property tests over the HTTP request reader.
//!
//! Gated behind the off-by-default `proptest` feature so the default
//! workspace builds with zero network access:
//! `cargo test -p verifd --features proptest`.
//!
//! `http::read_request` is the first code every peer's bytes reach, so
//! on arbitrary input it must neither panic nor buffer more of the
//! request head than [`MAX_HEAD`] allows.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use verifd::http::{read_request, MAX_HEAD};

/// The reader's own buffer: it may pull this much past the bytes it
/// has parsed.
const READ_BUFFER: usize = 8 << 10;

/// Fragments rich in request-head structure: line ends, header
/// separators, request lines and `Content-Length` values, valid and not.
const FRAGMENTS: [&[u8]; 10] = [
    b"\r\n",
    b"\n",
    b": ",
    b" ",
    b"GET /healthz HTTP/1.1\r\n",
    b"POST /campaign HTTP/1.1\r\n",
    b"content-length: 3\r\n",
    b"Content-Length: 99999999999\r\n",
    b"content-length: x\r\n",
    b"\r\n\r\n",
];

/// Arbitrary request bytes: a sequence of structural fragments, single
/// raw bytes (invalid UTF-8 included) and long runs of one byte, which
/// cross the head cap inside a single line.
fn arb_request() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_vec()),
            any::<u8>().prop_map(|b| vec![b]),
            (0usize..2 * MAX_HEAD).prop_map(|n| vec![b'x'; n]),
        ],
        0..24,
    )
    .prop_map(|pieces| pieces.concat())
}

/// Where the request head ends in `bytes`: past the first blank line
/// that follows the request line (all of `bytes` if there is none).
fn head_len(bytes: &[u8]) -> usize {
    let mut start = 0;
    let mut first = true;
    while let Some(newline) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + newline];
        start += newline + 1;
        let blank = std::str::from_utf8(line).is_ok_and(|l| l.trim_end().is_empty());
        if !first && blank {
            return start;
        }
        first = false;
    }
    bytes.len()
}

proptest! {
    /// Arbitrary bytes parse or come back as an error; an accepted
    /// request's head fits the cap, and a head over the cap is refused
    /// after reading at most the cap plus one buffer.
    #[test]
    fn read_request_never_panics_or_buffers_past_the_cap(bytes in arb_request()) {
        let head = head_len(&bytes);
        // Reading advances the slice: what is gone is what was taken.
        let mut source = &bytes[..];
        let result = read_request(&mut source);
        let taken = bytes.len() - source.len();
        if let Ok(request) = &result {
            prop_assert!(head <= MAX_HEAD, "accepted a {head}-byte head");
            prop_assert!(taken <= head + request.body.len() + READ_BUFFER);
        }
        if head > MAX_HEAD {
            prop_assert!(result.is_err(), "accepted a {head}-byte head");
            prop_assert!(
                taken <= MAX_HEAD + READ_BUFFER,
                "read {taken} bytes of a {head}-byte head"
            );
        }
    }
}
