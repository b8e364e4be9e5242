//! Property-based tests (proptest) on the sweep service's request parser.
//!
//! `service::proto::Request::parse` reads whatever a TCP peer sends, so
//! its contract under hostile input is: never panic, answer garbage with
//! an `Err` the server turns into an error reply, and keep no state — a
//! valid line after any amount of garbage parses to exactly what was
//! encoded.  The inputs mirror what the journal loader's tests use
//! (`runner::supervisor`): raw bytes, valid lines cut short, and valid
//! lines with fields duplicated or garbled.

use ecgrid_suite::service::proto::{scenario_hex_encode, FilterSpec, JobSpec, Request};
use proptest::prelude::*;

/// One request of every kind, shaped by the drawn scalars.
fn request(which: u8, n: u64, x: f64, text: &str) -> Request {
    match which % 7 {
        0 => Request::Ping,
        1 => Request::Submit(JobSpec {
            n_hosts: n % 500,
            max_speed: 0.5 + x,
            duration_secs: 10.0 + 100.0 * x,
            seed: n,
            replicas: 1 + n % 5,
            faults: "loss=0.1,churn=2".into(),
            scenario: if n.is_multiple_of(2) {
                String::new()
            } else {
                scenario_hex_encode(text)
            },
            ..JobSpec::default()
        }),
        2 => Request::Status {
            job: (!n.is_multiple_of(3)).then_some(n),
        },
        3 => Request::Subscribe {
            job: n,
            filter: FilterSpec {
                layers: "mac,route".into(),
                node: Some(n as u32),
                cell: Some((-(n as i32 % 9), 4)),
                protocol: Some("ECGRID".into()),
            },
        },
        4 => Request::Result { config: n, seed: !n },
        5 => Request::Stats,
        _ => Request::Shutdown,
    }
}

proptest! {
    /// Arbitrary bytes — decoded the way the server's line reader hands
    /// them over, or lossily — parse to something or to an error.
    #[test]
    fn arbitrary_bytes_never_panic_the_request_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let lossy = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&lossy);
        let _ = Request::parse(lossy.trim());
        // bytes that look like the protocol up to a point
        let _ = Request::parse(&format!("{{\"cmd\":\"submit\",\"n_hosts\":{lossy}}}"));
        let _ = Request::parse(&format!("{{\"cmd\":\"{lossy}"));
    }

    /// A valid line cut anywhere parses or errors; a valid line with a
    /// field duplicated or overwritten with junk parses or errors; and
    /// the untouched line after them still round-trips exactly.
    #[test]
    fn truncated_duplicated_and_garbled_requests_are_answered_not_fatal(
        which in 0u8..7,
        n in any::<u64>(),
        x in 0.0..1.0f64,
        junk in proptest::collection::vec(any::<u8>(), 0..40),
        cut in 0.0..1.0f64,
    ) {
        let junk = String::from_utf8_lossy(&junk).into_owned();
        let req = request(which, n, x, &junk);
        let line = req.encode();
        // the wire is ASCII by construction (`json::esc`, hex, numbers),
        // so any byte offset is a char boundary — except inside junk
        let mut at = (cut * line.len() as f64) as usize;
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let _ = Request::parse(&line[..at]);
        let _ = Request::parse(&line[at..]);
        for key in ["cmd", "job", "seed", "n_hosts", "config", "scenario", "layers"] {
            let pat = format!("\"{key}\":");
            if let Some(pos) = line.find(&pat) {
                let end = pos + pat.len();
                // the field twice, and the field with junk for a value
                let _ = Request::parse(&format!("{}{pat}7,{}", &line[..pos], &line[pos..]));
                let _ = Request::parse(&format!("{}{junk}{}", &line[..end], &line[end..]));
            }
        }
        prop_assert_eq!(Request::parse(&line), Ok(req));
        // a `subscribe` axis that is present but unusable — out of the
        // field's range, garbled, or half a cell — is an error, never a
        // narrower or an absent filter
        let wide = u64::from(u32::MAX) + 1 + n % (1 << 31);
        for axes in [
            format!("\"node\":{wide}"),
            format!("\"node\":\"n{}\"", n % 97),
            format!("\"cell_x\":{wide},\"cell_y\":0"),
            format!("\"cell_x\":0,\"cell_y\":-{wide}"),
            format!("\"cell_x\":{}", n % 9),
            format!("\"cell_y\":{}", n % 9),
        ] {
            let hostile = format!("{{\"cmd\":\"subscribe\",\"job\":{n},{axes}}}");
            let refused = Request::parse(&hostile);
            prop_assert!(
                matches!(&refused, Err(e) if e.starts_with("bad field ")),
                "{} parsed to {:?}", hostile, refused
            );
        }
    }
}
