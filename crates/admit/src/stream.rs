//! The line-delimited request protocol (`--from-file` / stdin ingestion).
//!
//! One request per line:
//!
//! ```text
//! req <t_ns> <tenant> <src> <dst> [bytes]
//! ```
//!
//! `bytes` defaults to 64. The feed is read by
//! [`pms_trace::cli::read_lines`]: blank lines are skipped and `#`
//! starts a comment.
//! Requests must be non-decreasing in `t_ns` (the engine's virtual clock
//! only moves forward); violations are parse errors so a malformed feed
//! fails loudly instead of producing a skewed decision stream.

use pms_trace::cli::{self, LineError, Words};
use pms_workloads::ConnRequest;

/// Renders a request in the line format [`parse_requests`] reads.
pub fn format_request(r: &ConnRequest) -> String {
    format!(
        "req {} {} {} {} {}",
        r.t_ns, r.tenant, r.src, r.dst, r.bytes
    )
}

/// Parses a whole feed (see the module docs for the grammar) for a
/// crossbar of `ports` ports: `src` and `dst` must lie below it and
/// differ, as in every other workload source.
pub fn parse_requests(text: &str, ports: usize) -> Result<Vec<ConnRequest>, LineError> {
    let mut out = Vec::new();
    let mut last_t = 0u64;
    cli::read_lines(text, |line| {
        let mut words = Words::new(line);
        words.keyword("req")?;
        let req = ConnRequest {
            t_ns: words.num("t_ns")?,
            tenant: words.num("tenant")?,
            src: words.num("src")?,
            dst: words.num("dst")?,
            bytes: words.num_or("bytes", 64)?,
        };
        words.finish()?;
        for (name, port) in [("src", req.src), ("dst", req.dst)] {
            if port as usize >= ports {
                return Err(format!(
                    "field '{name}' is port {port}, but the crossbar has {ports} ports"
                ));
            }
        }
        if req.src == req.dst {
            return Err(format!(
                "src and dst are both port {}: a port cannot send to itself",
                req.src
            ));
        }
        if req.t_ns < last_t {
            return Err(format!(
                "t_ns {} goes backwards (previous request at {last_t})",
                req.t_ns
            ));
        }
        last_t = req.t_ns;
        out.push(req);
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_defaults_and_explicit_bytes() {
        let text = "\
# warm-up
req 0 0 1 2
req 50 1 2 3 4096  # bulk
";
        let reqs = parse_requests(text, 4).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].bytes, 64, "bytes defaults to 64");
        assert_eq!(reqs[1].bytes, 4096);
        assert_eq!(reqs[1].tenant, 1);
    }

    #[test]
    fn roundtrips_through_format() {
        let reqs = vec![
            ConnRequest {
                t_ns: 0,
                tenant: 0,
                src: 1,
                dst: 2,
                bytes: 64,
            },
            ConnRequest {
                t_ns: 100,
                tenant: 3,
                src: 2,
                dst: 0,
                bytes: 256,
            },
        ];
        let text: String = reqs.iter().map(|r| format_request(r) + "\n").collect();
        assert_eq!(parse_requests(&text, 4).unwrap(), reqs);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("req 0 0 1\n", 1, "missing dst"),
            ("req 0 0 1 2\nsend 5 0 1 2\n", 2, "expected `req`"),
            ("req 0 0 1 2\nreq 0 0 x 2\n", 2, "invalid src `x`"),
            ("req 100 0 1 2\nreq 50 0 1 2\n", 2, "goes backwards"),
            ("req 0 0 1 2 64 9\n", 1, "unexpected trailing token `9`"),
            ("req 0 5000000000 1 2\n", 1, "invalid tenant `5000000000`"),
            ("req 0 0 1 2 4294967296\n", 1, "invalid bytes `4294967296`"),
            (
                "req 0 0 1 2\nreq 5 0 4 2\n",
                2,
                "field 'src' is port 4, but the crossbar has 4 ports",
            ),
            ("req 0 0 0 99 64\n", 1, "field 'dst' is port 99"),
            (
                "req 0 0 1 2\nreq 5 0 3 3\n",
                2,
                "src and dst are both port 3: a port cannot send to itself",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse_requests(text, 4).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.msg.contains(needle), "{e} !~ {needle}");
        }
    }
}
