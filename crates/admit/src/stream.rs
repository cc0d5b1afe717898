//! The line-delimited request protocol (`--from-file` / stdin ingestion).
//!
//! One request per line:
//!
//! ```text
//! req <t_ns> <tenant> <src> <dst> [bytes]
//! ```
//!
//! `bytes` defaults to 64. Blank lines and `#` comments are skipped.
//! Requests must be non-decreasing in `t_ns` (the engine's virtual clock
//! only moves forward); violations are parse errors so a malformed feed
//! fails loudly instead of producing a skewed decision stream.

use std::fmt;

use pms_workloads::ConnRequest;

/// A parse failure, with the 1-based line it happened on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for StreamError {}

/// Renders a request in the line format [`parse_requests`] reads.
pub fn format_request(r: &ConnRequest) -> String {
    format!(
        "req {} {} {} {} {}",
        r.t_ns, r.tenant, r.src, r.dst, r.bytes
    )
}

/// Parses a whole feed (see the module docs for the grammar) for a
/// crossbar of `ports` ports: `src` and `dst` must lie below it.
pub fn parse_requests(text: &str, ports: usize) -> Result<Vec<ConnRequest>, StreamError> {
    let mut out = Vec::new();
    let mut last_t = 0u64;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let err = |msg: String| StreamError { line, msg };
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut fields = body.split_whitespace();
        let keyword = fields.next().expect("non-empty line has a field");
        if keyword != "req" {
            return Err(err(format!("expected 'req', got '{keyword}'")));
        }
        let mut num = |name: &str| -> Result<u64, StreamError> {
            let field = fields
                .next()
                .ok_or_else(|| err(format!("missing field '{name}'")))?;
            field
                .parse::<u64>()
                .map_err(|_| err(format!("field '{name}' is not a number: '{field}'")))
        };
        let t_ns = num("t_ns")?;
        let tenant = num("tenant")?;
        let src = num("src")?;
        let dst = num("dst")?;
        let bytes = match fields.next() {
            Some(field) => field
                .parse::<u64>()
                .map_err(|_| err(format!("field 'bytes' is not a number: '{field}'")))?,
            None => 64,
        };
        if let Some(extra) = fields.next() {
            return Err(err(format!("trailing field '{extra}'")));
        }
        for (name, value) in [
            ("tenant", tenant),
            ("src", src),
            ("dst", dst),
            ("bytes", bytes),
        ] {
            if value > u32::MAX as u64 {
                return Err(err(format!("field '{name}' overflows u32: {value}")));
            }
        }
        for (name, port) in [("src", src), ("dst", dst)] {
            if port >= ports as u64 {
                return Err(err(format!(
                    "field '{name}' is port {port}, but the crossbar has {ports} ports"
                )));
            }
        }
        if t_ns < last_t {
            return Err(err(format!(
                "t_ns {t_ns} goes backwards (previous request at {last_t})"
            )));
        }
        last_t = t_ns;
        out.push(ConnRequest {
            t_ns,
            tenant: tenant as u32,
            src: src as u32,
            dst: dst as u32,
            bytes: bytes as u32,
        });
    }
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
            ("req 0 0 1\n", 1, "missing field"),
            ("req 0 0 1 2\nsend 5 0 1 2\n", 2, "expected 'req'"),
            ("req 0 0 1 2\nreq 0 0 x 2\n", 2, "not a number"),
            ("req 100 0 1 2\nreq 50 0 1 2\n", 2, "goes backwards"),
            ("req 0 0 1 2 64 9\n", 1, "trailing field"),
            ("req 0 5000000000 1 2\n", 1, "overflows u32"),
            (
                "req 0 0 1 2\nreq 5 0 4 2\n",
                2,
                "field 'src' is port 4, but the crossbar has 4 ports",
            ),
            ("req 0 0 0 99 64\n", 1, "field 'dst' is port 99"),
        ];
        for (text, line, needle) in cases {
            let e = parse_requests(text, 4).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.msg.contains(needle), "{e} !~ {needle}");
        }
    }
}
