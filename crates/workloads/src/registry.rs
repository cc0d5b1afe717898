//! The one table from a pattern name to its workload, shared by every
//! command-line tool that takes `--pattern` (`simulate`, `admit`) or a
//! pattern name (`dump_cmdfiles`), so one name always means one traffic.

use crate::patterns::{
    butterfly, gather, hotspot, ordered_mesh, permutation, random_mesh, ring, scatter, stencil3d,
    transpose, two_phase, uniform, MeshSpec,
};
use crate::workload::Workload;
use std::fmt;

/// Every name [`build_pattern`] accepts.
#[rustfmt::skip]
pub const PATTERNS: [&str; 12] = [
    "scatter", "gather", "ring", "uniform", "hotspot", "permutation", "butterfly", "transpose",
    "stencil3d", "ordered-mesh", "random-mesh", "two-phase",
];

/// The seed of the seeded patterns when the caller names none, so that a
/// pattern's command files and a direct run of it draw the same traffic.
pub const DEFAULT_SEED: u64 = 17;

/// Why [`build_pattern`] cannot build a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// No pattern has this name.
    Unknown(String),
    /// A port count the pattern cannot take.
    Ports {
        /// The pattern.
        pattern: &'static str,
        /// What it needs, e.g. "a square port count".
        need: String,
        /// The port count asked for.
        ports: usize,
    },
    /// A mesh pattern on a port count with no 2D mesh.
    Mesh {
        /// The pattern.
        pattern: &'static str,
        /// [`MeshSpec::try_for_ports`]'s reason.
        reason: String,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unknown(name) => {
                write!(
                    f,
                    "unknown pattern `{name}`; patterns: {}",
                    PATTERNS.join(" ")
                )
            }
            Self::Ports {
                pattern,
                need,
                ports,
            } => write!(f, "--pattern {pattern} needs {need}, got --ports {ports}"),
            Self::Mesh { pattern, reason } => write!(f, "--pattern {pattern}: {reason}"),
        }
    }
}

impl std::error::Error for PatternError {}

/// Builds the pattern `name` on `ports` processors with `bytes`-byte
/// messages, or says why `ports` does not fit it. `messages` sets the
/// per-processor message count of `uniform` and `hotspot` (default 16)
/// and the round count of `permutation` (default 8); `seed` seeds the
/// random patterns.
pub fn build_pattern(
    name: &str,
    ports: usize,
    bytes: u32,
    messages: Option<usize>,
    seed: u64,
) -> Result<Workload, PatternError> {
    let Some(pattern) = PATTERNS.into_iter().find(|&p| p == name) else {
        return Err(PatternError::Unknown(name.to_string()));
    };
    let ports_error = |need: &str| {
        Err(PatternError::Ports {
            pattern,
            need: need.to_string(),
            ports,
        })
    };
    let min = if pattern == "hotspot" { 3 } else { 2 };
    if ports < min {
        return ports_error(&format!("at least {min} ports"));
    }
    let mesh =
        || MeshSpec::try_for_ports(ports).map_err(|reason| PatternError::Mesh { pattern, reason });
    Ok(match pattern {
        "scatter" => scatter(ports, bytes),
        "gather" => gather(ports, bytes),
        "ring" => ring(ports, bytes, 4),
        "uniform" => uniform(ports, bytes, messages.unwrap_or(16), seed),
        "hotspot" => hotspot(ports, bytes, messages.unwrap_or(16), 0.5, seed),
        "permutation" => permutation(ports, bytes, messages.unwrap_or(8), seed),
        "butterfly" if !ports.is_power_of_two() => return ports_error("a power-of-two port count"),
        "butterfly" => butterfly(ports, bytes),
        "transpose" => {
            let m = ports.isqrt();
            if m * m != ports {
                return ports_error("a square port count");
            }
            transpose(m, bytes, 2)
        }
        "stencil3d" => {
            let s = (ports as f64).cbrt().round() as usize;
            if s * s * s != ports {
                return ports_error("a cubic port count of at least 8");
            }
            stencil3d(s, s, s, bytes, 2)
        }
        "ordered-mesh" => ordered_mesh(mesh()?, bytes, 4, 500, 100),
        "random-mesh" => random_mesh(mesh()?, bytes, 4, 500, 100, seed),
        "two-phase" => two_phase(mesh()?, bytes, 16, 500, 100, seed),
        _ => unreachable!("every name in PATTERNS has an arm"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pattern_builds() {
        for name in PATTERNS {
            let ports = if name == "stencil3d" { 8 } else { 16 };
            let w = build_pattern(name, ports, 64, None, DEFAULT_SEED).unwrap();
            assert_eq!(w.ports, ports, "{name}");
            assert!(w.message_count() > 0, "{name}");
        }
    }

    #[test]
    fn messages_and_seed_reach_the_seeded_patterns() {
        let count = |name, messages| {
            build_pattern(name, 16, 64, messages, 3)
                .unwrap()
                .message_count()
        };
        assert_eq!(count("uniform", None), 16 * 16);
        assert_eq!(count("uniform", Some(4)), 16 * 4);
        assert_eq!(count("hotspot", Some(4)), 16 * 4);
        assert_eq!(count("permutation", Some(2)), 16 * 2);
        let trace = |seed| {
            build_pattern("uniform", 16, 64, None, seed)
                .unwrap()
                .connection_trace()
        };
        assert_eq!(trace(5), trace(5));
        assert_ne!(trace(5), trace(6));
    }

    #[test]
    fn each_error_names_the_geometry() {
        let err = |name, ports| {
            build_pattern(name, ports, 64, None, 1)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            err("bogus", 16),
            "unknown pattern `bogus`; patterns: scatter gather ring uniform hotspot \
             permutation butterfly transpose stencil3d ordered-mesh random-mesh two-phase"
        );
        assert_eq!(
            err("ring", 1),
            "--pattern ring needs at least 2 ports, got --ports 1"
        );
        assert_eq!(
            err("hotspot", 2),
            "--pattern hotspot needs at least 3 ports, got --ports 2"
        );
        assert_eq!(
            err("butterfly", 12),
            "--pattern butterfly needs a power-of-two port count, got --ports 12"
        );
        assert_eq!(
            err("transpose", 15),
            "--pattern transpose needs a square port count, got --ports 15"
        );
        assert_eq!(
            err("stencil3d", 50),
            "--pattern stencil3d needs a cubic port count of at least 8, got --ports 50"
        );
        assert_eq!(
            err("two-phase", 13),
            "--pattern two-phase: no 2D mesh for 13 processors"
        );
    }
}
