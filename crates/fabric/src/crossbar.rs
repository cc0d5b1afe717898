//! The crossbar fabric: the paper's baseline topology.

use crate::Technology;
use pms_bitmat::BitMatrix;

/// An `N x N` crossbar. Any partial permutation is realizable, so the only
/// configuration constraint is "at most one non-zero entry in each row and
/// at most one non-zero entry in each column" (§4).
#[derive(Debug, Clone)]
pub struct Crossbar {
    ports: usize,
    technology: Technology,
}

impl Crossbar {
    /// Creates an `n x n` crossbar built from the given technology.
    pub fn new(n: usize, technology: Technology) -> Self {
        assert!(n > 0, "crossbar needs at least one port");
        Self {
            ports: n,
            technology,
        }
    }

    /// Number of input ports (== output ports).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The physical technology of this crossbar.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Whether `config` can be loaded: a partial permutation.
    ///
    /// # Panics
    /// Panics if the matrix dimensions don't match the port count.
    pub fn is_valid(&self, config: &BitMatrix) -> bool {
        assert!(
            config.rows() == self.ports && config.cols() == self.ports,
            "configuration is {}x{} but fabric has {} ports",
            config.rows(),
            config.cols(),
            self.ports
        );
        config.is_partial_permutation()
    }

    /// Human-readable fabric name for reports.
    pub fn name(&self) -> &'static str {
        match self.technology {
            Technology::Digital => "crossbar/digital",
            Technology::Lvds => "crossbar/lvds",
            Technology::Optical => "crossbar/optical",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_partial_permutations() {
        let xb = Crossbar::new(8, Technology::Lvds);
        assert!(xb.is_valid(&BitMatrix::square(8)));
        assert!(xb.is_valid(&BitMatrix::identity(8)));
        assert!(xb.is_valid(&BitMatrix::from_pairs(8, 8, [(0, 7), (7, 0)])));
    }

    #[test]
    fn rejects_port_conflicts() {
        let xb = Crossbar::new(8, Technology::Lvds);
        // Two inputs to one output.
        assert!(!xb.is_valid(&BitMatrix::from_pairs(8, 8, [(0, 3), (1, 3)])));
        // One input to two outputs.
        assert!(!xb.is_valid(&BitMatrix::from_pairs(8, 8, [(2, 0), (2, 1)])));
    }

    #[test]
    #[should_panic(expected = "fabric has 8 ports")]
    fn rejects_wrong_dimensions() {
        let xb = Crossbar::new(8, Technology::Digital);
        xb.is_valid(&BitMatrix::square(4));
    }

    #[test]
    fn delay_follows_technology() {
        let delay = |t| Crossbar::new(4, t).technology().propagation_delay_ns();
        assert_eq!(delay(Technology::Digital), 10);
        assert_eq!(delay(Technology::Lvds), 0);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        Crossbar::new(0, Technology::Digital);
    }
}
