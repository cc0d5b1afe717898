//! Live fabric state: the configuration currently loaded into the device.

use crate::Crossbar;
use pms_bitmat::BitMatrix;

/// The runtime state of the passive crossbar: which configuration matrix
/// is currently driving the cross-points.
///
/// In the paper (Fig. 2), the scheduler copies one of the `K` configuration
/// registers into the fabric at each time-slot boundary; `FabricState` is
/// the destination of that copy. It also answers the data-path question the
/// simulator asks: "which output port is input `u` wired to right now?"
pub struct FabricState {
    fabric: Crossbar,
    current: BitMatrix,
    /// `routes[u] = Some(v)` iff input u is currently wired to output v.
    routes: Vec<Option<usize>>,
    reconfigurations: u64,
}

impl FabricState {
    /// Wraps a crossbar with an initially empty configuration.
    pub fn new(fabric: Crossbar) -> Self {
        let n = fabric.ports();
        Self {
            fabric,
            current: BitMatrix::square(n),
            routes: vec![None; n],
            reconfigurations: 0,
        }
    }

    /// The underlying crossbar.
    pub fn fabric(&self) -> &Crossbar {
        &self.fabric
    }

    /// Loads `config` into the fabric (the slot-boundary register copy).
    ///
    /// # Panics
    /// Panics if `config` is not realizable on this fabric — the scheduler
    /// must never emit an invalid configuration.
    pub fn load(&mut self, config: &BitMatrix) {
        assert!(
            self.fabric.is_valid(config),
            "scheduler emitted a configuration invalid for fabric {}",
            self.fabric.name()
        );
        self.current = config.clone();
        self.routes.fill(None);
        for (u, v) in config.iter_ones() {
            self.routes[u] = Some(v);
        }
        self.reconfigurations += 1;
    }

    /// The output port input `u` is wired to, if any.
    #[inline]
    pub fn route(&self, u: usize) -> Option<usize> {
        self.routes[u]
    }

    /// True if input `u` is currently wired to output `v`.
    #[inline]
    pub fn connects(&self, u: usize, v: usize) -> bool {
        self.routes[u] == Some(v)
    }

    /// The currently loaded configuration matrix.
    pub fn current(&self) -> &BitMatrix {
        &self.current
    }

    /// Number of `load` calls so far (reconfiguration counter).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technology;

    #[test]
    fn load_and_route() {
        let mut st = FabricState::new(Crossbar::new(4, Technology::Lvds));
        assert_eq!(st.route(0), None);
        let cfg = BitMatrix::from_pairs(4, 4, [(0, 2), (3, 1)]);
        st.load(&cfg);
        assert_eq!(st.route(0), Some(2));
        assert_eq!(st.route(3), Some(1));
        assert_eq!(st.route(1), None);
        assert!(st.connects(0, 2));
        assert!(!st.connects(0, 1));
        assert_eq!(st.reconfigurations(), 1);
    }

    #[test]
    fn reload_clears_previous_routes() {
        let mut st = FabricState::new(Crossbar::new(4, Technology::Lvds));
        st.load(&BitMatrix::from_pairs(4, 4, [(0, 2)]));
        st.load(&BitMatrix::from_pairs(4, 4, [(1, 3)]));
        assert_eq!(st.route(0), None);
        assert_eq!(st.route(1), Some(3));
        assert_eq!(st.reconfigurations(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid for fabric")]
    fn invalid_configuration_panics() {
        let mut st = FabricState::new(Crossbar::new(4, Technology::Digital));
        st.load(&BitMatrix::from_pairs(4, 4, [(0, 1), (2, 1)]));
    }
}
