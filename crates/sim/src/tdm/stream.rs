//! The preloaded-stream backend of [`TdmSim`](super::TdmSim).
//!
//! Compiled communication (§3.1) and cost-aware schedules flow through
//! the `K` registers as a sliding window over a configuration stream: a
//! register is rewritten, at the cost of one control transaction, as soon
//! as all traffic assigned to its configuration has drained.

use crate::message::MsgState;
use pms_bitmat::BitMatrix;
use pms_compile::partition_phases;
use std::collections::BTreeSet;

/// A register holding one configuration of the stream.
#[derive(Debug, Clone, Copy)]
struct StreamSlot {
    config_idx: usize,
    ready_at: u64,
}

/// The register window over a configuration stream.
pub(super) struct Stream {
    registers: Vec<Option<StreamSlot>>,
    configs: Vec<BitMatrix>,
    /// Per message: the configuration carrying it.
    msg_config: Vec<usize>,
    /// Per configuration: messages not yet delivered or abandoned.
    remaining_per_config: Vec<usize>,
    next_config: usize,
    /// The register the TDM counter visited last.
    cursor: usize,
    /// Loaded pairs whose fault eviction was traced, awaiting the fault
    /// to clear.
    broken: BTreeSet<(usize, usize)>,
    /// Healed pairs awaiting their re-establish event on the next visit
    /// of a configuration containing them.
    healed: BTreeSet<(usize, usize)>,
}

impl Stream {
    /// Compiles the connection trace of `msgs`, the workload's message
    /// table (§3.1): partitions it into phases, edge-colors each phase
    /// into conflict-free configurations, and flattens them into one
    /// stream. Returns the stream and, per message, the configuration
    /// carrying its connection: the one configuration of the message's
    /// phase containing its pair (the coloring partitions the phase's
    /// working set).
    pub(super) fn compile(
        ports: usize,
        msgs: &[MsgState],
        k: usize,
    ) -> (Vec<BitMatrix>, Vec<usize>) {
        let trace: Vec<(usize, usize)> = msgs.iter().map(|m| (m.spec.src, m.spec.dst)).collect();
        let mut phases = partition_phases(ports, &trace, k)
            .phases
            .into_iter()
            .peekable();
        let mut configs: Vec<BitMatrix> = Vec::new();
        let mut msg_config = Vec::with_capacity(msgs.len());
        while let Some(phase) = phases.next() {
            let end = phases.peek().map_or(trace.len(), |p| p.first_event);
            let base = configs.len();
            msg_config.extend(trace[phase.first_event..end].iter().map(|&(u, v)| {
                let c = phase.configs.iter().position(|cfg| cfg.get(u, v));
                base + c.expect("phase covers its own connections")
            }));
            configs.extend(phase.configs);
        }
        (configs, msg_config)
    }

    /// Loads the first `k` configurations in order, one control
    /// transaction of `load_ns` each. Returns the stream and the number
    /// of loads.
    pub(super) fn new(
        configs: Vec<BitMatrix>,
        msg_config: Vec<usize>,
        k: usize,
        load_ns: u64,
    ) -> (Self, u64) {
        let mut remaining_per_config = vec![0usize; configs.len()];
        for &c in &msg_config {
            remaining_per_config[c] += 1;
        }
        let loaded = configs.len().min(k);
        let mut registers = vec![None; k];
        for (i, reg) in registers.iter_mut().take(loaded).enumerate() {
            *reg = Some(StreamSlot {
                config_idx: i,
                ready_at: (i as u64 + 1) * load_ns,
            });
        }
        let stream = Self {
            registers,
            configs,
            msg_config,
            remaining_per_config,
            next_config: loaded,
            cursor: 0,
            broken: BTreeSet::new(),
            healed: BTreeSet::new(),
        };
        (stream, loaded as u64)
    }

    /// The first configuration no message rides, if any: it would never
    /// retire and would stall the stream.
    pub(super) fn idle_config(&self) -> Option<usize> {
        self.remaining_per_config.iter().position(|&n| n == 0)
    }

    /// Configuration `c` of the stream.
    pub(super) fn config(&self, c: usize) -> &BitMatrix {
        &self.configs[c]
    }

    /// The resident configurations as `(register, ready_at, config)`.
    pub(super) fn resident(&self) -> impl Iterator<Item = (usize, u64, &BitMatrix)> {
        self.registers
            .iter()
            .enumerate()
            .filter_map(|(reg, slot)| slot.map(|s| (reg, s.ready_at, &self.configs[s.config_idx])))
    }

    /// Advances the TDM counter at `t` to the next register, round-robin
    /// after the last one visited, whose configuration is ready and
    /// non-empty. Returns `(register, configuration)`.
    pub(super) fn advance(&mut self, t: u64) -> Option<(usize, usize)> {
        let k = self.registers.len();
        let found = (1..=k)
            .map(|step| (self.cursor + step) % k)
            .find_map(|reg| {
                self.registers[reg]
                    .filter(|s| s.ready_at <= t && !self.configs[s.config_idx].all_zero())
                    .map(|s| (reg, s.config_idx))
            })?;
        self.cursor = found.0;
        Some(found)
    }

    /// Applies `n` idle slot boundaries before `stop` in closed form and
    /// returns the register the counter lands on. Eligibility is frozen
    /// across the window: [`idle_stop`](Self::idle_stop) capped it at the
    /// earliest future `ready_at`.
    pub(super) fn skip(&mut self, n: u64, stop: u64) -> Option<usize> {
        let eligible: Vec<usize> = (0..self.registers.len())
            .filter(|&reg| {
                self.registers[reg]
                    .is_some_and(|s| s.ready_at < stop && !self.configs[s.config_idx].all_zero())
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let m = eligible.len() as u64;
        let i0 = eligible.iter().position(|&r| r > self.cursor).unwrap_or(0) as u64;
        let last = eligible[((i0 + (n - 1) % m) % m) as usize];
        self.cursor = last;
        Some(last)
    }

    /// Caps an idle fast-forward from `t` to `stop` at the next register
    /// to become ready: that changes which configuration the TDM counter
    /// selects. `None` while a healed pair awaits its re-establish record.
    pub(super) fn idle_stop(&self, t: u64, stop: u64) -> Option<u64> {
        if !self.healed.is_empty() {
            return None;
        }
        Some(
            self.registers
                .iter()
                .flatten()
                .filter(|s| s.ready_at > t)
                .fold(stop, |stop, s| stop.min(s.ready_at)),
        )
    }

    /// Whether `msg` rides configuration `c`: earlier-phase traffic on
    /// the same pair drains first, by stream order.
    pub(super) fn carries(&self, msg: usize, c: usize) -> bool {
        self.msg_config[msg] == c
    }

    /// Message `msg` left the stream at `t`, delivered or abandoned. Once
    /// its configuration has drained, the register takes the next pending
    /// configuration, ready one control transaction of `load_ns` later,
    /// or empties. Returns `(register, configuration)` for a newly loaded
    /// one.
    pub(super) fn retire(&mut self, msg: usize, t: u64, load_ns: u64) -> Option<(usize, usize)> {
        let c = self.msg_config[msg];
        self.remaining_per_config[c] -= 1;
        if self.remaining_per_config[c] > 0 {
            return None;
        }
        let reg = self
            .registers
            .iter()
            .position(|r| r.map(|s| s.config_idx) == Some(c))
            .expect("finished config must be loaded");
        if self.next_config == self.configs.len() {
            self.registers[reg] = None;
            return None;
        }
        let next = self.next_config;
        self.registers[reg] = Some(StreamSlot {
            config_idx: next,
            ready_at: t + load_ns,
        });
        self.next_config += 1;
        Some((reg, next))
    }

    /// A grant-blocking fault opened on `(u, v)`: returns the register
    /// whose loaded configuration carries the pair, unless none does or
    /// an overlapping fault already tore it down.
    pub(super) fn break_pair(&mut self, u: usize, v: usize) -> Option<usize> {
        if self.broken.contains(&(u, v)) {
            return None;
        }
        let reg = self
            .registers
            .iter()
            .position(|r| r.map(|s| self.configs[s.config_idx].get(u, v)) == Some(true))?;
        self.broken.insert((u, v));
        self.healed.remove(&(u, v));
        Some(reg)
    }

    /// The fault on `(u, v)` cleared: the pair re-joins the fabric on the
    /// next visit of a resident configuration containing it.
    pub(super) fn heal_pair(&mut self, u: usize, v: usize) {
        if self.broken.remove(&(u, v)) {
            self.healed.insert((u, v));
        }
    }

    /// The healed pairs among `pairs` (the configuration driving the
    /// crossbar now), which re-join the fabric with this visit.
    pub(super) fn rejoined(&mut self, pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
        if self.healed.is_empty() {
            return Vec::new();
        }
        pairs
            .iter()
            .copied()
            .filter(|p| self.healed.remove(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::{ordered_mesh, scatter, two_phase, uniform, MeshSpec, Workload};
    use std::collections::BTreeMap;

    /// Every message rides a configuration of its own phase that contains
    /// its pair, and each pair's assignment is non-decreasing in message
    /// order (the `with_config_stream` precondition against deadlock).
    #[test]
    fn compiled_msg_config_is_in_phase_and_monotone_per_pair() {
        let mesh = MeshSpec::for_ports(16);
        let workloads: [Workload; 4] = [
            scatter(16, 64),
            ordered_mesh(mesh, 64, 4, 500, 100),
            two_phase(mesh, 64, 4, 500, 100, 11),
            uniform(16, 64, 12, 3),
        ];
        for w in &workloads {
            let msgs: Vec<MsgState> = w.message_table().into_iter().map(MsgState::new).collect();
            let trace = w.connection_trace();
            for k in [1, 2, 4] {
                let (configs, msg_config) = Stream::compile(16, &msgs, k);
                assert_eq!(msg_config.len(), msgs.len());
                let program = partition_phases(16, &trace, k);
                let bases: Vec<usize> = program
                    .phases
                    .iter()
                    .scan(0, |base, p| {
                        Some(std::mem::replace(base, *base + p.degree()))
                    })
                    .collect();
                let total: usize = program.phases.iter().map(|p| p.degree()).sum();
                assert_eq!(total, configs.len(), "{} K={k}", w.name);
                let mut last_on_pair = BTreeMap::new();
                for (id, (&c, &(u, v))) in msg_config.iter().zip(&trace).enumerate() {
                    assert!(configs[c].get(u, v), "{} K={k}: message {id}", w.name);
                    let phase = program.phases.partition_point(|p| p.first_event <= id) - 1;
                    let in_phase = bases[phase]..bases[phase] + program.phases[phase].degree();
                    assert!(in_phase.contains(&c), "{} K={k}: message {id}", w.name);
                    if let Some(prev) = last_on_pair.insert((u, v), c) {
                        assert!(prev <= c, "{} K={k}: pair ({u},{v}) regressed", w.name);
                    }
                }
            }
        }
    }
}
