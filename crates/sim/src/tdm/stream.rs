//! The preloaded-stream backend of [`TdmSim`](super::TdmSim).
//!
//! Compiled communication (§3.1) and cost-aware schedules flow through
//! the `K` registers as a sliding window over a configuration stream: a
//! register is rewritten, at the cost of one control transaction, as soon
//! as all traffic assigned to its configuration has drained.

use crate::message::MsgState;
use pms_bitmat::BitMatrix;
use pms_compile::partition_phases;
use pms_workloads::Workload;
use std::collections::{BTreeSet, HashMap};

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
    /// Compiles the workload's connection trace (§3.1): partitions it
    /// into phases, edge-colors each phase into conflict-free
    /// configurations, and flattens them into one stream. Returns the
    /// stream and, per message, the configuration carrying its
    /// connection.
    pub(super) fn compile(
        workload: &Workload,
        msgs: &[MsgState],
        k: usize,
    ) -> (Vec<BitMatrix>, Vec<usize>) {
        let trace = workload.connection_trace();
        let program = partition_phases(workload.ports, &trace, k);
        let mut configs: Vec<BitMatrix> = Vec::new();
        let mut conn_to_cfg: Vec<HashMap<(usize, usize), usize>> = Vec::new();
        for phase in &program.phases {
            let mut map = HashMap::new();
            for (ci, cfg) in phase.configs.iter().enumerate() {
                for (u, v) in cfg.iter_ones() {
                    map.insert((u, v), configs.len() + ci);
                }
            }
            configs.extend(phase.configs.iter().cloned());
            conn_to_cfg.push(map);
        }
        let mut pi = 0usize;
        let msg_config = msgs
            .iter()
            .enumerate()
            .map(|(id, m)| {
                while pi + 1 < program.phases.len() && program.phases[pi + 1].first_event <= id {
                    pi += 1;
                }
                *conn_to_cfg[pi]
                    .get(&(m.spec.src, m.spec.dst))
                    .expect("phase covers its own connections")
            })
            .collect();
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
