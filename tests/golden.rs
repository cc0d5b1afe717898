//! Golden outputs: the system's observable bytes, pinned.
//!
//! `tests/golden/manifest.txt` holds one line per output: its name, byte
//! length and 128-bit FNV-1a hash. Four families are pinned, each with
//! pairs that must agree:
//!
//! - simulator runs at 16 ports, clean and under `FAULT_PLAN`: the stats,
//!   JSONL trace and report `simulate --json --trace X.jsonl --report
//!   R.json` writes and the `analyze X.jsonl --report` replay, with the
//!   idle skip on and off (`.stepped.`); both runs agree byte for byte,
//!   and so do the live and replayed reports;
//! - the `results/*.json` of `fig4`, `fig5`, `schedopt` and `topology
//!   --quick` at 1 and at 2 threads, which agree;
//! - two `admit` runs: decisions, trace, report and (agreeing) replay;
//! - one `simulate --flight-recorder` run: its stats and dump.
//!
//! On a mismatch the test writes the actual bytes of every differing
//! output, and a regenerated manifest, under `golden/` in Cargo's
//! integration-test temporary directory. Blessing an intended change
//! means copying that manifest over `tests/golden/manifest.txt` and
//! naming the changed outputs, and why they changed, in CHANGES.md.

use pms::analyze::{build_report, parse_jsonl, ReportConfig};
use pms::faults::FaultPlan;
use pms::sim::{Paradigm, PredictorKind, RunSpec, SimParams, SimStats};
use pms::trace::{
    write_jsonl, AlertRules, FlightConfig, Json, SnapshotConfig, TraceRecord, Tracer,
    DEFAULT_WINDOW_SLOTS,
};
use pms::workloads::{build_pattern, ArrivalConfig, Workload};
use pms_admit::{AdmitConfig, AdmitEngine, Backpressure, PolicyKind, RateConfig};
use pms_bench::figures;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[path = "golden/pinned.rs"]
mod pinned;
use pinned::{manifest_line, FAULT_PLAN, FLIGHT_PLAN};

const PORTS: usize = 16;
const BYTES: u32 = 256;
const SEED: u64 = 17;

/// The simulator table's deadlock guard. The longest case ends at about
/// 60 µs, so a run that deadlocks panics in under a second instead of
/// stepping to the default 500 ms. No output depends on it.
const MAX_SIM_NS: u64 = 1_000_000;

const PATTERNS: [&str; 4] = ["scatter", "uniform", "ordered-mesh", "two-phase"];

/// `simulate --paradigm` names and the paradigms they select.
fn paradigms() -> [(&'static str, Paradigm); 5] {
    let predictor = PredictorKind::Drop;
    [
        ("wormhole", Paradigm::Wormhole),
        ("circuit", Paradigm::Circuit),
        ("dynamic", Paradigm::DynamicTdm(predictor)),
        ("preload", Paradigm::PreloadTdm),
        (
            "hybrid1",
            Paradigm::HybridTdm {
                preload_slots: 1,
                predictor,
            },
        ),
    ]
}

/// The golden table: each case's name and run, over `workloads` (one
/// per entry of `PATTERNS`). Hybrid preloads its registers from the
/// workload's configuration table, which only scatter provides.
fn specs(workloads: &[Workload]) -> Vec<(String, RunSpec<'_>)> {
    let mut params = SimParams::default().with_ports(PORTS).with_tdm_slots(4);
    params.max_sim_ns = MAX_SIM_NS;
    let mut specs = Vec::new();
    for (pattern, workload) in PATTERNS.iter().zip(workloads) {
        for (name, paradigm) in paradigms() {
            if name == "hybrid1" && *pattern != "scatter" {
                continue;
            }
            for (tag, plan) in [
                ("clean", FaultPlan::new()),
                ("faulted", FaultPlan::parse(FAULT_PLAN).expect("valid plan")),
            ] {
                let spec = RunSpec {
                    plan,
                    ..RunSpec::new(workload, params.clone(), paradigm.clone())
                };
                specs.push((format!("{pattern}.{name}.{tag}"), spec));
            }
        }
    }
    specs
}

fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden")
}

const FILES: [&str; 4] = ["stats.json", "trace.jsonl", "report.json", "replay.json"];

/// The pinned outputs, by name, and the pairs of them that must agree
/// but differ.
#[derive(Default)]
struct Golden {
    outputs: Vec<(String, Vec<u8>)>,
    disagree: Vec<String>,
}

impl Golden {
    fn pin(&mut self, name: String, bytes: Vec<u8>) {
        self.outputs.push((name, bytes));
    }

    fn agree(&mut self, a: String, b: String) {
        let bytes = |name: &str| match self.outputs.iter().find(|(n, _)| n == name) {
            Some((_, bytes)) => bytes,
            None => panic!("{name} is not pinned, so it cannot agree"),
        };
        if bytes(&a) != bytes(&b) {
            self.disagree.push(format!("{a} and {b}"));
        }
    }
}

/// The JSONL trace of `records`, their live report and the report
/// replayed from that JSONL. `tag` names the scratch JSONL file.
fn record_outputs(records: &[TraceRecord], tag: &str) -> [Vec<u8>; 3] {
    let jsonl_path = scratch_dir().join(format!("run-{tag}.jsonl"));
    write_jsonl(&jsonl_path, records).expect("write JSONL");
    let jsonl = std::fs::read(&jsonl_path).expect("read JSONL");
    std::fs::remove_file(&jsonl_path).ok();

    let cfg = ReportConfig::default();
    let live = build_report(records, &cfg).to_json().render_pretty();
    let text = std::str::from_utf8(&jsonl).expect("UTF-8 JSONL");
    let replay = match parse_jsonl(text) {
        Ok(replayed) => build_report(&replayed.records, &cfg)
            .to_json()
            .render_pretty(),
        Err(e) => format!("the JSONL does not replay: {e}\n"),
    };
    [jsonl, live.into_bytes(), replay.into_bytes()]
}

fn stats_json(stats: &SimStats) -> Vec<u8> {
    format!("{}\n", stats.to_json().render_pretty()).into_bytes()
}

/// The four output files of one simulator run, in `FILES` order.
fn run_outputs(spec: RunSpec, tag: &str) -> [Vec<u8>; 4] {
    let snapshots = SnapshotConfig::per_slots(spec.params.slot_ns, DEFAULT_WINDOW_SLOTS);
    let tracer = Tracer::pipeline(snapshots, None, Tracer::vec());
    let (stats, mut tracer) = spec.validate().expect("valid run").run(tracer);
    tracer.finish().expect("in-memory tracer");
    let [jsonl, live, replay] = record_outputs(&tracer.records(), tag);
    [stats_json(&stats), jsonl, live, replay]
}

fn simulator_outputs(golden: &mut Golden) {
    let workloads: Vec<Workload> = PATTERNS
        .iter()
        .map(|p| build_pattern(p, PORTS, BYTES, None, SEED).expect("valid pattern"))
        .collect();
    for (case, spec) in specs(&workloads) {
        let stepped = RunSpec {
            params: spec.params.clone().with_idle_skip(false),
            ..spec.clone()
        };
        for (run, spec) in [(case.clone(), spec), (format!("{case}.stepped"), stepped)] {
            for (file, bytes) in FILES.iter().zip(run_outputs(spec, &run)) {
                golden.pin(format!("{run}.{file}"), bytes);
            }
        }
        golden.agree(format!("{case}.report.json"), format!("{case}.replay.json"));
        for file in FILES {
            golden.agree(format!("{case}.{file}"), format!("{case}.stepped.{file}"));
        }
    }
}

/// The `results/*.json` document of each sweep's `--quick` grid.
fn sweep_outputs(golden: &mut Golden) {
    type Sweep = fn(usize) -> Json;
    let sweeps: [(&str, Sweep); 4] = [
        ("fig4", |t| figures::fig4(true, t).to_json()),
        ("fig5", |t| figures::fig5(true, t).to_json()),
        ("schedopt", |t| figures::schedopt(true, t).to_json()),
        ("topology", |t| figures::topology(true, t).to_json()),
    ];
    for (name, sweep) in sweeps {
        for threads in [1, 2] {
            let doc = sweep(threads).render_pretty().into_bytes();
            golden.pin(format!("{name}.threads{threads}.json"), doc);
        }
        golden.agree(
            format!("{name}.threads1.json"),
            format!("{name}.threads2.json"),
        );
    }
}

/// What `admit --pattern uniform --ports 16 --messages 16 --seed 17
/// --tenants T ... --trace X.jsonl --report R.json` writes, and the
/// `analyze X.jsonl --report` replay: a rate-limited FIFO run, and a
/// strict-priority run over an 8-entry queue that sheds its oldest entry.
fn admit_outputs(golden: &mut Golden) {
    let mut fifo = AdmitConfig::new(PORTS);
    fifo.rate = Some(RateConfig {
        rate_per_sec: 4_000_000,
        burst: 2,
    });
    let mut strict = AdmitConfig::new(PORTS);
    (strict.queue_cap, strict.backpressure) = (8, Backpressure::ShedOldest);
    for (cfg, policy, tenants, reject) in [
        (fifo, PolicyKind::Fifo, 2, "rate-limit"),
        (strict, PolicyKind::Strict, 4, "shed"),
    ] {
        let case = format!("admit.{}-{}", policy.name(), cfg.backpressure.name());
        let arrivals = ArrivalConfig {
            send_gap_ns: 100,
            tenants,
        };
        let requests = build_pattern("uniform", PORTS, 64, Some(16), SEED)
            .expect("valid pattern")
            .arrivals(&arrivals);
        let snapshots = SnapshotConfig::per_slots(cfg.epoch_ns, DEFAULT_WINDOW_SLOTS);
        let mut tracer = Tracer::pipeline(snapshots, None, Tracer::vec());
        let outcome = AdmitEngine::new(cfg, policy.build()).run(requests, &mut tracer);
        tracer.seal(outcome.end_ns, 0);
        let mut decisions = String::new();
        for d in &outcome.decisions {
            writeln!(decisions, "{}", d.render()).expect("write to String");
        }
        let need = format!("cause={reject}");
        assert!(
            decisions.contains("grant ") && decisions.contains(&need),
            "{case}"
        );
        golden.pin(format!("{case}.decisions.txt"), decisions.into_bytes());
        let files = ["trace.jsonl", "report.json", "replay.json"];
        for (file, bytes) in files.iter().zip(record_outputs(&tracer.records(), &case)) {
            golden.pin(format!("{case}.{file}"), bytes);
        }
        golden.agree(format!("{case}.report.json"), format!("{case}.replay.json"));
    }
}

/// What `simulate --pattern scatter --ports 8 --bytes 256 --paradigm
/// dynamic --slots 8 --faults FLIGHT_PLAN --flight-recorder D.jsonl --json`
/// writes: the statistics, and the dump that the default flight rules
/// trigger.
fn flight_outputs(golden: &mut Golden) {
    let workload = build_pattern("scatter", 8, BYTES, None, SEED).expect("valid pattern");
    let params = SimParams::default().with_ports(8).with_tdm_slots(8);
    let dump = scratch_dir().join("flight.jsonl");
    std::fs::remove_file(&dump).ok();
    let tracer = Tracer::pipeline(
        SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS),
        Some(AlertRules::default_flight()),
        Tracer::flight(dump.clone(), FlightConfig::default()),
    );
    let spec = RunSpec {
        plan: FaultPlan::parse(FLIGHT_PLAN).expect("valid plan"),
        ..RunSpec::new(&workload, params, Paradigm::DynamicTdm(PredictorKind::Drop))
    };
    let (stats, mut tracer) = spec.validate().expect("valid run").run(tracer);
    tracer.finish().expect("flush the dump");
    let dump = std::fs::read(&dump).expect("an abandoned message triggers a dump");
    assert!(dump.starts_with(b"{\"kind\":\"flight-trigger\""));
    golden.pin(
        "flight.scatter8.dynamic.stats.json".into(),
        stats_json(&stats),
    );
    golden.pin("flight.scatter8.dynamic.dump.jsonl".into(), dump);
}

#[test]
fn simulator_outputs_match_the_golden_manifest() {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("create the golden scratch directory");
    let mut golden = Golden::default();
    simulator_outputs(&mut golden);
    sweep_outputs(&mut golden);
    admit_outputs(&mut golden);
    flight_outputs(&mut golden);
    let (outputs, disagree) = (&mut golden.outputs, &golden.disagree);
    outputs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut regenerated = String::new();
    for (name, bytes) in outputs.iter() {
        writeln!(regenerated, "{}", manifest_line(name, bytes)).expect("write to String");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest.txt");
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    if committed == regenerated && disagree.is_empty() {
        return;
    }
    let expected: Vec<&str> = committed.lines().collect();
    let mut differing = Vec::new();
    for (name, bytes) in outputs.iter() {
        if !expected.contains(&manifest_line(name, bytes).as_str()) {
            std::fs::write(dir.join(name), bytes).expect("write the actual output");
            differing.push(name.as_str());
        }
    }
    let produced: Vec<&str> = outputs.iter().map(|(n, _)| n.as_str()).collect();
    let missing: Vec<&str> = expected
        .iter()
        .filter_map(|l| l.split(' ').next())
        .filter(|n| !produced.contains(n))
        .collect();
    let regenerated_path = dir.join("manifest.txt");
    std::fs::write(&regenerated_path, &regenerated).expect("write the regenerated manifest");
    panic!(
        "golden outputs differ from {}:\n  changed or new: {differing:?}\n  no longer produced: {missing:?}\n  \
         outputs that must agree but do not: {disagree:?}\n\
         actual bytes and a regenerated manifest are in {}",
        path.display(),
        regenerated_path.display()
    );
}
