//! Golden outputs: the simulator's observable bytes, pinned.
//!
//! Every case runs one pattern under one paradigm at 16 ports, with no
//! faults and under the fault plan below, and produces the four files
//! `simulate --json --trace X.jsonl --report R.json` and `analyze
//! X.jsonl --report` write: the statistics JSON, the JSONL trace, the
//! live report and the report replayed from the JSONL. Each case runs
//! twice, with the idle skip on and off (`--no-idle-skip`); both runs
//! must produce the same bytes, and so must the live and replayed
//! reports.
//!
//! `tests/golden/manifest.txt` holds one line per output: its name, its
//! byte length and its 128-bit FNV-1a hash. On a mismatch the test
//! writes the actual bytes of every differing output, and a regenerated
//! manifest, under `golden/` in Cargo's integration-test temporary
//! directory. Blessing an intended change means copying that manifest
//! over `tests/golden/manifest.txt` and naming the changed outputs, and
//! why they changed, in CHANGES.md.

use pms::analyze::{build_report, parse_jsonl, ReportConfig};
use pms::faults::FaultPlan;
use pms::sim::{Paradigm, PredictorKind, RunSpec, SimParams};
use pms::trace::{write_jsonl, SnapshotConfig, Tracer, DEFAULT_WINDOW_SLOTS};
use pms::workloads::{build_pattern, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const PORTS: usize = 16;
const BYTES: u32 = 256;
const SEED: u64 = 17;

/// One healed link outage and a dropped grant window, touching both the
/// NIC retry path and the scheduler's grant path.
const FAULT_PLAN: &str = "\
retry budget=2 base=100 max=1000
link-down start=500 dur=2000 src=1 dst=2
grant-drop start=0 dur=40000 src=0 dst=3
";

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
    let params = SimParams::default().with_ports(PORTS).with_tdm_slots(4);
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

/// 128-bit FNV-1a.
fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u128::from(b)).wrapping_mul(PRIME))
}

fn manifest_line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:032x}", bytes.len(), fnv1a128(bytes))
}

fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden")
}

const FILES: [&str; 4] = ["stats.json", "trace.jsonl", "report.json", "replay.json"];

/// The four output files of one run, in `FILES` order. `tag` names the
/// run's scratch JSONL file.
fn run_outputs(spec: RunSpec, tag: &str) -> [Vec<u8>; 4] {
    let snapshots = SnapshotConfig::per_slots(spec.params.slot_ns, DEFAULT_WINDOW_SLOTS);
    let tracer = Tracer::pipeline(snapshots, None, Tracer::vec());
    let (stats, mut tracer) = spec.validate().expect("valid run").run(tracer);
    tracer.finish().expect("in-memory tracer");
    let records = tracer.records();

    let jsonl_path = scratch_dir().join(format!("run-{tag}.jsonl"));
    write_jsonl(&jsonl_path, &records).expect("write JSONL");
    let jsonl = std::fs::read(&jsonl_path).expect("read JSONL");
    std::fs::remove_file(&jsonl_path).ok();

    let cfg = ReportConfig::default();
    let live = build_report(&records, &cfg).to_json().render_pretty();
    let text = std::str::from_utf8(&jsonl).expect("UTF-8 JSONL");
    let replay = match parse_jsonl(text) {
        Ok(replayed) => build_report(&replayed.records, &cfg)
            .to_json()
            .render_pretty(),
        Err(e) => format!("the JSONL does not replay: {e}\n"),
    };
    [
        format!("{}\n", stats.to_json().render_pretty()).into_bytes(),
        jsonl,
        live.into_bytes(),
        replay.into_bytes(),
    ]
}

/// Every golden output, named, in manifest order, and the pairs of
/// outputs that must agree but do not: the live report and its JSONL
/// replay, and each output with the idle skip on and off.
fn outputs() -> (Vec<(String, Vec<u8>)>, Vec<String>) {
    let workloads: Vec<Workload> = PATTERNS
        .iter()
        .map(|p| build_pattern(p, PORTS, BYTES, None, SEED).expect("valid pattern"))
        .collect();
    let mut out = Vec::new();
    let mut disagree = Vec::new();
    for (case, spec) in specs(&workloads) {
        let stepped = RunSpec {
            params: spec.params.clone().with_idle_skip(false),
            ..spec.clone()
        };
        let skipped = run_outputs(spec, &case);
        let stepped = run_outputs(stepped, &format!("{case}.stepped"));
        if skipped[2] != skipped[3] {
            disagree.push(format!(
                "{case}: the live report differs from the JSONL replay"
            ));
        }
        for (file, (skip, step)) in FILES.iter().zip(skipped.into_iter().zip(stepped)) {
            if skip != step {
                disagree.push(format!("{case}: {file} differs with the idle skip off"));
            }
            out.push((format!("{case}.stepped.{file}"), step));
            out.push((format!("{case}.{file}"), skip));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    (out, disagree)
}

#[test]
fn simulator_outputs_match_the_golden_manifest() {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("create the golden scratch directory");
    let (outputs, disagree) = outputs();
    let mut regenerated = String::new();
    for (name, bytes) in &outputs {
        writeln!(regenerated, "{}", manifest_line(name, bytes)).expect("write to String");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest.txt");
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    if committed == regenerated && disagree.is_empty() {
        return;
    }
    let expected: Vec<&str> = committed.lines().collect();
    let mut differing = Vec::new();
    for (name, bytes) in &outputs {
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
