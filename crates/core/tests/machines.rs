//! Integration tests for the machine abstraction: `.gmach` datasheet
//! round-trips (property + golden fixtures) and replay-bus calibration
//! parity between the registry path and a bare [`RecordedBus`].

use gpp_pcie::{BusParams, Calibrator, Direction, MemType, RecordedBus};
use grophecy::machine::{BusSpec, DeviceLink, ReplayTrace, RootComplex};
use grophecy::projector::Grophecy;
use grophecy::{datasheet, MachineConfig, MachineRegistry};
use proptest::prelude::*;

const IDS: [&str; 4] = ["alpha", "b-2", "node_3", "x99.lab"];
const NAMES: [&str; 4] = [
    "A test node",
    "quoted 'single' ok",
    "unicode: Müller-node",
    "trailing space kept ",
];

/// Builds a machine from proptest-chosen knobs: either built-in base,
/// arbitrary identity/seed, mutated float/integer parameters, and an
/// optionally replayed bus.
#[allow(clippy::too_many_arguments)]
fn build_machine(
    base: u8,
    idx: usize,
    seed: u64,
    lanes: u32,
    link_eff: f64,
    mem_eff: f64,
    clock: u64,
    replay: bool,
    times: Vec<f64>,
    extras: u32,
    shared_bw: Option<f64>,
) -> MachineConfig {
    let mut m = if base == 0 {
        MachineConfig::anl_eureka_node(seed)
    } else {
        MachineConfig::pcie_v2_gt200_node(seed)
    };
    m.id = IDS[idx % IDS.len()].to_string();
    m.name = NAMES[idx % NAMES.len()].to_string();
    m.gpu.mem_efficiency = mem_eff;
    m.gpu_spec.clock_hz = clock as f64;
    if replay {
        // Two sizes per curve (the minimum a trace needs), times from the
        // strategy — exercising float rendering across magnitudes.
        let sizes = [1u64, 1 << 29];
        let mut samples = Vec::new();
        for (i, &(dir, mem)) in [
            (Direction::HostToDevice, MemType::Pinned),
            (Direction::DeviceToHost, MemType::Pinned),
        ]
        .iter()
        .enumerate()
        {
            for (j, &bytes) in sizes.iter().enumerate() {
                samples.push((bytes, dir, mem, times[(2 * i + j) % times.len()]));
            }
        }
        m.bus = BusSpec::Replay(ReplayTrace {
            label: format!("trace-{}", IDS[idx % IDS.len()]),
            samples,
        });
    } else if let BusSpec::Sim(p) = &mut m.bus {
        p.lanes = lanes;
        p.link_efficiency = link_eff;
    }
    for i in 0..extras {
        // Extra GPU links, alternating slot widths (asymmetric wiring).
        let mut bus = BusParams::pcie_v2_x16();
        bus.lanes = if i % 2 == 0 { 16 } else { 8 };
        m.devices.push(DeviceLink { id: i + 1, bus });
    }
    if let Some(shared_bw) = shared_bw {
        m.root_complex = Some(RootComplex { shared_bw });
    }
    m
}

proptest! {
    /// §satellite: `parse(display(m)) == m` for generated datasheets, and
    /// the canonical form is a fixed point of the writer.
    #[test]
    fn datasheet_roundtrip_is_lossless(
        base in 0u8..2,
        idx in 0usize..4,
        seed in 0u64..u64::MAX,
        lanes_pick in 0usize..4,
        link_eff in 0.5f64..0.95,
        mem_eff in 0.5f64..0.95,
        clock in 100_000_000u64..3_000_000_000,
        replay in any::<bool>(),
        times in proptest::collection::vec(1e-6f64..1.0, 4..8),
        extras in 0u32..4,
        contended in any::<bool>(),
        shared_bw in 1e8f64..1e11,
    ) {
        let lanes = [1u32, 4, 8, 16][lanes_pick];
        let m = build_machine(
            base, idx, seed, lanes, link_eff, mem_eff, clock, replay, times, extras,
            contended.then_some(shared_bw),
        );
        let text = datasheet::to_text(&m);
        let back = datasheet::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text failed to parse: {e}\n{text}"));
        prop_assert_eq!(&back, &m);
        // Byte-stable: writing the re-parsed machine reproduces the text.
        prop_assert_eq!(datasheet::to_text(&back), text);
    }
}

/// The committed fixtures are byte-for-byte the canonical datasheets of
/// the built-ins — `gpp machines --export` regenerates them.
#[test]
fn golden_fixtures_match_the_builtins() {
    for (file, builtin) in [
        ("eureka.gmach", MachineConfig::anl_eureka_node(0)),
        ("v2.gmach", MachineConfig::pcie_v2_gt200_node(0)),
    ] {
        let path = format!(
            "{}/../../fixtures/machines/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            datasheet::to_text(&builtin),
            golden,
            "{file} drifted from the built-in — regenerate with `gpp machines --export`"
        );
    }
}

/// Every fixture in the directory loads through the registry, including
/// the replay-backed one with its sidecar trace.
#[test]
fn fixture_directory_loads_into_the_registry() {
    let dir = format!("{}/../../fixtures/machines", env!("CARGO_MANIFEST_DIR"));
    let mut registry = MachineRegistry::builtin();
    let loaded = registry.load_dir(std::path::Path::new(&dir)).unwrap();
    let expect = vec!["dual-v2", "eureka", "quad-v2", "recorded", "v2", "v3"];
    assert_eq!(loaded, expect);
    assert_eq!(registry.names(), expect);
    let recorded = registry.get("recorded").unwrap();
    assert_eq!(recorded.bus.kind(), "replay");
    // Loaded built-ins are identical to the compiled-in ones.
    assert_eq!(
        registry.get("eureka").unwrap(),
        &MachineConfig::anl_eureka_node(0)
    );
}

/// The committed multi-GPU fixtures are byte-for-byte canonical (the
/// writer's fixed point) and carry the topology they claim: extra
/// `device` links and a shared root complex.
#[test]
fn multi_gpu_fixtures_are_canonical_and_contended() {
    let dir = format!("{}/../../fixtures/machines", env!("CARGO_MANIFEST_DIR"));
    for (file, extra_devices) in [("dual-v2.gmach", 1), ("quad-v2.gmach", 3)] {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
        let m = datasheet::parse(&text).unwrap();
        assert_eq!(
            datasheet::to_text(&m),
            text,
            "{file} is not the canonical writer's fixed point"
        );
        assert!(m.is_multi_device(), "{file}");
        assert_eq!(m.devices.len(), extra_devices, "{file}");
        assert_eq!(m.device_count(), extra_devices + 1, "{file}");
        let rc = m.root_complex.as_ref().expect("shared root complex");
        assert!(rc.shared_bw > 0.0);
    }
}

/// Calibrating through the registry's replay machine gives exactly the
/// α/β a bare [`RecordedBus`] over the same samples gives: the machine
/// abstraction adds nothing between the trace and the model.
#[test]
fn replay_calibration_matches_a_bare_recorded_bus() {
    let dir = format!("{}/../../fixtures/machines", env!("CARGO_MANIFEST_DIR"));
    let mut registry = MachineRegistry::empty();
    registry
        .load_file(std::path::Path::new(&format!("{dir}/recorded.gmach")))
        .unwrap();
    let machine = registry.config("recorded", 2013).unwrap();
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);

    let trace = std::fs::read_to_string(format!("{dir}/eureka-day0.trace")).unwrap();
    let samples = gpp_pcie::replay::parse_samples(&trace).unwrap();
    let mut bare = RecordedBus::from_samples("eureka-day0", &samples).unwrap();
    let direct = Calibrator::default().calibrate(&mut bare);

    assert_eq!(
        gro.pcie_model().h2d.alpha.to_bits(),
        direct.h2d.alpha.to_bits()
    );
    assert_eq!(
        gro.pcie_model().h2d.beta.to_bits(),
        direct.h2d.beta.to_bits()
    );
    assert_eq!(
        gro.pcie_model().d2h.alpha.to_bits(),
        direct.d2h.alpha.to_bits()
    );
    assert_eq!(
        gro.pcie_model().d2h.beta.to_bits(),
        direct.d2h.beta.to_bits()
    );
    // And a different seed changes nothing: a trace has no fresh noise.
    let mut node2 = registry.config("recorded", 9999).unwrap().node();
    let gro2 = Grophecy::calibrate(&machine, &mut node2);
    assert_eq!(
        gro.pcie_model().h2d.alpha.to_bits(),
        gro2.pcie_model().h2d.alpha.to_bits()
    );
}
