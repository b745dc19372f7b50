//! Configuration types behave as value types: cloneable, comparable, and
//! (for the enums users store in results files) label round-trippable.

use gasnub_machines::calibration::calibration_table;
use gasnub_machines::machine::{MachineId, Measurement};
use gasnub_machines::MachineSpec;

#[test]
fn machine_id_round_trips_through_labels() {
    for id in [
        MachineId::Dec8400,
        MachineId::CrayT3d,
        MachineId::CrayT3e,
        MachineId::Custom,
    ] {
        let label = id.label();
        let back = MachineId::from_label(label).expect("labels parse back");
        assert_eq!(back, id, "round trip through '{label}'");
        let parsed: MachineId = label.parse().expect("FromStr agrees with from_label");
        assert_eq!(parsed, id);
    }
}

#[test]
fn unknown_machine_id_is_rejected() {
    assert_eq!(MachineId::from_label("Paragon"), None);
    assert!("Paragon".parse::<MachineId>().is_err());
}

#[test]
fn measurement_is_a_value_type() {
    let m = Measurement::new(4096, 128.0, 300.0);
    let copied = m;
    assert_eq!(m, copied);
    assert!((m.mb_s - 4096.0 * 300.0 / 128.0).abs() < 1e-9);
}

#[test]
fn configs_are_cloneable_and_stable() {
    let node = MachineSpec::t3e().node_config().clone();
    assert_eq!(
        node,
        node.clone(),
        "machine descriptions must be value types"
    );
    for spec in [
        MachineSpec::dec8400(),
        MachineSpec::t3d(),
        MachineSpec::t3e(),
    ] {
        assert_eq!(spec, spec.clone());
    }
}

#[test]
fn calibration_table_is_self_consistent() {
    let table = calibration_table();
    assert!(
        table.len() >= 28,
        "the table covers the paper's quoted values"
    );
    for p in &table {
        assert!(p.paper_mb_s > 0.0, "{}: paper value must be positive", p.id);
        assert!(
            p.tolerance > 0.0 && p.tolerance < 1.0,
            "{}: tolerance sane",
            p.id
        );
        assert!(!p.source.is_empty());
        assert_eq!(
            table.iter().filter(|q| q.id == p.id).count(),
            1,
            "duplicate id {}",
            p.id
        );
    }
}
