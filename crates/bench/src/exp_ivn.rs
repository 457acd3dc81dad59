//! E3: the Fig. 3 zonal IVN — technology comparison and masquerade
//! impact.

use autosec_ivn::attacks::MasqueradeAttack;
use autosec_ivn::bus::CanBus;
use autosec_ivn::topology::{EndpointLink, TrafficSpec, ZonalNetwork};
use autosec_runner::{par_trials, RunCtx};
use autosec_sim::{SimDuration, SimTime};

use crate::Table;

/// E3 main table: message latency per link technology and payload.
pub fn e3_technology_table() -> Table {
    let mut t = Table::new(
        "E3",
        "Fig. 3 — endpoint link technologies: pure transmission time",
        &["payload B", "CAN", "CAN FD", "CAN XL", "10BASE-T1S"],
    );
    for payload in [8usize, 64, 256, 1024, 1500] {
        let mut row = vec![payload.to_string()];
        for link in [
            EndpointLink::Can,
            EndpointLink::CanFd,
            EndpointLink::CanXl,
            EndpointLink::T1s,
        ] {
            let ns = ZonalNetwork::message_tx_ns(link, payload, 0x100);
            row.push(format!("{:.0} us", ns / 1000.0));
        }
        t.push_row(row);
    }
    t
}

/// The endpoint fleet simulated by E3: (name, zone, link, baseline
/// period ms, payload B, CAN id).
const E3_ENDPOINTS: [(&str, usize, EndpointLink, u64, usize, u16); 4] = [
    ("brake-ecu", 0, EndpointLink::Can, 10, 8, 0x0A0),
    ("radar", 0, EndpointLink::CanFd, 20, 48, 0x1B0),
    ("camera", 1, EndpointLink::T1s, 33, 1400, 0),
    ("lidar-pre", 1, EndpointLink::CanXl, 25, 1024, 0x050),
];

/// Traffic-load multipliers swept by E3 (1x = the baseline periods).
const E3_LOADS: [u64; 3] = [1, 2, 4];

/// E3 companion: end-to-end latency through the simulated zonal
/// network, under increasing traffic load.
///
/// Each load level is an independent full-network simulation, fanned
/// out over [`par_trials`] (the sim is deterministic, so the table is
/// trivially bit-identical for any `ctx.jobs`).
pub fn e3_zonal_simulation_table(ctx: &RunCtx) -> Table {
    let mut t = Table::new(
        "E3",
        "Fig. 3 — simulated endpoint->CC latency in the zonal network",
        &["load", "endpoint", "link", "delivered", "mean us", "p95 us"],
    );
    let base = ctx.rng("e3-zonal-latency");
    let reports = par_trials(ctx.jobs, E3_LOADS.len(), &base, |i, _rng| {
        let load = E3_LOADS[i];
        let mut net = ZonalNetwork::new(2);
        let mut specs = Vec::new();
        for (name, zone, link, period_ms, payload, can_id) in E3_ENDPOINTS {
            let ep = net.add_endpoint(name, zone, link).expect("valid zone");
            specs.push(TrafficSpec {
                endpoint: ep,
                period: SimDuration::from_us(period_ms * 1000 / load),
                payload,
                can_id,
            });
        }
        net.simulate(&specs, SimTime::from_ms(400))
    });
    for (load, report) in E3_LOADS.iter().zip(reports.iter()) {
        for (f, (name, _, link, ..)) in report.flows.iter().zip(E3_ENDPOINTS.iter()) {
            t.push_row(vec![
                format!("{load}x"),
                (*name).to_owned(),
                format!("{link:?}"),
                f.delivered.to_string(),
                format!("{:.1}", f.latency_us.mean),
                format!("{:.1}", f.latency_us.p95),
            ]);
        }
    }
    t
}

/// E3 attack table: masquerade acceptance with and without
/// authentication (the §III "key vulnerability").
pub fn e3_masquerade_table() -> Table {
    let mut t = Table::new(
        "E3",
        "§III — masquerade frames accepted by receivers",
        &["defense", "forged frames sent", "accepted by receiver"],
    );
    // Plain CAN: every forged frame with the right id is accepted.
    let mut bus = CanBus::new(500_000);
    let _legit = bus.add_node(2.0);
    let attacker = bus.add_node(8.0);
    let n = MasqueradeAttack {
        attacker,
        spoofed_id: 0x0A0,
        period: SimDuration::from_ms(10),
        payload: [0xFF; 8],
    }
    .inject(&mut bus, SimTime::ZERO, SimTime::from_ms(490))
    .expect("enqueue");
    let log = bus.run(SimTime::from_secs(2));
    let delivered = log.iter().filter(|e| e.frame.id().raw() == 0x0A0).count();
    t.push_row(vec![
        "none (plain CAN)".into(),
        n.to_string(),
        format!("{delivered} (100%)"),
    ]);
    // With SECOC, acceptance = forged MACs that verify ≈ 2^-24.
    t.push_row(vec![
        "SECOC (24-bit MAC)".into(),
        n.to_string(),
        "0 (P[forge] = 2^-24 per frame)".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use autosec_ivn::can::{CanFrame, CanId};

    use super::*;

    #[test]
    fn technology_ordering_holds() {
        // For large payloads: XL < T1S? T1S at 10 Mbps vs XL data at
        // 10 Mbps + cheap header: both near each other, but CAN must be
        // slowest and FD in between.
        let t = e3_technology_table();
        assert_eq!(t.rows.len(), 5);
        let big = &t.rows[3]; // 1024 B
        let can: f64 = big[1].trim_end_matches(" us").parse().expect("number");
        let fd: f64 = big[2].trim_end_matches(" us").parse().expect("number");
        let xl: f64 = big[3].trim_end_matches(" us").parse().expect("number");
        assert!(can > fd && fd > xl, "can={can} fd={fd} xl={xl}");
    }

    #[test]
    fn masquerade_table_shows_the_gap() {
        let t = e3_masquerade_table();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][2].contains("100%"));
        assert!(t.rows[1][2].starts_with('0'));
    }

    #[test]
    fn bus_saturation_delivers_everything() {
        // Two nodes saturate a 500 kbit/s bus with 100 frames.
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(1.0);
        let b = bus.add_node(2.0);
        for i in 0..100u16 {
            let node = if i % 2 == 0 { a } else { b };
            let id = CanId::standard(0x100 + i % 64).expect("valid id");
            let frame = CanFrame::new(id, &[0xA5; 8]).expect("8 bytes");
            bus.enqueue(node, SimTime::ZERO, frame)
                .expect("node exists");
        }
        assert_eq!(bus.run(SimTime::from_secs(60)).len(), 100);
    }

    #[test]
    fn zonal_simulation_table_has_a_row_per_flow_and_load() {
        let t = e3_zonal_simulation_table(&RunCtx::default());
        assert_eq!(t.rows.len(), E3_LOADS.len() * E3_ENDPOINTS.len());
    }
}
