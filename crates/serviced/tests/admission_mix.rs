//! The admission daemon core under a fixed four-tenant mix, pinned
//! exactly. Three tenants run over their token buckets and one storms at
//! ten times its rate, for 2000 virtual ticks. The daemon core is a
//! deterministic state machine in virtual time, so the admitted and shed
//! counts and the summed admission latency are exact on every host.

use siopmp::ids::DeviceId;
use siopmp::json::Json;
use siopmp::request::AccessKind;
use siopmp_serviced::daemon::{Serviced, ServicedConfig};
use siopmp_serviced::fleet::Fleet;
use siopmp_serviced::journal::{Journal, Replay};
use siopmp_serviced::proto::Request;

const QUIET: &str = "\
scenario admit-quiet
config sids=8 mds=8 entries=32 cold_entries=4
fleet rate=200 burst=2 deadline=200 retry=2:2

domain t0
  device 1 hot md=0
  entry md=0 0x1000 0x1000 rw

domain t1
  device 2 hot md=0
  entry md=0 0x2000 0x1000 rw

domain t2
  device 3 hot md=0
  entry md=0 0x3000 0x1000 rw
";

const NOISY: &str = "\
scenario admit-noisy
config sids=8 mds=8 entries=32 cold_entries=4
fleet rate=100 burst=1 deadline=200 retry=2:2

domain storm
  device 4 hot md=0
  entry md=0 0x4000 0x1000 rw
";

const TICKS: u64 = 2000;

/// `(tenant, device, window, requests per tick)`: three tenants over
/// their 0.2-per-tick buckets and one storm far over its 0.1, so every
/// shed class fires while admitted load stays near 70% of the single
/// worker (queueing without saturation).
const MIX: [(&str, u64, u64, u64); 4] = [
    ("quiet/t0", 1, 0x1000, 2),
    ("quiet/t1", 2, 0x2000, 1),
    ("quiet/t2", 3, 0x3000, 1),
    ("noisy/storm", 4, 0x4000, 10),
];

#[test]
fn admission_mix_pins_admitted_shed_and_latency_ticks() {
    let quiet = siopmp_scenario::parse(QUIET).unwrap();
    let noisy = siopmp_scenario::parse(NOISY).unwrap();
    let fleet = Fleet::from_scenarios([("quiet", None, &quiet), ("noisy", None, &noisy)]).unwrap();
    let mut d = Serviced::start_with(
        fleet,
        Journal::in_memory(),
        Replay::default(),
        ServicedConfig::default(),
    )
    .unwrap();
    let mut latency_ticks = 0u64;
    for _ in 0..TICKS {
        d.advance(1);
        for &(tenant, device, window, per_tick) in &MIX {
            for _ in 0..per_tick {
                let resp = d.handle(&Request::Check {
                    tenant: tenant.to_string(),
                    device: DeviceId(device),
                    kind: AccessKind::Write,
                    addr: window,
                    len: 64,
                    deadline: None,
                });
                if let Json::Object(pairs) = &resp {
                    if let Some((_, Json::U64(l))) = pairs.iter().find(|(k, _)| k == "latency") {
                        latency_ticks += l;
                    }
                }
            }
        }
    }
    let counters = d.telemetry().snapshot().counters;
    let admitted = counters["siopmp.serviced.allowed"];
    let shed = counters["siopmp.serviced.shed"];
    assert_eq!(admitted + shed, 28_000, "every request answered");
    // 2.2965 virtual ticks per admitted request.
    assert_eq!((latency_ticks, admitted, shed), (3222, 1403, 26_597));
}
