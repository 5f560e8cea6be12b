//! The canonical-form contract: for every valid scenario value `s`,
//! `parse(render(s)) == s`. The generator below covers the whole AST —
//! every checker/violation/placement variant, hot and cold devices,
//! device ranges, records, locked entries, chained traffic, retry
//! policies, fault schedules, home windows, and all three expectation
//! kinds — so a renderer that forgets a field or a parser that
//! mis-reads one falsifies the property immediately.

use siopmp_scenario::ast::*;
use siopmp_scenario::{parse, render};
use siopmp_testkit::{check, prop_check, Gen};

fn gen_perms(g: &mut Gen) -> Perms {
    *g.choose(&[Perms::R, Perms::W, Perms::Rw])
}

fn gen_traffic(g: &mut Gen) -> TrafficDecl {
    TrafficDecl {
        kind: *g.choose(&[Kind::Read, Kind::Write]),
        mode: if g.bool() {
            Mode::Uniform
        } else {
            Mode::Stream {
                stride: g.u64(1..4096),
            }
        },
        base: g.u64(0..0x1_0000_0000),
        count: g.usize(1..1000),
    }
}

fn gen_domain(g: &mut Gen, index: usize) -> Domain {
    let mut d = Domain::named(format!("dom{index}"));
    d.home = g
        .bool()
        .then(|| (g.u64(0..0x1_0000_0000), g.u64(1..0x100_0000)));
    for i in 0..g.usize(0..4) {
        let first = (i as u64) * 2000 + g.u64(1..1000);
        let count = g.u64(1..50);
        let mds = g.vec(0..3, |g| g.u16(0..8));
        let kind = if g.bool() {
            DeviceKind::Hot { mds }
        } else {
            DeviceKind::Cold {
                mds,
                records: g.vec(0..3, |g| RecordDecl {
                    base: g.u64(0..0x1_0000_0000),
                    len: g.u64(1..0x10_0000),
                    perms: gen_perms(g),
                }),
            }
        };
        d.devices.push(DeviceDecl { first, count, kind });
    }
    d.entries = g.vec(0..4, |g| EntryDecl {
        md: g.u16(0..8),
        base: g.u64(0..0x1_0000_0000),
        len: g.u64(1..0x10_0000),
        perms: gen_perms(g),
        locked: g.bool(),
    });
    d.blocks = g.vec(0..3, |g| g.u64(1..1000));
    d.masters = g.vec(0..3, |g| MasterDecl {
        device: g.u64(1..1000),
        programs: g.vec(1..4, gen_traffic),
        outstanding: g.usize(1..8),
        retry: g.bool().then(|| RetryDecl {
            max: g.u32(1..16),
            backoff: g.u64(1..64),
            sid_missing: g.bool(),
        }),
    });
    d.faults = g.bool().then(|| FaultDecl {
        seed: g.u64(0..u64::MAX),
        horizon: g.u64(1..100_000),
        budget: g.usize(1..256),
        block: g.vec(0..3, |g| g.u64(1..1000)),
        cold: g.vec(0..3, |g| g.u64(1..1000)),
        churn: g.vec(0..3, |g| g.u64(1..1000)),
    });
    d
}

fn gen_scenario(g: &mut Gen) -> Scenario {
    let mut s = Scenario::named(format!("scn-{}", g.u64(0..1_000_000)));
    s.description = g
        .bool()
        .then(|| format!("generated scenario variant {}", g.u64(0..1000)));
    s.unit = UnitParams {
        sids: g.usize(2..2048),
        mds: g.usize(2..2048),
        entries: g.usize(2..65536),
        cold_entries: g.usize(1..64),
        log: g.usize(1..16384),
        checker: match g.u32(0..4) {
            0 => Checker::Linear,
            1 => Checker::Pipelined {
                stages: g.u8(1..16),
            },
            2 => Checker::Tree { arity: g.u8(2..16) },
            _ => Checker::Mt {
                stages: g.u8(1..16),
                arity: g.u8(2..16),
            },
        },
        violation: *g.choose(&[Violation::Masking, Violation::BusError]),
        placement: *g.choose(&[PlacementSpec::PerDevice, PlacementSpec::Centralized]),
        mountable: g.bool(),
    };
    s.bus = BusParams {
        bytes: g.u64(1..128),
        beats: g.u32(1..64),
        read_latency: g.u32(0..100),
        write_latency: g.u32(0..100),
        issue_gap: g.u32(0..16),
        derive_checker: g.bool(),
    };
    s.fleet = g.bool().then(|| FleetParams {
        rate: g.u64(1..100_000),
        burst: g.u64(1..10_000),
        deadline: g.bool().then(|| g.u64(1..1_000_000)),
        retry: g.bool().then(|| (g.u32(1..16), g.u64(1..64))),
    });
    // The explore stanza preserves written order and duplicates (lists
    // are canonicalized at sweep time, not parse time), so the generator
    // emits unsorted, repeating lists on purpose.
    s.explore = g.bool().then(|| ExploreParams {
        entries: g.vec(1..4, |g| g.u64(1..65536)),
        cam_ways: g.vec(1..4, |g| g.u64(1..1024)),
        stages: g.vec(1..4, |g| g.u64(1..9)),
        cache: g.vec(1..4, |g| g.u64(0..16384)),
        shards: g.vec(1..4, |g| g.u64(1..65)),
    });
    let domains = g.usize(1..4);
    for i in 0..domains {
        s.domains.push(gen_domain(g, i));
    }
    s.run = RunParams {
        max_cycles: g.u64(1..10_000_000),
        epoch: g.u64(1..100_000),
        threads: g.bool().then(|| g.usize(1..16)),
    };
    s.expects = g.vec(0..4, |g| match g.u32(0..3) {
        0 => Expectation::Completed,
        1 => Expectation::LintClean,
        _ => Expectation::Metric {
            metric: g.choose(&Metric::ALL).0,
            op: *g.choose(&[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Le,
                CmpOp::Ge,
                CmpOp::Lt,
                CmpOp::Gt,
            ]),
            value: g.u64(0..1_000_000),
        },
    });
    s
}

#[test]
fn parse_render_roundtrip_is_identity() {
    prop_check(200, |g| {
        let s = gen_scenario(g);
        let text = render(&s);
        let back =
            parse(&text).map_err(|e| format!("render output failed to parse: {e}\n{text}"))?;
        check!(back == s, "roundtrip mismatch\n--- rendered ---\n{text}");
        Ok(())
    });
}

#[test]
fn render_is_a_fixed_point() {
    // render(parse(render(s))) == render(s): the canonical form does not
    // drift when re-rendered.
    prop_check(50, |g| {
        let s = gen_scenario(g);
        let once = render(&s);
        let twice = render(&parse(&once).map_err(|e| e.to_string())?);
        check!(
            once == twice,
            "canonical form drifted:\n{once}\n-- vs --\n{twice}"
        );
        Ok(())
    });
}
