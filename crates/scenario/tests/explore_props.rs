//! Property suite for the design-space explorer. The expensive moving
//! parts (the workload sample) are replaced by a deterministic per-depth
//! cycle table via [`evaluate_with_sim`], so the dominance and
//! permutation properties run over a thousand seeded sweeps in test
//! time; the thread-invariance property drives the real [`Explorer`]
//! (and its real simulations) over a handful of seeds, and the smoke
//! sweep pins the paper point's modelled tail exactly.

use siopmp::explore::{dominates, evaluate, DesignPoint, Objectives, Sweep};
use siopmp_scenario::{evaluate_with_sim, Explorer};
use siopmp_testkit::{check, prop_check, Gen};

/// A deterministic stand-in for the simulated p99, shaped like the real
/// sample: each extra pipeline stage adds one cycle to the tail (the
/// committed workload measures 84/85/86 cycles at 1/2/3 stages).
fn fake_sim(stages: u8) -> u64 {
    83 + u64::from(stages)
}

/// A random small sweep: one to three values per axis, drawn from the
/// interesting corners of each range.
fn gen_sweep(g: &mut Gen) -> Sweep {
    Sweep {
        entries: g.vec(1..4, |g| *g.choose(&[16, 64, 256, 512, 1024, 2048, 4096])),
        cam_ways: g.vec(1..4, |g| *g.choose(&[2, 8, 16, 17, 64, 128])),
        stages: g.vec(1..4, |g| *g.choose(&[1, 2, 3, 4, 6, 8])),
        cache_slots: g.vec(1..4, |g| *g.choose(&[0, 16, 256, 1024, 4096])),
        shards: g.vec(1..3, |g| *g.choose(&[1, 2, 4, 8])),
    }
}

/// Fisher–Yates driven by the test PRNG.
fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, g.usize(0..i + 1));
    }
}

#[test]
fn no_frontier_point_is_dominated_by_any_swept_point() {
    // The headline Pareto invariant, over 1k+ seeded sweeps: every
    // frontier member survives a dominance check against *every* swept
    // point — routable or not — via the raw `dominates` oracle rather
    // than the frontier computation under test.
    prop_check(1024, |g| {
        let out = evaluate_with_sim(&gen_sweep(g), fake_sim);
        let objs: Vec<Objectives> = out
            .points
            .iter()
            .map(|r| r.cost.objectives(r.p99_ns))
            .collect();
        let any_routable = out.points.iter().any(|r| r.cost.timing.routable);
        check!(
            out.frontier().is_empty() != any_routable,
            "frontier must be non-empty exactly when a routable point exists"
        );
        for (i, r) in out.points.iter().enumerate() {
            if !r.frontier {
                continue;
            }
            for (j, other) in objs.iter().enumerate() {
                check!(
                    !dominates(other, &objs[i]),
                    "frontier point {:?} dominated by {:?}",
                    r.cost.point,
                    out.points[j].cost.point
                );
            }
        }
        Ok(())
    });
}

#[test]
fn area_is_monotone_in_entries_and_cam_ways() {
    prop_check(1024, |g| {
        let base = DesignPoint {
            entries: g.usize(1..4096),
            cam_ways: g.usize(1..512),
            stages: g.u8(1..9),
            cache_slots: g.usize(0..8192),
            shards: *g.choose(&[1, 2, 4, 8]),
        };
        let a = evaluate(base).area_pct();
        // Growing the table can never shrink the checker (weak: sharding
        // quantizes per-shard tables, so equal ceilings tie).
        let more_entries = evaluate(DesignPoint {
            entries: base.entries + g.usize(1..4096),
            ..base
        })
        .area_pct();
        check!(
            more_entries >= a,
            "area fell when entries grew from {:?}",
            base
        );
        // Every extra CAM way costs LUTs and FFs (strict).
        let more_ways = evaluate(DesignPoint {
            cam_ways: base.cam_ways + g.usize(1..512),
            ..base
        })
        .area_pct();
        check!(more_ways > a, "area fell when CAM grew from {:?}", base);
        Ok(())
    });
}

#[test]
fn explore_output_is_invariant_under_sweep_order_permutation() {
    // The `.scn` stanza preserves written order; the explorer must not.
    prop_check(1024, |g| {
        let sweep = gen_sweep(g);
        let mut shuffled = sweep.clone();
        shuffle(g, &mut shuffled.entries);
        shuffle(g, &mut shuffled.cam_ways);
        shuffle(g, &mut shuffled.stages);
        shuffle(g, &mut shuffled.cache_slots);
        shuffle(g, &mut shuffled.shards);
        let a = evaluate_with_sim(&sweep, fake_sim).payload().pretty();
        let b = evaluate_with_sim(&shuffled, fake_sim).payload().pretty();
        check!(a == b, "permuting sweep axes changed the output");
        Ok(())
    });
}

#[test]
fn real_explorer_is_thread_invariant() {
    // `--threads 1` vs `4` over real workload samples: ParallelSim is
    // byte-deterministic, so the whole envelope payload must agree.
    // Fewer cases than the model-only properties — each distinct
    // pipeline depth costs a real simulation.
    prop_check(4, |g| {
        let sweep = Sweep {
            stages: g.vec(1..3, |g| *g.choose(&[1, 2, 3])),
            ..gen_sweep(g)
        };
        let a = Explorer::new(Some(1))
            .evaluate(&sweep)
            .map_err(|e| e.to_string())?;
        let b = Explorer::new(Some(4))
            .evaluate(&sweep)
            .map_err(|e| e.to_string())?;
        check!(
            a.payload().pretty() == b.payload().pretty(),
            "threads=1 and threads=4 disagree"
        );
        Ok(())
    });
}

#[test]
fn paper_point_survives_any_sweep_that_contains_it() {
    // The calibrated design point is never dominated: capacities are
    // objectives, so bigger tables pay area and smaller ones fail the
    // capacity axes.
    prop_check(256, |g| {
        let mut sweep = gen_sweep(g);
        let p = DesignPoint::paper();
        sweep.entries.push(p.entries);
        sweep.cam_ways.push(p.cam_ways);
        sweep.stages.push(p.stages);
        sweep.cache_slots.push(p.cache_slots);
        sweep.shards.push(p.shards);
        let out = evaluate_with_sim(&sweep, fake_sim);
        check!(out.paper_point_swept(), "paper point missing from sweep");
        if !out.paper_point_on_frontier() {
            let paper = out.points.iter().find(|r| r.paper).expect("swept");
            let pobj = paper.cost.objectives(paper.p99_ns);
            let dominator = out
                .points
                .iter()
                .find(|r| dominates(&r.cost.objectives(r.p99_ns), &pobj));
            check!(
                false,
                "paper point {:?} dominated by {:?}",
                pobj,
                dominator.map(|r| (r.cost.point, r.cost.objectives(r.p99_ns)))
            );
        }
        Ok(())
    });
}

/// The built-in smoke sweep over real workload samples: thread-invariant,
/// the paper design point on the frontier, and its modelled p99 check
/// cost exactly 84 cycles. The value is arithmetic over a deterministic
/// simulation, so any change to it is a change to the timing model or
/// the workload sample.
#[test]
fn smoke_sweep_pins_the_paper_point_at_84_cycles() {
    let sweep = Sweep::smoke();
    let one = Explorer::new(Some(1)).evaluate(&sweep).unwrap();
    let four = Explorer::new(Some(4)).evaluate(&sweep).unwrap();
    assert_eq!(
        one.payload().pretty(),
        four.payload().pretty(),
        "threads=1 and threads=4 must be byte-identical"
    );
    assert!(one.paper_point_on_frontier());
    let paper = one.points.iter().find(|r| r.paper).unwrap();
    assert_eq!(paper.p99_cycles, 84);
}
