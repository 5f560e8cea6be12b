//! Error-message snapshots: the parser promises messages precise enough
//! to fix the file without reading the parser. Each case pins the exact
//! line number and message, so a wording change is a conscious decision
//! (update the snapshot) rather than drift.

use siopmp_scenario::parse;

fn error_of(text: &str) -> String {
    parse(text)
        .expect_err("snapshot inputs must fail to parse")
        .to_string()
}

#[test]
fn first_directive_must_be_scenario() {
    assert_eq!(
        error_of("domain d0\n"),
        "line 1: expected `scenario <name>` as the first directive"
    );
}

#[test]
fn empty_input_is_reported() {
    assert_eq!(
        error_of(""),
        "line 0: empty scenario: no `scenario <name>` directive found"
    );
}

#[test]
fn bad_scenario_name() {
    assert_eq!(
        error_of("scenario Bad.Name\n"),
        "line 1: scenario name `Bad.Name` must match [a-z0-9_-]+"
    );
}

#[test]
fn duplicate_config() {
    assert_eq!(
        error_of("scenario t\nconfig sids=8\nconfig mds=8\n"),
        "line 3: duplicate `config` directive"
    );
}

#[test]
fn unknown_config_key() {
    assert_eq!(
        error_of("scenario t\nconfig zids=8\n"),
        "line 2: unknown `config` key `zids`"
    );
}

#[test]
fn the_retired_cache_key_is_refused() {
    // Only `explore … cache=` takes the key: it sweeps the modelled
    // hardware cache.
    assert_eq!(
        error_of("scenario t\nconfig entries=64 cache=1024\n"),
        "line 2: unknown `config` key `cache`"
    );
}

#[test]
fn non_numeric_value() {
    assert_eq!(
        error_of("scenario t\nconfig sids=many\n"),
        "line 2: `sids` expects a number, got `many`"
    );
}

#[test]
fn unknown_checker_spelling() {
    assert_eq!(
        error_of("scenario t\nconfig checker=quantum\n"),
        "line 2: unknown checker `quantum` (use linear, pipelined:<stages>, tree:<arity> or mt:<stages>:<arity>)"
    );
}

#[test]
fn domain_scoped_directive_outside_domain() {
    assert_eq!(
        error_of("scenario t\nmaster device=1 kind=read mode=uniform base=0 count=1\n"),
        "line 2: `master` must appear inside a `domain` block"
    );
}

#[test]
fn empty_device_range() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  device 5..5 hot\n"),
        "line 3: device range `5..5` is empty"
    );
}

#[test]
fn device_needs_temperature() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  device 5\n"),
        "line 3: `device` requires `hot` or `cold` after the ID"
    );
}

#[test]
fn record_needs_a_cold_device() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  device 1 hot\n  record 0x0 0x1000 rw\n"),
        "line 4: `record` must follow a `device ... cold` declaration"
    );
}

#[test]
fn bad_permissions() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  entry md=0 0x0 0x1000 rwx\n"),
        "line 3: unknown permissions `rwx` (use r, w or rw)"
    );
}

#[test]
fn stream_requires_stride() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  master device=1 kind=read mode=stream base=0 count=4\n"),
        "line 3: `master` with mode=stream requires stride=<bytes>"
    );
}

#[test]
fn stride_rejected_for_uniform() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  master device=1 kind=read mode=uniform base=0 stride=64 count=4\n"),
        "line 3: `stride` only applies to mode=stream"
    );
}

#[test]
fn then_needs_a_master() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  then kind=read mode=uniform base=0 count=1\n"),
        "line 3: `then` must follow a `master` line"
    );
}

#[test]
fn retry_sid_missing_needs_retry() {
    assert_eq!(
        error_of(
            "scenario t\ndomain d\n  master device=1 kind=read mode=uniform base=0 count=1 retry_sid_missing\n"
        ),
        "line 3: `retry_sid_missing` requires a `retry=` option first"
    );
}

#[test]
fn faults_require_the_three_keys() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  faults seed=7\n"),
        "line 3: `faults` requires seed=, horizon= and budget="
    );
}

#[test]
fn unknown_metric_lists_the_known_ones() {
    let msg = error_of("scenario t\ndomain d\nexpect velocity == 3\n");
    assert!(
        msg.starts_with("line 3: unknown metric `velocity` (known: cycles, makespan,"),
        "{msg}"
    );
    assert!(msg.contains("total_ok"), "{msg}");
}

#[test]
fn unknown_comparison() {
    assert_eq!(
        error_of("scenario t\ndomain d\nexpect cycles ~= 3\n"),
        "line 3: unknown comparison `~=` (use == != <= >= < >)"
    );
}

#[test]
fn explore_requires_entries() {
    assert_eq!(
        error_of("scenario t\nexplore cam_ways=16,64\n"),
        "line 2: `explore` requires entries=<list>"
    );
}

#[test]
fn explore_rejects_malformed_ranges() {
    assert_eq!(
        error_of("scenario t\nexplore entries\n"),
        "line 2: `explore` expects key=value pairs, got `entries`"
    );
    assert_eq!(
        error_of("scenario t\nexplore entries=0\n"),
        "line 2: `explore` entries values must be at least 1"
    );
    assert_eq!(
        error_of("scenario t\nexplore entries=64 cam_ways=0\n"),
        "line 2: `explore` cam_ways values must be at least 1"
    );
    assert_eq!(
        error_of("scenario t\nexplore entries=64 stages=0\n"),
        "line 2: `explore` stages values must be between 1 and 8"
    );
    assert_eq!(
        error_of("scenario t\nexplore entries=64 stages=9\n"),
        "line 2: `explore` stages values must be between 1 and 8"
    );
    assert_eq!(
        error_of("scenario t\nexplore entries=64 shards=65\n"),
        "line 2: `explore` shards values must be between 1 and 64"
    );
}

#[test]
fn explore_rejects_unknown_keys_and_duplicates() {
    assert_eq!(
        error_of("scenario t\nexplore entries=64 depth=3\n"),
        "line 2: unknown `explore` key `depth`"
    );
    assert_eq!(
        error_of("scenario t\nexplore entries=64\nexplore entries=128\n"),
        "line 3: duplicate `explore` directive"
    );
}

#[test]
fn unknown_directive() {
    assert_eq!(
        error_of("scenario t\nfrobnicate 7\n"),
        "line 2: unknown directive `frobnicate`"
    );
}

#[test]
fn comments_do_not_shift_line_numbers() {
    assert_eq!(
        error_of("# header\nscenario t\n# more\n\nbogus\n"),
        "line 5: unknown directive `bogus`"
    );
}

#[test]
fn device_range_wider_than_the_sid_space() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  device 2..0xffff_ffff_ffff_ffff cold\n"),
        "line 3: device range `2..0xffff_ffff_ffff_ffff` spans 18446744073709551613 IDs, \
         more than the 65536 a 16-bit SID space names"
    );
}

#[test]
fn device_id_without_a_successor() {
    assert_eq!(
        error_of("scenario t\ndomain d\n  device 0xffff_ffff_ffff_ffff hot\n"),
        "line 3: device ID `0xffff_ffff_ffff_ffff` is out of range: IDs end below 0xffffffffffffffff"
    );
}

#[test]
fn burst_count_above_the_cap() {
    assert_eq!(
        error_of(
            "scenario t\ndomain d\n  device 1 hot\n  \
             master device=1 kind=read mode=uniform base=0x1000 count=0x10_0000_0000\n"
        ),
        "line 4: `master` count 68719476736 is above the cap of 1048576 bursts"
    );
}

#[test]
fn stream_whose_last_burst_address_overflows() {
    assert_eq!(
        error_of(
            "scenario t\ndomain d\n  device 1 hot\n  \
             master device=1 kind=read mode=stream base=0xffff_ffff_ffff_0000 stride=0x100000 count=64\n"
        ),
        "line 4: `master` stream's last burst address overflows 64 bits"
    );
}
