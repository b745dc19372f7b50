//! Integration tests for the machine zoo: spec files must be first-class
//! machines. A zoo-loaded spec must be indistinguishable from the
//! built-in it shadows (byte-identical checkpoints at any `--threads`),
//! checkpoints must refuse to resume under a different machine
//! description, the `machines` subcommand must list and check every
//! resolvable spec, and the modern NUMA machine must reproduce the
//! local/remote bandwidth asymmetry it was calibrated against.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gasnub::machines::ProbeOp::{LocalCopy, LocalLoad, LocalStore, RemoteFetch, RemoteLoad};
use gasnub::machines::{Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, RunContext};
use gasnub::memsim::trace::{CopyPass, StorePass, StridedPass};
use gasnub::memsim::{Access, MemoryEngine};

fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
    ProbeRequest::new(op, ws, stride)
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Every machine of the zoo, parsed from its spec file.
fn zoo_specs() -> Vec<MachineSpec> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_file("machines/zoo"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| MachineSpec::from_spec_str(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect()
}

/// Runs the gasnub binary with `GASNUB_ZOO` pinned to `zoo` so the test
/// is independent of the working directory's default zoo.
fn gasnub_with_zoo(zoo: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gasnub"))
        .env("GASNUB_ZOO", zoo)
        .args(args)
        .output()
        .expect("the gasnub binary must spawn")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gasnub-zoo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spec file dropped into the zoo must behave exactly like the
/// built-in machine it shadows: same sweep, byte-identical checkpoint,
/// at every worker count.
#[test]
fn zoo_loaded_t3d_checkpoints_are_byte_identical_to_builtin() {
    let empty = scratch_dir("empty");
    let zoo = scratch_dir("shadow");
    std::fs::copy(repo_file("machines/zoo/t3d.toml"), zoo.join("t3d.toml")).unwrap();

    let mut checkpoints: Vec<Vec<u8>> = Vec::new();
    for (tag, dir) in [("builtin", &empty), ("zoo", &zoo)] {
        for threads in ["1", "4"] {
            let ckpt = std::env::temp_dir().join(format!(
                "gasnub-zoo-ck-{tag}-t{threads}-{}.json",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&ckpt);
            let out = gasnub_with_zoo(
                dir,
                &[
                    "sweep",
                    "t3d",
                    "load",
                    "--checkpoint",
                    ckpt.to_str().unwrap(),
                    "--threads",
                    threads,
                ],
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{tag}/{threads}: {stderr}");
            checkpoints.push(std::fs::read(&ckpt).unwrap());
            let _ = std::fs::remove_file(&ckpt);
        }
    }
    for window in checkpoints.windows(2) {
        assert_eq!(
            window[0], window[1],
            "zoo-loaded and built-in t3d must write byte-identical checkpoints"
        );
    }

    let _ = std::fs::remove_dir_all(&empty);
    let _ = std::fs::remove_dir_all(&zoo);
}

/// A checkpoint written under one machine description must refuse to
/// resume under a different one — and `--force-restart` must recover.
#[test]
fn checkpoints_refuse_to_resume_under_a_different_spec() {
    let empty = scratch_dir("hash-empty");
    let tweaked = scratch_dir("hash-tweak");
    // Tweak a parameter that does not show up in the checkpoint title:
    // only the spec hash can tell the two machines apart.
    let spec = std::fs::read_to_string(repo_file("machines/zoo/t3d.toml")).unwrap();
    assert!(spec.contains("row_hit_cycles = 34.0"), "fixture drifted");
    std::fs::write(
        tweaked.join("t3d.toml"),
        spec.replace("row_hit_cycles = 34.0", "row_hit_cycles = 36.0"),
    )
    .unwrap();

    let ckpt = std::env::temp_dir().join(format!("gasnub-zoo-hash-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let args = [
        "sweep",
        "t3d",
        "load",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];

    let first = gasnub_with_zoo(&empty, &args);
    assert_eq!(first.status.code(), Some(0));

    // Same name, different machine: the stored spec hash must not match.
    let refused = gasnub_with_zoo(&tweaked, &args);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("spec hash") && stderr.contains("--force-restart"),
        "refusal must name the spec mismatch and the escape hatch: {stderr}"
    );

    let mut force = args.to_vec();
    force.push("--force-restart");
    let healed = gasnub_with_zoo(&tweaked, &force);
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert_eq!(healed.status.code(), Some(0), "stderr: {stderr}");

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_dir_all(&empty);
    let _ = std::fs::remove_dir_all(&tweaked);
}

/// `gasnub machines` lists every resolvable machine; `--check` builds
/// and probes each one.
#[test]
fn machines_subcommand_lists_and_checks_the_full_zoo() {
    let zoo = repo_file("machines/zoo");
    let list = gasnub_with_zoo(&zoo, &["machines"]);
    assert_eq!(list.status.code(), Some(0));
    let text = String::from_utf8_lossy(&list.stdout);
    for name in ["dec8400", "t3d", "t3e", "custom", "numa2s", "smp16"] {
        assert!(text.contains(name), "listing must include {name}: {text}");
    }

    let check = gasnub_with_zoo(&zoo, &["machines", "--check"]);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(0), "stderr: {stderr}");
    let text = String::from_utf8_lossy(&check.stdout);
    assert!(
        text.lines().filter(|l| l.contains(" ok:")).count() >= 6,
        "every zoo machine must pass the smoke probe: {text}"
    );
}

/// Broken zoo files are surfaced, not fatal — but `--check` treats them
/// as failures, and resolution errors name the culprit file.
#[test]
fn broken_zoo_files_fail_check_and_annotate_resolve_errors() {
    let zoo = scratch_dir("broken");
    std::fs::write(zoo.join("bad.toml"), "name = \"bad\"\nmodel = \n").unwrap();

    let list = gasnub_with_zoo(&zoo, &["machines"]);
    assert_eq!(list.status.code(), Some(0), "listing alone stays usable");
    let stderr = String::from_utf8_lossy(&list.stderr);
    assert!(
        stderr.contains("bad.toml"),
        "broken file must be named: {stderr}"
    );

    let check = gasnub_with_zoo(&zoo, &["machines", "--check"]);
    assert_eq!(
        check.status.code(),
        Some(2),
        "--check must fail on broken files"
    );

    let resolve = gasnub_with_zoo(
        &zoo,
        &["sweep", "bad", "load", "--checkpoint", "/tmp/x.json"],
    );
    let stderr = String::from_utf8_lossy(&resolve.stderr);
    assert_eq!(resolve.status.code(), Some(2));
    assert!(
        stderr.contains("bad.toml"),
        "resolve error must point at the broken file: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&zoo);
}

/// Adding a machine is dropping a file: a spec written by hand (not a
/// shadow of any built-in) must sweep end-to-end.
#[test]
fn a_dropped_in_spec_file_sweeps_end_to_end() {
    let zoo = scratch_dir("dropin");
    let spec = std::fs::read_to_string(repo_file("machines/zoo/t3d.toml")).unwrap();
    std::fs::write(
        zoo.join("minitorus.toml"),
        spec.replace("name = \"t3d\"", "name = \"minitorus\"")
            .replace("aliases = [\"crayt3d\", \"cray-t3d\"]", "aliases = []"),
    )
    .unwrap();

    let ckpt = std::env::temp_dir().join(format!("gasnub-zoo-drop-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let out = gasnub_with_zoo(
        &zoo,
        &[
            "sweep",
            "minitorus",
            "fetch",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_dir_all(&zoo);
}

/// The two-socket NUMA machine reproduces the asymmetry it models
/// (Bergstrom, arXiv:1103.3225): for DRAM-resident working sets, a
/// socket reads remote memory at a modest fraction of its local
/// bandwidth — non-uniform, but nowhere near the order-of-magnitude
/// gap of the 1997 machines.
#[test]
fn numa_machine_reproduces_local_remote_asymmetry() {
    let text = std::fs::read_to_string(repo_file("machines/zoo/numa2s.toml")).unwrap();
    let spec = MachineSpec::from_spec_str(&text).expect("numa2s.toml must parse");
    // Default limits: the fast preset primes too little to evict the
    // 8 MB L3, which would turn the "local" probe into an L3 probe.
    let mut machine = spec
        .with_limits(MeasureLimits::new())
        .build()
        .expect("numa2s.toml must build");

    // 32 MB: far past the 8 MB L3, so both probes measure memory.
    let ws = 32 << 20;
    let local = machine.probe(&req(LocalLoad, ws, 1)).unwrap();
    let remote = machine
        .probe(&req(RemoteFetch, ws, 1))
        .expect("a NUMA machine has a remote path");
    let ratio = local.mb_s / remote.mb_s;
    assert!(
        (1.3..=2.5).contains(&ratio),
        "local/remote bandwidth asymmetry out of the Bergstrom range: \
         local {:.0} MB/s, remote {:.0} MB/s, ratio {ratio:.2}",
        local.mb_s,
        remote.mb_s
    );

    // The 1997 contrast: the T3D's same-ratio is an order of magnitude.
    let t3d_text = std::fs::read_to_string(repo_file("machines/zoo/t3d.toml")).unwrap();
    let mut t3d = MachineSpec::from_spec_str(&t3d_text)
        .unwrap()
        .with_limits(MeasureLimits::new())
        .build()
        .unwrap();
    let t3d_ratio = t3d.probe(&req(LocalLoad, ws, 1)).unwrap().mb_s
        / t3d.probe(&req(RemoteFetch, ws, 1)).unwrap().mb_s;
    assert!(
        t3d_ratio > ratio * 2.0,
        "the NUMA node must be far more uniform than the T3D \
         (t3d {t3d_ratio:.1}x vs numa2s {ratio:.1}x)"
    );
}

/// Both prime caps cover every zoo machine's largest cache, so a capped
/// prime still fills it.
#[test]
fn prime_caps_cover_every_zoo_machines_largest_cache() {
    for spec in zoo_specs() {
        let largest = spec
            .node_config()
            .hierarchy
            .levels
            .iter()
            .map(|l| l.cache.capacity_bytes)
            .max()
            .unwrap_or(0);
        for limits in [MeasureLimits::new(), MeasureLimits::fast()] {
            assert!(
                limits.max_prime_words * 8 >= largest,
                "{}: a {} B largest cache exceeds the {} word prime cap",
                spec.label(),
                largest,
                limits.max_prime_words
            );
        }
    }
}

/// The warm prime fast-forwards provably periodic stretches; it must still
/// be the literal prime bit for bit. For every zoo machine and local op at
/// the benchmark grid's large cells (at 4 MiB smp16's L2 and numa2s's L3
/// are still filling, so only a pass through the last level serves): the
/// cell's bandwidth matches the `--cold` oracle (whose prime simulates
/// every access) to the bit, and the hierarchy and clock a warm prime
/// leaves equal those a literal prime leaves.
#[test]
fn fast_forwarded_prime_is_the_literal_prime_on_every_zoo_machine() {
    let limits = MeasureLimits::fast();
    let cells = [
        (8u64 << 20, 1u64),
        (8 << 20, 16),
        (8 << 20, 64),
        (4 << 20, 1),
        (4 << 20, 8),
        (4 << 20, 64),
        (512 << 10, 1),
    ];
    let mut replayed = Vec::new();
    for spec in zoo_specs() {
        let mut warm = spec
            .clone()
            .with_limits(limits)
            .with_context(RunContext::unmemoized())
            .build()
            .unwrap();
        let mut cold = spec
            .clone()
            .with_limits(limits)
            .with_context(RunContext::cold())
            .build()
            .unwrap();
        for (ws, stride) in cells {
            let words = ws / 8;
            let primed = limits.prime_words(words) as usize;
            let ops: [(&str, ProbeRequest, Vec<Access>); 4] = [
                (
                    "load",
                    req(LocalLoad, ws, stride),
                    StridedPass::new(0, words, stride).take(primed).collect(),
                ),
                (
                    "store",
                    req(LocalStore, ws, stride),
                    StorePass::new(0, words, stride).take(primed).collect(),
                ),
                (
                    "copy-loads",
                    req(LocalCopy, ws, stride).with_stride2(1),
                    CopyPass::new(0, 1 << 32, words, stride, 1)
                        .take(2 * primed)
                        .collect(),
                ),
                (
                    "copy-stores",
                    req(LocalCopy, ws, 1).with_stride2(stride),
                    CopyPass::new(0, 1 << 32, words, 1, stride)
                        .take(2 * primed)
                        .collect(),
                ),
            ];
            for (op, request, prime) in ops {
                let cell = format!("{} {op} ws={ws} stride={stride}", spec.label());
                let w = warm.probe(&request).unwrap();
                let c = cold.probe(&request).unwrap();
                assert_eq!(w.mb_s.to_bits(), c.mb_s.to_bits(), "{cell}: mb_s");

                let mut fast = MemoryEngine::new(spec.node_config().clone());
                let mut literal = fast.clone();
                fast.prime_trace(prime.iter().copied());
                literal.prime(prime.iter().copied(), true);
                assert_eq!(
                    fast.now().to_bits(),
                    literal.now().to_bits(),
                    "{cell}: clock"
                );
                assert!(
                    fast.hierarchy() == literal.hierarchy(),
                    "{cell}: hierarchy state"
                );
                replayed.push((cell, fast.replayed_accesses()));
            }
        }
    }
    // The comparison means something only where the fast-forward served,
    // relating every level (t3d, t3e) or passing the last one through.
    for served in [
        "t3d load ws=8388608 stride=1",
        "t3e copy-loads ws=8388608 stride=16",
        "dec8400 load ws=4194304 stride=1",
        "numa2s store ws=8388608 stride=1",
        "smp16 load ws=4194304 stride=8",
    ] {
        let (_, n) = replayed.iter().find(|(cell, _)| cell == served).unwrap();
        assert!(*n > 0, "{served}: nothing was fast-forwarded");
    }
}

/// The SMP producer pass that `pull` and `fetch` cells run before the
/// consumer reads primes through the fast-forward; the directory writes it
/// makes run for every access, replayed or not. At the benchmark grid's
/// largest cells a warm and a `--cold` machine must agree on the cell's
/// bandwidth to the bit and on the directory's MESI transitions and
/// invalidations.
#[test]
fn producer_pass_is_the_literal_one_at_benchmark_sizes() {
    let limits = MeasureLimits::fast();
    for spec in zoo_specs()
        .into_iter()
        .filter(|s| ["dec8400", "smp16"].contains(&s.label()))
    {
        let build = |ctx| {
            spec.clone()
                .with_limits(limits)
                .with_context(ctx)
                .build()
                .unwrap()
        };
        let (mut warm, mut cold) = (build(RunContext::unmemoized()), build(RunContext::cold()));
        for op in [RemoteLoad, RemoteFetch] {
            for ws in [4u64 << 20, 8 << 20] {
                for stride in [1, 16] {
                    let cell = format!("{} {op:?} ws={ws} stride={stride}", spec.label());
                    let w = warm.probe(&req(op, ws, stride)).unwrap();
                    let c = cold.probe(&req(op, ws, stride)).unwrap();
                    assert_eq!(w.mb_s.to_bits(), c.mb_s.to_bits(), "{cell}: mb_s");
                    let directory = |m: &gasnub::machines::TransferEngine| {
                        let d = m.smp_system().expect("an SMP machine").directory();
                        (*d.tally(), d.invalidations())
                    };
                    assert_eq!(directory(&warm), directory(&cold), "{cell}: directory");
                }
            }
        }
    }
}
