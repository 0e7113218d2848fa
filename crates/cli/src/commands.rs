//! Subcommand implementations (pure: `args -> Result<output, error>`,
//! which keeps them unit-testable without process spawning).

use std::fmt::Write as _;
use std::fs;

use secbus_bus::{AddrRange, Width};
use secbus_core::{verify, CompiledPolicies, ConfigMemory, PolicyProgram, VerifyReport};
use secbus_cpu::{assemble, disasm_listing, Mb32Core, Reg};
use secbus_mem::{parse_ihex, Bram, ExternalDdr, HexImage};
use secbus_sim::Cycle;
use secbus_soc::casestudy::{
    case_study, lcf_policies, CaseStudyConfig, CPU1_PROGRAM, CPU2_PROGRAM, DDR_BASE, DDR_LEN,
};
use secbus_soc::{render_topology, Report, Soc, SocBuilder};

const USAGE: &str =
    "usage: secbus <asm|disasm|run|observe|attacks|policy|reconfig|table1|fig1|backends> …
  secbus asm <file.s>               assemble MB32 source to hex words
  secbus disasm <file.hex>          disassemble hex words (one per line)
  secbus run <file.s> [--cycles N] [--unprotected] [--policy <file.policy>]\n             [--image <boot.ihex>] [--trace] [--audit[-json]]
                                    run on a one-core SoC; --policy loads\n                                    cpu0's table (master 0) from a verified\n                                    DSL program
  secbus observe [--metrics] [--trace-out <file.json>] [--tail N]\n             [--attack] [--cycles N]
                                    run the case study with the observability\n                                    spine armed; export metrics / Chrome trace
  secbus attacks [--seed N]
  secbus campaign [--seed N] [--bare]
                                    run the staged adversarial campaigns and\n                                    print each kill chain
  secbus overload [--seed N] [--rate N]
                                    flood the SoC and a 4x4 mesh open-loop and\n                                    show shedding, brownout and conservation
  secbus policy check <file.policy> parse, compile and exhaustively verify a\n                                    DSL policy program (exit 1 + counterexample\n                                    on rejection)
  secbus policy compile <file.policy>\n                                    print the compiled per-master firewall tables
  secbus policy template            print a policy-DSL skeleton
  secbus reconfig [--seed N]        storm live policy epochs through a flooded\n                                    SoC and print the zero-loss verdict
  secbus table1 | fig1
  secbus backends                   show detected crypto hardware and the\n                                    active backend (SECBUS_CRYPTO_BACKEND)
";

/// The BRAM window the `run` sandbox maps and authorizes.
const BRAM_BASE: u32 = 0x2000_0000;

/// The `run` sandbox's policy when `--policy` is not given: cpu0 may
/// read and write, at any width, the whole BRAM and the whole DDR.
const DEFAULT_POLICY: &str = "\
master cpu0 = 0
region bram = 0x2000_0000 + 0x1_0000
region ddr  = 0x8000_0000 + 0x10_0000
allow cpu0 bram rw
allow cpu0 ddr  rw
";

/// Parse `--flag value` style options from an argument list.
fn opt_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Read a source file, naming it in the error.
fn read_source(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Route a command line to its implementation.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_string()),
        Some("asm") => cmd_asm(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("observe") => cmd_observe(&args[1..]),
        Some("attacks") => cmd_attacks(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("overload") => cmd_overload(&args[1..]),
        Some("policy") => cmd_policy(&args[1..]),
        Some("reconfig") => cmd_reconfig(&args[1..]),
        Some("table1") => Ok(secbus_area::Table1::case_study().render()),
        Some("table2") => {
            Err("table2 lives in the bench crate: cargo run -p secbus-bench --bin table2".into())
        }
        Some("backends") => Ok(cmd_backends()),
        Some("fig1") => {
            let soc = secbus_soc::casestudy::case_study(Default::default());
            Ok(render_topology(&soc))
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Report the detected crypto hardware and the backend the hot paths
/// actually dispatch to (after the `SECBUS_CRYPTO_BACKEND` override and
/// the never-select-unsupported fallback).
fn cmd_backends() -> String {
    let caps = secbus_crypto::host_caps();
    let active = secbus_crypto::active_backend();
    let request = std::env::var("SECBUS_CRYPTO_BACKEND");
    let mut out = String::new();
    writeln!(out, "crypto backends:").unwrap();
    writeln!(out, "  aes-ni : {}", if caps.aesni { "yes" } else { "no" }).unwrap();
    writeln!(out, "  sha-ni : {}", if caps.shani { "yes" } else { "no" }).unwrap();
    writeln!(
        out,
        "  request: {}",
        request.as_deref().unwrap_or("(unset: auto)")
    )
    .unwrap();
    writeln!(out, "  active : {}", active.name()).unwrap();
    out
}

fn cmd_asm(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("asm needs a source file")?;
    let src = read_source(path)?;
    let words = assemble(&src).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::new();
    for w in words {
        writeln!(out, "{w:08x}").unwrap();
    }
    Ok(out)
}

fn cmd_disasm(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("disasm needs a hex file")?;
    let text = read_source(path)?;
    let words = parse_hex_words(&text)?;
    Ok(disasm_listing(0, &words))
}

/// Parse whitespace/line-separated hex words (optional 0x prefix).
pub fn parse_hex_words(text: &str) -> Result<Vec<u32>, String> {
    text.split_whitespace()
        .map(|tok| {
            let tok = tok.strip_prefix("0x").unwrap_or(tok);
            u32::from_str_radix(tok, 16).map_err(|e| format!("bad hex word {tok:?}: {e}"))
        })
        .collect()
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("run needs a source file")?;
    let src = read_source(path)?;
    let cycles: u64 = opt_value(args, "--cycles")?
        .map(|v| v.parse().map_err(|e| format!("--cycles: {e}")))
        .transpose()?
        .unwrap_or(1_000_000);
    let protected = !has_flag(args, "--unprotected");
    let policies = match opt_value(args, "--policy")? {
        Some(path) => sandbox_table(path, &read_source(path)?)?,
        None => sandbox_table("default policy", DEFAULT_POLICY)?,
    };
    let image = match opt_value(args, "--image")? {
        Some(path) => {
            let text = read_source(path)?;
            Some(parse_ihex(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let (soc, mut out) = run_program_image(&src, cycles, protected, policies, image)?;
    if has_flag(args, "--audit-json") {
        out.push_str(&soc.audit().to_json().render_pretty());
        out.push('\n');
    } else if has_flag(args, "--audit") {
        out.push_str(&soc.audit().render());
    }
    if has_flag(args, "--trace") {
        out.push_str(&secbus_soc::render_trace(&soc));
        out.push('\n');
        out.push_str(&secbus_soc::trace_summary(&soc));
    }
    Ok(out)
}

/// Parse, compile and exhaustively verify a DSL policy program: the one
/// admission path for `policy check`, `policy compile` and `run`.
/// `name` (the file, or what stands in for one) prefixes every error; a
/// refused program's error carries the verifier's counterexample.
fn verified_policies(name: &str, src: &str) -> Result<(CompiledPolicies, VerifyReport), String> {
    let program = PolicyProgram::parse(src).map_err(|e| format!("{name}: {e}"))?;
    let compiled = program.compile().map_err(|e| format!("{name}: {e}"))?;
    let report =
        verify(&program, &compiled.as_views()).map_err(|e| format!("{name}: REJECTED\n  {e}"))?;
    Ok((compiled, report))
}

/// The `run` sandbox's firewall table: master 0's verified table, the
/// sandbox's one core.
fn sandbox_table(name: &str, src: &str) -> Result<ConfigMemory, String> {
    let (compiled, _) = verified_policies(name, src)?;
    let table = compiled
        .table(0)
        .ok_or_else(|| format!("{name}: no master 0 declared (the sandbox's one core)"))?;
    ConfigMemory::with_policies(table.policies.clone()).map_err(|e| format!("{name}: {e}"))
}

/// Build the `run` sandbox (one core behind its firewall, 64 KiB BRAM,
/// 1 MiB protected DDR) with `policies`, load the optional Intel-HEX
/// boot image into the external DDR before the LCF seals it, run it once
/// and report. The SoC comes back with the report so the audit and the
/// bus trace read the same run.
fn run_program_image(
    src: &str,
    cycles: u64,
    protected: bool,
    policies: ConfigMemory,
    image: Option<HexImage>,
) -> Result<(Soc, String), String> {
    let program = assemble(src).map_err(|e| e.to_string())?;
    let core = Mb32Core::with_local_program("cpu0", 0, program);
    let mut builder = SocBuilder::new();
    if !protected {
        builder = builder.without_security();
    }
    let mut ddr = ExternalDdr::new(DDR_LEN);
    if let Some(image) = image {
        for (addr, data) in &image.chunks {
            let off = addr
                .checked_sub(DDR_BASE)
                .filter(|&o| o as u64 + data.len() as u64 <= u64::from(DDR_LEN))
                .ok_or_else(|| format!("image chunk at {addr:#010x} is outside the DDR"))?;
            ddr.load(off, data);
        }
    }
    let mut soc = builder
        .add_protected_master(Box::new(core), policies)
        .add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1_0000),
            Bram::new(0x1_0000),
            None,
        )
        .set_ddr(
            "ddr",
            AddrRange::new(DDR_BASE, DDR_LEN),
            ddr,
            Some(lcf_policies()),
        )
        .build();
    let ran = soc.run_until_halt(cycles);
    let core = soc
        .master_as::<Mb32Core>(0)
        .ok_or("internal error: cpu0 is not an MB32 core")?;
    let mut out = String::new();
    if secbus_cpu::BusMaster::halted(core) {
        writeln!(out, "halted after {ran} cycles").unwrap();
    } else {
        writeln!(
            out,
            "cycle budget ({cycles}) exhausted; pc = {:#010x}",
            core.pc()
        )
        .unwrap();
    }
    writeln!(out, "registers:").unwrap();
    for i in 0..16 {
        write!(out, "  r{i:<2}={:#010x}", core.reg(Reg(i))).unwrap();
        if i % 4 == 3 {
            out.push('\n');
        }
    }
    writeln!(out, "\n{}", Report::collect(&soc, Cycle(0))).unwrap();
    Ok((soc, out))
}

/// Run the case-study workload with the observability spine armed and
/// export what it saw: a summary line always, plus `--metrics` (the
/// key-sorted metrics snapshot), `--trace-out <file>` (Chrome
/// `trace_event` JSON for chrome://tracing / Perfetto) and `--tail N`
/// (the last N retained trace events as text). `--attack` hijacks cpu0
/// into an out-of-policy write so the timeline shows an alert. Output is
/// entirely simulated time: two runs of the same command are
/// byte-identical.
fn cmd_observe(args: &[String]) -> Result<String, String> {
    let cycles: u64 = opt_value(args, "--cycles")?
        .map(|v| v.parse().map_err(|e| format!("--cycles: {e}")))
        .transpose()?
        .unwrap_or(2_000_000);
    let tail: Option<usize> = opt_value(args, "--tail")?
        .map(|v| v.parse().map_err(|e| format!("--tail: {e}")))
        .transpose()?;
    let programs = has_flag(args, "--attack").then(|| {
        [
            r"
            li  r1, 0x80080000
            addi r2, r0, 99
            sw  r2, 0(r1)   ; violates cpu0's read-only rule -> alert
            halt
            "
            .to_string(),
            CPU1_PROGRAM.to_string(),
            CPU2_PROGRAM.to_string(),
        ]
    });
    let mut soc = case_study(CaseStudyConfig {
        programs,
        trace: Some(16_384),
        ..Default::default()
    });
    let ran = soc.run_until_halt(cycles);
    let tracer = soc
        .tracer()
        .ok_or("internal error: observe armed the trace spine but no tracer exists")?;
    let mut out = String::new();
    writeln!(
        out,
        "observed {ran} cycles: {} trace events ({} retained, {} dropped), {} alerts",
        tracer.total(),
        tracer.len(),
        tracer.dropped(),
        soc.monitor().alert_count()
    )
    .unwrap();
    if let Some(path) = opt_value(args, "--trace-out")? {
        let doc = soc
            .chrome_trace()
            .ok_or("internal error: trace armed but no chrome trace available")?;
        fs::write(path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "chrome trace written to {path} (open in chrome://tracing or Perfetto)"
        )
        .unwrap();
    }
    if let Some(n) = tail {
        let events = tracer.snapshot();
        let skip = events.len().saturating_sub(n);
        writeln!(out, "last {} trace events:", events.len() - skip).unwrap();
        for (cycle, ev) in &events[skip..] {
            writeln!(out, "  {:>10}  {:<14} {ev:?}", cycle.get(), ev.kind()).unwrap();
        }
    }
    if has_flag(args, "--metrics") {
        out.push_str(&soc.metrics_snapshot().to_json().render_pretty());
        out.push('\n');
    }
    Ok(out)
}

fn cmd_attacks(args: &[String]) -> Result<String, String> {
    let seed: u64 = opt_value(args, "--seed")?
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let mut out = String::new();
    writeln!(
        out,
        "{:<40} {:>9} {:>12} {:>10}",
        "scenario", "detected", "latency", "contained"
    )
    .unwrap();
    for o in secbus_attack::run_all_scenarios(seed) {
        writeln!(
            out,
            "{:<40} {:>9} {:>12} {:>10}",
            o.scenario.name(),
            if o.detected() { "yes" } else { "NO" },
            o.detection_latency.map_or("-".into(), |l| l.to_string()),
            if o.contained { "yes" } else { "NO" },
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_campaign(args: &[String]) -> Result<String, String> {
    let seed: u64 = opt_value(args, "--seed")?
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let protected = !has_flag(args, "--bare");
    let mut out = String::new();
    writeln!(
        out,
        "campaigns ({} mode, seed {seed})",
        if protected { "protected" } else { "bare" }
    )
    .unwrap();
    writeln!(
        out,
        "{:<20} {:>8} {:>9} {:>8} {:>13} {:>7}",
        "campaign", "detected", "reaction", "bypasses", "sinks_blocked", "damage"
    )
    .unwrap();
    let outcomes = secbus_attack::run_all_campaigns(seed, protected);
    for o in &outcomes {
        writeln!(
            out,
            "{:<20} {:>8} {:>9} {:>8} {:>13} {:>7}",
            o.kind.name(),
            if o.detected { "yes" } else { "NO" },
            o.reaction,
            o.policy_bypasses,
            o.sinks_blocked,
            o.damage_words,
        )
        .unwrap();
    }
    for o in &outcomes {
        writeln!(out, "\nkill chain: {}", o.kind.name()).unwrap();
        for e in &o.kill_chain {
            writeln!(out, "  cycle {:>6}  {:<16} {}", e.cycle, e.stage, e.phase).unwrap();
        }
    }
    Ok(out)
}

/// `secbus policy <check|compile|template>` — the offline half of the
/// policy pipeline. `check` runs the same exhaustive verifier that gates
/// `commit_policy_epoch` admission, so a program that passes here is
/// admissible live.
fn cmd_policy(args: &[String]) -> Result<String, String> {
    const POLICY_USAGE: &str = "usage: secbus policy <check|compile|template> [file.policy]";
    match args.first().map(String::as_str) {
        Some("template") => Ok(secbus_core::policy_dsl::template().to_string()),
        Some("check") => {
            let path = args.get(1).ok_or("policy check needs a .policy file")?;
            let (_, report) = verified_policies(path, &read_source(path)?)?;
            Ok(format!(
                "{path}: OK\n  {} masters, {} rules -> {} compiled policies\n  \
                 {} (addr, op, width) samples checked, zero intent/table divergence\n",
                report.masters, report.rules, report.policies, report.samples
            ))
        }
        Some("compile") => {
            let path = args.get(1).ok_or("policy compile needs a .policy file")?;
            let (compiled, _) = verified_policies(path, &read_source(path)?)?;
            let mut out = String::new();
            for table in &compiled.tables {
                writeln!(
                    out,
                    "master {} ({}): {} policies",
                    table.master,
                    table.name,
                    table.policies.len()
                )
                .unwrap();
                for p in &table.policies {
                    let widths: Vec<&str> = [
                        (Width::Byte, "byte"),
                        (Width::Half, "half"),
                        (Width::Word, "word"),
                    ]
                    .iter()
                    .filter(|&&(w, _)| p.adf.allows(w))
                    .map(|&(_, n)| n)
                    .collect();
                    writeln!(
                        out,
                        "  spi {:>3}  [{:#010x}, {:#010x})  {:<9} {:<14} cm={:?} im={:?} key={}",
                        p.spi.0,
                        p.region.base,
                        p.region.end(),
                        format!("{:?}", p.rwa),
                        widths.join("|"),
                        p.cm,
                        p.im,
                        if p.key.is_some() { "yes" } else { "no" },
                    )
                    .unwrap();
                }
            }
            Ok(out)
        }
        Some(other) => Err(format!(
            "unknown policy subcommand {other:?}\n{POLICY_USAGE}"
        )),
        None => Err(POLICY_USAGE.into()),
    }
}

/// `secbus reconfig` — a small S-20 cell, bare vs protected: policy-epoch
/// storms (including verifier-refused and fault-aborted commits) through
/// a flooded SoC, printing the zero-loss / fail-secure verdict.
fn cmd_reconfig(args: &[String]) -> Result<String, String> {
    use secbus_soc::{run_reconfig_soak, DegradeConfig, ReconfigSoakConfig, SwapSchedule};

    let seed: u64 = opt_value(args, "--seed")?
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);

    let mut out = String::new();
    writeln!(
        out,
        "reconfig storm (seed {seed}, epoch every 200 cycles)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>7} {:>9} {:>6} {:>9} {:>8} {:>8} {:>7} {:>7} {:>6}",
        "mode",
        "issued",
        "completed",
        "shed",
        "misjudged",
        "commits",
        "refused",
        "faulted",
        "epoch",
        "fleet"
    )
    .unwrap();
    let mut wedged = false;
    for protected in [false, true] {
        let r = run_reconfig_soak(&ReconfigSoakConfig {
            per_tick: 2,
            cycles: 1_200,
            protected,
            degrade: protected.then_some(DegradeConfig {
                high_watermark: 6,
                low_watermark: 0,
                enter_after: 8,
                exit_after: 32,
            }),
            schedule: SwapSchedule::Periodic { every: 200 },
            seed,
            ..ReconfigSoakConfig::default()
        });
        wedged |= r.wedged;
        writeln!(
            out,
            "{:<10} {:>7} {:>9} {:>6} {:>9} {:>8} {:>8} {:>7} {:>7} {:>6}",
            if protected { "protected" } else { "bare" },
            r.issued,
            r.completed,
            r.shed,
            r.errors,
            format!("{}/{}", r.commits_ok, r.commits_attempted),
            r.verifier_refusals + r.other_refusals,
            r.commit_faults,
            r.final_epoch,
            if r.epoch_mismatches == 0 {
                "ok"
            } else {
                "SPLIT"
            },
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nverdict: {}",
        if wedged {
            "WEDGED (a swap boundary dropped or misjudged traffic)"
        } else {
            "zero loss; every in-flight transaction was judged under exactly\n\
             one epoch, bad epochs were refused fail-secure, and faulted\n\
             commits aborted all-or-nothing"
        }
    )
    .unwrap();
    Ok(out)
}

fn cmd_overload(args: &[String]) -> Result<String, String> {
    use secbus_noc::{run_overload, OverloadConfig};
    use secbus_soc::{run_soc_overload, DegradeConfig, SocOverloadConfig};

    let seed: u64 = opt_value(args, "--seed")?
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let rate: u32 = opt_value(args, "--rate")?
        .map(|v| v.parse().map_err(|e| format!("--rate: {e}")))
        .transpose()?
        .unwrap_or(2);

    let mut out = String::new();
    writeln!(
        out,
        "open-loop overload (seed {seed}, {rate} arrivals/cycle)\n"
    )
    .unwrap();

    // SoC: bounded bus queue + brownout, bare vs protected on the same
    // arrival schedule.
    writeln!(
        out,
        "soc   {:<10} {:>7} {:>9} {:>6} {:>7} {:>9} {:>12}",
        "mode", "issued", "completed", "shed", "alerts", "brownouts", "conservation"
    )
    .unwrap();
    let mut wedged = false;
    for protected in [false, true] {
        let r = run_soc_overload(&SocOverloadConfig {
            per_tick: rate,
            protected,
            degrade: protected.then_some(DegradeConfig {
                high_watermark: 6,
                low_watermark: 0,
                enter_after: 8,
                exit_after: 32,
            }),
            seed,
            ..SocOverloadConfig::default()
        });
        wedged |= r.wedged;
        writeln!(
            out,
            "      {:<10} {:>7} {:>9} {:>6} {:>7} {:>9} {:>12}",
            if protected { "protected" } else { "bare" },
            r.issued,
            r.completed,
            r.shed,
            r.shed_alerts,
            format!("{}/{}", r.degrade_enters, r.degrade_exits),
            if r.conservation_ok { "ok" } else { "BROKEN" },
        )
        .unwrap();
    }

    // NoC: hotspot pattern at saturating intensity on a 4x4 mesh, bare
    // vs protected against the identical schedule.
    writeln!(
        out,
        "\nnoc   {:<10} {:>7} {:>9} {:>6} {:>7} {:>9} {:>12}",
        "mode", "offered", "delivered", "shed", "alerts", "silent", "conservation"
    )
    .unwrap();
    for protected in [false, true] {
        let r = run_overload(&OverloadConfig {
            pattern: secbus_workload::Pattern::Hotspot {
                hot: 15,
                fraction: 0.8,
            },
            intensity: 0.1 * f64::from(rate),
            cycles: 2_000,
            protected,
            seed,
            ..OverloadConfig::default()
        });
        wedged |= r.wedged;
        writeln!(
            out,
            "      {:<10} {:>7} {:>9} {:>6} {:>7} {:>9} {:>12}",
            if protected { "protected" } else { "bare" },
            r.offered,
            r.delivered,
            r.shed_at_ingress,
            r.alerts,
            r.silent_drops,
            if r.conservation_ok { "ok" } else { "BROKEN" },
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nverdict: {}",
        if wedged {
            "WEDGED (protected traffic neither delivered nor alerted)"
        } else {
            "no wedge; every arrival completed, shed with an alert, or was\n\
             counted — protection turns silent loss into typed refusals"
        }
    )
    .unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&[]).unwrap().contains("usage"));
        assert!(dispatch(&argv(&["help"])).unwrap().contains("usage"));
        let err = dispatch(&argv(&["bogus"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn campaign_prints_kill_chains() {
        let out = dispatch(&argv(&["campaign", "--seed", "3"])).unwrap();
        assert!(out.contains("protected mode"));
        assert!(out.contains("ip_pivot"));
        assert!(out.contains("epoch_refused"));
        assert!(out.contains("foothold"));
        assert!(out.contains("detection"));
    }

    #[test]
    fn table1_renders() {
        let out = dispatch(&argv(&["table1"])).unwrap();
        assert!(out.contains("12895"));
        assert!(out.contains("Local Firewall"));
    }

    #[test]
    fn fig1_renders() {
        let out = dispatch(&argv(&["fig1"])).unwrap();
        assert!(out.contains("LCF"));
    }

    #[test]
    fn hex_word_parsing() {
        assert_eq!(
            parse_hex_words("deadbeef 0x00000001\n2").unwrap(),
            vec![0xdead_beef, 1, 2]
        );
        assert!(parse_hex_words("xyz").is_err());
        assert_eq!(parse_hex_words("").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn opt_parsing() {
        let a = argv(&["run", "x.s", "--cycles", "500"]);
        assert_eq!(opt_value(&a, "--cycles").unwrap(), Some("500"));
        assert_eq!(opt_value(&a, "--seed").unwrap(), None);
        let bad = argv(&["run", "--cycles"]);
        assert!(opt_value(&bad, "--cycles").is_err());
        assert!(has_flag(&argv(&["a", "--unprotected"]), "--unprotected"));
    }

    fn default_table() -> ConfigMemory {
        sandbox_table("default policy", DEFAULT_POLICY).unwrap()
    }

    #[test]
    fn default_policy_compiles_to_the_sandbox_windows() {
        use secbus_core::{AdfSet, Rwa, SecurityPolicy};
        // SPIs follow rule order: the BRAM rule gets 1, the DDR rule 2.
        let expected = [
            SecurityPolicy::internal(
                1,
                AddrRange::new(BRAM_BASE, 0x1_0000),
                Rwa::ReadWrite,
                AdfSet::ALL,
            ),
            SecurityPolicy::internal(
                2,
                AddrRange::new(DDR_BASE, DDR_LEN),
                Rwa::ReadWrite,
                AdfSet::ALL,
            ),
        ];
        assert_eq!(default_table().policies(), expected);
    }

    #[test]
    fn run_program_end_to_end() {
        let (_, out) = run_program_image(
            "li r1, 0x20000000\naddi r2, r0, 7\nsw r2, 0(r1)\nhalt",
            100_000,
            true,
            default_table(),
            None,
        )
        .unwrap();
        assert!(out.contains("halted after"));
        assert!(out.contains("r2 =0x00000007") || out.contains("r2=0x00000007"));
        assert!(out.contains("alerts"));
    }

    #[test]
    fn run_program_reports_budget_exhaustion() {
        let (_, out) =
            run_program_image("loop: j loop", 1_000, true, default_table(), None).unwrap();
        assert!(out.contains("budget"));
    }

    #[test]
    fn run_program_propagates_asm_errors() {
        let Err(err) = run_program_image("bogus r1", 10, true, default_table(), None) else {
            panic!("bogus source assembled");
        };
        assert!(err.contains("bogus"));
    }

    #[test]
    fn run_with_restrictive_policy_raises_alerts() {
        // A policy covering only the DDR: the BRAM store gets discarded.
        let cm = sandbox_table(
            "ddr only",
            "master cpu0 = 0\n\
             region ddr = 0x8000_0000 + 0x10_0000\n\
             allow cpu0 ddr rw\n",
        )
        .unwrap();
        let (_, out) = run_program_image(
            "li r1, 0x20000000\nsw r0, 0(r1)\nhalt",
            100_000,
            true,
            cm,
            None,
        )
        .unwrap();
        assert!(out.contains("1 alerts"), "{out}");
    }

    #[test]
    fn run_with_image_boots_from_loaded_data() {
        // Image drops a word into the public DDR region; the program reads
        // it back into r2.
        let image =
            secbus_mem::encode_ihex(&[(0x8008_0000, 0xCAFE_F00Du32.to_le_bytes().to_vec())]);
        let img = parse_ihex(&image).unwrap();
        let (_, out) = run_program_image(
            "li r1, 0x80080000\nlw r2, 0(r1)\nhalt",
            200_000,
            true,
            default_table(),
            Some(img),
        )
        .unwrap();
        assert!(out.contains("r2 =0xcafef00d"), "{out}");
    }

    #[test]
    fn image_outside_ddr_is_rejected() {
        let img = parse_ihex(&secbus_mem::encode_ihex(&[(0x1000, vec![1])])).unwrap();
        let Err(err) = run_program_image("halt", 100, true, default_table(), Some(img)) else {
            panic!("an image outside the DDR loaded");
        };
        assert!(err.contains("outside the DDR"));
    }

    #[test]
    fn run_with_audit_reports_firewalls() {
        let dir = std::env::temp_dir();
        let path = dir.join("secbus_cli_audit_test.s");
        fs::write(
            &path,
            "li r1, 0x20000000\nsw r0, 0(r1)\nli r2, 0x30000000\nsw r0, 0(r2)\nhalt\n",
        )
        .unwrap();
        let out = dispatch(&argv(&["run", path.to_str().unwrap(), "--audit"])).unwrap();
        assert!(out.contains("security audit"), "{out}");
        assert!(
            out.contains("no_policy"),
            "the 0x30000000 write shows up: {out}"
        );
        let out = dispatch(&argv(&["run", path.to_str().unwrap(), "--audit-json"])).unwrap();
        assert!(out.contains("\"violation\""), "{out}");
    }

    #[test]
    fn run_with_trace_lists_bus_activity() {
        let dir = std::env::temp_dir();
        let path = dir.join("secbus_cli_trace_test.s");
        fs::write(&path, "li r1, 0x20000000\nsw r0, 0(r1)\nhalt\n").unwrap();
        let out = dispatch(&argv(&[
            "run",
            path.to_str().unwrap(),
            "--trace",
            "--cycles",
            "100000",
        ]))
        .unwrap();
        assert!(out.contains("bus trace:"), "{out}");
        assert!(out.contains("cpu0"));
    }

    #[test]
    fn run_trace_and_audit_read_the_reported_run() {
        // The store to 0x30000000 is out of the default policy: the
        // firewall discards it, so the bus never grants it, and the audit
        // and the trace must describe that same run.
        let path = std::env::temp_dir().join("secbus_cli_one_run_test.s");
        fs::write(
            &path,
            "li r1, 0x20000000\nsw r0, 0(r1)\nli r2, 0x30000000\nsw r0, 0(r2)\nhalt\n",
        )
        .unwrap();
        let out = dispatch(&argv(&[
            "run",
            path.to_str().unwrap(),
            "--audit",
            "--trace",
        ]))
        .unwrap();
        let number_before = |marker: &str| -> u64 {
            let end = out
                .find(marker)
                .unwrap_or_else(|| panic!("{marker}: {out}"));
            out[..end].rsplit(' ').next().unwrap().parse().unwrap()
        };
        let reported = number_before(" grants,");
        let traced = number_before(" granted (");
        assert_eq!(traced, reported, "{out}");
        assert!(
            out.lines()
                .any(|l| l.contains("no_policy") && l.ends_with("W 0x30000000")),
            "the audit shows the discarded store: {out}"
        );
        let trace = &out[out.find("bus trace:").unwrap()..];
        assert!(!trace.contains("0x0030000000"), "{out}");
    }

    #[test]
    fn observe_metrics_snapshot_is_key_sorted_and_stable() {
        let run = || dispatch(&argv(&["observe", "--metrics", "--cycles", "200000"])).unwrap();
        let out = run();
        assert!(out.contains("observed"), "{out}");
        // Everything after the summary line is the snapshot JSON.
        let json = &out[out.find('{').unwrap()..];
        let doc = secbus_sim::Json::parse(json.trim()).expect("snapshot parses");
        assert!(secbus_sim::metrics::is_key_sorted(&doc));
        for section in ["soc", "bus", "monitor", "trace"] {
            assert!(doc.get(section).is_some(), "missing {section}");
        }
        assert_eq!(out, run(), "observe output is byte-identical per config");
    }

    #[test]
    fn observe_attack_trace_shows_the_alert() {
        let dir = std::env::temp_dir();
        let path = dir.join("secbus_cli_observe_trace.json");
        let out = dispatch(&argv(&[
            "observe",
            "--attack",
            "--tail",
            "5",
            "--trace-out",
            path.to_str().unwrap(),
            "--cycles",
            "200000",
        ]))
        .unwrap();
        assert!(out.contains("1 alerts"), "{out}");
        assert!(out.contains("last 5 trace events"), "{out}");
        let text = fs::read_to_string(&path).unwrap();
        let doc = secbus_sim::Json::parse(&text).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("alert")));
    }

    #[test]
    fn attacks_table() {
        let out = dispatch(&argv(&["attacks", "--seed", "7"])).unwrap();
        assert!(out.contains("hijacked IP"));
        assert!(out.contains("yes"));
    }

    #[test]
    fn policy_template_checks_clean() {
        let dir = std::env::temp_dir();
        let path = dir.join("secbus_cli_policy_template.policy");
        let template = dispatch(&argv(&["policy", "template"])).unwrap();
        fs::write(&path, template).unwrap();
        let out = dispatch(&argv(&["policy", "check", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("zero intent/table divergence"), "{out}");
        let out = dispatch(&argv(&["policy", "compile", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("master 0 (cpu0)"), "{out}");
        assert!(out.contains("cm=Encrypt"), "{out}");
    }

    #[test]
    fn policy_check_rejects_shadowed_program() {
        let dir = std::env::temp_dir();
        let path = dir.join("secbus_cli_policy_shadowed.policy");
        fs::write(
            &path,
            "master cpu0 = 0\n\
             region ddr = 0x8000_0000 + 0x1000\n\
             allow cpu0 ddr rw\n\
             allow cpu0 ddr ro\n",
        )
        .unwrap();
        let err = dispatch(&argv(&["policy", "check", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("REJECTED"), "{err}");
        assert!(err.contains("shadowed"), "{err}");
    }

    #[test]
    fn policy_check_reports_parse_errors_with_line() {
        let dir = std::env::temp_dir();
        let path = dir.join("secbus_cli_policy_bad.policy");
        fs::write(&path, "master cpu0 = 0\nallow cpu0 nowhere rw\n").unwrap();
        let err = dispatch(&argv(&["policy", "check", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn policy_usage_on_missing_subcommand() {
        assert!(dispatch(&argv(&["policy"])).unwrap_err().contains("usage"));
        assert!(dispatch(&argv(&["policy", "bogus"]))
            .unwrap_err()
            .contains("unknown policy subcommand"));
    }

    #[test]
    fn reconfig_reports_zero_loss() {
        let out = dispatch(&argv(&["reconfig", "--seed", "7"])).unwrap();
        assert!(out.contains("protected"), "{out}");
        assert!(out.contains("bare"), "{out}");
        assert!(out.contains("zero loss"), "{out}");
        assert!(!out.contains("WEDGED"), "{out}");
        assert!(!out.contains("SPLIT"), "{out}");
    }

    #[test]
    fn overload_reports_no_wedge() {
        let out = dispatch(&argv(&["overload", "--seed", "7", "--rate", "2"])).unwrap();
        assert!(out.contains("soc"));
        assert!(out.contains("noc"));
        assert!(out.contains("protected"));
        assert!(out.contains("no wedge"), "{out}");
        assert!(!out.contains("BROKEN"), "{out}");
    }
}
