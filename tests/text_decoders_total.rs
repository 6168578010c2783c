//! The two text decoders — the `.mir` parser and the `.cfg` reader — are
//! total: whatever the input, `Ok` or a typed error, never a panic, and
//! what parses builds or fails `SystemBuilder::build` with a typed error.
//!
//! Four parts: a table of structural cases (one valid line per `.mir`
//! form and every `.cfg` key, each with its mechanical breakages — the
//! same tables DESIGN.md §4.1.1 prints, checked against it here); a seeded
//! mutation loop over every bundled kernel, `examples/mir` and `configs`;
//! the print/parse fixed point on all of those modules; the IR's name
//! tables walked both ways.

use std::collections::BTreeSet;
use std::sync::Arc;

use mosaicsim::core::ConfigError;
use mosaicsim::ir::{
    parse_module_with_spans, AccelOp, AtomicOp, CastKind, FloatPredicate, IntPredicate, Intrinsic,
    IrError, RtVal,
};
use mosaicsim::kernels as k;
use mosaicsim::kernels::data::Rng;
use mosaicsim::prelude::*;

// ---------------------------------------------------------------------
// (a) Structural cases: `.mir`
// ---------------------------------------------------------------------

/// Where a line under test sits.
#[derive(Clone, Copy)]
enum Ctx {
    /// Line 3 of a straight-line `@f(i64 %n, ptr %p)`.
    Straight,
    /// Line 3 of `@f`, with a `@peer` whose line 8 is the other endpoint.
    Peer(&'static str),
    /// The given line of a three-block loop.
    Loop(usize),
}

/// One valid line per `.mir` line form: the rows of DESIGN.md's table.
const FORMS: &[(&str, Ctx, &str)] = &[
    ("add", Ctx::Straight, "%0 = add i64 $%0, i64 1"),
    ("atomic_add", Ctx::Straight, "%0 = atomic_add i64 $%1, i64 1"),
    ("atomic_cas", Ctx::Straight, "%0 = atomic_cas i64 $%1, i64 1, i64 0"),
    ("iresize", Ctx::Straight, "%0 = iresize $%0 to i32"),
    ("icmp", Ctx::Straight, "%0 = icmp slt $%0, i64 1"),
    ("fcmp", Ctx::Straight, "%0 = fcmp olt f64 1.0, f64 2.0"),
    ("select", Ctx::Straight, "%0 = select i64 i1 1, $%0, i64 2"),
    ("gep", Ctx::Straight, "%0 = gep $%1, $%0, 8"),
    ("load", Ctx::Straight, "%0 = load i64, $%1"),
    ("store", Ctx::Straight, "store $%1, i64 1"),
    ("phi", Ctx::Loop(5), "%0 = phi i64 [bb0: i64 0], [bb1: %1]"),
    ("call", Ctx::Straight, "%0 = call f64 sqrt(f64 4.0)"),
    ("call void", Ctx::Straight, "call void accel.relu(i64 8)"),
    ("send", Ctx::Peer("%0 = recv i64 q0"), "send q0, i64 1"),
    ("recv", Ctx::Peer("send q0, i64 1"), "%0 = recv i64 q0"),
    ("br", Ctx::Loop(3), "br bb1"),
    ("condbr", Ctx::Loop(8), "condbr %2, bb1, bb2"),
    ("ret", Ctx::Loop(10), "ret void"),
];

const LOOP: [&str; 11] = [
    "func @f(i64 %n, ptr %p) -> void {",
    "bb0: ; entry",
    "  br bb1",
    "bb1: ; loop",
    "  %0 = phi i64 [bb0: i64 0], [bb1: %1]",
    "  %1 = add i64 %0, i64 1",
    "  %2 = icmp slt %1, $%0",
    "  condbr %2, bb1, bb2",
    "bb2: ; exit",
    "  ret void",
    "}",
];

/// The module text with `line` in its context, and the line's number.
fn embed(ctx: Ctx, line: &str) -> (String, usize) {
    let straight = format!("func @f(i64 %n, ptr %p) -> void {{\nbb0: ; entry\n  {line}\n  ret void\n}}\n");
    match ctx {
        Ctx::Straight => (straight, 3),
        Ctx::Peer(peer) => {
            let peer = format!("func @peer() -> void {{\nbb0: ; entry\n  {peer}\n  ret void\n}}\n");
            (straight + &peer, 3)
        }
        Ctx::Loop(at) => {
            let mut lines = LOOP.map(str::to_string);
            lines[at - 1] = format!("  {line}");
            (lines.join("\n") + "\n", at)
        }
    }
}

/// What a broken line comes back as.
#[derive(Debug, PartialEq)]
enum Outcome {
    Parse(usize),
    /// The parser re-verifies: a line that reads but breaks an invariant
    /// of the whole function has no line to point at.
    Verify,
    Ok,
}

fn outcome(text: &str) -> Outcome {
    match parse_module_with_spans(text) {
        Ok(_) => Outcome::Ok,
        Err(IrError::Parse { line, .. }) => Outcome::Parse(line),
        Err(IrError::Verify(_)) => Outcome::Verify,
        Err(other) => panic!("untyped failure {other:?} on:\n{text}"),
    }
}

/// The mechanical breakages of one valid line, each with a label.
fn breakages(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let cut = line.rfind(", ").or_else(|| line.rfind(' ')).expect("a form has two words");
    out.push(("field missing".to_string(), line[..cut].to_string()));
    out.push(("field extra".to_string(), format!("{line}, i64 1")));
    out.push(("open (".to_string(), format!("{line} (")));
    out.push(("open [".to_string(), format!("{line} [")));
    if line.ends_with([']', ')']) {
        out.push(("unterminated".to_string(), line[..line.len() - 1].to_string()));
    }
    // Every kind of id at u32::MAX: far past anything the function has.
    for id in ["%0 =", "$%0", "$%1", " %1", "%2", "bb1", "q0"] {
        if let Some(at) = line.find(id) {
            let digit = at + id.find(|c: char| c.is_ascii_digit()).expect("an id has a digit");
            let broken = format!("{}4294967295{}", &line[..digit], &line[digit + 1..]);
            out.push((format!("{} at u32::MAX", id.trim()), broken));
        }
    }
    out
}

/// The breakages that are not a parse error on the broken line, and why.
fn exception(form: &str, breakage: &str) -> Option<Outcome> {
    Some(match (form, breakage) {
        // One phi edge fewer is a well-formed line; the verifier compares
        // edges to CFG predecessors.
        ("phi", "field missing") => Outcome::Verify,
        // `atomic_cas` less its expected value and `atomic_add` with one
        // are the other atomic form; the verifier does not tell them apart.
        ("atomic_cas", "field missing") | ("atomic_add", "field extra") => Outcome::Ok,
        // Sends are checked before recvs: the peer's `send q0` (line 8) is
        // the first endpoint left without a partner.
        ("recv", "q0 at u32::MAX") => Outcome::Parse(8),
        _ => return None,
    })
}

#[test]
fn every_mir_form_reads_and_its_breakages_are_spanned_errors() {
    for &(form, ctx, line) in FORMS {
        let (text, at) = embed(ctx, line);
        assert_eq!(outcome(&text), Outcome::Ok, "{form}: `{line}` is the valid form\n{text}");
        for (breakage, broken) in breakages(line) {
            let expected = exception(form, &breakage).unwrap_or(Outcome::Parse(at));
            let (text, _) = embed(ctx, &broken);
            assert_eq!(outcome(&text), expected, "{form}, {breakage}: `{broken}`");
        }
    }
}

#[test]
fn malformed_headers_and_labels_are_spanned_errors() {
    let cases = [
        ("func @a)( -> void {\nbb0: ; e\n  ret void\n}\n", 1),
        ("func @a( -> void {\nbb0: ; e\n  ret void\n}\n", 1),
        ("func @a) -> void {\nbb0: ; e\n  ret void\n}\n", 1),
        ("func @a() -> void\nbb0: ; e\n  ret void\n}\n", 1),
        ("func @a() -> i128 {\nbb0: ; e\n  ret void\n}\n", 1),
        ("func @a(i64) -> void {\nbb0: ; e\n  ret void\n}\n", 1),
        ("func @a(i65 %x) -> void {\nbb0: ; e\n  ret void\n}\n", 1),
        ("module m\nfunc @a() -> void {\nbb4294967296: ; e\n  ret void\n}\n", 3),
        ("module m\nfunc @a() -> void {\nbb1: ; e\n  ret void\n}\n", 3),
        ("module m\nfunc @a() -> void {\n  ret void\n}\n", 3),
        ("module m\nfunc @a() -> void {\nbb0: ; e\n  %x = add i64 i64 1, i64 2\n  ret void\n}\n", 4),
        ("module m\nstray\n", 2),
        // A parameter past the header's list used to come back from the
        // verifier, without a line.
        ("func @a(i64 %x) -> i64 {\nbb0: ; e\n  %0 = add i64 $%0, $%7\n  ret %0\n}\n", 3),
    ];
    for (text, line) in cases {
        assert_eq!(outcome(text), Outcome::Parse(line), "{text}");
    }
}

// ---------------------------------------------------------------------
// (a) Structural cases: `.cfg`
// ---------------------------------------------------------------------

/// Every `.cfg` key with its default and whether `0`, `u64::MAX`, `nan`
/// and the empty value are accepted: the rows of DESIGN.md's table.
const KEYS: &[(&str, &str, [bool; 4])] = &[
    ("core.name", "OoO", [true, true, true, true]),
    ("core.issue_width", "4", [true, false, false, false]),
    ("core.window_size", "128", [true, true, false, false]),
    ("core.lsq_size", "128", [true, false, false, false]),
    ("core.branch", "static", [false, false, false, false]),
    ("core.mispredict_penalty", "8", [true, true, false, false]),
    ("core.alias_speculation", "on", [true, false, false, false]),
    ("core.live_dbb_limit", "0", [true, false, false, false]),
    ("core.clock_divisor", "1", [true, true, false, false]),
    ("core.area_mm2", "8.44", [true, true, false, false]),
    ("core.desc_extensions", "off", [true, false, false, false]),
    ("core.desc_buffer", "64", [true, false, false, false]),
    ("mem.l1.size_kb", "32", [false, false, false, false]),
    ("mem.l1.ways", "8", [false, false, false, false]),
    ("mem.l1.latency", "1", [true, true, false, false]),
    ("mem.l2.size_kb", "2048", [true, false, false, false]),
    ("mem.l2.ways", "8", [false, false, false, false]),
    ("mem.l2.latency", "6", [true, true, false, false]),
    ("mem.llc.size_kb", "20480", [false, false, false, false]),
    ("mem.llc.ways", "20", [false, false, false, false]),
    ("mem.llc.latency", "26", [true, true, false, false]),
    ("mem.mshr_entries", "16", [true, true, false, false]),
    ("mem.prefetch", "on", [true, false, false, false]),
    ("mem.atomic_penalty", "14", [true, true, false, false]),
    ("mem.dram", "simple", [false, false, false, false]),
    ("mem.dram.latency", "180", [true, true, false, false]),
    ("mem.dram.bandwidth_bytes_per_cycle", "21.25", [false, true, false, false]),
    ("mem.noc.mesh_width", "0", [true, false, false, false]),
    ("mem.noc.hop_latency", "2", [true, true, false, false]),
];

const PROBES: [&str; 4] = ["0", "18446744073709551615", "nan", ""];

/// A small kernel and its trace, to build systems over.
fn tiny_system() -> (Arc<Module>, Arc<KernelTrace>, mosaicsim::ir::FuncId) {
    let text = std::fs::read_to_string(repo_file("examples/mir/saxpy.mir")).unwrap();
    let module = parse_module(&text).unwrap();
    let func = module.functions().next().unwrap().id();
    let mut mem = MemImage::new();
    // `@saxpy(ptr %x, ptr %y, i64 %n)`.
    let args = vec![mem.alloc_f32(64) as i64, mem.alloc_f32(64) as i64, 64];
    let args = args.into_iter().map(RtVal::Int).collect();
    let (trace, _) = record_trace(&module, mem, &[TileProgram::single(func, args)]).unwrap();
    (Arc::new(module), Arc::new(trace), func)
}

fn repo_file(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

/// `SystemBuilder::build` over a parsed configuration: it must return.
fn build(
    system: &(Arc<Module>, Arc<KernelTrace>, mosaicsim::ir::FuncId),
    (core, mem): (CoreConfig, HierarchyConfig),
) -> Result<(), MosaicError> {
    let (module, trace, func) = system;
    SystemBuilder::new(module.clone(), trace.clone())
        .memory(mem)
        .core(core, *func, 0)
        .build()
        .map(drop)
}

#[test]
fn every_cfg_key_reads_and_its_bad_values_are_typed_errors() {
    let system = tiny_system();
    let defaults = format!("{:?}", parse_system_config("").unwrap()).replace("L1-D", "L1");
    for &(key, default, accepted) in KEYS {
        // The documented default is the default: setting it changes
        // nothing (but the L1's display name).
        let parsed = parse_system_config(&format!("{key} = {default}")).unwrap();
        assert_eq!(format!("{parsed:?}").replace("L1-D", "L1"), defaults, "{key} = {default}");
        for (probe, ok) in PROBES.into_iter().zip(accepted) {
            let text = format!("# probe\n{key} = {probe}\n");
            match parse_system_config(&text) {
                Ok(parsed) => {
                    assert!(ok, "`{key} = {probe}` is accepted");
                    // Whatever parses either builds or is refused by name.
                    if let Err(e) = build(&system, parsed) {
                        assert!(matches!(e, MosaicError::InvalidConfig { .. }), "{key}: {e:?}");
                    }
                }
                Err(ConfigError::BadValue { line, key: k, value }) => {
                    assert!(!ok, "`{key} = {probe}` is refused");
                    assert_eq!((line, k.as_str(), value.as_str()), (2, key, probe));
                }
                Err(other) => panic!("`{key} = {probe}`: {other:?}"),
            }
        }
    }
    // A size whose bytes overflow a `u64` (it wrapped to a 1 KiB cache).
    let err = parse_system_config("mem.l1.size_kb = 18014398509481985").unwrap_err();
    assert!(matches!(err, ConfigError::BadValue { line: 1, .. }), "{err:?}");
    for text in ["mem.dram.bandwidth_bytes_per_cycle = -1", "mem.dram.bandwidth_bytes_per_cycle = inf"] {
        let err = parse_system_config(text).unwrap_err();
        assert!(matches!(err, ConfigError::BadValue { line: 1, .. }), "{text}: {err:?}");
    }
    for text in ["core.area_mm2 = -1", "core.area_mm2 = inf", "no equals sign", "mem.l1.sets = 4"] {
        assert!(parse_system_config(text).is_err(), "{text}");
    }
}

#[test]
fn latencies_the_cycle_arithmetic_cannot_hold_are_invalid_configs() {
    let system = tiny_system();
    let cases = [
        ("mem.l1.latency", "memory.l1.latency"),
        ("mem.dram.latency", "memory.dram.min_latency"),
        ("mem.noc.mesh_width = 4\nmem.noc.hop_latency", "memory.noc.hop_latency"),
        ("mem.atomic_penalty", "memory.atomic_penalty"),
        ("core.mispredict_penalty", "core.mispredict_penalty"),
    ];
    for (key, field) in cases {
        let parsed = parse_system_config(&format!("{key} = {}", u64::MAX)).unwrap();
        match build(&system, parsed) {
            Err(MosaicError::InvalidConfig { field: named, .. }) => assert_eq!(named, field),
            other => panic!("{key} = u64::MAX: expected InvalidConfig, got {other:?}"),
        }
    }
    let (module, trace, func) = &system;
    let slow_channel = ChannelConfig { capacity: 4, latency: u64::MAX };
    let err = SystemBuilder::new(module.clone(), trace.clone())
        .channels(slow_channel)
        .core(CoreConfig::in_order(), *func, 0)
        .build()
        .map(drop)
        .unwrap_err();
    assert!(matches!(&err, MosaicError::InvalidConfig { field, .. } if field == "channel.latency"));
    // The shipped configurations and the presets still build.
    for name in ["ooo_xeon.cfg", "dae_access.cfg"] {
        let parsed = load_system_config(repo_file(&format!("configs/{name}"))).unwrap();
        build(&system, parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    for mem in [xeon_memory(), dae_memory(), small_memory(), HierarchyConfig::default()] {
        build(&system, (CoreConfig::out_of_order(), mem)).unwrap();
    }
}

// ---------------------------------------------------------------------
// DESIGN.md's two tables list what the tables above list.
// ---------------------------------------------------------------------

/// The first-column cells of the table rows under `heading`.
fn design_table(heading: &str) -> Vec<String> {
    let design = std::fs::read_to_string(repo_file("DESIGN.md")).unwrap();
    let section = design.split(heading).nth(1).unwrap_or_else(|| panic!("no `{heading}`"));
    let rows = section.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    let cells = rows.skip(2).map(|row| row.split('|').nth(1).unwrap().trim().replace('`', ""));
    cells.collect()
}

#[test]
fn design_md_tables_list_the_forms_and_keys_tested_here() {
    let documented: BTreeSet<String> = design_table("**`.mir` line forms.**")
        .iter()
        .flat_map(|cell| cell.split(", ").map(str::to_string).collect::<Vec<_>>())
        .collect();
    let mut forms: BTreeSet<String> = ["icmp", "fcmp", "select", "gep", "load", "store", "phi"]
        .into_iter()
        .chain(["call", "send", "recv", "br", "condbr", "ret"])
        .map(str::to_string)
        .collect();
    forms.extend(BinOp::ALL.iter().map(|op| op.mnemonic().to_string()));
    forms.extend(AtomicOp::ALL.iter().map(|op| op.mnemonic().to_string()));
    forms.extend(CastKind::ALL.iter().map(|kind| kind.mnemonic().to_string()));
    assert_eq!(documented, forms, "DESIGN.md's `.mir` table against the mnemonics");
    for (form, _, _) in FORMS {
        let head = form.split(' ').next().unwrap();
        assert!(forms.contains(head), "{form} is tested but not a documented form");
    }

    let documented: BTreeSet<String> = design_table("**`.cfg` keys.**")
        .iter()
        .flat_map(|cell| match cell.contains("<level>") {
            true => ["l1", "l2", "llc"].map(|level| cell.replace("<level>", level)).to_vec(),
            false => vec![cell.clone()],
        })
        .collect();
    let keys: BTreeSet<String> = KEYS.iter().map(|(key, _, _)| key.to_string()).collect();
    assert_eq!(documented, keys, "DESIGN.md's `.cfg` table against the keys tested here");
}

// ---------------------------------------------------------------------
// (b), (c) Every bundled module: mutations and the text fixed point
// ---------------------------------------------------------------------

/// Every module the repository bundles — what `mosaic-lint --kernels`
/// walks — printed, projection as `slice_dae` splits it (its slices keep
/// the instructions they dropped in their arenas), plus the `examples/mir`
/// sources.
fn corpus() -> Vec<(String, String)> {
    let mut kernels = k::bundled();
    let mut sliced = k::projection::build(1);
    slice_dae(&mut sliced.module, sliced.func, DaeQueues::default()).unwrap();
    sliced.name += "/dae";
    kernels.push(sliced);
    let mut texts: Vec<(String, String)> =
        kernels.iter().map(|p| (p.name.clone(), print_module(&p.module))).collect();
    for entry in std::fs::read_dir(repo_file("examples/mir")).unwrap() {
        let path = entry.unwrap().path();
        texts.push((path.display().to_string(), std::fs::read_to_string(&path).unwrap()));
    }
    texts
}

#[test]
fn printing_a_parsed_module_is_a_fixed_point_on_every_bundled_module() {
    let corpus = corpus();
    assert!(corpus.len() >= 20, "{} modules", corpus.len());
    for (name, text) in corpus {
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = print_module(&parsed);
        let reparsed = parse_module(&printed).unwrap_or_else(|e| panic!("{name} reprinted: {e}"));
        assert_eq!(print_module(&reparsed), printed, "{name}");
    }
}

/// A uniform index below `bound`.
fn below(rng: &mut Rng, bound: usize) -> usize {
    rng.below(bound as u64) as usize
}

/// The characters both formats give a meaning to.
const ALPHABET: &[u8] = b"()[]{},:;%$=@ \n-.0123456789qbiftovpxe>#";

/// One to four edits: replace, delete or insert a byte, cut a span, drop
/// a line or drop a token.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + below(rng, 4) {
        if bytes.is_empty() {
            break;
        }
        let at = below(rng, bytes.len());
        let span = |bytes: &[u8], stops: &[u8]| {
            let start = bytes[..at].iter().rposition(|b| stops.contains(b)).map_or(0, |p| p + 1);
            let end = bytes[at..].iter().position(|b| stops.contains(b)).map_or(bytes.len(), |p| at + p);
            start..end
        };
        match below(rng, 6) {
            0 => bytes[at] = ALPHABET[below(rng, ALPHABET.len())],
            1 => drop(bytes.remove(at)),
            2 => bytes.insert(at, ALPHABET[below(rng, ALPHABET.len())]),
            3 => drop(bytes.drain(at..(at + 1 + below(rng, 24)).min(bytes.len()))),
            4 => drop(bytes.drain(span(&bytes, b"\n"))),
            _ => drop(bytes.drain(span(&bytes, b" \n"))),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn seeded_mutations_of_every_bundled_text_never_panic() {
    let mut rng = Rng::seed_from_u64(0x4d49_5221);
    let (mut parsed, mut refused) = (0u32, 0u32);
    for (_, text) in corpus() {
        for _ in 0..4000 {
            // `outcome` panics on anything but `Ok`, `Parse` and `Verify`.
            match outcome(&mutate(&text, &mut rng)) {
                Outcome::Ok => parsed += 1,
                _ => refused += 1,
            }
        }
    }
    assert!(parsed > 100 && refused > 1000, "{parsed} parsed, {refused} refused");

    let system = tiny_system();
    let (mut built, mut refused) = (0u32, 0u32);
    for name in ["ooo_xeon.cfg", "dae_access.cfg"] {
        let text = std::fs::read_to_string(repo_file(&format!("configs/{name}"))).unwrap();
        for _ in 0..40000 {
            match parse_system_config(&mutate(&text, &mut rng)).map(|parsed| build(&system, parsed)) {
                Ok(Ok(())) => built += 1,
                Ok(Err(MosaicError::InvalidConfig { .. })) | Err(_) => refused += 1,
                Ok(Err(other)) => panic!("{name}: {other:?}"),
            }
        }
    }
    assert!(built > 100 && refused > 1000, "{built} built, {refused} refused");
}

// ---------------------------------------------------------------------
// (d) The IR's name tables
// ---------------------------------------------------------------------

/// `all` maps to distinct names and each name maps back.
fn check_names<T: Copy + PartialEq + std::fmt::Debug>(
    all: &[T],
    to: fn(T) -> &'static str,
    from: fn(&str) -> Option<T>,
) {
    let names: BTreeSet<&str> = all.iter().map(|&v| to(v)).collect();
    assert_eq!(names.len(), all.len(), "{all:?} share a name");
    for &v in all {
        assert_eq!(from(to(v)), Some(v));
        assert_eq!(from(&to(v).to_uppercase()), None, "{v:?}");
    }
    assert_eq!(from(""), None);
}

#[test]
fn every_name_table_round_trips_and_its_names_are_distinct() {
    check_names(BinOp::ALL, BinOp::mnemonic, BinOp::from_mnemonic);
    check_names(IntPredicate::ALL, IntPredicate::mnemonic, IntPredicate::from_mnemonic);
    check_names(FloatPredicate::ALL, FloatPredicate::mnemonic, FloatPredicate::from_mnemonic);
    check_names(CastKind::ALL, CastKind::mnemonic, CastKind::from_mnemonic);
    check_names(AtomicOp::ALL, AtomicOp::mnemonic, AtomicOp::from_mnemonic);
    check_names(Intrinsic::ALL, Intrinsic::name, Intrinsic::from_name);
    check_names(AccelOp::ALL, AccelOp::name, AccelOp::from_name);
    check_names(Type::ALL, Type::keyword, Type::from_keyword);
    let counts = [BinOp::ALL.len(), IntPredicate::ALL.len(), FloatPredicate::ALL.len()];
    assert_eq!(counts, [17, 8, 6]);
    let counts = [CastKind::ALL.len(), AtomicOp::ALL.len(), Intrinsic::ALL.len()];
    assert_eq!(counts, [6, 5, 14]);
    assert_eq!([AccelOp::ALL.len(), Type::ALL.len()], [9, 9]);
    // A call's callee is looked up in both tables: no name may be in both.
    assert!(AccelOp::ALL.iter().all(|a| Intrinsic::from_name(a.name()).is_none()));
}
