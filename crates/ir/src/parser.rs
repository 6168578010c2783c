//! Parser for the textual IR produced by [`crate::printer`].
//!
//! The format round-trips: `parse_module(print_module(m))` reproduces `m`
//! up to block names. This gives the toolchain a durable on-disk kernel
//! format and makes tests/examples self-describing. DESIGN.md §4.1.1
//! tabulates the line forms.

use crate::function::{Function, IrError, Module};
use crate::ids::{BlockId, FuncId, InstId};
use crate::inst::{
    AccelOp, AtomicOp, BinOp, CastKind, FloatPredicate, Inst, IntPredicate, Intrinsic, Opcode,
    Operand,
};
use crate::types::{Constant, Type};

fn perr(line: usize, message: impl Into<String>) -> IrError {
    IrError::Parse {
        line,
        message: message.into(),
    }
}

/// Splits `s` on top-level `", "` separators (commas inside `[...]` or
/// `(...)` do not split).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        parts.push(last);
    }
    parts
}

/// The unread rest of one source line and that line's number: every
/// reader below fails with an [`IrError::Parse`] that carries it.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> IrError {
        perr(self.line, message)
    }

    /// Consumes the next space-delimited word; something must follow it.
    fn word(&mut self) -> Result<&'a str, IrError> {
        let (word, rest) = self
            .rest
            .split_once(' ')
            .ok_or_else(|| self.err(format!("expected more after `{}`", self.rest)))?;
        self.rest = rest;
        Ok(word)
    }

    /// `s` looked up in one of the IR's name tables.
    fn named<T>(&self, s: &str, table: fn(&str) -> Option<T>, what: &str) -> Result<T, IrError> {
        table(s).ok_or_else(|| self.err(format!("bad {what} `{s}`")))
    }

    fn ty_of(&self, s: &str) -> Result<Type, IrError> {
        self.named(s, Type::from_keyword, "type")
    }

    /// Consumes the next word as a type.
    fn ty(&mut self) -> Result<Type, IrError> {
        let word = self.word()?;
        self.ty_of(word)
    }

    fn num<T: std::str::FromStr>(&self, s: &str, what: &str) -> Result<T, IrError> {
        s.parse().map_err(|_| self.err(format!("bad {what} `{s}`")))
    }

    /// The number of a `%7`, `$%0`, `bb3` or `q1`.
    fn id(&self, s: &str, prefix: &str, what: &str) -> Result<u32, IrError> {
        let digits = s.strip_prefix(prefix).and_then(|digits| digits.parse().ok());
        digits.ok_or_else(|| self.err(format!("bad {what} `{s}`")))
    }

    fn block(&self, s: &str) -> Result<BlockId, IrError> {
        self.id(s.trim(), "bb", "block ref").map(BlockId)
    }

    fn queue(&self, s: &str) -> Result<u32, IrError> {
        self.id(s, "q", "queue")
    }

    fn operand(&self, s: &str) -> Result<Operand, IrError> {
        let s = s.trim();
        if s.starts_with("$%") {
            return self.id(s, "$%", "parameter operand").map(Operand::Param);
        }
        if s.starts_with('%') {
            return Ok(Operand::Inst(InstId(self.id(s, "%", "value operand")?)));
        }
        // `<ty> <literal>` constant.
        let (ty, lit) = s
            .split_once(' ')
            .ok_or_else(|| self.err(format!("bad operand `{s}`")))?;
        let ty = self.ty_of(ty)?;
        Ok(Operand::Const(if ty.is_float() {
            Constant::Float(self.num(lit.trim(), "float literal")?, ty)
        } else {
            Constant::Int(self.num(lit.trim(), "int literal")?, ty)
        }))
    }

    /// `parts` as exactly `N` fields: the one place a field count is
    /// checked.
    fn exactly<const N: usize>(&self, parts: Vec<&'a str>) -> Result<[&'a str; N], IrError> {
        parts.try_into().map_err(|parts: Vec<&str>| {
            let (got, fields) = (parts.len(), parts.join(", "));
            self.err(format!("expected {N} comma-separated fields, got {got}: `{fields}`"))
        })
    }

    /// The rest as exactly `N` top-level comma-separated fields.
    fn fields<const N: usize>(&self) -> Result<[&'a str; N], IrError> {
        self.exactly(split_top_level(self.rest))
    }

    /// The rest as exactly `N` comma-separated operands.
    fn operands<const N: usize>(&self) -> Result<[Operand; N], IrError> {
        let mut out = [Operand::Param(0); N];
        for (slot, field) in out.iter_mut().zip(self.fields::<N>()?) {
            *slot = self.operand(field)?;
        }
        Ok(out)
    }
}

/// Parses an instruction's text after any `%N = `: the opcode and the
/// result type it names.
fn parse_inst_body(mut c: Cursor) -> Result<(Opcode, Type), IrError> {
    let text = c.rest.trim();
    let (head, rest) = text.split_once(' ').unwrap_or((text, ""));
    c.rest = rest.trim();

    if let Some(op) = BinOp::from_mnemonic(head) {
        let ty = c.ty()?;
        let [lhs, rhs] = c.operands()?;
        return Ok((Opcode::Bin { op, lhs, rhs }, ty));
    }
    if let Some(op) = AtomicOp::from_mnemonic(head) {
        let ty = c.ty()?;
        let (addr, value, expected) = if split_top_level(c.rest).len() == 3 {
            let [addr, value, expected] = c.operands()?;
            (addr, value, Some(expected))
        } else {
            let [addr, value] = c.operands()?;
            (addr, value, None)
        };
        return Ok((Opcode::AtomicRmw { op, addr, value, expected }, ty));
    }
    if let Some(kind) = CastKind::from_mnemonic(head) {
        let (value, ty) = c
            .rest
            .split_once(" to ")
            .ok_or_else(|| c.err("cast needs `<value> to <type>`"))?;
        let ty = c.ty_of(ty.trim())?;
        return Ok((Opcode::Cast { kind, value: c.operand(value)? }, ty));
    }

    Ok(match head {
        "icmp" => {
            let pred = c.word()?;
            let pred = c.named(pred, IntPredicate::from_mnemonic, "predicate")?;
            let [lhs, rhs] = c.operands()?;
            (Opcode::ICmp { pred, lhs, rhs }, Type::I1)
        }
        "fcmp" => {
            let pred = c.word()?;
            let pred = c.named(pred, FloatPredicate::from_mnemonic, "predicate")?;
            let [lhs, rhs] = c.operands()?;
            (Opcode::FCmp { pred, lhs, rhs }, Type::I1)
        }
        "select" => {
            let ty = c.ty()?;
            let [cond, on_true, on_false] = c.operands()?;
            (Opcode::Select { cond, on_true, on_false }, ty)
        }
        "gep" => {
            let [base, index, elem_size] = c.fields()?;
            let (base, index) = (c.operand(base)?, c.operand(index)?);
            let elem_size = c.num(elem_size, "elem size")?;
            (Opcode::Gep { base, index, elem_size }, Type::Ptr)
        }
        "load" => {
            let [ty, addr] = c.fields()?;
            (Opcode::Load { addr: c.operand(addr)? }, c.ty_of(ty)?)
        }
        "store" => {
            let [addr, value] = c.operands()?;
            (Opcode::Store { addr, value }, Type::Void)
        }
        "phi" => {
            let ty = c.ty()?;
            let mut incoming = Vec::new();
            for edge in split_top_level(c.rest) {
                let (block, value) = edge
                    .strip_prefix('[')
                    .and_then(|e| e.strip_suffix(']'))
                    .and_then(|e| e.split_once(':'))
                    .ok_or_else(|| c.err(format!("bad phi edge `{edge}`")))?;
                incoming.push((c.block(block)?, c.operand(value)?));
            }
            (Opcode::Phi { incoming }, ty)
        }
        "call" => {
            let ty = c.ty()?;
            let (name, args) = c
                .rest
                .split_once('(')
                .ok_or_else(|| c.err("call needs argument list"))?;
            let args = args
                .strip_suffix(')')
                .ok_or_else(|| c.err("unterminated call argument list"))?;
            let args = split_top_level(args)
                .into_iter()
                .map(|arg| c.operand(arg))
                .collect::<Result<Vec<_>, _>>()?;
            let name = name.trim();
            match AccelOp::from_name(name) {
                Some(accel) => (Opcode::AccelCall { accel, args }, Type::Void),
                None => {
                    let intr = Intrinsic::from_name(name)
                        .ok_or_else(|| c.err(format!("unknown callee `{name}`")))?;
                    (Opcode::Call { intr, args }, ty)
                }
            }
        }
        "send" => {
            let [queue, value] = c.fields()?;
            (Opcode::Send { queue: c.queue(queue)?, value: c.operand(value)? }, Type::Void)
        }
        "recv" => {
            // The printer writes `recv i64 q0`; accept a comma too.
            let mut parts = split_top_level(c.rest);
            if let [one] = parts[..] {
                parts = one.split_whitespace().collect();
            }
            let [ty, queue] = c.exactly(parts)?;
            (Opcode::Recv { queue: c.queue(queue)? }, c.ty_of(ty)?)
        }
        "br" => (Opcode::Br { target: c.block(c.rest)? }, Type::Void),
        "condbr" => {
            let [cond, on_true, on_false] = c.fields()?;
            let (on_true, on_false) = (c.block(on_true)?, c.block(on_false)?);
            (Opcode::CondBr { cond: c.operand(cond)?, on_true, on_false }, Type::Void)
        }
        "ret" if c.rest == "void" => (Opcode::Ret { value: None }, Type::Void),
        "ret" => (Opcode::Ret { value: Some(c.operand(c.rest)?) }, Type::Void),
        other => return Err(c.err(format!("unknown instruction `{other}`"))),
    })
}

/// `func @name(ty %p, ...) -> retty {` as a function with no blocks yet.
fn parse_header(c: Cursor) -> Result<Function, IrError> {
    let rest = c
        .rest
        .strip_prefix("func @")
        .ok_or_else(|| c.err("expected `func @name(...)`"))?;
    let (name, rest) = rest.split_once('(').ok_or_else(|| c.err("missing `(`"))?;
    let (params_s, tail) = rest.rsplit_once(')').ok_or_else(|| c.err("missing `)`"))?;
    let ret_s = tail
        .trim()
        .strip_prefix("->")
        .and_then(|t| t.trim().strip_suffix('{'))
        .ok_or_else(|| c.err("expected `-> ty {`"))?;
    let ret_ty = c.ty_of(ret_s.trim())?;
    let mut params = Vec::new();
    if !params_s.trim().is_empty() {
        for p in params_s.split(',') {
            let p = p.trim();
            let (ty_s, name_s) = p
                .split_once(' ')
                .ok_or_else(|| c.err(format!("bad parameter `{p}`")))?;
            let pname = name_s.trim().strip_prefix('%').unwrap_or(name_s).to_string();
            params.push((pname, c.ty_of(ty_s)?));
        }
    }
    Ok(Function::new(FuncId(0), name, params, ret_ty))
}

/// An instruction line waiting for its arena slot: `body` is the text
/// after `%N = `.
struct PendingInst<'a> {
    printed_id: Option<u32>,
    block: BlockId,
    body: Cursor<'a>,
}

/// Parses the function that opens at `header`, taking its body — up to the
/// closing `}` — from `lines`. Returns it with every instruction's line.
fn parse_function<'a>(
    header: Cursor<'a>,
    lines: &mut impl Iterator<Item = Cursor<'a>>,
) -> Result<(Function, Vec<(InstId, usize)>), IrError> {
    let mut func = parse_header(header)?;
    let mut pending: Vec<PendingInst> = Vec::new();
    let mut closed = false;
    for mut c in lines {
        if c.rest == "}" {
            closed = true;
            break;
        }
        let label = c.rest.strip_prefix("bb").and_then(|head| head.split_once(':'));
        if let Some((id, name)) = label.filter(|(id, _)| id.bytes().all(|b| b.is_ascii_digit())) {
            let id: u32 = id.parse().map_err(|_| c.err("bad block id"))?;
            if id as usize != func.blocks.len() {
                return Err(c.err("blocks must appear in id order"));
            }
            let name = name.trim().trim_start_matches(';').trim();
            func.push_block(&if name.is_empty() { format!("bb{id}") } else { name.to_string() });
            continue;
        }
        // Trailing `; ...` comments on instruction lines (block labels
        // were handled above — their `;` names the block).
        if let Some((code, _)) = c.rest.split_once(" ;") {
            c.rest = code.trim_end();
        }
        let block = func.blocks.last().map(|b| b.id);
        let block = block.ok_or_else(|| c.err("instruction before first block label"))?;
        let printed_id = match c.rest.split_once(" = ") {
            Some((lhs, body)) => {
                c.rest = body;
                Some(c.id(lhs.trim(), "%", "result name")?)
            }
            None => None,
        };
        pending.push(PendingInst { printed_id, block, body: c });
    }
    if !closed {
        return Err(header.err(format!("function `{}` missing closing `}}`", func.name)));
    }

    // Assign arena slots: named results keep their printed id; void
    // instructions fill remaining slots in appearance order.
    let named: std::collections::HashSet<u32> =
        pending.iter().filter_map(|p| p.printed_id).collect();
    let total = pending.len() as u32;
    let mut next_free = 0u32;
    let mut alloc_void = || {
        while named.contains(&next_free) {
            next_free += 1;
        }
        let id = next_free;
        next_free += 1;
        id
    };
    let (nblocks, nparams) = (func.blocks.len(), func.params.len());
    let mut arena: Vec<Option<Inst>> = vec![None; pending.len()];
    let mut inst_lines: Vec<(InstId, usize)> = Vec::new();
    for p in &pending {
        let c = p.body;
        let id = p.printed_id.unwrap_or_else(&mut alloc_void);
        if id >= total {
            return Err(c.err(format!("result id %{id} out of range")));
        }
        let (op, ty) = parse_inst_body(c)?;
        // References that escape this function's blocks, instructions or
        // parameters would only surface as line-less verifier errors (or
        // worse, as an index panic downstream); reject them here with the
        // line.
        if let Some(succ) = op.successors().iter().find(|b| b.index() >= nblocks) {
            return Err(c.err(format!("branch target bb{} does not exist", succ.0)));
        }
        if let Opcode::Phi { incoming } = &op {
            if let Some((b, _)) = incoming.iter().find(|(b, _)| b.index() >= nblocks) {
                return Err(c.err(format!("phi references unknown block bb{}", b.0)));
            }
        }
        let mut dangling = None;
        op.for_each_operand(|o| {
            let what = match o {
                Operand::Inst(i) if i.0 >= total => {
                    format!("%{} references a nonexistent instruction", i.0)
                }
                Operand::Param(n) if n as usize >= nparams => {
                    format!("$%{n} references a nonexistent parameter")
                }
                _ => return,
            };
            dangling.get_or_insert(what);
        });
        if let Some(what) = dangling {
            return Err(c.err(format!("operand {what}")));
        }
        let ty = if p.printed_id.is_none() { Type::Void } else { ty };
        if arena[id as usize].is_some() {
            return Err(c.err(format!("duplicate result id %{id}")));
        }
        arena[id as usize] = Some(Inst { id: InstId(id), block: p.block, op, ty });
        func.blocks[p.block.index()].insts.push(InstId(id));
        inst_lines.push((InstId(id), c.line));
    }
    // `total` distinct ids, each below `total`: no slot is left empty.
    func.insts = arena.into_iter().flatten().collect();
    Ok((func, inst_lines))
}

/// Source-line information for a parsed module: the 1-based line each
/// instruction was parsed from.
///
/// Diagnostics produced later (the verifier, `mosaic-lint`) can be mapped
/// back to the `.mir` source with [`SpanTable::line`].
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    lines: std::collections::HashMap<(FuncId, InstId), usize>,
}

impl SpanTable {
    /// The 1-based source line of instruction `inst` of function `func`,
    /// if known.
    pub fn line(&self, func: FuncId, inst: InstId) -> Option<usize> {
        self.lines.get(&(func, inst)).copied()
    }
}

/// Parses a module from the textual format.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input. The
/// returned module has been re-verified.
///
/// # Examples
///
/// ```
/// let text = "module demo\n\nfunc @id(i64 %x) -> i64 {\nbb0: ; entry\n  ret $%0\n}\n";
/// let m = mosaic_ir::parse_module(text).unwrap();
/// assert_eq!(m.functions().count(), 1);
/// ```
pub fn parse_module(text: &str) -> Result<Module, IrError> {
    parse_module_with_spans(text).map(|(m, _)| m)
}

/// Like [`parse_module`], additionally returning a [`SpanTable`] mapping
/// each instruction back to its source line.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input,
/// including channel endpoints with no peer anywhere in the module.
pub fn parse_module_with_spans(text: &str) -> Result<(Module, SpanTable), IrError> {
    let mut spans = SpanTable::default();
    let mut module = Module::new("module");
    // Blank lines and full-line `;` comments are skipped everywhere.
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, raw)| Cursor { rest: raw.trim(), line: i + 1 })
        .filter(|c| !c.rest.is_empty() && !c.rest.starts_with(';'));
    while let Some(c) = lines.next() {
        if let Some(name) = c.rest.strip_prefix("module ") {
            module.name = name.trim().to_string();
        } else if c.rest.starts_with("func @") {
            let (func, inst_lines) = parse_function(c, &mut lines)?;
            let fid = module.add_built_function(func);
            spans.lines.extend(inst_lines.into_iter().map(|(iid, line)| ((fid, iid), line)));
        } else {
            return Err(c.err(format!("unexpected line `{}`", c.rest)));
        }
    }
    spanned_channel_check(&module, &spans)?;
    crate::verify::verify_module(&module)?;
    Ok((module, spans))
}

/// The module-level channel-endpoint invariant
/// ([`crate::verify::verify_channels`]), reported as a spanned parse
/// error pointing at the offending `send`/`recv` line.
fn spanned_channel_check(module: &Module, spans: &SpanTable) -> Result<(), IrError> {
    match crate::verify::unmatched_channel_endpoint(module) {
        Some(end) => Err(perr(spans.line(end.func.id(), end.inst).unwrap_or(0), end.message(""))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IntPredicate};
    use crate::printer::print_module;
    use crate::types::Constant;

    fn loop_module() -> Module {
        let mut m = Module::new("demo");
        let f = m.add_function(
            "vadd",
            vec![("a".into(), Type::Ptr), ("b".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (a, bp, n) = (b.param(0), b.param(1), b.param(2));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, i| {
            let aa = b.gep(a, i, 4);
            let av = b.load(Type::F32, aa);
            let ba = b.gep(bp, i, 4);
            let bv = b.load(Type::F32, ba);
            let s = b.bin(BinOp::FAdd, av, bv);
            b.store(aa, s);
        });
        b.ret(None);
        m
    }

    #[test]
    fn print_parse_round_trip() {
        let m = loop_module();
        let text = print_module(&m);
        let m2 = parse_module(&text).expect("parse");
        // Round trip again: stable fixed point.
        let text2 = print_module(&m2);
        assert_eq!(text, text2);
        let f = m2.function_by_name("vadd").unwrap();
        assert_eq!(m2.function(f).block_count(), 4);
        let _ = IntPredicate::Slt;
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "module x\n\nfunc @f() -> void {\nbb0: ; e\n  bogus_op %1\n}\n";
        match parse_module(bad) {
            Err(IrError::Parse { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unclosed_function() {
        let bad = "func @f() -> void {\nbb0: ; e\n  ret void\n";
        assert!(parse_module(bad).is_err());
    }

    /// Unwraps a parse error, asserting it is spanned.
    fn parse_err(text: &str) -> (usize, String) {
        match parse_module(text) {
            Err(IrError::Parse { line, message }) => (line, message),
            other => panic!("expected spanned parse error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_function_names_the_header_line() {
        // The function opens at line 3 and never closes.
        let (line, msg) = parse_err("module x\n\nfunc @f() -> void {\nbb0: ; e\n  ret void\n");
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("closing"), "{msg}");
    }

    #[test]
    fn phi_from_unknown_block_names_the_line() {
        let bad = "func @f() -> i64 {\nbb0: ; e\n  br bb1\nbb1: ; l\n  %1 = phi i64 [bb0: i64 0], [bb9: i64 1]\n  ret %1\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 5, "{msg}");
        assert!(msg.contains("bb9"), "{msg}");
    }

    #[test]
    fn branch_to_unknown_block_names_the_line() {
        let bad = "func @f() -> void {\nbb0: ; e\n  br bb7\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("bb7"), "{msg}");
    }

    #[test]
    fn operand_out_of_range_names_the_line() {
        let bad = "func @f() -> i64 {\nbb0: ; e\n  %0 = add i64 %9, i64 1\n  ret %0\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("%9"), "{msg}");
    }

    #[test]
    fn mistyped_literal_names_the_line() {
        // A float literal where the declared operand type is integral.
        let bad = "func @f() -> i64 {\nbb0: ; e\n  %0 = add i64 i64 1.5, i64 2\n  ret %0\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("1.5"), "{msg}");
    }

    #[test]
    fn duplicate_result_id_names_the_line() {
        let bad =
            "func @f() -> i64 {\nbb0: ; e\n  %0 = add i64 i64 1, i64 2\n  %0 = add i64 i64 3, i64 4\n  ret %0\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 4, "{msg}");
        assert!(msg.contains("%0"), "{msg}");
    }

    #[test]
    fn bad_queue_reference_names_the_line() {
        let bad = "func @f() -> void {\nbb0: ; e\n  send qx, i64 1\n  ret void\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("qx"), "{msg}");
    }

    #[test]
    fn unmatched_send_is_a_spanned_parse_error() {
        // `send q5` at line 3 has no recv anywhere in the module.
        let bad = "func @f() -> void {\nbb0: ; e\n  send q5, i64 1\n  ret void\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("channel q5"), "{msg}");
        assert!(msg.contains("no matching recv"), "{msg}");
    }

    #[test]
    fn unmatched_recv_is_a_spanned_parse_error() {
        let bad = "func @f() -> i64 {\nbb0: ; e\n  %0 = recv i64 q2\n  ret %0\n}\n";
        let (line, msg) = parse_err(bad);
        assert_eq!(line, 3, "{msg}");
        assert!(msg.contains("no matching send"), "{msg}");
    }

    #[test]
    fn span_table_maps_instructions_to_lines() {
        let text = "module demo\n\nfunc @f(i64 %n) -> i64 {\nbb0: ; e\n  %0 = add i64 $%0, i64 1\n  ret %0\n}\n";
        let (m, spans) = parse_module_with_spans(text).unwrap();
        let fid = m.function_by_name("f").unwrap();
        assert_eq!(spans.line(fid, InstId(0)), Some(5), "add is on line 5");
        assert_eq!(spans.line(fid, InstId(1)), Some(6), "ret is on line 6");
        assert_eq!(spans.line(fid, InstId(9)), None);
    }

    #[test]
    fn span_table_round_trips_matched_channels() {
        // A matched producer/consumer pair parses with spans for both
        // functions.
        let text = "func @prod() -> void {\nbb0: ; e\n  send q0, i64 1\n  ret void\n}\n\nfunc @cons() -> i64 {\nbb0: ; e\n  %0 = recv i64 q0\n  ret %0\n}\n";
        let (m, spans) = parse_module_with_spans(text).unwrap();
        let prod = m.function_by_name("prod").unwrap();
        let cons = m.function_by_name("cons").unwrap();
        assert_eq!(spans.line(prod, InstId(0)), Some(3));
        assert_eq!(spans.line(cons, InstId(0)), Some(9));
    }

    #[test]
    fn comments_are_ignored_everywhere() {
        // Full-line `;` comments (top level and inside bodies) and
        // trailing comments on instruction lines are skipped; the `;` in
        // a block label still names the block.
        let text = "; file header\nmodule demo\n\nfunc @f(i64 %n) -> i64 {\n; about to start\nbb0: ; entry\n  ; computes n+1\n  %1 = add i64 $%0, i64 1 ; trailing note\n  ret %1\n}\n";
        let m = parse_module(text).unwrap();
        let f = m.function(m.function_by_name("f").unwrap());
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.block(f.entry()).name(), "entry");
    }

    #[test]
    fn parse_supports_all_constant_kinds() {
        let text = "func @f(ptr %p) -> f64 {\nbb0: ; e\n  %1 = fadd f64 f64 1.5, f64 -2.0\n  store $%0, i32 7\n  ret %1\n}\n";
        let m = parse_module(text).unwrap();
        let f = m.function(m.function_by_name("f").unwrap());
        assert_eq!(f.inst_count(), 3);
    }
}

#[cfg(test)]
mod roundtrip_tests {
    //! Deterministic generated-kernel round-trip checks (formerly
    //! proptest): print -> parse must be a fixed point that preserves
    //! semantics.
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IntPredicate, Intrinsic};
    use crate::interp::NullSink;
    use crate::mem_image::{MemImage, RtVal};
    use crate::printer::print_module;

    /// A recipe for one instruction inside the generated kernel body.
    #[derive(Debug, Clone)]
    enum OpRecipe {
        Add(u8),
        Mul(u8),
        Xor(u8),
        Min(u8),
        LoadStore,
    }

    /// SplitMix64 — a tiny seeded generator for recipe sampling.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, bound: u64) -> u64 {
            ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
        }
    }

    fn recipe(r: &mut TestRng) -> OpRecipe {
        let k = r.below(256) as u8;
        match r.below(5) {
            0 => OpRecipe::Add(k),
            1 => OpRecipe::Mul(k),
            2 => OpRecipe::Xor(k),
            3 => OpRecipe::Min(k),
            _ => OpRecipe::LoadStore,
        }
    }

    /// Builds a random-but-valid kernel: a counted loop whose body applies
    /// the recipes to a running value and optionally touches memory.
    fn build(recipes: &[OpRecipe]) -> (Module, crate::ids::FuncId) {
        let mut m = Module::new("gen");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::I64,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, nn) = (b.param(0), b.param(1));
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let (acc, acc_phi) = b.phi_incomplete(Type::I64);
        let c = b.icmp(IntPredicate::Slt, i, nn);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let mut v = acc;
        for r in recipes {
            v = match r {
                OpRecipe::Add(k) => b.bin(BinOp::Add, v, Constant::i64(*k as i64).into()),
                OpRecipe::Mul(k) => {
                    b.bin(BinOp::Mul, v, Constant::i64((*k % 7 + 1) as i64).into())
                }
                OpRecipe::Xor(k) => b.bin(BinOp::Xor, v, Constant::i64(*k as i64).into()),
                OpRecipe::Min(k) => b.call(
                    Intrinsic::SMin,
                    vec![v, Constant::i64(*k as i64 * 1000).into()],
                    Type::I64,
                ),
                OpRecipe::LoadStore => {
                    let slot = b.bin(BinOp::And, v, Constant::i64(7).into());
                    let a = b.gep(p, slot, 8);
                    let old = b.load(Type::I64, a);
                    let nv = b.bin(BinOp::Add, old, i);
                    b.store(a, nv);
                    b.bin(BinOp::Add, v, old)
                }
            };
        }
        let i2 = b.bin(BinOp::Add, i, Constant::i64(1).into());
        b.br(header);
        b.phi_add_incoming(i_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(i_phi, body, i2);
        b.phi_add_incoming(acc_phi, entry, Constant::i64(1).into());
        b.phi_add_incoming(acc_phi, body, v);
        b.switch_to(exit);
        b.ret(Some(acc));
        crate::verify::verify_module(&m).unwrap();
        (m, f)
    }

    fn run(m: &Module, f: crate::ids::FuncId, n: i64) -> (Option<RtVal>, Vec<i64>) {
        let mut mem = MemImage::new();
        let p = mem.alloc_i64(8);
        let out = crate::interp::run_single(
            m,
            mem,
            f,
            vec![RtVal::Int(p as i64), RtVal::Int(n)],
            &mut NullSink,
        )
        .unwrap();
        (out.returns[0], out.mem.read_i64_slice(p, 8))
    }

    /// print -> parse is a fixed point AND the parsed module computes
    /// the same result (return value + memory effects) as the original.
    #[test]
    fn print_parse_preserves_semantics() {
        let mut rng = TestRng(42);
        for _case in 0..48 {
            let len = 1 + rng.below(7) as usize;
            let recipes: Vec<OpRecipe> = (0..len).map(|_| recipe(&mut rng)).collect();
            let n = 1 + rng.below(23) as i64;
            let (m, f) = build(&recipes);
            let text = print_module(&m);
            let m2 = parse_module(&text).expect("generated IR reparses");
            assert_eq!(print_module(&m2), text, "printer fixed point");
            let f2 = m2.function_by_name("k").expect("kernel present");
            let (r1, mem1) = run(&m, f, n);
            let (r2, mem2) = run(&m2, f2, n);
            assert_eq!(r1, r2);
            assert_eq!(mem1, mem2);
        }
    }
}
