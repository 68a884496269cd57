//! OpenQASM 2.0 subset parser and emitter.
//!
//! The paper's benchmarks originate as RevLib/ScaffCC QASM files; this
//! module reads and writes the subset those programs use: one or more
//! `qreg`s, the gate set of [`crate::Gate`], `measure`/`barrier`
//! (skipped), and arithmetic angle expressions over `pi`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Errors produced while parsing QASM source.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based line of the offending statement.
    pub line: usize,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for QasmError {}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// Multiple `qreg` declarations are flattened into one register in
/// declaration order. `creg`, `measure`, `barrier`, `include`, and the
/// version header are accepted and ignored.
///
/// # Errors
///
/// Returns [`QasmError`] on unknown gates, malformed operands or register
/// declarations, a register name declared twice, registers whose sizes
/// sum past `usize::MAX`, references
/// to undeclared registers, a gate listing one qubit twice, or
/// angle-expression syntax errors (including nesting deeper than 64).
///
/// # Examples
///
/// ```
/// use accqoc_circuit::{parse_qasm, Gate};
///
/// let src = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     h q[0];
///     cx q[0], q[1];
///     rz(pi/4) q[1];
/// "#;
/// let c = parse_qasm(src)?;
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.gates()[1], Gate::Cx(0, 1));
/// # Ok::<(), accqoc_circuit::QasmError>(())
/// ```
pub fn parse_qasm(source: &str) -> Result<Circuit, QasmError> {
    let mut registers: HashMap<String, (usize, usize)> = HashMap::new(); // name → (offset, size)
    let mut total_qubits = 0usize;
    let mut gates: Vec<Gate> = Vec::new();

    for (line_idx, raw_line) in source.lines().enumerate() {
        let line_no = line_idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        // A line may contain several `;`-terminated statements.
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, line_no, &mut registers, &mut total_qubits, &mut gates)?;
        }
    }
    let mut circuit = Circuit::new(total_qubits);
    for g in gates {
        circuit.push(g);
    }
    Ok(circuit)
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn parse_statement(
    stmt: &str,
    line: usize,
    registers: &mut HashMap<String, (usize, usize)>,
    total_qubits: &mut usize,
    gates: &mut Vec<Gate>,
) -> Result<(), QasmError> {
    let err = |message: String| QasmError { line, message };

    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        let (name, size) = parse_reg_decl(rest.trim()).map_err(&err)?;
        if registers.contains_key(&name) {
            return Err(err(format!("register {name:?} is declared twice")));
        }
        let offset = *total_qubits;
        *total_qubits = offset.checked_add(size).ok_or_else(|| {
            err(format!(
                "register {name:?} takes the qubit count past {}",
                usize::MAX
            ))
        })?;
        registers.insert(name, (offset, size));
        return Ok(());
    }
    if stmt.starts_with("creg") || stmt.starts_with("barrier") || stmt.starts_with("measure") {
        return Ok(());
    }

    // Gate statement: name[(params)] operand[, operand]*
    let (head, operands_str) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) if !stmt[..pos].contains('(') || stmt[..pos].contains(')') => {
            (&stmt[..pos], &stmt[pos..])
        }
        _ => {
            // Parameterized gate may contain spaces inside parens; split at
            // the closing paren instead.
            match stmt.find(')') {
                Some(pos) => (&stmt[..=pos], &stmt[pos + 1..]),
                None => return Err(err(format!("malformed statement: {stmt:?}"))),
            }
        }
    };
    let (name, params) = parse_gate_head(head.trim(), line)?;
    let operands: Vec<usize> = operands_str
        .split(',')
        .map(|op| resolve_operand(op.trim(), registers, line))
        .collect::<Result<_, _>>()?;

    let gate = build_gate(&name, &params, &operands, line)?;
    if let Some(&q) = (1..operands.len()).find_map(|i| {
        let q = &operands[i];
        operands[..i].contains(q).then_some(q)
    }) {
        return Err(err(format!("gate {name:?} lists qubit {q} more than once")));
    }
    gates.push(gate);
    Ok(())
}

/// Splits `name[index]` at its first `[` and the first `]` after it.
fn split_indexed(text: &str) -> Option<(&str, &str)> {
    let (name, rest) = text.split_once('[')?;
    let (index, _) = rest.split_once(']')?;
    Some((name.trim(), index.trim()))
}

fn parse_reg_decl(decl: &str) -> Result<(String, usize), String> {
    // e.g. "q[14]"
    let (name, size) =
        split_indexed(decl).ok_or_else(|| format!("bad register declaration {decl:?}"))?;
    let name = name.to_string();
    let size: usize = size
        .parse()
        .map_err(|_| format!("bad register size in {decl:?}"))?;
    if name.is_empty() {
        return Err(format!("empty register name in {decl:?}"));
    }
    Ok((name, size))
}

fn parse_gate_head(head: &str, line: usize) -> Result<(String, Vec<f64>), QasmError> {
    if let Some((name, rest)) = head.split_once('(') {
        let (params, _) = rest.rsplit_once(')').ok_or_else(|| QasmError {
            line,
            message: format!("missing ')' in {head:?}"),
        })?;
        let name = name.trim().to_lowercase();
        let params = params
            .split(',')
            .map(|e| eval_expr(e.trim()).map_err(|m| QasmError { line, message: m }))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok((name, params))
    } else {
        Ok((head.to_lowercase(), Vec::new()))
    }
}

fn resolve_operand(
    op: &str,
    registers: &HashMap<String, (usize, usize)>,
    line: usize,
) -> Result<usize, QasmError> {
    let err = |message: String| QasmError { line, message };
    let (name, idx) =
        split_indexed(op).ok_or_else(|| err(format!("expected reg[idx], got {op:?}")))?;
    let idx: usize = idx
        .parse()
        .map_err(|_| err(format!("bad qubit index in {op:?}")))?;
    let &(offset, size) = registers
        .get(name)
        .ok_or_else(|| err(format!("unknown register {name:?}")))?;
    if idx >= size {
        return Err(err(format!(
            "index {idx} out of range for register {name:?} of size {size}"
        )));
    }
    Ok(offset + idx)
}

fn build_gate(
    name: &str,
    params: &[f64],
    operands: &[usize],
    line: usize,
) -> Result<Gate, QasmError> {
    let err = |message: String| QasmError { line, message };
    let need = |n_params: usize, n_ops: usize| -> Result<(), QasmError> {
        if params.len() != n_params || operands.len() != n_ops {
            Err(err(format!(
                "gate {name:?} expects {n_params} params / {n_ops} operands, got {} / {}",
                params.len(),
                operands.len()
            )))
        } else {
            Ok(())
        }
    };
    let g = match name {
        "x" => {
            need(0, 1)?;
            Gate::X(operands[0])
        }
        "y" => {
            need(0, 1)?;
            Gate::Y(operands[0])
        }
        "z" => {
            need(0, 1)?;
            Gate::Z(operands[0])
        }
        "h" => {
            need(0, 1)?;
            Gate::H(operands[0])
        }
        "s" => {
            need(0, 1)?;
            Gate::S(operands[0])
        }
        "sdg" => {
            need(0, 1)?;
            Gate::Sdg(operands[0])
        }
        "t" => {
            need(0, 1)?;
            Gate::T(operands[0])
        }
        "tdg" => {
            need(0, 1)?;
            Gate::Tdg(operands[0])
        }
        "rx" => {
            need(1, 1)?;
            Gate::Rx(operands[0], params[0])
        }
        "ry" => {
            need(1, 1)?;
            Gate::Ry(operands[0], params[0])
        }
        "rz" => {
            need(1, 1)?;
            Gate::Rz(operands[0], params[0])
        }
        "u1" => {
            need(1, 1)?;
            Gate::U1(operands[0], params[0])
        }
        "u2" => {
            need(2, 1)?;
            Gate::U2(operands[0], params[0], params[1])
        }
        "u3" => {
            need(3, 1)?;
            Gate::U3(operands[0], params[0], params[1], params[2])
        }
        "cx" | "cnot" => {
            need(0, 2)?;
            Gate::Cx(operands[0], operands[1])
        }
        "cz" => {
            need(0, 2)?;
            Gate::Cz(operands[0], operands[1])
        }
        "swap" => {
            need(0, 2)?;
            Gate::Swap(operands[0], operands[1])
        }
        "ccx" | "toffoli" => {
            need(0, 3)?;
            Gate::Ccx(operands[0], operands[1], operands[2])
        }
        other => return Err(err(format!("unsupported gate {other:?}"))),
    };
    Ok(g)
}

/// Emits a circuit as OpenQASM 2.0 with a single register `q`.
///
/// # Examples
///
/// ```
/// use accqoc_circuit::{parse_qasm, to_qasm, Circuit, Gate};
///
/// let c = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
/// let round_trip = parse_qasm(&to_qasm(&c))?;
/// assert_eq!(round_trip, c);
/// # Ok::<(), accqoc_circuit::QasmError>(())
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    for g in circuit.iter() {
        let name = g.kind().name();
        let params: Vec<f64> = match *g {
            Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) | Gate::U1(_, a) => vec![a],
            Gate::U2(_, a, b) => vec![a, b],
            Gate::U3(_, a, b, c) => vec![a, b, c],
            _ => vec![],
        };
        if params.is_empty() {
            let _ = write!(out, "{name} ");
        } else {
            // `{:?}` is Rust's shortest representation that parses back
            // to exactly the same f64. Fixed-point formatting here loses
            // low bits on small angles (QFT's pi/2^k controlled phases),
            // which would make a parse(to_qasm(c)) roundtrip compile to
            // *different* unitaries than `c` — the daemon's byte-identity
            // guarantee rides on this being exact.
            let rendered: Vec<String> = params.iter().map(|p| format!("{p:?}")).collect();
            let _ = write!(out, "{name}({}) ", rendered.join(","));
        }
        let ops: Vec<String> = g.qubits().iter().map(|q| format!("q[{q}]")).collect();
        let _ = writeln!(out, "{};", ops.join(", "));
    }
    out
}

// ---------------------------------------------------------------------------
// Angle expression evaluation: +, -, *, /, unary -, parentheses, `pi`.
// ---------------------------------------------------------------------------

/// How deeply factors may nest (parentheses and unary signs): deeper
/// input is an error, not a stack overflow.
const MAX_NESTING: usize = 64;

fn eval_expr(src: &str) -> Result<f64, String> {
    let mut p = ExprParser {
        chars: src.chars().collect(),
        pos: 0,
        depth: 0,
    };
    let v = p.expr()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing input in expression {src:?}"));
    }
    // An infinite or NaN angle has no gate semantics; downstream it
    // would canonicalize to a 0-slice pulse that verifies as perfect.
    if !v.is_finite() {
        return Err(format!("non-finite value of expression {src:?}"));
    }
    Ok(v)
}

struct ExprParser {
    chars: Vec<char>,
    pos: usize,
    /// Factors open on the recursion stack.
    depth: usize,
}

impl ExprParser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<f64, String> {
        let mut acc = self.term()?;
        while let Some(c) = self.peek() {
            match c {
                '+' => {
                    self.pos += 1;
                    acc += self.term()?;
                }
                '-' => {
                    self.pos += 1;
                    acc -= self.term()?;
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<f64, String> {
        let mut acc = self.factor()?;
        while let Some(c) = self.peek() {
            match c {
                '*' => {
                    self.pos += 1;
                    acc *= self.factor()?;
                }
                '/' => {
                    self.pos += 1;
                    acc /= self.factor()?;
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<f64, String> {
        if self.depth == MAX_NESTING {
            return Err(format!("expression nested deeper than {MAX_NESTING}"));
        }
        self.depth += 1;
        let value = self.atom();
        self.depth -= 1;
        value
    }

    fn atom(&mut self) -> Result<f64, String> {
        match self.peek() {
            Some('-') => {
                self.pos += 1;
                Ok(-self.factor()?)
            }
            Some('+') => {
                self.pos += 1;
                self.factor()
            }
            Some('(') => {
                self.pos += 1;
                let v = self.expr()?;
                if self.peek() != Some(')') {
                    return Err("missing ')'".to_string());
                }
                self.pos += 1;
                Ok(v)
            }
            Some(c) if c.is_ascii_digit() || c == '.' => self.number(),
            Some(c) if c.is_ascii_alphabetic() => {
                let start = self.pos;
                while self.pos < self.chars.len() && self.chars[self.pos].is_ascii_alphanumeric() {
                    self.pos += 1;
                }
                let word: String = self.chars[start..self.pos].iter().collect();
                match word.as_str() {
                    "pi" | "PI" | "Pi" => Ok(std::f64::consts::PI),
                    other => Err(format!("unknown identifier {other:?}")),
                }
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let mut seen_e = false;
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            if c.is_ascii_digit() || c == '.' {
                self.pos += 1;
            } else if (c == 'e' || c == 'E') && !seen_e {
                seen_e = true;
                self.pos += 1;
                if matches!(self.chars.get(self.pos), Some('+') | Some('-')) {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse().map_err(|_| format!("bad number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn parses_basic_program() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0], q[1];\nccx q[0],q[1],q[2];\nmeasure q[0] -> c[0];\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[2], Gate::Ccx(0, 1, 2));
    }

    #[test]
    fn parses_angles() {
        let src = "qreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nu3(0.5, pi*2, 1e-3) q[0];\nu1((pi+1)/2) q[0];";
        let c = parse_qasm(src).unwrap();
        match c.gates()[0] {
            Gate::Rz(0, a) => assert!((a - PI / 2.0).abs() < 1e-15),
            ref g => panic!("unexpected {g:?}"),
        }
        match c.gates()[1] {
            Gate::Rx(0, a) => assert!((a + PI / 4.0).abs() < 1e-15),
            ref g => panic!("unexpected {g:?}"),
        }
        match c.gates()[2] {
            Gate::U3(0, a, b, cc) => {
                assert!((a - 0.5).abs() < 1e-15);
                assert!((b - 2.0 * PI).abs() < 1e-15);
                assert!((cc - 1e-3).abs() < 1e-18);
            }
            ref g => panic!("unexpected {g:?}"),
        }
        match c.gates()[3] {
            Gate::U1(0, a) => assert!((a - (PI + 1.0) / 2.0).abs() < 1e-15),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    fn multiple_registers_flatten() {
        let src = "qreg a[2];\nqreg b[2];\ncx a[1], b[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.gates()[0], Gate::Cx(1, 2));
    }

    #[test]
    fn a_register_declared_twice_is_an_error() {
        // A second `qreg q` must not replace the first while the qubit
        // count still includes both: `q[0]` would silently name qubit 1.
        let e = parse_qasm("qreg q[1];\nqreg q[2];\nh q[0];").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("\"q\" is declared twice"), "{e}");
        let e = parse_qasm("qreg a[1]; qreg b[1]; qreg a[1];").unwrap_err();
        assert!(e.message.contains("\"a\" is declared twice"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines() {
        let src = "// header comment\nqreg q[1];\n\nx q[0]; // flip\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn multiple_statements_per_line() {
        let src = "qreg q[2]; h q[0]; cx q[0],q[1];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn deep_angle_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| {
            format!(
                "qreg q[1]; rz({}1{}) q[0];",
                "(".repeat(depth),
                ")".repeat(depth)
            )
        };
        assert!(parse_qasm(&nested(MAX_NESTING - 1)).is_ok());
        for deep in [
            nested(MAX_NESTING),
            nested(100_000),
            format!("qreg q[1]; rz({}1) q[0];", "-".repeat(100_000)),
        ] {
            let e = parse_qasm(&deep).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{e}");
        }
    }

    #[test]
    fn error_cases_report_lines() {
        let cases = [
            ("qreg q[1];\nbogus q[0];", "unsupported gate"),
            ("qreg q[1];\nx r[0];", "unknown register"),
            ("qreg q[1];\nx q[5];", "out of range"),
            ("qreg q[1];\nrz(foo) q[0];", "unknown identifier"),
            ("qreg q[1];\nrz(1+) q[0];", "unexpected token"),
            ("qreg q[1];\nrz(1e400) q[0];", "non-finite"),
            ("qreg q[1];\ncx q[0];", "expects 0 params / 2 operands"),
            ("qreg q[2];\ncx q[1], q[1];", "lists qubit 1 more than once"),
            ("qreg q[1];\nqreg q]x[;", "bad register declaration"),
            ("qreg a[18446744073709551615];\nqreg b[1];", "past"),
            ("qreg q[1];\nx q]0[;", "expected reg[idx]"),
            ("qreg q[1];\nrz)(1( q[0];", "missing ')'"),
        ];
        for (src, needle) in cases {
            let e = parse_qasm(src).unwrap_err();
            assert_eq!(e.line, 2, "wrong line for {src:?}");
            assert!(
                e.to_string().contains(needle),
                "{e} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let c = Circuit::from_gates(
            3,
            [
                Gate::H(0),
                Gate::Rz(1, 1.234_567_890_123),
                Gate::Cx(0, 2),
                Gate::U3(1, 0.1, -0.2, 0.3),
                Gate::Tdg(2),
                Gate::Swap(1, 2),
            ],
        );
        let parsed = parse_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(parsed.n_qubits(), c.n_qubits());
        assert_eq!(parsed.len(), c.len());
        for (a, b) in parsed.iter().zip(c.iter()) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.qubits(), b.qubits());
        }
        // Angles survive at full precision.
        match (parsed.gates()[1], c.gates()[1]) {
            (Gate::Rz(_, a), Gate::Rz(_, b)) => assert!((a - b).abs() < 1e-15),
            _ => panic!("gate kind changed"),
        }
    }

    #[test]
    fn roundtrip_angles_are_bit_exact() {
        // QFT controlled phases go down to pi/2^k; the serving daemon's
        // byte-identity guarantee needs these to survive the QASM wire
        // with zero rounding, not just approximately.
        let angles: Vec<f64> = (1..=30)
            .map(|k| std::f64::consts::PI / (1u64 << k) as f64)
            .chain([-0.7, 1e-300, 3.0e5])
            .collect();
        let gates: Vec<Gate> = angles.iter().map(|&a| Gate::Rz(0, a)).collect();
        let c = Circuit::from_gates(1, gates);
        let parsed = parse_qasm(&to_qasm(&c)).unwrap();
        for (i, (p, o)) in parsed.iter().zip(c.iter()).enumerate() {
            match (p, o) {
                (Gate::Rz(_, a), Gate::Rz(_, b)) => assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "angle {i} changed: {b:?} -> {a:?}"
                ),
                _ => panic!("gate kind changed"),
            }
        }
    }

    #[test]
    fn expr_evaluator_precedence() {
        assert!((eval_expr("1+2*3").unwrap() - 7.0).abs() < 1e-15);
        assert!((eval_expr("(1+2)*3").unwrap() - 9.0).abs() < 1e-15);
        assert!((eval_expr("-pi/2").unwrap() + PI / 2.0).abs() < 1e-15);
        assert!((eval_expr("2/4").unwrap() - 0.5).abs() < 1e-15);
        assert!((eval_expr("1 - 2 - 3").unwrap() + 4.0).abs() < 1e-15);
        assert!(eval_expr("").is_err());
        assert!(eval_expr("1 2").is_err());
        for non_finite in ["1e400", "1/0", "0/0", "-1e400"] {
            let e = eval_expr(non_finite).unwrap_err();
            assert!(e.contains("non-finite"), "{non_finite}: {e}");
        }
    }
}
