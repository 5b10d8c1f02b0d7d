"""The output check, run after the timed stream of every round.

Two parts, per engine whose decisions all returned:

* **Incremental == from scratch.**  A fresh engine installs the final live
  entries in one ``process_batch``; every point and table verdict must give
  the same specialization (``same_specialization``) and the printed
  specialized sources must be identical.
* **Packet equivalence.**  The bmv2 reference interpreter runs the original
  program and the specialized one under the final control-plane state on
  seeded packets, and their outputs must agree.  Most packets are built by
  walking the parser and writing the match keys of installed entries into
  the key fields, so that tables hit; random bytes rarely get past a
  parser.

An engine whose decisions raised is not checked (its state after the
exception is not one the program vouches for); the report lists it as
uncovered, so a failure is never a silent skip.

Known defect, counted rather than hidden: the specializer drops every
action no kept table references, including actions the apply block calls
directly (switch's ``checksum_fix()`` in ``SwitchEgress``), so the
specialized program calls an action it no longer declares.  The check
counts each such dangling call, then puts the original declaration back
before running packets, so that every other difference is still compared.
"""

from __future__ import annotations

from repro.core import Flay, FlayOptions
from repro.p4 import ast_nodes as ast
from repro.p4.errors import TypeCheckError
from repro.p4.types import TypeEnv, eval_const_expr, lvalue_path
from repro.programs.registry import CORPUS
from repro.runtime.entries import ExactMatch, LpmMatch, TernaryMatch
from repro.runtime.semantics import INSERT, Update
from repro.targets.bmv2 import Interpreter, Packet, PacketBuilder

import workloads

PACKETS = 48  # per engine
RANDOM_SHARE = 0.25  # of those, raw random bytes


def from_scratch(program: str, flay: Flay) -> Flay:
    entry = CORPUS[program]
    # The reference runs without the verdict gate, whose verdicts are
    # specified to be identical either way: the check then also compares the
    # gated warm path against the gate-free one (which is faster, too).  The
    # prune pass stays on: it removes program points, so without it the
    # point verdicts would not line up.
    scratch = Flay.from_source(
        entry.source(),
        FlayOptions(target="none", skip_parser=entry.skip_parser, fdd_gate=False),
    )
    live = [
        Update(name, INSERT, table_entry)
        for name, table in sorted(flay.runtime.state.tables.items())
        for table_entry in table.entries()
    ]
    if live:
        scratch.process_batch(live)
    return scratch


def verdict_mismatches(flay: Flay, scratch: Flay) -> list:
    bad = []
    for attr in ("point_verdicts", "table_verdicts"):
        mine = getattr(flay.runtime, attr)
        theirs = getattr(scratch.runtime, attr)
        if mine.keys() != theirs.keys():
            bad.append(f"{attr}: key sets differ")
            continue
        bad.extend(
            str(key)
            for key in sorted(mine, key=str)
            if not mine[key].same_specialization(theirs[key])
        )
    return bad


def direct_calls(block: ast.Block):
    """Names called directly (no target) anywhere in a control's apply block."""
    for stmt in block.statements:
        if isinstance(stmt, ast.MethodCallStmt) and stmt.call.target is None:
            yield stmt.call.method
        elif isinstance(stmt, ast.IfStmt):
            yield from direct_calls(stmt.then)
            if stmt.orelse is not None:
                yield from direct_calls(stmt.orelse)
        elif isinstance(stmt, ast.SwitchStmt):
            for case in stmt.cases:
                yield from direct_calls(case.body)


def restore_dangling_actions(original: ast.Program, specialized: ast.Program):
    """``specialized`` with dropped, directly called actions declared again.

    Returns the repaired program and the ``control.action`` names restored.
    """
    dangling = []
    declarations = []
    for decl in specialized.declarations:
        if isinstance(decl, ast.ControlDecl):
            declared = {
                local.name for local in decl.locals if isinstance(local, ast.ActionDecl)
            }
            called = set(direct_calls(decl.apply)) - declared
            missing = [
                local
                for local in original.find(decl.name).locals
                if isinstance(local, ast.ActionDecl) and local.name in called
            ]
            if missing:
                dangling.extend(f"{decl.name}.{local.name}" for local in missing)
                decl = ast.ControlDecl(
                    decl.name, decl.params, decl.locals + tuple(missing), decl.apply
                )
        declarations.append(decl)
    return ast.Program(tuple(declarations)), dangling


def match_value(match, width: int, rng) -> int:
    """A key value that the match accepts."""
    if isinstance(match, ExactMatch):
        return match.value
    if isinstance(match, LpmMatch):
        host = width - match.prefix_len
        return match.value | (rng.getrandbits(host) if host else 0)
    if isinstance(match, TernaryMatch):
        return (match.value & match.mask) | (rng.getrandbits(width) & ~match.mask)
    raise TypeError(match)


def key_targets(program: ast.Program, state, rng) -> dict:
    """Field path -> value taken from one installed entry per table."""
    targets: dict = {}
    for decl in program.declarations:
        if not isinstance(decl, ast.ControlDecl):
            continue
        for local in decl.locals:
            if not isinstance(local, ast.TableDecl):
                continue
            table = state.tables.get(f"{decl.name}.{local.name}")
            if table is None or not len(table) or rng.random() < 0.3:
                continue
            entry = rng.choice(table.entries())
            widths = table.info.key_widths()
            for key, match, width in zip(local.keys, entry.matches, widths):
                try:
                    path = lvalue_path(key.expr)
                except TypeCheckError:  # a key that is not a field (slice, cast...)
                    continue
                targets[path] = match_value(match, width, rng)
    return targets


def walk_parser(program: ast.Program, env: TypeEnv, targets: dict, rng) -> bytes:
    """Bytes that follow one random parser path, with ``targets`` written in."""
    parser = program.find(program.pipeline.parser)
    states = {s.name: s for s in parser.states}
    roots = {p.name: p.type for p in parser.params}
    slots: list = []  # [path, width, value]
    index: dict = {}
    current = "start"
    for _ in range(64):
        if current in (ast.ACCEPT, ast.REJECT) or current not in states:
            break
        parser_state = states[current]
        for stmt in parser_state.statements:
            call = getattr(stmt, "call", None)
            if call is None or call.method != "pkt_extract":
                continue
            header = lvalue_path(call.args[0])
            root, _, rest = header.partition(".")
            htype = roots[root]
            for part in rest.split(".") if rest else ():
                htype = env.member_type(htype, part)
            for field_decl in env.fields_of(htype):
                path = f"{header}.{field_decl.name}"
                width = env.width_of(field_decl.type)
                value = targets.get(path, rng.getrandbits(width))
                index[path] = len(slots)
                slots.append([path, width, value & ((1 << width) - 1)])
        transition = parser_state.transition
        if isinstance(transition, ast.TransitionDirect):
            current = transition.state
            continue
        cases = [
            c for c in transition.cases if not all(k.is_default for k in c.keys)
        ]
        if not cases or rng.random() < 0.1:
            cases = list(transition.cases)
        case = rng.choice(cases)
        for expr, keyset in zip(transition.exprs, case.keys):
            if keyset.is_default or keyset.value_set_name is not None:
                continue
            try:
                path = lvalue_path(expr)
            except TypeCheckError:  # a select on a computed expression
                continue
            value = eval_const_expr(keyset.value, env)
            if path not in index or value is None:
                continue
            slot = slots[index[path]]
            full = (1 << slot[1]) - 1
            mask = full if keyset.mask is None else eval_const_expr(keyset.mask, env)
            slot[2] = (slot[2] & ~mask & full) | (value & mask)
        current = case.state
    builder = PacketBuilder()
    for _, width, value in slots:
        builder.push(value, width)
    builder.push_bytes(bytes(rng.getrandbits(8) for _ in range(16)))
    return builder.build().data


def packet_check(program: str, flay: Flay, rng) -> dict:
    original = workloads.original(program)
    env = TypeEnv(original)
    reference = Interpreter(original, env)
    repaired, dangling = restore_dangling_actions(original, flay.specialized_program)
    specialized = Interpreter(repaired)
    state = flay.runtime.state
    ignored = tuple(flay.report.pruned_headers)
    mismatches = 0
    hits = 0
    parsed = 0
    parser = original.find(original.pipeline.parser)
    # Intrinsic metadata is per-packet input (the analysis treats it as free,
    # like header fields); user metadata starts at zero and is left alone.
    intrinsic = {
        info.path
        for param in parser.params
        if param.name == "intr" or "intrinsic" in str(getattr(param.type, "name", ""))
        for info in env.flatten(param.name, param.type)
    }
    for _ in range(PACKETS):
        if rng.random() < RANDOM_SHARE:
            data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 96)))
            preset = {}
        else:
            targets = key_targets(original, state, rng)
            data = walk_parser(original, env, targets, rng)
            # Intrinsic keys (``intr.ingress_port``) start out at the entry's
            # value; header keys are written into the bytes.
            preset = {path: value for path, value in targets.items() if path in intrinsic}
        want = reference.run(Packet(data), state, intrinsic=preset)
        got = specialized.run(Packet(data), state, intrinsic=preset)
        hits += sum(1 for step in want.trace if ":hit:" in step)
        parsed += not want.parser_error
        a = want.output_view(ignore_prefixes=ignored)
        b = got.output_view(ignore_prefixes=ignored)
        if (
            want.dropped != got.dropped
            or want.parser_error != got.parser_error
            or any(a[k] != b[k] for k in a.keys() & b.keys())
        ):
            mismatches += 1
    return {
        "dangling_actions": dangling,
        "packets": PACKETS,
        "packet_mismatches": mismatches,
        "parsed": parsed,
        "table_hits": hits,
    }


def check(engines: dict, sources: dict, failures: dict, rng) -> dict:
    """The per-program check report; ``ok`` is the conjunction over covered engines."""
    report = {"ok": True, "programs": {}}
    for program in sorted(engines):
        if program in failures:
            report["programs"][program] = {"covered": False, "reason": "decisions raised"}
            continue
        flay = engines[program]
        scratch = from_scratch(program, flay)
        verdicts = verdict_mismatches(flay, scratch)
        row = {
            "covered": True,
            "verdict_mismatches": verdicts[:5],
            "source_equal": scratch.specialized_source() == sources[program],
        }
        row.update(packet_check(program, flay, rng))
        row["ok"] = not verdicts and row["source_equal"] and not row["packet_mismatches"]
        report["ok"] = report["ok"] and row["ok"]
        report["programs"][program] = row
    return report
