"""Analyzer rules over the whole-program model.

TAINT-001 lives in taint.py (dataflow); this module hosts the structural
rules and the glue that runs everything over a ProgramModel.
"""

from __future__ import annotations

import os
import re

from . import Finding
from .model import match_paren, match_brace
from .taint import TaintEngine

# ---------------------------------------------------------------------------
# TAINT-002: protocol state mutated before MAC/signature verification.
# ---------------------------------------------------------------------------

_TAINT2_DIRS = ("/bft/", "/itdos/", "/net/", "/shard/")
_MSG_PARAM_RE = re.compile(r"\b(Envelope|Packet)\b")
_VERIFY_CALL_NAMES = {"verify", "verify_envelope", "verify_sig", "open",
                      "authenticate", "check_auth", "tag_for", "unseal"}
# Mutating telemetry before verify is fine — counting malformed/rejected
# input is the point of those members. A logger is telemetry; the
# agreement log (log_, log_ahead_, top_logged_) is protocol state.
_TELEMETRY_MEMBER_RE = re.compile(
    r"(metrics|stats|tel_|telemetry|trace|tracer|logger|counter|gauge|hist"
    r"|rejected|accepted|dropped|discarded|malformed|overload|clock|now)")
_MUTATOR_METHODS = {"push_back", "push_front", "insert", "emplace",
                    "emplace_back", "erase", "clear", "pop_front",
                    "pop_back", "push", "pop", "assign", "resize"}


def check_taint002(program) -> list:
    out = []
    for func in program.functions:
        norm = func.path.replace(os.sep, "/")
        if not any(d in norm for d in _TAINT2_DIRS):
            continue
        if not any(_MSG_PARAM_RE.search(p.type_text) for p in func.params):
            continue
        toks = func.body
        verify_at = None
        for i, t in enumerate(toks):
            if (t.kind == "id" and t.text in _VERIFY_CALL_NAMES
                    and i + 1 < len(toks) and toks[i + 1].text == "("):
                verify_at = i
                break
        if verify_at is None:
            continue   # not the verification boundary for this message
        for i in range(verify_at):
            t = toks[i]
            if t.kind != "id" or not t.text.endswith("_") or len(t.text) < 2:
                continue
            if _TELEMETRY_MEMBER_RE.search(t.text):
                continue
            prev = toks[i - 1] if i >= 1 else None
            if prev is not None and prev.text in {".", "->"}:
                continue   # member of something else, not protocol state here
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            nxt2 = toks[i + 2] if i + 2 < len(toks) else None
            mutated = False
            if nxt is not None and nxt.text == "=":
                mutated = True
            elif (nxt is not None and nxt.text in {".", "->"}
                  and nxt2 is not None and nxt2.kind == "id"):
                if (nxt2.text in _MUTATOR_METHODS and i + 3 < len(toks)
                        and toks[i + 3].text == "("):
                    mutated = True
                elif nxt2.text == "operator":
                    mutated = True
            elif ((nxt is not None and nxt.text in {"++", "--"})
                  or (prev is not None and prev.text in {"++", "--"})):
                mutated = True
            elif nxt is not None and nxt.text == "[":
                # state_[key]: a map's operator[] inserts the key even when
                # the result is only read, so any subscript of protocol
                # state before verify counts (read-only lookups use find()
                # or contains())
                mutated = True
            if mutated:
                out.append(Finding(
                    "TAINT-002", func.path, t.line,
                    f"`{t.text}` mutated before the message's MAC/signature "
                    "is verified; move the write after the verify or count "
                    "it in telemetry instead", function=func.qual_name))
    return out


# ---------------------------------------------------------------------------
# PROTO-003: non-exhaustive switch over a protocol message/kind enum.
# ---------------------------------------------------------------------------

_PROTO_ENUM_RE = re.compile(r"(Kind|Type)$")


def check_proto003(program) -> list:
    out = []
    for sw in program.switches:
        if not _PROTO_ENUM_RE.search(sw.enum_name):
            continue
        # Nested enums collide on unqualified name (Foo::Kind vs Bar::Kind);
        # the switch's enum is the candidate whose enumerators cover every
        # observed case. Ambiguity (several covering candidates that would
        # disagree) means we cannot identify the enum — stay silent.
        candidates = [e for e in program.enums.get(sw.enum_name, [])
                      if sw.cases <= set(e.enumerators)]
        if not candidates:
            continue    # enum defined outside the scanned tree, or unknown
        missings = [[x for x in e.enumerators if x not in sw.cases]
                    for e in candidates]
        if any(sorted(m) != sorted(missings[0]) for m in missings[1:]):
            continue
        missing = missings[0]
        if not missing:
            continue
        listed = ", ".join(missing[:4]) + ("…" if len(missing) > 4 else "")
        via = (" (a `default:` label does not count as coverage — a new "
               "message kind must be routed deliberately)"
               if sw.has_default else "")
        out.append(Finding(
            "PROTO-003", sw.path, sw.line,
            f"switch over {sw.enum_name} misses {len(missing)} "
            f"enumerator(s): {listed}{via}; enumerate every kind"))
    return out


# ---------------------------------------------------------------------------
# BUF-002: a borrowed (non-owning) BufView escaping its storage's scope.
# The zero-copy contract (common/buffer.hpp): owning views (adopted
# storage, copy_of) are refcounted and safe to hold; BufView::borrow() views alias storage the
# caller must keep alive and must never be returned off a local or stored
# into a member.
# ---------------------------------------------------------------------------

def check_buf002(program) -> list:
    out = []
    for func in program.functions:
        toks = func.body
        n = len(toks)
        param_names = {p.name for p in func.params if p.name}
        locals_seen: set = set()
        borrowed: dict[str, str] = {}   # var -> what it borrows from
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            nxt = toks[i + 1] if i + 1 < n else None
            prev = toks[i - 1] if i >= 1 else None

            # Track local declarations: `Type name = ...` / `auto name = ...`
            if (nxt is not None and nxt.text in {"=", ";", "{"}
                    and prev is not None
                    and (prev.kind == "id" or prev.text in {">", "&", "*"})
                    and prev.text not in {"return", "co_return"}
                    and (i < 2 or toks[i - 2].text not in {".", "->"})):
                locals_seen.add(t.text)

            if t.text == "borrow" and nxt is not None and nxt.text == "(":
                close = match_paren(toks, i + 1)
                src_ids = [x.text for x in toks[i + 2:close] if x.kind == "id"]
                src = src_ids[0] if src_ids else "?"
                # `auto v = BufView::borrow(x)` — find the var on the LHS.
                j = i - 1
                while j >= 0 and toks[j].text in {"::", "BufView", "ByteView",
                                                  "itdos", "common"}:
                    j -= 1
                if j >= 1 and toks[j].text == "=" and toks[j - 1].kind == "id":
                    borrowed[toks[j - 1].text] = src
                # `return BufView::borrow(local)` — direct escape.
                k = j
                while k >= 0 and toks[k].text in {"=", "(", "{", ","}:
                    k -= 1
                if k >= 0 and toks[k].text == "return" and src in locals_seen:
                    out.append(Finding(
                        "BUF-002", func.path, t.line,
                        f"returning a borrowed view of local `{src}`; the "
                        "storage dies with this frame — adopt owned "
                        "storage into a BufView instead", function=func.qual_name))

            # Member store of a borrowed view: `member_ = bv;` or
            # `member_.push_back(bv)`.
            if t.text.endswith("_") and len(t.text) > 1 and nxt is not None:
                if prev is not None and prev.text in {".", "->"}:
                    continue
                rhs_lo = None
                if nxt.text == "=":
                    rhs_lo = i + 2
                elif (nxt.text == "." and i + 3 < n
                      and toks[i + 2].text in _MUTATOR_METHODS
                      and toks[i + 3].text == "("):
                    rhs_lo = i + 4
                if rhs_lo is not None:
                    end = rhs_lo
                    while end < n and toks[end].text not in {";", "{", "}"}:
                        end += 1
                    for x in toks[rhs_lo:end]:
                        if x.kind == "id" and (x.text in borrowed
                                               or x.text == "borrow"):
                            what = borrowed.get(x.text, "a borrowed view")
                            out.append(Finding(
                                "BUF-002", func.path, t.line,
                                f"storing a borrowed view into member "
                                f"`{t.text}`; borrows must not outlive the "
                                "call — hold an owning BufView (adopted "
                                "storage or copy_of) instead", function=func.qual_name))
                            break

            # Returning a var that borrows from a local.
            if (t.text == "return" and nxt is not None and nxt.kind == "id"
                    and nxt.text in borrowed
                    and borrowed[nxt.text] in locals_seen
                    and borrowed[nxt.text] not in param_names):
                out.append(Finding(
                    "BUF-002", func.path, nxt.line,
                    f"returning `{nxt.text}`, a borrowed view of local "
                    f"`{borrowed[nxt.text]}`; the storage dies with this "
                    "frame — adopt owned storage into a BufView instead",
                    function=func.qual_name))
    return out


# ---------------------------------------------------------------------------
# EPOCH-001: raw </> comparison of wrapping protocol counters. Use the
# serial-arithmetic helpers in src/common/counters.hpp.
# ---------------------------------------------------------------------------

_COUNTER_SEG_RE = re.compile(
    r"^(epoch|seq|seqno|seq_no|sequence|generation|gen|view|rid|timestamp"
    r"|epochs?_?|seqs?_?|views?_?|generations?_?|rids?_?|timestamps?_?"
    r"|last_stable|low_water|high_water)$", re.I)
_NOT_COUNTER_LAST_SEG = {"size", "length", "empty", "capacity", "remaining",
                         "count", "value_or", "data", "begin", "end"}
_RELOPS = {"<", ">", "<=", ">="}
_TYPEISH = {"::", ",", "*", "&", "<", ">"}


def _operand_chain(toks, i, direction):
    """Collect the dotted id chain to the left (direction=-1) or right
    (direction=+1) of the operator at index i. Returns list of segments."""
    segs = []
    j = i + direction
    n = len(toks)
    expect_id = True
    while 0 <= j < n:
        t = toks[j]
        if expect_id and t.kind == "id":
            segs.append(t.text)
            expect_id = False
        elif not expect_id and t.text in {".", "->", "::"}:
            expect_id = True
        elif not expect_id and t.text in {"(", ")"} and direction > 0:
            break
        else:
            break
        j += direction
    if direction < 0:
        segs.reverse()
    return segs


def _looks_like_template(toks, i):
    """Is the `<` at index i a template-argument opener? Heuristic: a
    matching `>` within 24 tokens containing only type-ish tokens, followed
    by something a template-id can precede."""
    depth = 0
    for j in range(i, min(i + 24, len(toks))):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                nxt = toks[j + 1] if j + 1 < len(toks) else None
                return nxt is not None and (
                    nxt.kind == "id" or nxt.text in {"(", "{", "::", ">", ","})
        elif toks[j].kind not in {"id", "num"} and t not in _TYPEISH:
            return False
    return False


def _closes_template(toks, i):
    """Is the `>` at index i a template-argument closer? Mirror image of
    _looks_like_template: a matching `<` within 24 tokens to the left over
    only type-ish tokens, opened right after an identifier."""
    depth = 0
    for j in range(i, max(i - 24, -1), -1):
        t = toks[j].text
        if t == ">":
            depth += 1
        elif t == "<":
            depth -= 1
            if depth == 0:
                prev = toks[j - 1] if j >= 1 else None
                return prev is not None and prev.kind == "id"
        elif toks[j].kind not in {"id", "num"} and t not in _TYPEISH:
            return False
    return False


def check_epoch001(program) -> list:
    out = []
    for fm in program.files:
        norm = fm.path.replace(os.sep, "/")
        if norm.endswith("common/counters.hpp"):
            continue   # the helpers themselves compare raw values
        toks = fm.tokens
        n = len(toks)
        # for-loop headers are iteration, not protocol-ordering decisions.
        for_header: set = set()
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "for" and i + 1 < n \
                    and toks[i + 1].text == "(":
                close = match_paren(toks, i + 1)
                if close > 0:
                    for_header.update(range(i + 1, close + 1))
        for i, t in enumerate(toks):
            if t.text not in _RELOPS or i in for_header:
                continue
            if t.text == "<" and _looks_like_template(toks, i):
                continue
            if t.text == ">" and _closes_template(toks, i):
                continue
            left = _operand_chain(toks, i, -1)
            right = _operand_chain(toks, i, +1)
            # Comparison against a literal 0/1 is an emptiness/validity
            # check, not an ordering decision.
            nxt = toks[i + 1] if i + 1 < n else None
            prv = toks[i - 1] if i >= 1 else None
            if (nxt is not None and nxt.kind == "num"
                    and nxt.text in {"0", "1"}) or \
               (prv is not None and prv.kind == "num"
                    and prv.text in {"0", "1"}):
                continue

            def is_counter(chain):
                if not chain:
                    return False
                if chain[-1] in _NOT_COUNTER_LAST_SEG:
                    return False
                segs = chain[:-1] + [chain[-1]] if chain[-1] != "value" \
                    else chain[:-1]
                return any(_COUNTER_SEG_RE.match(s) for s in segs)

            if is_counter(left) or is_counter(right):
                lhs = ".".join(left) or "?"
                rhs = ".".join(right) or "?"
                out.append(Finding(
                    "EPOCH-001", fm.path, t.line,
                    f"raw `{t.text}` on wrapping counter(s) "
                    f"(`{lhs} {t.text} {rhs}`); use itdos::counters::"
                    "before/after (serial arithmetic, "
                    "common/counters.hpp)"))
    return out


# ---------------------------------------------------------------------------
# Program model + rule runner
# ---------------------------------------------------------------------------

class ProgramModel:
    def __init__(self, files):
        self.files = files                       # list[FileModel]
        self.functions = [fn for fm in files for fn in fm.functions]
        self.enums: dict = {}                    # name -> [Enum] (collisions!)
        self.switches = []
        for fm in files:
            for name, enum in fm.enums.items():
                self.enums.setdefault(name, []).append(enum)
            self.switches.extend(fm.switches)


def run_rules(program, enabled) -> list:
    findings = []
    if "TAINT-001" in enabled:
        findings += TaintEngine(program.functions).fixpoint().findings()
    if "TAINT-002" in enabled:
        findings += check_taint002(program)
    if "PROTO-003" in enabled:
        findings += check_proto003(program)
    if "BUF-002" in enabled:
        findings += check_buf002(program)
    if "EPOCH-001" in enabled:
        findings += check_epoch001(program)
    return findings
