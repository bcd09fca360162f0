#!/usr/bin/env python3
"""Print every public `val` in lib/**/*.mli that no file outside its own
module names, and exit 1 if there is one.

A val counts as used when a .ml/.mli file under lib/, bin/, bench/,
test/ or examples/ that is not its own module's .ml/.mli
  - names it qualified (`Mod.v`, `Lib.Mod.v`, or `Sub.v` for a val of a
    submodule `Sub` declared in the .mli), or through a module alias of
    that qualifier (`module X = Lib.Mod` then `X.v`), or
  - opens or includes that qualifier or an alias of it (`open Mod`,
    `let open Mod in`, `Mod.( ... )`, `include Mod`) and names `v` bare.
Comments and string literals are ignored, so a doc reference such as
{!Mod.v} keeps nothing alive.

Usage: python3 tools/dead_api.py   (from the repository root)
"""
import pathlib
import re
import sys

SEARCH_ROOTS = ["lib", "bin", "bench", "test", "examples"]


def strip(src):
    """Blank out comments, string literals and char literals."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 20])
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            i = n if j < 0 else j + len(close)
            if not depth:
                out.append('""')
            continue
        m = re.match(r"'(\\[^']{1,4}|[^\\'\n])'", src[i:i + 8])
        if m:
            i += len(m.group(0))
            continue
        if not depth:
            out.append(c)
        i += 1
    return "".join(out)


def public_vals(mli):
    """(qualifier, name) for each val; qualifier is the innermost module."""
    text = strip(mli.read_text())
    top = mli.stem.capitalize()
    stack, pending, vals = [top], None, []
    for tok in re.finditer(r"\bmodule\s+type\s+(\w+)|\bmodule\s+(\w+)|\bsig\b|\bend\b"
                           r"|\bval\s+(\(\s*[^)]+?\s*\)|\w+)", text):
        if tok.group(1):
            pending = None  # vals of a module type are not values
        elif tok.group(2):
            pending = tok.group(2)
        elif tok.group(0) == "sig":
            stack.append(pending)
            pending = None
        elif tok.group(0) == "end":
            if len(stack) > 1:
                stack.pop()
        elif tok.group(3) and stack[-1] is not None and None not in stack:
            vals.append((stack[-1], tok.group(3)))
    return vals


def uses(text):
    """What one file can name: qualified pairs, bare words, aliases, opens."""
    pairs = set(re.findall(r"\b([A-Z][\w']*)\s*\.\s*([a-z_][\w']*)", text))
    bare = set(re.findall(r"(?<![\w.'])([a-z_][\w']*)", text))
    aliases = re.findall(r"\bmodule\s+(\w+)\s*=\s*(?:\w+\.)*(\w+)", text)
    opens = set(re.findall(r"\b(?:open!?|include)\s+(?:\w+\.)*(\w+)", text))
    opens |= set(re.findall(r"\b([A-Z][\w']*)\s*\.\s*\(", text))
    return pairs, bare, aliases, opens


def named(qual, name, use):
    pairs, bare, aliases, opens = use
    quals = {qual}
    for alias, target in aliases:
        if target in quals:
            quals.add(alias)
    return any((q, name) in pairs for q in quals) or (name in bare and bool(quals & opens))


def main():
    files = {}
    for root in SEARCH_ROOTS:
        for p in sorted(pathlib.Path(root).rglob("*.ml*")):
            if p.suffix in (".ml", ".mli") and "_build" not in p.parts:
                files[p] = uses(strip(p.read_text()))
    dead = []
    for mli in sorted(pathlib.Path("lib").glob("*/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        top = mli.stem.capitalize()
        for qual, name in public_vals(mli):
            if name.startswith("("):
                continue  # operators are not searched for
            if not any(named(qual, name, use) for p, use in files.items() if p not in own):
                dead.append("%s: val %s" % (mli, name if qual == top else qual + "." + name))
    for d in dead:
        print(d)
    if dead:
        print("%d public val(s) named by no other module" % len(dead), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
