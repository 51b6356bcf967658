"""Seeded input generation for the four benchmark workloads.

Everything here is benchmark-side: it builds the inputs a workload sends
and the references its outputs are checked against, from ``--seed``
alone.  None of the references comes from the code under test:

* ``check_cold`` — the fuzz generator's intended binding types, and the
  known types of the layered large files;
* ``edit_rebuild`` — the declared signatures, and the number of units
  each rebuild must re-check, predicted by a model of a content-addressed
  unit cache with early cutoff (:class:`EditModel`);
* ``run_programs`` — the fuzz generator's ``expected_value`` and the
  closed form ``n (n + 1) / 2`` of the loops;
* ``validate_programs`` — every report must be engaged and ``ok``.

The fuzz generator lives in ``repro.fuzz`` and is imported lazily, only
by :func:`generate`: the worker process imports this module for
:func:`module_source` / :func:`binding_text` before it measures
``import repro.driver``, so importing it must not import ``repro``.
"""

from __future__ import annotations

import collections
import random
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("check_cold", "edit_rebuild", "run_programs",
             "validate_programs")

#: The tree-walker recurses once per loop iteration and raises
#: RecursionError on ``sumTo#`` at n=200 under CPython's default limit of
#: 1000, which the benchmark never raises; loops stay far below that.
#: The loop sizes are the same for every seed, which only orders them.
LOOP_SIZES = (4, 5, 6, 7, 8, 9, 10, 11, 12, 4, 6, 8)

#: Rendered scheme of each declared signature, as ``Session.check``
#: prints it.  A fixed table: the reference is the declaration itself.
RENDERED = {
    "Int -> Int": "Int -> Int",
    "forall a. a -> a": "a -> a",
    "Int# -> Int#": "Int# -> Int#",
    "Int#": "Int#",
}
#: The two interchangeable signatures of a ``poly`` binding: every use
#: site applies it at ``Int``, so either one type-checks.
POLY_SIGS = ("Int -> Int", "forall a. a -> a")


# ---------------------------------------------------------------------------
# Program text shared by the generators
# ---------------------------------------------------------------------------


def loop_source(name: str, n: int) -> str:
    """The section 2.1 unboxed accumulator loop; ``main = n (n + 1) / 2``."""
    return (f"{name} :: Int# -> Int# -> Int#\n"
            f"{name} acc n = case n <=# 0# of "
            f"{{ 1# -> acc; _ -> {name} (acc +# n) (n -# 1#) }}\n\n"
            f"main :: Int#\nmain = {name} 0# {n}#\n")


def layered_source(prefix: str, bindings: int, rng: random.Random
                   ) -> Tuple[str, Dict[str, str]]:
    """A headerless module of ``bindings`` unsigned bindings in layered
    clusters of ten (each cluster head a recursive worker), with the
    type inference must reconstruct for each."""
    lines: List[str] = []
    expect: Dict[str, str] = {}
    for i in range(bindings):
        name = f"{prefix}{i}"
        head = f"{prefix}{i - i % 10}"
        lit = rng.randint(1, 99)
        if i % 10 == 0:
            lines.append(f"{name} n = case n <=# 0# of "
                         f"{{ 1# -> {lit}#; _ -> {name} (n -# 1#) }}")
            expect[name] = "Int# -> Int#"
        elif i % 10 == 1:
            lines.append(f"{name} = {prefix}{i - 1} {lit}#")
            expect[name] = "Int#"
        else:
            lines.append(f"{name} =")
            lines.append(f"  let scaled = {prefix}{i - 1} +# {head} {lit}# in")
            lines.append("  case scaled ==# 0# of")
            lines.append(f"    {{ 1# -> {head} (scaled +# 1#)")
            lines.append(f"    ; _ -> (\\k -> k +# scaled) ({head} 2#) }}")
            expect[name] = "Int#"
        lines.append("")
    return "\n".join(lines), expect


# ---------------------------------------------------------------------------
# edit_rebuild: a signed project, one large headerless file, an edit script
# ---------------------------------------------------------------------------

#: Kinds of signed binding in the edited project:
#: ``poly``  — ``x = x`` under one of POLY_SIGS (signature edits);
#: ``loop``  — a recursive Int# worker with a literal (body edits);
#: ``step``  — calls ``callee`` on its argument plus a literal;
#: ``use``   — applies a ``poly`` at Int to a ``callee`` result.
SIGNATURE = {"loop": "Int# -> Int#", "step": "Int# -> Int#", "use": "Int#"}


def binding_text(b: dict) -> str:
    name, kind = b["name"], b["kind"]
    if kind == "poly":
        return f"{name} :: {POLY_SIGS[b['sig']]}\n{name} x = x\n"
    if kind == "loop":
        return (f"{name} :: Int# -> Int#\n"
                f"{name} n = case n <=# 0# of "
                f"{{ 1# -> {b['lit']}#; _ -> n +# {name} (n -# 1#) }}\n")
    if kind == "step":
        return (f"{name} :: Int# -> Int#\n"
                f"{name} n = {b['callee']} (n +# {b['lit']}#)\n")
    return (f"{name} :: Int#\n"
            f"{name} =\n"
            f"  let v = {b['callee']} {b['lit']}# in\n"
            f"  case {b['poly']} (I# v) of {{ I# w -> w +# 1# }}\n")


def expected_rendering(b: dict) -> str:
    if b["kind"] == "poly":
        return RENDERED[POLY_SIGS[b["sig"]]]
    return RENDERED[SIGNATURE[b["kind"]]]


def module_source(module: dict, bindings: Dict[str, dict]) -> str:
    """The current text of one file of the edited project."""
    lines = []
    if module["header"] is not None:
        lines.append(f"module {module['header']} where")
        lines.extend(f"import {name}" for name in module["imports"])
        lines.append("")
    lines.extend(binding_text(bindings[name]) for name in module["names"])
    return "\n".join(lines)


def _deps(b: dict) -> Tuple[str, ...]:
    return tuple(d for d in (b.get("callee"), b.get("poly"))
                 if d is not None)


def _project(rng: random.Random, modules: int, steps: int, uses: int,
             big: int) -> Tuple[List[dict], Dict[str, dict]]:
    """Modules ``M1 <- M2 <- ...`` (each importing its predecessor) and
    one headerless file ``big.lev`` checked through ``check_many``.  The
    shape is the same for every seed; ``rng`` picks the literals."""
    bindings: Dict[str, dict] = {}
    files: List[dict] = []

    def add(names: List[str], b: dict) -> None:
        b.setdefault("lit", rng.randint(1, 99))
        b.setdefault("sig", len(bindings) % len(POLY_SIGS))
        bindings[b["name"]] = b
        names.append(b["name"])

    for k in range(1, modules + 1):
        names: List[str] = []
        add(names, {"name": f"p{k}", "kind": "poly"})
        if k == 1:
            add(names, {"name": "h1", "kind": "loop"})
        else:
            add(names, {"name": f"h{k}", "kind": "step",
                        "callee": f"h{k - 1}"})
        for j in range(1, steps + 1):
            add(names, {"name": f"s{k}_{j}", "kind": "step",
                        "callee": f"h{k}" if j == 1 else f"s{k}_{j - 1}"})
        for j in range(1, uses + 1):
            poly = f"p{k - 1}" if j % 2 == 0 and k > 1 else f"p{k}"
            add(names, {"name": f"u{k}_{j}", "kind": "use", "poly": poly,
                        "callee": f"s{k}_{(j - 1) % steps + 1}"})
        files.append({"filename": f"m{k}.lev", "header": f"M{k}",
                      "imports": [f"M{k - 1}"] if k > 1 else [],
                      "names": names, "group": "project"})

    names = []
    for i in range(big):
        head = f"b{i - i % 10}"
        if i % 10 == 0:
            add(names, {"name": f"b{i}", "kind": "loop"})
        elif i % 10 == 1:
            add(names, {"name": f"bp{i}", "kind": "poly"})
        elif i % 3 == 0:
            add(names, {"name": f"bu{i}", "kind": "use",
                        "poly": f"bp{i - i % 10 + 1}", "callee": head})
        else:
            prev = names[-1] if bindings[names[-1]]["kind"] in \
                ("loop", "step") else head
            add(names, {"name": f"bs{i}", "kind": "step", "callee": prev})
    files.append({"filename": "big.lev", "header": None, "imports": [],
                  "names": names, "group": "big"})
    return files, bindings


class EditModel:
    """Predicts how many units a rebuild re-checks.

    Every binding is signed, so a binding's scheme is its declared
    signature.  A content-addressed unit cache with early cutoff keys a
    unit by its own text plus the schemes of the bindings it names; a
    rebuild re-checks exactly the units whose key it has never seen.
    """

    def __init__(self, bindings: Dict[str, dict]) -> None:
        self.bindings = bindings
        self.seen = set()

    def key(self, b: dict) -> tuple:
        deps = tuple((d, self.bindings[d]["sig"]
                      if self.bindings[d]["kind"] == "poly" else None)
                     for d in _deps(b))
        return (binding_text(b), deps)

    def rebuild(self, names: Sequence[str]) -> int:
        fresh = 0
        for name in names:
            key = self.key(self.bindings[name])
            if key not in self.seen:
                self.seen.add(key)
                fresh += 1
        return fresh


#: The edits of one block of EDIT_BLOCK rebuilds, shuffled within the
#: block: half body edits, a quarter signature edits, a quarter no-op
#: rebuilds, split evenly between the project and big.lev.  Every block
#: edits the same bindings from the same starting state, so blocks, and
#: runs on different seeds, carry the same work (see ``run.steady``).
EDIT_RECIPE = ((("body", "project"),) * 10 + (("body", "big"),) * 10
               + (("signature", "project"),) * 5
               + (("signature", "big"),) * 5
               + (("noop", "project"),) * 5 + (("noop", "big"),) * 5)
EDIT_BLOCK = len(EDIT_RECIPE)


def edit_script(seed: int, blocks: int, files: List[dict],
                bindings: Dict[str, dict]) -> List[dict]:
    """``blocks`` seeded blocks of EDIT_RECIPE edits, each with the
    predicted re-check count of the rebuild that follows it.  Each kind
    of edit targets bindings spread evenly over its candidates, the same
    ones in every block; the seed shuffles their order.  Every block
    starts again from the cold build (the worker restores the sources and
    the cache), so blocks stay comparable however many ran before."""
    rng = random.Random(f"perfbench-edits:{seed}")
    group_names = {g: [n for f in files if f["group"] == g
                       for n in f["names"]] for g in ("project", "big")}
    candidates = {(kind, group): sorted(
        n for n in group_names[group]
        if (bindings[n]["kind"] == "poly") == (kind == "signature"))
        for kind in ("body", "signature") for group in group_names}
    block = []
    for (kind, group), count in sorted(
            collections.Counter(EDIT_RECIPE).items()):
        names = candidates.get((kind, group), [None])
        block.extend((kind, group, names[i * len(names) // count])
                     for i in range(count))
    edits = []
    for _ in range(blocks):
        state = {name: dict(b) for name, b in bindings.items()}
        model = EditModel(state)
        for names in group_names.values():
            model.rebuild(names)
        recipe = list(block)
        rng.shuffle(recipe)
        for kind, group, name in recipe:
            edit = {"kind": kind, "group": group}
            if kind == "body":
                state[name]["lit"] = 100 + len(edits)   # never seen before
                edit.update(name=name, lit=state[name]["lit"])
            elif kind == "signature":
                state[name]["sig"] = 1 - state[name]["sig"]
                edit.update(name=name, sig=state[name]["sig"])
            edit["predicted"] = model.rebuild(group_names[group])
            edits.append(edit)
    return edits


# ---------------------------------------------------------------------------
# Entry point: one JSON-ready input document per (workload, seed)
# ---------------------------------------------------------------------------


def _fuzz_expectations(program) -> Dict[str, str]:
    from repro.infer.schemes import Scheme
    from repro.pretty.printer import PrinterOptions, render_scheme

    options = PrinterOptions()
    return {name: render_scheme(Scheme.from_type(type_), options)
            for name, type_ in program.intended.items()}


#: Fuzz option sets for the mixed-size ``check_cold`` corpus.
CHECK_SIZES = ((3, 2), (4, 4), (5, 5))
#: Every LARGE_EVERY-th ``check_cold`` request is a layered large file;
#: a block is CHECK_BLOCK requests.
LARGE_EVERY = 10
CHECK_BLOCK = 100
LARGE_BINDINGS = 30


def _check_cold(seed: int, count: int) -> dict:
    from repro.fuzz import GenOptions, generate_program

    rng = random.Random(f"perfbench-large:{seed}")
    requests = []
    for index in range(count):
        if index % LARGE_EVERY == LARGE_EVERY - 1:
            source, expect = layered_source(f"l{index}_", LARGE_BINDINGS, rng)
            requests.append({"filename": f"large_{index:05d}.lev",
                             "source": source, "expect": expect})
            continue
        depth, helpers = CHECK_SIZES[index % len(CHECK_SIZES)]
        program = generate_program(
            seed, index, GenOptions(depth=depth, max_bindings=helpers))
        requests.append({"filename": program.filename,
                         "source": program.source,
                         "expect": _fuzz_expectations(program)})
    return {"requests": requests}


#: run_programs corpus: fragment-biased fuzz programs for breadth, plus
#: the machine-engaging programs of fixed shape that validate_programs
#: also uses.  A fixed RUN_FRAGMENT of the fuzz programs lie inside the
#: compilable L fragment and RUN_OTHER outside it, so that every seed
#: engages the machine equally often.
RUN_FRAGMENT, RUN_OTHER = 256, 64
RUN_FUZZ_OPTIONS = dict(depth=3, max_bindings=3)
SHAPES_PER_KIND = 16


def _shaped(kind: str, tag: str, rng: random.Random) -> Tuple[str, str]:
    """One fixed-shape program inside the compilable L fragment: boxing
    and the unboxing case, a literal case, or an annotated lambda passed
    to a higher-order binding.  The seed picks names and literals only,
    so the shape (and the work it takes) is the same for every seed."""
    a, b, c = (rng.randint(1, 99) for _ in range(3))
    if kind == "box":
        return (f"inc{tag} :: Int# -> Int#\ninc{tag} p = p +# {a}#\n"
                f"box{tag} :: Int# -> Int\nbox{tag} n = I# n\n"
                f"main :: Int#\nmain = let v :: Int; v = box{tag} "
                f"(inc{tag} {b}#) in case v of "
                f"{{ I# u -> (\\(x :: Int#) -> x *# {c}#) u }}\n",
                f"{(a + b) * c}#")
    if kind == "pick":
        return (f"pick{tag} :: Int# -> Int#\npick{tag} k = case k of "
                f"{{ 1# -> {a}#; 2# -> {b}#; _ -> 0# }}\n"
                f"main :: Int\nmain = I# (pick{tag} (case {a}# <# {b}# of "
                f"{{ 1# -> 2#; _ -> 1# }}) +# {c}#)\n",
                f"(I# {(b if a < b else a) + c}#)")
    return (f"twice{tag} :: (Int# -> Int#) -> Int# -> Int#\n"
            f"twice{tag} f x = f (f x)\nmain :: Int#\n"
            f"main = twice{tag} (\\(y :: Int#) -> y +# {a}#) {b}#\n",
            f"{b + 2 * a}#")


def _engaging(seed: int) -> List[dict]:
    """The small loops and the fixed-shape programs, in a seeded order."""
    rng = random.Random(f"perfbench-engaging:{seed}")
    programs = []
    for index, n in enumerate(LOOP_SIZES):
        programs.append({"filename": f"loop_{index:02d}.lev",
                         "source": loop_source(f"sumTo{index}#", n),
                         "expected": f"{n * (n + 1) // 2}#",
                         "fragment": True})
    for kind in ("box", "pick", "twice"):
        for index in range(SHAPES_PER_KIND):
            source, expected = _shaped(kind, str(index), rng)
            programs.append({"filename": f"{kind}_{index:02d}.lev",
                             "source": source, "expected": expected,
                             "fragment": True})
    rng.shuffle(programs)
    return programs


def _programs(seed: int) -> List[dict]:
    """The run_programs corpus: fuzz programs and the engaging ones."""
    from repro.fuzz import GenOptions, generate_program

    programs = []
    for index in range(RUN_FRAGMENT + RUN_OTHER):
        options = GenOptions(fragment_bias=float(index < RUN_FRAGMENT),
                             **RUN_FUZZ_OPTIONS)
        p = generate_program(seed, index, options, prefix="run")
        programs.append({"filename": p.filename, "source": p.source,
                         "expected": p.expected_value,
                         "fragment": p.fragment})
    programs.extend(_engaging(seed))
    random.Random(f"perfbench-order:{seed}").shuffle(programs)
    return programs


def generate(workload: str, seed: int, seconds: float) -> dict:
    """The input document of one run: sized so the closed loop cannot run
    out of fresh inputs within ``seconds``."""
    if workload == "check_cold":
        return _check_cold(seed, int(seconds * 250) + 100)
    if workload == "edit_rebuild":
        rng = random.Random(f"perfbench-project:{seed}")
        files, bindings = _project(rng, modules=6, steps=4, uses=3, big=40)
        return {"files": files, "bindings": bindings,
                "edits": edit_script(seed, int(seconds * 200) // EDIT_BLOCK
                                     + 1, files, bindings)}
    if workload == "run_programs":
        return {"programs": _programs(seed)}
    if workload == "validate_programs":
        return {"programs": _engaging(seed)}
    raise ValueError(f"unknown workload {workload!r}")
