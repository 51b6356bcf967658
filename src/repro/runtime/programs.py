"""Canonical workloads for the cost-model experiments (Section 2.1).

The star of the show is the paper's ``sumTo`` loop in its two forms,
unboxed (``sumTo#``, :data:`SUM_TO_UNBOXED_SOURCE`) and boxed (``sumTo``,
:data:`SUM_TO_BOXED_SOURCE`), defined as in ``examples/sumto.lev``.
:data:`WORKLOADS_SOURCE` adds a second unboxed accumulation, an unboxed
``Double#`` accumulation (the float register class), and a
``divMod``-style function returning an unboxed pair (Section 2.3).

Every workload is ``.lev`` text.  :func:`checked_program` checks it as
``repro run`` does and builds the executable program with
:meth:`repro.runtime.evaluator.Program.from_check`, so the unboxed versions
get call-by-value calling conventions from their checked kinds.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.errors import ReproError
from .evaluator import Evaluator, Program
from .values import CostModel, UnboxedInt

SUM_TO_UNBOXED_SOURCE = """\
sumTo# :: Int# -> Int# -> Int#
sumTo# acc n = case n ==# 0# of { 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }
"""

SUM_TO_BOXED_SOURCE = """\
sumTo :: Int -> Int -> Int
sumTo acc n = if eqInt n 0 then acc else sumTo (plusInt acc n) (minusInt n 1)
"""

WORKLOADS_SOURCE = SUM_TO_UNBOXED_SOURCE + "\n" + SUM_TO_BOXED_SOURCE + """
sumSq# :: Int# -> Int# -> Int#
sumSq# acc n = case n ==# 0# of { 1# -> acc; _ -> sumSq# (acc +# n *# n) (n -# 1#) }

geo## :: Double# -> Int# -> Double#
geo## acc n = case n ==# 0# of { 1# -> acc; _ -> geo## (acc +## 1.0## /## int2Double# n) (n -# 1#) }

divMod# :: Int# -> Int# -> (# Int#, Int# #)
divMod# n k = (# quotInt# n k, remInt# n k #)
"""


def checked_program(source: str) -> Program:
    """The executable program of ``source``, checked by ``Session.check``."""
    # The driver imports the runtime, lazily; this is the one import that
    # points the other way, made at call time so that importing the
    # runtime never loads the driver.
    from ..driver.session import Session

    check = Session().check(source, "<workloads>")
    if not check.ok:
        raise ReproError(check.pretty(source))
    return Program.from_check(check)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_sum_to_boxed(n: int) -> Tuple[int, CostModel]:
    """Run the boxed loop for ``n`` iterations; return (result, costs)."""
    evaluator = Evaluator(checked_program(SUM_TO_BOXED_SOURCE))
    result = evaluator.run("sumTo", evaluator.boxed_int(0),
                           evaluator.boxed_int(n))
    return evaluator.int_result(result), evaluator.costs


def run_sum_to_unboxed(n: int) -> Tuple[int, CostModel]:
    """Run the unboxed loop for ``n`` iterations; return (result, costs)."""
    evaluator = Evaluator(checked_program(SUM_TO_UNBOXED_SOURCE))
    result = evaluator.run("sumTo#", UnboxedInt(0), UnboxedInt(n))
    return evaluator.int_result(result), evaluator.costs


def compare_sum_to(n: int) -> Dict[str, Dict[str, int]]:
    """The Section 2.1 comparison at loop size ``n`` (both must agree on the sum)."""
    boxed_result, boxed_costs = run_sum_to_boxed(n)
    unboxed_result, unboxed_costs = run_sum_to_unboxed(n)
    if boxed_result != unboxed_result:
        raise AssertionError(
            f"boxed and unboxed loops disagree: {boxed_result} vs "
            f"{unboxed_result}")
    expected = n * (n + 1) // 2
    if boxed_result != expected:
        raise AssertionError(
            f"loop computed {boxed_result}, expected {expected}")
    return {
        "boxed": boxed_costs.as_dict(),
        "unboxed": unboxed_costs.as_dict(),
    }
