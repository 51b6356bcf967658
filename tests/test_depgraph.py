"""Tests for the binding-level dependency planner (repro.driver.depgraph)
and the unit-granularity behaviour of the pipeline that rides it."""

from repro.driver import Session, build_plan
from repro.driver.depgraph import decl_references
from repro.frontend import parse_module


def plan_of(source):
    return build_plan(parse_module(source, "plan.lev"))


CHAIN = """\
c :: Int#
c = b +# 1#

b = a +# 1#

a :: Int#
a = 1#
"""


class TestPlanning:
    def test_units_come_out_in_dependency_order(self):
        plan = plan_of(CHAIN)
        order = [unit.names for unit in plan.units]
        assert order == [("a",), ("b",), ("c",)]
        by_name = {unit.names[0]: unit for unit in plan.units}
        assert by_name["c"].deps == ("b",)
        assert by_name["b"].deps == ("a",)
        assert by_name["a"].deps == ()

    def test_module_facts_alone_match_the_units(self):
        source = ("module M where\nimport N\n\n"
                  "f :: Int# -> Int#\nf x = x +# g (h 1#)\n"
                  "g y = y\nk = f 2# +# ext\n")
        full = plan_of(source)
        facts = build_plan(parse_module(source, "plan.lev"), units=False)
        assert facts.units == [] and facts.defining_unit == {}
        assert facts.foreign == tuple(sorted(
            {name for unit in full.units for name in unit.foreign})) == \
            ("+#", "ext", "h")
        assert (facts.module_name, facts.header_span, facts.imports,
                facts.defining_decl) == \
            (full.module_name, full.header_span, full.imports,
             full.defining_decl)

    def test_references_exclude_parameters(self):
        plan = plan_of("f :: Int# -> Int#\nf x = x +# g 1#\ng y = y\n")
        module = plan.parsed.module
        f_bind = module.bindings()["f"]
        assert "x" not in decl_references(f_bind)
        assert "g" in decl_references(f_bind)

    def test_self_recursion_stays_a_singleton_unit(self):
        plan = plan_of("loop :: Int# -> Int#\n"
                       "loop n = case n of { 0# -> 0#; _ -> loop (n -# 1#) }\n")
        [unit] = plan.units
        assert unit.names == ("loop",)
        assert not unit.is_group
        assert unit.deps == ()

    def test_mutual_recursion_condenses_into_one_scc(self):
        plan = plan_of(
            "isEven :: Int# -> Bool\n"
            "isEven n = case n of { 0# -> True; _ -> isOdd (n -# 1#) }\n"
            "isOdd :: Int# -> Bool\n"
            "isOdd n = case n of { 0# -> False; _ -> isEven (n -# 1#) }\n"
            "user = isEven 4#\n")
        groups = [unit.names for unit in plan.units]
        assert ("isEven", "isOdd") in groups
        [group] = [unit for unit in plan.units if unit.is_group]
        assert group.deps == ()
        [user] = [unit for unit in plan.units if unit.names == ("user",)]
        assert user.deps == ("isEven",)
        assert plan.units.index(group) < plan.units.index(user)

    def test_segments_slice_the_exact_declaration_lines(self):
        plan = plan_of(CHAIN)
        by_name = {unit.names[0]: unit for unit in plan.units}
        # 'c' owns its signature and its binding (two segments).
        assert [segment.text for segment in by_name["c"].segments] == \
            ["c :: Int#\n", "c = b +# 1#\n"]
        assert by_name["b"].source == "b = a +# 1#\n"
        assert by_name["a"].source == "a :: Int#\na = 1#\n"

    def test_last_definition_wins_for_references(self):
        plan = plan_of("v = 1#\nuser = v\nv = 2#\n")
        assert plan.defining_decl["v"] == 2
        [user] = [unit for unit in plan.units if unit.names == ("user",)]
        # The user's dependency resolves to the *last* definition, so the
        # redefinition is planned before the user.
        v_defining = plan.units[plan.defining_unit["v"]]
        assert plan.units.index(v_defining) < plan.units.index(user)

    def test_span_relativization_round_trips(self):
        plan = plan_of(CHAIN)
        [unit] = [u for u in plan.units if u.names == ("c",)]
        span = plan.parsed.decl_span_list[0]  # 'c :: Int#'
        segment, fields = unit.relativize_span(span)
        assert segment == 0 and fields[0] == 0
        assert unit.absolutize_span(segment, fields) == span


class TestUnitCheckingSemantics:
    def test_forward_references_are_now_accepted(self):
        # Dependency-ordered checking makes declaration order irrelevant.
        check = Session().check("main = helper 1#\n"
                                "helper :: Int# -> Int#\n"
                                "helper x = x +# 1#\n", "fwd.lev")
        assert check.ok
        assert check.scheme_of("main").pretty() == "Int#"

    def test_mutual_recursion_checks_with_signatures(self):
        check = Session().check(
            "isEven :: Int# -> Bool\n"
            "isEven n = case n of { 0# -> True; _ -> isOdd (n -# 1#) }\n"
            "isOdd :: Int# -> Bool\n"
            "isOdd n = case n of { 0# -> False; _ -> isEven (n -# 1#) }\n",
            "mutual.lev")
        assert check.ok, [d.pretty() for d in check.diagnostics]
        assert check.scheme_of("isEven").pretty() == "Int# -> Bool"
        assert check.scheme_of("isOdd").pretty() == "Int# -> Bool"

    def test_mutual_recursion_without_signatures_is_rejected(self):
        check = Session().check(
            "isEven n = case n of { 0# -> True; _ -> isOdd (n -# 1#) }\n"
            "isOdd :: Int# -> Bool\n"
            "isOdd n = case n of { 0# -> False; _ -> isEven (n -# 1#) }\n",
            "mutual.lev")
        assert not check.ok
        messages = [d.message for d in check.errors]
        assert any("mutually recursive group" in m and "'isEven'" in m
                   for m in messages)

    def test_dependent_of_failed_unsigned_binding_reports_structurally(self):
        # 'bad' fails without a signature, so 'uses' cannot be checked:
        # it must say *why* instead of a bogus "'bad' is not in scope".
        check = Session().check("bad = missingThing\nuses = bad\n",
                                "structural.lev")
        assert not check.ok
        by_name = {b.name: b for b in check.bindings}
        assert not by_name["bad"].ok and not by_name["uses"].ok
        [uses_diag] = [d for d in check.errors if d.binding == "uses"]
        assert "its dependency 'bad' failed to check" in uses_diag.message

    def test_unrelated_bindings_still_check_around_a_failure(self):
        check = Session().check("bad = missingThing\nfine :: Int#\nfine = 1#\n",
                                "around.lev")
        by_name = {b.name: b for b in check.bindings}
        assert not by_name["bad"].ok
        assert by_name["fine"].ok

    def test_scope_error_spans_point_at_the_identifier(self):
        source = "h :: Int\nh = plusInt mystery 1\n"
        check = Session().check(source, "span.lev")
        [diagnostic] = check.errors
        line = source.split("\n")[diagnostic.span.line - 1]
        start = diagnostic.span.column - 1
        end = diagnostic.span.end_column - 1
        assert line[start:end] == "mystery"
