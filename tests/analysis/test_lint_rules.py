"""Lint suite (RPR001-RPR007, RPR201): per-rule fixtures, noqa waivers, scoping."""

import textwrap

import pytest

from repro.analysis import lint_file
from repro.analysis.linter import parse_noqa


def lint_source(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(str(path))


def rules_of(findings):
    return [finding.rule for finding in findings]


# ------------------------------------------------------------ RPR001 (clock)
def test_wall_clock_detected_with_location(tmp_path):
    findings = lint_source(tmp_path, """\
        import time

        started = time.time()
    """)
    assert rules_of(findings) == ["RPR001"]
    assert findings[0].line == 3
    assert "time.time" in findings[0].message


def test_wall_clock_detected_through_import_alias(tmp_path):
    findings = lint_source(tmp_path, """\
        from time import perf_counter as pc

        t0 = pc()
    """)
    assert rules_of(findings) == ["RPR001"]


def test_wall_clock_allowed_under_instrument(tmp_path):
    findings = lint_source(tmp_path, """\
        import time

        started = time.time()
    """, name="instrument/probe.py")
    assert findings == []


def test_wall_clock_waived_with_noqa(tmp_path):
    findings = lint_source(tmp_path, """\
        import time

        started = time.time()  # repro: noqa RPR001 -- CLI progress display
    """)
    assert findings == []


# ----------------------------------------------------------- RPR002 (random)
def test_module_level_random_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        pick = random.choice(options)
    """)
    assert rules_of(findings) == ["RPR002"]


def test_unseeded_random_instance_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        rng = random.Random()
    """)
    assert rules_of(findings) == ["RPR002"]
    assert "seed" in findings[0].message


def test_seeded_random_instance_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        rng = random.Random(11)
        pick = rng.choice(options)
    """)
    assert findings == []


def test_numpy_global_stream_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        import numpy as np

        noise = np.random.rand(4)
        rng = np.random.default_rng(7)
    """)
    assert rules_of(findings) == ["RPR002"]
    assert findings[0].line == 3


# -------------------------------------------------------- RPR003 (iteration)
def test_set_iteration_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        for item in {1, 2, 3}:
            print(item)
    """)
    assert rules_of(findings) == ["RPR003"]


def test_set_intersection_iteration_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        for column in set(lows) & set(highs):
            print(column)
    """)
    assert rules_of(findings) == ["RPR003"]


def test_dict_keys_iteration_detected_in_comprehension(tmp_path):
    findings = lint_source(tmp_path, """\
        labels = [str(k) for k in table.keys()]
    """)
    assert rules_of(findings) == ["RPR003"]


def test_sorted_set_iteration_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        for item in sorted({1, 2, 3}):
            print(item)
    """)
    assert findings == []


def test_wrong_rule_id_noqa_does_not_suppress(tmp_path):
    findings = lint_source(tmp_path, """\
        for item in {1, 2}:  # repro: noqa RPR001 -- wrong rule on purpose
            print(item)
    """)
    assert rules_of(findings) == ["RPR003"]


def test_bare_noqa_suppresses_everything_on_line(tmp_path):
    findings = lint_source(tmp_path, """\
        for item in {1, 2}:  # repro: noqa
            print(item)
    """)
    assert findings == []


# ------------------------------------------------------------ RPR004 (units)
def test_unitless_timing_parameter_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        def wait(timeout=5):
            return timeout
    """)
    assert rules_of(findings) == ["RPR004"]
    assert "timeout" in findings[0].message


def test_unitless_timing_assignment_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        retry_delay = 3
    """)
    assert rules_of(findings) == ["RPR004"]


def test_suffixed_timing_names_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        retry_delay_us = 3

        def wait(timeout_ns=5):
            return timeout_ns
    """)
    assert findings == []


def test_mixed_unit_arithmetic_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        total = delay_us + wait_ns
    """)
    assert rules_of(findings) == ["RPR004"]
    assert "mixed-unit" in findings[0].message


def test_mixed_unit_comparison_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        if elapsed_ms > limit_ns:
            pass
    """)
    assert rules_of(findings) == ["RPR004"]


def test_converted_units_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.sim.units import us_to_ns

        total_ns = us_to_ns(delay_us) + wait_ns
    """)
    assert findings == []


# --------------------------------------------------------- RPR005 (blocking)
def test_blocking_sleep_in_fiber_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        import time

        def fiber(sim):
            time.sleep(1)
            yield sim.timeout(5)
    """)
    assert rules_of(findings) == ["RPR005"]
    assert "time.sleep" in findings[0].message


def test_open_in_fiber_detected_but_fine_elsewhere(tmp_path):
    findings = lint_source(tmp_path, """\
        def loader(path):
            with open(path) as handle:
                return handle.read()

        def fiber(path):
            handle = open(path)
            yield
    """)
    assert rules_of(findings) == ["RPR005"]
    assert findings[0].line == 6


# ----------------------------------------------------------- RPR006 (events)
def test_discarded_timeout_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        def fiber(sim):
            sim.timeout(5)
            yield
    """)
    assert rules_of(findings) == ["RPR006"]
    assert "discarded" in findings[0].message


def test_yielded_and_assigned_events_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        def fiber(sim):
            yield sim.timeout(5)
            pending = sim.timeout(7)
            yield pending
    """)
    assert findings == []


def test_discarded_combinator_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        def fiber(sim, events):
            all_of(sim, events)
            yield
    """)
    assert rules_of(findings) == ["RPR006"]


# ----------------------------------------------------- RPR007 (dynamic code)
@pytest.mark.parametrize("call", ["eval('1 + 1')", "exec('x = 1')",
                                  "compile('1', '<s>', 'eval')"])
def test_dynamic_code_detected(tmp_path, call):
    findings = lint_source(tmp_path, "value = %s\n" % call, name="db/sql.py")
    assert rules_of(findings) == ["RPR007"]
    assert "kernels.build" in findings[0].message


def test_dynamic_code_allowed_only_in_the_kernel_generator(tmp_path):
    source = """\
        import re

        def build(source, env):
            exec(compile(source, "<kernel>", "exec"), env)

        pattern = re.compile("a+")
    """
    assert lint_source(tmp_path, source, name="db/kernels.py") == []
    assert rules_of(lint_source(tmp_path, source, name="db/kernels_extra.py")) == [
        "RPR007", "RPR007"]


# ------------------------------------------------- RPR201 (non-yielding run)
def test_non_yielding_ssdlet_run_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.core import SSDLet

        class Greedy(SSDLet):
            def run(self):
                total = 0
                for value in self._args:
                    total += value
                return total
    """)
    assert rules_of(findings) == ["RPR201"]
    assert "monopolize" in findings[0].message
    assert findings[0].line == 4


def test_yielding_ssdlet_run_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.core import SSDLet

        class Fair(SSDLet):
            def run(self):
                value = yield from self.in_(0).get()
                yield from self.out(0).put(value)
    """)
    assert findings == []


def test_ssdlet_subclass_suffix_base_detected(tmp_path):
    findings = lint_source(tmp_path, """\
        class Spinner(streaming.SSDLet):
            def run(self):
                self.count = 1
    """)
    assert rules_of(findings) == ["RPR201"]


def test_abstract_run_stub_not_flagged(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.core import SSDLet

        class Base(SSDLet):
            def run(self):
                '''Subclasses override as a fiber.'''
                raise NotImplementedError
    """)
    assert findings == []


def test_non_ssdlet_run_method_ignored(tmp_path):
    findings = lint_source(tmp_path, """\
        class Worker:
            def run(self):
                return 42
    """)
    assert findings == []


def test_non_yielding_run_waived_with_noqa(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.core import SSDLet

        class Greedy(SSDLet):
            def run(self):  # repro: noqa RPR201 -- unit-test double, never scheduled
                return 0
    """)
    assert findings == []


# ----------------------------------------------------------- RPR000 and noqa
def test_syntax_error_reported_as_rpr000(tmp_path):
    findings = lint_source(tmp_path, """\
        def broken(:
            pass
    """)
    assert rules_of(findings) == ["RPR000"]
    assert findings[0].line > 0


def test_noqa_in_docstring_is_not_a_waiver():
    source = '"""Docs may say # repro: noqa RPR001 without waiving."""\n'
    assert parse_noqa(source) == {}


def test_noqa_comment_parsing():
    source = (
        "a = 1  # repro: noqa\n"
        "b = 2  # repro: noqa RPR001, RPR004 -- reasoned waiver\n"
        "c = 3  # unrelated comment\n"
    )
    waivers = parse_noqa(source)
    assert waivers == {1: None, 2: {"RPR001", "RPR004"}}


def test_clean_file_has_no_findings(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        def simulate(sim, seed, delay_ns=100):
            rng = random.Random(seed)
            for value in sorted({rng.randrange(10) for _ in range(3)}):
                yield sim.timeout(delay_ns + value)
    """)
    assert findings == []
