"""Cache keys are the same in every interpreter.

The disk cache is shared across processes under
:func:`repro.experiments.parallel.task_fingerprint`: a restarted
server, or a CLI run beside it, must compute byte-identical keys for
the same task.  Rendering workload state must therefore never depend
on object addresses, hash seeds or object identity.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.parallel import (
    RunTask,
    _stable_repr,
    task_fingerprint,
)
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.service import registry
from repro.workloads.base import RunOptions
from repro.workloads.specomp import OMP_SCHEDULES

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: label -> (registry workload, params): every service workload with
#: its defaults, plus a SPEC OMP loop schedule other than the default.
CASES = {name: (name, {}) for name in registry.WORKLOADS}
CASES["specomp-dynamic"] = ("specomp", {"omp_schedule": "dynamic"})

#: Keys in one fresh interpreter, printed as JSON (explicit run
#: options, so the environment cannot move them).
KEYS_SCRIPT = """
import json, sys
from repro.experiments.parallel import RunTask, task_fingerprint
from repro.service import registry
from repro.workloads.base import RunOptions
cases = json.loads(sys.argv[1])
print(json.dumps({
    label: task_fingerprint(
        RunTask(registry.build_workload(name, params), "2f-2s/8", 7,
                options=RunOptions(trace=None, coalesce=True)))
    for label, (name, params) in cases.items()}))
"""


def _keys_in_fresh_interpreter(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", KEYS_SCRIPT, json.dumps(CASES)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_keys_match_across_interpreters():
    first = _keys_in_fresh_interpreter("1")
    second = _keys_in_fresh_interpreter("2")
    assert sorted(first) == sorted(CASES)
    assert first == second


@pytest.mark.parametrize("label", sorted(CASES))
def test_rendered_state_carries_no_address(label):
    name, params = CASES[label]
    workload = registry.build_workload(name, params)
    for attr, value in vars(workload).items():
        rendered = _stable_repr(value)
        assert " at 0x" not in rendered, (attr, rendered)


def test_enum_member_renders_as_qualified_name():
    workload = registry.build_workload("specjbb", {"gc": "parallel"})
    assert _stable_repr(workload.gc) == "repro.runtime.jvm.GCKind.PARALLEL"


def test_shared_state_renders_in_full_and_cycles_stop():
    class Node:
        pass

    shared = (1, 2)
    node = Node()
    node.a, node.b, node.me = shared, shared, node
    rendered = _stable_repr(node)
    assert "a=(1, 2), b=(1, 2), me=<cycle>" in rendered


def test_enum_free_keys_are_pinned():
    """LockStress and TPC-H keys are byte-identical to those the disk
    cache was filled under before enum rendering changed."""
    options = RunOptions(trace=None, coalesce=True)
    lockstress = RunTask(
        registry.build_workload("lockstress",
                                {"n_threads": 4, "duration": 0.01}),
        "2f-2s/8", 7, options=options)
    tpch = RunTask(
        registry.build_workload("tpch", {"parallel_degree": 2,
                                         "queries": [3, 6]}),
        "1f-3s", 100, AsymmetryAwareScheduler, options)
    keys = [task_fingerprint(task) for task in (lockstress, tpch)]
    assert keys == [
        "ec99843a6c1a289db0d659ba21319ba99971821b75a1c1e9c27f13a2612cfc76",
        "3ede66e0ec1d77cd9391d7d837755a820ddb29a7ef1853ee6520498123316d5b",
    ]



def test_specomp_schedule_keys_are_pinned():
    """A SPEC OMP key depends on its own loop schedule, not on the
    rest of the `LoopSchedule` menu: adding or removing a member moves
    no other schedule's key, so a restarted server keeps answering
    SPEC OMP sweeps from disk."""
    options = RunOptions(trace=None, coalesce=True)
    keys = {
        schedule: task_fingerprint(RunTask(
            registry.build_workload("specomp",
                                    {"omp_schedule": schedule}),
            "2f-2s/8", 7, options=options))
        for schedule in OMP_SCHEDULES
    }
    assert keys == {
        "static":
            "ab4fc4ca5c1b7d7938c5ee918344f6cb29f8e98edf39b20a3f30a3e11c4cd296",
        "dynamic":
            "3d7c9e5179995cf90a44ee3b79fea234b31206384fcd746a3cddf97283c18913",
        "guided":
            "24ebd08e435d77d2a3f9aa5cdc01f374ee2895ec801a613537ac99e30e766598",
        "static_weighted":
            "00d7c87cca9fe30a90bfe8d27d0cdc979a7f5bbfe81457ebfbc502b8b40e3618",
    }
