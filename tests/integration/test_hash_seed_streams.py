"""Loop output is fixed by the state, not by the string hash seed.

Node names are strings, so any order taken from a ``set`` of them
follows ``PYTHONHASHSEED``.  Two subprocesses under different hash seeds
build the same states — one atom going round two disjoint cycles, and
the first trace of ``fuzz --seed 101`` — on ``deltanet`` and ``sharded``,
and must print byte-identical loop sweeps (``find_forwarding_loops``),
``query(Loops())`` violations and delivered session streams.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

SCRIPT = r"""
import random

from repro.api import LoopProperty, Loops, VerificationSession
from repro.checkers.loops import find_forwarding_loops
from repro.core.rules import Rule
from repro.datasets.format import Op
from repro.scenarios.engine import random_scenario


def sweep(session):
    native = session.native
    if session.backend_name == "sharded":
        return native.find_loops()
    return find_forwarding_loops(native)


def replay(backend, width, ops, properties):
    with VerificationSession(backend, width=width,
                             properties=properties) as session:
        stream = [[str(v) for v in session.apply(op).violations]
                  for op in ops]
        print(backend, "sweep", sweep(session))
        print(backend, "query", session.query(Loops()).violations)
        print(backend, "stream", stream)


# One atom, two disjoint cycles: every rule covers the whole space.
pairs = [("n1", "n2"), ("n2", "n1"), ("n3", "n4"), ("n4", "n3")]
cycles = [Op.insert(Rule.forward(rid, 0, 256, 1, source, target))
          for rid, (source, target) in enumerate(pairs)]
scenario = random_scenario(random.Random(101))
for backend in ("deltanet", "sharded"):
    replay(backend, 8, cycles, [LoopProperty()])
    replay(backend, scenario.width, scenario.ops,
           scenario.make_properties())
"""


def _run(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600, check=False)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_loop_streams_are_byte_identical_across_hash_seeds():
    first, second = _run(0), _run(1)
    lines = first.splitlines()
    assert len(lines) == 12
    # The two-cycle state's sweep finds both cycles.
    assert b"('n1', 'n2')" in lines[0] and b"('n3', 'n4')" in lines[0]
    assert first == second
