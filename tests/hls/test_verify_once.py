"""Each compiled function is IR-verified exactly once per compilation.

``compile_process`` verifies its input, and a faulted clone a second
time; ``synth_process`` leaves the check to it rather than verifying the
same transformed IR first. The counter is patched into every loaded
module that holds ``verify_function``, so a call re-added anywhere shows.
"""

import sys
from collections import Counter

import pytest

import repro.difftest.oracle as oracle
import repro.ir.verify as verify_mod
from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback
from repro.core.synth import synthesize
from repro.errors import IRError
from repro.hls.compiler import compile_process
from repro.hls.constraints import HLSConfig
from repro.hls.faults import NarrowCompare
from tests.helpers import lower_one

NARROW_SRC = """
void f(co_stream output) {
  uint64 c1;
  uint64 c2;
  c1 = 4294967296;
  c2 = 4294967286;
  co_stream_write(output, c2 > c1);
}
"""


@pytest.fixture
def verified(monkeypatch):
    """Function name -> verify_function calls."""
    real = verify_mod.verify_function
    seen = Counter()

    def counting(func, *args, **kw):
        seen[func.name] += 1
        return real(func, *args, **kw)

    for mod in list(sys.modules.values()):
        if getattr(mod, "verify_function", None) is real:
            monkeypatch.setattr(mod, "verify_function", counting)
    return seen


@pytest.mark.parametrize("build", [
    lambda: build_edge_app(width=16, height=8),
    lambda: build_loopback(3),
], ids=["edge", "loopback"])
@pytest.mark.parametrize("level", ["none", "unoptimized", "optimized"])
def test_every_process_and_checker_verified_once(verified, build, level):
    image = synthesize(build(), level)
    assert dict(verified) == dict.fromkeys(image.compiled, 1)


def test_faulted_process_verifies_input_and_clone(verified):
    image = synthesize(build_edge_app(width=16, height=8), "optimized",
                       faults={"edge5x5": (NarrowCompare(width=5),)})
    assert set(image.compiled) == \
        {"edge5x5", "edge5x5__chk0", "edge5x5__chk1"}
    assert dict(verified) == {"edge5x5": 2, "edge5x5__chk0": 1,
                              "edge5x5__chk1": 1}


def test_direct_compile_and_difftest_oracle_verify(verified):
    compile_process(lower_one(NARROW_SRC))
    assert verified == {"f": 1}
    compile_process(lower_one(NARROW_SRC),
                    HLSConfig(faults=(NarrowCompare(width=5),)))
    assert verified == {"f": 3}
    oracle._compile(lower_one(NARROW_SRC), (), None)
    assert verified == {"f": 4}


def test_malformed_input_is_still_rejected():
    func = lower_one(NARROW_SRC)
    func.entry = "nowhere"
    with pytest.raises(IRError, match="entry block"):
        compile_process(func)
