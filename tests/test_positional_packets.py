"""The per-access ``MemoryPacket`` sites pass their arguments positionally.

A keyword call to a class makes ``type.__call__`` build a kwargs dict
for ``__init__`` on every packet: about 0.3 µs more per packet on
CPython 3.11, roughly doubling its cost. The cost is spent inside
single instructions, so the calls-per-event guards cannot see it
coming back; this test reads the sources instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
# The modules that build a packet per core access, cache fill or
# writeback, injected Fig. 11 request or DMA chunk.
PER_ACCESS_MODULES = [
    "cpu/core.py",
    "cache/cache.py",
    "system/experiments.py",
    "io/dma.py",
]


def packet_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MemoryPacket":
                yield node


@pytest.mark.parametrize("module", PER_ACCESS_MODULES)
def test_memory_packets_are_built_positionally(module):
    path = PACKAGE_ROOT / module
    calls = list(packet_calls(ast.parse(path.read_text(), filename=str(path))))
    assert calls, f"{module} builds no MemoryPacket any more; update this list"
    keyword_calls = [
        f"{module}:{call.lineno}" for call in calls if call.keywords
    ]
    assert not keyword_calls, (
        f"MemoryPacket built with keyword arguments at {', '.join(keyword_calls)}; "
        "pass (ds_id, addr, birth_ps, op, size, span) positionally"
    )
