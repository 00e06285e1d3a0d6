"""Differential test: the per-type fingerprint encoder against the walker it replaced.

:func:`reference_fingerprint` below is the previous reflective walker, kept
verbatim as the reference.  :func:`repro.caching.structural_fingerprint` must
give the same digest wherever the reference does not raise: the ASTs of the
226 golden designs, of every parseable syntax-fault mutant and of the fuzz
corpus; every elaborated and every pass-lowered FIRRTL module of the goldens;
and hand-built trees covering each encoding rule.  The digests key the
elaborate, FIRRTL-pass and emit caches, so equal digests mean equal cache
behaviour, down to the source coordinates of replayed diagnostics.

The one deliberate difference is an ``int`` past the interpreter's
int -> str digit limit, where the reference raises ``ValueError``: it gets a
hex-tagged encoding of its own.
"""

import enum
import hashlib
import json
import os
import time
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field, fields, is_dataclass

import pytest

from repro.caching import structural_fingerprint
from repro.chisel.diagnostics import ChiselError, SourceLocation
from repro.chisel.elaborator import elaborate
from repro.chisel.parser import parse_source
from repro.firrtl.pass_manager import run_default_pipeline
from repro.problems.mutations import applicable_syntax_faults
from repro.problems.registry import build_extended_registry


def _structural_update(value: object, update, skip_fields: tuple[str, ...]) -> None:
    if is_dataclass(value) and not isinstance(value, type):
        update(b"D")
        update(type(value).__name__.encode())
        update(b"\x1f")
        for field_ in fields(value):
            if field_.name in skip_fields:
                continue
            update(field_.name.encode())
            update(b"=")
            _structural_update(getattr(value, field_.name), update, skip_fields)
        update(b";")
    elif isinstance(value, (list, tuple)):
        update(b"L")
        for item in value:
            _structural_update(item, update, skip_fields)
        update(b";")
    elif isinstance(value, dict):
        update(b"M")
        for key, item in value.items():
            _structural_update(key, update, skip_fields)
            update(b":")
            _structural_update(item, update, skip_fields)
        update(b";")
    else:
        update(b"v")
        update(repr(value).encode())
        update(b"\x1f")


def reference_fingerprint(node: object, skip_fields: tuple[str, ...] = ("location",)) -> str:
    digest = hashlib.sha256()
    _structural_update(node, digest.update, skip_fields)
    return digest.hexdigest()


PROBLEMS = list(build_extended_registry())
GOLDEN_ASTS = [parse_source(problem.golden_chisel) for problem in PROBLEMS]
CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus.jsonl")


def assert_same_digests(nodes, skip_fields: tuple[str, ...] = ("location",)) -> None:
    for node in nodes:
        expected = reference_fingerprint(node, skip_fields)
        assert structural_fingerprint(node, skip_fields) == expected, node


def parseable(sources):
    trees = []
    for source in sources:
        try:
            trees.append(parse_source(source))
        except ChiselError:
            pass
    return trees


class TestAgainstReference:
    def test_golden_asts(self):
        assert len(GOLDEN_ASTS) == 226
        assert_same_digests(GOLDEN_ASTS)
        # The elaborate cache keys each class separately.
        assert_same_digests(cls for program in GOLDEN_ASTS for cls in program.classes)

    def test_syntax_fault_mutant_asts(self):
        mutants = [
            fault.apply(problem.golden_chisel, problem)
            for problem in PROBLEMS
            for fault in applicable_syntax_faults(problem.golden_chisel, problem)
        ]
        trees = parseable(mutants)
        assert len(trees) > len(PROBLEMS)
        assert_same_digests(trees)

    def test_fuzz_corpus_asts(self):
        with open(CORPUS_PATH, "r", encoding="utf-8") as handle:
            sources = [json.loads(line)["source"] for line in handle if line.strip()]
        assert len(sources) == 68
        trees = parseable(sources)
        assert len(trees) == 68
        assert_same_digests(trees)

    def test_elaborated_and_lowered_firrtl_modules(self):
        elaborated, lowered = [], []
        for program in GOLDEN_ASTS:
            circuit = elaborate(program)
            elaborated.extend(circuit.modules)
            lowered.extend(run_default_pipeline(circuit).circuit.modules)
        assert len(elaborated) >= 226 and len(lowered) >= 226
        assert_same_digests(elaborated)
        assert_same_digests(lowered)

    def test_non_default_skip_fields(self):
        # With nothing skipped, every SourceLocation (a plain class) is a leaf.
        assert_same_digests(GOLDEN_ASTS[:20], skip_fields=())
        assert_same_digests(GOLDEN_ASTS[:20], skip_fields=("location", "name"))


class Color(enum.Enum):
    RED = "red"
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


@dataclass
class Leaf:
    name: str
    value: object = None
    location: str = "here"


@dataclass
class Branch(Leaf):
    children: list = field(default_factory=list)


@dataclass(frozen=True)
class FrozenLeaf:
    value: int
    tags: tuple = ()


class PlainSubclass(Branch):
    """Inherits the dataclass fields without being decorated itself."""


Pair = namedtuple("Pair", "left right")


class Tagged(str):
    pass


LEAF_CASES = [
    None,
    True,
    False,
    0,
    -7,
    2**80,
    "",
    "quote ' and \" and \x1f and é",
    Tagged("tagged"),
    1.5,
    Color.RED,
    Color.BLUE,
    Level.HIGH,
    (),
    (1, "a", None),
    [[], [()], {}],
    {"a": 1, 2: [None], None: (True,)},
    OrderedDict([("z", 1), ("a", 2)]),
    Pair(Leaf("x"), 3),
    frozenset({1}),
    Leaf,
    Leaf("x", 1),
    Leaf("frozen", FrozenLeaf(7, ("t",))),
    Leaf("x", Leaf("y", location="there"), location="elsewhere"),
    Branch("b", 2, [Leaf("c"), Branch("d", children=[Color.RED])]),
    PlainSubclass("p", None, [PlainSubclass("q")]),
    SourceLocation(4, 2),
    [SourceLocation(1, 1, "A.scala"), {"k": SourceLocation(2, 2)}],
]


class TestLeafCases:
    @pytest.mark.parametrize("value", LEAF_CASES, ids=repr)
    @pytest.mark.parametrize("skip_fields", [("location",), (), ("name", "location")])
    def test_same_digest_as_reference(self, value, skip_fields):
        assert structural_fingerprint(value, skip_fields) == reference_fingerprint(
            value, skip_fields
        )

    def test_subclass_hashes_under_its_own_name(self):
        assert structural_fingerprint(PlainSubclass("p")) != structural_fingerprint(
            Branch("p")
        )


class TestIntPastTheDigitLimit:
    HUGE = int("f" * 5000, 16)  # about 6000 decimal digits

    def test_reference_raises_and_the_encoder_does_not(self):
        with pytest.raises(ValueError):
            reference_fingerprint(Leaf("x", self.HUGE))
        digest = structural_fingerprint(Leaf("x", self.HUGE))
        assert digest == structural_fingerprint(Leaf("x", self.HUGE))

    def test_distinct_from_other_values(self):
        digests = {
            structural_fingerprint(Leaf("x", value))
            for value in (self.HUGE, self.HUGE - 1, -self.HUGE, hex(self.HUGE), 2**64)
        }
        assert len(digests) == 5


def test_encoder_is_at_least_twice_as_fast():
    """Min-of-5 over the 226 golden ASTs, the two encoders interleaved in one run."""
    best_reference = best_new = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for tree in GOLDEN_ASTS:
            reference_fingerprint(tree)
        best_reference = min(best_reference, time.perf_counter() - start)
        start = time.perf_counter()
        for tree in GOLDEN_ASTS:
            structural_fingerprint(tree)
        best_new = min(best_new, time.perf_counter() - start)
    assert best_reference >= 2.0 * best_new, (best_reference, best_new)
