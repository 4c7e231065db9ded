"""The five round records against stock frozen dataclasses of the same fields.

``HiddenState``, ``SlotMessage``, ``TrialRecord``, ``TwoBobResult`` and
``ConsistencyRow`` take their ``__init__`` from ``protocol._record``. Each is
compared here with a twin that ``dataclasses`` builds from the same fields
with ``frozen=True``: signature, construction errors, equality, hashing,
``repr``, immutability, ``replace``, ``asdict``, pickling, copying and the
JSON bytes of the golden rounds. ``TrialRecord.to_json`` is also held to
``json.dumps`` of ``asdict`` on every value ``json`` spells or escapes.
"""

import copy
import dataclasses
import gc
import inspect
import json
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bctsim import analysis
from bctsim import protocol as pr

GOLDEN = Path(__file__).parent / "golden"


def _twin(cls):
    """A stock frozen dataclass with ``cls``'s name, fields and types, and none of its methods."""
    return dataclasses.make_dataclass(cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
                                      frozen=True)


def _instances():
    """One seeded instance of each record class, NaN fields included."""
    rng = np.random.default_rng(2102)
    hidden = pr.draw_hidden(rng)
    _, msg = pr.alice_round(1.0, hidden)
    _, bob = pr.bob_round(2.0, msg, hidden, coin=0.4)  # a is nan
    _, _, record = pr.bct_trial(1.0, 2.5, rng, pr.CYCLIC_FLIP)
    two_bob = pr.two_bob_trial(analysis.alice_setting(0.3), 0.0, rng)
    [row] = analysis.per_theta_consistency_audit(1.0, 0.0, [0.7])
    return [hidden, msg, bob, record, two_bob, row]


INSTANCES = _instances()


def _values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
class TestAgainstStockDataclass:
    def test_signature(self, obj):
        cls = type(obj)
        assert inspect.signature(cls) == inspect.signature(_twin(cls))
        assert inspect.signature(cls.__init__) == inspect.signature(_twin(cls).__init__)

    def test_equality_hash_and_repr_for_positional_and_keyword_construction(self, obj):
        cls, twin = type(obj), _twin(type(obj))
        values = _values(obj)
        kwargs = dict(zip((f.name for f in dataclasses.fields(cls)), values))
        built = [cls(*values), cls(**kwargs), twin(*values), twin(**kwargs)]
        assert built[0] == built[1] == obj and built[2] == built[3]
        assert len({hash(b) for b in built} | {hash(obj)}) == 1
        assert len({repr(b) for b in built} | {repr(obj)}) == 1
        assert vars(built[0]) == vars(built[2])
        assert list(vars(built[0])) == list(kwargs)  # fields in declaration order

    def test_construction_errors(self, obj):
        cls, twin = type(obj), _twin(type(obj))
        values = _values(obj)
        first = dataclasses.fields(cls)[0].name
        calls = [
            lambda c: c(*values[:-1]),  # missing
            lambda c: c(*values, "extra"),  # too many
            lambda c: c(*values, unknown=1),  # unknown
            lambda c: c(values[0], **{f.name: v for f, v in zip(dataclasses.fields(cls), values)}),  # duplicate
            lambda c: c(*values[1:], **{first: values[0]}),  # duplicate
        ]
        for call in calls:
            got = _raised(lambda: call(cls))
            assert got[0] is TypeError
            assert got == _raised(lambda: call(twin))

    def test_frozen(self, obj):
        name = dataclasses.fields(obj)[0].name
        for target in (obj, _twin(type(obj))(*_values(obj))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(target, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                target.not_a_field = 0

    def test_replace_asdict_pickle_and_copy(self, obj):
        cls, twin = type(obj), _twin(type(obj))
        name = dataclasses.fields(cls)[-1].name
        assert dataclasses.replace(obj) == obj
        changed = dataclasses.replace(obj, **{name: "changed"})
        assert type(changed) is cls and getattr(changed, name) == "changed"
        assert repr(changed) == repr(dataclasses.replace(twin(*_values(obj)), **{name: "changed"}))
        assert repr(dataclasses.asdict(obj)) == repr(dataclasses.asdict(twin(*_values(obj))))
        assert dataclasses.astuple(obj) == dataclasses.astuple(twin(*_values(obj)))
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            # repr, not ==: a NaN field of a clone is a new float, unequal to the old
            assert type(clone) is cls and repr(clone) == repr(obj)
            assert vars(clone).keys() == vars(obj).keys()
        assert copy.copy(obj) == obj


def test_records_keep_the_keys_their_class_shares():
    """Once its ``vars`` are read, a record costs what a stock one costs: one ``update`` would double it.

    Only what the builds allocate is counted: the traces with a frame in
    this file, taken with the collector off, so no other thread's or
    collection's allocations enter the window.
    """
    values = _values(INSTANCES[3])
    here = [tracemalloc.Filter(True, __file__, all_frames=True)]

    def traced_bytes(cls) -> int:
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start(8)
        try:
            built = [cls(*values) for _ in range(1000)]
            for obj in built:
                vars(obj)
            return sum(trace.size for trace in tracemalloc.take_snapshot().filter_traces(here).traces)
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()

    twin = _twin(pr.TrialRecord)
    traced_bytes(pr.TrialRecord), traced_bytes(twin)  # the first instances of a class build its shared keys
    ours, stock = traced_bytes(pr.TrialRecord), traced_bytes(twin)
    assert stock > 200_000  # the filter keeps the builds: some 300 bytes a record
    assert ours <= 1.1 * stock


def test_record_helper_serves_only_frozen_dataclasses_of_required_fields():
    @dataclasses.dataclass
    class Mutable:
        x: int

    @dataclasses.dataclass(frozen=True)
    class Defaulted:
        x: int = 0

    @dataclasses.dataclass(frozen=True)
    class Factory:
        x: list = dataclasses.field(default_factory=list)

    @dataclasses.dataclass(frozen=True)
    class NotInit:
        x: int = dataclasses.field(init=False)

    @dataclasses.dataclass(frozen=True)
    class PostInit:
        x: int

        def __post_init__(self):
            pass

    for cls in (Mutable, Defaulted, Factory, NotInit, PostInit):
        with pytest.raises(TypeError):
            pr._record(cls)


def test_golden_round_records_serialize_to_the_same_bytes():
    """Every record of ``rounds.jsonl``, rebuilt from its JSON, writes its text, as a stock twin's ``asdict`` does."""
    record_twin, message_twin = _twin(pr.TrialRecord), _twin(pr.SlotMessage)
    count = 0
    for line in (GOLDEN / "rounds.jsonl").read_text(encoding="utf-8").splitlines():
        for text in json.loads(line)["records"]:
            fields = json.loads(text)
            message = fields.pop("message")
            record = pr.TrialRecord(message=pr.SlotMessage(**message), **fields)
            assert record.to_json() == text
            twin = record_twin(message=message_twin(**message), **fields)
            assert json.dumps(dataclasses.asdict(twin), allow_nan=True) == text
            assert pr.replay_bob(record) == record.c_b
            count += 1
    assert count >= 400


def _spelled_records() -> list:
    """Records whose values ``json`` spells or escapes.

    That is NaN, the infinities, a None coin, NumPy floats, and strings with
    quotes, backslashes, control characters and non-ASCII text.
    """
    rng = np.random.default_rng(2603)
    records = []
    for strategy in (pr.NO_FLIP, pr.CYCLIC_FLIP, pr.Strategy("cyclic-distance", "terminate-with-negated-c")):
        for a, b in rng.uniform(0.0, 7.0, (12, 2)).tolist():
            _, _, record = pr.bct_trial(a, b, rng, strategy)
            hidden = pr.HiddenState.make(record.c, record.theta)
            records += [record, pr.bob_round(b, record.message, hidden, rng, strategy)[1]]
    assert sum(math.isnan(record.a) for record in records) == len(records) // 2  # bob_round's records
    assert {record.branch for record in records} == {"same-slot", "cross-slot", "flipped-then-same-slot",
                                                     "flipped-then-cross-slot", "flipped-terminated"}
    record = records[1]
    inf = float("inf")
    records += [
        dataclasses.replace(record, coin=None),
        dataclasses.replace(record, a=inf, b=-inf, theta=-inf, coin=inf, boundary_angle=-inf, u=inf, accept_prob=-inf),
        dataclasses.replace(record, a=np.float64(0.1), u=np.float64(-0.0), accept_prob=np.float64(1e16), coin=5e-324),
        dataclasses.replace(record, branch='say "cross"', system="back\\slash", flip_rule="tab\there\x00\x1f\x7f",
                            flip_semantics="r\u00e9/\u00df \u221e \U0001d11e \u2028"),
    ]
    return records


def test_to_json_spells_and_escapes_every_value_as_json_dumps_does():
    """``to_json`` and the dict view both write ``json.dumps`` of ``asdict``, byte for byte."""
    for record in _spelled_records():
        text = json.dumps(dataclasses.asdict(record), allow_nan=True)
        assert record.to_json() == text, record
