"""The public record types behave as the ``dataclasses`` twins of the same
fields would: construction, defaults, ``==``/``!=``, ``hash``, ``repr``, and
``AttributeError`` on assigning or deleting a field of a frozen record."""

import pickle
import random
from fractions import Fraction

import pytest

import branchdual
from branchdual.cli import JobSpec
from oracles import RECORD_FIELDS, dataclass_twin, field_names

CLASSES = {name: JobSpec if name == "JobSpec" else getattr(branchdual, name) for name in RECORD_FIELDS}
# A small domain, so that random pairs are often equal; 1, True and Fraction(1) are equal.
VALUES = [0, 1, True, Fraction(1), Fraction(1, 2), "a", None, (), (1, 2), (Fraction(1, 3),)]


def _values(rng, name):
    """Random field values; a QMatrix's entries match its shape, a Staircase's rows are a dict."""
    vals = [rng.choice(VALUES) for _ in field_names(name)]
    if name == "QMatrix":
        vals[:2] = rng.randint(0, 2), rng.randint(0, 2)
        vals[2] = tuple(rng.choice(VALUES) for _ in range(vals[0] * vals[1]))
    if name == "Staircase":
        vals[0] = rng.choice([{0: (1,)}, {0: (1, 0)}, {0: (1,), 2: (0, 0, 1)}])
    return vals


# (rows, conductor, sparse rows) of a staircase built lazily from sparse
# rows, primitive int rows that may be nonzero at a later pivot: the rows are
# their reduced form, of max(c, 1) entries
LAZY = [
    ({0: (1,)}, 0, {0: {0: 1}}),
    ({0: (1, 0)}, 2, {0: {0: 1}}),
    ({0: (1, 0, 0), 2: (0, 0, 1)}, 3, {0: {0: 1, 2: 3}, 2: {2: 1}}),
    ({0: (1, 0, 0, 0), 2: (0, 0, 1, -2)}, 4, {0: {0: 1, 2: -3, 3: 6}, 2: {2: 1, 3: -2}}),
    ({0: (4, 0, 0, 1), 2: (0, 0, 2, 1)}, 4, {0: {0: 2, 2: 1, 3: 1}, 2: {2: 2, 3: 1}}),
]


def check_lazy_staircase(case, work_trunc, twin):
    """A lazily built staircase is, before and after its rows are read, equal
    to, hashed, printed and pickled as the one built from its rows.  Each
    stores one view and derives the other: the sparse rows it was built from,
    or the rows made sparse."""
    rows, c, sparse = case
    eager = CLASSES["Staircase"](rows, c, work_trunc)
    assert eager.sparse_rows == {v: {k: x for k, x in enumerate(r) if x} for v, r in rows.items()}
    for read in (False, True):
        lazy = CLASSES["Staircase"]._from_echelon(sparse, c, work_trunc)
        assert lazy.sparse_rows is sparse
        if read:
            assert lazy.rows == rows
        assert hash(lazy) == hash(eager) and ("rows" in lazy.__dict__) == read
        copy = pickle.loads(pickle.dumps(lazy))
        assert copy == eager and repr(copy) == repr(eager) and hash(copy) == hash(eager)
        assert lazy == eager and not lazy != eager and repr(lazy) == repr(eager) == repr(twin(rows, c, work_trunc))


@pytest.mark.parametrize("name", list(RECORD_FIELDS))
def test_records_match_their_dataclass_twins(name):
    cls, twin = CLASSES[name], dataclass_twin(name)
    sub = type(name, (cls,), {})  # same name and fields, another class
    names = field_names(name)
    rng = random.Random(name)
    for _ in range(200):
        a, b = _values(rng, name), _values(rng, name)
        if rng.random() < 0.5:  # one field changed, or none
            b = list(a)
            i = rng.randrange(len(a))
            b[i] = _values(rng, name)[i]
            if name == "QMatrix":  # same shape, new entries
                b = a[:2] + [tuple(rng.choice(VALUES) for _ in a[2])]
        x, y, tx, ty = cls(*a), cls(*b), twin(*a), twin(*b)
        assert repr(x) == repr(tx)
        by_keyword = cls(**dict(zip(names, a)))
        assert by_keyword == x and repr(by_keyword) == repr(x)
        # Staircase's own == admits a subclass, as it always did
        for other in (tx, 1) if name == "Staircase" else (tx, sub(*a), 1):
            assert x != other and not x == other and x.__eq__(other) is NotImplemented
        assert repr(pickle.loads(pickle.dumps(x))) == repr(x)
        if name == "Staircase":  # its own rule: work_trunc takes no part
            assert (x == y) == (a[0] == b[0] and a[1] == b[1]) != (x != y)
            assert x != y or hash(x) == hash(y)
            check_lazy_staircase(rng.choice(LAZY), a[2], twin)
            continue
        assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
        if name == "JobSpec":
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(tx)
        else:
            assert hash(x) == hash(tx)


@pytest.mark.parametrize("name", list(RECORD_FIELDS))
def test_records_take_defaults_and_refuse_wrong_arguments(name):
    cls, twin = CLASSES[name], dataclass_twin(name)
    rng = random.Random(name)
    required = _values(rng, name)[: sum(isinstance(f, str) for f in RECORD_FIELDS[name][0])]
    if name == "QMatrix":
        required = [1, 1, (Fraction(2),)]
    assert repr(cls(*required)) == repr(twin(*required))
    if name == "JobSpec":  # a new list and dict for each job
        assert cls(*required).generators is not cls(*required).generators
        assert cls(*required).options is not cls(*required).options
    for args, kw in [(required[:-1], {}), (required + [None] * 5, {}), (required, {"bogus": 1})]:
        with pytest.raises(TypeError):
            twin(*args, **kw)
        with pytest.raises(TypeError):
            cls(*args, **kw)


@pytest.mark.parametrize("name", [n for n in RECORD_FIELDS if n != "JobSpec"])
def test_frozen_records_refuse_assignment_and_deletion(name):
    cls, twin = CLASSES[name], dataclass_twin(name)
    vals = _values(random.Random(name), name)
    for obj in cls(*vals), twin(*vals):
        for field in field_names(name) + ["bogus"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(obj, field, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(obj, field)
    assert vars(cls(*vals)) == dict(zip(field_names(name), vals))


def test_jobspec_stays_mutable():
    job = JobSpec("analyze")
    job.generators = ["t^2", "t^3"]
    job.options["v"] = "u"
    assert job == JobSpec("analyze", ["t^2", "t^3"], {"v": "u"})
    del job.options


def test_qmatrix_checks_its_entry_count():
    with pytest.raises(ValueError, match="entry count"):
        branchdual.QMatrix(2, 2, (1, 2, 3))
