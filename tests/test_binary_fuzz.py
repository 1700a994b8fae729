"""Mutated checkpoint headers and data lengths: both binary readers refuse or load.

A `.cloud` or `.ens` file is a JSON header line followed by raw data.  Each
example replaces or drops one header field, and then keeps the data, cuts or
pads it, or resizes it to the length that the mutated header implies (so
that consistent but odd headers, such as dim 0, reach the code behind the
length check).  `vmvp report --from-checkpoints` and `vmvp wasserstein` must
exit 0 or 2 on a mutated cloud, and `load_ensemble` must return an ensemble
or raise ValidationError.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from vmvp.cli import main
from vmvp.errors import ValidationError
from vmvp.lagrangian import ParticleCloud, save_cloud
from vmvp.multifluid import PhaseEnsemble, load_ensemble, save_ensemble
from vmvp.spectral import SpectralField

MISSING = object()  # drop the field instead of setting it

json_values = st.one_of(
    st.integers(0, 4),
    st.integers(),
    st.integers(10 ** 300, 10 ** 400),
    st.floats(),
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=3),
    st.just(MISSING),
)
phase_tables = st.lists(
    st.fixed_dictionaries({"mu": st.one_of(st.floats(), st.integers(), st.integers(10 ** 300, 10 ** 400))}),
    max_size=3,
)
lengths = st.one_of(st.just("keep"), st.just("implied"), st.integers(-64, 64))


def cloud_bytes() -> bytes:
    rng = np.random.default_rng(3)
    n = 5
    x, xi = rng.uniform(0, 6, (n, 2)), rng.standard_normal((n, 2))
    cloud = ParticleCloud(x, xi, np.full(n, 1 / n), np.arange(n) % 2, x, xi, x + 0.1, xi - 0.1, seed=4, t=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        save_cloud(cloud, Path(tmp) / "c.cloud")
        return (Path(tmp) / "c.cloud").read_bytes()


def ensemble_bytes() -> bytes:
    rho = [SpectralField.from_modes(2, 1, 1, [(0, (0, 0), 1.0), (0, (1, 0), a)]).coeffs for a in (0.1, 0.2)]
    xi = [SpectralField.from_modes(2, 1, 2, [(0, (0, 0), b), (1, (0, 1), 0.05j)]).coeffs for b in (0.3, -0.3)]
    ens = PhaseEnsemble([0.5, 0.5], np.stack(rho), np.stack(xi), 0.2)
    with tempfile.TemporaryDirectory() as tmp:
        save_ensemble(ens, Path(tmp) / "e.ens")
        return (Path(tmp) / "e.ens").read_bytes()


CLOUD, ENSEMBLE = cloud_bytes(), ensemble_bytes()


def small_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= 8


def implied_cloud_bytes(h) -> int | None:
    if small_count(h.get("n")) and small_count(h.get("dim")):
        return 8 * h["n"] * (6 * h["dim"] + 2)
    return None


def implied_ensemble_bytes(h) -> int | None:
    phases = h.get("phases")
    if small_count(h.get("dim")) and small_count(h.get("cutoff")) and isinstance(phases, list):
        return 16 * len(phases) * (1 + h["dim"]) * (2 * h["cutoff"] + 1) ** h["dim"]
    return None


def mutate(original: bytes, key, value, length, implied) -> bytes:
    head, data = original.split(b"\n", 1)
    header = json.loads(head)
    if value is MISSING:
        header.pop(key, None)
    else:
        header[key] = value
    if length == "implied":
        size = implied(header)
        if size is not None:
            data = (data * (size // len(data) + 1))[:size]
    elif length != "keep":
        data = data[:length] if length < 0 else data + bytes(range(length))
    return (json.dumps(header) + "\n").encode() + data


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(["format", "n", "dim", "seed", "t"]), value=json_values, length=lengths)
def test_mutated_cloud_exits_0_or_2(key, value, length):
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck"
        ck.mkdir()
        good, bad = Path(tmp) / "good.cloud", ck / "bad.cloud"
        good.write_bytes(CLOUD)
        bad.write_bytes(mutate(CLOUD, key, value, length, implied_cloud_bytes))
        assert main(["report", "--from-checkpoints", str(ck)]) in (0, 2)
        for side in ("vm", "initial"):
            assert main(["wasserstein", str(bad), str(bad), "--side", side]) in (0, 2)
        assert main(["wasserstein", str(good), str(bad)]) in (0, 2)


@settings(max_examples=200, deadline=None)
@given(
    key_value=st.one_of(
        st.tuples(st.sampled_from(["format", "eps", "dim", "cutoff", "phases"]), json_values),
        st.tuples(st.just("phases"), phase_tables),
    ),
    length=lengths,
)
def test_mutated_ensemble_loads_or_fails_validation(key_value, length):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.ens"
        path.write_bytes(mutate(ENSEMBLE, *key_value, length, implied_ensemble_bytes))
        try:
            ens = load_ensemble(path)
        except ValidationError:
            return
        assert isinstance(ens, PhaseEnsemble)


def test_unmutated_files_load():
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck"
        ck.mkdir()
        (ck / "a.cloud").write_bytes(CLOUD)
        assert main(["report", "--from-checkpoints", str(ck)]) == 0
        assert main(["wasserstein", str(ck / "a.cloud"), str(ck / "a.cloud")]) == 0
        (Path(tmp) / "e.ens").write_bytes(ENSEMBLE)
        assert load_ensemble(Path(tmp) / "e.ens").mu.size == 2
