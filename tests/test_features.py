import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppgtriage.errors import DataError
from ppgtriage.features import (BRV_NAMES, CATALOG, FEATURE_NAMES, META_NAMES, MOR_NAMES,
                                FeatureMatrix, aggregate_mor, aggregate_window_mor,
                                assemble_matrix, brv_features, meta_features,
                                mor_features_per_beat, mor_matrix)
from ppgtriage.fiducials import locate_batch, locate_fiducials, smooth_derivatives, window_beats
from ppgtriage.io import Recording
from ppgtriage.synth import BeatModel

from .conftest import BEAT_KINDS, beat_train, make_beat, random_beat_model
from .oracles import (chain_abcde, poincare_reference, rmssd_reference, sdpp_reference)
from ppgtriage.fiducials import EXTREMUM_FLOOR, MAX_D2_EXTREMA, edge_guard

FS = 1000.0

TABLE_FEATURES = ["Age", "T_a", "T_b", "T_c", "T_dw25/T_sw25", "RMSSD",
                  "T_b-d", "A_p2/A_p1", "AI", "T_pw75/T_pi"]


def test_catalog_invariants():
    names = [f.name for f in CATALOG]
    assert len(set(names)) == len(names)
    assert len(MOR_NAMES) >= 40
    assert len(BRV_NAMES) == 17
    assert META_NAMES == ["Age", "Sex"]
    for required in TABLE_FEATURES:
        assert required in names
    for desc in CATALOG:
        assert desc.family in ("MOR", "BRV", "META")
        assert desc.definition


def test_extractors_return_exactly_the_catalog_names():
    # the catalog is read from the shipped CSV; the extractors name features in code
    beat = make_beat(BeatModel())
    fid = locate_fiducials(beat, FS)
    assert fid.sp is not None
    assert list(mor_features_per_beat(beat, FS, fid)) == MOR_NAMES
    assert list(brv_features([0.8, 0.9, 1.0, 0.85])) == BRV_NAMES
    rec = Recording("P", 100.0, np.ones(3), "LVO", age=71.0, sex="male")
    assert list(meta_features(rec)) == META_NAMES
    assert MOR_NAMES + BRV_NAMES + META_NAMES == FEATURE_NAMES


def test_onset_landmark_times_match_oracle():
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(30):
        beat = make_beat(random_beat_model(rng), period_s=rng.uniform(0.78, 0.92))
        derivs = smooth_derivatives(beat, FS)
        fid = locate_fiducials(beat, FS)
        expected = chain_abcde(derivs[1], edge_guard(FS), EXTREMUM_FLOOR, MAX_D2_EXTREMA)
        if expected["a"] is None:
            continue
        values = mor_features_per_beat(beat, FS, fid)
        assert values["T_a"] == pytest.approx(expected["a"] / FS, abs=2e-3)
        if expected["b"] is not None:
            assert values["T_b"] == pytest.approx(expected["b"] / FS, abs=2e-3)
        assert values["T_a"] < values["T_b"] < values["T_c"]
        checked += 1
    assert checked >= 25


def test_symmetric_pulse_has_unit_width_ratio():
    t = np.arange(0, 1.0, 1 / FS)
    beat = np.exp(-((t - 0.5) ** 2) / (2 * 0.09**2))
    fid = locate_fiducials(beat, FS)
    values = mor_features_per_beat(beat, FS, fid)
    assert values["T_dw25/T_sw25"] == pytest.approx(1.0, abs=1e-3)
    for pct in (10, 33, 50, 66, 75):
        assert values[f"T_dw{pct}/T_sw{pct}"] == pytest.approx(1.0, abs=1e-3)


def test_missing_landmark_propagates():
    beat = make_beat(BeatModel())
    fid = locate_fiducials(beat, FS)
    fid.d = None
    fid.p2 = None
    values = mor_features_per_beat(beat, FS, fid)
    assert np.isnan(values["T_b-d"])
    assert np.isnan(values["A_p2/A_p1"])
    assert np.isnan(values["d/a"]) and np.isnan(values["AGI"])
    for present in ("T_a", "T_b", "T_sp", "T_pi", "T_sw50"):
        assert np.isfinite(values[present])


def test_ratio_features_scale_and_shift_invariant():
    rng = np.random.default_rng(10)
    beat = make_beat(random_beat_model(rng))
    fid = locate_fiducials(beat, FS)
    base = mor_features_per_beat(beat, FS, fid)

    for variant in (3.0 * beat, beat + 2.0, 0.5 * beat - 1.0):
        f_v = locate_fiducials(variant, FS)
        assert f_v.as_dict() == fid.as_dict()
        values = mor_features_per_beat(variant, FS, f_v)
        for name, val in base.items():
            unit = next(f.unit for f in CATALOG if f.name == name)
            if unit == "ratio" and np.isfinite(val):
                assert values[name] == pytest.approx(val, rel=1e-9), name
            elif unit == "s" and np.isfinite(val):
                assert values[name] == pytest.approx(val, rel=1e-9), name


def test_index_timings_exactly_invariant():
    rng = np.random.default_rng(11)
    beat = make_beat(random_beat_model(rng))
    base = mor_features_per_beat(beat, FS, locate_fiducials(beat, FS))
    scaled = mor_features_per_beat(4.0 * beat, FS, locate_fiducials(4.0 * beat, FS))
    for name in ("T_a", "T_b", "T_c", "T_d", "T_e", "T_sp", "T_dn", "T_pi", "T_b-d"):
        if np.isfinite(base[name]):
            assert scaled[name] == base[name]


def test_aggregate_mean_rules():
    a = {name: np.nan for name in MOR_NAMES}
    b = dict(a)
    a["T_a"], b["T_a"] = 0.10, 0.20
    a["T_b"] = 0.05
    agg = aggregate_window_mor([a, b])
    assert agg["T_a"] == pytest.approx(0.15)
    assert agg["T_b"] == pytest.approx(0.05)      # present in one beat only
    assert np.isnan(agg["T_c"])                   # absent everywhere
    same = aggregate_window_mor([b, b, b])
    assert same["T_a"] == pytest.approx(b["T_a"], rel=1e-15)


def test_brv_constant_intervals():
    values = brv_features([0.8] * 10)
    assert values["RMSSD"] == 0.0
    assert values["SDPP"] == 0.0
    assert values["pPP50"] == 0.0
    assert values["rangePP"] == 0.0
    assert values["SD1"] == 0.0


def test_brv_worked_example():
    values = brv_features([0.800, 0.850, 0.800])
    assert values["RMSSD"] == pytest.approx(0.050, abs=1e-12)
    assert values["RMSSD"] == pytest.approx(rmssd_reference([0.800, 0.850, 0.800]), rel=1e-12)


def test_brv_rate_conversion():
    values = brv_features([1.0, 1.0, 1.0, 1.0])
    assert values["meanBR"] == pytest.approx(60.0, abs=1e-12)
    mixed = brv_features([0.9, 1.0, 1.1])
    assert mixed["meanBR"] == pytest.approx(60.0, abs=1e-9)


def test_brv_names_and_missing_rule():
    values = brv_features([0.8, 0.9, 1.0])
    assert sorted(values) == sorted(BRV_NAMES)
    short = brv_features([0.8, 0.9])
    assert all(np.isnan(v) for v in short.values())


def test_brv_matches_reference_formulas():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = rng.integers(4, 60)
        intervals = rng.uniform(0.5, 1.4, size=n)
        values = brv_features(intervals)
        assert values["RMSSD"] == pytest.approx(rmssd_reference(intervals), rel=1e-9)
        assert values["SDPP"] == pytest.approx(sdpp_reference(intervals), rel=1e-9)
        sd1_ref, sd2_ref = poincare_reference(intervals)
        assert values["SD1"] == pytest.approx(sd1_ref, rel=1e-9)
        assert values["SD2"] == pytest.approx(sd2_ref, rel=1e-9)
        assert values["SD1/SD2"] == pytest.approx(sd1_ref / sd2_ref, rel=1e-8)


def test_meta_encoding():
    rec = Recording("P", 100.0, np.ones(3), "LVO", age=71.0, sex="male")
    assert meta_features(rec) == {"Age": 71.0, "Sex": 1.0}
    rec_f = Recording("P", 100.0, np.ones(3), "NL", age=60.0, sex="female")
    assert meta_features(rec_f)["Sex"] == 0.0
    rec_u = Recording("P", 100.0, np.ones(3), "NL", sex="unknown")
    values = meta_features(rec_u)
    assert np.isnan(values["Age"]) and np.isnan(values["Sex"])


def _rows_and_labels(n_patients=3, windows=2):
    labels = {f"P{i}": "LVO" if i == 0 else "NL" for i in range(n_patients)}
    rows = []
    for i in range(n_patients):
        for w in range(windows):
            values = {name: float(i + w) for name in MOR_NAMES + BRV_NAMES}
            values.update({"Age": 60.0 + i, "Sex": 1.0})
            rows.append((f"P{i}", w, values))
    return rows, labels


def test_matrix_shape_and_family_selection():
    rows, labels = _rows_and_labels()
    matrix = assemble_matrix(rows, labels)
    assert matrix.values.shape == (6, len(FEATURE_NAMES))
    assert len(matrix.family_columns("META")) == 2
    assert len(matrix.family_columns("MOR")) == len(MOR_NAMES)
    assert len(matrix.family_columns("ALL")) == len(FEATURE_NAMES)
    age_col = matrix.feature_names.index("Age")
    for pid, expected in (("P0", 60.0), ("P1", 61.0), ("P2", 62.0)):
        rows_for = [i for i, p in enumerate(matrix.patient_ids) if p == pid]
        assert all(matrix.values[i, age_col] == expected for i in rows_for)
    assert matrix.labels[matrix.patient_ids.index("P0")] == 1


def test_matrix_rows_sorted_and_labels_consistent():
    rows, labels = _rows_and_labels()
    matrix = assemble_matrix(list(reversed(rows)), labels)
    order = list(zip(matrix.patient_ids, matrix.window_indices))
    assert order == sorted(order)


def test_matrix_unknown_patient_rejected():
    rows, labels = _rows_and_labels()
    rows.append(("GHOST", 0, {}))
    with pytest.raises(DataError, match="GHOST"):
        assemble_matrix(rows, labels)


def test_matrix_csv_round_trip(tmp_path, small_matrix):
    matrix, _ = small_matrix
    path = tmp_path / "features.csv"
    matrix.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.feature_names == matrix.feature_names
    assert back.patient_ids == matrix.patient_ids
    assert back.window_indices == matrix.window_indices
    assert np.array_equal(back.labels, matrix.labels)
    assert np.array_equal(back.values, matrix.values, equal_nan=True)


def test_matrix_csv_rejects_unknown_feature(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,window_index,label,NOT_A_FEATURE\nP0,0,1,1.0\n")
    with pytest.raises(DataError, match="unknown features"):
        FeatureMatrix.from_csv(path)


def test_matrix_csv_rejects_repeated_feature(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,window_index,label,T_a,T_a,T_c\nP0,0,1,1.0,1.0,2.0\n")
    with pytest.raises(DataError, match=r"repeated feature columns \['T_a'\]"):
        FeatureMatrix.from_csv(path)


_FAMILY = {f.name: f.family for f in CATALOG}


@st.composite
def _written_matrices(draw, max_rows=12):
    """Any matrix extract could write: non-empty ids (any text UTF-8 encodes),
    each (patient_id, window_index) once, labels 0/1, catalog columns once
    each in any order, and finite or NaN values."""
    names = draw(st.lists(st.sampled_from(FEATURE_NAMES), unique=True, max_size=6))
    keys = draw(st.lists(st.tuples(st.text(st.characters(blacklist_categories=("Cs",)),
                                           min_size=1, max_size=6),
                                   st.integers(0, 10**6)),
                         unique=True, max_size=max_rows))
    cells = st.floats(allow_infinity=False) | st.just(np.nan)
    values = [[draw(cells) for _ in names] for _ in keys]
    return FeatureMatrix(feature_names=names, families=[_FAMILY[n] for n in names],
                         patient_ids=[pid for pid, _ in keys],
                         window_indices=[widx for _, widx in keys],
                         labels=np.array([draw(st.integers(0, 1)) for _ in keys],
                                         dtype=np.int64),
                         values=np.array(values, dtype=np.float64).reshape(len(keys),
                                                                           len(names)))


@settings(max_examples=300, deadline=None)
@given(matrix=_written_matrices())
def test_matrix_csv_round_trip_is_exact(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    matrix.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.feature_names == matrix.feature_names
    assert back.families == matrix.families
    assert back.patient_ids == matrix.patient_ids
    assert back.window_indices == matrix.window_indices
    assert np.array_equal(back.labels, matrix.labels)
    missing = np.isnan(matrix.values)
    assert np.array_equal(np.isnan(back.values), missing)
    assert np.array_equal(back.values[~missing].view(np.int64),
                          matrix.values[~missing].view(np.int64))


def _read_or_data_error(path) -> None:
    try:
        FeatureMatrix.from_csv(path)
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=400))
@example(data=b"\xff\xfepatient_id,window_index,label\n")
@example(data=b"patient_id,window_index,label\n" + b"x" * 200_000 + b",0,1\n")   # csv field limit
def test_matrix_csv_of_arbitrary_bytes_reads_or_is_data_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    path.write_bytes(data)
    _read_or_data_error(path)


@settings(max_examples=300, deadline=None)
@given(matrix=_written_matrices(max_rows=4), edits=st.lists(
    st.tuples(st.integers(0, 10**4), st.integers(0, 8), st.binary(max_size=6)),
    min_size=1, max_size=4))
def test_matrix_csv_mutated_reads_or_is_data_error(tmp_path_factory, matrix, edits):
    """Each edit replaces `length` bytes at `at` (modulo the file's size) with `new`."""
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    matrix.to_csv(path)
    data = path.read_bytes()
    for at, length, new in edits:
        at %= len(data) + 1
        data = data[:at] + new + data[at + length:]
    path.write_bytes(data)
    _read_or_data_error(path)


@settings(max_examples=60, deadline=None)
@given(fs=st.sampled_from([20.0, 250.0, 1000.0]),
       kinds=st.lists(st.sampled_from(BEAT_KINDS), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(fs=1000.0, kinds=["pulse", "noise", "flat", "short", "pulse"], seed=3)
@example(fs=20.0, kinds=["pulse", "short", "flat", "noise"], seed=4)
@example(fs=250.0, kinds=["pulse"], seed=5)
def test_window_mor_equals_each_beat_alone(fs, kinds, seed):
    """Each row of the window's MOR matrix is bitwise the beat's own per-beat
    values, NaN in the same places, and the window mean is the mean of the
    per-beat dicts."""
    samples, spans = beat_train(fs, kinds, seed)
    batch = window_beats(samples, spans, fs)
    values = mor_matrix(batch.y, batch.lengths, fs, locate_batch(batch), batch.d2)
    assert values.shape == (len(batch), len(MOR_NAMES))
    per_beat = []
    for i, n in enumerate(batch.lengths):
        beat = batch.y[i, :n]
        alone = mor_features_per_beat(beat, fs, locate_fiducials(beat, fs))
        assert np.array(list(alone.values())).tobytes() == values[i].tobytes()
        per_beat.append(alone)
    window = aggregate_mor(values)
    expected = aggregate_window_mor(per_beat)
    assert np.array(list(window.values())).tobytes() == \
           np.array(list(expected.values())).tobytes()
