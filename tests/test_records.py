"""Result records serialize from their dataclass fields, with the parent's bytes."""

import dataclasses

import pytest

from lofo.bounds import BoundShape, RootSolution
from lofo.concentration import QEstimate
from lofo.harness import CalibrationReport, LowerBoundReport, ScalingFit
from lofo.lcd import ClearanceReport, LcdResult
from lofo.serialize import dumps_canonical

RECORDS = {
    "QEstimate": QEstimate(value=0.1, method="monte_carlo", error_radius=1.0 / 3.0,
                           sample_size=10_000, seed=7),
    "LcdResult": LcdResult(value=0.8571428571428571, error_radius=2.5e-7,
                           witness_t=0.85714310, L=1.0, variant="d_star", t_start=0.5,
                           t_max=1e300, n_evals=42, gaps=((0.857, 0.8571), (0.86, 0.87))),
    "ClearanceReport": ClearanceReport(passed=False, violation_t=1.3117, vacuous=False,
                                       t_start=0.625, t_end=2.0, n_evals=9),
    "BoundShape": BoundShape(id="kolmogorov_rogozin",
                             params={"lambda": 1.0, "lambda_k": "0.5,1", "q_k": "0.3,0.4"},
                             value=1.2344267996967353),
    "RootSolution": RootSolution(tau0=2.0 ** 0.5, residual=-1e-17, iterations=0,
                                 method="closed_form", eps0=None),
    "CalibrationReport": CalibrationReport(
        bound_id="crossover", family_id="sparse", L=2.0,
        rows=({"instance": "s4_p0.5", "s": 4, "eps": 0.0, "q": 0.375, "shape": 0.5,
               "ratio": 0.75, "excluded": False},
              {"instance": "s4_p0.5", "s": 4, "eps": 0.1, "q": None, "shape": 1e-3,
               "ratio": 1.0 / 7.0, "excluded": True}),
        ratio_sup=0.75, ratio_inf=1.0 / 7.0, n_excluded=1, fixture=2.0, passed=True),
    "LowerBoundReport": LowerBoundReport(
        rows=({"s": 16, "p": 0.5, "eps": 0.25, "q": 0.4, "ratio": 0.6},),
        c_low_observed=0.09375, chebyshev_ok=True, chain_ok=False, fixture=0.05, passed=False),
    "ScalingFit": ScalingFit(alpha=1.5, slope=1.3333, half_width=0.01, expected=4.0 / 3.0,
                             points=((1.0, 2.0), (2.0, 5.039684199579493)),
                             inconclusive=False),
}

# dumps_canonical(rec.to_json()) of each record above, as the hand-written
# to_json methods that the shared one replaced emitted it.
FROZEN = {
    "QEstimate": '{"error_radius":0.33333333333333331,"method":"monte_carlo",'
                 '"sample_size":10000,"seed":7,"value":0.10000000000000001}',
    "LcdResult": '{"L":1,"error_radius":2.4999999999999999e-07,"gaps":[[0.85699999999999998,'
                 '0.85709999999999997],[0.85999999999999999,0.87]],"n_evals":42,'
                 '"t_max":1.0000000000000001e+300,"t_start":0.5,"value":0.8571428571428571,'
                 '"variant":"d_star","witness_t":0.85714310000000005}',
    "ClearanceReport": '{"n_evals":9,"passed":false,"t_end":2,"t_start":0.625,'
                       '"vacuous":false,"violation_t":1.3117000000000001}',
    "BoundShape": '{"id":"kolmogorov_rogozin","params":{"lambda":1,"lambda_k":"0.5,1",'
                  '"q_k":"0.3,0.4"},"value":1.2344267996967353}',
    "RootSolution": '{"eps0":null,"iterations":0,"method":"closed_form",'
                    '"residual":-1.0000000000000001e-17,"tau0":1.4142135623730951}',
    "CalibrationReport": '{"L":2,"bound_id":"crossover","family_id":"sparse","fixture":2,'
                         '"n_excluded":1,"passed":true,"ratio_inf":0.14285714285714285,'
                         '"ratio_sup":0.75,"rows":[{"eps":0,"excluded":false,'
                         '"instance":"s4_p0.5","q":0.375,"ratio":0.75,"s":4,"shape":0.5},'
                         '{"eps":0.10000000000000001,"excluded":true,"instance":"s4_p0.5",'
                         '"q":null,"ratio":0.14285714285714285,"s":4,"shape":0.001}]}',
    "LowerBoundReport": '{"c_low_observed":0.09375,"chain_ok":false,"chebyshev_ok":true,'
                        '"fixture":0.050000000000000003,"passed":false,"rows":[{"eps":0.25,'
                        '"p":0.5,"q":0.40000000000000002,"ratio":0.59999999999999998,"s":16}]}',
    "ScalingFit": '{"alpha":1.5,"expected":1.3333333333333333,"half_width":0.01,'
                  '"inconclusive":false,"points":[[1,2],[2,5.0396841995794928]],'
                  '"slope":1.3332999999999999}',
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_json_keys_are_its_fields(name):
    rec = RECORDS[name]
    assert list(rec.to_json()) == [f.name for f in dataclasses.fields(rec)]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_json_bytes_frozen(name):
    assert dumps_canonical(RECORDS[name].to_json()) == FROZEN[name]


def test_record_json_copies_tuple_items():
    rows = RECORDS["CalibrationReport"].to_json()["rows"]
    assert isinstance(rows, list) and rows[0] == RECORDS["CalibrationReport"].rows[0]
    assert rows[0] is not RECORDS["CalibrationReport"].rows[0]
    gaps = RECORDS["LcdResult"].to_json()["gaps"]
    assert gaps == [[0.857, 0.8571], [0.86, 0.87]]
