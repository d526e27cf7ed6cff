"""Assembly of the index invariants of the two non-trivial foliation types.

The connecting maps of the extension towers are evaluated numerically:

  * type F2: the exponential connecting map sends the two generators of the
    top K0 (the unit class and the hedgehog class) to lifts whose normalized
    exponentials are integrated by the 3D odd winding.  The unit and the
    constant projection lift trivially (integral 0, with no grid point to
    evaluate); the hedgehog lift winds once over each half-space.  Its two
    half-space fields are one field under two names (see `exp_ptilde`), so
    one winding gives both, and

        gamma1 = [[0, 1], [0, 1]]   and   gamma2 = (1, 1)^T

    in the generator bases ([b]x[u+], [b]x[u-]).
  * type F3: the unit lifts trivially (delta0 = 0) and the index connecting
    map sends the circle phase to the conjugated projection p = u q u^{-1},
    whose Chern pairing over the transverse disk has magnitude 1, giving
    gamma3 = (0, 1).

All signs are relative to the declared calibration (outward half-lines,
reference Chern charge +1 for the hedgehog disk); entries are canonical only
up to automorphisms of the generator bases.  Each result is cross-checked
against the exact six-term completion search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ktheory
from .topology import IntegralResult, MatrixField, chern_2d, winding_1d, winding_3d
from .witnesses import (
    exp_ptilde,
    gamma3_disk,
    phat_disk,
    trivial_lift_eps1,
    trivial_lift_unit,
)

__all__ = ["IndexInvariants", "index_invariant", "index_invariants_f2_f3"]


@dataclass
class IndexInvariants:
    kind: str
    gamma1: list | None = None
    gamma2: list | None = None
    gamma3: list | None = None
    integrals: dict = field(default_factory=dict)
    hexagons: dict = field(default_factory=dict)
    k_groups: dict = field(default_factory=dict)
    cross_checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.cross_checks.values())

    def to_json(self) -> dict:
        out = {"type": self.kind, "cross_checks": self.cross_checks,
               "integrals": self.integrals, "hexagons": self.hexagons}
        if self.gamma1 is not None:
            out["gamma1"] = self.gamma1
            out["gamma2"] = self.gamma2
        if self.gamma3 is not None:
            out["gamma3"] = self.gamma3
        if self.k_groups:
            out["k_groups"] = self.k_groups
        return out


def _const_one_line() -> MatrixField:
    return MatrixField.constant(np.ones((1, 1)), 1, "const_one")


def _store(res: IndexInvariants, integral: IntegralResult):
    res.integrals[integral.name] = integral.to_json()
    return integral


def index_invariant(kind: str, resolution_2d: int = 512,
                    resolution_3d: int = 128) -> IndexInvariants:
    """Compute the index invariants of type F2 or F3 from the witness integrals."""
    if kind not in ("F2", "F3"):
        raise ValueError("kind must be 'F2' or 'F3'")
    return _index_invariant(kind, resolution_2d, resolution_3d,
                            chern_2d(phat_disk(resolution_2d)))


def index_invariants_f2_f3(resolution_2d: int = 512, resolution_3d: int = 128
                           ) -> tuple[IndexInvariants, IndexInvariants]:
    """`index_invariant` of F2 and of F3, which share one calibration integral."""
    cal = chern_2d(phat_disk(resolution_2d))
    return (_index_invariant("F2", resolution_2d, resolution_3d, cal),
            _index_invariant("F3", resolution_2d, resolution_3d, cal))


def _index_invariant(kind: str, resolution_2d: int, resolution_3d: int,
                     cal: IntegralResult) -> IndexInvariants:
    """`index_invariant`, given `cal`, the Chern integral of phat_disk(resolution_2d)."""
    res = IndexInvariants(kind)

    # Orientation calibration: the hedgehog disk charge is the +1 reference.
    _store(res, cal)
    res.cross_checks["calibration_charge_is_one"] = cal.rounded == 1

    if kind == "F2":
        w_unit = _store(res, winding_3d(trivial_lift_unit()))
        w_eps = _store(res, winding_3d(trivial_lift_eps1()))
        w_plus = _store(res, winding_3d(exp_ptilde("+", resolution_3d)))
        w_minus = _store(res, replace(w_plus, name="exp_ptilde_minus", extra=dict(w_plus.extra)))
        # Columns = images of the K0 generators (unit, hedgehog - constant);
        # rows = coefficients on [b]x[u+], [b]x[u-].
        res.gamma1 = [[w_unit.rounded, w_plus.rounded],
                      [w_unit.rounded, w_minus.rounded]]
        res.gamma2 = [[w_plus.rounded], [w_minus.rounded]]
        res.cross_checks["eps1_column_vanishes"] = w_eps.rounded == 0

        groups, known = ktheory.hexagon_preset("gamma1", delta0=res.gamma1)
        sols = ktheory.solve_six_term(groups, known)
        res.cross_checks["gamma1_hexagon_unique"] = len(sols) == 1
        if sols:
            seq = sols[0]
            res.hexagons["gamma1"] = seq.to_json()
            res.k_groups["K0(C*(F2))"] = int(seq.groups[1])
            res.k_groups["K1(C*(F2))"] = int(seq.groups[4])
            res.cross_checks["k_groups_are_Z"] = ktheory.completions_hold("gamma1", sols)

        groups2, known2 = ktheory.hexagon_preset("gamma2", delta1=res.gamma2)
        sols2 = ktheory.solve_six_term(groups2, known2)
        res.cross_checks["gamma2_hexagon_unique"] = len(sols2) == 1
        if sols2:
            res.hexagons["gamma2"] = sols2[0].to_json()
        return res

    # F3: the unit class lifts to the unit, so the exponential connecting map
    # vanishes; the index connecting map is the transverse disk charge.
    w_unit = _store(res, winding_1d(_const_one_line(), "+"))
    disk = _store(res, chern_2d(gamma3_disk(resolution_2d)))
    res.cross_checks["disk_charge_magnitude_one"] = abs(disk.rounded) == 1
    res.gamma3 = [w_unit.rounded, abs(disk.rounded)]

    groups, known = ktheory.hexagon_preset("gamma3", delta1=[[abs(disk.rounded)]])
    sols = ktheory.solve_six_term(groups, known)
    res.cross_checks["gamma3_hexagon_unique"] = len(sols) == 1
    if sols:
        seq = sols[0]
        res.hexagons["gamma3"] = seq.to_json()
        res.cross_checks["gamma3_pattern_alternating"] = ktheory.completions_hold("gamma3", sols)
        res.cross_checks["delta0_vanishes"] = int(seq.delta0[0, 0]) == 0
    return res
