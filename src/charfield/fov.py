"""Fields of values, their multiplicities, and the bound comparisons.

Q(chi) is the fixed field of chi's stabilizer under the Galois action on
the rows (CharacterTable.galois_action).  Its label is that stabilizer mod
the smallest conductor m with Q(chi) inside Q_m, so the same subfield
arising in different groups gets the same key.  m is the lcm of the
values' conductors, as Q(chi) is their compositum.  f(G) is the largest
number of rows sharing one field label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import euler_phi, floor_log2_log2, prime_exponent_sum
from .chartab import CharacterTable, ComputationError, dixon_table
from .perm import quotient_group


@dataclass(frozen=True, order=True)
class FieldLabel:
    """Canonical name of a subfield of a cyclotomic field.

    conductor: smallest m with the field inside Q_m; stabilizer: the sorted
    residues mod m fixing the field (the trivial group is written (1,));
    degree: phi(m) // len(stabilizer).
    """

    conductor: int
    stabilizer: tuple[int, ...]
    degree: int

    def __str__(self):
        if self.conductor == 1:
            return "Q"
        return f"Q({self.conductor}|{','.join(map(str, self.stabilizer))})"


RATIONAL_FIELD = FieldLabel(1, (1,), 1)


class GaloisClosureError(ComputationError, ArithmeticError):
    """The rows are not closed under the Galois action, so no row has a
    stabilizer to read a field from."""


def field_of_values(table: CharacterTable, row: int) -> FieldLabel:
    """Canonical label of Q(chi) for one row of the table.

    sigma_k fixes Q(chi) exactly when it fixes every value, that is when it
    maps the row to itself, so the stabilizer read from the exact row action
    is Gal(Q_m / Q(chi)) and [Q(chi) : Q] = phi(m) / |stabilizer|.  That
    degree can exceed the degree of every single value: Q(chi) is their
    compositum.
    """
    act = table.galois_action
    if act is None:
        raise GaloisClosureError("the row set is not closed under the Galois action")
    values = table.values[row]
    m = math.lcm(*(v.n for v in values))
    if m == 1:
        return RATIONAL_FIELD
    stab = sorted({k % m for k, perm in act.items() if perm[row] == act[1][row]})
    return FieldLabel(m, tuple(stab), euler_phi(m) // len(stab))


@dataclass(frozen=True)
class BoundsData:
    """Exact comparisons of f and k against the classic class-number bounds."""

    order: int
    floor_log2_log2: int
    omega: int
    k_ge_log2log2: bool      # 2^(2^k) >= |G|
    f_ge_floor_log2log2: bool
    k_gt_log3: bool          # 3^k > |G|
    f_gt_log3: bool
    k_ge_omega: bool
    f_ge_omega: bool


def k_ge_log2log2(order: int, k: int) -> bool:
    """2^(2^k) >= order, without building 2^(2^k), which has 2^k bits.

    For n >= 1 and m >= 0: 2^m >= n iff n - 1 < 2^m iff
    (n - 1).bit_length() <= m.  Take m = 2^k.
    """
    return (1 << k) >= (order - 1).bit_length()


def _bounds(order: int, k: int, f: int) -> BoundsData:
    # 3^k and 3^f stay small: f <= k <= chartab.MAX_CLASSES
    fll = floor_log2_log2(order) if order >= 2 else 0
    omega = prime_exponent_sum(order)  # 0 for the trivial group
    return BoundsData(
        order=order,
        floor_log2_log2=fll,
        omega=omega,
        k_ge_log2log2=k_ge_log2log2(order, k),
        f_ge_floor_log2log2=f >= fll,
        k_gt_log3=3**k > order,
        f_gt_log3=3**f > order,
        k_ge_omega=k >= omega,
        f_ge_omega=f >= omega,
    )


@dataclass(frozen=True)
class FReport:
    """Field buckets and the multiplicity invariant for one group."""

    group: str
    order: int
    k: int
    f: int
    rational: int
    max_degree: int
    degrees: tuple[int, ...]  # character degree per row, table order
    buckets: tuple[tuple[FieldLabel, tuple[int, ...]], ...]  # label -> row indices
    bounds: BoundsData

    def bucket_sizes(self) -> dict[FieldLabel, int]:
        return {label: len(rows) for label, rows in self.buckets}

    def to_obj(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "k": self.k,
            "f": self.f,
            "rational": self.rational,
            "max_degree": self.max_degree,
            "buckets": [
                {
                    "conductor": label.conductor,
                    "stabilizer": list(label.stabilizer),
                    "degree": label.degree,
                    "rows": [{"degree": self.degrees[i]} for i in rows],
                }
                for label, rows in self.buckets
            ],
            "bounds": {
                "floor_log2_log2": self.bounds.floor_log2_log2,
                "log3": f"{math.log(self.order, 3):.6f}" if self.order > 1 else "0.000000",
                "omega": self.bounds.omega,
                "k_ge_log2log2": self.bounds.k_ge_log2log2,
                "f_ge_floor_log2log2": self.bounds.f_ge_floor_log2log2,
                "k_gt_log3": self.bounds.k_gt_log3,
                "f_gt_log3": self.bounds.f_gt_log3,
                "k_ge_omega": self.bounds.k_ge_omega,
                "f_ge_omega": self.bounds.f_ge_omega,
            },
        }


def f_value(table: CharacterTable, name: str = "") -> FReport:
    """Bucket every row by its field of values; f = largest bucket."""
    k = table.k
    buckets: dict[FieldLabel, list[int]] = {}
    for row in range(k):
        buckets.setdefault(field_of_values(table, row), []).append(row)
    assert sum(len(v) for v in buckets.values()) == k
    ordered = tuple(sorted(((lab, tuple(rows)) for lab, rows in buckets.items()),
                           key=lambda it: (it[0].degree, it[0].conductor, it[0].stabilizer)))
    f = max(len(rows) for _, rows in ordered)
    rational = len(dict(ordered).get(RATIONAL_FIELD, ()))
    max_degree = max(lab.degree for lab, _ in ordered)
    return FReport(
        group=name,
        order=table.group.order,
        k=k,
        f=f,
        rational=rational,
        max_degree=max_degree,
        degrees=table.degrees,
        buckets=ordered,
        bounds=_bounds(table.group.order, k, f),
    )


def rational_count(table: CharacterTable) -> int:
    """Rows whose values are all rational (field = Q)."""
    return sum(1 for row in table.values if all(v.n == 1 for v in row))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witnesses: tuple[str, ...]


def degree_bound_check(report: FReport) -> CheckResult:
    """max row-field degree <= f; and when f <= 3, every quadratic field
    carries at most two rows."""
    witnesses = []
    if report.max_degree > report.f:
        witnesses.append(
            f"max field degree {report.max_degree} exceeds f={report.f}")
    if report.f <= 3:
        for label, rows in report.buckets:
            if label.degree == 2 and len(rows) > 2:
                witnesses.append(
                    f"quadratic field {label} carries {len(rows)} rows with f<=3")
    return CheckResult(not witnesses, tuple(witnesses))


def monotonicity_check(group, normal) -> tuple[bool, int, int]:
    """f(G/N) <= f(G); returns (ok, f(G), f(G/N))."""
    f_g = f_value(dixon_table(group)).f
    f_q = f_value(dixon_table(quotient_group(group, normal))).f
    return (f_q <= f_g, f_g, f_q)


def bounds_report(report: FReport) -> list[str]:
    """Human-readable comparison rows for one group."""
    b = report.bounds
    rows = [
        f"|G| = {b.order}, k = {report.k}, f = {report.f}",
        f"floor(log2 log2 |G|) = {b.floor_log2_log2}: "
        f"k >= log2 log2 |G| {'holds' if b.k_ge_log2log2 else 'FAILS'}; "
        f"f >= floor(log2 log2 |G|) {'holds' if b.f_ge_floor_log2log2 else 'FAILS'}",
        f"log3 |G| comparison: k > log3 |G| {'holds' if b.k_gt_log3 else 'FAILS'}; "
        f"f > log3 |G| {'holds' if b.f_gt_log3 else 'FAILS'}",
        f"omega(|G|) = {b.omega}: k >= omega {'holds' if b.k_ge_omega else 'FAILS'}; "
        f"f >= omega {'holds' if b.f_ge_omega else 'FAILS'}",
    ]
    return rows
