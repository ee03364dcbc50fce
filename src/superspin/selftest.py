"""Acceptance suite: the ten desk-scale checks behind the CLI selftest.

Each criterion is a standalone seeded function returning a CriterionResult;
run_all executes any subset deterministically.  The same functions back the
pytest acceptance module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .clifford import (
    CliffordElement,
    ExtendedSuperbivector,
    bivector_to_matrix,
    clifford_exp,
    matrix_to_bivector,
    random_sphere_vector,
    reflection_matrix,
)
from .grassmann import GrassmannNumber
from .orthosymplectic import (
    check_o0,
    decompose_rotation,
    random_rotation,
    random_supermatrix,
)
from .spin import (
    SpinElement,
    action_matrix,
    fractional_fourier,
    kernel_sign,
    ladder_pair,
    lift_rotation,
    oscillator_exp,
    oscillator_power,
    split_bivector,
)
from .supermatrix import GrassmannMatrix, Supermatrix, expm, q_gram_matrix, symplectic_form

DEFAULT_SEED = 20240901


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)  # wall time, set by run_all


def _result(index: int, name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(index, name, bool(passed), detail)


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Berezinian-exponential identity sdet(e^M) = e^{str M}."""
    tol = 1e-8
    worst = 0.0
    for i in range(100):
        mat = random_supermatrix(3, 2, 4, seed=seed * 100 + i, scale=0.2)
        lhs = expm(mat).sdet()
        rhs = mat.supertrace().exp()
        rel = (lhs - rhs).norm() / max(1.0, rhs.norm())
        worst = max(worst, rel)
    return _result(1, "sdet(exp M) = exp(str M), 100 supermatrices",
                   worst <= tol, f"max relative residual {worst:.3e} (tol {tol:g})")


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Defining relation of the group equals the three block equations."""
    tol = 1e-12
    worst = 0.0
    for i in range(100):
        mat = random_supermatrix(3, 2, 4, seed=seed * 100 + 7000 + i, scale=0.3)
        m, n = mat.p, mat.q // 2
        gram = q_gram_matrix(m, n, mat.order)
        defining = mat.supertranspose() @ gram @ mat - gram
        a, b = mat.block_a(), mat.block_b()
        c, d = mat.block_c(), mat.block_d()
        omega = GrassmannMatrix.from_body(symplectic_form(n), mat.order)
        first = a.transpose() @ a - (c.transpose() @ omega @ c).scale(0.5) \
            - GrassmannMatrix.eye(m, mat.order)
        second = a.transpose() @ b - (c.transpose() @ omega @ d).scale(0.5)
        third = b.transpose() @ b + (d.transpose() @ omega @ d).scale(0.5) \
            - omega.scale(0.5)
        rebuilt = Supermatrix.from_blocks(
            first, second, -second.transpose(), -third
        )
        scale = max(1.0, defining.norm())
        worst = max(worst, (defining.mat - rebuilt.mat).norm() / scale)
    return _result(2, "defining relation = block equations, 100 matrices",
                   worst <= tol, f"max rearrangement deviation {worst:.3e} (tol {tol:g})")


def _isomorphism_basis(m: int, n: int, order: int
                       ) -> list[ExtendedSuperbivector]:
    """The complete superbivector basis with canonical Grassmann coefficients."""
    even_masks = [mask for mask in range(1 << order) if mask.bit_count() % 2 == 0]
    odd_masks = [mask for mask in range(1 << order) if mask.bit_count() % 2 == 1]
    basis = []
    for mask in even_masks:
        coeff = GrassmannNumber.blade(order, mask)
        for j in range(1, m + 1):
            for k in range(j + 1, m + 1):
                basis.append(ExtendedSuperbivector(m, n, order, b={(j, k): coeff}))
        for u in range(1, 2 * n + 1):
            for v in range(u, 2 * n + 1):
                basis.append(ExtendedSuperbivector(m, n, order, bb={(u, v): coeff}))
    for mask in odd_masks:
        coeff = GrassmannNumber.blade(order, mask)
        for j in range(1, m + 1):
            for u in range(1, 2 * n + 1):
                basis.append(ExtendedSuperbivector(m, n, order, bq={(j, u): coeff}))
    return basis


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The commutator action is a Lie algebra isomorphism on the full basis."""
    tol = 1e-11
    m, n, order = 2, 1, 2
    basis = _isomorphism_basis(m, n, order)
    expected = 2 ** (order - 1) * (m * (m - 1) // 2 + 2 * m * n + n * (2 * n + 1))
    if len(basis) != expected:
        return _result(3, "bivector-matrix Lie isomorphism",
                       False, f"basis size {len(basis)} != {expected}")
    images = [bivector_to_matrix(b) for b in basis]
    flattened = []
    for mat in images:
        width = mat.size * mat.size
        dense = np.zeros((1 << order, width), dtype=complex)
        dense[list(mat.mat.masks)] = mat.mat.stack.reshape(len(mat.mat.masks), width)
        flattened.append(dense.ravel())
    rank = np.linalg.matrix_rank(np.array(flattened))
    if rank != expected:
        return _result(3, "bivector-matrix Lie isomorphism",
                       False, f"image rank {rank} != {expected}")
    worst = 0.0
    clifford = [b.to_clifford(cap=4) for b in basis]
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            bracket = clifford[i] * clifford[j] - clifford[j] * clifford[i]
            lhs = bivector_to_matrix(bracket.as_superbivector(tol=1e-12))
            rhs = images[i] @ images[j] - images[j] @ images[i]
            worst = max(worst, (lhs - rhs).norm())
    passed = worst <= tol
    return _result(3, f"Lie isomorphism on the full basis ({expected} elements)",
                   passed, f"max bracket deviation {worst:.3e} (tol {tol:g})")


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Reflection suite on 50 random supersphere vectors."""
    m, n, order = 3, 1, 4
    tol, tol_invol = 1e-9, 1e-10
    worst = {"group": 0.0, "sdet": 0.0, "detA": 0.0, "detD": 0.0, "invol": 0.0}
    for i in range(50):
        w = random_sphere_vector(m, n, order, seed=seed * 100 + 31 + i)
        psi = reflection_matrix(w)
        report = check_o0(psi, tol)
        worst["group"] = max(worst["group"], report.residual)
        worst["sdet"] = max(worst["sdet"], (psi.sdet() + 1.0).norm())
        det_a = psi.block_a().det()
        sum_sq = GrassmannNumber.zero(order)
        for g in w.even:
            sum_sq = sum_sq + g * g
        worst["detA"] = max(worst["detA"], (det_a - (1.0 - 2.0 * sum_sq)).norm())
        det_d = psi.block_d().det()
        pairs = GrassmannNumber.zero(order)
        for t in range(n):
            pairs = pairs + w.odd[2 * t] * w.odd[2 * t + 1]
        worst["detD"] = max(worst["detD"], (det_d * (1.0 + 2.0 * pairs) - 1.0).norm())
        square = psi @ psi
        worst["invol"] = max(
            worst["invol"],
            (square - Supermatrix.eye(m, 2 * n, order)).norm(),
        )
    passed = (worst["group"] <= tol and worst["sdet"] <= tol
              and worst["detA"] <= tol and worst["detD"] <= tol
              and worst["invol"] <= tol_invol)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return _result(4, "reflection suite, 50 supersphere vectors", passed, detail)


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Three-exponential decomposition roundtrip and uniqueness of (Y, Z)."""
    m, n, order = 3, 1, 4
    tol = 1e-8
    worst_recon, worst_stable = 0.0, 0.0
    for i in range(50):
        mat = random_rotation(m, n, order, seed=seed * 100 + 57 + i, factors=3)
        dec = decompose_rotation(mat)
        recon = dec.reconstruct()
        worst_recon = max(worst_recon, (recon - mat).norm() / max(1.0, mat.norm()))
        again = decompose_rotation(recon)
        stable = max(
            (again.symmetric - dec.symmetric).norm(),
            (again.nilpotent - dec.nilpotent).norm(),
        )
        worst_stable = max(worst_stable, stable)
    passed = worst_recon <= tol and worst_stable <= tol
    return _result(5, "decomposition roundtrip + (Y, Z) uniqueness, 50 rotations",
                   passed,
                   f"max reconstruction {worst_recon:.3e}, max drift {worst_stable:.3e}")


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Spin lift covers the rotation; factors live in the split subspaces."""
    m, n, order = 3, 1, 4
    tol = 1e-8
    worst_cover, worst_purity = 0.0, 0.0
    for i in range(50):
        mat = random_rotation(m, n, order, seed=seed * 100 + 57 + i, factors=3)
        element = lift_rotation(mat)
        acted = action_matrix(element)
        worst_cover = max(worst_cover, (acted - mat).norm() / max(1.0, mat.norm()))
        first = split_bivector(element.factors[0])
        second = split_bivector(element.factors[1])
        third = split_bivector(element.factors[2])
        purity = max(
            first.symmetric.norm() + first.nilpotent.norm(),
            second.compact.norm() + second.nilpotent.norm(),
            third.compact.norm() + third.symmetric.norm(),
        )
        worst_purity = max(worst_purity, purity)
    passed = worst_cover <= tol and worst_purity <= tol
    return _result(6, "spin surjectivity h(lift(M)) = M, 50 rotations", passed,
                   f"max covering residual {worst_cover:.3e}, factor impurity {worst_purity:.3e}")


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Oscillator telescoping is exact; Stirling powers match brute force."""
    m, n, order = 2, 1, 2
    osc = oscillator_exp(math.pi, 1, m, n, order)
    minus_one = CliffordElement.scalar(m, n, order, -1.0, osc.element.cap)
    exact = (osc.element - minus_one).norm() == 0.0 and osc.truncation_bound == 0.0
    worst = 0.0
    for k in range(1, 5):
        cap = 2 * k
        formula = oscillator_power(k, 1, m, n, order, cap=cap)
        a, b = ladder_pair(m, n, order, 1, cap=cap)
        product = a.multiply(b, strict=True)
        brute = CliffordElement.scalar(m, n, order, 1.0, cap)
        for _ in range(k):
            brute = brute.multiply(product, strict=True)
        worst = max(worst, (formula - brute).norm())
    passed = exact and worst <= 1e-12
    return _result(7, "oscillator exactness + Stirling powers k <= 4", passed,
                   f"pi-telescoping exact: {exact}, max power deviation {worst:.3e}")


def _conjugated_winding_element(m, n, order, windings, rng, rotate):
    """Kernel generator with the given 2-pi windings per symplectic plane,
    optionally conjugated by a random compact symplectic rotation so the
    block structure is hidden from the sign computation."""
    angles = np.zeros((2 * n, 2 * n))
    for t, k in enumerate(windings):
        angles[2 * t, 2 * t + 1] = 2.0 * math.pi * k
        angles[2 * t + 1, 2 * t] = -2.0 * math.pi * k
    if rotate:
        omega = symplectic_form(n)
        sym = rng.normal(size=(2 * n, 2 * n), scale=0.6)
        generator = omega @ (sym + sym.T)
        generator = 0.5 * (generator - generator.T)
        phases, vecs = np.linalg.eigh(1j * generator)  # exp(generator) from i * generator
        frame = ((vecs * np.exp(-1j * phases)) @ vecs.conj().T).real
        angles = frame @ angles @ frame.T
    body = np.zeros((m + 2 * n, m + 2 * n), dtype=complex)
    body[m:, m:] = angles
    return matrix_to_bivector(Supermatrix.from_body(m, 2 * n, body, order))


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Double cover: kernel signs are +-1, predicted by winding parity, also
    at windings 10 and 25 in one bosonic plane and (4, 3) in two planes of a
    random SO(5) frame."""
    m, n, order = 3, 2, 2
    pi_coeff = GrassmannNumber.scalar(order, math.pi)

    def bosonic(k):
        return ExtendedSuperbivector(m, n, order,
                                     b={(1, 2): GrassmannNumber.scalar(order, k * math.pi)})

    sigma = ExtendedSuperbivector(m, n, order,
                                  bb={(1, 1): pi_coeff, (2, 2): pi_coeff})
    checks = [kernel_sign(sigma) == -1, kernel_sign(bosonic(1)) == -1,
              kernel_sign(ExtendedSuperbivector.zero(m, n, order)) == 1,
              kernel_sign(bosonic(2)) == 1]
    rng = np.random.default_rng(seed)
    signs = set()
    prediction_ok = True
    for sample in range(20):
        windings = rng.integers(0, 3, size=n + 1)
        planes = [(1, 2), (1, 3), (2, 3)]
        j, k = planes[rng.integers(0, len(planes))]
        b = {}
        if windings[0]:
            b[(j, k)] = GrassmannNumber.scalar(order, math.pi * windings[0])
        element = ExtendedSuperbivector(m, n, order, b=b)
        element = element + _conjugated_winding_element(
            m, n, order, windings[1:], rng, rotate=bool(sample % 2)
        )
        sign = kernel_sign(element)
        signs.add(sign)
        if sign != (-1) ** int(windings.sum()):
            prediction_ok = False
            break
    turns, frame = np.zeros((5, 5)), np.linalg.qr(rng.normal(size=(5, 5)))[0]
    turns[0, 1], turns[2, 3] = 8.0 * math.pi, 6.0 * math.pi
    frame[:, 0] *= np.sign(np.linalg.det(frame))  # into SO(5)
    tilted = matrix_to_bivector(
        Supermatrix.from_body(5, 0, frame @ (turns - turns.T) @ frame.T, order))
    prediction_ok = prediction_ok and kernel_sign(bosonic(10)) == 1 \
        and kernel_sign(bosonic(25)) == -1 and kernel_sign(tilted) == -1
    passed = all(checks) and prediction_ok and signs == {-1, 1}
    return _result(8, "double cover kernel signs", passed,
                   f"fixed cases {checks}, both signs seen: {signs == {-1, 1}}")


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Fourth-power fractional Fourier elements: identity rotation, sign (-1)^n."""
    tol = 1e-10
    m, order = 3, 2
    results = []
    for n in (1, 2, 3):
        element = fractional_fourier([2.0] * n, m, order)
        acted = action_matrix(element)
        residual = (acted - Supermatrix.eye(m, 2 * n, order)).norm()
        sign = kernel_sign(element.factors[0])
        results.append((residual, sign == (-1) ** n))
    worst = max(r for r, _ in results)
    signs_ok = all(ok for _, ok in results)
    passed = worst <= tol and signs_ok
    return _result(9, "fractional Fourier F^4 elements, n = 1..3", passed,
                   f"max identity residual {worst:.3e}, signs match (-1)^n: {signs_ok}")


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Classical degeneration n = 0: rotations in SO(3) with the +-s cover."""
    m, n, order = 3, 0, 2
    tol = 1e-10
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    cover_ok = True
    flip = ExtendedSuperbivector(m, n, order,
                                 b={(1, 2): GrassmannNumber.scalar(order, math.pi)})
    for i in range(20):
        coeffs = rng.normal(scale=0.8, size=3)
        biv = ExtendedSuperbivector(
            m, n, order,
            b={(1, 2): GrassmannNumber.scalar(order, coeffs[0]),
               (1, 3): GrassmannNumber.scalar(order, coeffs[1]),
               (2, 3): GrassmannNumber.scalar(order, coeffs[2])},
        )
        rot = action_matrix(SpinElement(m, n, order, [biv]))
        body = rot.body_matrix().real
        ortho = np.abs(body.T @ body - np.eye(m)).max()
        det = abs(np.linalg.det(body) - 1.0)
        worst = max(worst, ortho, det, np.abs(rot.body_matrix().imag).max())
        # the flipped lift acts identically but negates the Clifford element
        same = (action_matrix(SpinElement(m, n, order, [flip, biv])) - rot).norm()
        worst = max(worst, same)
        plus = clifford_exp(biv.to_clifford(cap=0))
        minus = clifford_exp(flip.to_clifford(cap=0)).multiply(plus)
        if (plus + minus).norm() > 1e-9 * max(1.0, plus.norm()):
            cover_ok = False
    # reflections degenerate to I - 2 w w^T with determinant -1
    w = random_sphere_vector(m, n, order, seed=seed + 77)
    psi = reflection_matrix(w)
    body = psi.body_matrix().real
    wb = w.body_vector().real
    worst = max(worst, np.abs(body - (np.eye(m) - 2 * np.outer(wb, wb))).max())
    worst = max(worst, (psi.sdet() + 1.0).norm())
    passed = worst <= tol and cover_ok
    return _result(10, "classical degeneration n = 0 (SO(3) + double cover)",
                   passed, f"max residual {worst:.3e}, +-s cover: {cover_ok}")


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all(seed: int = DEFAULT_SEED,
            only: Iterable[int] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria (a subset via `only`), deterministically."""
    wanted = set(only) if only is not None else None
    results = []
    for index, criterion in enumerate(CRITERIA, start=1):
        if wanted is not None and index not in wanted:
            continue
        start = time.perf_counter()
        result = criterion(seed)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def format_table(results: Sequence[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.index}: {r.name} -- {r.detail}"
                     f" ({r.seconds:.2f} s)")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
