"""Mod-8 classification of the real Clifford algebras of R^{k,l}.

Everything is a function of nu = k - l and n = k + l reduced mod 8.
The three low bits of nu place the algebra on a cube (centrality, sign
of the volume-element square, R versus H); for even n the squares of
the two dual-automorphism elements recover the bits of n itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bits import bit, half_pochhammer_sign, sign_bit, sign_to_bit

# base division algebra and doubling flag, indexed by nu mod 8
_DIVISION = (
    ("R", False), ("R", True), ("R", False), ("C", False),
    ("H", False), ("H", True), ("H", False), ("C", False),
)
_LOG2_BASE_DIM = {"R": 0, "C": 1, "H": 2}
# the largest n = k + l that classify builds: a matrix size of at most
# 2^(n/2) then takes at most 1 MB
MAX_CLASSIFY_N = 1 << 24


@dataclass(frozen=True)
class SignatureKL:
    """A real quadratic space signature: k pluses, l minuses."""

    k: int
    l: int

    def __post_init__(self):
        # type() is int: 2.0 and True equal ints, but are no counts
        if type(self.k) is not int or type(self.l) is not int:
            raise TypeError(
                f"k and l must be ints, got {self.k!r}, {self.l!r}")
        if self.k < 0 or self.l < 0:
            raise ValueError("k and l must be non-negative")

    @property
    def n(self) -> int:
        return self.k + self.l

    @property
    def nu(self) -> int:
        return self.k - self.l

    @property
    def n_mod8(self) -> int:
        return self.n % 8

    @property
    def nu_mod8(self) -> int:
        return self.nu % 8


class AutomorphismBits(NamedTuple):
    """Squares of the inner-automorphism elements: ((w t)^2, t^2, w^2)."""

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class AlgebraClass:
    """Isomorphism class of Cl(k,l): matrix algebra data plus cube bits."""

    base: str
    matrix_size: int
    doubled: bool
    is_central: bool
    is_simple: bool
    omega_sq: int
    cube: tuple[int, int, int]


def division_algebra(nu: int):
    """(base, doubled) from nu mod 8; negative nu reduces the usual way."""
    return _DIVISION[nu % 8]


def cube_coordinates(nu: int) -> tuple[int, int, int]:
    """The three low bits of nu mod 8, least significant first."""
    p = nu % 8
    return (bit(p, 0), bit(p, 1), bit(p, 2))


def omega_squared(k: int, l: int) -> int:
    """Volume-element square: (-1)^(nu(nu-1)/2), any signature; the
    exponent has period 4 in nu, so nu mod 4 serves for negative nu."""
    return half_pochhammer_sign((k - l) % 4)


def tau_squared(k: int, l: int) -> int:
    """Square of the dual-automorphism element; even n only."""
    if (k + l) & 1:
        raise ValueError("tau is undefined for odd n = k + l")
    return half_pochhammer_sign(k if k & 1 else l)


def omega_tau_squared(k: int, l: int) -> int:
    """Square of the combined element: w^2 t^2, negated when k, l are odd."""
    s = omega_squared(k, l) * tau_squared(k, l)
    return -s if k & 1 else s


def _matrix_size_log2(k: int, l: int) -> int:
    """The exponent of Cl(k,l)'s matrix size, without building 2^n."""
    sig = SignatureKL(k, l)
    base, doubled = division_algebra(sig.nu)
    # 2^n = size^2 * dim(base) * (2 if doubled), so the exponent halves
    return (sig.n - _LOG2_BASE_DIM[base] - doubled) // 2


def classify(k: int, l: int) -> AlgebraClass:
    """Full isomorphism class of Cl(k,l) from the closed forms.  Its
    matrix size is built as an int, so n past MAX_CLASSIFY_N is refused
    with a ValueError."""
    sig = SignatureKL(k, l)
    if sig.n > MAX_CLASSIFY_N:
        raise ValueError(f"n = k + l must be at most MAX_CLASSIFY_N = 2^24, "
                         f"got n of {sig.n.bit_length()} bits")
    base, doubled = division_algebra(sig.nu)
    return AlgebraClass(
        base=base,
        matrix_size=1 << _matrix_size_log2(k, l),
        doubled=doubled,
        is_central=sig.n % 2 == 0,
        is_simple=not doubled,
        omega_sq=omega_squared(k, l),
        cube=cube_coordinates(sig.nu),
    )


def algebra_name(cls: AlgebraClass) -> str:
    """Display name like 'R(4)', '2H(2)', 'C'."""
    name = ("2" if cls.doubled else "") + cls.base
    if cls.matrix_size > 1:
        name += f"({cls.matrix_size})"
    return name


def varlamov_bits(k: int, l: int) -> AutomorphismBits:
    """The (a, b, c) = ((w t)^2, t^2, w^2) triple; even n only."""
    return AutomorphismBits(
        a=omega_tau_squared(k, l),
        b=tau_squared(k, l),
        c=omega_squared(k, l),
    )


def recover_n_bits(nu_mod8: int, tau_sq: int, omega_tau_sq: int) -> int:
    """n mod 8 of an even-dimensional algebra from nu mod 8 and the
    squares of the dual-automorphism elements."""
    if not 0 <= nu_mod8 < 8 or nu_mod8 & 1:
        raise ValueError("nu mod 8 must be even and in [0, 8)")
    if tau_sq not in (1, -1) or omega_tau_sq not in (1, -1):
        raise ValueError("squares must be +1 or -1")
    n2 = sign_to_bit(sign_bit(nu_mod8, 2) * tau_sq)
    n1 = sign_to_bit(omega_tau_sq * tau_sq)
    return (n2 << 2) | (n1 << 1)  # bit 0 of an even n is 0


def recover_signature_partial(is_central: bool, base: str,
                              bits: AutomorphismBits):
    """(n mod 8, nu mod 8, k mod 4, l mod 4) from classification data.

    Only even-n (central) algebras are supported, so the base must be R
    or H; the mod-4 residues are all the automorphism squares pin down.
    """
    if not is_central:
        raise ValueError("signature recovery needs an even-n (central) algebra")
    if base == "R":
        nu2 = 0
    elif base == "H":
        nu2 = 1
    else:
        raise ValueError(f"base {base!r} cannot occur for even n")
    nu1 = sign_to_bit(bits.c)
    nu8 = (nu2 << 2) | (nu1 << 1)
    n8 = recover_n_bits(nu8, bits.b, bits.a)
    k4 = ((n8 + nu8) // 2) % 4
    l4 = (((n8 - nu8) % 16) // 2) % 4
    return n8, nu8, k4, l4


def classification_record(k: int, l: int) -> dict:
    """JSON-ready record; tau-dependent fields are None for odd n.

    matrix_size is a power of two and matrix_size_log2 its exponent,
    which prints at any n up to MAX_CLASSIFY_N, past which classify
    refuses n; str() of matrix_size is refused by Python past its
    integer-to-string digit limit (n of about 28,570).
    """
    sig = SignatureKL(k, l)
    cls = classify(k, l)
    even = sig.n % 2 == 0
    vb = varlamov_bits(k, l) if even else None
    return {
        "k": k,
        "l": l,
        "n": sig.n,
        "nu": sig.nu,
        "n_mod8": sig.n_mod8,
        "nu_mod8": sig.nu_mod8,
        "base": cls.base,
        "matrix_size": cls.matrix_size,
        "matrix_size_log2": cls.matrix_size.bit_length() - 1,
        "doubled": cls.doubled,
        "central": cls.is_central,
        "simple": cls.is_simple,
        "omega_sq": cls.omega_sq,
        "tau_sq": vb.b if even else None,
        "omega_tau_sq": vb.a if even else None,
        "cube": list(cls.cube),
        "varlamov": [vb.a, vb.b, vb.c] if even else None,
    }


def _vertex_label(v: int, ascii_mode: bool) -> str:
    base, doubled = division_algebra(v)
    if doubled:
        alg = f"2{base}" if ascii_mode else f"{base}⊕{base}"
    else:
        alg = base
    return f"{v}:{alg}"


def render_cube(ascii_mode: bool = False) -> str:
    """ASCII-art cube of the eight division-algebra classes of nu mod 8."""
    lab = {v: _vertex_label(v, ascii_mode) for v in range(8)}
    w = max(len(s) for s in lab.values())
    lab = {v: s.ljust(w) for v, s in lab.items()}
    omega2 = "omega^2" if ascii_mode else "ω²"
    nu = "nu" if ascii_mode else "ν"
    lines = [
        f"      {lab[6]} ---------- {lab[7]}",
        f"       /|{' ' * (w - 1)}           /|",
        f"      / |{' ' * (w - 1)}          / |",
        f"  {lab[2]} ---------- {lab[3]}   |",
        f"    |   |{' ' * (w - 1)}        |   |",
        f"    |  {lab[4]} -------|-- {lab[5]}",
        f"    |  /{' ' * (w - 1)}         |  /",
        f"    | /{' ' * (w - 1)}          | /",
        f"  {lab[0]} ---------- {lab[1]}",
        "",
        f"  vertex v = {nu} mod 8, bits ({nu}0, {nu}1, {nu}2)",
        f"  {nu}0 (right): 0 = central simple, 1 = volume element spans the center",
        f"  {nu}1 (up):    {omega2} = +1 on the bottom face, -1 on the top",
        f"  {nu}2 (depth): base R in front, base H behind",
    ]
    return "\n".join(lines)


def cube_record() -> dict:
    """JSON-ready cube description."""
    vertices = []
    for v in range(8):
        base, doubled = division_algebra(v)
        vertices.append({
            "nu_mod8": v,
            "bits": list(cube_coordinates(v)),
            "base": base,
            "doubled": doubled,
            "label": ("2" if doubled else "") + base,
        })
    return {
        "vertices": vertices,
        "axes": {
            "bit0": "0 = central simple, 1 = volume element spans the center",
            "bit1": "sign of the volume-element square (+1 on 0)",
            "bit2": "base division algebra (R on 0, H on 1)",
        },
    }
