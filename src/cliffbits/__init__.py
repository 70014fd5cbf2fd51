"""Exact Clifford algebra kernels over dyadic rational arithmetic.

Two product engines share one algebra:

* a blade engine for any real signature Cl(k, l), where basis blades are
  bitmasks and the product sign is a bilinear form over GF(2) on them,
  built from the one primitive ``parity_above``; the product runs as a
  loop over blade pairs or, on dense operands, as a Gray-code walk over
  the blades of one operand that moves the other, packed into one int,
  with a few mask-and-shift operations per step;
* a fast engine for the neutral signatures Cl(m, m), where the algebra
  is a matrix of normalized matrix units stored by column coset
  g = row ^ col, as integer numerators over one power of two; the
  product is a plain matrix product with no sign at all, run as an
  XOR-graded coset sweep or, on dense narrow operands, as big-int
  multiplies of columns packed into the binary digits of one int each,
  and the changes of basis to and from blades are Walsh-Hadamard
  transforms, one per operand over all of its stored cosets, run by the
  list stages of ``bits.walsh_batch`` or, for a blade operand in list
  form and a matrix that keeps packed columns, which only the
  conversions in ``efb`` pick, by the column kernel on packed rows; a
  dense matrix keeps its packed columns from the
  conversion in through the product to the conversion out.
  ``efb`` holds that engine alone; the basis words behind the matrix
  units, their signs and the oracles they are checked with live in
  ``words``.

A dense product costs 16^m coefficient pairs in the blade engine but
only 8^m triples in the fast one, a factor of exactly 2^m.  A blade
multivector and a Fock-basis matrix keep their coefficients in one
format, integer numerators over one shared power of two in canonical
form, so products and conversions hand plain ints to each other and
a DyadicRational is built only where a coefficient is read out.  The
dyadic module holds the one reader and the one writer of coefficient
text, so parsing a multivector builds no DyadicRational either.

The classification half of the package names the matrix algebra of any
Cl(k, l) from three mod-8 residues, and can run the other way, turning
measured squares of canonical elements back into bits of the signature.

The oracle layer (``verify``), which also holds the slow oracles that
the classification's closed forms are checked against (the
volume-element square, the centre, the dual-automorphism squares and
Lucas' binomial parity), and the word calculus (``words``) load on the
first access of one of their names, so a product imports neither.
"""

from importlib import import_module

from .bits import (bit, bit_to_sign, half_pochhammer_sign, neg_mod8,
                   parity_above, sign_bit, sign_to_bit, walsh_hadamard)
from .blades import (Metric, MetricError, Multivector, ParseError,
                     blade_product, grade_involution, mv_mul, volume_element)
from .classify import (AlgebraClass, AutomorphismBits, SignatureKL,
                       algebra_name, classification_record, classify,
                       cube_coordinates, cube_record, division_algebra,
                       omega_squared, omega_tau_squared, recover_n_bits,
                       recover_signature_partial, render_cube, tau_squared,
                       varlamov_bits)
from .dyadic import DyadicRational
from .efb import EFBMultivector, blades_to_efb, efb_product, efb_to_blades
from .instrument import OpCounts, op_counters, reset_op_counters

# the module of each name of the oracle layer and the word calculus: a
# product needs neither, so each loads on the first access of one of its
# names (PEP 562), and `import cliffbits` leaves both, and the samplers
# that verify imports, unloaded
_LAZY = {name: module for module, names in (
    ("verify", ("CheckResult", "center_check", "dual_automorphism_check",
                "lucas_sign", "omega_squared_oracle",
                "omega_tau_squared_oracle", "run_suite", "tau_blade",
                "tau_squared_oracle")),
    ("words", ("ChiralityRecord", "EFBElement", "EFBIndex", "efb_element",
               "matrix_unit_normalization", "normal_order",
               "normalization_sign", "omega_eigen_check", "sig_label",
               "sign_s", "signatures", "table_entries", "witt_basis",
               "word_multivector", "word_product_oracle"))) for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__),
                                      name)
    return value


__version__ = "0.1.0"

__all__ = [
    "AlgebraClass", "AutomorphismBits", "ChiralityRecord", "CheckResult",
    "DyadicRational", "EFBElement", "EFBIndex", "EFBMultivector", "Metric",
    "MetricError", "Multivector", "OpCounts", "ParseError", "SignatureKL",
    "algebra_name", "bit", "bit_to_sign", "blade_product", "blades_to_efb",
    "center_check", "classification_record", "classify", "cube_coordinates",
    "cube_record", "division_algebra", "dual_automorphism_check",
    "efb_element", "efb_product", "efb_to_blades", "grade_involution",
    "half_pochhammer_sign", "lucas_sign", "matrix_unit_normalization",
    "mv_mul", "neg_mod8", "normal_order", "normalization_sign",
    "omega_eigen_check", "omega_squared", "omega_squared_oracle",
    "omega_tau_squared", "omega_tau_squared_oracle", "op_counters",
    "parity_above", "recover_n_bits", "recover_signature_partial",
    "render_cube",
    "reset_op_counters", "run_suite", "sig_label", "sign_bit", "sign_s",
    "sign_to_bit", "signatures", "table_entries", "tau_blade", "tau_squared",
    "tau_squared_oracle", "varlamov_bits", "volume_element", "walsh_hadamard",
    "witt_basis", "word_multivector", "word_product_oracle",
]
