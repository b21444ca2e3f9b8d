"""divalg: exact workbench for divergence-zero vector-field algebras on
tori and quantum tori, their graded tensor modules, and a box-truncated
submodule-closure engine for checking irreducibility statements at desk
scale.

All arithmetic is exact: arbitrary-precision rationals and cyclotomic
numbers, integer lattices, and canonical reduced row-echelon bases.
"""

__version__ = "0.1.0"
