"""branekit: numerical verification of the finite-dimensional algebra behind
open-closed 2d topological field theory.

Subpackages cover: commutative Frobenius algebras and their idempotent bases
(frobenius), block-matrix brane categories with the Cardy condition (branes),
discretized algebra families with spectral covers (family), permuted-diagonal
2-vector-bundle cocycles (bdr), twisted vector bundles and Azumaya extraction
(twisted), and the brane-to-twisted-bundle bridge over a cover (spectral).
"""

__version__ = "0.1.0"
