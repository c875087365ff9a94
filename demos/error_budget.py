"""
A priori error budget for replacing a transient solve with the lumped model
===========================================================================

Walks through the two scalar ingredients of the a priori estimate: the
sensitivity coefficient phi computed on a mesh, and the assembled budget
for a set of measured cylinder parameters.
"""
import math

from dunking import budget, fem
from dunking import mesh as mesh_mod

# --- phi and its computable upper bound on a canonical shape ------------
# one factorization of the mean-constrained stiffness gives phi(1,1,1),
# the stability eigenvalues and phi for each boundary variation

msh = mesh_mod.generate_canonical("square", 5)
sc = budget.shape_constants(msh, [fem.eta_variation(msh, "sinusoidal")])
ub = sc.bounds[0]

print(f"square, sinusoidal boundary variation (level 5)")
print(f"  gamma            = {sc.gamma:.6f}   (exact: 4)")
print(f"  phi(1,1,1)       = {sc.phi111:.6f}")
print(f"  phi              = {sc.phi[0]:.6f}")
print(f"  phi upper bound  = {ub.bound:.6f}  (boundary term {ub.delta_eta:.4f})")
print(f"  variance of eta  = {ub.var_eta:.6f}")

# --- the budget for measured parameters ---------------------------------
# B comes from a measured average Nusselt number, B_est from a correlation;
# the gap between them plus the lumping term gives the total estimate.

bud = budget.assemble_budget(B=0.0680, B_est=0.0678, gamma=4.0,
                             phi_used=1.1053)
print()
print("worked cylinder budget (B = 0.0680, B_est = 0.0678, gamma = 4)")
print(f"  biot-mismatch term = {bud.biot:.6f}")
print(f"  lumping term       = {bud.lumping:.6f}")
print(f"  total              = {bud.total:.6f}")

# with only tabulated constants available, the bound-based phi is coarser
phi_ub = (math.sqrt(0.5) + math.sqrt(2.0 * 0.316)) ** 2
worse = budget.assemble_budget(B=0.0680, B_est=0.0678, gamma=4.0,
                               phi_used=phi_ub, phi_provenance="phi_ub")
print(f"  ... with the tabulated upper bound instead: "
      f"lumping {worse.lumping:.6f} ({worse.lumping / bud.lumping:.1f}x)")
