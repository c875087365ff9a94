"""Learning the length-scale ratio that transplants a sphere correlation.

Synthetic Nusselt observations for a hypothetical geometry family are
inverted pointwise for q, averaged over log Re, assembled into a bilinear
surrogate in (aspect ratio, angle of attack), and finally used to rescale
the reference correlation.
"""
import numpy as np

from dunking import correlations as corr
from dunking import lengthscale as ls

rm = corr.get_correlation("ranz_marshall")

# --- pointwise inversion over a Reynolds sweep --------------------------
q_true = 1.44
res = np.geomspace(20.0, 5000.0, 9)
nus = [corr.transform_correlation(rm, q_true, re, 0.71)[0] for re in res]
qs = ls.solve_q(rm, res, nus, 0.71)
print("per-Re inversions:", " ".join(f"{q:.6f}" for q in qs))
print(f"log-average q = {ls.average_q_log(zip(res, qs)):.6f} "
      f"(generator used {q_true})")

# --- a small surrogate over the geometry family -------------------------
triples = []
for s in (0.25, 1.0, 4.0):
    for th in (0.0, 45.0, 90.0):
        q = 1.0 + 0.5 * np.log10(s) ** 2 + th / 200.0
        triples.append((s, th, q))
model = ls.build_surrogate(triples)
print()
print("surrogate q(s, theta):")
for s, th in ((0.5, 20.0), (2.0, 60.0), (1.0, 45.0)):
    print(f"  q({s:>4}, {th:>4}) = {model.evaluate(s, th):.4f}")

# --- rescaled correlation and the Biot number it implies ----------------
q = model.evaluate(2.0, 60.0)
nu2, ok = corr.transform_correlation(rm, q, 800.0, 0.71)
print()
print(f"rescaled correlation at Re = 800: Nu = {nu2:.3f} (in range: {ok})")
print(f"with conductivity ratio r2 = 0.05: "
      f"B = {corr.biot_from_nusselt(0.05, nu2):.4f}")
