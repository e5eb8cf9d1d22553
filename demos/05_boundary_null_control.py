"""Boundary null control by the penalized Gramian method.

Synthesizes a control acting in the boundary equation that steers the state
pair to (numerically) zero at time T.  The Gramian composes one backward
solve, a boundary trace, and one forward solve; Lanczos with a fully
reorthogonalized basis in the mass inner product (conjugate gradients'
iterates) solves the penalized normal equation.  The script sweeps
the penalty and prints the achieved final norms, solves the same ladder
again in one multi-shift Lanczos solve (one Krylov basis for every eps,
each rung bit for bit its single-eps solve), then verifies the result on a
refined time grid.
"""

from dynbc import (
    ControlProblem,
    assemble,
    build_disk_mesh,
    build_interval_mesh,
    norm_X2,
    smallest_eigenpair,
    synthesize_control,
    synthesize_ladder,
    verify_null,
)

sys_ = assemble(build_interval_mesh(0.0, 1.0, 32), 1.0, 0.0, 1.0)
_, ground = smallest_eigenpair(sys_)
U0 = ground / norm_X2(sys_, ground)

print("1D instance, U0 = lowest coupled eigenmode, T = 1, nt = 128")
print(f"{'eps':>8} {'final norm':>12} {'control norm':>13} {'CG iters':>9}")
results = {}
for eps in (1e-2, 1e-4, 1e-6):
    prob = ControlProblem(sys=sys_, U0=U0, T=1.0, nt=128, theta=0.5, eps=eps,
                          cg_tol=1e-8, cg_maxit=500)
    res = synthesize_control(prob)
    results[eps] = (prob, res)
    print(f"{eps:8.0e} {res.final_norm:12.4e} {res.control_norm:13.4f} "
          f"{res.iterations:9d}")

ladder = synthesize_ladder([results[eps][0] for eps in results])
print("\none multi-shift Lanczos solve for the whole ladder:")
print(f"{'eps':>8} {'final norm':>12} {'CG iters':>9} {'same bits':>10}")
for (eps, (prob, res)), rung in zip(results.items(), ladder):
    same = rung.phi_T.tobytes() == res.phi_T.tobytes()
    print(f"{eps:8.0e} {rung.final_norm:12.4e} {rung.iterations:9d} {str(same):>10}")

prob, res = results[1e-6]
report = verify_null(prob, res)
print(f"\nverification at eps = 1e-6:")
print(f"  final norm re-run at doubled nt : {report.final_norm_refined:.4e}")
print(f"  duality residual of the run     : {report.duality_residual:.3e}")
print(f"  penalized optimality residual   : {report.optimality_residual:.3e}")

disk = assemble(build_disk_mesh(1.0, 8, 32), 1.0, delta=0.1, beta=1.0)
_, g2 = smallest_eigenpair(disk)
U0d = g2 / norm_X2(disk, g2)
probd = ControlProblem(sys=disk, U0=U0d, T=1.0, nt=64, theta=0.5, eps=1e-4,
                       cg_tol=1e-8, cg_maxit=500)
resd = synthesize_control(probd)
print(f"\ndisk with surface diffusion (delta = 0.1, {disk.ndof} dofs):")
print(f"  final norm {resd.final_norm:.4e} in {resd.iterations} CG iterations")
