"""Run STHOSVD and HOSI with *real* process parallelism.

Unlike the cost simulator (which models thousands of ranks), this uses
the mini-MPI of ``repro.vmpi.mp_comm``: one OS process per grid cell,
each holding only its block, with every Gram / TTM / subspace-iteration
contraction moving data through genuine inter-process collectives.

Run:  python examples/process_parallel.py
"""

from __future__ import annotations

import time

from repro import sthosvd, tucker_plus_noise, variant_options
from repro.distributed.mp_hooi import mp_hooi_dt
from repro.distributed.mp_sthosvd import mp_sthosvd


def main() -> None:
    x = tucker_plus_noise((48, 44, 40), (6, 5, 4), noise=1e-3, seed=0)
    grid = (2, 2, 1)
    print(
        f"tensor {x.shape}, grid {'x'.join(map(str, grid))} "
        f"= {2 * 2 * 1} OS processes"
    )

    seq, _ = sthosvd(x, ranks=(6, 5, 4))
    print(f"sequential STHOSVD error: {seq.relative_error(x):.6e}")

    t0 = time.perf_counter()
    par = mp_sthosvd(x, grid, ranks=(6, 5, 4))
    dt = time.perf_counter() - t0
    print(
        f"process-parallel STHOSVD error: {par.relative_error(x):.6e} "
        f"({dt:.2f}s incl. process startup)"
    )
    assert abs(par.relative_error(x) - seq.relative_error(x)) < 1e-10

    t0 = time.perf_counter()
    hosi, _ = mp_hooi_dt(
        x, (6, 5, 4), grid, variant_options("hosi", max_iters=2, seed=1)
    )
    dt = time.perf_counter() - t0
    print(
        f"process-parallel HOSI error:    {hosi.relative_error(x):.6e} "
        f"({dt:.2f}s incl. process startup)"
    )
    print(
        "\nNote: the mini-MPI demonstrates correctness of the parallel "
        "algorithms with real data movement; performance at scale is "
        "the cost simulator's job (see examples/scaling_study.py)."
    )


if __name__ == "__main__":
    main()
